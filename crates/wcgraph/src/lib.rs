//! Directed-graph analytics substrate for the DynaMiner reproduction.
//!
//! DynaMiner's 19 graph features (f7–f25 in the paper) are each the mean
//! of one graph measure — centralities, connectivity, clustering,
//! PageRank — that the paper's authors obtained from NetworkX. This crate
//! implements exactly those measures, one kernel each, on a small
//! directed multigraph, [`DiGraph`], loaded into a reusable CSR
//! [`GraphView`].
//!
//! The kernels live in [`algo`]; each documents the exact definition used
//! (several of the paper's one-line feature descriptions are ambiguous —
//! where NetworkX has a function of the same name we follow its
//! semantics).
//!
//! # Example
//!
//! ```
//! use wcgraph::algo::{centrality, AlgoScratch};
//! use wcgraph::{DiGraph, GraphView};
//!
//! let mut g: DiGraph<&str, ()> = DiGraph::new();
//! let a = g.add_node("victim");
//! let b = g.add_node("landing");
//! let c = g.add_node("exploit");
//! g.add_edge(a, b, ());
//! g.add_edge(b, c, ());
//! assert_eq!(g.node_count(), 3);
//! let view = GraphView::of(&g);
//! let sweep = centrality::sweep_means_scratch(&view, 2, &mut AlgoScratch::new());
//! assert_eq!(sweep.diameter, 2);
//! ```

pub mod algo;
pub mod dot;
pub mod view;

mod digraph;

pub use digraph::{DiGraph, EdgeId, NodeId};
pub use view::{Adjacency, Csr, GraphView};
