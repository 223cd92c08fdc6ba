//! The graph measures behind DynaMiner's topology features, one kernel
//! per measure.
//!
//! The kernels take a loaded [`GraphView`](crate::GraphView) and, where
//! they traverse, a reused [`AlgoScratch`]; the two degree features and
//! [`paths::weak_components`] read the [`DiGraph`](crate::DiGraph)
//! directly. Each submodule documents the precise definition implemented;
//! where the paper's feature description is ambiguous we follow the
//! NetworkX function of the same name, since the paper's feature set was
//! computed with it.
//!
//! The second computation that checks each kernel is written
//! independently of it: a naive all-pairs reference
//! (`tests/centrality_reference.rs`) for the sweep's measures, and
//! [`connectivity::local_node_connectivity`] for f20.

pub mod centrality;
pub mod clustering;
pub mod connectivity;
pub mod pagerank;
pub mod paths;
pub mod reciprocity;
pub mod scratch;

pub use scratch::AlgoScratch;

/// Mean of a slice, or 0.0 when empty. Public so downstream code
/// averaging per-node values shares the exact float semantics of the
/// means in this module tree.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
