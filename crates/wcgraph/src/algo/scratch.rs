//! Reusable scratch buffers for the algorithm suite.
//!
//! The `*_scratch` entry points in the sibling modules thread an
//! [`AlgoScratch`] through every traversal, so a long-lived caller (the
//! feature extractor classifying thousands of conversations) performs no
//! steady-state heap allocation: buffers grow to the largest graph seen
//! and are reused from then on. What a result may depend on is the graph
//! alone: every kernel sizes and resets the buffers it reads, so a reused
//! scratch gives the bits a fresh one does.

use std::collections::VecDeque;

use crate::algo::connectivity::Residual;

/// Scratch space shared by the scratch-taking algorithm variants.
///
/// One instance serves every algorithm; the fields are partitioned by
/// phase (the all-sources sweep, PageRank, max-flow) and a traversal
/// never runs concurrently with another on the same scratch.
#[derive(Debug, Default)]
pub struct AlgoScratch {
    /// BFS distances (`usize::MAX` = unreached).
    pub(crate) dist: Vec<usize>,
    /// BFS work queue.
    pub(crate) queue: VecDeque<usize>,
    /// Brandes visitation order.
    pub(crate) order: Vec<usize>,
    /// Brandes shortest-path predecessor lists. Rows keep their capacity
    /// across sources and calls — the Vec-pool that makes the
    /// all-sources sweep allocation-free in steady state.
    pub(crate) preds: Vec<Vec<usize>>,
    /// Brandes path counts.
    pub(crate) sigma: Vec<f64>,
    /// Brandes dependency accumulator.
    pub(crate) delta: Vec<f64>,
    /// Per-node betweenness, the sweep's output row.
    pub(crate) betweenness: Vec<f64>,
    /// PageRank double buffers, swapped each power iteration.
    pub(crate) rank: Vec<f64>,
    pub(crate) rank_next: Vec<f64>,
    /// The vertex-split residual network, component labels and search
    /// buffers of average node connectivity.
    pub(crate) residual: Residual,
}

impl AlgoScratch {
    /// A fresh scratch with empty buffers; the first use sizes them.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{centrality, clustering, connectivity, pagerank, reciprocity};
    use crate::view::GraphView;
    use crate::DiGraph;

    fn star(leaves: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let c = g.add_node(());
        for _ in 0..leaves {
            let leaf = g.add_node(());
            g.add_edge(c, leaf, ());
        }
        g
    }

    fn bowtie() -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            g.add_edge(n[a], n[b], ());
        }
        g
    }

    fn cycle(n: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n], ());
        }
        g
    }

    /// Every view- and scratch-taking kernel's result, as bits, in the
    /// order the feature extractor runs them.
    fn kernels(view: &GraphView, scratch: &mut AlgoScratch) -> Vec<u64> {
        let sweep = centrality::sweep_means_scratch(view, 2, scratch);
        let (b, l) = centrality::betweenness_and_load_means_scratch(view, scratch);
        let (d, t, i) =
            (pagerank::DEFAULT_DAMPING, pagerank::DEFAULT_TOL, pagerank::DEFAULT_MAX_ITER);
        [
            sweep.closeness,
            sweep.betweenness,
            sweep.within_k,
            b,
            l,
            reciprocity::reciprocity_view(view),
            connectivity::average_node_connectivity_view_scratch(view, scratch),
            clustering::clustering_coefficient_mean_view(view),
            clustering::neighbor_degree_mean_view(view),
            pagerank::pagerank_mean_scratch(view, d, t, i, scratch),
        ]
        .iter()
        .map(|x| x.to_bits())
        .chain([sweep.diameter as u64])
        .collect()
    }

    /// One scratch and one view reused across graphs that shrink and
    /// grow, cross the pair-sampling limit and fall apart into
    /// components give the bits fresh ones give: stale buffer contents
    /// must not leak.
    #[test]
    fn scratch_variants_bit_identical_across_reuse() {
        let mut two_parts = cycle(7);
        let a = two_parts.add_node(());
        let b = two_parts.add_node(());
        two_parts.add_edge(b, a, ());
        let graphs = [
            star(6),
            bowtie(),
            star(1),
            DiGraph::<(), ()>::new(),
            cycle(9),
            star(70),
            two_parts,
            cycle(66),
            bowtie(),
        ];
        let mut scratch = AlgoScratch::new();
        let mut view = GraphView::new();
        for g in &graphs {
            view.load(g);
            let fresh = GraphView::of(g);
            for u in 0..g.node_count() {
                assert_eq!(view.undirected().neighbors(u), fresh.undirected().neighbors(u));
                assert_eq!(view.successors().neighbors(u), fresh.successors().neighbors(u));
                assert_eq!(view.predecessors().neighbors(u), fresh.predecessors().neighbors(u));
            }
            assert_eq!(
                kernels(&view, &mut scratch),
                kernels(&fresh, &mut AlgoScratch::new()),
                "{} nodes",
                g.node_count()
            );
        }
    }
}
