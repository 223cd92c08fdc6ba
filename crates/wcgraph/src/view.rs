//! Shared analytics workspace.
//!
//! Every metric in [`crate::algo`] needs some flavour of adjacency —
//! undirected neighbor sets, successor lists, predecessor lists.
//! Historically each function privately re-materialized those (`Vec<Vec<_>>`
//! with a per-row sort and dedup), so a full 37-feature extraction rebuilt
//! the same adjacency close to a dozen times. A [`GraphView`] builds each
//! representation exactly once per extraction, in compact CSR form, and is
//! threaded through all algorithm modules. The buffers are reusable: calling
//! [`GraphView::load`] on a long-lived view recycles prior allocations, so a
//! detector scoring thousands of conversations performs near-zero steady
//! state allocation for adjacency.
//!
//! Neighbor ordering is identical to the per-call materialization
//! [`DiGraph::undirected_adjacency`] and [`DiGraph::directed_adjacency`]
//! give (sorted ascending, deduplicated, self-loops excluded), which the
//! tests hold the view to and which fixes the order every floating-point
//! reduction in `algo` adds its terms in. Only the successor
//! rows are sorted; the predecessor rows are their counting transpose and
//! the undirected rows the merge of the two (see [`GraphView::load`]).

use crate::digraph::DiGraph;

/// Read-only adjacency abstraction shared by ad-hoc `Vec<Vec<usize>>`
/// neighbor lists and the CSR rows of a [`GraphView`].
///
/// Implementations must present each node's neighbors sorted ascending and
/// deduplicated; algorithms rely on that for binary search and for stable
/// float summation order.
pub trait Adjacency {
    /// Number of nodes.
    fn order(&self) -> usize;
    /// Sorted, deduplicated neighbors of `u`.
    fn neighbors(&self, u: usize) -> &[usize];
}

impl Adjacency for Vec<Vec<usize>> {
    fn order(&self) -> usize {
        self.len()
    }

    fn neighbors(&self, u: usize) -> &[usize] {
        &self[u]
    }
}

/// Compressed-sparse-row adjacency: one flat target array plus per-node
/// offsets. Rows are sorted ascending and deduplicated.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Csr {
    /// Sorted, deduplicated neighbors of `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Number of rows.
    pub fn order(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Sets the offsets of `n` rows that hold one entry per item of `rows`.
    fn size_rows(&mut self, n: usize, rows: impl Iterator<Item = u32>) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for u in rows {
            self.offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
    }

    /// Rows from `(src, dst)` pairs sorted ascending and deduplicated:
    /// the sort is row-major, so the flat target array is the pairs'
    /// second halves and comes out per-row sorted — the same ordering the
    /// legacy `Vec<Vec<usize>>` builders produced.
    fn load_sorted_pairs(&mut self, n: usize, pairs: &[(u32, u32)]) {
        self.size_rows(n, pairs.iter().map(|&(u, _)| u));
        self.targets.clear();
        self.targets.extend(pairs.iter().map(|&(_, v)| v as usize));
    }

    /// The transpose of the rows `pairs` describe, by counting: each
    /// destination's row is sized first, then filled through `cursor`.
    /// Pairs are visited in ascending source order, so every row comes
    /// out ascending without a sort.
    fn load_transpose_of(
        &mut self,
        n: usize,
        pairs: &[(u32, u32)],
        cursor: &mut Vec<usize>,
    ) {
        self.size_rows(n, pairs.iter().map(|&(_, v)| v));
        cursor.clear();
        cursor.extend_from_slice(&self.offsets[..n]);
        self.targets.clear();
        self.targets.resize(pairs.len(), 0);
        for &(u, v) in pairs {
            let slot = &mut cursor[v as usize];
            self.targets[*slot] = u as usize;
            *slot += 1;
        }
    }

    /// Row-by-row union of two adjacencies over the same nodes: a merge of
    /// two ascending rows, a neighbour present in both kept once.
    fn load_union_of(&mut self, a: &Csr, b: &Csr) {
        let n = a.order();
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
        for u in 0..n {
            let (mut x, mut y) = (a.neighbors(u), b.neighbors(u));
            while let (Some(&p), Some(&q)) = (x.first(), y.first()) {
                self.targets.push(p.min(q));
                if p <= q {
                    x = &x[1..];
                }
                if q <= p {
                    y = &y[1..];
                }
            }
            self.targets.extend_from_slice(x);
            self.targets.extend_from_slice(y);
            self.offsets.push(self.targets.len());
        }
    }
}

impl Adjacency for Csr {
    fn order(&self) -> usize {
        Csr::order(self)
    }

    fn neighbors(&self, u: usize) -> &[usize] {
        Csr::neighbors(self, u)
    }
}

/// All adjacency representations the analytics stack needs, built once per
/// extraction and shared across every metric.
#[derive(Debug, Clone, Default)]
pub struct GraphView {
    n: usize,
    /// Undirected simple adjacency, self-loops excluded
    /// (mirrors [`DiGraph::undirected_adjacency`]).
    und: Csr,
    /// Directed simple successors, self-loops excluded
    /// (mirrors [`DiGraph::directed_adjacency`]).
    succ: Csr,
    /// Directed simple predecessors, self-loops excluded.
    pred: Csr,
    /// The loaded graph's `(src, dst)` pairs, recycled.
    pairs: Vec<(u32, u32)>,
    /// Per-row write positions of the transpose, recycled.
    cursor: Vec<usize>,
}

impl GraphView {
    /// An empty view; call [`GraphView::load`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a view of `g` in one pass over its edge list.
    pub fn of<N, E>(g: &DiGraph<N, E>) -> Self {
        let mut view = Self::new();
        view.load(g);
        view
    }

    /// (Re)populate the view from `g`, reusing prior allocations:
    /// [`GraphView::load_pairs`] then [`GraphView::build_rows`].
    pub fn load<N, E>(&mut self, g: &DiGraph<N, E>) {
        self.load_pairs(g);
        self.build_rows();
    }

    /// The first half of [`GraphView::load`]: the order of `g` and its
    /// sorted, deduplicated, non-loop `(src, dst)` pairs, which are all
    /// the view reads of `g`. The rows are stale until
    /// [`GraphView::build_rows`]; a caller that memoizes per topology can
    /// key on [`GraphView::pairs`] first and skip the rows on a hit.
    pub fn load_pairs<N, E>(&mut self, g: &DiGraph<N, E>) {
        let n = g.node_count();
        assert!(
            u32::try_from(n).is_ok(),
            "GraphView supports at most u32::MAX nodes"
        );
        self.n = n;
        self.pairs.clear();
        for (_, src, dst, _) in g.edges() {
            if src != dst {
                self.pairs.push((src.0 as u32, dst.0 as u32));
            }
        }
        self.pairs.sort_unstable();
        self.pairs.dedup();
    }

    /// The second half of [`GraphView::load`]: the rows from the loaded
    /// pairs. The successor rows are the pairs in order; the predecessor
    /// rows are their transpose and the undirected rows the union of the
    /// two — the rows three sorted pair lists would give.
    pub fn build_rows(&mut self) {
        let n = self.n;
        self.succ.load_sorted_pairs(n, &self.pairs);
        self.pred.load_transpose_of(n, &self.pairs, &mut self.cursor);
        self.und.load_union_of(&self.succ, &self.pred);
    }

    /// The loaded graph's sorted, deduplicated, non-loop `(src, dst)`
    /// pairs.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of nodes.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Undirected simple adjacency (self-loops excluded).
    pub fn undirected(&self) -> &Csr {
        &self.und
    }

    /// Directed simple successor adjacency.
    pub fn successors(&self) -> &Csr {
        &self.succ
    }

    /// Directed simple predecessor adjacency.
    pub fn predecessors(&self) -> &Csr {
        &self.pred
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    fn sample() -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for &(s, d) in &[(0, 1), (1, 0), (0, 2), (2, 3), (3, 3), (0, 1), (4, 0)] {
            g.add_edge(ids[s], ids[d], ());
        }
        g
    }

    /// The rows the three per-row-sorted legacy builders give.
    fn assert_matches_legacy(g: &DiGraph<(), ()>, view: &GraphView) {
        let und = g.undirected_adjacency();
        let (succ, pred) = g.directed_adjacency();
        assert_eq!(view.order(), g.node_count());
        for u in 0..g.node_count() {
            assert_eq!(view.undirected().neighbors(u), und[u].as_slice(), "und {u}");
            assert_eq!(view.successors().neighbors(u), succ[u].as_slice(), "succ {u}");
            assert_eq!(view.predecessors().neighbors(u), pred[u].as_slice(), "pred {u}");
        }
    }

    #[test]
    fn view_matches_legacy_adjacency() {
        let g = sample();
        assert_matches_legacy(&g, &GraphView::of(&g));
    }

    proptest! {
        /// Random multigraphs with self-loops, parallel and antiparallel
        /// edges and isolated nodes, loaded into one recycled view: the
        /// transposed and merged rows equal the sorted ones.
        #[test]
        fn view_matches_legacy_adjacency_on_any_multigraph(
            graphs in vec(
                (1usize..20).prop_flat_map(|n| (Just(n), vec((0..n, 0..n), 0..60))),
                1..4,
            ),
        ) {
            let mut view = GraphView::new();
            for (n, edges) in graphs {
                let mut g = DiGraph::new();
                let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
                for (a, b) in edges {
                    g.add_edge(ids[a], ids[b], ());
                }
                view.load(&g);
                assert_matches_legacy(&g, &view);
            }
        }
    }

    #[test]
    fn load_reuses_buffers_and_handles_empty() {
        let mut view = GraphView::new();
        view.load(&DiGraph::<(), ()>::new());
        assert_eq!(view.order(), 0);
        let g = sample();
        view.load(&g);
        assert_eq!(view.order(), 5);
        view.load(&DiGraph::<(), ()>::new());
        assert_eq!(view.order(), 0);
    }
}
