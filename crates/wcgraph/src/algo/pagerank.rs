//! PageRank by power iteration on the directed simple graph.

use crate::algo::mean;
use crate::algo::AlgoScratch;
use crate::view::{Adjacency, GraphView};

/// Default damping factor.
pub const DEFAULT_DAMPING: f64 = 0.85;
/// Default convergence tolerance (L1 change per iteration).
pub const DEFAULT_TOL: f64 = 1e-10;
/// Default iteration cap.
pub const DEFAULT_MAX_ITER: usize = 200;

/// Mean PageRank over a prebuilt view (feature f25), reusing
/// `scratch`'s double buffers. By conservation this equals `1/order` for
/// any non-empty graph up to the iteration's rounding, so the feature is
/// an inverse-order signal — we keep it for fidelity with the paper's
/// feature list.
pub fn pagerank_mean_scratch(
    view: &GraphView,
    damping: f64,
    tol: f64,
    max_iter: usize,
    scratch: &mut AlgoScratch,
) -> f64 {
    pagerank_into(view.successors(), damping, tol, max_iter, scratch);
    mean(&scratch.rank)
}

/// Per-node PageRank with damping `d` on the directed simple graph,
/// by power iteration into `scratch.rank`, swapping the two rank buffers
/// each iteration. Dangling nodes (no out-edges) redistribute their rank
/// uniformly; the result sums to 1 over all nodes.
fn pagerank_into<A: Adjacency + ?Sized>(
    succ: &A,
    damping: f64,
    tol: f64,
    max_iter: usize,
    scratch: &mut AlgoScratch,
) {
    let n = succ.order();
    let rank = &mut scratch.rank;
    let next = &mut scratch.rank_next;
    rank.clear();
    if n == 0 {
        return;
    }
    let uniform = 1.0 / n as f64;
    rank.resize(n, uniform);
    next.clear();
    next.resize(n, 0.0);
    for _ in 0..max_iter {
        let dangling_mass: f64 =
            (0..n).filter(|&v| succ.neighbors(v).is_empty()).map(|v| rank[v]).sum();
        let base = (1.0 - damping) * uniform + damping * dangling_mass * uniform;
        next.fill(base);
        for (v, r) in rank.iter().enumerate() {
            let out = succ.neighbors(v);
            if out.is_empty() {
                continue;
            }
            let share = damping * r / out.len() as f64;
            for &u in out {
                next[u] += share;
            }
        }
        let delta: f64 = rank.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(rank, next);
        if delta < tol {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    /// The per-node ranks with the default parameters.
    fn pagerank_default(g: &DiGraph<(), ()>) -> Vec<f64> {
        let mut scratch = AlgoScratch::new();
        let view = GraphView::of(g);
        pagerank_into(view.successors(), DEFAULT_DAMPING, DEFAULT_TOL, DEFAULT_MAX_ITER, &mut scratch);
        scratch.rank
    }

    fn avg_pagerank(g: &DiGraph<(), ()>) -> f64 {
        let view = GraphView::of(g);
        let (d, t, i) = (DEFAULT_DAMPING, DEFAULT_TOL, DEFAULT_MAX_ITER);
        pagerank_mean_scratch(&view, d, t, i, &mut AlgoScratch::new())
    }

    #[test]
    fn sums_to_one() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[0], ());
        g.add_edge(n[3], n[0], ());
        // n4 dangling.
        let pr = pagerank_default(&g);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-8, "sum {sum}");
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4], ());
        }
        let pr = pagerank_default(&g);
        for &v in &pr {
            assert!((v - 0.25).abs() < 1e-8);
        }
    }

    #[test]
    fn sink_attracts_rank() {
        // 0 -> 2, 1 -> 2: node 2 should dominate.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[2], ());
        g.add_edge(n[1], n[2], ());
        let pr = pagerank_default(&g);
        assert!(pr[2] > pr[0] && pr[2] > pr[1]);
    }

    #[test]
    fn known_value_two_node_chain() {
        // 0 -> 1, with 1 dangling. Solvable analytically; check against
        // NetworkX: pagerank ≈ [0.35087719, 0.64912281] for d=0.85.
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let pr = pagerank_default(&g);
        assert!((pr[0] - 0.350_877_19).abs() < 1e-6, "got {}", pr[0]);
        assert!((pr[1] - 0.649_122_81).abs() < 1e-6, "got {}", pr[1]);
    }

    #[test]
    fn avg_is_inverse_order() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        for _ in 0..8 {
            g.add_node(());
        }
        assert!((avg_pagerank(&g) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(pagerank_default(&g).is_empty());
        assert_eq!(avg_pagerank(&g), 0.0);
    }
}
