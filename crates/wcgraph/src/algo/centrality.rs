//! Degree, closeness, betweenness and load centrality.
//!
//! Closeness, betweenness and load operate on the undirected simple view
//! of the graph (see [`DiGraph::undirected_adjacency`]); degree
//! centrality counts parallel edges, matching NetworkX's behaviour on
//! multigraphs.
//!
//! One Brandes pass per source ([`sweep_means_scratch`]) yields every
//! feature that needs each node's distance row: the loop already holds
//! source `s`'s distances when it back-propagates, so eccentricity,
//! closeness and the within-`k` count are read off that row instead of
//! from three more sweeps — f12, f17, f18, f19 and f24 for the price of
//! one all-sources traversal. Mean load (f19) is mean betweenness (f18);
//! see [`SweepMeans::betweenness`].

use crate::algo::{mean, AlgoScratch};
use crate::view::{Adjacency, GraphView};
use crate::DiGraph;

/// Average degree centrality over all nodes (feature f16): the mean of
/// `degree / (n - 1)`, parallel edges counted, as a running sum in node
/// order.
pub fn avg_degree_centrality<N, E>(g: &DiGraph<N, E>) -> f64 {
    let n = g.node_count();
    if n <= 1 {
        return 0.0;
    }
    let denom = (n - 1) as f64;
    g.node_ids().map(|v| g.degree(v) as f64 / denom).sum::<f64>() / n as f64
}

/// Closeness of a node that reaches `reachable` others at summed distance
/// `total` in a graph of order `n`, with the Wasserman–Faust improvement
/// for disconnected graphs: `(reachable/total) · (reachable/(n-1))`.
fn wasserman_faust(reachable: usize, total: usize, n: usize) -> f64 {
    if total == 0 || n <= 1 {
        0.0
    } else {
        (reachable as f64 / total as f64) * (reachable as f64 / (n - 1) as f64)
    }
}

/// The graph-wide measures one all-sources sweep yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepMeans {
    /// Largest eccentricity, each node's taken over the nodes it reaches
    /// (f12): the largest intra-component diameter, 0 for an edgeless
    /// graph.
    pub diameter: usize,
    /// Mean Wasserman–Faust closeness centrality (f17).
    pub closeness: f64,
    /// Mean betweenness centrality (f18), normalized by `(n-1)(n-2)`
    /// over both traversal directions — and mean load centrality (f19).
    /// From each source both measures route one unit per reachable
    /// target back through the `d − 1` nodes between them, betweenness
    /// split by path counts and load (NetworkX `load_centrality`)
    /// equally among shortest-path predecessors. The split moves value
    /// between nodes but conserves it, so the per-node sums, and the
    /// means, are equal.
    pub betweenness: f64,
    /// Mean number of other nodes within the sweep's distance `k` (f24).
    pub within_k: f64,
}

/// Every feature that needs each node's distance row, from one Brandes
/// BFS per source over `view`'s undirected rows; nothing is allocated
/// once `scratch` has grown to the graph's order. The per-node
/// betweenness stays in `scratch` until its next use.
pub fn sweep_means_scratch(view: &GraphView, k: usize, scratch: &mut AlgoScratch) -> SweepMeans {
    let n = view.order();
    let rows = all_sources_sweep(view.undirected(), k, scratch);
    let per_node = |sum: f64| if n == 0 { 0.0 } else { sum / n as f64 };
    SweepMeans {
        diameter: rows.diameter,
        closeness: per_node(rows.closeness_sum),
        betweenness: mean(&scratch.betweenness),
        within_k: per_node(rows.within_k as f64),
    }
}

/// Mean betweenness and load over a prebuilt view, reusing `scratch`:
/// the f18/f19 pair of [`sweep_means_scratch`], one number twice (see
/// [`SweepMeans::betweenness`]).
pub fn betweenness_and_load_means_scratch(
    view: &GraphView,
    scratch: &mut AlgoScratch,
) -> (f64, f64) {
    let b = sweep_means_scratch(view, 0, scratch).betweenness;
    (b, b)
}

/// What [`all_sources_sweep`] reads off the distance rows, accumulated in
/// source order.
struct DistanceRows {
    diameter: usize,
    closeness_sum: f64,
    within_k: usize,
}

/// The sweep over caller-owned buffers: per-node betweenness lands in
/// `scratch.betweenness` (sized to the graph's order), the distance-row
/// measures in the return value. Predecessor rows keep their capacity
/// across calls.
fn all_sources_sweep<A: Adjacency + ?Sized>(
    adj: &A,
    k: usize,
    scratch: &mut AlgoScratch,
) -> DistanceRows {
    let n = adj.order();
    let AlgoScratch { dist, queue, order, preds, sigma, delta, betweenness: bc, .. } = scratch;
    bc.clear();
    bc.resize(n, 0.0);
    // Per-source scratch, sized once and reset between sources.
    order.clear();
    if preds.len() < n {
        preds.resize_with(n, Vec::new);
    }
    let preds = &mut preds[..n];
    sigma.clear();
    sigma.resize(n, 0.0);
    dist.clear();
    dist.resize(n, usize::MAX);
    delta.clear();
    delta.resize(n, 0.0);
    queue.clear();
    let mut rows = DistanceRows { diameter: 0, closeness_sum: 0.0, within_k: 0 };
    for s in 0..n {
        // Brandes: single-source shortest paths with path counts.
        order.clear();
        for p in preds.iter_mut() {
            p.clear();
        }
        sigma.fill(0.0);
        dist.fill(usize::MAX);
        sigma[s] = 1.0;
        dist[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in adj.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
                if dist[v] == dist[u] + 1 {
                    sigma[v] += sigma[u];
                    preds[v].push(u);
                }
            }
        }
        // `order` is s followed by every node s reaches, nearest first,
        // so the row's maximum is its last entry and the closeness sums
        // are integers over `order[1..]`.
        let reached = &order[1..];
        rows.diameter = rows.diameter.max(reached.last().map_or(0, |&v| dist[v]));
        let total: usize = reached.iter().map(|&v| dist[v]).sum();
        rows.closeness_sum += wasserman_faust(reached.len(), total, n);
        rows.within_k += reached.iter().filter(|&&v| dist[v] <= k).count();
        // Dependency accumulation in reverse visitation order, split
        // proportionally to path counts.
        delta.fill(0.0);
        for &w in order.iter().rev() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                bc[w] += delta[w];
            }
        }
    }
    if n > 2 {
        let scale = 1.0 / ((n - 1) as f64 * (n - 2) as f64);
        for b in bc.iter_mut() {
            *b *= scale;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star graph: center 0 connected to 1..=4.
    fn star() -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let c = g.add_node(());
        for _ in 0..4 {
            let leaf = g.add_node(());
            g.add_edge(c, leaf, ());
        }
        g
    }

    /// Path graph 0-1-2.
    fn path3() -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        g
    }

    /// The sweep's means and its per-node betweenness row.
    fn sweep(g: &DiGraph<(), ()>) -> (SweepMeans, Vec<f64>) {
        let mut scratch = AlgoScratch::new();
        let means = sweep_means_scratch(&GraphView::of(g), 2, &mut scratch);
        (means, scratch.betweenness)
    }

    #[test]
    fn diameter_and_nodes_within_distance_on_a_path() {
        // Path a-b-c-d plus isolated e.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for w in n[..4].windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let (means, _) = sweep(&g);
        assert_eq!(means.diameter, 3);
        // k=2: a:2, b:3, c:3, d:2, e:0 → 10/5 = 2.
        assert!((means.within_k - 2.0).abs() < 1e-12);
        // k=1: degrees (1,2,2,1,0) → avg 6/5.
        let within_1 = sweep_means_scratch(&GraphView::of(&g), 1, &mut AlgoScratch::new());
        assert!((within_1.within_k - 1.2).abs() < 1e-12);
    }

    #[test]
    fn diameter_ignores_direction() {
        // a -> b <- c : directed, but undirected diameter is 2.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[2], n[1], ());
        assert_eq!(sweep(&g).0.diameter, 2);
    }

    #[test]
    fn degree_centrality_star() {
        // NetworkX: centre 4/(5-1) = 1, leaves 1/4 each; mean 2/5.
        assert!((avg_degree_centrality(&star()) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn degree_centrality_counts_parallel_edges() {
        let mut g = path3();
        g.add_edge(crate::NodeId(0), crate::NodeId(1), ());
        // Degrees 2, 3, 1 over n - 1 = 2: [1, 1.5, 0.5].
        assert!((avg_degree_centrality(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_path3() {
        // NetworkX: [2/3, 1, 2/3].
        let (means, _) = sweep(&path3());
        assert!((means.closeness - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_disconnected_wf() {
        // Path 0-1-2 plus isolated node 3. NetworkX wf_improved values:
        // node1: (2/2)*(2/3) = 2/3; nodes 0, 2: (2/3)*(2/3) = 4/9; node3: 0.
        let mut g = path3();
        g.add_node(());
        let (means, _) = sweep(&g);
        assert!((means.closeness - (4.0 / 9.0 + 2.0 / 3.0 + 4.0 / 9.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn betweenness_path3() {
        // NetworkX normalized undirected: middle node = 1.0, ends 0.
        let (_, bc) = sweep(&path3());
        assert!((bc[1] - 1.0).abs() < 1e-12);
        assert!(bc[0].abs() < 1e-12 && bc[2].abs() < 1e-12);
    }

    #[test]
    fn betweenness_star_center() {
        // Star n=5: center normalized betweenness = 1.0, leaves 0.
        let (_, bc) = sweep(&star());
        assert!((bc[0] - 1.0).abs() < 1e-12);
        for &v in &bc[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn betweenness_cycle4_splits_paths() {
        // Cycle 0-1-2-3-0: each node carries half of the two shortest
        // paths between its neighbours; NetworkX normalized: 1/6 each.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4], ());
        }
        let (_, bc) = sweep(&g);
        for &v in &bc {
            assert!((v - 1.0 / 6.0).abs() < 1e-9, "got {v}");
        }
    }

    #[test]
    fn small_graphs_do_not_blow_up() {
        let (means, bc) = sweep(&DiGraph::new());
        assert!(bc.is_empty());
        assert_eq!(means, SweepMeans { diameter: 0, closeness: 0.0, betweenness: 0.0, within_k: 0.0 });
        let mut g1: DiGraph<(), ()> = DiGraph::new();
        g1.add_node(());
        assert_eq!(avg_degree_centrality(&g1), 0.0);
        let (means, _) = sweep(&g1);
        assert_eq!((means.diameter, means.betweenness), (0, 0.0));
        let mut g2 = DiGraph::new();
        let a = g2.add_node(());
        let b = g2.add_node(());
        g2.add_edge(a, b, ());
        // n=2: no (n-1)(n-2) scale; the values must still be finite zeros.
        assert_eq!(sweep(&g2).1, vec![0.0, 0.0]);
    }

    #[test]
    fn averages_are_means() {
        let (means, bc) = sweep(&star());
        let avg: f64 = bc.iter().sum::<f64>() / bc.len() as f64;
        assert!((means.betweenness - avg).abs() < 1e-12);
    }
}
