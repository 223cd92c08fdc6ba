//! Degree, closeness, betweenness, and load centrality.
//!
//! Closeness, betweenness, and load operate on the undirected simple view
//! of the graph (see [`DiGraph::undirected_adjacency`]); degree centrality
//! counts parallel edges, matching NetworkX's behaviour on multigraphs.
//!
//! Each metric has a `*_view` variant taking a prebuilt [`GraphView`] so a
//! full feature extraction materializes adjacency once instead of per
//! metric; the graph-taking entry points are thin wrappers. Betweenness and
//! load share their BFS phase — [`betweenness_and_load_view`] runs one
//! Brandes pass per source and back-propagates both measures — and that
//! pass holds each source's distance row, so [`sweep_means_scratch`] reads
//! diameter, closeness and the within-`k` count off it too: the feature
//! extractor obtains f12, f17, f18, f19 and f24 for the price of one
//! all-sources traversal.

use crate::algo::mean;
use crate::algo::paths::bfs_distances;
use crate::algo::AlgoScratch;
use crate::view::{Adjacency, GraphView};
use crate::DiGraph;

/// Per-node degree centrality: `degree / (n - 1)`, parallel edges counted.
pub fn degree_centrality<N, E>(g: &DiGraph<N, E>) -> Vec<f64> {
    let n = g.node_count();
    if n <= 1 {
        return vec![0.0; n];
    }
    let denom = (n - 1) as f64;
    g.node_ids().map(|v| g.degree(v) as f64 / denom).collect()
}

/// [`degree_centrality`] over a prebuilt view.
pub fn degree_centrality_view(view: &GraphView) -> Vec<f64> {
    let n = view.order();
    if n <= 1 {
        return vec![0.0; n];
    }
    let denom = (n - 1) as f64;
    view.degrees().iter().map(|&d| d as f64 / denom).collect()
}

/// Average degree centrality over all nodes (feature f16).
///
/// Computed as a running sum in node order — bit-identical to
/// `mean(&degree_centrality(g))` (same terms, same addition order)
/// without materializing the per-node vector.
pub fn avg_degree_centrality<N, E>(g: &DiGraph<N, E>) -> f64 {
    let n = g.node_count();
    if n <= 1 {
        return 0.0;
    }
    let denom = (n - 1) as f64;
    g.node_ids().map(|v| g.degree(v) as f64 / denom).sum::<f64>() / n as f64
}

/// Per-node closeness centrality with the Wasserman–Faust improvement for
/// disconnected graphs: `((r-1)/Σd) · ((r-1)/(n-1))` where `r` is the size
/// of the node's reachable set.
pub fn closeness_centrality<N, E>(g: &DiGraph<N, E>) -> Vec<f64> {
    closeness_centrality_in(&g.undirected_adjacency())
}

/// [`closeness_centrality`] over a prebuilt view.
pub fn closeness_centrality_view(view: &GraphView) -> Vec<f64> {
    closeness_centrality_in(view.undirected())
}

fn closeness_centrality_in<A: Adjacency + ?Sized>(adj: &A) -> Vec<f64> {
    let n = adj.order();
    (0..n)
        .map(|u| {
            let dist = bfs_distances(adj, u);
            closeness_of(&dist, u, n)
        })
        .collect()
}

/// Wasserman–Faust closeness of node `u` from its BFS distance row.
fn closeness_of(dist: &[usize], u: usize, n: usize) -> f64 {
    let mut reachable = 0usize;
    let mut total = 0usize;
    for (v, &d) in dist.iter().enumerate() {
        if v != u && d != usize::MAX {
            reachable += 1;
            total += d;
        }
    }
    wasserman_faust(reachable, total, n)
}

/// Closeness of a node that reaches `reachable` others at summed distance
/// `total` in a graph of order `n`.
fn wasserman_faust(reachable: usize, total: usize, n: usize) -> f64 {
    if total == 0 || n <= 1 {
        0.0
    } else {
        (reachable as f64 / total as f64) * (reachable as f64 / (n - 1) as f64)
    }
}

/// Average closeness centrality (feature f17).
pub fn avg_closeness_centrality<N, E>(g: &DiGraph<N, E>) -> f64 {
    mean(&closeness_centrality(g))
}

/// Per-node betweenness centrality via Brandes' algorithm on the undirected
/// simple view, normalized by `(n-1)(n-2)` (both traversal directions are
/// accumulated, which folds in the standard factor 2).
pub fn betweenness_centrality<N, E>(g: &DiGraph<N, E>) -> Vec<f64> {
    betweenness_and_load_in(&g.undirected_adjacency()).0
}

/// Per-node load centrality: like betweenness, but when flow is pushed back
/// from a node toward the source it is split *equally* among the node's
/// shortest-path predecessors instead of proportionally to path counts
/// (NetworkX `load_centrality` / Newman's measure). Normalized by
/// `(n-1)(n-2)`.
pub fn load_centrality<N, E>(g: &DiGraph<N, E>) -> Vec<f64> {
    betweenness_and_load_in(&g.undirected_adjacency()).1
}

/// Betweenness and load centrality from a single Brandes pass per source.
///
/// The BFS phase (shortest-path DAG, path counts, visitation order) is
/// common to both measures; only the back-propagation differs. Results are
/// bit-identical to running [`betweenness_centrality`] and
/// [`load_centrality`] separately.
pub fn betweenness_and_load_view(view: &GraphView) -> (Vec<f64>, Vec<f64>) {
    betweenness_and_load_in(view.undirected())
}

fn betweenness_and_load_in<A: Adjacency + ?Sized>(adj: &A) -> (Vec<f64>, Vec<f64>) {
    let mut scratch = AlgoScratch::new();
    all_sources_sweep(adj, 0, &mut scratch);
    (std::mem::take(&mut scratch.values_a), std::mem::take(&mut scratch.values_b))
}

/// The five graph-wide measures one all-sources sweep yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepMeans {
    /// Largest eccentricity (f12), as
    /// [`diameter_view`](crate::algo::paths::diameter_view) computes it.
    pub diameter: usize,
    /// Mean closeness centrality (f17).
    pub closeness: f64,
    /// Mean betweenness centrality (f18).
    pub betweenness: f64,
    /// Mean load centrality (f19).
    pub load: f64,
    /// Mean number of other nodes within the sweep's distance `k` (f24).
    pub within_k: f64,
}

/// Every feature that needs each node's distance row, from one BFS per
/// source: the Brandes loop already holds source `s`'s distances when it
/// back-propagates, so eccentricity, closeness and the within-`k` count
/// are read off that row instead of from three more sweeps. Each field is
/// bit-identical to its one-shot function (`diameter_view`,
/// `mean(&closeness_centrality_view(..))`, `betweenness_and_load_view`,
/// `avg_nodes_within_distance_view(.., k)`), and nothing is allocated once
/// `scratch` has grown to the graph's order.
pub fn sweep_means_scratch(view: &GraphView, k: usize, scratch: &mut AlgoScratch) -> SweepMeans {
    let n = view.order();
    let rows = all_sources_sweep(view.undirected(), k, scratch);
    let per_node = |sum: f64| if n == 0 { 0.0 } else { sum / n as f64 };
    SweepMeans {
        diameter: rows.diameter,
        closeness: per_node(rows.closeness_sum),
        betweenness: mean(&scratch.values_a),
        load: mean(&scratch.values_b),
        within_k: per_node(rows.within_k as f64),
    }
}

/// Mean betweenness and load over a prebuilt view, reusing `scratch`:
/// the f18/f19 pair of [`sweep_means_scratch`], whose other three
/// measures cost a few integer additions per visited node and are
/// dropped here.
pub fn betweenness_and_load_means_scratch(
    view: &GraphView,
    scratch: &mut AlgoScratch,
) -> (f64, f64) {
    let means = sweep_means_scratch(view, 0, scratch);
    (means.betweenness, means.load)
}

/// What [`all_sources_sweep`] reads off the distance rows, accumulated in
/// source order.
struct DistanceRows {
    diameter: usize,
    closeness_sum: f64,
    within_k: usize,
}

/// The fused pass over caller-owned buffers: betweenness lands in
/// `scratch.values_a`, load in `scratch.values_b` (both sized to the
/// graph's order), the distance-row measures in the return value.
/// Predecessor rows keep their capacity across calls.
fn all_sources_sweep<A: Adjacency + ?Sized>(
    adj: &A,
    k: usize,
    scratch: &mut AlgoScratch,
) -> DistanceRows {
    let n = adj.order();
    let AlgoScratch {
        dist, queue, order, preds, sigma, delta, between, values_a, values_b, ..
    } = scratch;
    values_a.clear();
    values_a.resize(n, 0.0);
    values_b.clear();
    values_b.resize(n, 0.0);
    let bc = values_a;
    let lc = values_b;
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
    between.clear();
    between.resize(n, 0.0);
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
        // Betweenness back-propagation: dependency accumulation in reverse
        // visitation order, split proportionally to path counts.
        delta.fill(0.0);
        for &w in order.iter().rev() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                bc[w] += delta[w];
            }
        }
        // Load back-propagation: each reachable node (except s) injects one
        // unit; push everything back toward the source, splitting equally
        // among predecessors.
        between.fill(1.0);
        for &v in order.iter().rev() {
            if preds[v].is_empty() {
                continue;
            }
            let share = between[v] / preds[v].len() as f64;
            for &p in &preds[v] {
                between[p] += share;
            }
        }
        for (v, &b) in between.iter().enumerate() {
            if v != s && dist[v] != usize::MAX {
                lc[v] += b - 1.0;
            }
        }
    }
    if n > 2 {
        let scale = 1.0 / ((n - 1) as f64 * (n - 2) as f64);
        for b in bc.iter_mut() {
            *b *= scale;
        }
        for l in lc.iter_mut() {
            *l *= scale;
        }
    }
    rows
}

/// Average betweenness centrality (feature f18).
pub fn avg_betweenness_centrality<N, E>(g: &DiGraph<N, E>) -> f64 {
    mean(&betweenness_centrality(g))
}

/// Average load centrality (feature f19).
pub fn avg_load_centrality<N, E>(g: &DiGraph<N, E>) -> f64 {
    mean(&load_centrality(g))
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

    #[test]
    fn degree_centrality_star() {
        let dc = degree_centrality(&star());
        assert!((dc[0] - 1.0).abs() < 1e-12); // 4/(5-1)
        for &v in &dc[1..] {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn degree_centrality_counts_parallel_edges() {
        let mut g = path3();
        g.add_edge(crate::NodeId(0), crate::NodeId(1), ());
        let dc = degree_centrality(&g);
        assert!((dc[0] - 1.0).abs() < 1e-12); // degree 2 / (3-1)
    }

    #[test]
    fn closeness_path3() {
        // NetworkX: [2/3, 1, 2/3].
        let cc = closeness_centrality(&path3());
        assert!((cc[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cc[1] - 1.0).abs() < 1e-12);
        assert!((cc[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_disconnected_wf() {
        // Path 0-1-2 plus isolated node 3. NetworkX wf_improved values:
        // node1: (2/2)*(2/3) = 2/3; node0: (2/3)*(2/3) = 4/9; node3: 0.
        let mut g = path3();
        g.add_node(());
        let cc = closeness_centrality(&g);
        assert!((cc[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cc[0] - 4.0 / 9.0).abs() < 1e-12);
        assert_eq!(cc[3], 0.0);
    }

    #[test]
    fn betweenness_path3() {
        // NetworkX normalized undirected: middle node = 1.0, ends 0.
        let bc = betweenness_centrality(&path3());
        assert!((bc[1] - 1.0).abs() < 1e-12);
        assert!(bc[0].abs() < 1e-12 && bc[2].abs() < 1e-12);
    }

    #[test]
    fn betweenness_star_center() {
        // Star n=5: center normalized betweenness = 1.0, leaves 0.
        let bc = betweenness_centrality(&star());
        assert!((bc[0] - 1.0).abs() < 1e-12);
        for &v in &bc[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn betweenness_cycle4_splits_paths() {
        // Cycle 0-1-2-3-0: each node lies on exactly one of the two
        // shortest paths between its two non-adjacent neighbors' pair.
        // NetworkX normalized: 1/6 each... actually each node: 0.1667.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4], ());
        }
        let bc = betweenness_centrality(&g);
        for &v in &bc {
            assert!((v - 1.0 / 6.0).abs() < 1e-9, "got {v}");
        }
    }

    #[test]
    fn load_equals_betweenness_on_trees() {
        // On trees there is a unique shortest path, so equal and
        // proportional splitting coincide.
        let g = star();
        let bc = betweenness_centrality(&g);
        let lc = load_centrality(&g);
        for (b, l) in bc.iter().zip(&lc) {
            assert!((b - l).abs() < 1e-9);
        }
    }

    #[test]
    fn load_path3_middle() {
        let lc = load_centrality(&path3());
        assert!((lc[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_graphs_do_not_blow_up() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(betweenness_centrality(&g).is_empty());
        assert_eq!(avg_closeness_centrality(&g), 0.0);
        let mut g1: DiGraph<(), ()> = DiGraph::new();
        g1.add_node(());
        assert_eq!(avg_degree_centrality(&g1), 0.0);
        assert_eq!(avg_load_centrality(&g1), 0.0);
        let mut g2 = DiGraph::new();
        let a = g2.add_node(());
        let b = g2.add_node(());
        g2.add_edge(a, b, ());
        // n=2: betweenness/load undefined scale; must be finite zeros.
        assert!(betweenness_centrality(&g2).iter().all(|v| v.is_finite()));
        assert!(load_centrality(&g2).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn averages_are_means() {
        let g = star();
        let bc = betweenness_centrality(&g);
        let avg: f64 = bc.iter().sum::<f64>() / bc.len() as f64;
        assert!((avg_betweenness_centrality(&g) - avg).abs() < 1e-12);
    }

    #[test]
    fn view_variants_are_bit_identical() {
        for g in [star(), path3()] {
            let view = GraphView::of(&g);
            let (bc, lc) = betweenness_and_load_view(&view);
            assert_eq!(bc, betweenness_centrality(&g));
            assert_eq!(lc, load_centrality(&g));
            assert_eq!(closeness_centrality_view(&view), closeness_centrality(&g));
            assert_eq!(degree_centrality_view(&view), degree_centrality(&g));
        }
    }
}
