//! Breadth-first shortest paths, eccentricity, diameter, and
//! distance-bounded neighborhood sizes — all on the underlying undirected
//! simple graph (web conversation graphs are request/response pairs, so the
//! undirected view is the natural distance metric, and it keeps the
//! diameter finite on weakly connected graphs).

use crate::view::{Adjacency, GraphView};
use crate::DiGraph;

/// BFS distances from `source` over an undirected adjacency.
/// Unreachable nodes get `usize::MAX`.
pub fn bfs_distances<A: Adjacency + ?Sized>(adj: &A, source: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adj.order()];
    let mut queue = std::collections::VecDeque::from([source]);
    dist[source] = 0;
    while let Some(u) = queue.pop_front() {
        for &v in adj.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity of every node: the longest shortest-path distance to any
/// *reachable* node (so disconnected graphs still get finite values).
pub fn eccentricities<N, E>(g: &DiGraph<N, E>) -> Vec<usize> {
    eccentricities_in(&g.undirected_adjacency())
}

/// [`eccentricities`] over a prebuilt view.
pub fn eccentricities_view(view: &GraphView) -> Vec<usize> {
    eccentricities_in(view.undirected())
}

fn eccentricities_in<A: Adjacency + ?Sized>(adj: &A) -> Vec<usize> {
    (0..adj.order())
        .map(|s| bfs_distances(adj, s).into_iter().filter(|&d| d != usize::MAX).max().unwrap_or(0))
        .collect()
}

/// Diameter: the maximum eccentricity over all nodes (0 for empty graphs).
///
/// Computed per weakly-connected component and maximized, so a disconnected
/// graph reports the largest intra-component diameter rather than infinity.
pub fn diameter<N, E>(g: &DiGraph<N, E>) -> usize {
    eccentricities(g).into_iter().max().unwrap_or(0)
}

/// [`diameter`] over a prebuilt view.
pub fn diameter_view(view: &GraphView) -> usize {
    eccentricities_view(view).into_iter().max().unwrap_or(0)
}

/// Average number of nodes within distance `k` of each node (excluding the
/// node itself). This implements the paper's f24 "average number of nodes
/// at k-nodes distance from each node".
pub fn avg_nodes_within_distance<N, E>(g: &DiGraph<N, E>, k: usize) -> f64 {
    avg_nodes_within_distance_in(&g.undirected_adjacency(), k)
}

/// [`avg_nodes_within_distance`] over a prebuilt view.
pub fn avg_nodes_within_distance_view(view: &GraphView, k: usize) -> f64 {
    avg_nodes_within_distance_in(view.undirected(), k)
}

fn avg_nodes_within_distance_in<A: Adjacency + ?Sized>(adj: &A, k: usize) -> f64 {
    let n = adj.order();
    if n == 0 {
        return 0.0;
    }
    let total: usize = (0..n)
        .map(|s| {
            bfs_distances(adj, s)
                .into_iter()
                .enumerate()
                .filter(|&(v, d)| v != s && d != usize::MAX && d <= k)
                .count()
        })
        .sum();
    total as f64 / n as f64
}

/// Weakly-connected components: returns a component id per node.
pub fn weak_components<N, E>(g: &DiGraph<N, E>) -> Vec<usize> {
    let adj = g.undirected_adjacency();
    let mut comp = vec![usize::MAX; adj.len()];
    let mut next = 0;
    for s in 0..adj.len() {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        comp[s] = next;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Number of weakly-connected components.
pub fn component_count<N, E>(g: &DiGraph<N, E>) -> usize {
    weak_components(g).into_iter().max().map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph a-b-c-d plus isolated e.
    fn path_graph() -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[3], ());
        g
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph();
        let adj = g.undirected_adjacency();
        let d = bfs_distances(&adj, 0);
        assert_eq!(&d[..4], &[0, 1, 2, 3]);
        assert_eq!(d[4], usize::MAX);
    }

    #[test]
    fn diameter_of_path_is_three() {
        assert_eq!(diameter(&path_graph()), 3);
    }

    #[test]
    fn diameter_ignores_direction() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        // a -> b <- c : directed, but undirected diameter is 2.
        g.add_edge(a, b, ());
        g.add_edge(c, b, ());
        assert_eq!(diameter(&g), 2);
    }

    #[test]
    fn empty_and_singleton_diameter() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(diameter(&g), 0);
        let mut g: DiGraph<(), ()> = DiGraph::new();
        g.add_node(());
        assert_eq!(diameter(&g), 0);
    }

    #[test]
    fn eccentricities_per_node() {
        let ecc = eccentricities(&path_graph());
        assert_eq!(ecc, vec![3, 2, 2, 3, 0]);
    }

    #[test]
    fn nodes_within_distance() {
        let g = path_graph();
        // k=1: degrees (1,2,2,1,0) → avg 6/5.
        assert!((avg_nodes_within_distance(&g, 1) - 1.2).abs() < 1e-12);
        // k=2: a:2, b:3, c:3, d:2, e:0 → 10/5 = 2.
        assert!((avg_nodes_within_distance(&g, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn components() {
        let g = path_graph();
        let comp = weak_components(&g);
        assert_eq!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[4]);
        assert_eq!(component_count(&g), 2);
    }

    #[test]
    fn empty_graph_component_count() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(component_count(&g), 0);
    }
}
