//! Clustering coefficient and neighbor-degree measures, both on the
//! undirected simple view.

use crate::view::{Adjacency, GraphView};

/// Clustering coefficient of node `w`: `2·T(w) / (k(w)·(k(w)−1))` where
/// `T(w)` is the number of triangles through `w` and `k(w)` its simple
/// degree. Nodes with degree < 2 get 0.
fn node_clustering<A: Adjacency + ?Sized>(adj: &A, w: usize) -> f64 {
    let nbrs = adj.neighbors(w);
    let k = nbrs.len();
    if k < 2 {
        return 0.0;
    }
    let mut triangles = 0usize;
    for (i, &u) in nbrs.iter().enumerate() {
        for &v in &nbrs[i + 1..] {
            if adj.neighbors(u).binary_search(&v).is_ok() {
                triangles += 1;
            }
        }
    }
    2.0 * triangles as f64 / (k * (k - 1)) as f64
}

/// Average clustering coefficient (feature f21), as a running sum in
/// node order.
pub fn clustering_coefficient_mean_view(view: &GraphView) -> f64 {
    let adj = view.undirected();
    let n = adj.order();
    if n == 0 {
        return 0.0;
    }
    (0..n).map(|w| node_clustering(adj, w)).sum::<f64>() / n as f64
}

/// Average neighbor degree of node `w`: the mean simple degree of its
/// neighbors. Isolated nodes get 0.
fn node_neighbor_degree<A: Adjacency + ?Sized>(adj: &A, w: usize) -> f64 {
    let nbrs = adj.neighbors(w);
    if nbrs.is_empty() {
        0.0
    } else {
        nbrs.iter().map(|&u| adj.neighbors(u).len() as f64).sum::<f64>() / nbrs.len() as f64
    }
}

/// Average neighbor degree over all nodes (feature f22), as a running
/// sum in node order.
pub fn neighbor_degree_mean_view(view: &GraphView) -> f64 {
    let adj = view.undirected();
    let n = adj.order();
    if n == 0 {
        return 0.0;
    }
    (0..n).map(|w| node_neighbor_degree(adj, w)).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiGraph, NodeId};

    fn triangle_plus_tail() -> DiGraph<(), ()> {
        // Triangle 0-1-2 with a tail 2-3.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[0], ());
        g.add_edge(n[2], n[3], ());
        g
    }

    fn per_node(g: &DiGraph<(), ()>, f: fn(&crate::Csr, usize) -> f64) -> Vec<f64> {
        let view = GraphView::of(g);
        (0..g.node_count()).map(|w| f(view.undirected(), w)).collect()
    }

    #[test]
    fn triangle_nodes_fully_clustered() {
        let cc = per_node(&triangle_plus_tail(), node_clustering);
        assert!((cc[0] - 1.0).abs() < 1e-12);
        assert!((cc[1] - 1.0).abs() < 1e-12);
        // Node 2 has degree 3, one triangle: 2*1/(3*2) = 1/3.
        assert!((cc[2] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cc[3], 0.0); // degree 1
    }

    #[test]
    fn star_has_zero_clustering() {
        let mut g = DiGraph::new();
        let c = g.add_node(());
        for _ in 0..3 {
            let l = g.add_node(());
            g.add_edge(c, l, ());
        }
        assert_eq!(clustering_coefficient_mean_view(&GraphView::of(&g)), 0.0);
    }

    #[test]
    fn parallel_edges_do_not_inflate_triangles() {
        let mut g = triangle_plus_tail();
        g.add_edge(NodeId(0), NodeId(1), ());
        g.add_edge(NodeId(1), NodeId(0), ());
        let cc = per_node(&g, node_clustering);
        assert!((cc[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn neighbor_degree_path() {
        // Path 0-1-2: degrees 1,2,1. Neighbor degrees: [2, 1, 2].
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        assert_eq!(per_node(&g, node_neighbor_degree), vec![2.0, 1.0, 2.0]);
        assert!((neighbor_degree_mean_view(&GraphView::of(&g)) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_node_neighbor_degree_zero() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        g.add_node(());
        assert_eq!(per_node(&g, node_neighbor_degree), vec![0.0]);
    }

    #[test]
    fn empty_graph_means_are_zero() {
        let view = GraphView::of(&DiGraph::<(), ()>::new());
        assert_eq!(clustering_coefficient_mean_view(&view), 0.0);
        assert_eq!(neighbor_degree_mean_view(&view), 0.0);
    }
}
