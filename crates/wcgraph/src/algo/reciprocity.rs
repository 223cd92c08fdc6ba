//! Edge reciprocity: the likelihood of nodes to be mutually linked.

use crate::view::GraphView;

/// Reciprocity of the directed simple graph (feature f15): the fraction
/// of directed (simple) edges `u → v` for which the reverse edge `v → u`
/// also exists. Self-loops and parallel edges are ignored. Returns 0 for
/// graphs without edges.
pub fn reciprocity_view(view: &GraphView) -> f64 {
    let succ = view.successors();
    let mut total = 0usize;
    let mut reciprocated = 0usize;
    for u in 0..succ.order() {
        for &v in succ.neighbors(u) {
            total += 1;
            if succ.neighbors(v).binary_search(&u).is_ok() {
                reciprocated += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        reciprocated as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    fn reciprocity(g: &DiGraph<(), ()>) -> f64 {
        reciprocity_view(&GraphView::of(g))
    }

    #[test]
    fn fully_reciprocated() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!((reciprocity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn none_reciprocated() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        assert_eq!(reciprocity(&g), 0.0);
    }

    #[test]
    fn half_reciprocated() {
        // a<->b, a->c: 3 simple directed edges, 2 reciprocated.
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(a, c, ());
        assert!((reciprocity(&g) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_collapse() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!((reciprocity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(reciprocity(&g), 0.0);
    }
}
