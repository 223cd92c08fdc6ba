//! Weakly connected components — reachability on the underlying
//! undirected simple graph. The distance measures (diameter, the
//! within-`k` count) are read off the all-sources sweep in
//! [`centrality`](crate::algo::centrality).

use crate::DiGraph;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components() {
        // Path a-b-c-d plus isolated e.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[3], ());
        assert_eq!(weak_components(&g), vec![0, 0, 0, 0, 1]);
    }

    #[test]
    fn empty_graph_has_no_components() {
        assert!(weak_components(&DiGraph::<(), ()>::new()).is_empty());
    }
}
