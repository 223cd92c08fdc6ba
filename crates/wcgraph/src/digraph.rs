//! A compact directed multigraph with node and edge payloads.

use serde::{Deserialize, Serialize};

/// Index of a node within a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Index of an edge within a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Edge<E> {
    src: NodeId,
    dst: NodeId,
    payload: E,
}

/// A directed multigraph: parallel edges and self-loops are allowed.
///
/// Nodes and edges are identified by dense indices ([`NodeId`], [`EdgeId`])
/// assigned in insertion order; neither can be removed, which keeps the
/// indices stable — web conversation graphs only ever grow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    /// Per-node total degree, bumped at both endpoints by `add_edge`.
    degree: Vec<usize>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        DiGraph { nodes: Vec::new(), edges: Vec::new(), degree: Vec::new() }
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Removes every node and edge, keeping the buffers' capacity for
    /// the next graph built in this one.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.edges.clear();
        self.degree.clear();
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(payload);
        self.degree.push(0);
        id
    }

    /// Adds a directed edge `src → dst` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> EdgeId {
        assert!(src.0 < self.nodes.len(), "src node {} out of bounds", src.0);
        assert!(dst.0 < self.nodes.len(), "dst node {} out of bounds", dst.0);
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, payload });
        self.degree[src.0] += 1;
        self.degree[dst.0] += 1;
        id
    }

    /// Number of nodes (the graph's *order*).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (the graph's *size*), counting parallel edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Payload of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn node(&self, n: NodeId) -> &N {
        &self.nodes[n.0]
    }

    /// Mutable payload of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn node_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.nodes[n.0]
    }

    /// Payload of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    pub fn edge(&self, e: EdgeId) -> &E {
        &self.edges[e.0].payload
    }

    /// Mutable payload of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    pub fn edge_mut(&mut self, e: EdgeId) -> &mut E {
        &mut self.edges[e.0].payload
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over `(EdgeId, src, dst, &payload)` for every edge.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e.src, e.dst, &e.payload))
    }

    /// Total degree (in + out) of `n` counting parallel edges; a
    /// self-loop counts twice.
    pub fn degree(&self, n: NodeId) -> usize {
        self.degree[n.0]
    }

    /// Simple undirected adjacency: for each node, the sorted distinct
    /// neighbor set ignoring edge direction and self-loops. This is the
    /// view most centrality algorithms operate on.
    pub fn undirected_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if e.src != e.dst {
                adj[e.src.0].push(e.dst.0);
                adj[e.dst.0].push(e.src.0);
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// Simple directed adjacency (parallel edges and self-loops collapsed):
    /// `(successors, predecessors)` per node, sorted.
    pub fn directed_adjacency(&self) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let mut succ = vec![Vec::new(); self.nodes.len()];
        let mut pred = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if e.src != e.dst {
                succ[e.src.0].push(e.dst.0);
                pred[e.dst.0].push(e.src.0);
            }
        }
        for v in succ.iter_mut().chain(pred.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        (succ, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DiGraph<&'static str, u32> {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 2);
        g.add_edge(c, a, 3);
        g
    }

    #[test]
    fn counts_and_payloads() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(*g.node(NodeId(1)), "b");
        assert_eq!(*g.edge(EdgeId(2)), 3);
        assert_eq!(g.edges().next(), Some((EdgeId(0), NodeId(0), NodeId(1), &1)));
    }

    #[test]
    fn degrees_count_parallel_edges() {
        let mut g = triangle();
        g.add_edge(NodeId(0), NodeId(1), 9);
        g.add_edge(NodeId(2), NodeId(2), 9);
        assert_eq!(g.degree(NodeId(0)), 3); // 2 out + 1 in
        assert_eq!(g.degree(NodeId(1)), 3); // 1 out + 2 in
        assert_eq!(g.degree(NodeId(2)), 4); // the self-loop counts twice
        // …but the simple adjacency collapses them.
        assert_eq!(g.directed_adjacency().0[0], vec![1]);
    }

    #[test]
    fn undirected_adjacency_collapses_direction_and_loops() {
        let mut g = triangle();
        g.add_edge(NodeId(1), NodeId(0), 9); // reverse of existing
        g.add_edge(NodeId(2), NodeId(2), 9); // self-loop
        let adj = g.undirected_adjacency();
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[2], vec![0, 1]); // self-loop excluded
    }

    #[test]
    fn directed_adjacency_separates_directions() {
        let g = triangle();
        let (succ, pred) = g.directed_adjacency();
        assert_eq!(succ[0], vec![1]);
        assert_eq!(pred[0], vec![2]);
    }

    #[test]
    fn node_mut_and_edge_mut() {
        let mut g = triangle();
        *g.node_mut(NodeId(0)) = "z";
        *g.edge_mut(EdgeId(0)) = 42;
        assert_eq!(*g.node(NodeId(0)), "z");
        assert_eq!(*g.edge(EdgeId(0)), 42);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_validates_endpoints() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(5), ());
    }

    #[test]
    fn iterators_cover_everything() {
        let g = triangle();
        assert_eq!(g.node_ids().count(), 3);
        let total: u32 = g.edges().map(|(_, _, _, w)| *w).sum();
        assert_eq!(total, 6);
    }
}
