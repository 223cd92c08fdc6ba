//! Node connectivity (vertex-disjoint paths) and degree connectivity.
//!
//! Average node connectivity (f20) is a unit-capacity max-flow per node
//! pair on the vertex-split digraph: every node `v` becomes
//! `v_in → v_out` with capacity 1, every undirected edge `{u,v}` becomes
//! `u_out → v_in` and `v_out → u_in`, and κ(s,t) is the flow from `s_out`
//! to `t_in`. `Residual` builds that network once per graph and decides
//! most pairs without a search; [`local_node_connectivity`] rebuilds it
//! per pair and runs Edmonds–Karp to exhaustion — the reference the
//! differential tests compare against.

use crate::algo::AlgoScratch;
use crate::view::{Adjacency, GraphView};
use crate::DiGraph;

/// Local node connectivity between `s` and `t` on an undirected simple
/// adjacency: the maximum number of internally vertex-disjoint `s`–`t`
/// paths (equivalently, by Menger's theorem, the minimum vertex cut).
///
/// Adjacent `s`, `t` still yield finite values (the direct edge counts as
/// one disjoint path).
///
/// One-shot: builds the whole vertex-split residual graph for this pair
/// and augments until a search fails.
/// [`average_node_connectivity_view_scratch`] does not call it; it is kept
/// as the oracle for the pruned computation.
pub fn local_node_connectivity<A: Adjacency + ?Sized>(adj: &A, s: usize, t: usize) -> usize {
    assert_ne!(s, t, "local connectivity requires distinct endpoints");
    let n = adj.order();
    // Node v_in = 2v, v_out = 2v+1. Residual capacities in a hash-free
    // edge-list representation: (to, cap, reverse-index).
    let mut graph: Vec<Vec<(usize, i32, usize)>> = vec![Vec::new(); 2 * n];
    let add = |g: &mut [Vec<(usize, i32, usize)>], u: usize, v: usize, cap: i32| {
        let ru = g[u].len();
        let rv = g[v].len();
        g[u].push((v, cap, rv));
        g[v].push((u, 0, ru));
    };
    for v in 0..n {
        let cap = if v == s || v == t { i32::MAX / 2 } else { 1 };
        add(&mut graph, 2 * v, 2 * v + 1, cap);
    }
    for u in 0..n {
        for &v in adj.neighbors(u) {
            if u < v {
                add(&mut graph, 2 * u + 1, 2 * v, 1);
                add(&mut graph, 2 * v + 1, 2 * u, 1);
            }
        }
    }
    // Edmonds–Karp from s_out to t_in.
    let source = 2 * s + 1;
    let sink = 2 * t;
    let mut parent: Vec<Option<(usize, usize)>> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut flow = 0usize;
    loop {
        parent.clear();
        parent.resize(2 * n, None);
        queue.clear();
        queue.push_back(source);
        parent[source] = Some((source, usize::MAX));
        while let Some(u) = queue.pop_front() {
            if u == sink {
                break;
            }
            for (i, &(v, cap, _)) in graph[u].iter().enumerate() {
                if cap > 0 && parent[v].is_none() {
                    parent[v] = Some((u, i));
                    queue.push_back(v);
                }
            }
        }
        if parent[sink].is_none() {
            break;
        }
        // Augment by 1 (unit capacities on all internal edges).
        let mut v = sink;
        while v != source {
            let (u, i) = parent[v].expect("path reconstructed");
            graph[u][i].1 -= 1;
            let rev = graph[u][i].2;
            graph[v][rev].1 += 1;
            v = u;
        }
        flow += 1;
        if flow > n {
            break; // safety: cannot exceed node count
        }
    }
    flow
}

/// Marks a residual node no search has reached yet.
const UNREACHED: usize = usize::MAX;
/// Marks the node a search started from.
const ROOT: usize = usize::MAX - 1;

/// The vertex-split residual network of one undirected simple graph, in
/// flat arc arrays that live in [`AlgoScratch`] and are refilled per
/// graph.
///
/// Residual node `2v` is `v_in`, `2v + 1` is `v_out`; both rows hold
/// `1 + deg(v)` arcs. Arc 0 of `v_in`'s row is the unit arc
/// `v_in → v_out` and arc 0 of `v_out`'s row its reverse; arc `1 + j` of
/// `v_out`'s row is the unit arc `v_out → u_in` for the `j`-th neighbour
/// `u`, and its reverse takes the next free slot of `u_in`'s row. No arc
/// is special for the pair in hand: a simple path from `s_out` to `t_in`
/// can use neither `s_in → s_out` (it would re-enter its first node) nor
/// `t_in → t_out` (it ends at `t_in`), so their capacities do not bound
/// the flow and one network serves every pair.
#[derive(Debug, Default)]
pub(crate) struct Residual {
    /// First arc of each residual node's row, then the arc count.
    start: Vec<usize>,
    /// Head of each arc.
    to: Vec<usize>,
    /// Index of each arc's reverse arc.
    rev: Vec<usize>,
    /// Capacity before any flow: 1 on forward arcs, 0 on reverse arcs.
    initial: Vec<u8>,
    /// Residual capacity for the pair in hand; reset from `initial`.
    cap: Vec<u8>,
    /// The arc each residual node was reached by in the current search.
    via: Vec<usize>,
    /// The current search's queue; doubles as the component-labelling
    /// stack.
    queue: Vec<usize>,
    /// Weak-component label per graph node.
    component: Vec<usize>,
    /// Per graph node: how many reverse arcs its `v_in` row holds so far.
    filled: Vec<usize>,
}

#[cfg(test)]
thread_local! {
    /// Residual networks built and augmenting searches run on this
    /// thread: the work fence the unit tests below count.
    static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static SEARCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Residual {
    /// Refills the network and the component labels from `adj`, which
    /// must be symmetric (every `v_in` row is sized by `v`'s own degree
    /// and filled by its neighbours).
    fn build<A: Adjacency + ?Sized>(&mut self, adj: &A) {
        #[cfg(test)]
        BUILDS.with(|c| c.set(c.get() + 1));
        let n = adj.order();
        self.start.clear();
        let mut arcs = 0;
        for v in 0..n {
            let row = 1 + adj.neighbors(v).len();
            self.start.extend([arcs, arcs + row]);
            arcs += 2 * row;
        }
        self.start.push(arcs);
        for ids in [&mut self.to, &mut self.rev] {
            ids.clear();
            ids.resize(arcs, 0);
        }
        self.initial.clear();
        self.initial.resize(arcs, 0);
        self.filled.clear();
        self.filled.resize(n, 0);
        for v in 0..n {
            let (v_in, v_out) = (self.start[2 * v], self.start[2 * v + 1]);
            self.link(v_in, 2 * v + 1, v_out, 2 * v);
            for (j, &u) in adj.neighbors(v).iter().enumerate() {
                let back = self.start[2 * u] + 1 + self.filled[u];
                self.filled[u] += 1;
                self.link(v_out + 1 + j, 2 * u, back, 2 * v + 1);
            }
        }

        self.component.clear();
        self.component.resize(n, UNREACHED);
        for root in 0..n {
            if self.component[root] != UNREACHED {
                continue;
            }
            self.component[root] = root;
            self.queue.clear();
            self.queue.push(root);
            while let Some(u) = self.queue.pop() {
                for &v in adj.neighbors(u) {
                    if self.component[v] == UNREACHED {
                        self.component[v] = root;
                        self.queue.push(v);
                    }
                }
            }
        }
    }

    /// Writes unit arc `arc` with head `head` and its empty reverse arc
    /// `back` with head `tail`.
    fn link(&mut self, arc: usize, head: usize, back: usize, tail: usize) {
        self.to[arc] = head;
        self.rev[arc] = back;
        self.initial[arc] = 1;
        self.to[back] = tail;
        self.rev[back] = arc;
    }

    /// κ(s, t) on the graph last built. Three rules keep most pairs away
    /// from the flow computation: nodes in different components have no
    /// path at all; every path leaves `s` and enters `t` through a
    /// distinct neighbour (the direct edge, when there is one, uses up
    /// `t` as a neighbour of `s` and `s` as one of `t`), so
    /// `min(deg s, deg t)` bounds the flow and, when it is 0 or 1 in one
    /// component, is the answer; and a flow that has reached the bound is
    /// maximal, so no search has to fail to prove it.
    fn connectivity<A: Adjacency + ?Sized>(&mut self, adj: &A, s: usize, t: usize) -> usize {
        if self.component[s] != self.component[t] {
            return 0;
        }
        let bound = adj.neighbors(s).len().min(adj.neighbors(t).len());
        if bound <= 1 {
            return bound;
        }
        self.cap.clone_from(&self.initial);
        let mut flow = 0;
        while flow < bound && self.augment(2 * s + 1, 2 * t) {
            flow += 1;
        }
        flow
    }

    /// One breadth-first search for an augmenting path; pushes one unit
    /// along it when there is one.
    fn augment(&mut self, source: usize, sink: usize) -> bool {
        #[cfg(test)]
        SEARCHES.with(|c| c.set(c.get() + 1));
        self.via.clear();
        self.via.resize(self.start.len() - 1, UNREACHED);
        self.via[source] = ROOT;
        self.queue.clear();
        self.queue.push(source);
        let mut head = 0;
        'search: while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for arc in self.start[u]..self.start[u + 1] {
                let v = self.to[arc];
                if self.cap[arc] > 0 && self.via[v] == UNREACHED {
                    self.via[v] = arc;
                    if v == sink {
                        break 'search;
                    }
                    self.queue.push(v);
                }
            }
        }
        if self.via[sink] == UNREACHED {
            return false;
        }
        let mut v = sink;
        while v != source {
            let arc = self.via[v];
            let back = self.rev[arc];
            self.cap[arc] -= 1;
            self.cap[back] += 1;
            v = self.to[back];
        }
        true
    }
}

/// Average node connectivity: the mean of local node connectivity over
/// node pairs (feature f20, Fig. 7's "average node connectivity"),
/// reusing `scratch`'s residual network: no allocation once its arrays
/// have grown to the graph's size.
///
/// For graphs with more than 64 nodes an exact all-pairs computation is
/// quadratic in pairs times a max-flow each; we then fall back to a
/// deterministic stride-sample of pairs, which preserves the estimator's
/// mean on these small-world conversation graphs.
pub fn average_node_connectivity_view_scratch(
    view: &GraphView,
    scratch: &mut AlgoScratch,
) -> f64 {
    average_node_connectivity_in(view.undirected(), 64, &mut scratch.residual)
}

/// Mean κ over the pairs `s < t` in row-major order — all of them up to
/// `sample_limit` nodes, every `stride`-th (indices 0, stride, 2·stride,
/// …) above it. The pair at each index is found by walking rows, so
/// memory stays linear in the graph however many pairs there are, and
/// since every κ is an integer fixed by the graph the sum and the
/// quotient do not depend on how each was obtained.
fn average_node_connectivity_in<A: Adjacency + ?Sized>(
    adj: &A,
    sample_limit: usize,
    net: &mut Residual,
) -> f64 {
    let n = adj.order();
    if n < 2 {
        return 0.0;
    }
    let stride = if n > sample_limit {
        let target = sample_limit * (sample_limit - 1) / 2;
        (n * (n - 1) / 2 / target).max(1)
    } else {
        1
    };
    net.build(adj);
    let (mut total, mut pairs) = (0usize, 0usize);
    // The pair in hand is (s, s + 1 + column); row s holds n - 1 - s pairs.
    let (mut s, mut column) = (0, 0);
    while s + 1 < n {
        total += net.connectivity(adj, s, s + 1 + column);
        pairs += 1;
        column += stride;
        while s + 1 < n && column >= n - 1 - s {
            column -= n - 1 - s;
            s += 1;
        }
    }
    total as f64 / pairs as f64
}

/// Average degree over non-isolated nodes (feature f23, "average degree
/// for connected nodes"). Parallel edges are counted, matching the degree
/// definition used elsewhere.
pub fn avg_degree_connectivity<N, E>(g: &DiGraph<N, E>) -> f64 {
    // Integer running sums — exactly the value the collected-vector
    // version produced, with no per-call allocation.
    let mut sum = 0usize;
    let mut connected = 0usize;
    for v in g.node_ids() {
        let d = g.degree(v);
        if d > 0 {
            sum += d;
            connected += 1;
        }
    }
    if connected == 0 {
        0.0
    } else {
        sum as f64 / connected as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(nodes[i], nodes[j], ());
            }
        }
        g
    }

    fn cycle(n: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], ());
        }
        g
    }

    fn star(leaves: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let centre = g.add_node(());
        for _ in 0..leaves {
            let leaf = g.add_node(());
            g.add_edge(leaf, centre, ());
        }
        g
    }

    fn average_node_connectivity(g: &DiGraph<(), ()>) -> f64 {
        average_node_connectivity_view_scratch(&GraphView::of(g), &mut AlgoScratch::new())
    }

    /// `(f20, networks built, augmenting searches, pairs averaged)` of one call.
    fn counted(g: &DiGraph<(), ()>) -> (f64, usize, usize, usize) {
        BUILDS.with(|c| c.set(0));
        SEARCHES.with(|c| c.set(0));
        let value = average_node_connectivity(g);
        let n = g.node_count();
        let all = n * (n - 1) / 2;
        let pairs = if n > 64 { all.div_ceil(all / 2016) } else { all };
        (value, BUILDS.with(|c| c.get()), SEARCHES.with(|c| c.get()), pairs)
    }

    /// The work fence, counted not timed: one network per call whatever
    /// the pair count, no search for a pair a degree decides, and no
    /// search that fails once the flow has reached the degree bound.
    #[test]
    fn searches_stop_at_the_degree_bound() {
        for leaves in [1, 4, 63, 64, 200] {
            let (value, builds, searches, _) = counted(&star(leaves));
            assert_eq!((value, builds, searches), (1.0, 1, 0), "star of {leaves} leaves");
        }
        for n in [3, 5, 12, 64, 65, 100] {
            let (value, builds, searches, pairs) = counted(&cycle(n));
            assert_eq!((value, builds, searches), (2.0, 1, 2 * pairs), "C{n}");
        }
        for n in [3, 5, 9] {
            let (value, builds, searches, pairs) = counted(&complete(n));
            assert_eq!((value, builds, searches), ((n - 1) as f64, 1, (n - 1) * pairs), "K{n}");
        }
    }

    #[test]
    fn path_connectivity_is_one() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        let adj = g.undirected_adjacency();
        assert_eq!(local_node_connectivity(&adj, 0, 2), 1);
    }

    #[test]
    fn complete_graph_connectivity() {
        let g = complete(5);
        let adj = g.undirected_adjacency();
        // K5: connectivity between any pair = 4 (direct edge + 3 via others).
        assert_eq!(local_node_connectivity(&adj, 0, 4), 4);
        assert!((average_node_connectivity(&g) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_connectivity_is_two() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for i in 0..5 {
            g.add_edge(n[i], n[(i + 1) % 5], ());
        }
        let adj = g.undirected_adjacency();
        assert_eq!(local_node_connectivity(&adj, 0, 2), 2);
        assert!((average_node_connectivity(&g) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_pair_connectivity_is_zero() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        g.add_node(());
        g.add_node(());
        let adj = g.undirected_adjacency();
        assert_eq!(local_node_connectivity(&adj, 0, 1), 0);
        assert_eq!(average_node_connectivity(&g), 0.0);
    }

    #[test]
    fn cut_vertex_limits_connectivity() {
        // Two triangles sharing node 2 (bowtie): connectivity(0, 4) = 1.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            g.add_edge(n[a], n[b], ());
        }
        let adj = g.undirected_adjacency();
        assert_eq!(local_node_connectivity(&adj, 0, 4), 1);
        assert_eq!(local_node_connectivity(&adj, 0, 1), 2);
    }

    #[test]
    fn sampling_matches_exact_on_regular_graph() {
        let adj = complete(10).undirected_adjacency();
        let exact = average_node_connectivity_in(&adj, 1000, &mut Residual::default());
        let sampled = average_node_connectivity_in(&adj, 4, &mut Residual::default());
        assert!((exact - sampled).abs() < 1e-12); // all pairs identical in K10
    }

    #[test]
    fn degree_connectivity_ignores_isolated() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_node(()); // isolated
        g.add_edge(a, b, ());
        // Degrees: 1, 1, 0 → mean over connected = 1.
        assert!((avg_degree_connectivity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_connectivity_empty() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(avg_degree_connectivity(&g), 0.0);
    }
}
