//! Heap-growth fence for average node connectivity (f20) on a graph as
//! large as one conversation can make it. Kept as the only test in this
//! binary so no concurrent test thread can move the process-wide byte
//! gauge.

use wcgraph::algo::connectivity::average_node_connectivity_view_scratch;
use wcgraph::algo::AlgoScratch;
use wcgraph::{DiGraph, GraphView};

#[global_allocator]
static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;

/// A conversation may hold thousands of hosts (the per-conversation cap
/// is 8 192 transactions), and f20 is recomputed whenever its topology
/// changes. Above 64 nodes only ~2 016 sampled pairs are scored, so the
/// memory f20 takes must follow the graph, n + m, not the n(n−1)/2 pairs
/// the sample is drawn from: listing the pairs of this 5 001-node star
/// first would take 200 MB.
#[test]
fn average_node_connectivity_memory_is_linear_in_the_graph() {
    const LEAVES: usize = 5000;
    let mut g: DiGraph<(), ()> = DiGraph::new();
    let centre = g.add_node(());
    for _ in 0..LEAVES {
        let leaf = g.add_node(());
        g.add_edge(centre, leaf, ());
    }
    let view = GraphView::of(&g);
    let mut scratch = AlgoScratch::new();

    let before = bench::alloc_count::restart_peak();
    let value = average_node_connectivity_view_scratch(&view, &mut scratch);
    let grown = bench::alloc_count::peak_bytes() - before;

    // Every pair of a star is joined by exactly one path.
    assert_eq!(value, 1.0);
    let budget = 128 * (g.node_count() + g.edge_count()) as u64;
    assert!(
        grown <= budget,
        "f20 on a {LEAVES}-leaf star grew the heap by {grown} bytes; \
         the budget is 128 bytes per node and edge = {budget}"
    );
}
