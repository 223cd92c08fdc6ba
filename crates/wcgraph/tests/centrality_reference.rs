//! The all-sources sweep against a naive reference.
//!
//! `algo::centrality::sweep_means_scratch` obtains f12, f17, f18, f19 and
//! f24 from one Brandes BFS per source over reused scratch buffers, with
//! path counts held in `f64`, and reports mean load as mean betweenness.
//! The reference below shares none of that: it fills an all-pairs
//! distance matrix first, counts shortest paths in integers, and then
//! applies each measure's definition pair by pair — load by its own
//! equal-split rule (the Mal-Netminer cross-check: graph metrics that
//! decide a verdict are computed twice, two ways). Both run on every WCG
//! of a seeded ground-truth corpus and on seeded random multigraphs with
//! self-loops, parallel edges and disconnected parts.

use std::collections::VecDeque;

use dynaminer::wcg::Wcg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcgraph::algo::centrality::sweep_means_scratch;
use wcgraph::algo::{mean, AlgoScratch};
use wcgraph::{DiGraph, GraphView};

const UNREACHABLE: usize = usize::MAX;

/// The sweep's measures from definitions: betweenness, load and
/// closeness per node, the largest finite distance (f12) and the number
/// of (source, other node) pairs at most two hops apart (f24's sum).
struct Reference {
    betweenness: Vec<f64>,
    load: Vec<f64>,
    closeness: Vec<f64>,
    diameter: usize,
    within_2: usize,
}

/// The undirected simple graph under `g`: direction, parallel edges and
/// self-loops dropped.
fn simple_neighbors<N, E>(g: &DiGraph<N, E>) -> Vec<Vec<usize>> {
    let n = g.node_count();
    let mut adjacent = vec![vec![false; n]; n];
    for (_, src, dst, _) in g.edges() {
        if src != dst {
            adjacent[src.0][dst.0] = true;
            adjacent[dst.0][src.0] = true;
        }
    }
    adjacent.iter().map(|row| (0..n).filter(|&v| row[v]).collect()).collect()
}

fn reference<N, E>(g: &DiGraph<N, E>) -> Reference {
    let n = g.node_count();
    let neighbors = simple_neighbors(g);

    // All-pairs BFS distances.
    let mut dist = vec![vec![UNREACHABLE; n]; n];
    for (s, from_s) in dist.iter_mut().enumerate() {
        from_s[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in &neighbors[u] {
                if from_s[v] == UNREACHABLE {
                    from_s[v] = from_s[u] + 1;
                    queue.push_back(v);
                }
            }
        }
    }

    // Exact shortest-path counts: paths[s][t] sums paths[s][u] over the
    // neighbours u of t one step closer to s, in order of distance.
    let mut paths = vec![vec![0u128; n]; n];
    for s in 0..n {
        let mut by_distance: Vec<usize> = (0..n).filter(|&t| dist[s][t] != UNREACHABLE).collect();
        by_distance.sort_by_key(|&t| dist[s][t]);
        paths[s][s] = 1;
        for &t in by_distance.iter().skip(1) {
            paths[s][t] = neighbors[t]
                .iter()
                .filter(|&&u| dist[s][u] != UNREACHABLE && dist[s][u] + 1 == dist[s][t])
                .map(|&u| paths[s][u])
                .sum();
        }
    }

    // Betweenness: over ordered pairs (s, t), the share of shortest
    // s–t paths that pass through v.
    let mut betweenness = vec![0.0f64; n];
    for s in 0..n {
        for t in 0..n {
            if s == t || dist[s][t] == UNREACHABLE {
                continue;
            }
            for (v, b) in betweenness.iter_mut().enumerate() {
                if v != s
                    && v != t
                    && dist[s][v] != UNREACHABLE
                    && dist[v][t] != UNREACHABLE
                    && dist[s][v] + dist[v][t] == dist[s][t]
                {
                    *b += (paths[s][v] * paths[v][t]) as f64 / paths[s][t] as f64;
                }
            }
        }
    }

    // Load (Newman): every node reachable from s sends one unit to s,
    // each holder splitting what it holds equally among its neighbours
    // one step closer; a node's load is what passes through it.
    let mut load = vec![0.0f64; n];
    for (s, from_s) in dist.iter().enumerate() {
        let mut holding = vec![0.0f64; n];
        let mut far_first: Vec<usize> =
            (0..n).filter(|&v| v != s && from_s[v] != UNREACHABLE).collect();
        far_first.sort_by_key(|&v| std::cmp::Reverse(from_s[v]));
        for &v in &far_first {
            let closer: Vec<usize> =
                neighbors[v].iter().copied().filter(|&u| from_s[u] + 1 == from_s[v]).collect();
            let sent = (1.0 + holding[v]) / closer.len() as f64;
            for u in closer {
                holding[u] += sent;
            }
            load[v] += holding[v];
        }
    }

    if n > 2 {
        let pairs = ((n - 1) * (n - 2)) as f64;
        for x in betweenness.iter_mut().chain(load.iter_mut()) {
            *x /= pairs;
        }
    }

    // Closeness with the Wasserman–Faust scaling for disconnected graphs.
    let closeness = (0..n)
        .map(|u| {
            let reached: Vec<usize> =
                (0..n).filter(|&v| v != u && dist[u][v] != UNREACHABLE).map(|v| dist[u][v]).collect();
            let total: usize = reached.iter().sum();
            if total == 0 {
                0.0
            } else {
                let r = reached.len() as f64;
                (r / total as f64) * (r / (n - 1) as f64)
            }
        })
        .collect();

    // The largest finite distance, and the ordered pairs of distinct
    // nodes at most two hops apart.
    let (mut diameter, mut within_2) = (0, 0);
    for (s, row) in dist.iter().enumerate() {
        for (t, &d) in row.iter().enumerate() {
            if t != s && d != UNREACHABLE {
                diameter = diameter.max(d);
                within_2 += usize::from(d <= 2);
            }
        }
    }

    Reference { betweenness, load, closeness, diameter, within_2 }
}

#[track_caller]
fn assert_close(fused: f64, naive: f64, tolerance: f64, what: &str) {
    let scale = fused.abs().max(naive.abs());
    assert!(
        (fused - naive).abs() <= tolerance * scale,
        "{what}: fused {fused:e} vs reference {naive:e}"
    );
}

/// f12 and f24 exactly (integers, and the same quotient), f17 exactly
/// (the same Wasserman–Faust terms summed in source order), f18 and the
/// f19 the features take from it to 1e-12 (sums of up to n² rounded
/// quotients in two different orders).
fn assert_agrees<N, E>(g: &DiGraph<N, E>, what: &str) {
    let sweep = sweep_means_scratch(&GraphView::of(g), 2, &mut AlgoScratch::new());
    let naive = reference(g);
    let n = g.node_count();
    let within_2 = if n == 0 { 0.0 } else { naive.within_2 as f64 / n as f64 };
    assert_eq!(sweep.diameter, naive.diameter, "{what}: f12");
    assert_eq!(sweep.closeness.to_bits(), mean(&naive.closeness).to_bits(), "{what}: f17");
    assert_eq!(sweep.within_k.to_bits(), within_2.to_bits(), "{what}: f24");
    assert_close(sweep.betweenness, mean(&naive.betweenness), 1e-12, &format!("{what}: f18"));
    assert_close(sweep.betweenness, mean(&naive.load), 1e-12, &format!("{what}: f19"));
}

#[test]
fn fused_pass_matches_the_reference_on_every_ground_truth_wcg() {
    let corpus = synthtraffic::ground_truth(42, 0.05);
    assert!(corpus.iter().any(|e| e.is_infection()) && corpus.iter().any(|e| !e.is_infection()));
    for (i, episode) in corpus.iter().enumerate() {
        let wcg = Wcg::from_transactions(&episode.transactions);
        assert_agrees(&wcg.graph, &format!("episode {i} ({:?})", episode.label));
    }
}

#[test]
fn fused_pass_matches_the_reference_on_random_multigraphs() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..200 {
        let n = rng.gen_range(1..=24usize);
        // A second island: nodes at or above `split` never link below it.
        let split = if case % 3 == 0 { rng.gen_range(0..=n) } else { n };
        let edges = rng.gen_range(0..=3 * n);
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for _ in 0..edges {
            let a = rng.gen_range(0..n);
            let b = match rng.gen_range(0..10) {
                0 => a,
                _ if a < split && split > 0 => rng.gen_range(0..split),
                _ if a >= split && split < n => rng.gen_range(split..n),
                _ => a,
            };
            g.add_edge(ids[a], ids[b], ());
            if rng.gen_range(0..4) == 0 {
                g.add_edge(ids[a], ids[b], ());
            }
        }
        assert_agrees(&g, &format!("random case {case} (n={n}, split={split})"));
    }
}
