//! Property-based tests over the core data structures and invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use dynaminer::features::{self, FeatureExtractor};
use dynaminer::wcg::{PushOutcome, Wcg, WcgBuilder};
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcgraph::algo;
use wcgraph::{DiGraph, GraphView};

mod common;
use common::arb_transaction;

// ---------------------------------------------------------------------
// Graph algorithm invariants on random digraphs.
// ---------------------------------------------------------------------

fn arb_graph() -> impl Strategy<Value = DiGraph<(), ()>> {
    (2usize..12).prop_flat_map(|n| {
        vec((0..n, 0..n), 0..30).prop_map(move |edges| {
            let mut g = DiGraph::new();
            let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
            for (a, b) in edges {
                g.add_edge(ids[a], ids[b], ());
            }
            g
        })
    })
}

/// A loaded view and a fresh scratch: what the production kernels take.
fn loaded(g: &DiGraph<(), ()>) -> (GraphView, algo::AlgoScratch) {
    (GraphView::of(g), algo::AlgoScratch::new())
}

proptest! {
    #[test]
    fn pagerank_sums_to_one_and_is_positive(g in arb_graph()) {
        let (view, mut scratch) = loaded(&g);
        let (d, t, i) = (
            algo::pagerank::DEFAULT_DAMPING,
            algo::pagerank::DEFAULT_TOL,
            algo::pagerank::DEFAULT_MAX_ITER,
        );
        let mean = algo::pagerank::pagerank_mean_scratch(&view, d, t, i, &mut scratch);
        let sum = mean * g.node_count() as f64;
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        prop_assert!(mean > 0.0);
    }

    #[test]
    fn centralities_are_finite_and_nonnegative(g in arb_graph()) {
        let (view, mut scratch) = loaded(&g);
        let sweep = algo::centrality::sweep_means_scratch(&view, 2, &mut scratch);
        for v in [
            sweep.betweenness,
            sweep.closeness,
            sweep.within_k,
            algo::centrality::avg_degree_centrality(&g),
        ] {
            prop_assert!(v.is_finite() && v >= -1e-12, "{v}");
        }
    }

    #[test]
    fn closeness_bounded_by_one(g in arb_graph()) {
        let (view, mut scratch) = loaded(&g);
        let closeness = algo::centrality::sweep_means_scratch(&view, 2, &mut scratch).closeness;
        prop_assert!(closeness <= 1.0 + 1e-12, "closeness {closeness}");
    }

    #[test]
    fn diameter_bounded_by_order(g in arb_graph()) {
        let (view, mut scratch) = loaded(&g);
        let diameter = algo::centrality::sweep_means_scratch(&view, 2, &mut scratch).diameter;
        prop_assert!(diameter < g.node_count().max(1));
    }

    #[test]
    fn reciprocity_is_a_fraction(g in arb_graph()) {
        let r = algo::reciprocity::reciprocity_view(&GraphView::of(&g));
        prop_assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn clustering_coefficients_are_fractions(g in arb_graph()) {
        let c = algo::clustering::clustering_coefficient_mean_view(&GraphView::of(&g));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
    }

    #[test]
    fn local_connectivity_bounded_by_min_degree(g in arb_graph()) {
        let adj = g.undirected_adjacency();
        let n = g.node_count();
        for s in 0..n {
            for t in (s + 1)..n {
                let c = algo::connectivity::local_node_connectivity(&adj, s, t);
                // Every path leaves s and enters t through a distinct
                // neighbour; the direct edge, if any, uses up t as a
                // neighbour of s and s as one of t. The pair pruning of
                // average node connectivity rests on this tight form.
                let bound = adj[s].len().min(adj[t].len());
                prop_assert!(c <= bound, "connectivity {c} > min degree {bound} for ({s},{t})");
            }
        }
    }

    #[test]
    fn topology_pass_matches_its_references(g in arb_graph()) {
        check_topology_pass(&g, &mut GraphView::new(), &mut algo::AlgoScratch::new())?;
    }
}

/// f20 as the per-pair reference computes it: every pair `s < t` in
/// row-major order, each `stride`-th kept above 64 nodes, and
/// [`algo::connectivity::local_node_connectivity`] — a residual graph per
/// pair, augmented until a search fails — on each.
fn reference_f20(g: &DiGraph<(), ()>) -> f64 {
    let adj = g.undirected_adjacency();
    let n = adj.len();
    let pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|s| ((s + 1)..n).map(move |t| (s, t))).collect();
    if pairs.is_empty() {
        return 0.0;
    }
    let stride = if n > 64 { (pairs.len() / (64 * 63 / 2)).max(1) } else { 1 };
    let kept: Vec<(usize, usize)> = pairs.into_iter().step_by(stride).collect();
    let total: usize = kept
        .iter()
        .map(|&(s, t)| algo::connectivity::local_node_connectivity(&adj, s, t))
        .sum();
    total as f64 / kept.len() as f64
}

/// The topology pass over a recycled view and scratch, bit for bit: the
/// view's rows against the per-call adjacency, f19 against f18 (one
/// number, see `SweepMeans::betweenness`), and f20 against the per-pair
/// reference. The sweep's measures are held to a naive all-pairs
/// reference in `crates/wcgraph/tests/centrality_reference.rs`.
fn check_topology_pass(
    g: &DiGraph<(), ()>,
    view: &mut GraphView,
    scratch: &mut algo::AlgoScratch,
) -> Result<(), String> {
    view.load(g);
    let und = g.undirected_adjacency();
    let (succ, pred) = g.directed_adjacency();
    for u in 0..g.node_count() {
        prop_assert_eq!(view.undirected().neighbors(u), und[u].as_slice());
        prop_assert_eq!(view.successors().neighbors(u), succ[u].as_slice());
        prop_assert_eq!(view.predecessors().neighbors(u), pred[u].as_slice());
    }
    let f18 = algo::centrality::sweep_means_scratch(view, 2, scratch).betweenness;
    let (_, f19) = algo::centrality::betweenness_and_load_means_scratch(view, scratch);
    let f20 = algo::connectivity::average_node_connectivity_view_scratch(view, scratch);
    for (name, pass, reference) in [("f19", f19, f18), ("f20", f20, reference_f20(g))] {
        prop_assert_eq!(pass.to_bits(), reference.to_bits(), "{}: {} vs {}", name, pass, reference);
    }
    Ok(())
}

/// [`check_topology_pass`] on the shapes the pruning rules and the pair
/// sampler turn on, through one view and one scratch so each graph runs
/// over the last one's buffers.
#[test]
fn topology_pass_matches_its_references_on_fixed_graphs() {
    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for &(a, b) in edges {
            g.add_edge(ids[a], ids[b], ());
        }
        g
    }
    let k5: Vec<(usize, usize)> =
        (0..5).flat_map(|a| ((a + 1)..5).map(move |b| (a, b))).collect();
    let mut graphs = vec![
        ("empty", graph(0, &[])),
        ("single node", graph(1, &[])),
        ("isolated nodes", graph(4, &[])),
        (
            "parallel edges and self-loops",
            graph(4, &[(0, 1), (0, 1), (1, 0), (2, 2), (1, 2), (2, 1), (3, 3)]),
        ),
        ("bowtie", graph(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])),
        ("C5", graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])),
        ("K5", graph(5, &k5)),
        (
            "two components",
            graph(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)]),
        ),
    ];
    // Orders on both sides of the 64-node sampling limit: a hub with
    // chains (degree-1 and degree-2 nodes the bound decides), random
    // chords (pairs that need the flow) and a few nodes left isolated.
    let mut rng = StdRng::seed_from_u64(20);
    for n in [63usize, 64, 65, 86, 130] {
        let mut edges = Vec::new();
        for v in 1..n - 3 {
            edges.push((if v % 3 == 0 { 0 } else { v - 1 }, v));
        }
        for _ in 0..n {
            edges.push((rng.gen_range(0..n - 3), rng.gen_range(0..n - 3)));
        }
        graphs.push(("order across the sampling limit", graph(n, &edges)));
    }
    let (mut view, mut scratch) = (GraphView::new(), algo::AlgoScratch::new());
    for (name, g) in &graphs {
        check_topology_pass(g, &mut view, &mut scratch)
            .unwrap_or_else(|e| panic!("{name} ({} nodes): {e}", g.node_count()));
    }
}

// ---------------------------------------------------------------------
// Codec roundtrips.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn base64_roundtrips(data in vec(any::<u8>(), 0..200)) {
        let enc = nettrace::base64::encode(&data);
        prop_assert_eq!(nettrace::base64::decode(&enc).unwrap(), data);
    }

    #[test]
    fn chunked_encoding_roundtrips(body in vec(any::<u8>(), 0..500)) {
        let enc = nettrace::http::encode_chunked(&body);
        let (dec, consumed) = nettrace::http::decode_chunked(&enc).unwrap().unwrap();
        prop_assert_eq!(dec, body);
        prop_assert_eq!(consumed, enc.len());
    }

    #[test]
    fn pcap_roundtrips(packets in vec((0.0f64..2e9, vec(any::<u8>(), 0..100)), 0..20)) {
        let owned: Vec<nettrace::pcap::Packet> =
            packets.iter().map(|(ts, data)| nettrace::pcap::Packet::new(*ts, data.clone())).collect();
        let got = nettrace::capture::read_packets(&nettrace::pcap::write_packets(&owned)).unwrap();
        prop_assert_eq!(got.len(), packets.len());
        for ((ts, data), p) in packets.iter().zip(&got) {
            prop_assert_eq!(&p.data, data);
            prop_assert!((p.ts - ts).abs() < 1e-5);
        }
    }
}

// ---------------------------------------------------------------------
// Parser robustness: arbitrary bytes must error, never panic.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn capture_readers_never_panic_on_garbage(bytes in vec(any::<u8>(), 0..400)) {
        let _ = nettrace::capture::read_packets(&bytes);
        let _ = nettrace::pcapng::walk_blocks(&bytes, &mut nettrace::IngestReport::new(), |_, _| {});
        let _ = nettrace::pcap::walk_records(&bytes, usize::MAX, |_, _| {});
    }

    #[test]
    fn pcapng_survives_bit_flips(
        packets in vec((0.0f64..1e6, vec(any::<u8>(), 0..40)), 1..5),
        flip in 0usize..10_000,
    ) {
        let mut bytes = nettrace::pcapng::write_packets(
            &packets.iter().map(|(t, d)| nettrace::pcap::Packet::new(*t, d.clone())).collect::<Vec<_>>(),
        );
        let idx = flip % bytes.len();
        bytes[idx] ^= 0x55;
        let _ = nettrace::capture::read_packets(&bytes); // Ok or Err, no panic
    }

    #[test]
    fn gzip_roundtrips_arbitrary_bodies(body in vec(any::<u8>(), 0..4000)) {
        let gz = nettrace::flate::gzip_compress(&body);
        prop_assert_eq!(nettrace::flate::gzip_decompress(&gz).unwrap(), body);
    }

    #[test]
    fn inflate_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..300)) {
        let _ = nettrace::flate::inflate(&bytes);
        let _ = nettrace::flate::gzip_decompress(&bytes);
    }

    #[test]
    fn fixed_literal_deflate_roundtrips(body in vec(any::<u8>(), 0..1500)) {
        let deflated = nettrace::flate::deflate_fixed_literals(&body);
        prop_assert_eq!(nettrace::flate::inflate(&deflated).unwrap(), body);
    }

    #[test]
    fn extractor_never_panics_on_random_packets(
        raw in vec(vec(any::<u8>(), 0..120), 0..10)
    ) {
        let packets: Vec<nettrace::pcap::Packet> =
            raw.into_iter().enumerate().map(|(i, d)| nettrace::pcap::Packet::new(i as f64, d)).collect();
        let _ = nettrace::SpanPipeline::extract_capture_strict(&nettrace::pcap::write_packets(&packets));
    }

    #[test]
    fn lenient_pipeline_absorbs_arbitrary_capture_mutations(
        mutations in vec((0usize..1_000_000, 1u8..=255), 1..24)
    ) {
        // Full path on a real capture with arbitrary byte damage: pcap →
        // reassembly → transactions → detector. The lenient pipeline has
        // no error path — whatever the mutation, it must complete and
        // keep its books straight.
        let mut bytes = mutation_base_pcap().clone();
        for (pos, x) in mutations {
            let at = pos % bytes.len();
            bytes[at] ^= x;
        }
        let mut report = nettrace::IngestReport::new();
        let txs = nettrace::SpanPipeline::extract_capture_lenient(&bytes, &mut report);
        prop_assert_eq!(txs.len() as u64, report.transactions_recovered);
        prop_assert!(
            report.packets_dropped_decode + report.packets_non_tcp <= report.packets_read
        );
        let mut detector = dynaminer::detector::OnTheWireDetector::new(
            mutation_test_classifier().clone(),
            dynaminer::detector::DetectorConfig::default(),
        );
        for tx in &txs {
            detector.observe(tx);
        }
        prop_assert!(detector.transactions_seen() <= txs.len());
    }
}

/// One well-formed infection capture, built once, mutated per case.
fn mutation_base_pcap() -> &'static Vec<u8> {
    use rand::SeedableRng;
    static PCAP: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PCAP.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ep = synthtraffic::episode::generate_infection(
            &mut rng,
            synthtraffic::EkFamily::Angler,
            1.4e9,
        );
        synthtraffic::pcapgen::episodes_pcap(&[ep])
    })
}

/// A deliberately tiny classifier — the property is about survival, not
/// detection quality.
fn mutation_test_classifier() -> &'static dynaminer::classifier::Classifier {
    use rand::SeedableRng;
    static CLF: std::sync::OnceLock<dynaminer::classifier::Classifier> =
        std::sync::OnceLock::new();
    CLF.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
        for i in 0..6 {
            items.push((
                synthtraffic::episode::generate_infection(
                    &mut rng,
                    synthtraffic::EkFamily::ALL[i],
                    1.4e9,
                )
                .transactions,
                true,
            ));
            items.push((
                synthtraffic::benign::generate_benign(
                    &mut rng,
                    synthtraffic::BenignScenario::Search,
                    1.43e9,
                )
                .transactions,
                false,
            ));
        }
        let data = dynaminer::classifier::build_dataset(
            items.iter().map(|(t, l)| (t.as_slice(), *l)),
        );
        dynaminer::classifier::Classifier::fit_default(&data, 3)
    })
}

// ---------------------------------------------------------------------
// WCG and feature invariants on random transaction streams.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn wcg_construction_never_panics_and_counts_add_up(
        txs in vec(arb_transaction(), 0..30)
    ) {
        let wcg = Wcg::from_transactions(&txs);
        prop_assert_eq!(wcg.tx_count, txs.len());
        // Every transaction contributes exactly one request edge.
        let requests = wcg
            .graph
            .edges()
            .filter(|(_, _, _, e)| e.kind == dynaminer::wcg::EdgeKind::Request)
            .count();
        prop_assert_eq!(requests, txs.len());
        // Stage counts partition the transactions.
        prop_assert_eq!(wcg.stage_counts.iter().sum::<usize>(), txs.len());
        // Method counts partition the transactions.
        let m = wcg.method_counts;
        prop_assert_eq!(m.get + m.post + m.other, txs.len());
        // Referrer counts partition the transactions.
        prop_assert_eq!(wcg.referrer_set + wcg.referrer_unset, txs.len());
    }

    #[test]
    fn features_always_finite(txs in vec(arb_transaction(), 0..30)) {
        let wcg = Wcg::from_transactions(&txs);
        let fv = features::extract(&wcg);
        for (i, v) in fv.values().iter().enumerate() {
            prop_assert!(v.is_finite(), "feature {} = {v}", features::NAMES[i]);
            prop_assert!(*v >= 0.0, "feature {} negative: {v}", features::NAMES[i]);
        }
    }

    #[test]
    fn wcg_duration_nonnegative_and_consistent(txs in vec(arb_transaction(), 1..30)) {
        let wcg = Wcg::from_transactions(&txs);
        prop_assert!(wcg.duration() >= 0.0);
        let min_ts = txs.iter().map(|t| t.ts).fold(f64::INFINITY, f64::min);
        prop_assert!((wcg.first_ts - min_ts).abs() < 1e-9);
    }

    // The incremental builder must be indistinguishable from a from-scratch
    // build at *every prefix* of an arbitrary stream. Random timestamps make
    // out-of-order arrivals (and hence the rebuild path) common, and the
    // "origin.example" host exercises origin-contact rebuilds.
    #[test]
    fn incremental_builder_matches_from_scratch_at_every_prefix(
        txs in vec(arb_transaction(), 0..25)
    ) {
        let mut builder = WcgBuilder::new();
        for i in 0..txs.len() {
            if builder.push(&txs[i]) == PushOutcome::NeedsRebuild {
                builder.rebuild(&txs[..=i]);
            }
            let fresh = Wcg::from_transactions(&txs[..=i]);
            prop_assert_eq!(
                serde_json::to_string(builder.wcg()).unwrap(),
                serde_json::to_string(&fresh).unwrap(),
                "incremental state diverged at prefix {}", i + 1
            );
        }
    }

    // The detector's extraction path (one reused extractor, whose shape
    // memo serves the topology features of every prefix whose shape it
    // has seen, over the incrementally built WCG) must be bit-identical
    // to a fresh 37-feature extraction over a from-scratch WCG, for every
    // prefix.
    #[test]
    fn memoized_features_match_fresh_extraction_bit_for_bit(
        txs in vec(arb_transaction(), 1..20)
    ) {
        let mut builder = WcgBuilder::new();
        let mut extractor = FeatureExtractor::new();
        for i in 0..txs.len() {
            if builder.push(&txs[i]) == PushOutcome::NeedsRebuild {
                builder.rebuild(&txs[..=i]);
            }
            let memo = extractor.extract(builder.wcg());
            let fresh = features::extract(&Wcg::from_transactions(&txs[..=i]));
            for (j, (a, b)) in memo.values().iter().zip(fresh.values()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "feature {} diverged at prefix {}: memoized {} fresh {}",
                    features::NAMES[j], i + 1, a, b
                );
            }
        }
    }
}
