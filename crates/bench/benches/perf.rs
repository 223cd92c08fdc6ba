//! Criterion performance benches for the DynaMiner pipeline: pcap
//! parsing, WCG construction, feature extraction (incl. the expensive
//! graph analytics), forest training/prediction, and end-to-end detector
//! throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::{DetectorConfig, OnTheWireDetector};
use dynaminer::features::{self, FeatureExtractor};
use dynaminer::wcg::{EdgeAttr, EdgeKind, NodeAttr, NodeKind, Stage, Wcg};
use mlearn::forest::{ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::pcapgen;
use synthtraffic::{BenignScenario, EkFamily};
use wcgraph::algo::{centrality, connectivity, pagerank, AlgoScratch};
use wcgraph::{DiGraph, GraphView};

fn sample_episodes() -> Vec<synthtraffic::Episode> {
    let mut rng = StdRng::seed_from_u64(77);
    let mut eps = Vec::new();
    for i in 0..12 {
        eps.push(generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9));
        eps.push(generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9));
    }
    eps
}

fn random_graph(n: usize, e: usize) -> DiGraph<(), ()> {
    let mut rng = StdRng::seed_from_u64(5);
    let mut g = DiGraph::new();
    let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
    use rand::Rng;
    for _ in 0..e {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        g.add_edge(ids[a], ids[b], ());
    }
    g
}

/// A WCG whose graph has `g`'s nodes and edges and nothing else, so the
/// graph kernels can be timed through `FeatureExtractor::extract`.
fn wcg_over(g: &DiGraph<(), ()>) -> Wcg {
    let mut wcg = Wcg::from_transactions(&[]);
    for v in g.node_ids() {
        wcg.graph.add_node(NodeAttr {
            name: format!("h{}", v.0),
            kind: NodeKind::Remote,
            ip: None,
            uris: Default::default(),
            payload_summary: Default::default(),
        });
    }
    for (_, src, dst, _) in g.edges() {
        let attr = EdgeAttr {
            kind: EdgeKind::Redirect,
            stage: Stage::PreDownload,
            ts: 0.0,
            method: None,
            uri_len: 0,
            status: 0,
            payload_class: None,
            payload_size: 0,
        };
        wcg.graph.add_edge(src, dst, attr);
    }
    wcg
}

fn bench_pcap(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let ep = generate_infection(&mut rng, EkFamily::Nuclear, 1.4e9);
    let pcap = pcapgen::episodes_pcap(&[ep]);
    let mut group = c.benchmark_group("pcap");
    group.throughput(Throughput::Bytes(pcap.len() as u64));
    group.bench_function("parse_and_extract_transactions", |b| {
        b.iter(|| nettrace::SpanPipeline::extract_capture_strict(&pcap).unwrap().len())
    });
    group.finish();
}

fn bench_wcg(c: &mut Criterion) {
    let episodes = sample_episodes();
    let mut group = c.benchmark_group("wcg");
    let total_txs: usize = episodes.iter().map(|e| e.transactions.len()).sum();
    group.throughput(Throughput::Elements(total_txs as u64));
    group.bench_function("construct_24_conversations", |b| {
        b.iter(|| {
            episodes
                .iter()
                .map(|e| Wcg::from_transactions(&e.transactions).graph.edge_count())
                .sum::<usize>()
        })
    });
    let wcgs: Vec<Wcg> =
        episodes.iter().map(|e| Wcg::from_transactions(&e.transactions)).collect();
    group.bench_function("extract_features_24_wcgs", |b| {
        b.iter(|| {
            wcgs.iter().map(|w| features::extract(w).values()[0]).sum::<f64>()
        })
    });
    group.finish();
}

fn bench_graph_algorithms(c: &mut Criterion) {
    let small = random_graph(10, 46); // paper's average infection WCG
    let large = random_graph(120, 600);
    let (small_view, large_view) = (GraphView::of(&small), GraphView::of(&large));
    let mut scratch = AlgoScratch::new();
    let mut group = c.benchmark_group("graph_algorithms");
    // The kernels over a loaded view and a reused scratch. The Brandes
    // sweep also yields f12/f17/f24, so it has no diameter entry of its
    // own.
    group.bench_function("betweenness_avg_wcg", |b| {
        b.iter(|| centrality::betweenness_and_load_means_scratch(&small_view, &mut scratch))
    });
    group.bench_function("betweenness_120n", |b| {
        b.iter(|| centrality::betweenness_and_load_means_scratch(&large_view, &mut scratch))
    });
    group.bench_function("node_connectivity_avg_wcg", |b| {
        b.iter(|| connectivity::average_node_connectivity_view_scratch(&small_view, &mut scratch))
    });
    group.bench_function("node_connectivity_120n_sampled", |b| {
        b.iter(|| connectivity::average_node_connectivity_view_scratch(&large_view, &mut scratch))
    });
    // The pass as the detector pays for it: view load plus all ten
    // topology features over a reused extractor.
    let mut extractor = FeatureExtractor::new();
    let (small_wcg, large_wcg) = (wcg_over(&small), wcg_over(&large));
    group.bench_function("topo_features_avg_wcg", |b| {
        b.iter(|| extractor.extract(&small_wcg).values()[19])
    });
    group.bench_function("topo_features_120n", |b| {
        b.iter(|| extractor.extract(&large_wcg).values()[19])
    });
    let (d, t, i) = (pagerank::DEFAULT_DAMPING, pagerank::DEFAULT_TOL, pagerank::DEFAULT_MAX_ITER);
    group.bench_function("pagerank_120n", |b| {
        b.iter(|| pagerank::pagerank_mean_scratch(&large_view, d, t, i, &mut scratch))
    });
    group.finish();
}

fn bench_forest(c: &mut Criterion) {
    let episodes = sample_episodes();
    let data = build_dataset(
        episodes.iter().map(|e| (e.transactions.as_slice(), e.is_infection())),
    );
    let mut group = c.benchmark_group("forest");
    let config = ForestConfig::default();
    group.bench_function("train_erf_20_trees", |b| {
        b.iter(|| RandomForest::fit(&data, &config, 1, 1, None).n_trees())
    });
    group.bench_function("train_erf_20_trees_parallel", |b| {
        b.iter(|| RandomForest::fit(&data, &config, 1, 0, None).n_trees())
    });
    let forest = RandomForest::fit(&data, &config, 1, 0, None);
    group.throughput(Throughput::Elements(data.len() as u64));
    // The entry name is cited elsewhere, so it stays: `predict_proba`
    // times the per-row kernel, `score`.
    group.bench_function("predict_proba", |b| {
        b.iter(|| (0..data.len()).map(|i| forest.score(data.row(i), 1)).sum::<f64>())
    });
    group.finish();
}

fn bench_flate(c: &mut Criterion) {
    // One entry per decode kernel, each over 64 KiB of output: a stored
    // block (copy + CRC, no Huffman decode), fixed-code literals (the
    // table lookup alone), what zlib -6 makes of an HTML page (dynamic
    // tables, matches), and the checksum by itself.
    let page = nettrace::flate::deflate_decompress(include_bytes!(
        "../../../tests/golden/flate/html_l6.zlib"
    ))
    .unwrap();
    assert_eq!(page.len(), 64 * 1024);
    let gzip_around = |deflate: Vec<u8>| {
        let mut gz = vec![0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff];
        gz.extend(deflate);
        gz.extend(nettrace::flate::crc32(&page).to_le_bytes());
        gz.extend((page.len() as u32).to_le_bytes());
        gz
    };
    let stored = nettrace::flate::gzip_compress(&page);
    let fixed = gzip_around(nettrace::flate::deflate_fixed_literals(&page));
    let dynamic: &[u8] = include_bytes!("../../../tests/golden/flate/html_l9_hdr.gz");
    let mut group = c.benchmark_group("flate");
    group.throughput(Throughput::Bytes(page.len() as u64));
    for (name, gz) in
        [("stored_64k", &stored[..]), ("fixed_literals_64k", &fixed[..]), ("dynamic_matches_64k", dynamic)]
    {
        assert_eq!(nettrace::flate::gzip_decompress(gz).unwrap(), page);
        group.bench_function(name, |b| {
            b.iter(|| nettrace::flate::gzip_decompress(gz).unwrap().len())
        });
    }
    group.bench_function("crc32_64k", |b| b.iter(|| nettrace::flate::crc32(&page)));
    group.finish();
}

fn bench_detector(c: &mut Criterion) {
    let episodes = sample_episodes();
    let data = build_dataset(
        episodes.iter().map(|e| (e.transactions.as_slice(), e.is_infection())),
    );
    let classifier = Classifier::fit_default(&data, 3);
    let mut rng = StdRng::seed_from_u64(11);
    let mut stream: Vec<nettrace::HttpTransaction> = Vec::new();
    for i in 0..6 {
        stream.extend(
            generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9).transactions,
        );
        stream.extend(generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.43e9).transactions);
    }
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    let mut group = c.benchmark_group("detector");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("on_the_wire_stream", |b| {
        b.iter_batched(
            || OnTheWireDetector::new(classifier.clone(), DetectorConfig::default()),
            |mut det| {
                for tx in &stream {
                    det.observe(tx);
                }
                det.alerts().len()
            },
            BatchSize::SmallInput,
        )
    });
    // The final verdict pass over the detector a replay leaves behind:
    // a watched conversation scored from the WCG it holds, any other
    // from one built in the sweep, on one thread, with alerting off so
    // watched conversations keep their full length.
    // A sweep changes nothing in the detector, so iterations repeat it
    // over the same state.
    let config = DetectorConfig { alert_threshold: 1.1, ..DetectorConfig::default() };
    let mut swept = OnTheWireDetector::new(classifier.clone(), config);
    for tx in &stream {
        swept.observe(tx);
    }
    group.throughput(Throughput::Elements(swept.tracker().conversation_count() as u64));
    group.bench_function("final_verdicts", |b| b.iter(|| swept.final_verdicts(1).len()));
    group.finish();
}

criterion_group! {
    name = benches;
    // Keep the full `cargo bench --workspace` run in the minutes range:
    // the heaviest case (sampled all-pairs node connectivity at 120
    // nodes) runs ~300 ms per iteration.
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_pcap, bench_wcg, bench_graph_algorithms, bench_forest, bench_flate, bench_detector
}
criterion_main!(benches);
