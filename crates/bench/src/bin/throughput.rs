//! `throughput` — the perf-trajectory benchmark suite.
//!
//! Measures the pipeline's production hot paths with the criterion shim
//! and persists the numbers to `BENCH_throughput.json` (at the current
//! working directory — run from the repo root):
//!
//! * pcap ingest (parse + transaction extraction), MB/s,
//! * WCG construction from conversations, conversations/s,
//! * 37-feature extraction, WCGs/s,
//! * end-to-end live-detector replay, transactions/s,
//! * sharded replay through the `streamd` engine at 1 and 4 shards,
//!   transactions/s — with the speedups over the single-threaded replay
//!   recorded explicitly (the 1-shard ratio isolates the queue-handoff
//!   cost and must stay ≥ 0.95; the 4-shard ratio scales with cores),
//! * a scaling-curve section: one measured engine pass per shard count
//!   with wall-clock *and* per-shard CPU time (`CLOCK_THREAD_CPUTIME_ID`,
//!   surfaced by `EngineReport`), so core-starved hosts still show
//!   whether the work itself was partitioned without duplication,
//! * steady-state allocation counts for `extract_37_features` via the
//!   counting global allocator (`bench::alloc_count`) — pinned at 0,
//! * forest training, sequential and parallel, fits/s — wall-clock plus
//!   process-CPU time per fit, with `parallel_fit_speedup` derived from
//!   CPU time (projected speedup on `threads` unconstrained cores), which
//!   stays meaningful on a single-core container where the wall-clock
//!   ratio is pinned at ~1.0 by time-slicing,
//! * forest prediction, per-row and batched, rows/s — with the batched
//!   speedup recorded explicitly.
//!
//! Usage: `throughput [--baseline <report.json>]` — with a baseline, the
//! run additionally prints per-entry rate deltas against the older report
//! and writes the comparison to `BENCH_compare.json`.
//!
//! Environment:
//!
//! * `DYNAMINER_BENCH_QUICK=1` — reduced warm-up/measurement budget for
//!   CI smoke runs (numbers are noisier but the harness still proves the
//!   paths run and the artifact schema holds).
//! * `DYNAMINER_BENCH_OUT` — output path (default `BENCH_throughput.json`).
//! * `DYNAMINER_BENCH_COMPARE_OUT` — baseline-comparison output path
//!   (default `BENCH_compare.json`; only written with `--baseline`).
//! * `DYNAMINER_THREADS` — worker threads for the parallel measurements
//!   (default: available parallelism).

use std::time::{Duration, Instant};

use criterion::{Criterion, Throughput};
use dynaminer::classifier::{build_dataset, build_dataset_parallel, Classifier};
use dynaminer::detector::{DetectorConfig, OnTheWireDetector};
use dynaminer::features;
use dynaminer::wcg::Wcg;
use mlearn::forest::{ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use streamd::{StreamConfig, StreamEngine};
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::pcapgen;
use synthtraffic::wire::{drive_episodes, merged_wire_transactions, wire_episode_set, OriginServer};
use synthtraffic::{BenignScenario, EkFamily};

/// Every allocation in this binary goes through the counting wrapper, so
/// the steady-state allocation entries are measured, not asserted.
#[global_allocator]
static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;

/// The total measurement budget per entry is floored at this regardless
/// of the configured mode, so numbers aren't dominated by timer
/// resolution and scheduler jitter on fast entries.
const MIN_MEASUREMENT_TIME: Duration = Duration::from_millis(250);
/// Warm-up must complete at least this many iterations, so entries whose
/// single iteration exceeds the warm-up *time* budget still measure
/// against warmed caches.
const MIN_WARMUP_ITERS: usize = 2;

#[derive(Debug, Serialize, Deserialize)]
struct BenchEntry {
    /// Stable benchmark identifier.
    name: String,
    /// Median wall-clock time per iteration, nanoseconds.
    per_iter_ns: f64,
    /// Derived rate in `unit`.
    rate: f64,
    /// Unit of `rate`.
    unit: String,
}

/// One shard count of the scaling curve: a single measured engine pass
/// with wall-clock and kernel CPU-time accounting. Wall-clock speedups
/// on a core-starved or shared host say nothing; the CPU columns show
/// whether the work was actually partitioned without duplication
/// (`sum(per_shard_cpu_ns)` should track the single-threaded replay's
/// thread CPU regardless of how many cores the host grants).
#[derive(Debug, Serialize)]
struct ScalingPoint {
    shards: usize,
    /// Wall-clock for the pass, nanoseconds.
    wall_ns: u64,
    /// Transactions per wall-clock second for this pass.
    txns_per_sec: f64,
    /// CPU time each shard worker burned (`CLOCK_THREAD_CPUTIME_ID`).
    per_shard_cpu_ns: Vec<u64>,
    /// CPU time the feeder thread burned partitioning and pushing.
    feeder_cpu_ns: u64,
    /// `sum(per_shard_cpu_ns) + feeder_cpu_ns`.
    cpu_total_ns: u64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: String,
    quick: bool,
    threads: usize,
    entries: Vec<BenchEntry>,
    /// Batched predict throughput over per-row predict throughput —
    /// the headline win of allocation-free batched scoring.
    batched_predict_speedup: f64,
    /// Parallel-fit speedup **derived from CPU time**: the projected
    /// throughput gain on `threads` unconstrained cores,
    /// `threads × cpu_seq / cpu_par`. Unlike the wall-clock ratio (kept
    /// in `parallel_fit_wall_speedup`), this stays meaningful on a
    /// single-core container where time-slicing pins wall-clock at
    /// ~1.0×: it degrades only with genuine parallel overhead
    /// (duplicated or coordination work), not with core starvation.
    /// Falls back to the wall ratio when the CPU clock is unreadable.
    parallel_fit_speedup: f64,
    /// Raw wall-clock ratio of parallel over sequential fit. ~1.0 on a
    /// single-core host by construction.
    parallel_fit_wall_speedup: f64,
    /// Process-CPU nanoseconds for one sequential fit.
    fit_cpu_ns_1_thread: u64,
    /// Process-CPU nanoseconds for one parallel fit (all workers).
    fit_cpu_ns_parallel: u64,
    /// Fractional slowdown of lenient ingest when per-capture telemetry
    /// recording is folded in (0.01 = 1% slower; negative = noise).
    /// Target: under 0.03.
    telemetry_overhead_ingest: f64,
    /// 4-shard `streamd` engine replay throughput over the
    /// single-threaded live replay. Scales with cores; on a single-core
    /// host the shard workers time-slice one core, so the ratio only
    /// exposes the queue-handoff overhead and sits at or below 1.0.
    sharded_replay_speedup: f64,
    /// 1-shard engine replay over the single-threaded live replay: the
    /// pure cost of the ring-buffer handoff with zero parallelism to
    /// hide it. Target: ≥ 0.95.
    sharded_replay_speedup_1shard: f64,
    /// Thread-CPU nanoseconds of one single-threaded live replay — the
    /// reference the scaling curve's per-shard CPU sums compare against.
    single_thread_replay_cpu_ns: u64,
    /// One measured engine pass per shard count (see [`ScalingPoint`]).
    scaling: Vec<ScalingPoint>,
    /// Steady-state heap acquisitions per `extract_37_features` call
    /// with a reused `FeatureExtractor`. Target: exactly 0.
    allocs_per_extraction_steady: f64,
}

/// The subset of a bench report `--baseline` comparison needs. Only
/// `entries` is extracted, so baselines written by older revisions (with
/// fewer top-level fields) still parse.
#[derive(Debug, Deserialize)]
struct BaselineReport {
    entries: Vec<BenchEntry>,
}

#[derive(Debug, Serialize)]
struct CompareEntry {
    name: String,
    baseline_rate: f64,
    current_rate: f64,
    /// Rate change in percent (+10 = 10% faster than baseline).
    rate_delta_pct: f64,
    unit: String,
}

#[derive(Debug, Serialize)]
struct CompareReport {
    schema: String,
    baseline_path: String,
    entries: Vec<CompareEntry>,
    /// Entries present only in the current run.
    new_entries: Vec<String>,
    /// Entries present only in the baseline.
    removed_entries: Vec<String>,
}

/// One pass of the span pipeline's per-packet stage (capture walk →
/// spans → TCP decode → span reassembly → stream gather) against
/// caller-owned reusable buffers. Returns the packet count. The
/// steady-state allocation entry runs this repeatedly; everything it
/// touches must reuse capacity after the first pass.
fn span_packet_stage(
    capture: &[u8],
    spans: &mut Vec<nettrace::arena::PacketSpan>,
    reassembler: &mut nettrace::reassembly::SpanReassembler,
    streams: &mut nettrace::reassembly::StreamBuf,
    gaps: &mut u64,
) -> usize {
    use nettrace::ether::{EtherFrame, ETHERTYPE_IPV4};
    use nettrace::ipv4::{Ipv4Packet, PROTO_TCP};
    use nettrace::reassembly::{Endpoint, FlowKey};
    use nettrace::tcp::TcpSegment;
    let mut report = nettrace::IngestReport::new();
    spans.clear();
    nettrace::capture::read_packet_spans_lenient(capture, &mut report, spans);
    for span in spans.iter() {
        let data = &capture[span.range.clone()];
        let Ok(eth) = EtherFrame::parse(data) else { continue };
        if eth.ethertype != ETHERTYPE_IPV4 {
            continue;
        }
        let Ok(ip) = Ipv4Packet::parse(eth.payload) else { continue };
        if ip.protocol != PROTO_TCP {
            continue;
        }
        let Ok(tcp) = TcpSegment::parse(ip.payload) else { continue };
        let key = FlowKey::new(
            Endpoint::new(ip.src, tcp.src_port),
            Endpoint::new(ip.dst, tcp.dst_port),
        );
        reassembler.push_span(span.ts, key, &tcp, nettrace::arena::subslice_range(capture, tcp.payload));
    }
    reassembler.gather_streams(capture, gaps, streams);
    spans.len()
}

fn entry(name: &str, per_iter: Duration, work: f64, unit: &str) -> BenchEntry {
    let secs = per_iter.as_secs_f64();
    BenchEntry {
        name: name.to_string(),
        per_iter_ns: secs * 1e9,
        rate: if secs > 0.0 { work / secs } else { 0.0 },
        unit: unit.to_string(),
    }
}

fn main() {
    let quick = std::env::var("DYNAMINER_BENCH_QUICK").is_ok_and(|v| v == "1");
    let threads = std::env::var("DYNAMINER_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or_else(mlearn::parallel::default_threads, mlearn::parallel::resolve_threads);
    let out_path = std::env::var("DYNAMINER_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_throughput.json".to_string());
    let baseline_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter().position(|a| a == "--baseline").map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--baseline requires a file path"))
                .clone()
        })
    };

    let measurement = if quick { Duration::from_millis(300) } else { Duration::from_secs(2) };
    let mut c = Criterion::default()
        .sample_size(if quick { 3 } else { 10 })
        .measurement_time(measurement.max(MIN_MEASUREMENT_TIME))
        .warm_up_time(if quick {
            Duration::from_millis(100)
        } else {
            Duration::from_millis(500)
        })
        .warm_up_iterations(MIN_WARMUP_ITERS);
    println!(
        "throughput bench: quick={quick} threads={threads} → {out_path}"
    );

    // Shared fixtures: a mixed corpus and one infection pcap.
    let mut rng = StdRng::seed_from_u64(77);
    let mut episodes = Vec::new();
    let pairs = if quick { 6 } else { 24 };
    for i in 0..pairs {
        episodes.push(generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9));
        episodes.push(generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9));
    }
    let pcap = {
        let mut prng = StdRng::seed_from_u64(3);
        let ep = generate_infection(&mut prng, EkFamily::Nuclear, 1.4e9);
        pcapgen::episode_pcap(&ep).unwrap()
    };
    let conversations: Vec<&[nettrace::HttpTransaction]> =
        episodes.iter().map(|e| e.transactions.as_slice()).collect();
    let labelled: Vec<(&[nettrace::HttpTransaction], bool)> =
        episodes.iter().map(|e| (e.transactions.as_slice(), e.is_infection())).collect();
    let wcgs: Vec<Wcg> = conversations.iter().map(|txs| Wcg::from_transactions(txs)).collect();

    let mut entries = Vec::new();

    // 1. pcap ingest under the strict policy: parse + transaction
    // extraction with a fresh pipeline per capture, MB/s.
    let mut group = c.benchmark_group("ingest");
    group.throughput(Throughput::Bytes(pcap.len() as u64));
    let t = group.bench_function("pcap_parse_and_extract", |b| {
        b.iter(|| nettrace::SpanPipeline::extract_capture_strict(&pcap).unwrap().len())
    });
    entries.push(entry("ingest/pcap_parse_and_extract", t, pcap.len() as f64 / 1e6, "MB/s"));

    // 1b. Lenient ingest with and without telemetry recording: the
    // delta bounds what per-capture metrics cost on the hot path. The
    // pipeline's buffers are reused across iterations as a long-lived
    // service would.
    let mut pipeline = nettrace::SpanPipeline::new();
    let t_lenient = group.bench_function("pcap_lenient", |b| {
        b.iter(|| {
            let mut report = nettrace::IngestReport::new();
            pipeline.extract_lenient(&pcap, &mut report).len()
        })
    });
    entries.push(entry("ingest/pcap_lenient", t_lenient, pcap.len() as f64 / 1e6, "MB/s"));
    let registry = telemetry::Registry::new();
    let ingest_metrics = nettrace::metrics::IngestMetrics::new(&registry);
    let t_lenient_telemetry = group.bench_function("pcap_lenient_telemetry", |b| {
        b.iter(|| {
            let mut report = nettrace::IngestReport::new();
            let n = pipeline.extract_lenient(&pcap, &mut report).len();
            ingest_metrics.record(&report);
            n
        })
    });
    group.finish();
    entries.push(entry(
        "ingest/pcap_lenient_telemetry",
        t_lenient_telemetry,
        pcap.len() as f64 / 1e6,
        "MB/s",
    ));

    // 1c. Steady-state allocations per packet of the span ingest stage:
    // capture walk → packet spans → span reassembly → stream gather,
    // with every buffer reused across passes. This is the per-*packet*
    // portion of the pipeline; downstream transaction materialization
    // (header/URI strings, previews) is owned-API boundary work that
    // scales per transaction, not per packet, and is excluded. After the
    // first warm-up pass the stage must run allocation-free. Counted by
    // the registered counting allocator, so the 0 is measured.
    let packets_steady_allocs = {
        let mut spans = Vec::new();
        let mut reassembler = nettrace::reassembly::SpanReassembler::new();
        let mut streams = nettrace::reassembly::StreamBuf::new();
        let mut gaps = 0u64;
        // Two warm-up passes: the first grows buffers to the capture's
        // high-water mark, the second lets pool free-lists settle.
        let n_packets =
            span_packet_stage(&pcap, &mut spans, &mut reassembler, &mut streams, &mut gaps);
        span_packet_stage(&pcap, &mut spans, &mut reassembler, &mut streams, &mut gaps);
        const PASSES: usize = 5;
        let before = bench::alloc_count::allocations();
        for _ in 0..PASSES {
            std::hint::black_box(span_packet_stage(
                &pcap,
                &mut spans,
                &mut reassembler,
                &mut streams,
                &mut gaps,
            ));
        }
        let delta = bench::alloc_count::allocations() - before;
        delta as f64 / (PASSES * n_packets.max(1)) as f64
    };
    entries.push(BenchEntry {
        name: "ingest/packets_steady_allocs".to_string(),
        per_iter_ns: 0.0,
        rate: packets_steady_allocs,
        unit: "allocs/packet".to_string(),
    });
    println!("steady-state allocations per packet (span ingest stage): {packets_steady_allocs}");

    // 2. WCG construction.
    let mut group = c.benchmark_group("wcg");
    group.throughput(Throughput::Elements(conversations.len() as u64));
    let t = group.bench_function("construct", |b| {
        b.iter(|| {
            conversations
                .iter()
                .map(|txs| Wcg::from_transactions(txs).graph.edge_count())
                .sum::<usize>()
        })
    });
    entries.push(entry("wcg/construct", t, conversations.len() as f64, "conversations/s"));

    // 3. 37-feature extraction (graph analytics dominate).
    let t = group.bench_function("extract_37_features", |b| {
        b.iter(|| wcgs.iter().map(|w| features::extract(w).values()[0]).sum::<f64>())
    });
    group.finish();
    entries.push(entry("wcg/extract_37_features", t, wcgs.len() as f64, "WCGs/s"));

    // 3b. End-to-end live detection: replay a merged multi-episode
    // stream through the detector with alerting disabled (threshold
    // above 1), so watched conversations keep growing and every
    // transaction exercises the classify path (per-conversation WCG
    // builders with memoized topology features).
    let live_clf = {
        let live_data = build_dataset(labelled.iter().copied());
        Classifier::fit_default(&live_data, 7)
    };
    let stream = {
        let mut stream: Vec<nettrace::HttpTransaction> =
            episodes.iter().flat_map(|e| e.transactions.iter().cloned()).collect();
        stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        stream
    };
    let mut group = c.benchmark_group("detector");
    group.throughput(Throughput::Elements(stream.len() as u64));
    let replayed = || {
        let config = DetectorConfig { alert_threshold: 1.1, ..DetectorConfig::default() };
        let mut det = OnTheWireDetector::new(live_clf.clone(), config);
        for tx in &stream {
            det.observe(tx);
        }
        det
    };
    let replay = || replayed().classification_count();
    let t_live = group.bench_function("replay_live", |b| b.iter(replay));
    entries.push(entry("detector/replay_live", t_live, stream.len() as f64, "transactions/s"));

    // 3b2. The final verdict pass over the detector that replay leaves
    // behind: every conversation scored from the WCG it holds, on one
    // thread. A sweep changes nothing in the detector, so iterations
    // repeat it over the same state.
    let mut swept = replayed();
    let swept_conversations = swept.tracker().conversation_count();
    let t_sweep =
        group.bench_function("final_verdicts", |b| b.iter(|| swept.final_verdicts(1).len()));
    entries.push(entry(
        "detector/final_verdicts",
        t_sweep,
        swept_conversations as f64,
        "conversations/s",
    ));

    // 3c. Sharded replay: the same stream through a 4-shard
    // `streamd::StreamEngine` (one detector per shard, hash-partitioned
    // by client, blocking backpressure). Numbered with `assign_seq`
    // because the engine merges alerts in (ts, ingest seq) order. A
    // fresh engine per iteration, mirroring the fresh detector above.
    let shard_stream = {
        let mut s = stream.clone();
        nettrace::assign_seq(&mut s);
        s
    };
    const BENCH_SHARDS: usize = 4;
    let sharded_replay = |shards: usize| {
        let config = DetectorConfig { alert_threshold: 1.1, ..DetectorConfig::default() };
        let mut engine = StreamEngine::new(
            live_clf.clone(),
            config,
            StreamConfig { shards, ..StreamConfig::default() },
        );
        engine.process(shard_stream.iter().cloned())
    };
    let t_sharded = group.bench_function("replay_sharded", |b| {
        b.iter(|| sharded_replay(BENCH_SHARDS).processed)
    });
    entries.push(entry(
        "detector/replay_sharded",
        t_sharded,
        shard_stream.len() as f64,
        "transactions/s",
    ));
    // 1 shard: one worker, zero parallelism — the ratio against
    // `replay_live` is the pure ring-buffer handoff cost and the
    // acceptance bar for the SPSC queue (≥ 0.95).
    let t_sharded_1 = group.bench_function("replay_sharded_1", |b| {
        b.iter(|| sharded_replay(1).processed)
    });
    entries.push(entry(
        "detector/replay_sharded_1",
        t_sharded_1,
        shard_stream.len() as f64,
        "transactions/s",
    ));

    // 3d. Durable-tier snapshot round trip: serialize a loaded engine's
    // full state (DESIGN.md §13), parse it back, and restore it into a
    // fresh engine — the complete crash/restart path minus the disk.
    let loaded = {
        let config = DetectorConfig { alert_threshold: 1.1, ..DetectorConfig::default() };
        let mut engine = StreamEngine::new(
            live_clf.clone(),
            config,
            StreamConfig { shards: BENCH_SHARDS, ..StreamConfig::default() },
        );
        engine.process(shard_stream.iter().cloned());
        engine
    };
    let snapshot_bytes = loaded.snapshot().to_bytes().unwrap().len();
    let t_snapshot = group.bench_function("snapshot_roundtrip", |b| {
        b.iter(|| {
            let bytes = loaded.snapshot().to_bytes().unwrap();
            let snap = streamd::EngineSnapshot::from_bytes(&bytes).unwrap();
            let config = DetectorConfig { alert_threshold: 1.1, ..DetectorConfig::default() };
            let restored = StreamEngine::restore(
                live_clf.clone(),
                config,
                StreamConfig { shards: BENCH_SHARDS, ..StreamConfig::default() },
                &telemetry::Registry::new(),
                snap,
            );
            restored.fed()
        })
    });
    group.finish();
    entries.push(entry(
        "detector/snapshot_roundtrip",
        t_snapshot,
        snapshot_bytes as f64 / 1e6,
        "MB/s",
    ));

    // 3e. Scaling curve: one measured engine pass per shard count, with
    // per-shard CPU time from the engine's own `CLOCK_THREAD_CPUTIME_ID`
    // accounting. The single-threaded replay's thread CPU is measured
    // first as the reference: on any host, honest partitioning means
    // `sum(per_shard_cpu_ns)` stays close to that reference while
    // wall-clock shrinks with the cores actually granted.
    let single_thread_replay_cpu_ns = {
        let cpu0 = telemetry::thread_cpu_ns();
        std::hint::black_box(replay());
        telemetry::thread_cpu_ns().saturating_sub(cpu0)
    };
    let scaling: Vec<ScalingPoint> = [1usize, 2, 4]
        .iter()
        .map(|&shards| {
            let wall0 = Instant::now();
            let report = sharded_replay(shards);
            let wall = wall0.elapsed();
            let wall_ns = wall.as_nanos() as u64;
            let cpu_total_ns =
                report.per_shard_cpu_ns.iter().sum::<u64>() + report.feeder_cpu_ns;
            ScalingPoint {
                shards,
                wall_ns,
                txns_per_sec: if wall_ns > 0 {
                    shard_stream.len() as f64 / wall.as_secs_f64()
                } else {
                    0.0
                },
                per_shard_cpu_ns: report.per_shard_cpu_ns,
                feeder_cpu_ns: report.feeder_cpu_ns,
                cpu_total_ns,
            }
        })
        .collect();
    for p in &scaling {
        println!(
            "scaling: shards={} wall={:.1}ms cpu_total={:.1}ms (shards {:?}, feeder {:.1}ms)",
            p.shards,
            p.wall_ns as f64 / 1e6,
            p.cpu_total_ns as f64 / 1e6,
            p.per_shard_cpu_ns.iter().map(|&c| (c as f64 / 1e6 * 10.0).round() / 10.0).collect::<Vec<_>>(),
            p.feeder_cpu_ns as f64 / 1e6,
        );
    }

    // 3f. Steady-state allocations of the 37-feature extraction with a
    // reused `FeatureExtractor`: the first pass grows the CSR view and
    // traversal scratch to the largest conversation, then every further
    // pass must acquire no heap at all. Counted by the registered
    // counting allocator, so the 0 is measured, not asserted.
    let allocs_per_extraction_steady = {
        let mut extractor = features::FeatureExtractor::new();
        for w in &wcgs {
            std::hint::black_box(extractor.extract(w).values()[0]);
        }
        const PASSES: usize = 5;
        let before = bench::alloc_count::allocations();
        for _ in 0..PASSES {
            for w in &wcgs {
                std::hint::black_box(extractor.extract(w).values()[0]);
            }
        }
        let delta = bench::alloc_count::allocations() - before;
        delta as f64 / (PASSES * wcgs.len()) as f64
    };
    entries.push(BenchEntry {
        name: "wcg/extract_37_features_steady_allocs".to_string(),
        per_iter_ns: 0.0,
        rate: allocs_per_extraction_steady,
        unit: "allocs/extraction".to_string(),
    });
    println!("steady-state allocations per extraction: {allocs_per_extraction_steady}");

    // 3g. Real-wire ingress: episodes driven as real loopback client
    // connections through the inline forward proxy (PROXY protocol +
    // replay-timestamp parity config), measured socket-to-transaction.
    // Each iteration binds a fresh proxy against a persistent replay
    // origin, drives every transaction sequentially, and pumps until
    // the tap has synthesized them all.
    {
        use nettrace::source::TrafficSource;
        let wire_episodes = wire_episode_set(5, 1, 1);
        let wire_txs = merged_wire_transactions(&wire_episodes);
        let origin = OriginServer::start(&wire_txs).expect("start replay origin");
        let mut group = c.benchmark_group("wirefront");
        let t = group.bench_function("proxy_loopback", |b| {
            b.iter(|| {
                let mut config = wirefront::ProxyConfig::new(origin.addr());
                config.proxy_protocol = true;
                config.tap.honor_replay_ts = true;
                let mut source = wirefront::ProxySource::bind(
                    "127.0.0.1:0".parse().unwrap(),
                    config,
                )
                .expect("bind proxy");
                let addr = source.local_addr();
                // Pump until the driver has seen every connection
                // close AND the tap has synthesized every transaction
                // — the final close is relayed by a pump, so stopping
                // at the transaction count alone would strand the last
                // client in its read.
                let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
                let driver = {
                    let txs = wire_txs.clone();
                    let done = done.clone();
                    std::thread::spawn(move || {
                        let n = drive_episodes(addr, &txs, true).unwrap();
                        done.store(true, std::sync::atomic::Ordering::SeqCst);
                        n
                    })
                };
                let mut out = Vec::new();
                while !done.load(std::sync::atomic::Ordering::SeqCst)
                    || (source.stats().transactions as usize) < wire_txs.len()
                {
                    source.pump(&mut out).expect("pump");
                    source.wait(1);
                }
                driver.join().unwrap();
                source.shutdown(&mut out);
                out.len()
            })
        });
        group.finish();
        entries.push(entry("wirefront/proxy_loopback", t, wire_txs.len() as f64, "transactions/s"));
        origin.stop();
    }

    // 4. Corpus featurization, sequential vs pooled (dataset build).
    let mut group = c.benchmark_group("dataset");
    let t = group.bench_function("build_sequential", |b| {
        b.iter(|| build_dataset(labelled.iter().copied()).len())
    });
    entries.push(entry("dataset/build_sequential", t, labelled.len() as f64, "conversations/s"));
    let t = group.bench_function("build_parallel", |b| {
        b.iter(|| build_dataset_parallel(&labelled, threads).len())
    });
    group.finish();
    entries.push(entry("dataset/build_parallel", t, labelled.len() as f64, "conversations/s"));

    // 5. Forest fit, sequential vs parallel (bit-identical models).
    // Trained on a production-sized corpus — tree depth (and therefore
    // per-prediction traversal cost) scales with the training set, so a
    // toy corpus would make the predict numbers meaningless.
    let fit_pairs = if quick { 40 } else { 400 };
    let mut fit_rng = StdRng::seed_from_u64(99);
    let mut fit_episodes = Vec::new();
    for i in 0..fit_pairs {
        fit_episodes.push(generate_infection(&mut fit_rng, EkFamily::ALL[i % 10], 1.4e9));
        fit_episodes
            .push(generate_benign(&mut fit_rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9));
    }
    let fit_labelled: Vec<(&[nettrace::HttpTransaction], bool)> = fit_episodes
        .iter()
        .map(|e| (e.transactions.as_slice(), e.is_infection()))
        .collect();
    let data = build_dataset_parallel(&fit_labelled, threads);
    let config = ForestConfig::default();
    let mut group = c.benchmark_group("forest");
    let t_fit_seq = group.bench_function("fit_1_thread", |b| {
        b.iter(|| RandomForest::fit_threaded(&data, &config, 1, 1).n_trees())
    });
    entries.push(entry("forest/fit_1_thread", t_fit_seq, 1.0, "fits/s"));
    let t_fit_par = group.bench_function("fit_parallel", |b| {
        b.iter(|| RandomForest::fit_threaded(&data, &config, 1, threads).n_trees())
    });
    entries.push(entry("forest/fit_parallel", t_fit_par, 1.0, "fits/s"));
    // Process-CPU time per fit (one measured pass each): the total CPU
    // all workers burn. On a time-sliced single-core host the wall
    // ratio above is pinned at ~1.0 and says nothing; the CPU ratio
    // exposes genuine parallel overhead instead, and the projected
    // speedup `threads × cpu_seq / cpu_par` is what an unconstrained
    // `threads`-core host would see.
    let fit_cpu = |fit_threads: usize| {
        let cpu0 = telemetry::process_cpu_ns();
        std::hint::black_box(RandomForest::fit_threaded(&data, &config, 1, fit_threads).n_trees());
        telemetry::process_cpu_ns().saturating_sub(cpu0)
    };
    let fit_cpu_ns_1_thread = fit_cpu(1);
    let fit_cpu_ns_parallel = fit_cpu(threads);
    for (name, cpu_ns) in [
        ("forest/fit_1_thread_cpu", fit_cpu_ns_1_thread),
        ("forest/fit_parallel_cpu", fit_cpu_ns_parallel),
    ] {
        entries.push(BenchEntry {
            name: name.to_string(),
            per_iter_ns: cpu_ns as f64,
            rate: if cpu_ns > 0 { 1e9 / cpu_ns as f64 } else { 0.0 },
            unit: "fits/cpu-s".to_string(),
        });
    }

    // 6. Prediction: per-row vs batched (flat-accumulator) scoring. Score
    // many replicas of the corpus rows so the batch has production-like
    // depth.
    let reps = if quick { 20 } else { 12 };
    let rows: Vec<Vec<f64>> = (0..reps)
        .flat_map(|_| (0..data.len()).map(|i| data.row(i).to_vec()))
        .collect();
    let forest = RandomForest::fit(&data, &config, 1);
    group.throughput(Throughput::Elements(rows.len() as u64));
    let t_single = group.bench_function("predict_per_row", |b| {
        b.iter(|| rows.iter().map(|r| forest.score(r, 1)).sum::<f64>())
    });
    entries.push(entry("forest/predict_per_row", t_single, rows.len() as f64, "rows/s"));
    let t_batched = group.bench_function("predict_batched", |b| {
        b.iter(|| forest.score_batch(&rows, 1, 1).iter().sum::<f64>())
    });
    entries.push(entry("forest/predict_batched", t_batched, rows.len() as f64, "rows/s"));
    let t_batched_mt = group.bench_function("predict_batched_threaded", |b| {
        b.iter(|| forest.score_batch(&rows, 1, threads).iter().sum::<f64>())
    });
    group.finish();
    entries.push(entry(
        "forest/predict_batched_threaded",
        t_batched_mt,
        rows.len() as f64,
        "rows/s",
    ));

    let speedup = |fast: Duration, slow: Duration| {
        if fast > Duration::ZERO {
            slow.as_secs_f64() / fast.as_secs_f64()
        } else {
            0.0
        }
    };
    // Sharded speedups are derived from the recorded entries by name, so
    // a renamed or dropped entry degrades to an explicit 0.0 (with a
    // warning) instead of silently comparing the wrong measurements.
    let rate_of =
        |es: &[BenchEntry], name: &str| es.iter().find(|e| e.name == name).map(|e| e.rate);
    let entry_ratio = |es: &[BenchEntry], num: &str, den: &str| match (
        rate_of(es, num),
        rate_of(es, den),
    ) {
        (Some(n), Some(d)) if d > 0.0 => n / d,
        _ => {
            println!("warning: bench entry missing for {num} / {den}; recording ratio 0.0");
            0.0
        }
    };
    let sharded_replay_speedup =
        entry_ratio(&entries, "detector/replay_sharded", "detector/replay_live");
    let sharded_replay_speedup_1shard =
        entry_ratio(&entries, "detector/replay_sharded_1", "detector/replay_live");
    // With one core, the "parallel" fit resolves to the identical inline
    // code path as the sequential fit (run_indexed inlines at threads
    // <= 1), so any measured ratio is pure noise; report the identity.
    let parallel_fit_wall_speedup =
        if threads <= 1 { 1.0 } else { speedup(t_fit_par, t_fit_seq) };
    let parallel_fit_speedup = if threads <= 1 {
        1.0
    } else if fit_cpu_ns_1_thread > 0 && fit_cpu_ns_parallel > 0 {
        threads as f64 * fit_cpu_ns_1_thread as f64 / fit_cpu_ns_parallel as f64
    } else {
        // CPU clock unreadable on this platform: fall back to wall.
        parallel_fit_wall_speedup
    };
    let report = BenchReport {
        schema: "dynaminer-bench-throughput-v2".to_string(),
        quick,
        threads,
        entries,
        batched_predict_speedup: speedup(t_batched, t_single),
        parallel_fit_speedup,
        parallel_fit_wall_speedup,
        fit_cpu_ns_1_thread,
        fit_cpu_ns_parallel,
        telemetry_overhead_ingest: if t_lenient > Duration::ZERO {
            t_lenient_telemetry.as_secs_f64() / t_lenient.as_secs_f64() - 1.0
        } else {
            0.0
        },
        sharded_replay_speedup,
        sharded_replay_speedup_1shard,
        single_thread_replay_cpu_ns,
        scaling,
        allocs_per_extraction_steady,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write bench report");
    println!(
        "\nbatched predict speedup: {:.2}x over per-row; parallel fit speedup: {:.2}x \
         (CPU-projected on {} threads; wall ratio {:.2}x)",
        report.batched_predict_speedup,
        report.parallel_fit_speedup,
        report.threads,
        report.parallel_fit_wall_speedup
    );
    if threads <= 1 {
        println!("(single core: parallel fit is the same inline code path; speedup is 1.0 by identity)");
    }
    println!(
        "telemetry overhead on lenient ingest: {:+.2}%",
        report.telemetry_overhead_ingest * 100.0
    );
    println!(
        "sharded replay speedup: {:.2}x at 4 shards, {:.2}x at 1 shard (handoff cost only; \
         target ≥ 0.95) over single-threaded",
        report.sharded_replay_speedup, report.sharded_replay_speedup_1shard
    );
    if std::thread::available_parallelism().map_or(1, |n| n.get()) <= 1 {
        println!(
            "(single core: 4 shard workers time-slice one core, so the wall ratio only \
             measures queue-handoff overhead; the scaling section's CPU columns carry \
             the partitioning evidence)"
        );
    }
    println!("wrote {out_path}");

    if let Some(baseline_path) = baseline_path {
        compare_to_baseline(&report, &baseline_path);
    }
}

/// Prints per-entry rate deltas against an older report and writes the
/// comparison artifact for CI upload.
fn compare_to_baseline(report: &BenchReport, baseline_path: &str) {
    let raw = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline: BaselineReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("parse baseline {baseline_path}: {e}"));
    let compare_out = std::env::var("DYNAMINER_BENCH_COMPARE_OUT")
        .unwrap_or_else(|_| "BENCH_compare.json".to_string());

    println!("\ncomparison against {baseline_path}:");
    let mut entries = Vec::new();
    let mut new_entries = Vec::new();
    for e in &report.entries {
        match baseline.entries.iter().find(|b| b.name == e.name) {
            Some(b) => {
                // A zero baseline rate is legitimate for count-style
                // entries (e.g. steady-state allocations pinned at 0):
                // equal zeros diff to 0%, any regression from 0 shows as
                // +100%.
                let delta = if b.rate > 0.0 {
                    (e.rate / b.rate - 1.0) * 100.0
                } else if e.rate == 0.0 {
                    0.0
                } else {
                    100.0
                };
                println!(
                    "  {:<34} {:>12.0} → {:>12.0} {}  ({:+.1}%)",
                    e.name, b.rate, e.rate, e.unit, delta
                );
                entries.push(CompareEntry {
                    name: e.name.clone(),
                    baseline_rate: b.rate,
                    current_rate: e.rate,
                    rate_delta_pct: delta,
                    unit: e.unit.clone(),
                });
            }
            _ => {
                println!("  {:<34} {:>12} → {:>12.0} {}  (new)", e.name, "-", e.rate, e.unit);
                new_entries.push(e.name.clone());
            }
        }
    }
    let removed_entries: Vec<String> = baseline
        .entries
        .iter()
        .filter(|b| report.entries.iter().all(|e| e.name != b.name))
        .map(|b| b.name.clone())
        .collect();
    for name in &removed_entries {
        println!("  {name:<34} (removed)");
    }
    let comparison = CompareReport {
        schema: "dynaminer-bench-compare-v1".to_string(),
        baseline_path: baseline_path.to_string(),
        entries,
        new_entries,
        removed_entries,
    };
    let json = serde_json::to_string_pretty(&comparison).expect("comparison serializes");
    std::fs::write(&compare_out, json + "\n").expect("write comparison report");
    println!("wrote {compare_out}");
}
