//! Probes that cost out single layers from outside, by timing loops of
//! public calls over the workload's own data. Each loop is one span with
//! a boundary count; the per-item figure is its time over that count.

use dynaminer::detector::{OnTheWireDetector, SessionTracker};
use dynaminer::features::{FeatureExtractor, FeatureVector};
use dynaminer::wcg::{PushOutcome, WcgBuilder};
use dynaminer::DetectorConfig;
use nettrace::HttpTransaction;
use wcgraph::algo::centrality::betweenness_and_load_means_scratch;
use wcgraph::algo::AlgoScratch;
use wcgraph::GraphView;

use crate::check::Replay;
use crate::gen::Model;
use crate::metrics::Layers;
use crate::stats;
use crate::trace::Tracer;

/// Times a probe loop runs; the shortest is reported, because the host
/// slows code down for seconds at a time and never speeds it up.
const PROBE_REPEATS: usize = 3;

/// Runs `probe` over `count` items [`PROBE_REPEATS`] times, each in a
/// span of its own, and returns its last value with its shortest time.
pub fn fastest<R>(
    tracer: &mut Tracer,
    name: &'static str,
    count: usize,
    mut probe: impl FnMut() -> R,
) -> (R, u64) {
    let (mut value, mut best) = (None, u64::MAX);
    for _ in 0..PROBE_REPEATS {
        let (v, ns) = tracer.span(name, |t| {
            t.count(count as u64);
            probe()
        });
        (value, best) = (Some(v), best.min(ns));
    }
    (value.expect("a probe runs at least once"), best)
}

/// Costs out `core`, `wcgraph` and `mlearn` over the conversations a
/// replay of `stream` left in `detector`: session assignment over the
/// whole stream, then WCG folds, feature extraction, the Brandes pass
/// and forest scoring over every conversation.
pub fn core_probes(
    detector: &OnTheWireDetector,
    stream: &[HttpTransaction],
    model: &Model,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let per = |ns: u64, n: usize| ns as f64 / n.max(1) as f64;

    let config = DetectorConfig::default();
    let mut ns = u64::MAX;
    for _ in 0..PROBE_REPEATS {
        // `assign_owned` takes each transaction; the copy is made outside the span.
        let input = stream.to_vec();
        let mut tracker = SessionTracker::new(config.idle_timeout).with_caps(
            config.max_conversations_per_client,
            config.max_transactions_per_conversation,
        );
        let ((), once) = tracer.span("core.assign", |t| {
            t.count(input.len() as u64);
            for tx in input {
                std::hint::black_box(tracker.assign_owned(tx));
            }
        });
        ns = ns.min(once);
    }
    layers.set("core.assign_ns_per_tx", per(ns, stream.len()));

    let conversations: Vec<_> = detector.tracker().conversations().collect();
    let pushes: usize = conversations.iter().map(|c| c.transactions.len()).sum();
    let ((builders, rebuilds), ns) = fastest(tracer, "core.wcg_push", pushes, || {
        let mut rebuilds = 0usize;
        let builders: Vec<WcgBuilder> = conversations
            .iter()
            .map(|c| {
                let mut builder = WcgBuilder::new();
                for (i, tx) in c.transactions.iter().enumerate() {
                    if builder.push(tx) == PushOutcome::NeedsRebuild {
                        rebuilds += 1;
                        builder.rebuild(&c.transactions[..=i]);
                    }
                }
                builder
            })
            .collect();
        (builders, rebuilds)
    });
    layers.set("core.wcg_push_ns_per_tx", per(ns, pushes));
    layers.set(
        "core.rebuilds_per_ktx",
        rebuilds as f64 * 1e3 / pushes.max(1) as f64,
    );

    let mut extractor = FeatureExtractor::new();
    let (vectors, ns) = fastest(tracer, "core.features", builders.len(), || {
        builders
            .iter()
            .map(|b| extractor.extract(b.wcg()))
            .collect::<Vec<FeatureVector>>()
    });
    layers.set("core.features_ns_per_wcg", per(ns, builders.len()));

    let mut view = GraphView::new();
    let ((), ns) = fastest(tracer, "wcgraph.view_load", builders.len(), || {
        for b in &builders {
            view.load(&b.wcg().graph);
            std::hint::black_box(view.order());
        }
    });
    layers.set("wcgraph.view_load_ns_per_wcg", per(ns, builders.len()));

    let mut scratch = AlgoScratch::default();
    let ((), ns) = fastest(tracer, "wcgraph.brandes", builders.len(), || {
        for b in &builders {
            view.load(&b.wcg().graph);
            std::hint::black_box(betweenness_and_load_means_scratch(&view, &mut scratch));
        }
    });
    // The loop loads each view again; take that out.
    layers.set(
        "wcgraph.brandes_ns_per_wcg",
        (per(ns, builders.len()) - layers.get("wcgraph.view_load_ns_per_wcg")).max(0.0),
    );

    let ((), ns) = fastest(tracer, "core.score", vectors.len(), || {
        for fv in &vectors {
            std::hint::black_box(model.classifier.score_features(fv));
        }
    });
    layers.set("core.score_ns_per_wcg", per(ns, vectors.len()));

    let (scores, ns) = fastest(tracer, "mlearn.predict", vectors.len(), || {
        model.classifier.score_features_batch(&vectors, 1)
    });
    std::hint::black_box(scores);
    layers.set("mlearn.predict_ns_per_row", per(ns, vectors.len()));
}

/// Set-up costs every traced run reports, and the timer's own cost.
pub fn setup_layers(model: &Model, generate_s: f64, render_pcap_s: f64, layers: &mut Layers) {
    layers.set("core.build_dataset_ms", model.build_dataset_ms);
    layers.set("mlearn.fit_ms", model.fit_ms);
    layers.set("mlearn.fit_cpu_ms", model.fit_cpu_ms);
    layers.set("synthtraffic.generate_s", model.generate_s + generate_s);
    layers.set("synthtraffic.render_pcap_s", render_pcap_s);
    const READS: u32 = 100_000;
    let started = std::time::Instant::now();
    for _ in 0..READS {
        std::hint::black_box(std::time::Instant::now());
    }
    layers.set(
        "bench.timer_ns",
        started.elapsed().as_nanos() as f64 / f64::from(READS),
    );
}

/// The detector's own counters, as rates over the transactions it saw.
fn detector_counters(detector: &OnTheWireDetector, layers: &mut Layers) {
    let snapshot = detector.telemetry().snapshot();
    let seen = snapshot.counter("detector_transactions_total").max(1) as f64;
    layers.set(
        "core.clues_per_ktx",
        snapshot.counter("detector_clues_total") as f64 * 1e3 / seen,
    );
    layers.set(
        "core.classifications_per_ktx",
        snapshot.counter("detector_wcg_rebuilds_total") as f64 * 1e3 / seen,
    );
    layers.set("core.alerts", detector.alerts().len() as f64);
    let (mut conversations, mut watched) = (0usize, 0usize);
    for c in detector.tracker().conversations() {
        conversations += 1;
        if c.watched {
            watched += c.transactions.len();
        }
    }
    layers.set("core.conversations", conversations as f64);
    layers.set("core.watched_tx_share", watched as f64 / seen);
}

/// The harness's own floor for one traced run: what spans cost
/// (each `staged` pass against the `plain` pass run just before it, in
/// transactions per second, so both saw the host in the same mood),
/// how far the black-box passes spread, and how much of a staged pass
/// its stages account for.
pub fn harness_layers(plain: &[f64], staged: &[f64], tracer: &Tracer, layers: &mut Layers) {
    let slowdowns: Vec<f64> = staged
        .iter()
        .zip(plain)
        .map(|(staged, plain)| stats::ratio(*staged, *plain))
        .collect();
    layers.set(
        "bench.trace_overhead_share",
        1.0 - stats::median(&slowdowns),
    );
    layers.set("bench.pass_spread_share", stats::quartiles(plain).spread());
    layers.set("bench.stage_sum_ratio", tracer.stage_sum_ratio("pass"));
}

/// What one single-threaded replay of `n` transactions says about the
/// detector's per-call cost.
pub fn observe_layers(replay: &Replay, n: f64, layers: &mut Layers) {
    let samples = &replay.observe_samples_ns;
    layers.set("core.observe_ns_per_tx", replay.observe_ns as f64 / n);
    layers.set(
        "core.observe_p50_ns",
        stats::percentile(samples, 50.0) as f64,
    );
    layers.set(
        "core.observe_p99_ns",
        stats::percentile(samples, 99.0) as f64,
    );
    layers.set(
        "core.observe_max_us",
        samples.iter().copied().max().unwrap_or(0) as f64 / 1e3,
    );
    layers.set("core.allocs_per_tx", replay.observe_allocs as f64 / n);
    detector_counters(&replay.detector, layers);
}
