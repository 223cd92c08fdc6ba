//! `stream_benign` and `stream_infected`: a pre-extracted transaction
//! stream into a one-shard `streamd::StreamEngine`.
//!
//! No `nettrace` runs here. The timed part is what a caller holding a
//! `(ts, seq)`-ordered stream pays to get alerts and a report:
//! `StreamEngine::process` followed by `streamd::finish_report`, default
//! configuration throughout. The two workloads differ only in the share
//! of infection episodes, which decides how many transactions leave the
//! assign-and-clue fast path.

use std::time::Instant;

use dynaminer::forensic::DownloadRecord;
use nettrace::HttpTransaction;
use streamd::{finish_report, EngineReport, StreamConfig, StreamEngine};

use crate::check::{
    alert_keys, detector_config, reference, replay_owned, report_digest, Reference, Verdict,
    SCORING_THREADS,
};
use crate::gen::{self, Fingerprint, Model};
use crate::metrics::{repeat_for, timed, Layers, Pass, Passes};
use crate::stats;
use crate::trace::Tracer;

/// Episodes, and so distinct client addresses, in `stream_benign`.
pub const BENIGN_CLIENTS: usize = 8192;
/// The same for `stream_infected`, whose episodes are longer and cost
/// more per transaction: half as many keep a pass as short.
pub const INFECTED_CLIENTS: usize = 4096;

pub struct Inputs {
    pub model: Model,
    pub stream: Vec<HttpTransaction>,
    downloads: Vec<DownloadRecord>,
    pub fingerprint: Fingerprint,
    /// Seconds spent generating the episodes.
    pub generate_s: f64,
}

/// Generates the stream of `clients` episodes, `infections` of them infected.
pub fn setup(seed: u64, clients: usize, infections: usize) -> Inputs {
    let model = gen::fit_model(seed);
    let t = Instant::now();
    let stream = gen::into_stream(gen::corpus(seed, clients, infections));
    let generate_s = t.elapsed().as_secs_f64();
    let fingerprint = gen::stream_fingerprint(&stream, clients, infections);
    let downloads = streamd::order_and_downloads(&stream).1;
    Inputs {
        model,
        stream,
        downloads,
        fingerprint,
        generate_s,
    }
}

/// One pass over a fresh engine; returns the engine for inspection.
/// The calling thread is the engine's feeder and runs the final verdict
/// pass; the shard workers' CPU time comes from the engine's own report.
fn pass(inputs: &Inputs, shards: usize) -> (StreamEngine, EngineReport, u64, Pass) {
    let input = inputs.stream.clone();
    let (classifier, downloads) = (inputs.model.classifier.clone(), inputs.downloads.clone());
    let ((engine, fed, digest), mut pass) = timed(|| {
        let config = StreamConfig {
            shards,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(classifier, detector_config(), config);
        let fed = engine.process(input);
        let report = finish_report(&mut engine, downloads, SCORING_THREADS, None);
        (engine, fed, report_digest(&report))
    });
    pass.cpu_ns += fed.per_shard_cpu_ns.iter().sum::<u64>();
    (engine, fed, digest, pass)
}

/// Checks one pass against the single-threaded reference.
fn check(
    inputs: &Inputs,
    reference: &Reference,
    fed: &EngineReport,
    digest: u64,
    verdict: &mut Verdict,
) {
    let n = inputs.stream.len() as u64;
    let lost = n - fed.processed.min(n) + fed.dropped;
    verdict.record(n, lost, || {
        format!(
            "engine enqueued {} processed {} dropped {} of {n}",
            fed.enqueued, fed.processed, fed.dropped
        )
    });
    verdict.require(fed.enqueued == fed.processed + fed.dropped, || {
        "enqueued != processed + dropped".into()
    });
    verdict.require(alert_keys(&fed.alerts) == reference.alerts, || {
        format!(
            "{} alerts, single-threaded detector raised {}",
            fed.alerts.len(),
            reference.alerts.len()
        )
    });
    verdict.require(digest == reference.digest, || {
        "report differs from the single-threaded replay's".into()
    });
}

/// The end-to-end run: a warm-up pass, then timed passes for `seconds`.
pub fn e2e(
    inputs: &Inputs,
    seconds: f64,
    between: &mut dyn FnMut(f64),
    verdict: &mut Verdict,
) -> Passes {
    let reference = reference(&inputs.stream, &inputs.model.classifier);
    let (_, fed, digest, _) = pass(inputs, 1);
    check(inputs, &reference, &fed, digest, verdict);
    let peak_rss_mib = crate::env::peak_rss_mib();
    let passes = repeat_for(seconds, between, || {
        let (engine, fed, digest, pass) = pass(inputs, 1);
        drop(engine);
        check(inputs, &reference, &fed, digest, verdict);
        pass
    });
    Passes {
        passes,
        transactions: inputs.stream.len() as u64,
        peak_rss_mib,
    }
}

/// Transactions fed before the snapshot probe: serializing the whole
/// stream's state takes the better part of a minute, so the probe
/// prices a state of this many transactions instead.
const SNAPSHOT_AFTER: usize = 4096;

/// The traced run: untraced passes, traced passes with spans around the
/// two calls, and single-threaded replays of the same stream take turns
/// for most of the window; then the probes that break the detector's
/// cost into its layers from outside.
pub fn traced(
    inputs: &Inputs,
    seconds: f64,
    snapshot_probe: bool,
    allocations: fn() -> u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    verdict: &mut Verdict,
) {
    let n = inputs.stream.len() as f64;
    let reference = reference(&inputs.stream, &inputs.model.classifier);
    pass(inputs, 1); // warm-up

    let (mut plain, mut spanned, mut handoff) = (Vec::new(), Vec::new(), Vec::new());
    let (mut feeder_cpu, mut shard_cpu, mut depth_max) = (0u64, 0u64, 0i64);
    let mut last = None;
    let started = Instant::now();
    while plain.len() < 2 || started.elapsed().as_secs_f64() < seconds * 0.6 {
        drop(last.take()); // one replay's conversations resident at a time
        let (engine, fed, digest, p) = pass(inputs, 1);
        drop(engine);
        check(inputs, &reference, &fed, digest, verdict);
        plain.push(n * 1e9 / p.wall_ns as f64);

        let input = inputs.stream.clone();
        let (classifier, downloads) = (inputs.model.classifier.clone(), inputs.downloads.clone());
        tracer.next_pass();
        let ((engine, fed, digest), wall) = tracer.span("pass", |t| {
            let mut engine =
                StreamEngine::new(classifier, detector_config(), StreamConfig::default());
            let depth = engine.telemetry().gauge("streamd_shard0_queue_depth", "");
            let (fed, _) = t.span("streamd.process", |t| {
                t.count(input.len() as u64);
                // Same feed as `process`, sampling the queue-depth gauge as it goes.
                let ((), fed) = engine.feed(|handle| {
                    for (i, tx) in input.into_iter().enumerate() {
                        handle.push(tx);
                        if i % 1024 == 0 {
                            depth_max = depth_max.max(depth.get());
                        }
                    }
                });
                fed
            });
            let (report, _) = t.span("streamd.finish_report", |_| {
                finish_report(&mut engine, downloads, SCORING_THREADS, None)
            });
            (engine, fed, report_digest(&report))
        });
        drop(engine);
        check(inputs, &reference, &fed, digest, verdict);
        spanned.push(n * 1e9 / wall as f64);
        let engine_cpu = fed.feeder_cpu_ns + fed.per_shard_cpu_ns.iter().sum::<u64>();
        feeder_cpu += fed.feeder_cpu_ns;
        shard_cpu += engine_cpu - fed.feeder_cpu_ns;

        // The single-threaded baseline: the same stream through one
        // detector on this thread. What the engine burns beyond it, in
        // CPU time and within the same minute, is the hand-off.
        let input = inputs.stream.clone();
        let baseline = replay_owned(input, inputs.model.classifier.clone(), allocations, tracer);
        handoff.push((engine_cpu as f64 - baseline.observe_cpu_ns as f64) / n);
        last = Some((baseline, fed));
    }
    let passes = spanned.len() as f64;
    let (baseline, fed) = last.expect("at least two passes ran");
    crate::layers::harness_layers(&plain, &spanned, tracer, layers);
    layers.set(
        "streamd.feeder_cpu_ns_per_tx",
        feeder_cpu as f64 / passes / n,
    );
    layers.set("streamd.shard_cpu_ns_per_tx", shard_cpu as f64 / passes / n);
    layers.set(
        "streamd.shard_cpu_share",
        stats::ratio(shard_cpu as f64, tracer.total("pass").0 as f64),
    );
    layers.set("streamd.handoff_ns_per_tx", stats::median(&handoff));
    layers.set("streamd.queue_depth_max", depth_max as f64);
    layers.set("streamd.backpressure_waits", fed.backpressure_waits as f64);
    layers.set("streamd.dropped", fed.dropped as f64);
    layers.set(
        "core.finish_report_ms",
        stats::lower_quartile(&tracer.per_pass("streamd.finish_report")) / 1e6,
    );
    crate::layers::observe_layers(&baseline, n, layers);
    crate::layers::core_probes(
        &baseline.detector,
        &inputs.stream,
        &inputs.model,
        tracer,
        layers,
    );
    drop(baseline);

    // Two shards: counts and CPU only — on a small host the wall clock
    // of a two-shard run says nothing about the engine.
    let (two, fed2, digest2, _) = pass(inputs, 2);
    drop(two);
    check(inputs, &reference, &fed2, digest2, verdict);
    layers.set(
        "streamd.imbalance_permille",
        fed2.imbalance_permille() as f64,
    );
    layers.set(
        "streamd.cpu_sum_ratio_2shard",
        stats::ratio(
            (fed2.feeder_cpu_ns + fed2.per_shard_cpu_ns.iter().sum::<u64>()) as f64,
            (feeder_cpu + shard_cpu) as f64 / passes,
        ),
    );

    if snapshot_probe {
        let mut engine = StreamEngine::new(
            inputs.model.classifier.clone(),
            detector_config(),
            StreamConfig::default(),
        );
        engine.process(inputs.stream[..SNAPSHOT_AFTER.min(inputs.stream.len())].to_vec());
        let (bytes, ns) = tracer.span("streamd.snapshot", |_| {
            engine.snapshot().to_bytes().expect("snapshot serializes")
        });
        layers.set("streamd.snapshot_ms", ns as f64 / 1e6);
        layers.set("streamd.snapshot_mb", bytes.len() as f64 / 1e6);
        let (restored, ns) = tracer.span("streamd.restore", |_| {
            StreamEngine::restore(
                inputs.model.classifier.clone(),
                detector_config(),
                StreamConfig::default(),
                &telemetry::Registry::new(),
                streamd::EngineSnapshot::from_bytes(&bytes).expect("snapshot parses"),
            )
        });
        layers.set("streamd.restore_ms", ns as f64 / 1e6);
        verdict.require(restored.fed() == engine.fed(), || {
            "restored engine lost its feed count".into()
        });
    }
}
