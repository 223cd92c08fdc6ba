//! Golden-snapshot regression test: the full pipeline over a fixed-seed
//! ground-truth corpus must produce exactly the telemetry counters
//! recorded in `tests/golden/telemetry_scale0.1_seed42.json`.
//!
//! Every counter here is a deterministic function of (seed, scale,
//! detector config): the corpus generator, classifier training, session
//! clustering, clue gates, and alerting are all seeded and
//! thread-count-invariant. Only histogram *sums* carry wall-clock time,
//! so the golden pins counter values and histogram observation counts
//! but never durations.
//!
//! To regenerate after a deliberate behavior change:
//!
//! ```text
//! UPDATE_TELEMETRY_GOLDEN=1 cargo test --test telemetry_golden
//! ```
//!
//! On mismatch the actual snapshot is written next to the target dir as
//! `telemetry-golden-actual.json` so CI can upload it as an artifact and
//! the diff can be inspected without re-running the corpus.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::{DetectorConfig, OnTheWireDetector};
use serde::{Deserialize, Serialize};
use nettrace::source::{PumpOutcome, SourceStats, TrafficSource};
use nettrace::HttpTransaction;
use streamd::{EngineSnapshot, StreamConfig, StreamEngine};
use telemetry::Registry;
use wirefront::{run, RunOptions};

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/telemetry_scale0.1_seed42.json");

const DURABLE_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/telemetry_durable_scale0.05_seed42.json"
);

/// The deterministic projection of a [`telemetry::Snapshot`]: everything
/// except histogram sums (which measure wall-clock time).
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Golden {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histogram_counts: BTreeMap<String, u64>,
}

impl Golden {
    fn project(snapshot: &telemetry::Snapshot) -> Golden {
        Golden {
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            histogram_counts: snapshot
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.count))
                .collect(),
        }
    }
}

fn run_pipeline() -> telemetry::Snapshot {
    // The pinned corpus: scale 0.1, seed 42 — 76 infections + 98 benign.
    let corpus = synthtraffic::ground_truth(42, 0.1);
    let data = build_dataset(
        corpus.iter().map(|ep| (ep.transactions.as_slice(), ep.is_infection())),
    );
    let classifier = Classifier::fit_default(&data, 42);

    // One detector over the whole corpus as a single interleaved stream.
    let mut stream: Vec<&nettrace::HttpTransaction> =
        corpus.iter().flat_map(|ep| ep.transactions.iter()).collect();
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    let registry = Registry::new();
    let mut detector =
        OnTheWireDetector::with_telemetry(classifier, DetectorConfig::default(), &registry);
    for tx in stream {
        detector.observe(tx);
    }
    registry.snapshot()
}

#[test]
fn pipeline_telemetry_matches_golden_snapshot() {
    let snapshot = run_pipeline();
    let actual = Golden::project(&snapshot);

    // Structural sanity independent of the golden file: the corpus must
    // have actually exercised every stage the golden pins.
    assert!(actual.counters["detector_transactions_total"] > 1000);
    assert!(actual.counters["detector_clues_total"] > 0);
    assert!(actual.counters["detector_wcg_rebuilds_total"] > 0);
    assert!(actual.counters["detector_alerts_total"] > 0);
    // No cap binds on this corpus, so every conversation stays live.
    assert_eq!(actual.counters["session_cap_evictions_total"], 0);
    assert!(actual.gauges["session_conversations_live"] > 1);
    assert_eq!(
        actual.histogram_counts["classifier_feature_extraction_ns"],
        actual.counters["detector_wcg_rebuilds_total"],
        "every rebuild times exactly one feature extraction"
    );
    assert_eq!(
        actual.histogram_counts["classifier_scoring_ns"],
        actual.counters["detector_wcg_rebuilds_total"],
        "every rebuild times exactly one scoring call"
    );

    compare_against_golden(&actual, GOLDEN_PATH, "telemetry-golden-actual.json");
}

/// Regenerates (under `UPDATE_TELEMETRY_GOLDEN=1`) or compares `actual`
/// against the golden file at `golden_path`, leaving the actual
/// projection in `target/` as `artifact_name` on mismatch so CI can
/// upload it.
fn compare_against_golden(actual: &Golden, golden_path: &str, artifact_name: &str) {
    if std::env::var_os("UPDATE_TELEMETRY_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(actual).unwrap();
        std::fs::write(golden_path, json + "\n").unwrap();
        eprintln!("regenerated {golden_path}");
        return;
    }

    let golden_json = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("cannot read {golden_path}: {e} (run with UPDATE_TELEMETRY_GOLDEN=1 to create it)"));
    let golden: Golden =
        serde_json::from_str(&golden_json).expect("golden file must parse as a Golden snapshot");

    if *actual != golden {
        // Leave the actual projection on disk for CI artifact upload.
        let out = format!("{}/target/{artifact_name}", env!("CARGO_MANIFEST_DIR"));
        let json = serde_json::to_string_pretty(actual).unwrap();
        let _ = std::fs::write(&out, json + "\n");
        let diff: Vec<String> = golden
            .counters
            .iter()
            .filter(|(k, v)| actual.counters.get(*k) != Some(v))
            .map(|(k, v)| {
                format!("  {k}: golden {v} vs actual {:?}", actual.counters.get(k))
            })
            .chain(
                actual
                    .counters
                    .keys()
                    .filter(|k| !golden.counters.contains_key(*k))
                    .map(|k| format!("  {k}: not in golden")),
            )
            .collect();
        panic!(
            "telemetry snapshot drifted from {golden_path} \
             (actual written to {out}); counter diff:\n{}",
            diff.join("\n")
        );
    }
}

/// A recorded stream as a source, 256 transactions a pump, reporting
/// exhaustion with the last slice.
struct Recorded(std::vec::IntoIter<HttpTransaction>);

impl TrafficSource for Recorded {
    fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        out.extend(self.0.by_ref().take(256));
        Ok(if self.0.len() == 0 { PumpOutcome::Exhausted } else { PumpOutcome::Progress })
    }

    fn shutdown(&mut self, _out: &mut Vec<HttpTransaction>) {}

    fn stats(&self) -> SourceStats {
        SourceStats::default()
    }

    fn ingest_report(&self) -> nettrace::IngestReport {
        nettrace::IngestReport::new()
    }
}

/// A durable-tier pipeline over the pinned corpus: run, crash after
/// the first checkpoint, resume the snapshot into a different shard
/// count on what it does not cover, and hot-reload the model
/// mid-resume. Everything the projection keeps (counters, gauges,
/// histogram counts) is a deterministic function of (seed, scale,
/// configs) — only histogram sums carry wall-clock time.
fn run_durable_pipeline() -> telemetry::Snapshot {
    let corpus = synthtraffic::ground_truth(42, 0.05);
    let data = build_dataset(
        corpus.iter().map(|ep| (ep.transactions.as_slice(), ep.is_infection())),
    );
    let classifier = Classifier::fit_default(&data, 42);
    let mut stream: Vec<nettrace::HttpTransaction> =
        corpus.iter().flat_map(|ep| ep.transactions.iter().cloned()).collect();
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    nettrace::assign_seq(&mut stream);

    // Queues sized to the stream so the feeder never blocks: the
    // backpressure-wait counter would otherwise depend on worker timing.
    let stream_config = |shards| StreamConfig {
        shards,
        queue_capacity: stream.len().max(64),
        ..StreamConfig::default()
    };
    let cut = (stream.len() / 3).max(1) as u64;

    // First leg (2 shards): crash right after the first checkpoint.
    let mut first: Option<EngineSnapshot> = None;
    let mut crash_sink = |snap: &EngineSnapshot| {
        first = Some(snap.clone());
        Err("simulated crash".to_string())
    };
    run(
        &mut Recorded(stream.clone().into_iter()),
        &mut StreamEngine::new(classifier.clone(), DetectorConfig::default(), stream_config(2)),
        &AtomicBool::new(false),
        RunOptions {
            checkpoint_every: cut,
            snapshot_sink: Some(&mut crash_sink),
            ..RunOptions::default()
        },
    )
    .expect_err("the crash sink aborts the first leg");

    // Second leg (3 shards): resume, keep checkpointing, and swap the
    // model in two-thirds of the way through the stream.
    let registry = Registry::new();
    let mut checkpoints = 0u64;
    let mut count_sink = |_: &EngineSnapshot| {
        checkpoints += 1;
        Ok(())
    };
    let reload_at = stream.len() as u64 * 2 / 3;
    let first = first.expect("the first leg left its checkpoint");
    let covered = first.watermark.map_or(0, |w| w.seq as usize + 1);
    let mut engine = StreamEngine::restore(
        classifier.clone(),
        DetectorConfig::default(),
        stream_config(3),
        &registry,
        first,
    );
    run(
        &mut Recorded(stream.split_off(covered).into_iter()),
        &mut engine,
        &AtomicBool::new(false),
        RunOptions {
            checkpoint_every: cut,
            snapshot_sink: Some(&mut count_sink),
            reload: Some((classifier, reload_at)),
            registry: Some(&registry),
            ..RunOptions::default()
        },
    )
    .expect("the resumed leg completes");
    assert!(checkpoints > 0);
    registry.snapshot()
}

#[test]
fn durable_pipeline_telemetry_matches_golden_snapshot() {
    let snapshot = run_durable_pipeline();
    let actual = Golden::project(&snapshot);

    // Structural sanity independent of the golden file: the run must
    // actually exercise the durable tier end to end.
    assert_eq!(actual.histogram_counts["streamd_snapshot_restore_ns"], 1, "one resume");
    assert!(actual.histogram_counts["streamd_snapshot_write_ns"] >= 2, "several checkpoints");
    assert_eq!(actual.counters["streamd_model_reloads_total"], 1, "one hot-reload");
    assert_eq!(actual.counters["streamd_backpressure_waits_total"], 0, "queues never filled");
    assert_eq!(
        actual.counters["streamd_enqueued_total"],
        actual.counters["streamd_processed_total"],
        "drain loses nothing"
    );

    compare_against_golden(
        &actual,
        DURABLE_GOLDEN_PATH,
        "telemetry-durable-golden-actual.json",
    );
}

#[test]
fn pipeline_telemetry_is_reproducible_within_a_run() {
    // Two independent runs of the same seeded pipeline agree exactly —
    // the precondition for the golden file being meaningful at all.
    let a = Golden::project(&run_pipeline());
    let b = Golden::project(&run_pipeline());
    assert_eq!(a, b);
}
