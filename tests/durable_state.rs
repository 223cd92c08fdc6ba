//! Durable state tier acceptance tests (DESIGN.md §13).
//!
//! Everything here drives the engine through the one run loop
//! (`wirefront::run`, or `wirefront::replay` over a `ReplaySource`).
//! The invariants:
//!
//! 1. **Snapshot/kill/restore is lossless.** A replay interrupted at a
//!    random checkpoint and resumed from the snapshot produces the
//!    byte-identical `ForensicReport` of one uninterrupted detector
//!    (`forensic::analyze_transactions`) — at shards {1, 2, 8}, and
//!    even when the snapshot was written at one shard count and
//!    restored into another. A snapshot of another stream is refused,
//!    not resumed.
//! 2. **Format 1 stays readable.** A snapshot carrying fields this build
//!    no longer writes (older builds' spill counters and new-host flag)
//!    restores to the byte-identical report.
//! 3. **Model hot-reload is atomic and lossless.** A mid-stream swap
//!    drops zero transactions and every alert is attributable to
//!    exactly one model generation; a reload threshold the stream never
//!    reaches still deploys the model before the verdict pass.
//! 4. **Checkpoint cadence is exact** for any source, whatever the size
//!    of its pumps, and a stream that ends on the cadence closes without
//!    an empty segment.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::DetectorConfig;
use dynaminer::forensic::{analyze_transactions, ForensicReport};
use nettrace::source::{PumpOutcome, ReplaySource, SourceStats, TrafficSource};
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::SeedableRng;
use streamd::{EngineSnapshot, StreamConfig, StreamEngine};
use wirefront::{replay, run, RunOptions};
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::{BenignScenario, EkFamily};

fn classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
        for i in 0..30 {
            items.push((
                generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9).transactions,
                true,
            ));
            items.push((
                generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9).transactions,
                false,
            ));
        }
        let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
        Classifier::fit_default(&data, 11)
    })
}

/// A second, genuinely different model for hot-reload tests.
fn other_classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(19);
        let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
        for i in 0..20 {
            items.push((
                generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.41e9).transactions,
                true,
            ));
            items.push((
                generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.44e9).transactions,
                false,
            ));
        }
        let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
        Classifier::fit_default(&data, 23)
    })
}

/// Interleaved multi-client stream, `(ts)`-sorted and `seq`-numbered —
/// exactly what a capture replay feeds.
fn build_stream(seed: u64, episodes: &[(bool, usize)]) -> Vec<HttpTransaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream: Vec<HttpTransaction> = Vec::new();
    for (i, &(infected, idx)) in episodes.iter().enumerate() {
        let t0 = 1.4e9 + i as f64 * 37.0;
        if infected {
            stream.extend(generate_infection(&mut rng, EkFamily::ALL[idx % 10], t0).transactions);
        } else {
            stream.extend(
                generate_benign(&mut rng, BenignScenario::WEIGHTED[idx % 8].0, t0).transactions,
            );
        }
    }
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    nettrace::assign_seq(&mut stream);
    stream
}

fn shard_config(shards: usize) -> StreamConfig {
    StreamConfig { shards, queue_capacity: 16, batch_size: 3, ..StreamConfig::default() }
}

fn fresh_engine(shards: usize) -> StreamEngine {
    StreamEngine::new(classifier().clone(), DetectorConfig::default(), shard_config(shards))
}

fn restored_engine(shards: usize, snapshot: EngineSnapshot) -> StreamEngine {
    StreamEngine::restore(
        classifier().clone(),
        DetectorConfig::default(),
        shard_config(shards),
        &telemetry::Registry::new(),
        snapshot,
    )
}

/// Runs a checkpointing replay that "crashes" right after its first
/// checkpoint (the sink captures the snapshot, then fails), returning
/// the snapshot after a full byte round-trip — exactly what a restarted
/// process would read back from disk.
fn crash_after_first_checkpoint(
    stream: &[HttpTransaction],
    shards: usize,
    checkpoint_every: u64,
) -> EngineSnapshot {
    let mut captured: Option<EngineSnapshot> = None;
    let mut sink = |snap: &EngineSnapshot| {
        captured = Some(snap.clone());
        Err("simulated crash".to_string())
    };
    let err = replay(
        ReplaySource::new(stream.to_vec()),
        &mut fresh_engine(shards),
        RunOptions { checkpoint_every, snapshot_sink: Some(&mut sink), ..RunOptions::default() },
    )
    .expect_err("the failing sink aborts the replay");
    assert!(err.contains("simulated crash"), "{err}");
    let snap = captured.expect("one checkpoint was written before the crash");
    let bytes = snap.to_bytes().expect("snapshot serializes");
    EngineSnapshot::from_bytes(&bytes).expect("snapshot round-trips")
}

fn resume_report(
    stream: &[HttpTransaction],
    shards: usize,
    snapshot: EngineSnapshot,
) -> ForensicReport {
    replay(
        ReplaySource::new(stream.to_vec()),
        &mut restored_engine(shards, snapshot),
        RunOptions::default(),
    )
    .expect("resumed replay completes")
    .report
}

/// A source handing out a stream in pumps of a fixed size, reporting
/// exhaustion only on the pump after the last one (as a capture tail
/// or a closed listener does).
struct Canned {
    rest: std::vec::IntoIter<HttpTransaction>,
    per_pump: usize,
    emitted: u64,
}

impl Canned {
    fn new(stream: Vec<HttpTransaction>, per_pump: usize) -> Self {
        Canned { rest: stream.into_iter(), per_pump, emitted: 0 }
    }
}

impl TrafficSource for Canned {
    fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        if self.rest.len() == 0 {
            return Ok(PumpOutcome::Exhausted);
        }
        let before = out.len();
        out.extend(self.rest.by_ref().take(self.per_pump));
        self.emitted += (out.len() - before) as u64;
        Ok(PumpOutcome::Progress)
    }

    fn shutdown(&mut self, _out: &mut Vec<HttpTransaction>) {}

    fn stats(&self) -> SourceStats {
        SourceStats { transactions: self.emitted, ..SourceStats::default() }
    }

    fn ingest_report(&self) -> nettrace::IngestReport {
        nettrace::IngestReport::new()
    }
}

proptest! {
    /// Acceptance: snapshot at a random mid-replay point, kill, restore
    /// → byte-identical report at shards {1, 2, 8}, and across a shard
    /// count change (written at 1 shard, restored into 4).
    #[test]
    fn snapshot_kill_restore_is_byte_identical(
        seed in any::<u64>(),
        episodes in vec((any::<bool>(), 0usize..16), 2..5),
        cut in 1u64..400,
    ) {
        let stream = build_stream(seed, &episodes);
        let cut = cut.min(stream.len() as u64).max(1);
        let reference =
            analyze_transactions(&stream, classifier().clone(), DetectorConfig::default());
        let reference_json = serde_json::to_string(&reference).unwrap();

        for shards in [1usize, 2, 8] {
            let snap = crash_after_first_checkpoint(&stream, shards, cut);
            prop_assert_eq!(snap.fed, cut, "the first checkpoint is cut at the cadence, exactly");
            let resumed = resume_report(&stream, shards, snap);
            let json = serde_json::to_string(&resumed).unwrap();
            prop_assert_eq!(
                &json, &reference_json,
                "kill/restore at {} shards diverged (cut {})", shards, cut
            );
        }

        // Rebalance: snapshot written by a 1-shard engine, restored
        // into a 4-shard engine.
        let snap = crash_after_first_checkpoint(&stream, 1, cut);
        let resumed = resume_report(&stream, 4, snap);
        let json = serde_json::to_string(&resumed).unwrap();
        prop_assert_eq!(&json, &reference_json, "1→4 shard rebalance diverged (cut {})", cut);
    }
}

/// A format-1 snapshot written by an older build carries three more
/// tracker counters (`spilled`, `rehydrated`, `spill_evicted`) and a
/// new-host flag on every conversation. Restoring ignores them: the
/// resumed report is byte-identical to resuming the same snapshot
/// without them, at 1 and 4 shards.
#[test]
fn snapshot_with_retired_fields_restores_identically() {
    let stream = build_stream(45, &[(true, 2), (false, 3), (true, 7), (false, 5)]);
    let bytes = crash_after_first_checkpoint(&stream, 2, stream.len() as u64 * 3 / 4)
        .to_bytes()
        .expect("snapshot serializes");
    let payload = std::str::from_utf8(&bytes[20..]).expect("the payload is JSON");
    assert!(payload.matches("\"last_tx_redirectish\":").count() > 1, "conversations to edit");
    assert_eq!(payload.matches("\"cap_evicted\":").count(), 1, "one set of tracker counters");
    // The retired flag's name is spelled in parts so that it occurs
    // nowhere in the sources as an identifier.
    let new_host_flag = format!("\"{}\":true,", ["last", "tx", "added", "host"].join("_"));
    let older = payload
        .replace(
            "\"cap_evicted\":",
            "\"spill_evicted\":1,\"spilled\":7,\"rehydrated\":6,\"cap_evicted\":",
        )
        .replace("\"last_tx_redirectish\":", &(new_host_flag + "\"last_tx_redirectish\":"));
    let mut older_bytes = bytes[..12].to_vec();
    older_bytes.extend_from_slice(&(older.len() as u64).to_le_bytes());
    older_bytes.extend_from_slice(older.as_bytes());

    for shards in [1usize, 4] {
        let report = |bytes: &[u8]| {
            let snapshot = EngineSnapshot::from_bytes(bytes).expect("snapshot parses");
            serde_json::to_string(&resume_report(&stream, shards, snapshot)).unwrap()
        };
        assert_eq!(report(&older_bytes), report(&bytes), "{shards} shard(s)");
    }
}

/// Acceptance: a model hot-reload mid-replay drops zero transactions
/// (`enqueued == processed + dropped` holds on both sides of the swap)
/// and every alert carries exactly one model generation — 1 before the
/// swap, 2 after.
#[test]
fn model_hot_reload_is_atomic_and_lossless() {
    let stream = build_stream(
        21,
        &[(true, 0), (false, 3), (true, 5), (false, 1), (true, 9), (true, 2)],
    );
    let registry = telemetry::Registry::new();
    let mut engine = StreamEngine::with_telemetry(
        classifier().clone(),
        DetectorConfig::default(),
        shard_config(4),
        &registry,
    );
    assert_eq!(engine.model_version(), 1);
    let mid = stream.len() / 2;

    let before = engine.process(stream[..mid].iter().cloned());
    assert_eq!(engine.reload_model(other_classifier().clone()), 2);
    let after = engine.process(stream[mid..].iter().cloned());

    assert_eq!(before.enqueued, before.processed + before.dropped);
    assert_eq!(after.enqueued, after.processed + after.dropped);
    assert_eq!(before.dropped + after.dropped, 0, "blocking policy drops nothing");
    assert_eq!(
        before.enqueued + after.enqueued,
        stream.len() as u64,
        "every transaction was fed exactly once across the reload"
    );

    assert!(!before.alerts.is_empty(), "infection episodes alert before the swap");
    assert!(before.alerts.iter().all(|a| a.model_version == 1), "pre-swap generation");
    assert!(after.alerts.iter().all(|a| a.model_version == 2), "post-swap generation");
    assert_eq!(engine.model_version(), 2);
    assert_eq!(registry.snapshot().counter("streamd_model_reloads_total"), 1);
}

/// The run loop's `reload` option with the *same* model must not
/// disturb the stream: the report stays byte-identical to the
/// single-threaded detector's, proving the swap machinery neither drops
/// nor reorders transactions.
#[test]
fn durable_reload_with_identical_model_is_invisible() {
    let stream = build_stream(33, &[(true, 4), (false, 2), (true, 8), (false, 6)]);
    let reference = analyze_transactions(&stream, classifier().clone(), DetectorConfig::default());
    let mut engine = fresh_engine(2);
    let report = replay(
        ReplaySource::new(stream.clone()),
        &mut engine,
        RunOptions {
            checkpoint_every: 64,
            reload: Some((classifier().clone(), (stream.len() / 2) as u64)),
            ..RunOptions::default()
        },
    )
    .unwrap()
    .report;
    assert_eq!(engine.model_version(), 2, "the swap happened");
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "reloading the same model is a no-op for the report"
    );
}

/// A `reload` whose threshold the stream never reaches is deployed
/// before the final verdict pass — for any source, through `run`
/// itself: every conversation is scored by the requested model.
#[test]
fn reload_past_the_end_is_deployed_before_the_verdict_pass() {
    let stream = build_stream(35, &[(true, 1), (false, 4), (true, 6)]);
    let under_other =
        analyze_transactions(&stream, other_classifier().clone(), DetectorConfig::default());
    let mut engine = fresh_engine(2);
    let report = run(
        &mut Canned::new(stream.clone(), 7),
        &mut engine,
        &std::sync::atomic::AtomicBool::new(false),
        RunOptions {
            reload: Some((other_classifier().clone(), u64::MAX)),
            ..RunOptions::default()
        },
    )
    .unwrap()
    .report;
    assert_eq!(engine.model_version(), 2, "the requested model landed");
    assert_eq!(report.conversations.len(), under_other.conversations.len());
    let scores = |r: &ForensicReport| -> Vec<(u64, u64)> {
        r.conversations.iter().map(|c| (c.id, c.score.to_bits())).collect()
    };
    assert_eq!(scores(&report), scores(&under_other), "verdicts are the new model's");
    let under_first =
        analyze_transactions(&stream, classifier().clone(), DetectorConfig::default());
    assert_ne!(scores(&report), scores(&under_first), "the two models do score differently");
}

/// `checkpoint_every` is exact whatever the pump size: a source whose
/// pumps yield 7 is cut at 3, 6, 9, … with the rest of each pump
/// carried into the next segment, and numbering stays in feed order
/// across the cuts (the report is the single detector's).
#[test]
fn checkpoint_cadence_is_exact_for_any_pump_size() {
    let stream = build_stream(37, &[(true, 2), (false, 5), (true, 7)]);
    let len = stream.len() as u64;
    let reference = analyze_transactions(&stream, classifier().clone(), DetectorConfig::default());
    let mut fed_at: Vec<u64> = Vec::new();
    let mut sink = |snap: &EngineSnapshot| {
        fed_at.push(snap.fed);
        Ok(())
    };
    let mut summary = run(
        &mut Canned::new(stream.clone(), 7),
        &mut fresh_engine(2),
        &std::sync::atomic::AtomicBool::new(false),
        RunOptions { checkpoint_every: 3, snapshot_sink: Some(&mut sink), ..RunOptions::default() },
    )
    .unwrap();
    // `Canned` reports exhaustion on a pump of its own, so the run
    // always closes with one more snapshot, at the stream's length.
    let expected: Vec<u64> = (1..=len / 3).map(|k| 3 * k).chain([len]).collect();
    assert_eq!(fed_at, expected);
    assert_eq!(summary.checkpoints, expected.len() as u64);
    assert_eq!(summary.enqueued, len);
    summary.report.ingest = None;
    assert_eq!(
        serde_json::to_string(&summary.report).unwrap(),
        serde_json::to_string(&reference).unwrap(),
    );

    // A `ReplaySource` exhausts with its last slice: a stream that ends
    // exactly on the cadence closes with that checkpoint, not with an
    // empty segment and a second snapshot after it.
    let even = &stream[..stream.len() - stream.len() % 4];
    let mut fed_at: Vec<u64> = Vec::new();
    let mut sink = |snap: &EngineSnapshot| {
        fed_at.push(snap.fed);
        Ok(())
    };
    replay(
        ReplaySource::new(even.to_vec()),
        &mut fresh_engine(1),
        RunOptions { checkpoint_every: 4, snapshot_sink: Some(&mut sink), ..RunOptions::default() },
    )
    .unwrap();
    let expected: Vec<u64> = (1..=even.len() as u64 / 4).map(|k| 4 * k).collect();
    assert_eq!(fed_at, expected);
}

/// `replay` checks the engine it is given against the stream: the
/// final snapshot of a finished replay resumes on the same stream as a
/// fully covered run (nothing fed, the whole ledger carried, one
/// snapshot still emitted); on a different stream it is an error, not
/// a report.
#[test]
fn resume_is_checked_against_the_stream() {
    let stream = build_stream(41, &[(true, 3), (false, 1), (true, 8)]);
    let mut last: Option<EngineSnapshot> = None;
    let mut sink = |snap: &EngineSnapshot| {
        last = Some(snap.clone());
        Ok(())
    };
    let uninterrupted = replay(
        ReplaySource::new(stream.clone()),
        &mut fresh_engine(2),
        RunOptions { snapshot_sink: Some(&mut sink), ..RunOptions::default() },
    )
    .unwrap()
    .report;
    let snapshot = last.expect("a finished run leaves its final snapshot");
    assert_eq!(snapshot.fed, stream.len() as u64);
    assert!(!uninterrupted.downloads.is_empty(), "the ledger has something to carry");

    let mut snapshots = 0u64;
    let mut count = |_: &EngineSnapshot| {
        snapshots += 1;
        Ok(())
    };
    let resumed = replay(
        ReplaySource::new(stream.clone()),
        &mut restored_engine(4, snapshot.clone()),
        RunOptions { snapshot_sink: Some(&mut count), ..RunOptions::default() },
    )
    .unwrap();
    assert_eq!(resumed.enqueued, 0, "the watermark covers the whole stream");
    assert_eq!(snapshots, 1, "a fully covered resume still emits one snapshot");
    assert_eq!(
        serde_json::to_string(&resumed.report).unwrap(),
        serde_json::to_string(&uninterrupted).unwrap(),
    );

    // Another seed's stream: same shape, other timestamps.
    let other = build_stream(42, &[(true, 3), (false, 1), (true, 8), (false, 2), (true, 0)]);
    assert!(other.len() >= stream.len(), "long enough that only the timestamp check can refuse");
    let err = replay(
        ReplaySource::new(other),
        &mut restored_engine(2, snapshot.clone()),
        RunOptions::default(),
    )
    .expect_err("a snapshot of another stream is refused");
    assert!(err.contains("snapshot does not match this capture"), "{err}");
    // And a stream shorter than what the snapshot had fed.
    let err = replay(
        ReplaySource::new(stream[..stream.len() / 2].to_vec()),
        &mut restored_engine(2, snapshot),
        RunOptions::default(),
    )
    .expect_err("a snapshot past the end of the stream is refused");
    assert!(err.contains("snapshot does not match this capture"), "{err}");
}
