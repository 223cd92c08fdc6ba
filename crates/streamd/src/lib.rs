//! `streamd` — sharded stream processing for on-the-wire detection.
//!
//! The paper's deployment model is a single detector instance on the
//! wire; [`OnTheWireDetector`](dynaminer::detector::OnTheWireDetector)
//! mirrors that and is single-threaded by construction. This crate
//! scales it across cores the way ISP-scale web-request classifiers do:
//! partition the stream *per client*. Every piece of detector state —
//! conversations, clue windows, WCG builders — is keyed by client
//! address, so a client-sharded stream needs zero cross-shard
//! coordination.
//!
//! * [`StreamEngine`] — N per-shard detectors behind one facade:
//!   hash-partitioned bounded queues with batched handoff, one worker
//!   thread per shard, configurable backpressure ([`BackpressurePolicy`]),
//!   graceful drain, per-shard telemetry, and a merged alert stream in
//!   `(ts, ingest seq)` order.
//! * [`analyze_transactions_sharded`] — the forensic replay path on top
//!   of the engine; with `retention: None` and non-binding caps its
//!   [`ForensicReport`] is identical to the single-threaded
//!   [`analyze_transactions`](dynaminer::forensic::analyze_transactions)
//!   at any shard count.
//! * [`analyze_transactions_durable`] — the same replay with a durable
//!   state tier: periodic [`EngineSnapshot`] checkpoints, resume from a
//!   snapshot at a *different* shard count, and an atomic mid-stream
//!   model hot-reload. An interrupted-and-resumed replay produces the
//!   byte-identical report of an uninterrupted one.
//!
//! See DESIGN.md §12 for the architecture and the exact determinism
//! contract (including what changes in the capped regime), and §13 for
//! the snapshot format and restore semantics.

mod engine;
mod queue;
pub mod snapshot;

pub use engine::{
    shard_of, BackpressurePolicy, EngineReport, FeedHandle, StreamConfig, StreamEngine,
};
pub use snapshot::{
    read_snapshot, write_snapshot_atomic, EngineSnapshot, Watermark, SNAPSHOT_FORMAT_VERSION,
};

use dynaminer::classifier::Classifier;
use dynaminer::detector::DetectorConfig;
use dynaminer::forensic::{DownloadRecord, ForensicReport};
use nettrace::HttpTransaction;
use telemetry::Registry;

/// Sharded forensic replay: like
/// [`analyze_transactions`](dynaminer::forensic::analyze_transactions)
/// but run through a [`StreamEngine`] of `config.shards` workers.
///
/// Conversation ids are client-scoped and verdicts are reassembled in
/// id order (== the single tracker's client-major iteration order), so
/// with `retention: None` and non-binding caps the report matches the
/// single-threaded one field for field at any shard count.
pub fn analyze_transactions_sharded(
    transactions: &[HttpTransaction],
    classifier: Classifier,
    detector_config: DetectorConfig,
    config: StreamConfig,
) -> ForensicReport {
    analyze_sharded_with(transactions, classifier, detector_config, config, None)
}

/// Like [`analyze_transactions_sharded`], with engine metrics registered
/// in `registry`, per-shard detector metrics aggregated into it at the
/// end, and the final snapshot attached as `stats`.
pub fn analyze_transactions_sharded_telemetry(
    transactions: &[HttpTransaction],
    classifier: Classifier,
    detector_config: DetectorConfig,
    config: StreamConfig,
    registry: &Registry,
) -> ForensicReport {
    analyze_sharded_with(transactions, classifier, detector_config, config, Some(registry))
}

fn analyze_sharded_with(
    transactions: &[HttpTransaction],
    classifier: Classifier,
    detector_config: DetectorConfig,
    config: StreamConfig,
    registry: Option<&Registry>,
) -> ForensicReport {
    let threads = mlearn::parallel::resolve_threads(detector_config.scoring_threads);
    let own_registry;
    let reg = match registry {
        Some(r) => r,
        None => {
            own_registry = Registry::new();
            &own_registry
        }
    };
    let mut engine = StreamEngine::with_telemetry(classifier, detector_config, config, reg);

    // Same feed order and download scan as the single-threaded path:
    // (ts, seq) is a total order over a numbered stream.
    let (order, downloads) = order_and_downloads(transactions);
    engine.process(order.into_iter().cloned());
    finish_report(&mut engine, downloads, threads, registry)
}

/// Sorts a stream into `(ts, seq)` order and scans it for exploit-type
/// downloads (the scan is a pure function of the input stream, so a
/// resumed replay re-scans the full stream and reproduces the
/// uninterrupted run's download list exactly).
///
/// Public so external replay harnesses (the drift lab feeds an engine
/// epoch by epoch) can build the same download ledger the one-shot
/// replay paths use.
pub fn order_and_downloads(
    transactions: &[HttpTransaction],
) -> (Vec<&HttpTransaction>, Vec<DownloadRecord>) {
    let mut order: Vec<&HttpTransaction> = transactions.iter().collect();
    order.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(a.seq.cmp(&b.seq)));
    let downloads = order.iter().filter_map(|tx| DownloadRecord::of(tx)).collect();
    (order, downloads)
}

/// Final verdict pass and report assembly: each shard's detector runs
/// its own [`final_verdicts`](dynaminer::detector::OnTheWireDetector::final_verdicts)
/// sweep (spilled conversations thawed first) and the verdicts are
/// reassembled by id, which reproduces the single tracker's iteration
/// order — client-scoped ids sort client-major, like its BTreeMap.
///
/// Public so harnesses that drive a long-lived engine across several
/// `process` calls (epoch-by-epoch drift replay) can close it out with
/// the exact report the one-shot replay paths produce.
pub fn finish_report(
    engine: &mut StreamEngine,
    downloads: Vec<DownloadRecord>,
    threads: usize,
    registry: Option<&Registry>,
) -> ForensicReport {
    let conversations = engine.final_verdicts(threads);
    let stats = registry.map(|r| {
        r.absorb(&engine.detector_stats());
        r.snapshot()
    });
    ForensicReport {
        transactions: engine.detectors().iter().map(|d| d.transactions_seen()).sum(),
        conversations,
        downloads,
        alerts: engine.total_alerts(),
        ingest: None,
        stats,
    }
}

/// A checkpoint consumer: receives each snapshot, errs to abort.
pub type SnapshotSink<'a> = &'a mut dyn FnMut(&EngineSnapshot) -> Result<(), String>;

/// Durability knobs for [`analyze_transactions_durable`].
#[derive(Default)]
pub struct DurableReplayOptions<'a> {
    /// Resume from this snapshot: restore the engine (re-partitioning
    /// into the configured shard count) and skip every transaction the
    /// snapshot's watermark already covers.
    pub resume: Option<EngineSnapshot>,
    /// Checkpoint cadence, in transactions fed between snapshots.
    /// `0` snapshots once, after the whole stream.
    pub checkpoint_every: u64,
    /// Receives every checkpoint (and the final snapshot). An `Err`
    /// aborts the replay — a sink that cannot persist must not let the
    /// run outlive its recoverability.
    pub snapshot_sink: Option<SnapshotSink<'a>>,
    /// Sleep between checkpoint chunks (lets crash-recovery harnesses
    /// kill a replay mid-stream deterministically).
    pub pace: Option<std::time::Duration>,
    /// Hot-reload `(model, at)`: atomically swap in `model` once the
    /// lifetime fed count reaches `at` transactions. Applied between
    /// checkpoint chunks; no transaction is dropped or reordered.
    pub reload: Option<(Classifier, u64)>,
}

/// Sharded forensic replay with a durable state tier: periodic
/// engine snapshots, resume-from-snapshot (including into a different
/// shard count), and an optional atomic model hot-reload mid-stream.
///
/// An interrupted replay resumed from its last checkpoint produces the
/// byte-identical [`ForensicReport`] of an uninterrupted run: restore
/// rebuilds every conversation, the watermark skips exactly the
/// transactions the interrupted run already fed, and the download scan
/// is a pure function of the full input stream.
///
/// # Errors
///
/// Returns the snapshot sink's error when persisting a checkpoint
/// fails (the replay is aborted at that point).
pub fn analyze_transactions_durable(
    transactions: &[HttpTransaction],
    classifier: Classifier,
    detector_config: DetectorConfig,
    config: StreamConfig,
    registry: Option<&Registry>,
    mut opts: DurableReplayOptions<'_>,
) -> Result<ForensicReport, String> {
    let threads = mlearn::parallel::resolve_threads(detector_config.scoring_threads);
    let own_registry;
    let reg = match registry {
        Some(r) => r,
        None => {
            own_registry = Registry::new();
            &own_registry
        }
    };
    let mut engine = match opts.resume.take() {
        Some(snap) => StreamEngine::restore(classifier, detector_config, config, reg, snap),
        None => StreamEngine::with_telemetry(classifier, detector_config, config, reg),
    };

    let (order, downloads) = order_and_downloads(transactions);
    let watermark = engine.watermark();
    let remaining: Vec<&HttpTransaction> = order
        .into_iter()
        .filter(|tx| !watermark.is_some_and(|wm| wm.covers(tx)))
        .collect();

    let chunk_len = match opts.checkpoint_every {
        0 => remaining.len().max(1),
        n => usize::try_from(n).unwrap_or(usize::MAX).max(1),
    };
    let mut reload = opts.reload.take();
    let mut sink = opts.snapshot_sink.take();
    let mut chunks = remaining.chunks(chunk_len).peekable();
    if chunks.peek().is_none() {
        // Nothing left to feed (fully-covered resume): still emit one
        // snapshot so the caller's checkpoint file reflects this run.
        if let Some(sink) = &mut sink {
            sink(&engine.snapshot())?;
        }
    }
    while let Some(chunk) = chunks.next() {
        if let Some((_, at)) = &reload {
            if engine.fed() >= *at {
                let (model, _) = reload.take().expect("checked above");
                engine.reload_model(model);
            }
        }
        engine.process(chunk.iter().map(|tx| (*tx).clone()));
        if let Some(sink) = &mut sink {
            sink(&engine.snapshot())?;
        }
        if let (Some(pace), true) = (opts.pace, chunks.peek().is_some()) {
            std::thread::sleep(pace);
        }
    }
    if let Some((model, _)) = reload {
        // The threshold was past the end of the stream: deploy before
        // the verdict pass so the requested model still lands.
        engine.reload_model(model);
    }
    Ok(finish_report(&mut engine, downloads, threads, registry))
}
