//! The run loop: pumps a [`TrafficSource`] into a [`StreamEngine`],
//! numbering transactions in feed order, maintaining the download
//! ledger, checkpointing between feed segments, hot-reloading the model,
//! and draining with zero loss on a termination signal. A live proxy and
//! a capture tail differ only in the source they hand it; a recorded
//! capture replays per client group instead
//! (`dynaminer::forensic::replay_capture`), from and into the same
//! snapshot files.
//!
//! The loop owns the ordering contract the engine's determinism rests
//! on: every emitted transaction gets the next ingest `seq` in feed
//! order (continuing a resumed snapshot's watermark), so a wire run
//! that delivers transactions in timestamp order produces the same
//! `(ts, seq)` total order — and therefore the same alerts and the
//! same [`ForensicReport`] — as an offline replay of the equivalent
//! capture file.
//!
//! Shutdown is the two-phase drain described on
//! [`TrafficSource`]: on the stop flag (typically latched by
//! [`crate::sys::install_termination_handler`]) the loop stops
//! pumping, flushes the source's half-open connections with
//! end-of-stream semantics, pushes every flushed transaction, and
//! only then lets the engine drain — so
//! `enqueued == processed + dropped` holds over everything the source
//! ever emitted, with nothing lost between socket and shard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dynaminer::classifier::Classifier;
use dynaminer::detector::Alert;
use dynaminer::forensic::{DownloadRecord, ForensicReport};
use nettrace::ingest::IngestReport;
use nettrace::source::{PumpOutcome, SourceStats, TrafficSource};
use nettrace::transaction::HttpTransaction;
use streamd::{finish_report, EngineSnapshot, StreamEngine};
use telemetry::Registry;

/// A checkpoint consumer: receives each snapshot, errs to abort.
pub type SnapshotSink<'a> = &'a mut dyn FnMut(&EngineSnapshot) -> Result<(), String>;

/// Knobs for one [`run`] call.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Snapshot cadence, in transactions fed between checkpoints —
    /// exact, whatever the size of the source's pumps. `0` checkpoints
    /// only once, after the source is exhausted.
    pub checkpoint_every: u64,
    /// Receives every checkpoint (and the final snapshot). An `Err`
    /// aborts the run — a sink that cannot persist must not let the
    /// run outlive its recoverability.
    pub snapshot_sink: Option<SnapshotSink<'a>>,
    /// Hot-reload `(model, at)`: atomically swap in `model` once the
    /// engine's lifetime fed count reaches `at` transactions. Applied
    /// at a segment boundary — or, if `at` is never reached, before
    /// the final verdict pass.
    pub reload: Option<(Classifier, u64)>,
    /// Stop after this long without the source making progress
    /// (test harnesses and drain-on-quiet deployments). `None` runs
    /// until the stop flag or source exhaustion.
    pub idle_timeout: Option<Duration>,
    /// How long one idle wait blocks for readiness, in milliseconds.
    pub poll_wait_ms: u32,
    /// Threads for the final batched verdict scoring.
    pub scoring_threads: usize,
    /// Registry the detector stats are folded into at the end, its
    /// snapshot riding on the report; `None` skips both. (Source-side
    /// series, [`crate::metrics`], are the source owner's to publish.)
    pub registry: Option<&'a Registry>,
}

/// Everything one [`run`] produced, with the accounting needed to
/// assert the zero-loss drain invariant end to end.
#[derive(Debug)]
pub struct RunSummary {
    /// Final forensic report (ingest populated from the source).
    pub report: ForensicReport,
    /// Every alert, concatenated across feed segments in emission
    /// order.
    pub alerts: Vec<Alert>,
    /// Transactions offered to shard queues, summed over segments.
    pub enqueued: u64,
    /// Transactions consumed by shard workers.
    pub processed: u64,
    /// Transactions dropped by the `DropNewest` policy
    /// (`enqueued == processed + dropped`).
    pub dropped: u64,
    /// Times the feeder blocked on a full queue.
    pub backpressure_waits: u64,
    /// Final source counters.
    pub stats: SourceStats,
    /// Final source ingest-health report.
    pub ingest: IngestReport,
    /// Snapshots handed to the sink.
    pub checkpoints: u64,
}

/// Pumps `source` into `engine` until exhaustion, idle timeout, or
/// `stop`, then closes out the report.
///
/// `stop` is read with relaxed ordering each iteration, so a signal
/// handler latch or another thread's store ends the run at the next
/// work-slice boundary, followed by the full graceful drain.
///
/// A restored engine continues its numbering and state, but the
/// download ledger is not in [`EngineSnapshot`]: the report lists the
/// downloads this call saw.
///
/// # Errors
///
/// A source pump error, a snapshot sink refusal, or a snapshot taken
/// mid-feed — all returned as strings for the CLI to print. The
/// engine is left drained (every feed segment completes) even on the
/// error paths.
pub fn run(
    source: &mut dyn TrafficSource,
    engine: &mut StreamEngine,
    stop: &AtomicBool,
    mut opts: RunOptions<'_>,
) -> Result<RunSummary, String> {
    // Continue the ingest numbering of whatever the engine already fed
    // (0 for a fresh engine), so a resumed run keeps the same total
    // order the interrupted run was building.
    let mut next_seq: u64 = engine.watermark().map(|w| w.seq + 1).unwrap_or(0);
    let mut downloads: Vec<DownloadRecord> = Vec::new();
    let mut alerts: Vec<Alert> = Vec::new();
    let (mut enqueued, mut processed, mut dropped, mut waits) = (0u64, 0u64, 0u64, 0u64);
    let mut checkpoints = 0u64;
    let mut reload = opts.reload.take();
    let mut flushed = false;
    // Outlives the segments: what a pump delivered past a checkpoint
    // cut waits here for the next one.
    let mut out: Vec<HttpTransaction> = Vec::new();
    let mut last_progress = Instant::now();
    let quiet_too_long =
        |since: Instant| opts.idle_timeout.is_some_and(|limit| since.elapsed() >= limit);

    let mut done = false;
    loop {
        // Due at a segment boundary — or, with a threshold the source
        // never reached, once it is done: before the verdict pass, so
        // the requested model still lands.
        if reload.as_ref().is_some_and(|(_, at)| done || engine.fed() >= *at) {
            let (model, _) = reload.take().expect("reload present");
            engine.reload_model(model);
        }
        if done {
            break;
        }

        let mut pump_err: Option<String> = None;
        // A segment ends `done` (source exhausted, stop flag drained,
        // idle timeout) or at the checkpoint cadence.
        let engine_report;
        (done, engine_report) = engine.feed(|handle| {
            let mut fed_this_segment = 0u64;
            loop {
                // A non-empty `out` was carried over a cut: feed it
                // before asking the source for more.
                if out.is_empty() && !flushed {
                    let finished = stop.load(Ordering::Relaxed)
                        || match source.pump(&mut out) {
                            Ok(PumpOutcome::Progress) => {
                                last_progress = Instant::now();
                                false
                            }
                            Ok(PumpOutcome::Idle) if !out.is_empty() => false,
                            Ok(PumpOutcome::Idle) if quiet_too_long(last_progress) => true,
                            Ok(PumpOutcome::Idle) => {
                                // Push what the batcher holds before
                                // blocking, so quiet periods don't sit
                                // on buffered transactions.
                                handle.flush();
                                source.wait(opts.poll_wait_ms);
                                false
                            }
                            Ok(PumpOutcome::Exhausted) => true,
                            Err(e) => {
                                // Cannot `?` out of the feed closure;
                                // drain what was already accepted, then
                                // surface.
                                pump_err = Some(e.to_string());
                                true
                            }
                        };
                    if finished {
                        // Two-phase drain: flush half-open connections
                        // to end-of-stream transactions, push them, and
                        // only then let the engine drain.
                        source.shutdown(&mut out);
                        flushed = true;
                    }
                }
                let room = match opts.checkpoint_every {
                    0 => out.len(),
                    every => usize::try_from(every - fed_this_segment).unwrap_or(usize::MAX),
                };
                for mut tx in out.drain(..room.min(out.len())) {
                    tx.seq = next_seq;
                    next_seq += 1;
                    fed_this_segment += 1;
                    // The ledger predicate of every replay path; feed
                    // order is the `(ts, seq)` order, so a wire run's
                    // ledger matches a replay of the equivalent capture.
                    downloads.extend(DownloadRecord::of(&tx));
                    handle.push(tx);
                }
                // Done before the cadence: a source that ends exactly
                // on it closes with this segment's snapshot, not with
                // an empty segment after it.
                if flushed && out.is_empty() {
                    break true;
                }
                if opts.checkpoint_every > 0 && fed_this_segment >= opts.checkpoint_every {
                    break false;
                }
            }
        });

        alerts.extend(engine_report.alerts);
        enqueued += engine_report.enqueued;
        processed += engine_report.processed;
        dropped += engine_report.dropped;
        waits += engine_report.backpressure_waits;

        if let Some(sink) = &mut opts.snapshot_sink {
            // Between feed calls the engine is quiescent — the only
            // place a snapshot is consistent.
            checkpoints += 1;
            sink(&engine.snapshot())?;
        }
        if let Some(e) = pump_err {
            return Err(e);
        }
    }

    let stats = source.stats();
    let ingest = source.ingest_report();
    let mut report = finish_report(engine, downloads, opts.scoring_threads.max(1), opts.registry);
    report.ingest = Some(ingest);
    Ok(RunSummary {
        report,
        alerts,
        enqueued,
        processed,
        dropped,
        backpressure_waits: waits,
        stats,
        ingest,
        checkpoints,
    })
}
