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
//! * [`EngineSnapshot`] — the durable image of an engine between feed
//!   segments; [`StreamEngine::restore`] rebuilds one from it at *any*
//!   shard count.
//! * [`finish_report`] — the final verdict pass every report ends in.
//!   With `retention: None` and non-binding caps, an engine's
//!   [`ForensicReport`] is identical to the single-threaded
//!   [`analyze_transactions`](dynaminer::forensic::analyze_transactions)
//!   at any shard count.
//!
//! The loop driving an engine from a source (numbering, checkpoint
//! cadence, hot-reload, drain) is `wirefront::run`, for live and
//! recorded traffic alike.
//!
//! See DESIGN.md §12 for the architecture and the exact determinism
//! contract (including what changes in the capped regime), and §13 for
//! the snapshot format and restore semantics.

mod engine;
mod queue;
mod snapshot;

pub use engine::{
    shard_of, BackpressurePolicy, EngineReport, FeedHandle, StreamConfig, StreamEngine,
};
pub use snapshot::{read_snapshot, write_snapshot_atomic, EngineSnapshot, Watermark};

use dynaminer::forensic::{DownloadRecord, ForensicReport};
use nettrace::HttpTransaction;
use telemetry::Registry;

/// Sorts a stream into `(ts, seq)` order and scans it for exploit-type
/// downloads (the scan is a pure function of the input stream).
///
/// Public so external replay harnesses (the drift lab feeds an engine
/// epoch by epoch) can build the same download ledger the run loop
/// uses.
pub fn order_and_downloads(
    transactions: &[HttpTransaction],
) -> (Vec<&HttpTransaction>, Vec<DownloadRecord>) {
    let mut order: Vec<&HttpTransaction> = transactions.iter().collect();
    order.sort_by(|a, b| nettrace::feed_order(a, b));
    let downloads = order.iter().filter_map(|tx| DownloadRecord::of(tx)).collect();
    (order, downloads)
}

/// Final verdict pass and report assembly: each shard's detector runs
/// its own [`final_verdicts`](dynaminer::detector::OnTheWireDetector::final_verdicts)
/// sweep and the verdicts are reassembled by id, which reproduces the
/// single tracker's iteration order — client-scoped ids sort
/// client-major, like its BTreeMap.
///
/// Public so harnesses that drive a long-lived engine across several
/// `process` calls (epoch-by-epoch drift replay) can close it out with
/// the exact report the run loop produces.
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
