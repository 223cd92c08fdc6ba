//! The traffic-source abstraction: one interface over everything that
//! delivers [`HttpTransaction`]s live — a packet-capture reader or an
//! inline proxy. (A recorded capture needs no source: it is replayed
//! whole, per client group.)
//!
//! A [`TrafficSource`] is *pumped*: each call does a bounded amount of
//! non-blocking work (accept connections, read sockets, parse frames)
//! and appends whatever transactions completed to the caller's vector.
//! The caller owns the loop — it interleaves pumping with feeding a
//! stream engine, checkpointing, and shutdown signalling — and the
//! [`PumpOutcome`] tells it whether to spin again immediately, sleep,
//! or wind down. This inversion keeps every source single-threaded and
//! testable: a unit test pumps by hand, the production loop adds
//! `poll(2)` and signals around the same calls.
//!
//! Shutdown is two-phase, matching the stream engine's zero-loss drain
//! contract: the loop stops pumping, calls
//! [`TrafficSource::shutdown`] — which flushes every half-open
//! connection with end-of-stream semantics (status-0 transactions for
//! unanswered requests) — and only then drains the engine. After
//! shutdown the source's [`SourceStats`] are final, and
//! `transactions == ` everything ever appended, so the caller can
//! assert `enqueued == processed + dropped` end to end.

use crate::ingest::IngestReport;
use crate::transaction::HttpTransaction;

/// What one pump accomplished, driving the caller's scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpOutcome {
    /// Work was done (bytes moved, connections accepted, transactions
    /// emitted); pump again without waiting.
    Progress,
    /// Nothing ready right now; the caller may block on readiness or
    /// sleep briefly.
    Idle,
    /// The source is finished (capture file exhausted, listener
    /// closed) and will never produce again; stop pumping.
    Exhausted,
}

/// Cumulative counters every source maintains, uniform across capture
/// and proxy so the run loop and telemetry treat them alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Application-layer bytes taken off the wire.
    pub bytes_in: u64,
    /// Transactions appended to callers' vectors, total.
    pub transactions: u64,
    /// Connections (or capture flows) observed.
    pub connections: u64,
    /// Connections whose observation was abandoned because a single
    /// HTTP message could not fit the tap buffer
    /// ([`crate::wiretap::ConnectionTap::overflowed`]).
    pub tap_overflows: u64,
    /// Input units the source itself lost before HTTP parsing:
    /// kernel/ring drops for capture sources, rejected connections for
    /// proxies.
    pub source_drops: u64,
}

/// A pumpable producer of live HTTP transactions.
pub trait TrafficSource {
    /// Does one bounded slice of non-blocking work, appending any
    /// transactions that completed to `out` (digested, `seq == 0` —
    /// the caller numbers them in feed order).
    ///
    /// # Errors
    ///
    /// Returns an error only for unrecoverable source failures (the
    /// listener died, the capture descriptor broke) — per-connection
    /// and per-message problems are absorbed into the ingest report
    /// and stats instead.
    fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> crate::Result<PumpOutcome>;

    /// Flushes every half-open connection with end-of-stream
    /// semantics, appending final transactions to `out`. Called once,
    /// after the last `pump`; the source must be quiescent afterwards.
    fn shutdown(&mut self, out: &mut Vec<HttpTransaction>);

    /// Cumulative counters (final once `shutdown` has run).
    fn stats(&self) -> SourceStats;

    /// The source's cumulative ingest-health report, same vocabulary
    /// as offline capture ingest.
    fn ingest_report(&self) -> IngestReport;

    /// Blocks up to `ms` milliseconds for the source to become ready
    /// again after an [`PumpOutcome::Idle`] pump. The default sleeps;
    /// descriptor-backed sources override this with a real readiness
    /// wait (`poll(2)`) so idle loops wake on arrival, not on a timer.
    fn wait(&mut self, ms: u32) {
        std::thread::sleep(std::time::Duration::from_millis(u64::from(ms)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canned source, exercising the trait contract the run loop
    /// relies on (and proving the trait is object-safe).
    struct Canned {
        batches: Vec<Vec<HttpTransaction>>,
        emitted: u64,
        shut: bool,
    }

    impl TrafficSource for Canned {
        fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> crate::Result<PumpOutcome> {
            match self.batches.pop() {
                Some(batch) => {
                    self.emitted += batch.len() as u64;
                    out.extend(batch);
                    Ok(PumpOutcome::Progress)
                }
                None => Ok(PumpOutcome::Exhausted),
            }
        }

        fn shutdown(&mut self, _out: &mut Vec<HttpTransaction>) {
            self.shut = true;
        }

        fn stats(&self) -> SourceStats {
            SourceStats { transactions: self.emitted, ..SourceStats::default() }
        }

        fn ingest_report(&self) -> IngestReport {
            IngestReport::new()
        }
    }

    #[test]
    fn pump_loop_drains_then_shuts_down() {
        let mut source: Box<dyn TrafficSource> =
            Box::new(Canned { batches: vec![Vec::new(), Vec::new()], emitted: 0, shut: false });
        let mut out = Vec::new();
        let mut pumps = 0;
        while source.pump(&mut out).unwrap() != PumpOutcome::Exhausted {
            pumps += 1;
            assert!(pumps < 100);
        }
        source.shutdown(&mut out);
        assert_eq!(pumps, 2);
        assert_eq!(source.stats().transactions, 0);
    }
}
