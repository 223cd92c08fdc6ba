//! The traffic-source abstraction: one interface over everything that
//! can deliver [`HttpTransaction`]s — a packet-capture reader, an
//! inline proxy, a replayed file ([`ReplaySource`], the one implementor
//! that lives here because it needs nothing but the transactions).
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

/// Transactions an unpaced [`ReplaySource`] hands over per pump.
const REPLAY_SLICE: usize = 256;

/// A recorded stream as a source: owns the transactions, sorts them
/// once into `(ts, seq)` feed order and *moves* them out a slice per
/// pump. The pump handing over the last slice already reports
/// [`PumpOutcome::Exhausted`], so the run loop never opens a feed
/// segment with nothing left to feed.
pub struct ReplaySource {
    rest: std::vec::IntoIter<HttpTransaction>,
    per_pump: usize,
    gap: Option<std::time::Duration>,
    emitted: u64,
}

impl ReplaySource {
    /// Takes ownership of `transactions` and orders them for replay.
    pub fn new(mut transactions: Vec<HttpTransaction>) -> Self {
        transactions.sort_by(crate::feed_order);
        ReplaySource { rest: transactions.into_iter(), per_pump: REPLAY_SLICE, gap: None, emitted: 0 }
    }

    /// Paces the replay for crash drills: `per_pump` transactions per
    /// pump (`0`: all in one) and a sleep of `gap` before every pump
    /// but the first — with `per_pump` the run's checkpoint cadence,
    /// one sleep between consecutive checkpoints.
    pub fn paced(mut self, per_pump: usize, gap: std::time::Duration) -> Self {
        self.per_pump = if per_pump == 0 { usize::MAX } else { per_pump };
        self.gap = Some(gap);
        self
    }

    /// What is still to be emitted, in feed order.
    pub fn remaining(&self) -> &[HttpTransaction] {
        self.rest.as_slice()
    }

    /// Drops the next `n` transactions unemitted (a resumed replay's
    /// already-fed prefix).
    pub fn skip(&mut self, n: usize) {
        self.rest.by_ref().take(n).for_each(drop);
    }
}

impl TrafficSource for ReplaySource {
    fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> crate::Result<PumpOutcome> {
        if let Some(gap) = self.gap.filter(|_| self.emitted > 0 && self.rest.len() > 0) {
            std::thread::sleep(gap);
        }
        let before = out.len();
        out.extend(self.rest.by_ref().take(self.per_pump));
        self.emitted += (out.len() - before) as u64;
        Ok(if self.rest.len() == 0 { PumpOutcome::Exhausted } else { PumpOutcome::Progress })
    }

    fn shutdown(&mut self, _out: &mut Vec<HttpTransaction>) {}

    fn stats(&self) -> SourceStats {
        SourceStats { transactions: self.emitted, ..SourceStats::default() }
    }

    /// Always empty: the transactions arrive already extracted, and
    /// whoever extracted them holds the ingest report.
    fn ingest_report(&self) -> IngestReport {
        IngestReport::new()
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

    fn tx(ts: f64, seq: u64) -> HttpTransaction {
        use crate::reassembly::Endpoint;
        use std::net::Ipv4Addr;
        HttpTransaction {
            seq,
            ts,
            resp_ts: ts,
            client: Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1),
            server: Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80),
            host: "a".into(),
            method: crate::http::Method::Get,
            uri: "/".into(),
            req_headers: crate::http::HeaderMap::new(),
            status: 200,
            resp_headers: crate::http::HeaderMap::new(),
            payload_class: crate::payload::PayloadClass::Html,
            payload_size: 0,
            body_preview: Vec::new(),
            payload_digest: 0,
        }
    }

    #[test]
    fn replay_source_sorts_once_and_exhausts_with_its_last_slice() {
        // Out of order on both keys; 5 transactions at 2 per pump.
        let stream = vec![tx(3.0, 0), tx(1.0, 4), tx(2.0, 2), tx(1.0, 1), tx(2.5, 3)];
        let mut source = ReplaySource::new(stream).paced(2, std::time::Duration::ZERO);
        let order = |txs: &[HttpTransaction]| txs.iter().map(|t| t.seq).collect::<Vec<_>>();
        assert_eq!(order(source.remaining()), [1, 4, 2, 3, 0]);

        // A resumed replay drops its already-fed prefix unemitted.
        source.skip(1);
        let mut out = Vec::new();
        assert_eq!(source.pump(&mut out).unwrap(), PumpOutcome::Progress);
        assert_eq!(order(&out), [4, 2]);
        assert_eq!(source.pump(&mut out).unwrap(), PumpOutcome::Exhausted);
        assert_eq!(order(&out), [4, 2, 3, 0]);
        assert_eq!(source.stats().transactions, 4);
        assert_eq!(source.pump(&mut out).unwrap(), PumpOutcome::Exhausted);
        assert_eq!(out.len(), 4);

        // Nothing to emit at all: exhausted on the first pump.
        let mut empty = ReplaySource::new(Vec::new());
        assert_eq!(empty.pump(&mut out).unwrap(), PumpOutcome::Exhausted);
    }
}
