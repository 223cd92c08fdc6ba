//! Reference computations the workloads' outputs are checked against.

use std::time::Instant;

use dynaminer::classifier::Classifier;
use dynaminer::detector::{Alert, DetectorConfig, OnTheWireDetector};
use dynaminer::forensic::{
    analyze_transactions, ConversationVerdict, DownloadRecord, ForensicReport,
};
use nettrace::HttpTransaction;

use crate::gen::{fnv1a, FNV_OFFSET};
use crate::trace::Tracer;

/// Digest of everything a report says about its conversations and
/// downloads. The download ledger is folded order-free: the wire
/// workload feeds in arrival order, the offline reference in `(ts, seq)`
/// order, and both must list the same records.
pub fn report_digest(report: &ForensicReport) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(report.transactions as u64).to_le_bytes());
    h = fnv1a(h, &(report.alerts as u64).to_le_bytes());
    for c in &report.conversations {
        h = verdict_digest(h, c);
    }
    let ledger = report.downloads.iter().fold(0u64, |acc, d| {
        let mut r = fnv1a(FNV_OFFSET, d.host.as_bytes());
        r = fnv1a(r, &(d.size as u64).to_le_bytes());
        r = fnv1a(r, &d.digest.to_le_bytes());
        acc.wrapping_add(fnv1a(r, &d.ts.to_bits().to_le_bytes()))
    });
    fnv1a(h, &ledger.to_le_bytes())
}

fn verdict_digest(h: u64, c: &ConversationVerdict) -> u64 {
    let mut h = fnv1a(h, &c.id.to_le_bytes());
    h = fnv1a(h, &(c.transactions as u64).to_le_bytes());
    h = fnv1a(h, &c.score.to_bits().to_le_bytes());
    h = fnv1a(h, &[u8::from(c.alerted)]);
    fnv1a(h, &(c.hosts as u64).to_le_bytes())
}

/// Threads for the final verdict pass: one, so it runs on the calling
/// thread, whose CPU clock a pass reads. (The default, one per CPU,
/// scores on scoped workers whose clocks nobody outside can read; the
/// scores are bit-identical at any thread count.)
pub const SCORING_THREADS: usize = 1;

/// The configuration every workload runs the detector with: the
/// default, scoring on [`SCORING_THREADS`].
pub fn detector_config() -> DetectorConfig {
    DetectorConfig {
        scoring_threads: SCORING_THREADS,
        ..DetectorConfig::default()
    }
}

/// What one detector on one thread makes of a `(ts, seq)`-ordered
/// stream: what the engine's and the proxy's outputs are held against.
pub struct Reference {
    pub alerts: Vec<AlertKey>,
    pub digest: u64,
}

/// The report is the library's own `analyze_transactions` over the
/// stream; the alerts come from feeding one detector directly, since a
/// report only counts them.
pub fn reference(stream: &[HttpTransaction], classifier: &Classifier) -> Reference {
    let report = analyze_transactions(stream, classifier.clone(), detector_config());
    let mut detector = OnTheWireDetector::new(classifier.clone(), detector_config());
    for tx in stream {
        detector.observe(tx);
    }
    Reference {
        alerts: alert_keys(detector.alerts()),
        digest: report_digest(&report),
    }
}

/// The download-ledger entry of `tx`, by the predicate the replay paths
/// under test share: a 2xx answer carrying an exploit-type payload.
pub fn download_record(tx: &HttpTransaction) -> Option<DownloadRecord> {
    (tx.status / 100 == 2 && tx.payload_size > 0 && tx.payload_class.is_exploit_type()).then(|| {
        DownloadRecord {
            host: tx.host.clone(),
            class: tx.payload_class,
            size: tx.payload_size,
            digest: tx.payload_digest,
            ts: tx.ts,
        }
    })
}

/// The identity of an alert: who, what tipped it, and when.
pub type AlertKey = (std::net::Ipv4Addr, String, u64);

/// Alert keys, sorted, so two alert sets compare whatever order the
/// alerts were raised in.
pub fn alert_keys(alerts: &[Alert]) -> Vec<AlertKey> {
    let mut keys: Vec<AlertKey> = alerts
        .iter()
        .map(|a| (a.client, a.trigger_host.clone(), a.ts.to_bits()))
        .collect();
    keys.sort();
    keys
}

/// What a single-threaded replay of a stream produced, and what its two
/// stages cost.
pub struct Replay {
    pub alerts: Vec<Alert>,
    pub report: ForensicReport,
    pub observe_ns: u64,
    /// CPU time of the calling thread over the observe loop.
    pub observe_cpu_ns: u64,
    pub finish_ns: u64,
    /// Heap acquisitions during the observe loop (0 without a counter).
    pub observe_allocs: u64,
    /// One in [`SAMPLE_EVERY`] observe calls, timed on its own.
    pub observe_samples_ns: Vec<u64>,
    pub detector: OnTheWireDetector,
}

/// Every how many observe calls one is timed individually.
pub const SAMPLE_EVERY: usize = 16;

/// Replays an owned `(ts, seq)`-ordered stream through one
/// [`OnTheWireDetector`] on the calling thread (`observe_owned`, as a
/// shard worker does), stage by stage inside spans — the traced runs'
/// single-threaded baseline, which the engine's hand-off cost is
/// measured against. (The outputs' reference is [`reference`].)
pub fn replay_owned(
    stream: Vec<HttpTransaction>,
    classifier: Classifier,
    allocations: fn() -> u64,
    tracer: &mut Tracer,
) -> Replay {
    replay(
        stream.into_iter(),
        |tx| tx,
        |d, tx| d.observe_owned(tx),
        classifier,
        allocations,
        tracer,
    )
}

/// The same over a borrowed slice in any order: sorts by `(ts, seq)` and
/// clones each transaction in (`observe`), step for step what
/// `analyze_transactions` does with a capture's transactions.
pub fn replay_borrowed(
    transactions: &[HttpTransaction],
    classifier: Classifier,
    allocations: fn() -> u64,
    tracer: &mut Tracer,
) -> Replay {
    let mut order: Vec<&HttpTransaction> = transactions.iter().collect();
    order.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(a.seq.cmp(&b.seq)));
    replay(
        order.into_iter(),
        |tx| *tx,
        |d, tx| d.observe(tx),
        classifier,
        allocations,
        tracer,
    )
}

fn replay<T>(
    stream: impl Iterator<Item = T>,
    peek: impl Fn(&T) -> &HttpTransaction,
    mut observe: impl FnMut(&mut OnTheWireDetector, T) -> Option<Alert>,
    classifier: Classifier,
    allocations: fn() -> u64,
    tracer: &mut Tracer,
) -> Replay {
    let mut detector = OnTheWireDetector::new(classifier, detector_config());
    let mut downloads = Vec::new();
    let mut observe_samples_ns = Vec::new();
    let (allocs, cpu) = (allocations(), telemetry::thread_cpu_ns());
    let ((), observe_ns) = tracer.span("core.observe", |t| {
        let mut n = 0usize;
        for item in stream {
            downloads.extend(download_record(peek(&item)));
            if n.is_multiple_of(SAMPLE_EVERY) {
                let started = Instant::now();
                observe(&mut detector, item);
                observe_samples_ns.push(started.elapsed().as_nanos() as u64);
            } else {
                observe(&mut detector, item);
            }
            n += 1;
        }
        t.count(n as u64);
    });
    let observe_cpu_ns = telemetry::thread_cpu_ns().saturating_sub(cpu);
    let observe_allocs = allocations() - allocs;
    let (report, finish_ns) = tracer.span("core.finish", |_| {
        finish_single(&mut detector, downloads, SCORING_THREADS)
    });
    Replay {
        alerts: detector.alerts().to_vec(),
        report,
        observe_ns,
        observe_cpu_ns,
        finish_ns,
        observe_allocs,
        observe_samples_ns,
        detector,
    }
}

/// The allocation counter of a binary that does not count.
pub fn no_allocations() -> u64 {
    0
}

/// The final verdict pass over one detector's conversations, as
/// `analyze_transactions` runs it; a staged pass checks its report
/// against the library's, so the two cannot drift apart unnoticed.
pub fn finish_single(
    detector: &mut OnTheWireDetector,
    downloads: Vec<DownloadRecord>,
    threads: usize,
) -> ForensicReport {
    detector.rehydrate_all();
    let classifier = detector.classifier();
    let convs: Vec<_> = detector.tracker().conversations().collect();
    let slices: Vec<&[HttpTransaction]> = convs.iter().map(|c| c.transactions.as_slice()).collect();
    let scores = classifier.score_conversations_batch(&slices, threads);
    let conversations = convs
        .iter()
        .zip(scores)
        .map(|(c, score)| ConversationVerdict {
            id: c.id,
            transactions: c.transactions.len(),
            score,
            alerted: c.alerted,
            hosts: c.hosts().count(),
        })
        .collect();
    ForensicReport {
        transactions: detector.transactions_seen(),
        conversations,
        downloads,
        alerts: detector.alerts().len(),
        ingest: None,
        stats: None,
    }
}

/// Failed checks of one run: how many operations failed and the first
/// few reasons, for the result file and the terminal.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Verdict {
    /// Counts `ops` operations of which `failed` failed for `reason`.
    pub fn record(&mut self, ops: u64, failed: u64, reason: impl FnOnce() -> String) {
        self.attempted += ops;
        if failed > 0 {
            self.failed += failed;
            if self.reasons.len() < 8 {
                self.reasons.push(reason());
            }
        }
    }

    /// A check that is not a count of operations: it fails the run
    /// (one failed operation) when `ok` is false.
    pub fn require(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.record(0, u64::from(!ok), reason);
    }
}
