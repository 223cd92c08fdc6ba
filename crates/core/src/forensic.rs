//! Forensic (offline) detection on recorded traffic (Sec. VI-C).
//!
//! A recorded capture is replayed through the same machinery the live
//! detector uses: transactions are clustered into conversations, each
//! conversation's WCG is classified, and a report lists per-conversation
//! verdicts plus every payload download (so the downloads can be compared
//! against an external scanner, as the paper does with VirusTotal).
//!
//! [`analyze_transactions`] replays one stream into one detector; it is
//! the oracle. [`replay_capture`] is the capture replay, the one
//! `dynaminer replay` runs and [`analyze_pcap_lenient`] calls: a detector
//! per client group over one shared model. Without checkpoints a group
//! replays, sweeps at one thread and is dropped on the pool worker that
//! paired it. With them ([`Checkpoints`]) the detectors stop at the
//! cadence's positions in the whole capture's `(ts, seq)` order.
//! Conversations are per client, so the groups' verdicts merged by id and
//! downloads by feed order are the oracle's report on either schedule.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use mlearn::slot::ModelSlot;
use nettrace::payload::PayloadClass;
use nettrace::{HttpTransaction, IngestReport, SpanPipeline};
use serde::{Deserialize, Serialize};
use telemetry::pool::shard_of;
use telemetry::{Registry, Snapshot};

use crate::classifier::Classifier;
use crate::detector::{DetectorConfig, DetectorState, OnTheWireDetector};

/// A payload download observed during replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DownloadRecord {
    /// Serving host.
    pub host: String,
    /// Payload type.
    pub class: PayloadClass,
    /// Declared size in bytes.
    pub size: usize,
    /// Content digest (for external scanning).
    pub digest: u64,
    /// Download timestamp.
    pub ts: f64,
}

/// Verdict for one conversation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConversationVerdict {
    /// Conversation id.
    pub id: u64,
    /// Number of transactions.
    pub transactions: usize,
    /// Final classifier score (infection probability).
    pub score: f64,
    /// Whether the detector alerted on this conversation.
    pub alerted: bool,
    /// Unique hosts contacted.
    pub hosts: usize,
}

/// The outcome of a forensic replay.
#[derive(Debug, Clone)]
pub struct ForensicReport {
    /// Total transactions replayed (after trusted-vendor weed-out).
    pub transactions: usize,
    /// Per-conversation verdicts.
    pub conversations: Vec<ConversationVerdict>,
    /// Every payload download observed (exploit-ish types only).
    pub downloads: Vec<DownloadRecord>,
    /// Number of alerts raised.
    pub alerts: usize,
    /// Ingest-health counters from lenient capture decoding; `None` when
    /// the report came from pre-extracted transactions or a strict parse.
    pub ingest: Option<nettrace::IngestReport>,
    /// Pipeline telemetry captured during the replay; `None` unless the
    /// report was closed out against a registry (`streamd::finish_report`,
    /// which every engine-driven run ends in).
    pub stats: Option<telemetry::Snapshot>,
}

impl ForensicReport {
    /// Conversations the detector alerted on.
    pub fn infected_conversations(&self) -> impl Iterator<Item = &ConversationVerdict> {
        self.conversations.iter().filter(|c| c.alerted)
    }
}

// Serialization is hand-written (not derived) so a strict-mode report —
// `ingest: None` — serializes without the field and stays byte-identical
// to reports from before lenient ingestion existed.
impl Serialize for ForensicReport {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::Error as _;
        let field = |v: Result<serde::Value, serde::ValueError>| v.map_err(S::Error::custom);
        let mut fields = vec![
            ("transactions".to_string(), field(serde::to_value(&self.transactions))?),
            ("conversations".to_string(), field(serde::to_value(&self.conversations))?),
            ("downloads".to_string(), field(serde::to_value(&self.downloads))?),
            ("alerts".to_string(), field(serde::to_value(&self.alerts))?),
        ];
        if let Some(ingest) = &self.ingest {
            fields.push(("ingest".to_string(), field(serde::to_value(ingest))?));
        }
        if let Some(stats) = &self.stats {
            fields.push(("stats".to_string(), field(serde::to_value(stats))?));
        }
        serializer.serialize_value(serde::Value::Object(fields))
    }
}

impl<'de> Deserialize<'de> for ForensicReport {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let serde::Value::Object(mut fields) = deserializer.deserialize_value()? else {
            return Err(D::Error::custom("ForensicReport: expected object"));
        };
        fn req<T: serde::de::DeserializeOwned, E: serde::de::Error>(
            fields: &mut Vec<(String, serde::Value)>,
            name: &'static str,
        ) -> Result<T, E> {
            let v = serde::__private::take_field(fields, name)
                .ok_or_else(|| E::missing_field(name))?;
            serde::from_value(v).map_err(E::custom)
        }
        let transactions = req(&mut fields, "transactions")?;
        let conversations = req(&mut fields, "conversations")?;
        let downloads = req(&mut fields, "downloads")?;
        let alerts = req(&mut fields, "alerts")?;
        let ingest = match serde::__private::take_field(&mut fields, "ingest") {
            None | Some(serde::Value::Null) => None,
            Some(v) => Some(serde::from_value(v).map_err(D::Error::custom)?),
        };
        let stats = match serde::__private::take_field(&mut fields, "stats") {
            None | Some(serde::Value::Null) => None,
            Some(v) => Some(serde::from_value(v).map_err(D::Error::custom)?),
        };
        Ok(ForensicReport { transactions, conversations, downloads, alerts, ingest, stats })
    }
}

impl DownloadRecord {
    /// The download-ledger entry of `tx`, if it is one: a 2xx answer
    /// carrying an exploit-type payload.
    pub fn of(tx: &HttpTransaction) -> Option<DownloadRecord> {
        (tx.status / 100 == 2 && tx.payload_size > 0 && tx.payload_class.is_exploit_type()).then(
            || DownloadRecord {
                host: tx.host.clone(),
                class: tx.payload_class,
                size: tx.payload_size,
                digest: tx.payload_digest,
                ts: tx.ts,
            },
        )
    }
}

/// Replays a transaction stream through one detector and summarizes it.
/// The stream is copied once, sorted in feed order and moved into the
/// detector.
pub fn analyze_transactions(
    transactions: &[HttpTransaction],
    classifier: Classifier,
    config: DetectorConfig,
) -> ForensicReport {
    let mut detector = OnTheWireDetector::new(classifier, config);
    let mut transactions = transactions.to_vec();
    transactions.sort_by(nettrace::feed_order);
    let downloads = transactions.iter().filter_map(DownloadRecord::of).collect();
    for tx in transactions {
        detector.observe_owned(tx);
    }
    let threads = telemetry::pool::resolve_threads(detector.config().scoring_threads);
    let conversations = detector.final_verdicts(threads);
    ForensicReport {
        transactions: detector.transactions_seen(),
        conversations,
        downloads,
        alerts: detector.alerts().len(),
        ingest: None,
        stats: None,
    }
}

/// Replays a capture byte stream (classic pcap or pcapng, detected by
/// magic) in graceful-degradation mode: damaged records, malformed
/// streams, and broken encodings are skipped (and accounted in the
/// report's [`ingest`](ForensicReport::ingest) counters) instead of
/// failing the replay. Never errors, whatever the input: it is
/// [`replay_capture`] on every core, lenient, without checkpoints.
pub fn analyze_pcap_lenient(
    pcap_bytes: &[u8],
    classifier: Classifier,
    config: DetectorConfig,
) -> ForensicReport {
    replay_capture(pcap_bytes, classifier, config, ReplayOptions::default())
        .expect("a lenient replay without checkpoints has nothing to fail on")
}

/// How [`replay_capture`] runs.
#[derive(Default)]
pub struct ReplayOptions<'a> {
    /// Pool workers that pair and replay the capture (`0`: one per core).
    pub workers: usize,
    /// Fail on the first unparseable byte, as
    /// [`SpanPipeline::extract_capture_strict`] does; no ingest report.
    pub strict: bool,
    /// Registry the ingest and detector series are folded into, its
    /// snapshot riding on the report as `stats`.
    pub registry: Option<&'a Registry>,
    /// Stop at checkpoint cuts; `None` replays each group on the worker
    /// that paired it.
    pub checkpoints: Option<Checkpoints<'a>>,
}

/// Where a checkpointed [`replay_capture`] stops, and what it does there.
#[derive(Default)]
pub struct Checkpoints<'a> {
    /// Transactions fed between cuts; `0` cuts once, at the end.
    pub every: u64,
    /// Gets the checkpoint of every cut, the last one included; an `Err`
    /// aborts the replay.
    pub sink: Option<&'a mut dyn FnMut(Checkpoint) -> Result<(), String>>,
    /// `(model, at)`: swapped in at the first cut once `at` transactions
    /// have been fed, or before the final verdicts if no cut comes.
    pub reload: Option<(Classifier, u64)>,
    /// Sleep after every cut but the last (crash drills).
    pub pace: Duration,
    /// A checkpoint of this capture to restore; the positions it covers
    /// are not fed again.
    pub resume: Option<Checkpoint>,
}

/// The durable state of a checkpointed replay at a cut.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// `(ts, position)` of the last transaction fed, positions numbering
    /// the capture in `(ts, seq)` order; `None` before the first.
    pub watermark: Option<(f64, u64)>,
    /// Transactions fed, a resumed replay's included.
    pub fed: u64,
    /// How many detectors' states are merged here.
    pub detectors: u32,
    /// Generation of the deployed model.
    pub model_version: u64,
    /// The detectors' merged states.
    pub detector: DetectorState,
    /// The detectors' telemetry, a resumed replay's included, without
    /// gauges (restored detectors publish them again).
    pub stats: Snapshot,
}

/// Why [`replay_capture`] gave no report.
#[derive(Debug)]
pub enum ReplayError {
    /// A strict replay's first unparseable byte.
    Capture(nettrace::Error),
    /// A checkpoint the sink refused, or one of another capture.
    Checkpoint(String),
}

/// Replays a capture one client group at a time, each group into its
/// own detector over one shared model. Without checkpoints a group
/// replays and sweeps on the worker that paired it
/// ([`SpanPipeline::extract_grouped`]). With them the whole capture is
/// numbered in `(ts, seq)` order, split by client over as many
/// detectors, and fed one cadence of positions at a time: at each cut a
/// due reload swaps the shared model, the sink gets the merged
/// [`Checkpoint`] and `pace` sleeps.
///
/// # Errors
///
/// A strict replay's first stop, a checkpoint the sink refused, or a
/// resumed checkpoint whose watermark is not at the position its fed
/// count implies, holding that position's timestamp.
pub fn replay_capture(
    capture: &[u8],
    classifier: Classifier,
    config: DetectorConfig,
    opts: ReplayOptions<'_>,
) -> Result<ForensicReport, ReplayError> {
    let ReplayOptions { workers, strict, registry, checkpoints } = opts;
    let workers = telemetry::pool::resolve_threads(workers);
    let model = ModelSlot::new(classifier);
    let mut ingest = IngestReport::new();
    let mut pipeline = SpanPipeline::new();
    let (groups, carried) = match checkpoints {
        None => {
            let (groups, stop) = pipeline.extract_grouped(capture, &mut ingest, workers, |txs| {
                replay_group(&model, &config, txs)
            });
            if strict {
                stop.map_err(ReplayError::Capture)?;
            }
            (groups, Snapshot::default())
        }
        Some(cuts) => {
            let (groups, stop) = pipeline.extract_grouped(capture, &mut ingest, workers, |txs| txs);
            if strict {
                stop.map_err(ReplayError::Capture)?;
            }
            replay_cut(groups, &model, &config, workers, cuts)?
        }
    };
    let ingest = (!strict).then_some(ingest);
    let stats = registry.map(|registry| {
        if let Some(ingest) = &ingest {
            nettrace::ingest::publish(registry, ingest);
        }
        registry.absorb(&carried);
        groups.iter().for_each(|g| registry.absorb(&g.telemetry.snapshot()));
        registry.snapshot()
    });
    Ok(ForensicReport { ingest, stats, ..merge(groups) })
}

/// One client group's share of the report, downloads keyed by feed
/// order `(ts, seq)`, and its detector's registry.
struct GroupReport {
    conversations: Vec<ConversationVerdict>,
    downloads: Vec<((f64, u64), DownloadRecord)>,
    transactions: usize,
    alerts: usize,
    telemetry: Registry,
}

/// One client group's detector, its downloads, and the transactions it
/// has still to be fed, in feed order.
struct Group {
    detector: OnTheWireDetector,
    downloads: Vec<((f64, u64), DownloadRecord)>,
    rest: std::vec::IntoIter<HttpTransaction>,
}

impl Group {
    fn new(
        model: &ModelSlot<Classifier>,
        config: &DetectorConfig,
        txs: Vec<HttpTransaction>,
    ) -> Group {
        Group {
            detector: OnTheWireDetector::with_model_slot(
                model.clone(),
                config.clone(),
                &Registry::new(),
            ),
            downloads: txs
                .iter()
                .filter_map(|tx| Some(((tx.ts, tx.seq), DownloadRecord::of(tx)?)))
                .collect(),
            rest: txs.into_iter(),
        }
    }

    /// Feeds the transactions numbered before `end`.
    fn feed_before(&mut self, end: u64) {
        let n = self.rest.as_slice().partition_point(|tx| tx.seq < end);
        for tx in self.rest.by_ref().take(n) {
            self.detector.observe_owned(tx);
        }
    }

    /// The final verdicts, swept at one thread, and the group's counts.
    fn finish(&mut self) -> GroupReport {
        GroupReport {
            conversations: self.detector.final_verdicts(1),
            downloads: std::mem::take(&mut self.downloads),
            transactions: self.detector.transactions_seen(),
            alerts: self.detector.alerts().len(),
            telemetry: self.detector.telemetry().clone(),
        }
    }
}

/// A client group replayed whole.
fn replay_group(
    model: &ModelSlot<Classifier>,
    config: &DetectorConfig,
    txs: Vec<HttpTransaction>,
) -> GroupReport {
    let mut group = Group::new(model, config, txs);
    group.feed_before(u64::MAX);
    group.finish()
}

fn lock(group: &Mutex<Group>) -> MutexGuard<'_, Group> {
    group.lock().expect("no group is locked across a panic")
}

/// The checkpointed schedule over the paired groups: the groups' reports
/// and the telemetry a resumed checkpoint carried in.
fn replay_cut(
    groups: Vec<Vec<HttpTransaction>>,
    model: &ModelSlot<Classifier>,
    config: &DetectorConfig,
    workers: usize,
    cuts: Checkpoints<'_>,
) -> Result<(Vec<GroupReport>, Snapshot), ReplayError> {
    let n = groups.len().max(1);
    let mut stream: Vec<HttpTransaction> = groups.into_iter().flatten().collect();
    stream.sort_by(nettrace::feed_order);
    nettrace::assign_seq(&mut stream);
    let ts: Vec<f64> = stream.iter().map(|tx| tx.ts).collect();
    let total = ts.len() as u64;
    let Checkpoints { every, mut sink, mut reload, pace, resume } = cuts;
    let (mut next, mut carried, mut states) = (0, Snapshot::default(), Vec::new());
    if let Some(resume) = resume {
        let matches = match resume.watermark {
            None => resume.fed == 0,
            Some((mark, at)) => {
                at.checked_add(1) == Some(resume.fed)
                    && usize::try_from(at)
                        .ok()
                        .and_then(|at| ts.get(at))
                        .is_some_and(|t| t.to_bits() == mark.to_bits())
            }
        };
        if !matches {
            return Err(ReplayError::Checkpoint(format!(
                "snapshot does not match this capture: {} fed up to number {}, which is not at \
                 that position among this stream's {total}",
                resume.fed,
                resume.watermark.map_or(0, |(_, at)| at),
            )));
        }
        next = resume.fed;
        model.force_version(resume.model_version);
        carried = resume.stats;
        states = resume.detector.partition(n, |addr| shard_of(addr, n));
    }
    let mut parts = vec![Vec::new(); n];
    for tx in stream {
        parts[shard_of(tx.client.addr, n)].push(tx);
    }
    let mut states = states.into_iter();
    let groups: Vec<Mutex<Group>> = parts
        .into_iter()
        .map(|txs| {
            let mut group = Group::new(model, config, txs);
            if let Some(state) = states.next() {
                group.detector.restore_state(state);
            }
            let covered = group.rest.as_slice().partition_point(|tx| tx.seq < next);
            group.rest.by_ref().take(covered).for_each(drop);
            Mutex::new(group)
        })
        .collect();
    let mut done = false;
    loop {
        if reload.as_ref().is_some_and(|&(_, at)| done || next >= at) {
            model.swap(reload.take().expect("a reload is due").0);
        }
        if done {
            break;
        }
        let end = match every {
            0 => total,
            every => total.min(next.saturating_add(every)),
        };
        telemetry::pool::run_indexed(n, workers, |g| lock(&groups[g]).feed_before(end));
        next = end;
        done = next == total;
        if let Some(sink) = sink.as_mut() {
            let watermark = next.checked_sub(1).map(|at| (ts[at as usize], at));
            sink(checkpoint(&groups, &carried, model, watermark, next))
                .map_err(ReplayError::Checkpoint)?;
        }
        if !done && !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    let reports = telemetry::pool::run_indexed(n, workers, |g| lock(&groups[g]).finish());
    Ok((reports, carried))
}

/// The groups' merged state at a cut, while every group detector is idle.
fn checkpoint(
    groups: &[Mutex<Group>],
    carried: &Snapshot,
    model: &ModelSlot<Classifier>,
    watermark: Option<(f64, u64)>,
    fed: u64,
) -> Checkpoint {
    let groups: Vec<MutexGuard<'_, Group>> = groups.iter().map(lock).collect();
    let stats = Registry::new();
    stats.absorb(carried);
    groups.iter().for_each(|g| stats.absorb(&g.detector.telemetry().snapshot()));
    let mut stats = stats.snapshot();
    stats.gauges.clear();
    Checkpoint {
        watermark,
        fed,
        detectors: groups.len() as u32,
        model_version: model.version(),
        detector: DetectorState::merge(groups.iter().map(|g| g.detector.state())),
        stats,
    }
}

/// The groups' reports as one: verdicts in conversation-id order and
/// downloads in feed order.
fn merge(groups: Vec<GroupReport>) -> ForensicReport {
    let mut report = ForensicReport {
        transactions: 0,
        conversations: Vec::new(),
        downloads: Vec::new(),
        alerts: 0,
        ingest: None,
        stats: None,
    };
    let mut downloads = Vec::new();
    for group in groups {
        report.conversations.extend(group.conversations);
        downloads.extend(group.downloads);
        report.transactions += group.transactions;
        report.alerts += group.alerts;
    }
    // An id is the client address, then the client's creation count:
    // tracker order.
    report.conversations.sort_unstable_by_key(|c| c.id);
    downloads.sort_unstable_by(|((a, i), _), ((b, j), _)| a.total_cmp(b).then(i.cmp(j)));
    report.downloads = downloads.into_iter().map(|(_, d)| d).collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::build_dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use synthtraffic::benign::generate_benign;
    use synthtraffic::episode::generate_infection;
    use synthtraffic::pcapgen::episodes_pcap;
    use synthtraffic::{BenignScenario, EkFamily};

    fn classifier(seed: u64) -> Classifier {
        let mut rng = StdRng::seed_from_u64(seed);
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
        Classifier::fit_default(&data, 5)
    }

    #[test]
    fn forensic_replay_flags_infection_pcap() {
        let clf = classifier(1);
        let mut rng = StdRng::seed_from_u64(31);
        let mut alerted = 0usize;
        let n = 6;
        for i in 0..n {
            let ep = generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9);
            let pcap = episodes_pcap(&[ep]);
            let report = analyze_pcap_lenient(&pcap, clf.clone(), DetectorConfig::default());
            assert!(report.transactions > 0);
            alerted += usize::from(report.alerts > 0);
        }
        assert!(alerted >= n / 2, "alerted on {alerted}/{n} infection pcaps");
    }

    #[test]
    fn downloads_are_recorded_with_digests() {
        let clf = classifier(2);
        let mut rng = StdRng::seed_from_u64(32);
        let ep = generate_infection(&mut rng, EkFamily::Nuclear, 1.4e9);
        let report = analyze_transactions(&ep.transactions, clf, DetectorConfig::default());
        assert!(!report.downloads.is_empty());
        for d in &report.downloads {
            assert!(d.class.is_exploit_type());
            assert!(d.size > 0);
        }
    }

    #[test]
    fn benign_replay_produces_low_scores() {
        let clf = classifier(3);
        let mut rng = StdRng::seed_from_u64(33);
        let mut alerts = 0;
        for i in 0..8 {
            let ep = generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9);
            let report =
                analyze_transactions(&ep.transactions, clf.clone(), DetectorConfig::default());
            alerts += report.alerts;
        }
        assert!(alerts <= 2, "{alerts} alerts over benign replays");
    }

    /// The grouped replay against the one-detector oracle over the same
    /// lenient extraction, whole report JSON with `ingest`. Inputs: one
    /// client (clean, so the strict extraction must agree too), eight
    /// clients, those eight with one timestamp on every packet (downloads
    /// of different clients tie), and `faultgen` damage to the eight on
    /// pcap and on pcapng. Each runs through `analyze_pcap_lenient`, and
    /// at 1, 2, 3 and 8 workers through the per-group replay in one group
    /// and in one per client hash, with windows of 1 byte (a window per
    /// copying connection, so a group spans windows), 3 KiB and unbounded,
    /// and through the checkpointed schedule cut every 7 positions.
    #[test]
    fn lenient_replay_matches_strict_on_clean_capture() {
        use nettrace::capture::read_packets;
        use nettrace::{IngestReport, SpanPipeline};
        use synthtraffic::faultgen::{self, Fault};

        let clf = classifier(5);
        let mut rng = StdRng::seed_from_u64(35);
        let ep = generate_infection(&mut rng, EkFamily::Rig, 1.4e9);
        let pcap = episodes_pcap(&[ep]);
        let strict = analyze_transactions(
            &SpanPipeline::extract_capture_strict(&pcap).unwrap(),
            clf.clone(),
            DetectorConfig::default(),
        );
        let mut lenient = analyze_pcap_lenient(&pcap, clf.clone(), DetectorConfig::default());
        let ingest = lenient.ingest.take().expect("lenient replay records ingest health");
        assert!(!ingest.has_loss(), "{ingest}");
        assert_eq!(ingest.transactions_recovered as usize, strict.transactions);
        let json = |r: &ForensicReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&lenient), json(&strict), "same report, ingest aside");

        let clients: Vec<_> = (0..8)
            .map(|i| match i % 4 {
                3 => generate_benign(&mut rng, BenignScenario::WEIGHTED[i].0, 1.4e9),
                _ => generate_infection(&mut rng, EkFamily::ALL[i], 1.4e9),
            })
            .collect();
        let many = episodes_pcap(&clients);
        let mut packets = read_packets(&many).unwrap();
        let pcapng = nettrace::pcapng::write_packets(&packets);
        packets.iter_mut().for_each(|p| p.ts = 1.4e9);
        let tied = nettrace::pcap::write_packets(&packets);
        let captures = [
            ("one client", pcap),
            ("eight clients, all faults", faultgen::apply_all(&many, &mut rng)),
            ("eight clients, pcapng, flips", faultgen::apply(&pcapng, Fault::FlipBytes, &mut rng)),
            ("eight clients, pcapng, cut", faultgen::apply(&pcapng, Fault::TruncateTail, &mut rng)),
            ("eight clients, one timestamp", tied),
            ("eight clients", many),
        ];
        let mut pipelines: Vec<_> = (0..4).map(|_| SpanPipeline::new()).collect();
        for (name, capture) in &captures {
            let mut ingest = IngestReport::new();
            let txs = SpanPipeline::extract_capture_lenient(capture, &mut ingest);
            let mut want = analyze_transactions(&txs, clf.clone(), DetectorConfig::default());
            want.ingest = Some(ingest);
            let want = json(&want);
            let got = analyze_pcap_lenient(capture, clf.clone(), DetectorConfig::default());
            assert_eq!(json(&got), want, "{name}");
            let model = ModelSlot::new(clf.clone());
            let config = DetectorConfig::default();
            for (workers, pipeline) in [1, 2, 3, 8].into_iter().zip(&mut pipelines) {
                for groups in [1, 16 * workers] {
                    for window in [1, 3 << 10, usize::MAX] {
                        let mut ingest = IngestReport::new();
                        let reports = pipeline.extract_grouped_at(
                            capture,
                            &mut ingest,
                            window,
                            workers,
                            groups,
                            |txs| replay_group(&model, &config, txs),
                        );
                        let got = ForensicReport { ingest: Some(ingest), ..merge(reports) };
                        let case = format!("{name}, {workers} workers, {groups} groups, {window}");
                        assert_eq!(json(&got), want, "{case}");
                    }
                }
                // Cut every 7 positions, the same detectors report the same.
                let checkpoints = Some(Checkpoints { every: 7, ..Checkpoints::default() });
                let opts = ReplayOptions { workers, checkpoints, ..ReplayOptions::default() };
                let got = replay_capture(capture, clf.clone(), DetectorConfig::default(), opts);
                assert_eq!(json(&got.unwrap()), want, "{name}, {workers} workers, cut every 7");
            }
        }
    }

    #[test]
    fn lenient_replay_survives_truncated_capture() {
        let clf = classifier(6);
        let mut rng = StdRng::seed_from_u64(36);
        let ep = generate_infection(&mut rng, EkFamily::Angler, 1.4e9);
        let pcap = episodes_pcap(&[ep]);
        // Chop into the final record's body: a mid-record capture cut.
        let cut = &pcap[..pcap.len() - 3];
        let report = analyze_pcap_lenient(cut, clf, DetectorConfig::default());
        let ingest = report.ingest.unwrap();
        assert!(ingest.capture_truncated);
        assert_eq!(ingest.records_dropped, 1);
        assert!(ingest.packets_read > 0, "prefix packets salvaged");
        assert!(report.transactions > 0, "surviving conversations still analyzed");
    }

    #[test]
    fn strict_report_serializes_without_ingest_field() {
        let clf = classifier(7);
        let mut rng = StdRng::seed_from_u64(37);
        let ep = generate_benign(&mut rng, BenignScenario::Search, 1.43e9);
        let report = analyze_transactions(&ep.transactions, clf, DetectorConfig::default());
        let serde::Value::Object(fields) = serde::to_value(&report).unwrap() else {
            panic!("report must serialize to an object");
        };
        assert!(fields.iter().all(|(n, _)| n != "ingest"));
        // And round-trips, with or without the field.
        let back: ForensicReport = serde::from_value(serde::Value::Object(fields)).unwrap();
        assert!(back.ingest.is_none());
        assert_eq!(back.transactions, report.transactions);

        let mut lenient = report.clone();
        lenient.ingest = Some(nettrace::IngestReport::new());
        let v = serde::to_value(&lenient).unwrap();
        let back: ForensicReport = serde::from_value(v).unwrap();
        assert!(back.ingest.is_some());
    }

    #[test]
    fn report_conversation_accounting_is_consistent() {
        let clf = classifier(4);
        let mut rng = StdRng::seed_from_u64(34);
        let ep = generate_infection(&mut rng, EkFamily::Fiesta, 1.4e9);
        let report = analyze_transactions(&ep.transactions, clf, DetectorConfig::default());
        let total: usize = report.conversations.iter().map(|c| c.transactions).sum();
        assert_eq!(total, report.transactions);
        assert_eq!(report.alerts, report.infected_conversations().count());
    }
}
