//! Forensic (offline) detection on recorded traffic (Sec. VI-C).
//!
//! A recorded capture is replayed through the same machinery the live
//! detector uses: transactions are clustered into conversations, each
//! conversation's WCG is classified, and a report lists per-conversation
//! verdicts plus every payload download (so the downloads can be compared
//! against an external scanner, as the paper does with VirusTotal).
//!
//! [`analyze_transactions`] replays one stream into one detector; it is
//! the oracle. [`analyze_pcap_lenient`] replays a capture one client
//! group at a time, each on the pool worker that paired the group's last
//! window ([`SpanPipeline::extract_grouped`]): the group gets its own
//! detector over one shared model, sweeps at one thread and is dropped
//! there. Conversations are per client, so the groups' verdicts merged by
//! id and downloads by feed order are the oracle's report.
//!
//! [`SpanPipeline::extract_grouped`]: nettrace::SpanPipeline::extract_grouped

use mlearn::slot::ModelSlot;
use nettrace::payload::PayloadClass;
use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};
use telemetry::Registry;

use crate::classifier::Classifier;
use crate::detector::{DetectorConfig, OnTheWireDetector};

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
/// failing the replay. Never errors, whatever the input.
pub fn analyze_pcap_lenient(
    pcap_bytes: &[u8],
    classifier: Classifier,
    config: DetectorConfig,
) -> ForensicReport {
    let mut ingest = nettrace::IngestReport::new();
    let mut report = replay_groups(classifier, config, |consume| {
        nettrace::SpanPipeline::new().extract_grouped(pcap_bytes, &mut ingest, consume)
    });
    report.ingest = Some(ingest);
    report
}

/// One client group's replay: its verdicts, its downloads keyed by feed
/// order `(ts, seq)`, and its transaction and alert counts.
type GroupReport = (Vec<ConversationVerdict>, Vec<((f64, u64), DownloadRecord)>, usize, usize);

/// Runs `extract` with a consumer that replays each client group into
/// its own detector, then merges the groups' reports.
fn replay_groups(
    classifier: Classifier,
    config: DetectorConfig,
    extract: impl FnOnce(&(dyn Fn(Vec<HttpTransaction>) -> GroupReport + Sync)) -> Vec<GroupReport>,
) -> ForensicReport {
    let model = ModelSlot::new(classifier);
    let groups = extract(&|transactions| {
        let mut detector =
            OnTheWireDetector::with_model_slot(model.clone(), config.clone(), &Registry::new());
        let downloads = transactions
            .iter()
            .filter_map(|tx| Some(((tx.ts, tx.seq), DownloadRecord::of(tx)?)))
            .collect();
        for tx in transactions {
            detector.observe_owned(tx);
        }
        let conversations = detector.final_verdicts(1);
        (conversations, downloads, detector.transactions_seen(), detector.alerts().len())
    });
    let mut report = ForensicReport {
        transactions: 0,
        conversations: Vec::new(),
        downloads: Vec::new(),
        alerts: 0,
        ingest: None,
        stats: None,
    };
    let mut downloads = Vec::new();
    for (conversations, group_downloads, transactions, alerts) in groups {
        report.conversations.extend(conversations);
        downloads.extend(group_downloads);
        report.transactions += transactions;
        report.alerts += alerts;
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
    /// pcap and on pcapng. Each runs through `analyze_pcap_lenient` and
    /// through the private runner at 1, 2, 3 and 8 workers, in one group
    /// and in one per client hash, with windows of 1 byte (a window per
    /// copying connection, so a group spans windows), 3 KiB and unbounded.
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
            for (workers, pipeline) in [1, 2, 3, 8].into_iter().zip(&mut pipelines) {
                for groups in [1, 16 * workers] {
                    for window in [1, 3 << 10, usize::MAX] {
                        let mut ingest = IngestReport::new();
                        let mut got = replay_groups(clf.clone(), DetectorConfig::default(), |f| {
                            let p = &mut *pipeline;
                            p.extract_grouped_at(capture, &mut ingest, window, workers, groups, f)
                        });
                        got.ingest = Some(ingest);
                        let case = format!("{name}, {workers} workers, {groups} groups, {window}");
                        assert_eq!(json(&got), want, "{case}");
                    }
                }
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
