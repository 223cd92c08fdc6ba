//! On-the-wire detection (Sec. V-B).
//!
//! The detector sits on a live HTTP transaction stream (network edge or
//! web proxy). For every transaction it:
//!
//! 1. weeds out trusted-vendor traffic,
//! 2. clusters the transaction into a per-client conversation
//!    ([`session`]),
//! 3. updates the conversation's incremental clue counters ([`clue`]),
//! 4. when a clue has fired (or the conversation is already being
//!    watched), rebuilds the potential-infection WCG around it, extracts
//!    features, and queries the ensemble random forest,
//! 5. raises an [`Alert`] when the classifier deems the WCG infectious;
//!    otherwise it keeps watching the conversation as it grows.

pub mod clue;
pub mod session;

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use mlearn::slot::ModelSlot;
use nettrace::payload::PayloadClass;
use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};
use telemetry::Registry;

use crate::classifier::Classifier;
use crate::forensic::ConversationVerdict;
use crate::metrics::DetectorMetrics;
use crate::trusted::TrustedHosts;
pub use clue::ClueConfig;
pub use session::{Conversation, SessionTracker, TrackerState};

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Clue thresholds.
    pub clue: ClueConfig,
    /// Conversation idle timeout in seconds.
    pub idle_timeout: f64,
    /// Classifier probability at or above which an alert is raised.
    pub alert_threshold: f64,
    /// Trusted-vendor allowlist (empty list disables weed-out).
    pub trusted: TrustedHosts,
    /// Evict conversations idle longer than this many seconds (bounds
    /// memory on long-running proxies). `None` keeps every conversation —
    /// the right mode for forensic replay, where the final report walks
    /// all of them.
    pub retention: Option<f64>,
    /// At most this many conversations per client; the
    /// least-recently-active one is evicted to make room. Guards tracker
    /// memory against a hostile client spraying unclusterable
    /// transactions.
    pub max_conversations_per_client: usize,
    /// At most this many stored transactions per conversation; further
    /// transactions refresh activity but are not stored. Guards against
    /// a single endless conversation.
    pub max_transactions_per_conversation: usize,
    /// Worker threads for the final verdict pass of
    /// [`analyze_transactions`](crate::forensic::analyze_transactions)
    /// (`0`: the available parallelism). A capture replay sweeps each
    /// client group at one thread, since the groups hold the cores. Scores
    /// are bit-identical at any setting.
    pub scoring_threads: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            clue: ClueConfig::default(),
            idle_timeout: 300.0,
            alert_threshold: 0.5,
            trusted: TrustedHosts::default(),
            retention: None,
            max_conversations_per_client: 512,
            max_transactions_per_conversation: 8192,
            scoring_threads: 0,
        }
    }
}

/// An infection alert.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Alert {
    /// The client the infection WCG belongs to.
    pub client: Ipv4Addr,
    /// Conversation id within the detector.
    pub conversation_id: u64,
    /// Timestamp of the transaction that triggered the alert.
    pub ts: f64,
    /// Classifier infection probability at alert time.
    pub score: f64,
    /// Host of the triggering transaction.
    pub trigger_host: String,
    /// Payload type of the triggering transaction.
    pub trigger_payload: PayloadClass,
    /// Conversation size (transactions) at alert time.
    pub conversation_size: usize,
    /// Generation of the model that produced the score — every alert is
    /// attributable to exactly one hot-reloadable model version.
    pub model_version: u64,
}

/// Serializable image of a detector: the tracker state plus the alert
/// log and monotone totals. This is what the stream engine snapshots
/// per shard and re-partitions on restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorState {
    /// Conversation tracker image.
    pub tracker: TrackerState,
    /// Alerts raised so far (the full log, so a restored run reports
    /// whole-run totals).
    pub alerts: Vec<Alert>,
    /// Transactions processed after weed-out.
    pub transactions_seen: u64,
    /// Classifier invocations.
    pub classifications: u64,
}

impl DetectorState {
    /// Merges per-shard states into one logical state: clients sorted
    /// by address (disjoint across shards by construction), counters
    /// summed, alerts ordered by `(ts, conversation id)`.
    pub fn merge(states: impl IntoIterator<Item = DetectorState>) -> DetectorState {
        let mut clients = Vec::new();
        let mut alerts = Vec::new();
        let mut counters = session::TrackerCounters::default();
        let (mut seen, mut classifications) = (0u64, 0u64);
        for state in states {
            clients.extend(state.tracker.clients);
            alerts.extend(state.alerts);
            counters += state.tracker.counters;
            seen += state.transactions_seen;
            classifications += state.classifications;
        }
        clients.sort_by_key(|r| r.addr);
        alerts.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(a.conversation_id.cmp(&b.conversation_id)));
        DetectorState {
            tracker: TrackerState { clients, counters },
            alerts,
            transactions_seen: seen,
            classifications,
        }
    }

    /// Splits a merged state across `shards` detectors, routing each
    /// client by `route` (the engine's shard hash). Totals — counters,
    /// the alert log, transaction counts — cannot be attributed back to
    /// per-client slices, so they all land on shard 0; sums across
    /// shards are preserved, which is all the whole-run report needs.
    pub fn partition(
        self,
        shards: usize,
        route: impl Fn(Ipv4Addr) -> usize,
    ) -> Vec<DetectorState> {
        let mut out: Vec<DetectorState> = (0..shards)
            .map(|_| DetectorState {
                tracker: TrackerState {
                    clients: Vec::new(),
                    counters: session::TrackerCounters::default(),
                },
                alerts: Vec::new(),
                transactions_seen: 0,
                classifications: 0,
            })
            .collect();
        for record in self.tracker.clients {
            let shard = route(record.addr) % shards;
            out[shard].tracker.clients.push(record);
        }
        out[0].tracker.counters = self.tracker.counters;
        out[0].alerts = self.alerts;
        out[0].transactions_seen = self.transactions_seen;
        out[0].classifications = self.classifications;
        out
    }
}

/// Streaming malware detector.
///
/// # Example
///
/// ```
/// use dynaminer::classifier::{build_dataset, Classifier};
/// use dynaminer::detector::{DetectorConfig, OnTheWireDetector};
/// use rand::{rngs::StdRng, SeedableRng};
/// use synthtraffic::{benign::generate_benign, episode::generate_infection};
/// use synthtraffic::{BenignScenario, EkFamily};
///
/// // Train on a tiny corpus, then stream one infection through.
/// let mut rng = StdRng::seed_from_u64(3);
/// let mut items = Vec::new();
/// for i in 0..8 {
///     items.push((generate_infection(&mut rng, EkFamily::ALL[i], 1.4e9).transactions, true));
///     items.push((generate_benign(&mut rng, BenignScenario::Search, 1.43e9).transactions, false));
/// }
/// let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
/// let classifier = Classifier::fit_default(&data, 1);
///
/// let mut detector = OnTheWireDetector::new(classifier, DetectorConfig::default());
/// let episode = generate_infection(&mut rng, EkFamily::Magnitude, 1.45e9);
/// for tx in &episode.transactions {
///     detector.observe(tx);
/// }
/// assert!(detector.transactions_seen() > 0);
/// ```
#[derive(Debug)]
pub struct OnTheWireDetector {
    /// Hot-swappable model slot. The detector takes a fresh snapshot of
    /// the deployed model per classification, so a swap lands between
    /// transactions — never mid-inference, never dropping one.
    model: ModelSlot<Classifier>,
    config: DetectorConfig,
    tracker: SessionTracker,
    alerts: Vec<Alert>,
    transactions_seen: usize,
    classifications: usize,
    /// Reusable feature-extraction workspace (adjacency buffers survive
    /// across classifications).
    extractor: crate::features::FeatureExtractor,
    telemetry: Registry,
    metrics: DetectorMetrics,
    /// Tracker totals already folded into the telemetry counters (the
    /// tracker keeps running sums; counters take deltas).
    synced: session::TrackerCounters,
    /// Model version last seen on the classification path, to count
    /// observed hot-reloads.
    last_model_version: u64,
}

impl OnTheWireDetector {
    /// Creates a detector around a trained classifier, with telemetry
    /// going to a private registry (see
    /// [`OnTheWireDetector::telemetry`]).
    pub fn new(classifier: Classifier, config: DetectorConfig) -> Self {
        Self::with_telemetry(classifier, config, &Registry::new())
    }

    /// Creates a detector whose metrics register into `registry`, so
    /// several pipeline stages (or several detectors) aggregate into
    /// one exposition.
    pub fn with_telemetry(
        classifier: Classifier,
        config: DetectorConfig,
        registry: &Registry,
    ) -> Self {
        Self::with_model_slot(ModelSlot::new(classifier), config, registry)
    }

    /// Creates a detector around a shared [`ModelSlot`] — the stream
    /// engine hands every shard the same slot, so one
    /// [`ModelSlot::swap`] hot-reloads all shards atomically.
    pub fn with_model_slot(
        model: ModelSlot<Classifier>,
        config: DetectorConfig,
        registry: &Registry,
    ) -> Self {
        let tracker = match config.retention {
            Some(retention) => SessionTracker::with_retention(config.idle_timeout, retention),
            None => SessionTracker::new(config.idle_timeout),
        }
        .with_caps(config.max_conversations_per_client, config.max_transactions_per_conversation);
        let last_model_version = model.version();
        OnTheWireDetector {
            model,
            config,
            tracker,
            alerts: Vec::new(),
            transactions_seen: 0,
            classifications: 0,
            extractor: crate::features::FeatureExtractor::new(),
            telemetry: registry.clone(),
            metrics: DetectorMetrics::new(registry),
            synced: session::TrackerCounters::default(),
            last_model_version,
        }
    }

    /// Processes one transaction; returns an alert if this update tipped
    /// its conversation into the infectious verdict. Clones the
    /// transaction into conversation storage; cross-thread callers (the
    /// sharded stream engine's shard queues) use
    /// [`OnTheWireDetector::observe_owned`] to move it instead.
    pub fn observe(&mut self, tx: &HttpTransaction) -> Option<Alert> {
        self.observe_owned(tx.clone())
    }

    /// Processes one owned transaction, moving it into conversation
    /// storage — the zero-clone path for shard queues that hand
    /// transactions over by value.
    pub fn observe_owned(&mut self, tx: HttpTransaction) -> Option<Alert> {
        let out = self.observe_inner(tx);
        self.sync_tracker_metrics();
        out
    }

    /// Folds the tracker's running totals into the monotone telemetry
    /// counters (delta since the last sync) and refreshes the live
    /// conversation gauge.
    fn sync_tracker_metrics(&mut self) {
        let m = &self.metrics;
        let (now, synced) = (self.tracker.counters(), self.synced);
        m.retention_evictions.add(now.evicted - synced.evicted);
        m.cap_evictions.add(now.cap_evicted - synced.cap_evicted);
        m.dropped_transactions.add(now.dropped_transactions - synced.dropped_transactions);
        m.conversations_live.set(self.tracker.conversation_count() as i64);
        self.synced = now;
    }

    fn observe_inner(&mut self, tx: HttpTransaction) -> Option<Alert> {
        if self.config.trusted.is_trusted(&tx.host) {
            self.metrics.trusted_weeded.inc();
            return None; // weed out trusted-vendor noise
        }
        self.transactions_seen += 1;
        self.metrics.transactions.inc();
        // Alert context and the download clue are captured before the
        // transaction is moved into the tracker.
        let client = tx.client.addr;
        let ts = tx.ts;
        let trigger_payload = tx.payload_class;
        let download = clue::download_likelihood(&tx);
        let conv = self.tracker.assign_owned(tx);
        // Incremental clue counters. The conversation already derived
        // redirect targets while absorbing the transaction; reuse its
        // verdict instead of recomputing them.
        let is_redirect = conv.last_tx_redirectish;
        if is_redirect {
            conv.redirects_seen += 1;
        }
        if let Some(likelihood) = download {
            conv.max_payload_likelihood = conv.max_payload_likelihood.max(likelihood);
        }
        if conv.alerted {
            return None; // session already terminated by an alert
        }
        let fired =
            clue::is_clue(conv.redirects_seen, conv.max_payload_likelihood, &self.config.clue);
        if !fired && !conv.watched {
            return None;
        }
        let first_look = !conv.watched;
        conv.watched = true;
        if first_look {
            self.metrics.clues.inc();
        }
        self.classifications += 1;
        self.metrics.wcg_rebuilds.inc();
        if !first_look {
            self.metrics.reclassifications.inc();
        }
        // Query the classifier over the conversation's WCG: built
        // retrospectively on the first look (one rebuild from the stored
        // transactions), then folded forward as transactions arrive (a
        // `WcgBuilder`), with the topology features of a shape the
        // extractor has seen reused. The result is bit-identical to
        // rebuilding the graph wholesale per classification, as the paper
        // describes it.
        let started = Instant::now();
        let fv = self.extractor.extract(conv.wcg_state());
        self.metrics.feature_extraction_ns.observe_since(started);
        // Snapshot the deployed model for this classification: a
        // concurrent hot-reload lands between transactions, never
        // mid-inference, and the alert records which generation scored.
        let (model, model_version) = self.model.load();
        if model_version != self.last_model_version {
            self.metrics.model_reloads.inc();
            self.last_model_version = model_version;
        }
        let started = Instant::now();
        let score = model.score_features(&fv);
        self.metrics.scoring_ns.observe_since(started);
        if score >= self.config.alert_threshold {
            conv.alerted = true;
            self.metrics.alerts.inc();
            let alert = Alert {
                client,
                conversation_id: conv.id,
                ts,
                score,
                trigger_host: conv.last_host().to_string(),
                trigger_payload,
                conversation_size: conv.transactions.len(),
                model_version,
            };
            self.alerts.push(alert.clone());
            return Some(alert);
        }
        None
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Transactions processed (after weed-out).
    pub fn transactions_seen(&self) -> usize {
        self.transactions_seen
    }

    /// WCG rebuild + classification invocations so far.
    pub fn classification_count(&self) -> usize {
        self.classifications
    }

    /// The conversation tracker (for forensic summaries).
    pub fn tracker(&self) -> &SessionTracker {
        &self.tracker
    }

    /// The registry this detector's metrics live in (private unless one
    /// was shared via [`OnTheWireDetector::with_telemetry`]).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The detector's metric handles.
    pub fn metrics(&self) -> &DetectorMetrics {
        &self.metrics
    }

    /// Snapshot of the currently deployed classifier.
    pub fn classifier(&self) -> Arc<Classifier> {
        self.model.load().0
    }

    /// The hot-reloadable model slot (shared: swapping through a clone
    /// of this handle reloads the detector).
    pub fn model_slot(&self) -> &ModelSlot<Classifier> {
        &self.model
    }

    /// Version of the currently deployed model.
    pub fn model_version(&self) -> u64 {
        self.model.version()
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Does nothing: every conversation the tracker holds is already
    /// resident and listed by [`SessionTracker::conversations`]. Kept so
    /// callers that prepare a per-conversation sweep with it still build.
    pub fn rehydrate_all(&mut self) {}

    /// The final verdict pass: every conversation, in tracker order,
    /// scored by the deployed model — one `classifier_scoring_ns`
    /// observation for the whole sweep.
    ///
    /// A conversation the detector has looked at is scored from the WCG
    /// it holds. Any other conversation gets its graph here: the worker
    /// builds it from the conversation's per-transaction records into one
    /// reused [`WcgBuilder`](crate::wcg::WcgBuilder), extracts its
    /// features and drops it, so those graphs are never all resident and
    /// no transaction is read. Each worker's extractor computes a graph
    /// shape's topology once. Either graph equals `Wcg::from_transactions`
    /// over the stored transactions, so the scores have the bits of
    /// [`Classifier::score_transactions`]. Nothing in the tracker is
    /// written, so the result is the same at any `threads`.
    pub fn final_verdicts(&mut self, threads: usize) -> Vec<ConversationVerdict> {
        let started = Instant::now();
        let convs: Vec<&Conversation> = self.tracker.conversations().collect();
        let mut workers: Vec<_> = (0..threads.min(convs.len()).max(1))
            .map(|_| (crate::features::FeatureExtractor::new(), crate::wcg::WcgBuilder::new()))
            .collect();
        let fvs = telemetry::pool::run_indexed_with(
            &mut workers,
            convs.len(),
            |(extractor, builder), i| match convs[i].held_wcg() {
                Some(wcg) => extractor.extract(wcg),
                None => extractor.extract(convs[i].build_wcg(builder)),
            },
        );
        let scores = self.classifier().score_features_batch(&fvs, threads);
        self.metrics.scoring_ns.observe_since(started);
        convs
            .iter()
            .zip(scores)
            .map(|(c, score)| ConversationVerdict {
                id: c.id,
                transactions: c.transactions.len(),
                score,
                alerted: c.alerted,
                hosts: c.host_count(),
            })
            .collect()
    }

    /// Serializable image of this detector's mutable state (the model
    /// itself is restored separately through the CLI's validated model
    /// files, not embedded in snapshots).
    pub fn state(&self) -> DetectorState {
        DetectorState {
            tracker: self.tracker.state(),
            alerts: self.alerts.clone(),
            transactions_seen: self.transactions_seen as u64,
            classifications: self.classifications as u64,
        }
    }

    /// Replaces this detector's mutable state with a snapshot image.
    /// The telemetry sync marks are fast-forwarded to the restored
    /// totals, so the monotone counters only record post-restore work —
    /// the pre-snapshot sums travel in the snapshot's own telemetry
    /// image instead of being double-counted here.
    pub fn restore_state(&mut self, state: DetectorState) {
        self.tracker.restore(state.tracker);
        self.alerts = state.alerts;
        self.transactions_seen = state.transactions_seen as usize;
        self.classifications = state.classifications as usize;
        self.synced = self.tracker.counters();
        self.last_model_version = self.model.version();
        self.metrics.conversations_live.set(self.tracker.conversation_count() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{build_dataset, Classifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use synthtraffic::benign::generate_benign;
    use synthtraffic::episode::generate_infection;
    use synthtraffic::{BenignScenario, EkFamily};

    fn trained_classifier(seed: u64) -> Classifier {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut items: Vec<(Vec<nettrace::HttpTransaction>, bool)> = Vec::new();
        for i in 0..40 {
            let fam = EkFamily::ALL[i % 10];
            items.push((generate_infection(&mut rng, fam, 1_400_000_000.0).transactions, true));
            let sc = BenignScenario::WEIGHTED[i % 8].0;
            items.push((generate_benign(&mut rng, sc, 1_430_000_000.0).transactions, false));
        }
        let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
        Classifier::fit_default(&data, 99)
    }

    #[test]
    fn detects_infections_in_replayed_stream() {
        let clf = trained_classifier(1);
        let mut rng = StdRng::seed_from_u64(50);
        let mut detected = 0usize;
        let n = 12;
        for i in 0..n {
            let ep = generate_infection(&mut rng, EkFamily::ALL[i % 10], 1_400_000_000.0);
            let mut det = OnTheWireDetector::new(clf.clone(), DetectorConfig::default());
            for tx in &ep.transactions {
                det.observe(tx);
            }
            detected += usize::from(!det.alerts().is_empty());
        }
        assert!(detected * 10 >= n * 6, "detected {detected}/{n}");
    }

    #[test]
    fn mostly_quiet_on_benign_streams() {
        let clf = trained_classifier(2);
        let mut rng = StdRng::seed_from_u64(51);
        let mut alerts = 0usize;
        let n = 16;
        for i in 0..n {
            let ep = generate_benign(
                &mut rng,
                BenignScenario::WEIGHTED[i % 8].0,
                1_430_000_000.0,
            );
            let mut det = OnTheWireDetector::new(clf.clone(), DetectorConfig::default());
            for tx in &ep.transactions {
                det.observe(tx);
            }
            alerts += det.alerts().len();
        }
        assert!(alerts <= n / 4, "{alerts} alerts on {n} benign episodes");
    }

    #[test]
    fn at_most_one_alert_per_conversation() {
        let clf = trained_classifier(3);
        let mut rng = StdRng::seed_from_u64(52);
        let ep = generate_infection(&mut rng, EkFamily::Magnitude, 1_400_000_000.0);
        let mut det = OnTheWireDetector::new(clf, DetectorConfig::default());
        for tx in &ep.transactions {
            det.observe(tx);
        }
        let conv_count = det.tracker().conversation_count();
        assert!(det.alerts().len() <= conv_count);
        // Alerts are unique per conversation id.
        let mut ids: Vec<u64> = det.alerts().iter().map(|a| a.conversation_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), det.alerts().len());
    }

    #[test]
    fn trusted_vendor_traffic_is_weeded_out() {
        let clf = trained_classifier(4);
        let mut rng = StdRng::seed_from_u64(53);
        let ep = generate_benign(&mut rng, BenignScenario::SoftwareUpdate, 1_430_000_000.0);
        let mut det = OnTheWireDetector::new(clf, DetectorConfig::default());
        for tx in &ep.transactions {
            det.observe(tx);
        }
        assert_eq!(det.transactions_seen(), 0, "all vendor traffic excluded");
        assert!(det.alerts().is_empty());
    }

    #[test]
    fn retention_bounds_detector_memory() {
        let clf = trained_classifier(6);
        let config =
            DetectorConfig { retention: Some(600.0), ..DetectorConfig::default() };
        let mut det = OnTheWireDetector::new(clf, config);
        let mut rng = StdRng::seed_from_u64(60);
        for day_slot in 0..12 {
            let ep = generate_benign(
                &mut rng,
                BenignScenario::AlexaBrowse,
                1.43e9 + day_slot as f64 * 7200.0,
            );
            for tx in &ep.transactions {
                det.observe(tx);
            }
        }
        assert!(
            det.tracker().conversation_count() < 12,
            "{} conversations retained",
            det.tracker().conversation_count()
        );
        assert!(det.tracker().evicted_count() > 0);
    }

    #[test]
    fn caps_bound_detector_state_on_hostile_stream() {
        use crate::wcg::tests::tx;
        use nettrace::http::Method;
        let clf = trained_classifier(8);
        let config = DetectorConfig {
            max_conversations_per_client: 32,
            max_transactions_per_conversation: 16,
            ..DetectorConfig::default()
        };
        let mut det = OnTheWireDetector::new(clf, config);
        // A hostile client spraying unclusterable one-shot transactions.
        for i in 0..2000 {
            let host = format!("h{i}.example");
            let referer = format!("http://unique-{i}.example/");
            let t = tx(
                i as f64 * 0.01, &host, "/x", Method::Get, 200,
                PayloadClass::Html, 100, Some(&referer), None,
            );
            det.observe(&t);
        }
        assert!(det.tracker().conversation_count() <= 32);
        assert!(det.tracker().cap_evicted_count() >= 2000 - 32);
    }

    #[test]
    fn eviction_accounting_matches_telemetry_snapshot_exactly() {
        use crate::wcg::tests::tx;
        use nettrace::http::Method;
        let clf = trained_classifier(11);
        let config = DetectorConfig {
            max_conversations_per_client: 4,
            max_transactions_per_conversation: 3,
            ..DetectorConfig::default()
        };
        let mut det = OnTheWireDetector::new(clf, config);
        // Blow the transactions-per-conversation cap: 10 clustering
        // transactions into one conversation, 3 stored, 7 dropped.
        for i in 0..10 {
            let t = tx(
                i as f64, "one.example", "/x", Method::Get, 200,
                PayloadClass::Html, 100, None, None,
            );
            det.observe(&t);
        }
        // Blow the conversations-per-client cap: 20 unclusterable
        // one-shots on top of the 1 existing conversation; the client
        // holds at most 4, so 21 - 4 = 17 evictions.
        for i in 0..20 {
            let host = format!("h{i}.example");
            let referer = format!("http://unique-{i}.example/");
            let t = tx(
                100.0 + i as f64 * 0.01, &host, "/x", Method::Get, 200,
                PayloadClass::Html, 100, Some(&referer), None,
            );
            det.observe(&t);
        }
        let tracker = det.tracker();
        assert_eq!(tracker.dropped_transaction_count(), 7);
        assert_eq!(tracker.cap_evicted_count(), 17);
        assert_eq!(tracker.evicted_count(), 0, "no retention window configured");
        // The telemetry counters must agree with the tracker's own
        // accounting, exactly.
        let snap = det.telemetry().snapshot();
        assert_eq!(
            snap.counter("session_transactions_dropped_total"),
            tracker.dropped_transaction_count()
        );
        assert_eq!(
            snap.counter("session_cap_evictions_total"),
            tracker.cap_evicted_count() as u64
        );
        assert_eq!(
            snap.counter("session_retention_evictions_total"),
            tracker.evicted_count() as u64
        );
        assert_eq!(
            snap.gauges["session_conversations_live"],
            tracker.conversation_count() as i64
        );
        // Lifecycle accounting closes: every conversation ever created
        // is live or evicted through exactly one path.
        assert_eq!(
            tracker.created_count(),
            (tracker.conversation_count() + tracker.evicted_count() + tracker.cap_evicted_count())
                as u64
        );
    }

    /// Swapping the model slot mid-stream: no transaction is lost, the
    /// reload is observed on the classification path, and alerts name
    /// the generation that scored them.
    #[test]
    fn model_hot_reload_attributes_alerts_to_generations() {
        let clf_a = trained_classifier(13);
        let clf_b = trained_classifier(14);
        let mut rng = StdRng::seed_from_u64(55);
        let mut stream: Vec<nettrace::HttpTransaction> = Vec::new();
        for i in 0..6 {
            stream.extend(
                generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9 + i as f64 * 400.0)
                    .transactions,
            );
        }
        stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        let mut det = OnTheWireDetector::new(clf_a, DetectorConfig::default());
        let slot = det.model_slot().clone();
        let mid = stream.len() / 2;
        for tx in &stream[..mid] {
            det.observe(tx);
        }
        let first_half_alerts = det.alerts().len();
        assert_eq!(slot.swap(clf_b), 2);
        for tx in &stream[mid..] {
            det.observe(tx);
        }
        assert_eq!(det.transactions_seen(), stream.len(), "no transaction dropped");
        assert!(!det.alerts().is_empty(), "stream raised alerts");
        for (i, alert) in det.alerts().iter().enumerate() {
            let expected = if i < first_half_alerts { 1 } else { 2 };
            assert_eq!(alert.model_version, expected, "alert {i}");
        }
        if det.alerts().len() > first_half_alerts && det.classification_count() > 0 {
            assert_eq!(
                det.telemetry().snapshot().counter("detector_model_reloads_total"),
                1,
                "the swap was observed exactly once"
            );
        }
    }

    /// `hosts` referrer-less page fetches by client `client`: one
    /// conversation, whose graph is the victim's star over `hosts` hosts.
    /// No clue fires on it.
    fn browse(client: u32, hosts: usize) -> Vec<nettrace::HttpTransaction> {
        use crate::wcg::tests::tx;
        use nettrace::http::Method;
        (0..hosts)
            .map(|h| {
                let ts = 1.4e9 + f64::from(client) * 1e4 + h as f64;
                let mut t = tx(ts, &format!("h{h}.example"), "/", Method::Get, 200,
                               PayloadClass::Html, 100, None, None);
                t.client = nettrace::reassembly::Endpoint::new(Ipv4Addr::from(client), 40000);
                t
            })
            .collect()
    }

    /// Topology passes of one single-threaded sweep over 256 unwatched
    /// conversations whose client `c` browses `hosts(c)` hosts.
    fn sweep_passes(clf: &Classifier, hosts: impl Fn(u32) -> usize) -> u64 {
        let mut det = OnTheWireDetector::new(clf.clone(), DetectorConfig::default());
        for client in 1..=256u32 {
            for t in browse(client, hosts(client)) {
                det.observe_owned(t);
            }
        }
        assert_eq!(det.tracker().conversation_count(), 256);
        assert!(det.tracker().conversations().all(|c| c.held_wcg().is_none()));
        let before = crate::features::topo_passes();
        let verdicts = det.final_verdicts(1);
        assert_eq!(verdicts.len(), 256);
        crate::features::topo_passes() - before
    }

    /// The sweep computes each graph shape's topology once.
    #[test]
    fn the_sweep_runs_one_topology_pass_per_shape() {
        let clf = trained_classifier(12);
        assert_eq!(sweep_passes(&clf, |_| 3), 1, "one shape");
        assert_eq!(sweep_passes(&clf, |c| c as usize), 256, "256 shapes");
    }

    /// Observes `t`, which must raise no alert; returns the
    /// classifications and topology passes it added.
    fn observe_counted(det: &mut OnTheWireDetector, t: nettrace::HttpTransaction) -> (usize, u64) {
        let (scored, passes) = (det.classification_count(), crate::features::topo_passes());
        assert!(det.observe_owned(t).is_none());
        (det.classification_count() - scored, crate::features::topo_passes() - passes)
    }

    /// A threshold above 1 never alerts, so a watched conversation is
    /// scored on every transaction, and the live path runs a topology
    /// pass only for a graph shape its extractor has not seen: same-host
    /// chatter adds parallel edges and no pass, one new host exactly one.
    /// The sweep over the held graphs runs one pass per distinct shape.
    #[test]
    fn the_live_path_runs_one_topology_pass_per_new_shape() {
        use crate::wcg::tests::tx;
        use nettrace::http::Method;
        let config = DetectorConfig { alert_threshold: 2.0, ..DetectorConfig::default() };
        let mut det = OnTheWireDetector::new(trained_classifier(12), config);
        let fetch = |client: u32, ts: f64, host: &str, uri: &str, class: PayloadClass| {
            let mut t = tx(ts, host, uri, Method::Get, 200, class, 100, None, None);
            t.client = nettrace::reassembly::Endpoint::new(Ipv4Addr::from(client), 40000);
            t
        };
        // An executable download fires the clue: the first look builds a
        // graph of a new shape.
        let download = |client| fetch(client, 1.0, "dl.example", "/p.exe", PayloadClass::Exe);
        assert_eq!(observe_counted(&mut det, download(1)), (1, 1), "first look");
        for i in 0..5 {
            let uri = format!("/a{i}");
            let chatter = fetch(1, 2.0 + f64::from(i), "dl.example", &uri, PayloadClass::Html);
            assert_eq!(observe_counted(&mut det, chatter), (1, 0), "same-host chatter {i}");
        }
        let new_host = fetch(1, 9.0, "cdn.example", "/", PayloadClass::Html);
        assert_eq!(observe_counted(&mut det, new_host), (1, 1), "one new host");
        // Two more clients' conversations have the first graph's shape.
        for client in [2, 3] {
            assert_eq!(observe_counted(&mut det, download(client)), (1, 0), "client {client}");
        }
        assert_eq!(det.classification_count(), 9);
        assert!(det.tracker().conversations().all(|c| c.held_wcg().is_some()));
        let before = crate::features::topo_passes();
        assert_eq!(det.final_verdicts(1).len(), 3);
        assert_eq!(crate::features::topo_passes() - before, 2, "two shapes held");
    }

    #[test]
    fn alert_carries_context() {
        let clf = trained_classifier(5);
        let mut rng = StdRng::seed_from_u64(54);
        // Find an infection that alerts and check the alert contents.
        for seed in 0..20 {
            let _ = seed;
            let ep = generate_infection(&mut rng, EkFamily::Angler, 1_400_000_000.0);
            let mut det = OnTheWireDetector::new(clf.clone(), DetectorConfig::default());
            let mut got = None;
            for tx in &ep.transactions {
                if let Some(a) = det.observe(tx) {
                    got = Some(a);
                    break;
                }
            }
            if let Some(alert) = got {
                assert!(alert.score >= 0.5);
                assert!(alert.conversation_size >= 1);
                assert_eq!(alert.client, ep.victim.addr);
                return;
            }
        }
        panic!("no alert raised across 20 Angler episodes");
    }
}
