//! `driftlab` — the adversarial drift lab.
//!
//! The paper evaluates DynaMiner on a fixed corpus; its Sec. VII
//! evasion analysis asks what a *static* adversary costs the detector.
//! This crate asks the operational question instead: what happens to a
//! deployed detector as exploit-kit families **walk** — shortening
//! redirect chains, dressing infrastructure up as benign CDN traffic,
//! re-wrapping payloads, and layering on call-back cloaks, a little
//! more every epoch — and what does it take to keep up?
//!
//! Three pieces, one loop:
//!
//! * [`schedule`] — deterministic, seeded per-family parameter walks
//!   over simulated time, emitted as dated [`EpochBatch`]es,
//! * [`decay`] — the replay harness: each epoch streams through a
//!   persistent [`StreamEngine`], alerts are
//!   attributed back to episodes, and per-epoch recall / FPR / alert
//!   latency land in a [`DecayCurve`] — with [`vtsim`] scored alongside
//!   so the signature-lag advantage is quantified per epoch,
//! * [`shadow`] — the champion/challenger retraining loop: challengers
//!   fit on a sliding window of recent labeled traffic, scored on
//!   observation-only replays, and promoted through the engine's
//!   atomic model slot when a [`PromotionPolicy`] approves — every
//!   decision in an auditable promotion ledger, every alert stamped
//!   with the model generation that raised it.
//!
//! Everything is deterministic given the config: the decay-curve and
//! promotion-ledger goldens in `tests/golden/` pin byte-exact runs.
//! See DESIGN.md §15.

pub mod decay;
pub mod schedule;
pub mod shadow;

pub use decay::{DecayCurve, EpochMetrics};
pub use schedule::{DriftSchedule, DriftScheduleConfig, EpochBatch};
pub use shadow::{LedgerEntry, PromotionPolicy, RetrainConfig};

use std::collections::VecDeque;

use dynaminer::classifier::{build_dataset_parallel, Classifier, FeatureSelection};
use dynaminer::detector::{Alert, DetectorConfig};
use dynaminer::forensic::ForensicReport;
use mlearn::forest::ForestConfig;
use nettrace::HttpTransaction;
use streamd::{StreamConfig, StreamEngine};
use synthtraffic::Episode;
use telemetry::Registry;
use vtsim::VirusTotalSim;

/// Seed-space salt for challenger training (disjoint from the corpus
/// and schedule streams).
const CHALLENGER_SALT: u64 = 1000;

/// Full drift-lab configuration.
#[derive(Debug, Clone)]
pub struct DriftLabConfig {
    /// The drift campaign to run.
    pub schedule: DriftScheduleConfig,
    /// Stream-engine shard count.
    pub shards: usize,
    /// Detector configuration for the live engine and every shadow
    /// replay.
    pub detector: DetectorConfig,
    /// Scale of the clean ground-truth corpus the champion pre-trains
    /// on (the "day-0" model).
    pub train_scale: f64,
    /// Shadow retraining; `None` runs the decay curve with the day-0
    /// champion pinned for the whole campaign.
    pub retrain: Option<RetrainConfig>,
}

impl Default for DriftLabConfig {
    fn default() -> Self {
        DriftLabConfig {
            schedule: DriftScheduleConfig::default(),
            shards: 1,
            detector: DetectorConfig::default(),
            train_scale: 0.05,
            retrain: None,
        }
    }
}

/// Everything a drift-lab run produces.
#[derive(Debug)]
pub struct DriftLabReport {
    /// Per-epoch detector and scanner metrics.
    pub curve: DecayCurve,
    /// Shadow-loop decisions (empty when retraining is off).
    pub ledger: Vec<LedgerEntry>,
    /// The live engine's alerts, per epoch, in merged `(ts, seq)` order.
    pub epoch_alerts: Vec<Vec<Alert>>,
    /// End-of-campaign forensic report from the persistent engine.
    pub report: ForensicReport,
}

/// Fits the default forest on all 37 features of labelled episodes:
/// the day-0 champion on the ground-truth corpus, a challenger on a
/// window of epoch batches, and the CLI's `train`. Deterministic: the
/// dataset keeps episode order and the fit is bit-identical at any
/// thread count. With `registry`, records the episode count, the
/// featurization time and every tree's fit time.
pub fn fit_forest<'a>(
    episodes: impl IntoIterator<Item = &'a Episode>,
    seed: u64,
    threads: usize,
    registry: Option<&Registry>,
) -> Classifier {
    let conversations: Vec<(&[HttpTransaction], bool)> =
        episodes.into_iter().map(|ep| (ep.transactions.as_slice(), ep.is_infection())).collect();
    if let Some(registry) = registry {
        registry
            .counter("train_episodes_total", "Ground-truth episodes featurized for training")
            .add(conversations.len() as u64);
    }
    let build_started = std::time::Instant::now();
    let data = build_dataset_parallel(&conversations, threads);
    if let Some(registry) = registry {
        registry
            .latency_histogram("train_dataset_build_ns", "Corpus featurization wall-clock time")
            .observe_since(build_started);
    }
    let tree_fit_ns = registry
        .map(|r| r.latency_histogram("mlearn_tree_fit_ns", "Per-tree random-forest fit time"));
    let forest = ForestConfig::default();
    Classifier::fit(&data, FeatureSelection::All, &forest, seed, threads, tree_fit_ns.as_ref())
}

/// Flattens an epoch batch into one `(ts, seq)`-ordered stream,
/// numbering from `*next_seq` so the sequence stays globally monotone
/// across the whole campaign (the engine's watermark and alert merge
/// both key on it).
pub fn epoch_stream(batch: &EpochBatch, next_seq: &mut u64) -> Vec<HttpTransaction> {
    let mut stream: Vec<HttpTransaction> = batch
        .episodes
        .iter()
        .flat_map(|ep| ep.transactions.iter().cloned())
        .collect();
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    for tx in &mut stream {
        tx.seq = *next_seq;
        *next_seq += 1;
    }
    stream
}

/// Runs the full drift campaign: replay every epoch through one
/// persistent engine, record the decay curve, and (when configured)
/// run the shadow-retraining loop between epochs.
///
/// Deterministic given `config`: same config ⇒ bit-identical alerts,
/// curve, and ledger at any shard or thread count.
pub fn run_drift_lab(config: &DriftLabConfig, registry: Option<&Registry>) -> DriftLabReport {
    let seed = config.schedule.seed;
    let threads = telemetry::pool::resolve_threads(
        config.retrain.as_ref().map_or(0, |r| r.threads),
    );
    let schedule = DriftSchedule::new(config.schedule.clone());
    let vt = VirusTotalSim::with_default_engines(seed);
    let champion =
        fit_forest(&synthtraffic::ground_truth(seed, config.train_scale), seed, threads, None);

    let own_registry;
    let reg = match registry {
        Some(r) => r,
        None => {
            own_registry = Registry::new();
            &own_registry
        }
    };
    let stream_config = StreamConfig { shards: config.shards.max(1), ..StreamConfig::default() };
    let mut engine =
        StreamEngine::with_telemetry(champion, config.detector.clone(), stream_config, reg);

    let metrics = LabMetrics::new(reg);
    let mut curve = DecayCurve {
        seed,
        scale: config.schedule.scale,
        epochs: config.schedule.epochs,
        shards: config.shards.max(1),
        entries: Vec::new(),
    };
    let mut ledger = Vec::new();
    let mut epoch_alerts = Vec::new();
    let mut all_transactions: Vec<HttpTransaction> = Vec::new();
    let mut history: VecDeque<EpochBatch> = VecDeque::new();
    let mut next_seq = 0u64;

    for epoch in 0..config.schedule.epochs {
        let batch = schedule.epoch_batch(epoch);
        let stream = epoch_stream(&batch, &mut next_seq);
        let serving_version = engine.model_version();
        let report = engine.process(stream.iter().cloned());

        let entry = decay::epoch_metrics(&batch, &report.alerts, serving_version, &vt);
        metrics.observe_epoch(&entry);
        curve.entries.push(entry);
        epoch_alerts.push(report.alerts);
        all_transactions.extend(stream.iter().cloned());

        if let Some(retrain) = &config.retrain {
            history.push_back(batch);
            while history.len() > retrain.history_epochs.max(1) {
                history.pop_front();
            }
            // The final epoch has no successor to serve; skip the fit.
            if epoch + 1 < config.schedule.epochs {
                let challenger = fit_forest(
                    history.iter().flat_map(|batch| &batch.episodes),
                    telemetry::pool::derive_seed(seed, CHALLENGER_SALT + epoch as u64),
                    threads,
                    None,
                );
                metrics.retrains.inc();

                let champion_model = engine.model_slot().load().0;
                let (champ_recall, champ_fpr) = shadow::shadow_eval(
                    &champion_model,
                    &config.detector,
                    &stream,
                    history.back().expect("just pushed"),
                );
                let (chall_recall, chall_fpr) = shadow::shadow_eval(
                    &challenger,
                    &config.detector,
                    &stream,
                    history.back().expect("just pushed"),
                );
                let recall_margin = chall_recall - champ_recall;
                let fpr_regression = chall_fpr - champ_fpr;
                let promoted = retrain.policy.decide(recall_margin, fpr_regression);
                let champion_version = engine.model_version();
                let model_version_after = if promoted {
                    metrics.promotions.inc();
                    engine.reload_model(challenger)
                } else {
                    champion_version
                };
                ledger.push(LedgerEntry {
                    epoch,
                    champion_version,
                    champion_recall: champ_recall,
                    champion_fpr: champ_fpr,
                    challenger_recall: chall_recall,
                    challenger_fpr: chall_fpr,
                    recall_margin,
                    fpr_regression,
                    promoted,
                    model_version_after,
                });
            }
        }
    }

    metrics.finish(&curve, engine.model_version());
    let (_, downloads) = streamd::order_and_downloads(&all_transactions);
    let report = streamd::finish_report(&mut engine, downloads, threads, registry);
    DriftLabReport { curve, ledger, epoch_alerts, report }
}

/// Drift-lab telemetry: campaign progress and outcome counters.
struct LabMetrics {
    epochs: telemetry::Counter,
    episodes: telemetry::Counter,
    caught: telemetry::Counter,
    false_positives: telemetry::Counter,
    retrains: telemetry::Counter,
    promotions: telemetry::Counter,
    final_recall_permille: telemetry::Gauge,
    model_version: telemetry::Gauge,
}

impl LabMetrics {
    fn new(reg: &Registry) -> Self {
        LabMetrics {
            epochs: reg.counter("driftlab_epochs_total", "Drift epochs replayed"),
            episodes: reg.counter("driftlab_episodes_total", "Episodes replayed"),
            caught: reg.counter("driftlab_caught_total", "Infections with attributed alerts"),
            false_positives: reg
                .counter("driftlab_false_positives_total", "Benign episodes with alerts"),
            retrains: reg.counter("driftlab_retrains_total", "Challenger fits"),
            promotions: reg.counter("driftlab_promotions_total", "Challenger promotions"),
            final_recall_permille: reg
                .gauge("driftlab_final_recall_permille", "Final-epoch recall, permille"),
            model_version: reg.gauge("driftlab_model_version", "Live model generation"),
        }
    }

    fn observe_epoch(&self, m: &EpochMetrics) {
        self.epochs.inc();
        self.episodes.add((m.infections + m.benign) as u64);
        self.caught.add(m.caught as u64);
        self.false_positives.add(m.false_positives as u64);
    }

    fn finish(&self, curve: &DecayCurve, model_version: u64) {
        self.final_recall_permille.set((curve.final_recall() * 1000.0).round() as i64);
        self.model_version.set(model_version as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DriftLabConfig {
        DriftLabConfig {
            schedule: DriftScheduleConfig {
                scale: 0.02,
                epochs: 3,
                ..DriftScheduleConfig::default()
            },
            train_scale: 0.02,
            ..DriftLabConfig::default()
        }
    }

    #[test]
    fn lab_runs_and_attributes_every_alert_to_a_model_version() {
        let reg = Registry::new();
        let out = run_drift_lab(&tiny_config(), Some(&reg));
        assert_eq!(out.curve.entries.len(), 3);
        assert!(out.ledger.is_empty(), "no retraining configured");
        // Without retraining the engine never reloads: every alert
        // carries the day-0 model generation.
        for alerts in &out.epoch_alerts {
            for a in alerts {
                assert_eq!(a.model_version, 1);
            }
        }
        assert_eq!(reg.snapshot().counter("driftlab_epochs_total"), 3);
        assert_eq!(reg.snapshot().counter("driftlab_retrains_total"), 0);
        assert!(out.curve.initial_recall() > 0.5, "day-0 model should catch clean epoch 0");
    }

    #[test]
    fn retrain_loop_writes_one_ledger_row_per_interior_epoch() {
        let mut cfg = tiny_config();
        cfg.retrain = Some(RetrainConfig::default());
        let reg = Registry::new();
        let out = run_drift_lab(&cfg, Some(&reg));
        // Epochs 0 and 1 get decisions; the final epoch has no successor.
        assert_eq!(out.ledger.len(), 2);
        for (i, entry) in out.ledger.iter().enumerate() {
            assert_eq!(entry.epoch, i);
            assert_eq!(entry.promoted, entry.model_version_after > entry.champion_version);
            assert!((entry.recall_margin
                - (entry.challenger_recall - entry.champion_recall))
                .abs()
                < 1e-12);
        }
        let promotions = out.ledger.iter().filter(|e| e.promoted).count() as u64;
        assert_eq!(reg.snapshot().counter("driftlab_promotions_total"), promotions);
        assert_eq!(reg.snapshot().counter("driftlab_retrains_total"), 2);
        // The curve records the version that *served* each epoch, so a
        // promotion after epoch k shows up in epoch k+1's row.
        for pair in out.curve.entries.windows(2) {
            assert!(pair[1].model_version >= pair[0].model_version);
        }
    }

    #[test]
    fn identical_configs_reproduce_identical_curves() {
        let a = run_drift_lab(&tiny_config(), None);
        let b = run_drift_lab(&tiny_config(), None);
        assert_eq!(
            serde_json::to_string(&a.curve).unwrap(),
            serde_json::to_string(&b.curve).unwrap()
        );
        assert_eq!(a.report.alerts, b.report.alerts);
    }
}
