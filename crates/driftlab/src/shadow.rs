//! The shadow-model loop: online retraining with champion/challenger
//! promotion.
//!
//! After every epoch the retrainer fits a *challenger* forest on a
//! sliding window of recent labeled episodes, replays the epoch through
//! two fresh, observation-only detectors — one holding the live
//! *champion* model, one the challenger — and promotes through
//! [`StreamEngine::reload_model`](streamd::StreamEngine::reload_model)
//! only when the [`PromotionPolicy`] says the challenger's recall gain
//! is worth its false-positive cost. Every decision lands in an
//! auditable [`LedgerEntry`], and because promotion bumps the engine's
//! [`ModelSlot`](mlearn::slot::ModelSlot) generation, every subsequent
//! alert carries the new `model_version` — the curve and the ledger
//! cross-check each other.

use dynaminer::classifier::Classifier;
use dynaminer::detector::{DetectorConfig, OnTheWireDetector};
use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};

use crate::decay::confusion;
use crate::schedule::EpochBatch;

/// When a challenger replaces the champion.
///
/// `decide` is monotone in both arguments by construction: if a
/// challenger is promoted at recall margin `m`, it is promoted at every
/// margin above `m` (and symmetrically for the false-positive
/// regression) — the property the promotion proptest pins.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PromotionPolicy {
    /// Minimum recall gain (challenger − champion) required to promote.
    pub min_recall_gain: f64,
    /// Maximum tolerated false-positive-rate regression
    /// (challenger − champion).
    pub max_fpr_regression: f64,
}

impl PromotionPolicy {
    /// A policy that never promotes: the shadow loop still trains and
    /// scores challengers (and writes the ledger), but the live model
    /// is never touched. Used by the differential test to show the
    /// shadow path is observation-only.
    pub const NEVER: PromotionPolicy =
        PromotionPolicy { min_recall_gain: f64::INFINITY, max_fpr_regression: f64::INFINITY };

    /// The promotion decision: pure, total, monotone.
    pub fn decide(&self, recall_margin: f64, fpr_regression: f64) -> bool {
        recall_margin >= self.min_recall_gain && fpr_regression <= self.max_fpr_regression
    }
}

impl Default for PromotionPolicy {
    fn default() -> Self {
        PromotionPolicy { min_recall_gain: 0.02, max_fpr_regression: 0.02 }
    }
}

/// Shadow-retrainer knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetrainConfig {
    /// Promotion policy.
    pub policy: PromotionPolicy,
    /// Sliding window: how many recent epoch batches the challenger
    /// trains on.
    pub history_epochs: usize,
    /// Thread budget for challenger training and dataset building
    /// (`0` = all cores; training is bit-identical at any count).
    pub threads: usize,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig { policy: PromotionPolicy::default(), history_epochs: 3, threads: 0 }
    }
}

/// One row of the promotion ledger: the full evidence behind a
/// promote/hold decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Epoch whose traffic the shadow evaluation replayed.
    pub epoch: usize,
    /// Champion model generation at decision time.
    pub champion_version: u64,
    /// Champion recall on the epoch replay.
    pub champion_recall: f64,
    /// Champion false-positive rate on the epoch replay.
    pub champion_fpr: f64,
    /// Challenger recall on the epoch replay.
    pub challenger_recall: f64,
    /// Challenger false-positive rate on the epoch replay.
    pub challenger_fpr: f64,
    /// `challenger_recall − champion_recall`.
    pub recall_margin: f64,
    /// `challenger_fpr − champion_fpr`.
    pub fpr_regression: f64,
    /// Whether the policy promoted the challenger.
    pub promoted: bool,
    /// Engine model generation after the decision (== champion's when
    /// not promoted).
    pub model_version_after: u64,
}

/// Replays one epoch's stream through a fresh, observation-only
/// detector holding `model`, and scores the resulting alerts against
/// the batch's ground truth. Returns `(recall, fpr)`.
///
/// The detector is constructed and dropped inside this call — the
/// shadow evaluation can never touch live engine state.
pub fn shadow_eval(
    model: &Classifier,
    detector_config: &DetectorConfig,
    stream: &[HttpTransaction],
    batch: &EpochBatch,
) -> (f64, f64) {
    let mut detector = OnTheWireDetector::new(model.clone(), detector_config.clone());
    for tx in stream {
        detector.observe(tx);
    }
    let (caught, false_positives, _) = confusion(batch, detector.alerts());
    let infections = batch.infections().count();
    let benign = batch.benign().count();
    let frac = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    (frac(caught, infections), frac(false_positives, benign))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_is_monotone_and_total() {
        let p = PromotionPolicy { min_recall_gain: 0.05, max_fpr_regression: 0.01 };
        assert!(p.decide(0.05, 0.01));
        assert!(p.decide(0.2, -0.5));
        assert!(!p.decide(0.049, 0.0));
        assert!(!p.decide(0.5, 0.011));
        // Monotone: promotion at margin m implies promotion at m' > m.
        for m in [0.05, 0.1, 0.9] {
            if p.decide(m, 0.0) {
                assert!(p.decide(m + 0.01, 0.0));
            }
        }
    }

    #[test]
    fn never_policy_never_promotes() {
        assert!(!PromotionPolicy::NEVER.decide(1.0, -1.0));
        assert!(!PromotionPolicy::NEVER.decide(f64::MAX, f64::MIN));
    }

    #[test]
    fn nan_margins_hold_the_champion() {
        // A degenerate shadow replay (no episodes) must fail closed.
        assert!(!PromotionPolicy::default().decide(f64::NAN, 0.0));
        assert!(!PromotionPolicy::default().decide(1.0, f64::NAN));
    }
}
