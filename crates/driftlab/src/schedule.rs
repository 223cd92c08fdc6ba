//! The drift schedule: deterministic, seeded parameter walks over
//! simulated time, emitted as dated episode batches.
//!
//! Each exploit-kit family walks its own path through knob space: a
//! per-family drift *rate* (a pure function of the schedule seed and the
//! family) scales a global ramp that rises linearly from zero at epoch 0
//! to the configured ceiling at the final epoch. Fast-moving families
//! (think Angler's weekly re-tooling) reach deep cloaking while slower
//! ones lag — the same asymmetry the ThreatGlass substitution in PAPER.md
//! models for family evolution.
//!
//! Every batch is a pure function of `(config, epoch)`: calling
//! [`DriftSchedule::epoch_batch`] twice — or from two processes —
//! produces byte-identical episodes. That purity is what the decay
//! goldens and the schedule-determinism proptest pin.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use synthtraffic::benign::{generate_benign, BenignScenario};
use synthtraffic::corpus::{scaled, BENIGN_TRACES, INFECTION_WINDOW_END};
use synthtraffic::drift::{apply_drift, DriftKnobs};
use synthtraffic::episode::{generate_infection, Episode};
use synthtraffic::EkFamily;

/// Domain separator so drift RNG streams never collide with the
/// ground-truth corpus streams derived from the same user seed.
const DRIFT_SALT: u64 = 0xd21f_7a5e_0c4b_91e3;

/// Schedule parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftScheduleConfig {
    /// Master seed; every epoch derives its own RNG from it.
    pub seed: u64,
    /// Corpus scale per epoch (1.0 ≈ one Table I ground truth per epoch).
    pub scale: f64,
    /// Number of epochs in the campaign.
    pub epochs: usize,
    /// Simulated seconds per epoch.
    pub epoch_secs: f64,
    /// Campaign start (epoch seconds). Defaults to the end of the
    /// paper's infection window — drift begins where the ground truth
    /// stops.
    pub start_ts: f64,
    /// Knob ceiling reached at the final epoch by a rate-1.0 family.
    pub max_knobs: DriftKnobs,
}

impl Default for DriftScheduleConfig {
    fn default() -> Self {
        DriftScheduleConfig {
            seed: 42,
            scale: 0.05,
            epochs: 6,
            epoch_secs: 14.0 * 86_400.0,
            start_ts: INFECTION_WINDOW_END,
            // Calibrated so most of the decay is model-signal erosion
            // (timing, URI shapes, call-back cloaks) rather than clue-gate
            // starvation: a retrained forest can win back what a dead gate
            // cannot.
            max_knobs: DriftKnobs {
                redirect_shorten: 0.35,
                benign_mimicry: 0.85,
                payload_shift: 0.35,
                evasion_prob: 0.55,
            },
        }
    }
}

/// One dated batch of drifted episodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochBatch {
    /// Epoch index, 0-based.
    pub epoch: usize,
    /// Epoch window start (epoch seconds).
    pub start_ts: f64,
    /// Epoch window end (epoch seconds).
    pub end_ts: f64,
    /// Mean knobs across families at this epoch (for reporting).
    pub mean_knobs: DriftKnobs,
    /// Episodes: drifted infections (family-major, generation order)
    /// followed by benign sessions, each starting inside the window.
    pub episodes: Vec<Episode>,
}

impl EpochBatch {
    /// Infection episodes in the batch.
    pub fn infections(&self) -> impl Iterator<Item = &Episode> {
        self.episodes.iter().filter(|e| e.is_infection())
    }

    /// Benign episodes in the batch.
    pub fn benign(&self) -> impl Iterator<Item = &Episode> {
        self.episodes.iter().filter(|e| !e.is_infection())
    }
}

/// Deterministic drift-campaign generator.
#[derive(Debug, Clone)]
pub struct DriftSchedule {
    config: DriftScheduleConfig,
}

impl DriftSchedule {
    /// Wraps a configuration.
    pub fn new(config: DriftScheduleConfig) -> Self {
        DriftSchedule { config }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &DriftScheduleConfig {
        &self.config
    }

    /// Per-family drift rate in `[0.55, 1.0]`: a pure function of
    /// `(seed, family)`, so the same campaign always assigns the same
    /// families the same walking speed.
    pub fn family_rate(&self, family: EkFamily) -> f64 {
        let idx = EkFamily::ALL.iter().position(|f| *f == family).unwrap_or(0) as u64;
        let h = telemetry::pool::derive_seed(self.config.seed ^ DRIFT_SALT, idx);
        0.55 + 0.45 * ((h >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// The knobs `family` runs at in `epoch`: the global ramp
    /// (`epoch / (epochs - 1)`) scaled by the family rate and the
    /// configured ceiling. Epoch 0 is always undrifted.
    pub fn knobs_for(&self, family: EkFamily, epoch: usize) -> DriftKnobs {
        let span = self.config.epochs.saturating_sub(1).max(1) as f64;
        let ramp = (epoch as f64 / span).clamp(0.0, 1.0);
        self.config.max_knobs.scaled(ramp * self.family_rate(family))
    }

    /// Simulated time window of `epoch`.
    pub fn epoch_window(&self, epoch: usize) -> (f64, f64) {
        let start = self.config.start_ts + epoch as f64 * self.config.epoch_secs;
        (start, start + self.config.epoch_secs)
    }

    /// Generates the dated episode batch for `epoch` — a pure function
    /// of `(config, epoch)`, byte-identical across calls and processes.
    pub fn epoch_batch(&self, epoch: usize) -> EpochBatch {
        let (start_ts, end_ts) = self.epoch_window(epoch);
        let mut rng = StdRng::seed_from_u64(telemetry::pool::derive_seed(
            self.config.seed ^ DRIFT_SALT,
            epoch as u64,
        ));
        let mut episodes = Vec::new();
        let mut knob_sum = [0.0f64; 4];
        for family in EkFamily::ALL {
            let knobs = self.knobs_for(family, epoch);
            knob_sum[0] += knobs.redirect_shorten;
            knob_sum[1] += knobs.benign_mimicry;
            knob_sum[2] += knobs.payload_shift;
            knob_sum[3] += knobs.evasion_prob;
            let count = scaled(family.profile().ground_truth_pcaps, self.config.scale);
            for _ in 0..count {
                let ts = rng.gen_range(start_ts..end_ts);
                let base = generate_infection(&mut rng, family, ts);
                episodes.push(apply_drift(&mut rng, &knobs, base));
            }
        }
        for _ in 0..scaled(BENIGN_TRACES, self.config.scale) {
            let ts = rng.gen_range(start_ts..end_ts);
            let scenario = BenignScenario::sample(&mut rng);
            episodes.push(generate_benign(&mut rng, scenario, ts));
        }
        let n = EkFamily::ALL.len() as f64;
        EpochBatch {
            epoch,
            start_ts,
            end_ts,
            mean_knobs: DriftKnobs {
                redirect_shorten: knob_sum[0] / n,
                benign_mimicry: knob_sum[1] / n,
                payload_shift: knob_sum[2] / n,
                evasion_prob: knob_sum[3] / n,
            },
            episodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> DriftSchedule {
        DriftSchedule::new(DriftScheduleConfig {
            scale: 0.02,
            epochs: 4,
            ..DriftScheduleConfig::default()
        })
    }

    #[test]
    fn batches_are_dated_and_windowed() {
        let s = schedule();
        for epoch in 0..4 {
            let batch = s.epoch_batch(epoch);
            assert_eq!(batch.epoch, epoch);
            for ep in &batch.episodes {
                assert!(
                    ep.start_ts >= batch.start_ts && ep.start_ts < batch.end_ts,
                    "episode outside epoch {epoch} window"
                );
            }
            assert!(batch.infections().count() > 0);
            assert!(batch.benign().count() > 0);
        }
        // Consecutive windows tile the campaign.
        let (s0, e0) = s.epoch_window(0);
        let (s1, _) = s.epoch_window(1);
        assert_eq!(e0, s1);
        assert!(s0 < e0);
    }

    #[test]
    fn epoch_zero_is_undrifted_and_ramps_monotonically() {
        let s = schedule();
        for family in EkFamily::ALL {
            assert!(s.knobs_for(family, 0).is_none(), "epoch 0 must be clean");
            let mut prev = 0.0;
            for epoch in 0..4 {
                let k = s.knobs_for(family, epoch);
                assert!(k.benign_mimicry >= prev, "{family:?} not monotone");
                prev = k.benign_mimicry;
            }
            let rate = s.family_rate(family);
            assert!((0.55..=1.0).contains(&rate), "{family:?} rate {rate}");
        }
    }

    #[test]
    fn batches_are_pure_functions_of_config_and_epoch() {
        let a = schedule().epoch_batch(2);
        let b = schedule().epoch_batch(2);
        assert_eq!(a.episodes.len(), b.episodes.len());
        for (x, y) in a.episodes.iter().zip(&b.episodes) {
            assert_eq!(x.transactions.len(), y.transactions.len());
            assert_eq!(x.start_ts.to_bits(), y.start_ts.to_bits());
            for (tx, ty) in x.transactions.iter().zip(&y.transactions) {
                assert_eq!(tx.host, ty.host);
                assert_eq!(tx.uri, ty.uri);
                assert_eq!(tx.ts.to_bits(), ty.ts.to_bits());
                assert_eq!(tx.payload_digest, ty.payload_digest);
            }
        }
    }

    #[test]
    fn later_epochs_carry_visibly_drifted_episodes() {
        let s = schedule();
        let early = s.epoch_batch(0);
        let late = s.epoch_batch(3);
        let redirects = |b: &EpochBatch| {
            b.infections().map(|e| e.redirect_count()).sum::<usize>() as f64
                / b.infections().count().max(1) as f64
        };
        let duration = |b: &EpochBatch| {
            b.infections().map(|e| e.duration()).sum::<f64>()
                / b.infections().count().max(1) as f64
        };
        assert!(
            redirects(&late) < redirects(&early),
            "late epochs should shorten chains: {} vs {}",
            redirects(&late),
            redirects(&early)
        );
        assert!(
            duration(&late) > duration(&early),
            "mimicry pacing should stretch late episodes"
        );
    }
}
