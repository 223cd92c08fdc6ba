//! Detector and classifier telemetry.
//!
//! [`DetectorMetrics`] mirrors the paper's on-the-wire stage sequence
//! (weed-out → clue → retrospective WCG rebuild → classify → alert) as
//! counters, plus the two hot-path latency histograms. Every
//! [`crate::detector::OnTheWireDetector`] owns a bundle; pass a shared
//! [`Registry`] via `with_telemetry` to aggregate several detectors
//! (or the detector plus ingest) into one exposition.

use telemetry::{Counter, Gauge, Histogram, Registry};

/// Counter/gauge/histogram handles for the live-detection path.
#[derive(Clone, Debug)]
pub struct DetectorMetrics {
    /// Transactions observed after trusted-vendor weed-out.
    pub transactions: Counter,
    /// Transactions weeded out by the trusted-vendor allowlist.
    pub trusted_weeded: Counter,
    /// Conversations that tipped into the watched state (clue fired).
    pub clues: Counter,
    /// Retrospective WCG rebuilds (== classifier invocations).
    pub wcg_rebuilds: Counter,
    /// Re-classification rounds on already-watched conversations.
    pub reclassifications: Counter,
    /// Alerts raised.
    pub alerts: Counter,
    /// Conversations evicted by the per-client conversation cap.
    pub cap_evictions: Counter,
    /// Transactions dropped by the per-conversation transaction cap.
    pub dropped_transactions: Counter,
    /// Model hot-reloads observed on the classification path.
    pub model_reloads: Counter,
    /// Live conversations across all clients.
    pub conversations_live: Gauge,
    /// WCG rebuild + 37-feature extraction latency, nanoseconds.
    pub feature_extraction_ns: Histogram,
    /// Forest scoring latency per classification, nanoseconds.
    pub scoring_ns: Histogram,
}

impl DetectorMetrics {
    /// Registers (or re-attaches to) the detector metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        DetectorMetrics {
            transactions: registry.counter(
                "detector_transactions_total",
                "Transactions observed after trusted-vendor weed-out",
            ),
            trusted_weeded: registry.counter(
                "detector_trusted_weeded_total",
                "Transactions weeded out as trusted-vendor traffic",
            ),
            clues: registry
                .counter("detector_clues_total", "Conversations tipped into the watched state"),
            wcg_rebuilds: registry.counter(
                "detector_wcg_rebuilds_total",
                "Retrospective WCG rebuilds (classifier invocations)",
            ),
            reclassifications: registry.counter(
                "detector_reclassifications_total",
                "Re-classification rounds on already-watched conversations",
            ),
            alerts: registry.counter("detector_alerts_total", "Infection alerts raised"),
            cap_evictions: registry.counter(
                "session_cap_evictions_total",
                "Conversations evicted by the per-client cap",
            ),
            dropped_transactions: registry.counter(
                "session_transactions_dropped_total",
                "Transactions dropped by the per-conversation cap",
            ),
            model_reloads: registry.counter(
                "detector_model_reloads_total",
                "Model hot-reloads observed on the classification path",
            ),
            conversations_live: registry
                .gauge("session_conversations_live", "Live conversations across all clients"),
            feature_extraction_ns: registry.latency_histogram(
                "classifier_feature_extraction_ns",
                "WCG rebuild + 37-feature extraction latency per classification",
            ),
            scoring_ns: registry.latency_histogram(
                "classifier_scoring_ns",
                "Random-forest scoring latency per classification or batch",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_idempotently_in_a_shared_registry() {
        let registry = Registry::new();
        let a = DetectorMetrics::new(&registry);
        let b = DetectorMetrics::new(&registry);
        a.clues.inc();
        b.clues.inc();
        assert_eq!(registry.snapshot().counter("detector_clues_total"), 2);
    }
}
