//! Ground-truth and validation corpus builders plus Table I-style summary
//! statistics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::benign::{generate_benign, BenignScenario};
use crate::episode::{generate_infection, Episode, EpisodeLabel};
use crate::families::EkFamily;
use nettrace::payload::PayloadClass;

/// Benign browsing traces in the paper's ground truth (Table I).
pub const BENIGN_TRACES: usize = 980;

/// Epoch seconds for 2013-06-01 (start of the infection window).
pub const INFECTION_WINDOW_START: f64 = 1_370_044_800.0;
/// Epoch seconds for 2016-07-01 (end of the infection window).
pub const INFECTION_WINDOW_END: f64 = 1_467_331_200.0;
/// Epoch seconds for 2015-05-01 (start of the benign window).
pub const BENIGN_WINDOW_START: f64 = 1_430_438_400.0;
/// Epoch seconds for 2016-05-01 (end of the benign window).
pub const BENIGN_WINDOW_END: f64 = 1_462_060_800.0;

/// Builds the ground-truth corpus: per-family infection counts from
/// Table I (770 infections total) plus [`BENIGN_TRACES`], both scaled by
/// `scale` (use 1.0 for the paper-sized corpus, smaller for quick tests).
/// Episodes are returned infections-first, then benign, each internally in
/// generation order.
pub fn ground_truth(seed: u64, scale: f64) -> Vec<Episode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut episodes = Vec::new();
    for family in EkFamily::ALL {
        let count = scaled(family.profile().ground_truth_pcaps, scale);
        for _ in 0..count {
            episodes.push(infection_trace(&mut rng, family));
        }
    }
    for _ in 0..scaled(BENIGN_TRACES, scale) {
        episodes.push(benign_session(&mut rng));
    }
    episodes
}

/// One benign trace: a single scenario half the time, otherwise a
/// multi-tab session merging 2–3 scenarios (Sec. II-A keeps multiple tabs
/// open during collection).
fn benign_session(rng: &mut StdRng) -> Episode {
    let ts = rng.gen_range(BENIGN_WINDOW_START..BENIGN_WINDOW_END);
    let tabs = if rng.gen_bool(0.5) { 1 } else { rng.gen_range(2..=3) };
    let eps: Vec<Episode> = (0..tabs)
        .map(|i| {
            let scenario = BenignScenario::sample(rng);
            generate_benign(rng, scenario, ts + i as f64)
        })
        .collect();
    crate::benign::merge_sessions(rng, eps)
}

/// Builds the held-out validation corpus of Sec. VI-B: 7489 infections
/// (family mix re-sampled with Table I weights, standing in for the
/// ThreatGlass feed) and 1500 benign traces, scaled by `scale`. Uses a
/// seed space disjoint from [`ground_truth`] so no episode is shared.
pub fn validation_set(seed: u64, scale: f64) -> Vec<Episode> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f5a_11da_7a5e);
    let mut episodes = Vec::new();
    for _ in 0..scaled(7489, scale) {
        let family = EkFamily::sample_weighted(&mut rng);
        episodes.push(infection_trace(&mut rng, family));
    }
    for _ in 0..scaled(1500, scale) {
        episodes.push(benign_session(&mut rng));
    }
    episodes
}

/// One infection trace: the exploit-kit conversation plus — in roughly
/// half the traces — a concurrent benign browsing tab. The paper
/// emphasizes that infection dynamics arrive "buried in benign
/// background traffic"; the ensemble's tree substructures are what keep
/// the infection dynamics recognizable inside the noise.
fn infection_trace(rng: &mut StdRng, family: EkFamily) -> Episode {
    let ts = rng.gen_range(INFECTION_WINDOW_START..INFECTION_WINDOW_END);
    let infection = generate_infection(rng, family, ts);
    if rng.gen_bool(0.55) {
        let scenario = BenignScenario::sample(rng);
        let mut tab = generate_benign(rng, scenario, ts);
        tab.transactions.truncate(12); // the tab idles once the infection unfolds
        crate::benign::merge_sessions(rng, vec![infection, tab])
    } else {
        infection
    }
}

/// `count` scaled by `scale`, rounded, and never below one: how every
/// corpus sizes a Table I count.
pub fn scaled(count: usize, scale: f64) -> usize {
    ((count as f64 * scale).round() as usize).max(1)
}

/// One Table I-style summary row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Row label ("Benign" or the family name).
    pub label: String,
    /// Number of episodes.
    pub episodes: usize,
    /// Host-count minimum / maximum / average.
    pub hosts: (usize, usize, f64),
    /// Redirect-count minimum / maximum / average.
    pub redirects: (usize, usize, f64),
    /// Payload counts `[pdf, exe, jar, swf, crypt, js]`.
    pub payload_counts: [usize; 6],
}

impl CorpusStats {
    /// Summarizes a set of episodes under one label.
    ///
    /// # Panics
    ///
    /// Panics when `episodes` is empty.
    fn summarize(label: &str, episodes: &[&Episode]) -> CorpusStats {
        assert!(!episodes.is_empty(), "cannot summarize zero episodes");
        let hosts: Vec<usize> = episodes.iter().map(|e| e.unique_hosts()).collect();
        let redirects: Vec<usize> = episodes.iter().map(|e| e.redirect_count()).collect();
        let mut payload_counts = [0usize; 6];
        for ep in episodes {
            for tx in &ep.transactions {
                let slot = match tx.payload_class {
                    PayloadClass::Pdf => 0,
                    PayloadClass::Exe => 1,
                    PayloadClass::Jar => 2,
                    PayloadClass::Swf => 3,
                    PayloadClass::Crypt => 4,
                    PayloadClass::Js => 5,
                    _ => continue,
                };
                payload_counts[slot] += 1;
            }
        }
        CorpusStats {
            label: label.to_string(),
            episodes: episodes.len(),
            hosts: min_max_avg(&hosts),
            redirects: min_max_avg(&redirects),
            payload_counts,
        }
    }

    /// Summarizes a full corpus into Table I rows: one "Benign" row plus
    /// one per family, in Table I order.
    pub fn table_rows(corpus: &[Episode]) -> Vec<CorpusStats> {
        let mut rows = Vec::new();
        let benign: Vec<&Episode> = corpus.iter().filter(|e| !e.is_infection()).collect();
        if !benign.is_empty() {
            rows.push(CorpusStats::summarize("Benign", &benign));
        }
        for family in EkFamily::ALL {
            let members: Vec<&Episode> = corpus
                .iter()
                .filter(|e| e.label == EpisodeLabel::Infection(family))
                .collect();
            if !members.is_empty() {
                rows.push(CorpusStats::summarize(family.name(), &members));
            }
        }
        rows
    }
}

fn min_max_avg(values: &[usize]) -> (usize, usize, f64) {
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let avg = values.iter().sum::<usize>() as f64 / values.len() as f64;
    (min, max, avg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_counts_round_and_floor_at_one() {
        assert_eq!(scaled(980, 1.0), 980);
        assert_eq!(scaled(980, 0.1), 98);
        assert_eq!(scaled(19, 0.01), 1);
    }

    #[test]
    fn ground_truth_mix_matches_table1_at_scale() {
        let corpus = ground_truth(42, 0.1);
        let infections = corpus.iter().filter(|e| e.is_infection()).count();
        let benign = corpus.len() - infections;
        assert_eq!(benign, 98);
        assert_eq!(infections, 76); // Σ round(counts · 0.1): 25+6+13+4+3+3+4+2+9+7
        // Angler should be the largest family.
        let angler = corpus
            .iter()
            .filter(|e| e.label == EpisodeLabel::Infection(EkFamily::Angler))
            .count();
        assert_eq!(angler, 25);
    }

    #[test]
    fn corpora_are_deterministic() {
        let a = ground_truth(7, 0.02);
        let b = ground_truth(7, 0.02);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.transactions.len(), y.transactions.len());
            assert_eq!(x.start_ts, y.start_ts);
        }
    }

    #[test]
    fn validation_set_is_disjoint_in_content() {
        let gt = ground_truth(7, 0.02);
        let val = validation_set(7, 0.01);
        let gt_digests: std::collections::HashSet<u64> = gt
            .iter()
            .flat_map(|e| e.transactions.iter().map(|t| t.payload_digest))
            .filter(|&d| d != nettrace::transaction::fnv1a(b""))
            .collect();
        let overlap = val
            .iter()
            .flat_map(|e| e.transactions.iter().map(|t| t.payload_digest))
            .filter(|d| gt_digests.contains(d))
            .count();
        assert_eq!(overlap, 0, "validation payloads must be fresh");
    }

    #[test]
    fn table_rows_cover_benign_and_all_families() {
        let corpus = ground_truth(3, 0.05);
        let rows = CorpusStats::table_rows(&corpus);
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].label, "Benign");
        assert_eq!(rows[1].label, "Angler");
    }

    #[test]
    fn stats_reflect_calibration_direction() {
        // Infections must out-redirect and out-host benign traffic on
        // average — the core contrast the classifier exploits.
        let corpus = ground_truth(11, 0.1);
        let rows = CorpusStats::table_rows(&corpus);
        let benign = &rows[0];
        let angler = rows.iter().find(|r| r.label == "Angler").unwrap();
        assert!(angler.hosts.2 > benign.hosts.2, "hosts {} vs {}", angler.hosts.2, benign.hosts.2);
        assert!(angler.redirects.2 > benign.redirects.2);
        // Benign row: js present, crypt absent (Table I benign row shape).
        assert_eq!(benign.payload_counts[4], 0, "benign crypt payloads");
    }

    #[test]
    fn calibration_tracks_table1_bands() {
        // Regression guard: per-family averages must stay within loose
        // bands of Table I so experiment binaries remain comparable run
        // over run. (Generator changes that move these bands should be
        // deliberate, with EXPERIMENTS.md updated.)
        let corpus = ground_truth(42, 0.15);
        let rows = CorpusStats::table_rows(&corpus);
        let benign = &rows[0];
        assert!(benign.hosts.2 < 10.0, "benign avg hosts {}", benign.hosts.2);
        assert!(benign.redirects.2 < 1.0, "benign avg redirects {}", benign.redirects.2);
        assert!(benign.redirects.1 <= 4, "benign max redirects {}", benign.redirects.1);
        let by_name = |n: &str| rows.iter().find(|r| r.label == n).unwrap();
        // Magnitude is the download-heaviest family by an integer factor.
        let magnitude = by_name("Magnitude");
        let rig = by_name("RIG");
        assert!(magnitude.hosts.2 > 2.0 * rig.hosts.2,
            "magnitude {} vs rig {}", magnitude.hosts.2, rig.hosts.2);
        // Infection redirect averages sit in Table I's 1–3 band for the
        // large families (small families like Goon have only a handful of
        // traces at this scale, so their mean is too noisy to band).
        for family in ["Angler", "Nuclear"] {
            let row = by_name(family);
            assert!(
                (0.5..=3.5).contains(&row.redirects.2),
                "{family} avg redirects {}",
                row.redirects.2
            );
        }
        assert!(by_name("Goon").redirects.2 <= 8.0, "goon {}", by_name("Goon").redirects.2);
    }

    #[test]
    fn infection_timestamps_fall_in_window() {
        for ep in ground_truth(5, 0.02).iter().filter(|e| e.is_infection()) {
            assert!(ep.start_ts >= INFECTION_WINDOW_START && ep.start_ts < INFECTION_WINDOW_END);
        }
    }
}
