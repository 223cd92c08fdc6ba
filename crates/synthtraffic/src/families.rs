//! Exploit-kit family profiles calibrated to the paper's Table I.
//!
//! Every number in [`FamilyProfile`] comes straight from the ground-truth
//! table: per-family PCAP counts, host-count ranges, redirect-chain ranges,
//! and unique payload counts per file type. Per-episode payload
//! expectations are the table counts divided by the family's PCAP count.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A min/max/average triple from Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RangeStat {
    /// Minimum observed value.
    pub(crate) min: usize,
    /// Maximum observed value.
    pub(crate) max: usize,
    /// Average value.
    pub(crate) avg: f64,
}

impl RangeStat {
    /// Samples a value with mean ≈ `avg`, support `[min, max]`, using a
    /// geometric tail above the minimum (conversation sizes are heavily
    /// right-skewed, like the paper's 2–404-node range around a mean of 10).
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        if self.max <= self.min {
            return self.min;
        }
        let mean_excess = (self.avg - self.min as f64).max(0.01);
        let q = mean_excess / (mean_excess + 1.0);
        let mut k = 0usize;
        while rng.gen_bool(q) && k < self.max - self.min {
            k += 1;
        }
        self.min + k
    }
}

/// The nine exploit-kit families of Table I plus the "Other Kits" bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EkFamily {
    /// Angler exploit kit.
    Angler,
    /// RIG exploit kit.
    Rig,
    /// Nuclear exploit kit.
    Nuclear,
    /// Magnitude exploit kit.
    Magnitude,
    /// SweetOrange exploit kit.
    SweetOrange,
    /// FlashPack exploit kit.
    FlashPack,
    /// Neutrino exploit kit.
    Neutrino,
    /// Goon exploit kit.
    Goon,
    /// Fiesta exploit kit.
    Fiesta,
    /// All remaining kits in the dataset.
    OtherKits,
}

/// Calibration profile for one family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyProfile {
    /// Family display name (Table I row label).
    pub name: &'static str,
    /// Number of ground-truth PCAPs in Table I.
    pub ground_truth_pcaps: usize,
    /// Hosts per conversation (Table I "No. of Hosts").
    pub(crate) hosts: RangeStat,
    /// Redirects per conversation (Table I "No. of Redirects").
    pub(crate) redirects: RangeStat,
    /// Expected payload counts per episode `[pdf, exe, jar, swf, crypt, js]`
    /// (Table I unique payload counts ÷ PCAPs).
    pub(crate) payloads: [f64; 6],
}

/// Fraction of infection traces with at least one post-download call-back
/// (708 of 770, Sec. II-D).
pub(crate) const CALLBACK_PROB: f64 = 708.0 / 770.0;

macro_rules! profile {
    ($name:expr, $pcaps:expr, hosts($hmin:expr, $hmax:expr, $havg:expr),
     redirects($rmin:expr, $rmax:expr, $ravg:expr),
     payloads($pdf:expr, $exe:expr, $jar:expr, $swf:expr, $crypt:expr, $js:expr)) => {
        FamilyProfile {
            name: $name,
            ground_truth_pcaps: $pcaps,
            hosts: RangeStat { min: $hmin, max: $hmax, avg: $havg },
            redirects: RangeStat { min: $rmin, max: $rmax, avg: $ravg },
            payloads: [
                $pdf as f64 / $pcaps as f64,
                $exe as f64 / $pcaps as f64,
                $jar as f64 / $pcaps as f64,
                $swf as f64 / $pcaps as f64,
                $crypt as f64 / $pcaps as f64,
                $js as f64 / $pcaps as f64,
            ],
        }
    };
}

impl EkFamily {
    /// All families in Table I row order.
    pub const ALL: [EkFamily; 10] = [
        EkFamily::Angler,
        EkFamily::Rig,
        EkFamily::Nuclear,
        EkFamily::Magnitude,
        EkFamily::SweetOrange,
        EkFamily::FlashPack,
        EkFamily::Neutrino,
        EkFamily::Goon,
        EkFamily::Fiesta,
        EkFamily::OtherKits,
    ];

    /// The family's Table I calibration profile.
    pub fn profile(self) -> FamilyProfile {
        match self {
            EkFamily::Angler => profile!("Angler", 253, hosts(2, 74, 6.0),
                redirects(0, 18, 1.0), payloads(0, 80, 133, 0, 64, 1163)),
            EkFamily::Rig => profile!("RIG", 62, hosts(2, 17, 4.0),
                redirects(0, 3, 1.0), payloads(0, 35, 74, 13, 0, 240)),
            EkFamily::Nuclear => profile!("Nuclear", 132, hosts(2, 213, 8.0),
                redirects(0, 18, 1.0), payloads(8, 730, 146, 13, 11, 935)),
            EkFamily::Magnitude => profile!("Magnitude", 43, hosts(2, 231, 20.0),
                redirects(0, 12, 2.0), payloads(0, 862, 22, 0, 2, 330)),
            EkFamily::SweetOrange => profile!("SweetOrange", 33, hosts(2, 90, 8.0),
                redirects(0, 6, 1.0), payloads(0, 310, 22, 0, 0, 227)),
            EkFamily::FlashPack => profile!("FlashPack", 29, hosts(2, 15, 5.0),
                redirects(0, 8, 2.0), payloads(0, 556, 35, 0, 0, 159)),
            EkFamily::Neutrino => profile!("Neutrino", 40, hosts(2, 30, 6.0),
                redirects(0, 14, 2.0), payloads(0, 45, 31, 5, 6, 217)),
            EkFamily::Goon => profile!("Goon", 19, hosts(2, 90, 9.0),
                redirects(0, 30, 2.0), payloads(0, 78, 15, 10, 0, 71)),
            EkFamily::Fiesta => profile!("Fiesta", 89, hosts(2, 182, 7.0),
                redirects(0, 3, 1.0), payloads(21, 226, 72, 63, 0, 414)),
            EkFamily::OtherKits => profile!("Other Kits", 70, hosts(2, 68, 4.0),
                redirects(0, 5, 1.0), payloads(1, 420, 13, 4, 0, 271)),
        }
    }

    /// Family display name.
    pub fn name(self) -> &'static str {
        self.profile().name
    }

    /// Samples a family with probability proportional to its ground-truth
    /// PCAP count (so corpora reproduce Table I's family mix).
    pub fn sample_weighted<R: Rng>(rng: &mut R) -> EkFamily {
        let total: usize = EkFamily::ALL.iter().map(|f| f.profile().ground_truth_pcaps).sum();
        let mut x = rng.gen_range(0..total);
        for f in EkFamily::ALL {
            let w = f.profile().ground_truth_pcaps;
            if x < w {
                return f;
            }
            x -= w;
        }
        EkFamily::OtherKits
    }
}

impl std::fmt::Display for EkFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Samples a per-episode payload count from an expectation: the integer
/// part is deterministic, the fractional part a Bernoulli draw.
pub(crate) fn sample_payload_count<R: Rng>(rng: &mut R, expectation: f64) -> usize {
    let base = expectation.floor() as usize;
    let frac = expectation - base as f64;
    base + usize::from(frac > 0.0 && rng.gen_bool(frac.min(1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ground_truth_totals_match_table1() {
        let total: usize = EkFamily::ALL.iter().map(|f| f.profile().ground_truth_pcaps).sum();
        assert_eq!(total, 770);
    }

    #[test]
    fn range_stat_sampling_stays_in_bounds_with_right_mean() {
        let stat = RangeStat { min: 2, max: 74, avg: 6.0 };
        let mut rng = StdRng::seed_from_u64(8);
        let samples: Vec<usize> = (0..20_000).map(|_| stat.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (2..=74).contains(&s)));
        let mean = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
        assert!((mean - 6.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn degenerate_range_returns_min() {
        let stat = RangeStat { min: 2, max: 2, avg: 2.0 };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(stat.sample(&mut rng), 2);
    }

    #[test]
    fn weighted_sampling_tracks_pcap_counts() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 77_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(EkFamily::sample_weighted(&mut rng)).or_insert(0usize) += 1;
        }
        // Angler should be ~253/770 of draws.
        let angler = counts[&EkFamily::Angler] as f64 / n as f64;
        assert!((angler - 253.0 / 770.0).abs() < 0.02, "angler share {angler}");
        // Goon is the rarest but still present.
        assert!(counts[&EkFamily::Goon] > 0);
    }

    #[test]
    fn magnitude_is_download_heavy() {
        // Table I: Magnitude averages 862/43 ≈ 20 executables per trace.
        let p = EkFamily::Magnitude.profile();
        assert!(p.payloads[1] > 15.0);
        assert!((p.hosts.avg - 20.0).abs() < 1e-9);
    }

    #[test]
    fn payload_count_sampling_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(10);
        let exp = 2.4f64;
        let mean: f64 = (0..20_000)
            .map(|_| sample_payload_count(&mut rng, exp) as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - exp).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn callback_probability_matches_paper() {
        assert!((CALLBACK_PROB - 0.9195).abs() < 0.001);
    }
}
