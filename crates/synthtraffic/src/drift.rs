//! Adversarial drift transforms: graduated, per-episode cloaking.
//!
//! Where [`evasion`] models the paper's Sec. VII
//! strategies as all-or-nothing switches, real campaigns *walk*: over
//! months a family shortens its redirect chains a hop at a time, dresses
//! its infrastructure up as benign CDN traffic, and re-wraps payloads in
//! generic containers. [`DriftKnobs`] captures that walk as four
//! continuous dials in `[0, 1)`; [`apply_drift`] applies one sampled
//! step of it to a generated infection episode.
//!
//! The transforms are applied *after* episode generation, as a pure
//! post-pass over the transaction list. That keeps the base generator's
//! RNG stream untouched — an undrifted corpus is bit-identical whether
//! or not this module exists — and makes a drifted batch a deterministic
//! function of `(episode, knobs, drift rng)`.

use nettrace::payload::PayloadClass;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::episode::Episode;
use crate::evasion::{self, Evasion};
use crate::hostgen;

/// Continuous drift dials, each in `[0, 1)`. All-zero knobs are the
/// identity transform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftKnobs {
    /// Probability each redirect hop is elided from the chain
    /// (redirect-chain shortening; at 1.0 the chain is gone entirely).
    pub redirect_shorten: f64,
    /// Benign-mimicry strength: probability each EK-generated host is
    /// renamed to a benign-looking domain, each EK-style long URI is
    /// shortened to a benign shape, and the factor by which the
    /// episode's pacing stretches toward human-paced browsing.
    pub benign_mimicry: f64,
    /// Probability each overt exploit-type payload is re-wrapped as a
    /// generic container (`Archive`/`Other`) on the wire.
    pub payload_shift: f64,
    /// Probability one of the [`Evasion`] strategies is applied on top,
    /// weighted toward the gate-neutral call-back cloaks.
    pub evasion_prob: f64,
}

impl DriftKnobs {
    /// The identity transform: no drift.
    pub const NONE: DriftKnobs = DriftKnobs {
        redirect_shorten: 0.0,
        benign_mimicry: 0.0,
        payload_shift: 0.0,
        evasion_prob: 0.0,
    };

    /// Whether every dial is at zero (identity transform).
    pub fn is_none(&self) -> bool {
        *self == DriftKnobs::NONE
    }

    /// Linear interpolation from zero toward `self` by `ramp ∈ [0, 1]`,
    /// clamped so every dial stays a valid probability.
    pub fn scaled(&self, ramp: f64) -> DriftKnobs {
        let s = |v: f64| (v * ramp).clamp(0.0, 0.95);
        DriftKnobs {
            redirect_shorten: s(self.redirect_shorten),
            benign_mimicry: s(self.benign_mimicry),
            payload_shift: s(self.payload_shift),
            evasion_prob: s(self.evasion_prob),
        }
    }
}

/// A benign-looking domain: dashless stem+token on a mainstream TLD,
/// the shape `hostgen::random_domain`'s EK-flavored output avoids.
fn benign_mimic_domain<R: Rng>(rng: &mut R) -> String {
    const STEMS: [&str; 8] =
        ["assets", "static", "images", "api", "content", "pages", "files", "site"];
    const TLDS: [&str; 3] = ["com", "net", "org"];
    let stem = STEMS[rng.gen_range(0..STEMS.len())];
    let tld = TLDS[rng.gen_range(0..TLDS.len())];
    format!("{stem}{}.{tld}", hostgen::random_token(rng, 3))
}

/// Applies one sampled drift step to an infection episode. The label is
/// preserved — the conversation is still an infection, its dynamics are
/// just walked toward the benign manifold:
///
/// 1. **payload-type shift** — overt exploit downloads re-wrapped as
///    `Archive`/`Other` (same bytes, same digest, generic wire type),
/// 2. **redirect-chain shortening** — each hop independently elided,
/// 3. **benign mimicry** — EK hosts renamed (with referrer/`Location`
///    URLs rewritten so the WCG edges stay coherent), long landing URIs
///    shortened, and inter-transaction pacing stretched toward the
///    benign timing range,
/// 4. **graduated evasion** — with probability `evasion_prob` one
///    [`Evasion`] strategy on top (35 % no-callback, 35 % delayed
///    callback, 20 % no-redirects, 10 % fileless).
///
/// Deterministic given the RNG state; all-zero knobs return the episode
/// unchanged without consuming randomness.
pub fn apply_drift<R: Rng>(rng: &mut R, knobs: &DriftKnobs, mut ep: Episode) -> Episode {
    // 1. Payload-type shift.
    if knobs.payload_shift > 0.0 {
        for tx in &mut ep.transactions {
            if tx.status / 100 == 2
                && tx.payload_class.is_exploit_type()
                && rng.gen_bool(knobs.payload_shift)
            {
                let wire = if rng.gen_bool(0.6) { PayloadClass::Archive } else { PayloadClass::Other };
                tx.payload_class = wire;
                tx.uri = hostgen::payload_uri(rng, wire);
            }
        }
    }

    // 2. Redirect-chain shortening: front-to-back, each hop elided
    // independently.
    if knobs.redirect_shorten > 0.0 {
        ep.transactions
            .retain(|t| !(evasion::is_redirect_hop(t) && rng.gen_bool(knobs.redirect_shorten)));
    }

    // 3. Benign mimicry.
    if knobs.benign_mimicry > 0.0 {
        // Host renames, drawn in first-appearance order. Only the
        // dash-bearing domains the EK generator mints are candidates —
        // enticement origins (google.com, …) and raw-IP C&C hosts keep
        // their names.
        let mut renames: Vec<(String, String)> = Vec::new();
        for tx in &ep.transactions {
            if tx.host.contains('-')
                && !renames.iter().any(|(old, _)| *old == tx.host)
                && rng.gen_bool(knobs.benign_mimicry)
            {
                let fresh = benign_mimic_domain(rng);
                renames.push((tx.host.clone(), fresh));
            }
        }
        if !renames.is_empty() {
            for tx in &mut ep.transactions {
                for (old, new) in &renames {
                    if tx.host == *old {
                        tx.host = new.clone();
                    }
                }
                // Keep referrer/Location URLs consistent with the
                // renames so WCG edges survive the disguise.
                for (map, header) in
                    [(&mut tx.req_headers, "Referer"), (&mut tx.resp_headers, "Location")]
                {
                    if let Some(value) = map.get(header) {
                        let mut rewritten = value.to_string();
                        for (old, new) in &renames {
                            rewritten = rewritten.replace(old.as_str(), new.as_str());
                        }
                        map.set(header, rewritten);
                    }
                }
            }
        }
        // Long EK-style URIs shortened to benign shapes.
        for tx in &mut ep.transactions {
            if tx.uri.len() > 40 && rng.gen_bool(knobs.benign_mimicry) {
                tx.uri = format!("/{}?id={}", hostgen::random_token(rng, 6), rng.gen_range(1..10_000));
            }
        }
        // Pacing stretched toward human-paced browsing: inter-arrival
        // gaps scale up, response latencies stay.
        let stretch = 1.0 + knobs.benign_mimicry * rng.gen_range(2.0..6.0);
        if let Some(base) = ep.transactions.first().map(|t| t.ts) {
            for tx in &mut ep.transactions {
                let latency = tx.resp_ts - tx.ts;
                tx.ts = base + (tx.ts - base) * stretch;
                tx.resp_ts = tx.ts + latency;
            }
        }
    }

    // 4. Graduated evasion on top.
    if knobs.evasion_prob > 0.0 && rng.gen_bool(knobs.evasion_prob) {
        let strategy = match rng.gen_range(0..100) {
            0..=34 => Evasion::NoCallback,
            35..=69 => Evasion::DelayedCallback,
            70..=89 => Evasion::NoRedirects,
            _ => Evasion::FilelessDownload,
        };
        ep = evasion::apply(strategy, ep);
    }
    ep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::generate_infection;
    use crate::EkFamily;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn episode(seed: u64) -> Episode {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_infection(&mut rng, EkFamily::Angler, 1.46e9)
    }

    #[test]
    fn zero_knobs_are_identity_and_draw_nothing() {
        let base = episode(3);
        let mut rng = StdRng::seed_from_u64(99);
        let drifted = apply_drift(&mut rng, &DriftKnobs::NONE, base.clone());
        assert_eq!(drifted.transactions.len(), base.transactions.len());
        for (a, b) in drifted.transactions.iter().zip(&base.transactions) {
            assert_eq!(a.uri, b.uri);
            assert_eq!(a.host, b.host);
            assert_eq!(a.ts.to_bits(), b.ts.to_bits());
        }
        // The RNG was never consumed: a fresh draw matches a pristine RNG.
        let mut fresh = StdRng::seed_from_u64(99);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn drift_is_deterministic_for_seed() {
        let knobs = DriftKnobs {
            redirect_shorten: 0.4,
            benign_mimicry: 0.6,
            payload_shift: 0.4,
            evasion_prob: 0.3,
        };
        let a = apply_drift(&mut StdRng::seed_from_u64(7), &knobs, episode(5));
        let b = apply_drift(&mut StdRng::seed_from_u64(7), &knobs, episode(5));
        assert_eq!(a.transactions.len(), b.transactions.len());
        for (x, y) in a.transactions.iter().zip(&b.transactions) {
            assert_eq!(x.host, y.host);
            assert_eq!(x.uri, y.uri);
            assert_eq!(x.ts.to_bits(), y.ts.to_bits());
        }
    }

    #[test]
    fn full_shorten_removes_every_redirect() {
        let knobs = DriftKnobs { redirect_shorten: 0.95, ..DriftKnobs::NONE };
        // At 0.95 per hop a few survive across seeds, but most episodes
        // lose the whole chain; check the count only ever shrinks.
        for seed in 0..10 {
            let base = episode(seed);
            let before = base.redirect_count();
            let drifted = apply_drift(&mut StdRng::seed_from_u64(seed), &knobs, base);
            assert!(drifted.redirect_count() <= before, "seed {seed}");
        }
    }

    #[test]
    fn payload_shift_rewraps_exploit_types() {
        let knobs = DriftKnobs { payload_shift: 0.95, ..DriftKnobs::NONE };
        let mut saw_shift = false;
        for seed in 0..10 {
            let base = episode(seed);
            let digests = base.malicious_digests.clone();
            let drifted = apply_drift(&mut StdRng::seed_from_u64(seed), &knobs, base);
            // Digests survive the re-wrap: it is the same malware.
            assert_eq!(drifted.malicious_digests, digests);
            saw_shift |= drifted.transactions.iter().any(|t| {
                matches!(t.payload_class, PayloadClass::Archive | PayloadClass::Other)
                    && t.payload_size > 5_000
            });
        }
        assert!(saw_shift, "no payload was re-wrapped in 10 seeds");
    }

    #[test]
    fn mimicry_renames_hosts_and_rewrites_referrers() {
        let knobs = DriftKnobs { benign_mimicry: 0.9, ..DriftKnobs::NONE };
        let base = episode(11);
        let drifted = apply_drift(&mut StdRng::seed_from_u64(11), &knobs, base.clone());
        assert!(
            drifted.transactions.iter().filter(|t| t.host.contains('-')).count()
                < base.transactions.iter().filter(|t| t.host.contains('-')).count(),
            "no hosts were renamed"
        );
        // Every non-IP referrer must point at a host that exists in the
        // episode (edges stay coherent after the rename).
        let hosts: std::collections::BTreeSet<&str> =
            drifted.transactions.iter().map(|t| t.host.as_str()).collect();
        for tx in &drifted.transactions {
            if let Some(referer) = tx.req_headers.get("Referer") {
                let host = referer
                    .trim_start_matches("http://")
                    .split('/')
                    .next()
                    .unwrap_or_default();
                if !host.is_empty() && host.parse::<std::net::Ipv4Addr>().is_err() {
                    assert!(hosts.contains(host), "dangling referrer {referer}");
                }
            }
        }
        // Pacing stretched: the drifted episode runs longer.
        assert!(drifted.duration() > base.duration());
    }

    #[test]
    fn scaled_knobs_interpolate_and_clamp() {
        let max = DriftKnobs {
            redirect_shorten: 0.8,
            benign_mimicry: 1.2, // deliberately over the top
            payload_shift: 0.4,
            evasion_prob: 0.6,
        };
        assert!(max.scaled(0.0).is_none());
        let half = max.scaled(0.5);
        assert!((half.redirect_shorten - 0.4).abs() < 1e-12);
        assert!((half.payload_shift - 0.2).abs() < 1e-12);
        let full = max.scaled(1.0);
        assert!(full.benign_mimicry <= 0.95, "clamped to a valid probability");
    }
}
