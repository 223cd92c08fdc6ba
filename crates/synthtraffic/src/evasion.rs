//! Evasion transformations (the paper's Sec. VII discussion).
//!
//! A determined adversary can cloak parts of the conversation DynaMiner
//! reasons over. This module applies those evasions to generated
//! infection episodes so the classifier's resilience can be measured:
//!
//! * **fileless download** — the exploit runs in memory; no payload file
//!   crosses the wire (the paper concedes this is the hard case),
//! * **no redirects** — the victim is led directly to the exploit server,
//! * **no call-back** — the malware stays silent after infection (which
//!   "significantly limits the effectiveness of the attack", Sec. VII),
//! * **delayed call-back** — C&C traffic is pushed past the conversation
//!   watch window,
//! * **full cloaking** — all of the above combined.

use serde::{Deserialize, Serialize};

use crate::episode::Episode;
use nettrace::http::Method;
use nettrace::payload::PayloadClass;

/// An evasion strategy from the paper's discussion section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Evasion {
    /// No evasion (baseline).
    None,
    /// In-memory infection: drop every exploit-payload download.
    FilelessDownload,
    /// Direct infection: drop the pre-download redirect chain.
    NoRedirects,
    /// Silent malware: drop post-download call-backs entirely.
    NoCallback,
    /// Patient malware: delay call-backs beyond the watch window.
    DelayedCallback,
    /// All cloaking techniques combined.
    Full,
}

impl Evasion {
    /// All strategies, baseline first.
    pub const ALL: [Evasion; 6] = [
        Evasion::None,
        Evasion::FilelessDownload,
        Evasion::NoRedirects,
        Evasion::NoCallback,
        Evasion::DelayedCallback,
        Evasion::Full,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Evasion::None => "none (baseline)",
            Evasion::FilelessDownload => "fileless download",
            Evasion::NoRedirects => "no redirects",
            Evasion::NoCallback => "no call-back",
            Evasion::DelayedCallback => "delayed call-back",
            Evasion::Full => "full cloaking",
        }
    }
}

/// How far [`Evasion::DelayedCallback`] pushes C&C traffic (seconds) —
/// beyond any realistic conversation watch window.
pub(crate) const CALLBACK_DELAY: f64 = 6.0 * 3600.0;

/// Whether `tx` is a successful, sizeable payload download (overt
/// exploit type or a generic `Archive`/`Other` wrapper).
pub(crate) fn is_payload_download(tx: &nettrace::HttpTransaction) -> bool {
    tx.status / 100 == 2
        && tx.payload_size > 5_000
        && (tx.payload_class.is_exploit_type()
            || matches!(tx.payload_class, PayloadClass::Archive | PayloadClass::Other))
}

/// Whether `tx` carries a redirect hop: a 3xx, or a 200 whose body holds
/// a meta-refresh tag or obfuscated `atob` JavaScript redirect.
pub(crate) fn is_redirect_hop(tx: &nettrace::HttpTransaction) -> bool {
    tx.is_redirect() || {
        let body = String::from_utf8_lossy(&tx.body_preview);
        body.contains("http-equiv=\"refresh\"") || body.contains("atob(")
    }
}

/// Whether `tx` looks like a C&C call-back: a POST to a raw-IPv4 host.
pub(crate) fn is_callback(tx: &nettrace::HttpTransaction) -> bool {
    tx.method == Method::Post && tx.host.parse::<std::net::Ipv4Addr>().is_ok()
}

/// Applies `evasion` to an infection episode, returning the cloaked
/// variant. The label is preserved — the conversation is still an
/// infection, it just hides part of its dynamics.
pub fn apply(evasion: Evasion, mut episode: Episode) -> Episode {
    match evasion {
        Evasion::None => episode,
        Evasion::FilelessDownload => {
            episode.transactions.retain(|t| !is_payload_download(t));
            episode
        }
        Evasion::NoRedirects => {
            episode.transactions.retain(|t| !is_redirect_hop(t));
            episode
        }
        Evasion::NoCallback => {
            episode.transactions.retain(|t| !is_callback(t));
            episode
        }
        Evasion::DelayedCallback => {
            for tx in &mut episode.transactions {
                if is_callback(tx) {
                    tx.ts += CALLBACK_DELAY;
                    tx.resp_ts += CALLBACK_DELAY;
                }
            }
            episode.transactions.sort_by(|a, b| a.ts.total_cmp(&b.ts));
            episode
        }
        Evasion::Full => {
            let episode = apply(Evasion::FilelessDownload, episode);
            let episode = apply(Evasion::NoRedirects, episode);
            apply(Evasion::NoCallback, episode)
        }
    }
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
        generate_infection(&mut rng, EkFamily::Angler, 1.4e9)
    }

    #[test]
    fn fileless_removes_all_payload_downloads() {
        for seed in 0..10 {
            let ev = apply(Evasion::FilelessDownload, episode(seed));
            assert!(!ev.transactions.iter().any(is_payload_download));
            assert!(!ev.transactions.is_empty(), "conversation skeleton remains");
        }
    }

    #[test]
    fn no_redirects_removes_hops_but_keeps_downloads() {
        for seed in 0..10 {
            let base = episode(seed);
            let had_download = base.transactions.iter().any(is_payload_download);
            let ev = apply(Evasion::NoRedirects, base);
            assert_eq!(ev.redirect_count(), 0, "seed {seed}");
            assert_eq!(ev.transactions.iter().any(is_payload_download), had_download);
        }
    }

    #[test]
    fn no_callback_removes_ip_posts() {
        for seed in 0..10 {
            let ev = apply(Evasion::NoCallback, episode(seed));
            assert!(!ev.transactions.iter().any(is_callback));
        }
    }

    #[test]
    fn delayed_callback_preserves_count_but_shifts_time() {
        for seed in 0..20 {
            let base = episode(seed);
            let callbacks = base.transactions.iter().filter(|t| is_callback(t)).count();
            if callbacks == 0 {
                continue;
            }
            let base_duration = base.duration();
            let ev = apply(Evasion::DelayedCallback, base);
            assert_eq!(ev.transactions.iter().filter(|t| is_callback(t)).count(), callbacks);
            assert!(ev.duration() >= base_duration + CALLBACK_DELAY * 0.9);
            return;
        }
        panic!("no episode with callbacks found");
    }

    #[test]
    fn full_cloaking_strips_everything_but_keeps_the_visit() {
        let ev = apply(Evasion::Full, episode(3));
        assert!(!ev.transactions.iter().any(is_payload_download));
        assert!(!ev.transactions.iter().any(is_callback));
        assert_eq!(ev.redirect_count(), 0);
        assert!(ev.is_infection(), "label preserved");
    }

    #[test]
    fn baseline_is_identity() {
        let base = episode(4);
        let n = base.transactions.len();
        assert_eq!(apply(Evasion::None, base).transactions.len(), n);
    }
}
