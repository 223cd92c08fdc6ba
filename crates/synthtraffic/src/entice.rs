//! Enticement-origin distribution (Figures 1 and 2 of the paper).
//!
//! The paper's Figure 1 measures how victims reached exploit-kit sites:
//! Google search 37 %, Bing search 25 %, empty referrer 17.76 %,
//! compromised site 12.84 %, privacy-redacted referrer 7.51 %, social
//! network < 1 %.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a victim was lured toward the first hop of a conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Enticement {
    /// Google search result click (37 %).
    GoogleSearch,
    /// Bing search result click (25 %).
    BingSearch,
    /// Referrer header intentionally removed (17.76 %).
    EmptyReferrer,
    /// Link on a compromised legitimate site (12.84 %).
    CompromisedSite,
    /// Referrer redacted for privacy (7.51 %).
    RedactedReferrer,
    /// Link shared on a social network (< 1 %).
    SocialNetwork,
}

impl Enticement {
    /// All categories in Figure 1 order.
    pub const ALL: [Enticement; 6] = [
        Enticement::GoogleSearch,
        Enticement::BingSearch,
        Enticement::EmptyReferrer,
        Enticement::CompromisedSite,
        Enticement::RedactedReferrer,
        Enticement::SocialNetwork,
    ];

    /// Display label matching the paper's figure legend.
    pub fn label(self) -> &'static str {
        match self {
            Enticement::GoogleSearch => "google-search",
            Enticement::BingSearch => "bing-search",
            Enticement::EmptyReferrer => "empty-referrer",
            Enticement::CompromisedSite => "compromised-site",
            Enticement::RedactedReferrer => "redacted-referrer",
            Enticement::SocialNetwork => "social-network",
        }
    }

    /// The share Figure 1 reports for this category. The paper's own
    /// percentages (37 + 25 + 17.76 + 12.84 + 7.51 + ~0.9) sum to ≈ 101 %,
    /// so sampling uses the normalized value.
    pub fn paper_share(self) -> f64 {
        match self {
            Enticement::GoogleSearch => 0.37,
            Enticement::BingSearch => 0.25,
            Enticement::EmptyReferrer => 0.1776,
            Enticement::CompromisedSite => 0.1284,
            Enticement::RedactedReferrer => 0.0751,
            Enticement::SocialNetwork => 0.0089,
        }
    }

    /// Normalized Figure 1 probability of this category.
    pub(crate) fn probability(self) -> f64 {
        let total: f64 = Enticement::ALL.iter().map(|e| e.paper_share()).sum();
        self.paper_share() / total
    }

    /// Samples a category with Figure 1 weights.
    pub fn sample<R: Rng>(rng: &mut R) -> Enticement {
        let weighted = Enticement::ALL.map(|e| (e, e.probability()));
        pick_weighted(rng, weighted, Enticement::SocialNetwork)
    }

    /// The origin host name used when this enticement carries a referrer,
    /// or `None` when the referrer is absent/redacted.
    pub(crate) fn origin_host<R: Rng>(self, rng: &mut R) -> Option<String> {
        match self {
            Enticement::GoogleSearch => Some("www.google.com".to_string()),
            Enticement::BingSearch => Some("www.bing.com".to_string()),
            Enticement::SocialNetwork => Some(
                if rng.gen_bool(0.7) { "www.facebook.com" } else { "twitter.com" }.to_string(),
            ),
            Enticement::CompromisedSite => Some(crate::hostgen::compromised_domain(rng)),
            Enticement::EmptyReferrer | Enticement::RedactedReferrer => None,
        }
    }
}

/// The cumulative-weight draw behind the enticement and benign-scenario
/// samples: one uniform `x` in `[0, 1)`, minus each weight in order,
/// picks the first item that takes `x` to zero or below, else `fallback`
/// (the weights' rounding can leave `x` just above zero).
pub(crate) fn pick_weighted<T, R: Rng>(
    rng: &mut R,
    weighted: impl IntoIterator<Item = (T, f64)>,
    fallback: T,
) -> T {
    let mut x: f64 = rng.gen_range(0.0..1.0);
    for (item, weight) in weighted {
        x -= weight;
        if x <= 0.0 {
            return item;
        }
    }
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one() {
        let total: f64 = Enticement::ALL.iter().map(|e| e.probability()).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn sampling_matches_figure1_distribution() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 20_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(Enticement::sample(&mut rng)).or_insert(0usize) += 1;
        }
        for e in Enticement::ALL {
            let got = counts.get(&e).copied().unwrap_or(0) as f64 / n as f64;
            assert!(
                (got - e.probability()).abs() < 0.02,
                "{}: got {got}, want {}",
                e.label(),
                e.probability()
            );
        }
    }

    #[test]
    fn search_engines_dominate() {
        // The paper's headline: search engines drive 62 % of exposure.
        let search =
            Enticement::GoogleSearch.paper_share() + Enticement::BingSearch.paper_share();
        assert!((search - 0.62).abs() < 1e-9);
    }

    #[test]
    fn origin_hosts_are_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            Enticement::GoogleSearch.origin_host(&mut rng).as_deref(),
            Some("www.google.com")
        );
        assert!(Enticement::EmptyReferrer.origin_host(&mut rng).is_none());
        assert!(Enticement::RedactedReferrer.origin_host(&mut rng).is_none());
    }
}
