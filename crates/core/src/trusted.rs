//! Trusted-vendor weed-out (Sec. V-B).
//!
//! To reduce noise from benign traffic, DynaMiner excludes HTTP
//! transactions that involve downloads from trusted software vendors and
//! application stores before constructing potential-infection WCGs.

/// Default trusted vendor / application-store hosts. Suffix matching is
/// used, so `dl.google.com` trusts `*.dl.google.com` too.
pub const DEFAULT_TRUSTED_HOSTS: [&str; 10] = [
    "download.windowsupdate.com",
    "windowsupdate.microsoft.com",
    "swcdn.apple.com",
    "itunes.apple.com",
    "archive.ubuntu.com",
    "security.ubuntu.com",
    "dl.google.com",
    "play.google.com",
    "download.mozilla.org",
    "addons.mozilla.org",
];

/// A suffix-matching allowlist of trusted download sources.
#[derive(Debug, Clone)]
pub struct TrustedHosts {
    suffixes: Vec<String>,
}

impl Default for TrustedHosts {
    fn default() -> Self {
        TrustedHosts {
            suffixes: DEFAULT_TRUSTED_HOSTS.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl TrustedHosts {
    /// An empty allowlist (weed-out disabled).
    pub fn none() -> Self {
        TrustedHosts { suffixes: Vec::new() }
    }

    /// Builds an allowlist from explicit host suffixes.
    pub fn from_hosts<I: IntoIterator<Item = String>>(hosts: I) -> Self {
        TrustedHosts { suffixes: hosts.into_iter().map(|h| h.to_ascii_lowercase()).collect() }
    }

    /// Adds a trusted host suffix.
    pub fn add(&mut self, host: &str) {
        self.suffixes.push(host.to_ascii_lowercase());
    }

    /// Whether `host` matches the allowlist (exact or dot-boundary
    /// suffix, ASCII-case-insensitive). A `Host` header may carry a port
    /// (`uri-host [ ":" port ]`, RFC 9110); it is not part of the name.
    /// Runs on every transaction the detector sees, so it compares in
    /// place and allocates nothing.
    pub fn is_trusted(&self, host: &str) -> bool {
        let host = without_port(host).as_bytes();
        self.suffixes.iter().any(|s| {
            let s = s.as_bytes();
            let Some(boundary) = host.len().checked_sub(s.len()) else { return false };
            host[boundary..].eq_ignore_ascii_case(s)
                && (boundary == 0 || host[boundary - 1] == b'.')
        })
    }
}

/// `host` without a trailing `:port` (a colon and digits only).
fn without_port(host: &str) -> &str {
    match host.rsplit_once(':') {
        Some((name, port)) if port.bytes().all(|b| b.is_ascii_digit()) => name,
        _ => host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_list_trusts_vendors() {
        let t = TrustedHosts::default();
        assert!(t.is_trusted("download.windowsupdate.com"));
        assert!(t.is_trusted("DL.GOOGLE.COM"));
        assert!(t.is_trusted("eu.dl.google.com")); // subdomain
    }

    #[test]
    fn unrelated_hosts_are_untrusted() {
        let t = TrustedHosts::default();
        assert!(!t.is_trusted("evil-dl.google.com.attacker.ru"));
        assert!(!t.is_trusted("notdl.google.com.evil.net"));
        assert!(!t.is_trusted("example.com"));
        // Suffix matching must respect label boundaries.
        assert!(!t.is_trusted("fakedl.google.comx"));
    }

    #[test]
    fn a_port_in_the_host_header_does_not_defeat_the_weed_out() {
        let t = TrustedHosts::default();
        assert!(t.is_trusted("dl.google.com:80"));
        assert!(t.is_trusted("DL.GOOGLE.COM:443"));
        assert!(t.is_trusted("eu.dl.google.com:"));
        assert!(!t.is_trusted("example.com:80"));
        assert!(!t.is_trusted("dl.google.com:80x"));
        assert!(!t.is_trusted("dl.google.com.evil.net:8080"));
    }

    /// The allocating body `is_trusted` had before it compared in place:
    /// a lowercase copy of the host and one `format!` per suffix.
    fn is_trusted_oracle(t: &TrustedHosts, host: &str) -> bool {
        let host = host.to_ascii_lowercase();
        t.suffixes.iter().any(|s| host == *s || host.ends_with(&format!(".{s}")))
    }

    /// In-place matching equals the oracle on hosts assembled from the
    /// suffixes' own labels, near misses and non-ASCII bytes, in random
    /// case; the same host with a port appended reads the same.
    #[test]
    fn in_place_match_equals_the_allocating_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut t = TrustedHosts::default();
        t.add("Internal.Corp");
        t.add("");
        let labels =
            ["dl", "google", "com", "play", "apple", "corp", "internal", "x", "é", "", "."];
        let mut rng = StdRng::seed_from_u64(29);
        let mut trusted = 0;
        for _ in 0..20_000 {
            let mut host: String = (0..rng.gen_range(0..5))
                .map(|_| labels[rng.gen_range(0..labels.len())])
                .collect::<Vec<_>>()
                .join(".");
            if rng.gen_bool(0.5) {
                let suffix = &t.suffixes[rng.gen_range(0..t.suffixes.len())];
                host.push_str(&suffix[rng.gen_range(0..=suffix.len() / 4)..]);
            }
            let host: String = host
                .chars()
                .map(|c| if rng.gen_bool(0.3) { c.to_ascii_uppercase() } else { c })
                .collect();
            let want = is_trusted_oracle(&t, &host);
            assert_eq!(t.is_trusted(&host), want, "{host:?}");
            let with_port = format!("{host}:{}", rng.gen_range(0..70_000));
            assert_eq!(t.is_trusted(&with_port), want, "{with_port:?}");
            trusted += usize::from(want);
        }
        assert!((2_000..18_000).contains(&trusted), "{trusted} of 20000 trusted");
    }

    #[test]
    fn custom_and_empty_lists() {
        let mut t = TrustedHosts::none();
        assert!(!t.is_trusted("download.windowsupdate.com"));
        t.add("internal.corp");
        assert!(t.is_trusted("mirror.internal.corp"));
        let t2 = TrustedHosts::from_hosts(vec!["a.example".to_string()]);
        assert!(t2.is_trusted("a.example"));
    }
}
