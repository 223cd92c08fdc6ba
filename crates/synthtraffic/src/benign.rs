//! Benign browsing scenarios matching the paper's collection methodology
//! (Sec. II-A) and its false-positive analysis (Sec. VI-B).

use nettrace::http::Method;
use nettrace::payload::PayloadClass;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::entice::{pick_weighted, Enticement};
use crate::episode::{Episode, EpisodeLabel, TxFactory, TxSpec, MATERIALIZE_LIMIT};
use crate::hostgen;

/// The benign browsing scenarios used to build the infection-free corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BenignScenario {
    /// Google/Bing searching plus clicking top results.
    Search,
    /// Facebook/Twitter browsing with shared-link clicks.
    Social,
    /// Webmail (Gmail/Yahoo) with attachment downloads (PDF, executables,
    /// office documents).
    Webmail,
    /// YouTube watching plus advertisement clicks.
    Video,
    /// Visits to randomly selected Alexa-top-1M sites.
    AlexaBrowse,
    /// Software update from an official vendor host (weeded out by the
    /// detector's trusted-vendor list).
    SoftwareUpdate,
    /// Benign content fetched from an unofficial download site — the
    /// paper's main false-positive source (37 of 49 FPs).
    UnofficialDownload,
    /// Long torrent/video session with 246 MB–1.1 GB payloads — the
    /// paper's second false-positive source (12 of 49 FPs).
    TorrentSession,
}

impl BenignScenario {
    /// All scenarios with their corpus weights (fractions of the 980
    /// benign traces; the FP-inducing scenarios are deliberately rare).
    pub const WEIGHTED: [(BenignScenario, f64); 8] = [
        (BenignScenario::Search, 0.28),
        (BenignScenario::Social, 0.15),
        (BenignScenario::Webmail, 0.15),
        (BenignScenario::Video, 0.12),
        (BenignScenario::AlexaBrowse, 0.20),
        (BenignScenario::SoftwareUpdate, 0.04),
        (BenignScenario::UnofficialDownload, 0.04),
        (BenignScenario::TorrentSession, 0.02),
    ];

    /// Scenario display label.
    pub fn label(self) -> &'static str {
        match self {
            BenignScenario::Search => "search",
            BenignScenario::Social => "social",
            BenignScenario::Webmail => "webmail",
            BenignScenario::Video => "video",
            BenignScenario::AlexaBrowse => "alexa-browse",
            BenignScenario::SoftwareUpdate => "software-update",
            BenignScenario::UnofficialDownload => "unofficial-download",
            BenignScenario::TorrentSession => "torrent-session",
        }
    }

    /// Samples a scenario with the corpus weights.
    pub fn sample<R: Rng>(rng: &mut R) -> BenignScenario {
        pick_weighted(rng, BenignScenario::WEIGHTED, BenignScenario::AlexaBrowse)
    }
}

/// Official vendor hosts used by [`BenignScenario::SoftwareUpdate`]; the
/// DynaMiner detector treats these as trusted sources.
pub(crate) const VENDOR_HOSTS: [&str; 5] = [
    "download.windowsupdate.com",
    "swcdn.apple.com",
    "archive.ubuntu.com",
    "dl.google.com",
    "download.mozilla.org",
];

struct SiteVisit<'a> {
    host: &'a str,
    referer: Option<String>,
    resources: usize,
}

/// Fetches a page plus `resources` subresources (js/css/images) from
/// `host`, advancing `t` with benign-paced delays.
fn visit_site<R: Rng>(
    rng: &mut R,
    fac: &mut TxFactory,
    txs: &mut Vec<nettrace::HttpTransaction>,
    t: &mut f64,
    visit: SiteVisit<'_>,
) -> String {
    let uri = hostgen::benign_uri(rng);
    let body = hostgen::payload_body(rng, PayloadClass::Html, 2048);
    let size = rng.gen_range(2_000..80_000);
    // A quarter of page loads are direct navigations (typed URL,
    // bookmark): the browser sends no referrer.
    let referer = visit.referer.filter(|_| rng.gen_bool(0.75));
    txs.push(fac.tx(rng, TxSpec {
        uri: uri.clone(),
        referer,
        payload_class: PayloadClass::Html,
        payload_size: size,
        body,
        ..TxSpec::get(*t, visit.host)
    }));
    let page_url = format!("http://{}{uri}", visit.host);
    *t += rng.gen_range(2.0..10.0);
    for _ in 0..visit.resources {
        let class = match rng.gen_range(0..10) {
            0..=4 => PayloadClass::Image,
            5..=7 => PayloadClass::Js,
            _ => PayloadClass::Css,
        };
        let rsize = hostgen::payload_size(rng, class);
        let rbody = hostgen::payload_body(rng, class, rsize.min(MATERIALIZE_LIMIT));
        let ruri = hostgen::payload_uri(rng, class);
        let rstatus = if rng.gen_bool(0.95) { 200 } else { 404 };
        // A third of subresources come from third-party CDN/ad/analytics
        // domains — ordinary pages fan out across many hosts, which is
        // why benign conversations reach up to 34 hosts in Table I.
        let third_party = if rng.gen_bool(0.15) { Some(hostgen::random_domain(rng)) } else { None };
        let rhost: &str = third_party.as_deref().unwrap_or(visit.host);
        // Status and host are drawn between the URI and the transaction,
        // so this site cannot use `TxFactory::fetch`.
        txs.push(fac.tx(rng, TxSpec {
            uri: ruri,
            referer: Some(page_url.clone()),
            status: rstatus,
            payload_class: class,
            payload_size: rsize,
            body: rbody,
            ..TxSpec::get(*t, rhost)
        }));
        *t += rng.gen_range(0.3..2.5);
    }
    // Analytics beacon: ordinary sites POST telemetry back to themselves
    // (keeps the POST count from being a trivial benign/infection
    // separator; the discriminating signal is *where* infections POST).
    if rng.gen_bool(0.3) {
        let body = hostgen::payload_body(rng, PayloadClass::Json, 128);
        let bstatus = if rng.gen_bool(0.8) { 204 } else { 200 };
        txs.push(fac.tx(rng, TxSpec {
            method: Method::Post,
            uri: "/beacon".to_string(),
            referer: Some(page_url.clone()),
            status: bstatus,
            payload_class: PayloadClass::Json,
            payload_size: body.len(),
            body,
            ..TxSpec::get(*t, visit.host)
        }));
        *t += rng.gen_range(0.1..1.0);
    }
    page_url
}

/// Adds a single download transaction of `class` and declared `size`.
#[allow(clippy::too_many_arguments)]
fn download<R: Rng>(
    rng: &mut R,
    fac: &mut TxFactory,
    txs: &mut Vec<nettrace::HttpTransaction>,
    t: &mut f64,
    host: &str,
    referer: Option<String>,
    class: PayloadClass,
    size: usize,
) {
    txs.push(fac.fetch(rng, TxSpec { referer, ..TxSpec::get(*t, host) }, class, size));
    *t += rng.gen_range(1.0..10.0);
}

/// Merges several single-scenario episodes into one multi-tab session:
/// every transaction is rebound to the first episode's victim and the
/// later episodes' timelines are shifted to overlap the first's. This
/// mirrors the paper's collection methodology — "in all the browsing
/// sessions, we keep multiple tabs open in the browser" — and is what
/// spreads benign per-conversation counts across the wide ranges of
/// Table I (2–34 hosts).
pub(crate) fn merge_sessions<R: Rng>(rng: &mut R, episodes: Vec<Episode>) -> Episode {
    let mut iter = episodes.into_iter();
    let mut base = iter.next().expect("at least one episode to merge");
    let base_duration = base.duration().max(1.0);
    for ep in iter {
        base.malicious_digests.extend(ep.malicious_digests.iter().copied());
        let offset = base.start_ts + rng.gen_range(0.0..base_duration) - ep.start_ts;
        for mut tx in ep.transactions {
            tx.ts += offset;
            tx.resp_ts += offset;
            tx.client = nettrace::reassembly::Endpoint::new(base.victim.addr, tx.client.port);
            base.transactions.push(tx);
        }
    }
    base.transactions.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    base
}

/// Generates one benign episode of `scenario` starting at `start_ts`.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use synthtraffic::{benign::generate_benign, BenignScenario};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let ep = generate_benign(&mut rng, BenignScenario::Search, 1.45e9);
/// assert!(!ep.is_infection());
/// assert!(ep.malicious_digests.is_empty());
/// ```
pub fn generate_benign<R: Rng>(rng: &mut R, scenario: BenignScenario, start_ts: f64) -> Episode {
    let mut fac = TxFactory::new(rng);
    let mut txs = Vec::new();
    let mut t = start_ts;
    let mut enticement = Enticement::EmptyReferrer;

    match scenario {
        BenignScenario::Search => {
            let engine = if rng.gen_bool(0.6) { "www.google.com" } else { "www.bing.com" };
            enticement = if engine.contains("google") {
                Enticement::GoogleSearch
            } else {
                Enticement::BingSearch
            };
            let q = format!("/search?q={}", hostgen::random_token(rng, 7));
            let body = hostgen::payload_body(rng, PayloadClass::Html, 2048);
            txs.push(fac.tx(rng, TxSpec {
                uri: q.clone(),
                payload_class: PayloadClass::Html,
                payload_size: 30_000,
                body,
                ..TxSpec::get(t, engine)
            }));
            let search_url = format!("http://{engine}{q}");
            t += rng.gen_range(4.0..20.0);
            let mut redirect_budget = 2usize; // Table I: benign redirects max out at 2
            for _ in 0..rng.gen_range(1..4) {
                let site = hostgen::random_domain(rng);
                // Search engines bounce result clicks through a tracking
                // redirect (one hop — the benign redirect ceiling in
                // Table I is 2).
                if redirect_budget > 0 && rng.gen_bool(0.18) {
                    redirect_budget -= 1;
                    let target = format!("http://{site}{}", hostgen::benign_uri(rng));
                    let uri = format!("/url?q={site}");
                    txs.push(fac.hop(rng, t, engine, uri, Some(search_url.clone()), target));
                    t += rng.gen_range(0.2..1.0);
                }
                let res_count_0 = rng.gen_range(1..5);
                visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                    host: &site,
                    referer: Some(search_url.clone()),
                    resources: res_count_0,
                });
                t += rng.gen_range(3.0..15.0);
            }
        }
        BenignScenario::Social => {
            enticement = Enticement::SocialNetwork;
            let network = if rng.gen_bool(0.7) { "www.facebook.com" } else { "twitter.com" };
            let res_count_1 = rng.gen_range(2..6);
            let feed_url = visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                host: network,
                referer: None,
                resources: res_count_1,
            });
            let mut redirect_budget = 2usize; // Table I: benign redirects max out at 2
            for _ in 0..rng.gen_range(0..5) {
                let shared = hostgen::random_domain(rng);
                t += rng.gen_range(5.0..20.0);
                // Social networks shim outbound links through a redirect
                // endpoint (Facebook's l.php), so benign conversations do
                // contain short host-to-host hops.
                if redirect_budget > 0 && rng.gen_bool(0.3) {
                    redirect_budget -= 1;
                    let target = format!("http://{shared}{}", hostgen::benign_uri(rng));
                    let uri = format!("/l.php?u={shared}");
                    txs.push(fac.hop(rng, t, network, uri, Some(feed_url.clone()), target));
                    t += rng.gen_range(0.2..1.0);
                }
                let res_count_2 = rng.gen_range(1..4);
                visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                    host: &shared,
                    referer: Some(feed_url.clone()),
                    resources: res_count_2,
                });
            }
        }
        BenignScenario::Webmail => {
            let mail = if rng.gen_bool(0.6) { "mail.google.com" } else { "mail.yahoo.com" };
            let res_count_3 = rng.gen_range(2..5);
            let mail_url = visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                host: mail,
                referer: None,
                resources: res_count_3,
            });
            // Attachment downloads: PDFs dominate, executables and office
            // docs occur (Table I benign row: 60 pdf / 30 exe / 980).
            if rng.gen_bool(0.35) {
                let class = match rng.gen_range(0..10) {
                    0..=4 => PayloadClass::Pdf,
                    5..=6 => PayloadClass::Exe,
                    7 => PayloadClass::Jar,
                    _ => PayloadClass::Other,
                };
                let size = hostgen::payload_size(rng, class);
                download(rng, &mut fac, &mut txs, &mut t, mail, Some(mail_url.clone()), class, size);
            }
            // Clicking a link embedded in an email.
            if rng.gen_bool(0.4) {
                let site = hostgen::random_domain(rng);
                t += rng.gen_range(2.0..10.0);
                let res_count_4 = rng.gen_range(1..4);
                visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                    host: &site,
                    referer: None, // mail clients strip referrers
                    resources: res_count_4,
                });
            }
        }
        BenignScenario::Video => {
            let res_count_5 = rng.gen_range(2..6);
            let video_url = visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                host: "www.youtube.com",
                referer: None,
                resources: res_count_5,
            });
            // Video segments arrive machine-paced, back to back — benign
            // traffic is not uniformly slow, which keeps timing features
            // from separating the classes on their own.
            for _ in 0..rng.gen_range(3..8) {
                let size = rng.gen_range(500_000..4_000_000);
                let body = hostgen::payload_body(rng, PayloadClass::Other, 512);
                let uri = hostgen::payload_uri(rng, PayloadClass::Other);
                txs.push(fac.tx(rng, TxSpec {
                    uri,
                    referer: Some(video_url.clone()),
                    payload_class: PayloadClass::Other,
                    payload_size: size,
                    body,
                    ..TxSpec::get(t, "r4.googlevideo.com")
                }));
                t += rng.gen_range(0.2..1.2);
            }
            // Ad click with a short (≤2) redirect chain — the benign
            // redirect ceiling in Table I (benign averages 0 redirects).
            if rng.gen_bool(0.25) {
                let ad_host = hostgen::random_domain(rng);
                let lander = hostgen::random_domain(rng);
                let target = format!("http://{lander}{}", hostgen::benign_uri(rng));
                let uri = "/click?ad=1".to_string();
                txs.push(fac.hop(rng, t, &ad_host, uri, Some(video_url.clone()), target));
                t += rng.gen_range(0.5..2.0);
                let res_count_6 = rng.gen_range(1..4);
                visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                    host: &lander,
                    referer: Some(format!("http://{ad_host}/click?ad=1")),
                    resources: res_count_6,
                });
            }
        }
        BenignScenario::AlexaBrowse => {
            for _ in 0..rng.gen_range(1..4) {
                let site = hostgen::random_domain(rng);
                let res_count_7 = rng.gen_range(1..8);
                visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                    host: &site,
                    referer: None,
                    resources: res_count_7,
                });
                t += rng.gen_range(5.0..30.0);
            }
        }
        BenignScenario::SoftwareUpdate => {
            let vendor = VENDOR_HOSTS[rng.gen_range(0..VENDOR_HOSTS.len())];
            let size = rng.gen_range(5_000_000..80_000_000);
            download(rng, &mut fac, &mut txs, &mut t, vendor, None, PayloadClass::Exe, size);
            // Follow-up metadata check.
            let body = hostgen::payload_body(rng, PayloadClass::Json, 256);
            txs.push(fac.tx(rng, TxSpec {
                uri: "/manifest.json".to_string(),
                payload_class: PayloadClass::Json,
                payload_size: body.len(),
                body,
                ..TxSpec::get(t, vendor)
            }));
        }
        BenignScenario::UnofficialDownload => {
            // Search → unofficial mirror → (up to 2 redirects) → binary.
            enticement = Enticement::GoogleSearch;
            let search_url = visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                host: "www.google.com",
                referer: None,
                resources: 0,
            });
            let mirror = hostgen::random_domain(rng);
            let mut dl_host = mirror.clone();
            let mut referer = Some(search_url);
            for _ in 0..rng.gen_range(0..3usize) {
                let next = hostgen::random_domain(rng);
                let target = format!("http://{next}{}", hostgen::benign_uri(rng));
                let hop_uri = hostgen::benign_uri(rng);
                txs.push(fac.hop(rng, t, &dl_host, hop_uri, referer.clone(), target));
                referer = Some(format!("http://{dl_host}/"));
                dl_host = next;
                t += rng.gen_range(0.3..2.0);
            }
            let class = if rng.gen_bool(0.7) { PayloadClass::Exe } else { PayloadClass::Archive };
            let size = rng.gen_range(1_000_000..50_000_000);
            download(rng, &mut fac, &mut txs, &mut t, &dl_host, referer, class, size);
        }
        BenignScenario::TorrentSession => {
            // Long sessions, many hosts, 246 MB – 1.1 GB payloads.
            let tracker = hostgen::random_domain(rng);
            let res_count_8 = rng.gen_range(1..4);
            visit_site(rng, &mut fac, &mut txs, &mut t, SiteVisit {
                host: &tracker,
                referer: None,
                resources: res_count_8,
            });
            for _ in 0..rng.gen_range(2..6) {
                let peer = hostgen::random_domain(rng);
                let size = rng.gen_range(246_000_000..1_100_000_000);
                t += rng.gen_range(30.0..600.0);
                download(rng, &mut fac, &mut txs, &mut t, &peer, None, PayloadClass::Other, size);
            }
        }
    }

    txs.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    // A quarter of benign sessions are machine-paced (prefetching,
    // background sync, automation): rescale their timeline so benign
    // timing overlaps the scripted infection range.
    if rng.gen_bool(0.10) {
        let pace = rng.gen_range(0.1..0.45);
        for tx in &mut txs {
            tx.ts = start_ts + pace * (tx.ts - start_ts);
            tx.resp_ts = start_ts + pace * (tx.resp_ts - start_ts);
        }
    }
    Episode {
        label: EpisodeLabel::Benign(scenario),
        transactions: txs,
        victim: fac.victim(),
        enticement,
        start_ts,
        malicious_digests: std::collections::BTreeSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gen(s: BenignScenario, seed: u64) -> Episode {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_benign(&mut rng, s, 1_430_000_000.0)
    }

    #[test]
    fn weights_sum_to_one() {
        let total: f64 = BenignScenario::WEIGHTED.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_scenarios_produce_transactions() {
        for (s, _) in BenignScenario::WEIGHTED {
            let ep = gen(s, 3);
            assert!(!ep.transactions.is_empty(), "{}", s.label());
            assert!(!ep.is_infection());
            for w in ep.transactions.windows(2) {
                assert!(w[1].ts >= w[0].ts);
            }
        }
    }

    #[test]
    fn benign_redirect_chains_stay_short() {
        // Table I: benign redirects max out at 2.
        for seed in 0..40 {
            for (s, _) in BenignScenario::WEIGHTED {
                let redirects =
                    gen(s, seed).transactions.iter().filter(|t| t.is_redirect()).count();
                assert!(redirects <= 2, "{} seed {seed}: {redirects}", s.label());
            }
        }
    }

    #[test]
    fn benign_episodes_never_post_to_raw_ips() {
        for seed in 0..30 {
            for (s, _) in BenignScenario::WEIGHTED {
                for t in &gen(s, seed).transactions {
                    if t.method == Method::Post {
                        assert!(t.host.parse::<std::net::Ipv4Addr>().is_err());
                    }
                }
            }
        }
    }

    #[test]
    fn torrent_sessions_have_huge_payloads_and_long_duration() {
        let ep = gen(BenignScenario::TorrentSession, 1);
        let max_payload = ep.transactions.iter().map(|t| t.payload_size).max().unwrap();
        assert!(max_payload >= 246_000_000, "{max_payload}");
        assert!(ep.duration() > 60.0);
    }

    #[test]
    fn software_updates_come_from_vendor_hosts() {
        let ep = gen(BenignScenario::SoftwareUpdate, 2);
        let dl = ep
            .transactions
            .iter()
            .find(|t| t.payload_class == PayloadClass::Exe)
            .expect("update download");
        assert!(VENDOR_HOSTS.contains(&dl.host.as_str()), "{}", dl.host);
    }

    #[test]
    fn scenario_sampling_is_weighted() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 10_000;
        let searches = (0..n)
            .filter(|_| BenignScenario::sample(&mut rng) == BenignScenario::Search)
            .count();
        let frac = searches as f64 / n as f64;
        assert!((frac - 0.28).abs() < 0.03, "search fraction {frac}");
    }

    #[test]
    fn webmail_sometimes_downloads_attachments() {
        let mut any_pdf = false;
        for seed in 0..60 {
            let ep = gen(BenignScenario::Webmail, seed);
            any_pdf |= ep.transactions.iter().any(|t| t.payload_class == PayloadClass::Pdf);
        }
        assert!(any_pdf, "no PDF attachment in 60 webmail episodes");
    }
}
