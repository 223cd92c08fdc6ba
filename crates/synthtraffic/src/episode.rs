//! Infection-episode synthesis with the paper's three-stage structure.
//!
//! An infection episode reproduces the dynamics DynaMiner learns from:
//!
//! 1. **Pre-download**: an enticement origin (Fig. 1 distribution) followed
//!    by a redirect chain whose hops use `Location` headers, meta-refresh
//!    HTML, or base64-obfuscated JavaScript (`atob` + `window.location`) —
//!    the three mechanisms Sec. II calls out, including the obfuscated kind
//!    the paper "reverse engineers",
//! 2. **Download**: exploit payloads drawn from the family's Table I
//!    payload mix, served from the exploit host with EK-style long URIs,
//! 3. **Post-download**: C&C call-backs via POST to never-before-seen IP
//!    hosts (92 % of traces, Sec. II-D), with occasional 40x responses.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use nettrace::http::{HeaderMap, Method};
use nettrace::payload::PayloadClass;
use nettrace::reassembly::Endpoint;
use nettrace::transaction::{fnv1a, HttpTransaction, BODY_PREVIEW_LEN};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::benign::BenignScenario;
use crate::entice::Enticement;
use crate::evasion::is_redirect_hop;
use crate::families::{sample_payload_count, EkFamily, CALLBACK_PROB};
use crate::hostgen;

/// Episode class label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EpisodeLabel {
    /// Infection by the given exploit-kit family.
    Infection(EkFamily),
    /// Benign browsing of the given scenario.
    Benign(BenignScenario),
}

impl EpisodeLabel {
    /// Whether this episode is an infection.
    pub fn is_infection(self) -> bool {
        matches!(self, EpisodeLabel::Infection(_))
    }
}

/// One web conversation: the synthetic equivalent of a single ground-truth
/// PCAP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Episode {
    /// Ground-truth label.
    pub label: EpisodeLabel,
    /// HTTP transactions in timestamp order.
    pub transactions: Vec<HttpTransaction>,
    /// The victim/client endpoint.
    pub victim: Endpoint,
    /// How the victim was enticed (meaningful for infections; benign
    /// episodes use `GoogleSearch`/`EmptyReferrer` analogues).
    pub enticement: Enticement,
    /// Episode start time (seconds since epoch).
    pub start_ts: f64,
    /// Digests of the genuinely malicious payloads (ground truth for
    /// content-scanner comparisons; includes disguised payloads, empty
    /// for benign episodes).
    pub malicious_digests: std::collections::BTreeSet<u64>,
}

impl Episode {
    /// Whether this episode is an infection.
    pub fn is_infection(&self) -> bool {
        self.label.is_infection()
    }

    /// Unique hosts in the conversation, counting the victim client
    /// (Table I: "the minimum … is always 2 since the smallest
    /// conversation involves a client and one remote host").
    pub fn unique_hosts(&self) -> usize {
        remote_hosts(&self.transactions) + usize::from(!self.transactions.is_empty())
    }

    /// Number of redirect hops: responses that are 3xx, or 200s whose body
    /// carries a meta-refresh tag or obfuscated `atob`-style JavaScript
    /// redirect (the three mechanisms of Sec. II).
    pub fn redirect_count(&self) -> usize {
        self.transactions.iter().filter(|t| is_redirect_hop(t)).count()
    }

    /// Episode duration in seconds (last response end − first request).
    pub fn duration(&self) -> f64 {
        let first = self.transactions.first().map_or(0.0, |t| t.ts);
        let last = self.transactions.iter().map(|t| t.resp_ts).fold(first, f64::max);
        last - first
    }
}

/// Distinct `Host` values among `txs`.
fn remote_hosts(txs: &[HttpTransaction]) -> usize {
    let mut hosts: Vec<&str> = txs.iter().map(|t| t.host.as_str()).collect();
    hosts.sort_unstable();
    hosts.dedup();
    hosts.len()
}

/// Builds [`HttpTransaction`]s with consistent endpoints, ports, and
/// payload digests.
pub(crate) struct TxFactory {
    victim: Endpoint,
    servers: BTreeMap<String, Endpoint>,
    next_client_port: u16,
    user_agent: String,
}

/// Everything needed to emit one transaction.
pub(crate) struct TxSpec<'a> {
    pub ts: f64,
    pub method: Method,
    pub host: &'a str,
    pub uri: String,
    pub referer: Option<String>,
    pub status: u16,
    pub payload_class: PayloadClass,
    pub payload_size: usize,
    pub body: Vec<u8>,
    pub location: Option<String>,
    pub cookie: Option<String>,
}

impl<'a> TxSpec<'a> {
    /// A `GET` of `host` at `ts` answered `200` with an empty body and
    /// no referrer, cookie or redirect target: the base every site
    /// fills in.
    pub(crate) fn get(ts: f64, host: &'a str) -> Self {
        TxSpec {
            ts,
            method: Method::Get,
            host,
            uri: String::new(),
            referer: None,
            status: 200,
            payload_class: PayloadClass::Empty,
            payload_size: 0,
            body: Vec::new(),
            location: None,
            cookie: None,
        }
    }
}

impl TxFactory {
    pub(crate) fn new<R: Rng>(rng: &mut R) -> Self {
        let victim =
            Endpoint::new(Ipv4Addr::new(10, 0, 0, rng.gen_range(2..250)), 49152);
        let ua = [
            "Mozilla/4.0 (compatible; MSIE 8.0; Windows NT 6.1)",
            "Mozilla/5.0 (Windows NT 6.1; rv:31.0) Gecko/20100101 Firefox/31.0",
            "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10) AppleWebKit/600.1",
        ];
        TxFactory {
            victim,
            servers: BTreeMap::new(),
            next_client_port: 49152,
            user_agent: ua[rng.gen_range(0..ua.len())].to_string(),
        }
    }

    pub(crate) fn victim(&self) -> Endpoint {
        self.victim
    }

    fn server_for<R: Rng>(&mut self, rng: &mut R, host: &str) -> Endpoint {
        if let Some(&ep) = self.servers.get(host) {
            return ep;
        }
        // Hosts written as raw IPs (C&C callbacks) keep that IP.
        let addr = host.parse().unwrap_or_else(|_| hostgen::random_public_ip(rng));
        let ep = Endpoint::new(addr, 80);
        self.servers.insert(host.to_string(), ep);
        ep
    }

    /// Emits a transaction; the response completes after a latency plus a
    /// size-proportional transfer time.
    pub(crate) fn tx<R: Rng>(&mut self, rng: &mut R, spec: TxSpec<'_>) -> HttpTransaction {
        let server = self.server_for(rng, spec.host);
        self.next_client_port = self.next_client_port.wrapping_add(1).max(49152);
        let mut req_headers = HeaderMap::new();
        req_headers.append("Host", spec.host);
        req_headers.append("User-Agent", self.user_agent.clone());
        if let Some(r) = &spec.referer {
            req_headers.append("Referer", r.clone());
        }
        if let Some(c) = &spec.cookie {
            req_headers.append("Cookie", c.clone());
        }
        let mut resp_headers = HeaderMap::new();
        if spec.status != 0 {
            resp_headers.append("Content-Type", hostgen::content_type_for(spec.payload_class));
            resp_headers.append("Content-Length", spec.payload_size.to_string());
            if let Some(l) = &spec.location {
                resp_headers.append("Location", l.clone());
            }
        }
        let latency = rng.gen_range(0.02..0.2);
        let bandwidth = rng.gen_range(200e3..2e6); // bytes/sec
        let resp_ts = spec.ts + latency + spec.payload_size as f64 / bandwidth;
        let digest = fnv1a(&spec.body);
        let preview = spec.body.len().min(BODY_PREVIEW_LEN);
        HttpTransaction {
            // Episodes are later merged and re-sorted into a stream; the
            // stream builder renumbers with `nettrace::assign_seq`.
            seq: 0,
            ts: spec.ts,
            resp_ts,
            client: Endpoint::new(self.victim.addr, self.next_client_port),
            server,
            host: spec.host.to_string(),
            method: spec.method,
            uri: spec.uri,
            req_headers,
            status: spec.status,
            resp_headers,
            payload_class: spec.payload_class,
            payload_size: spec.payload_size,
            payload_digest: digest,
            body_preview: spec.body[..preview].to_vec(),
        }
    }

    /// A payload fetch on `get`: the body of `class` (materialized up to
    /// [`MATERIALIZE_LIMIT`] of the declared `size`), then its URI, then
    /// the transaction — in that RNG order.
    pub(crate) fn fetch<R: Rng>(
        &mut self,
        rng: &mut R,
        get: TxSpec<'_>,
        class: PayloadClass,
        size: usize,
    ) -> HttpTransaction {
        let body = hostgen::payload_body(rng, class, size.min(MATERIALIZE_LIMIT));
        let uri = hostgen::payload_uri(rng, class);
        self.tx(rng, TxSpec { uri, payload_class: class, payload_size: size, body, ..get })
    }

    /// A `302` hop from `host` to `target`.
    pub(crate) fn hop<R: Rng>(
        &mut self,
        rng: &mut R,
        ts: f64,
        host: &str,
        uri: String,
        referer: Option<String>,
        target: String,
    ) -> HttpTransaction {
        let get = TxSpec::get(ts, host);
        self.tx(rng, TxSpec { uri, referer, status: 302, location: Some(target), ..get })
    }
}

/// How a redirect hop is expressed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RedirectKind {
    /// `302` with a `Location` header.
    Http302,
    /// `200` HTML carrying a `<meta http-equiv="refresh">` tag.
    MetaRefresh,
    /// `200` HTML carrying base64-obfuscated `window.location` JavaScript.
    ObfuscatedJs,
}

impl RedirectKind {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        match rng.gen_range(0..10) {
            0..=5 => RedirectKind::Http302,
            6..=7 => RedirectKind::MetaRefresh,
            _ => RedirectKind::ObfuscatedJs,
        }
    }
}

/// Builds the HTML body for a non-header redirect hop.
fn redirect_body(kind: RedirectKind, target_url: &str) -> Vec<u8> {
    match kind {
        RedirectKind::Http302 => Vec::new(),
        RedirectKind::MetaRefresh => format!(
            "<html><head><meta http-equiv=\"refresh\" content=\"0;url={target_url}\"></head></html>"
        )
        .into_bytes(),
        RedirectKind::ObfuscatedJs => {
            let b64 = nettrace::base64::encode(target_url.as_bytes());
            format!(
                "<html><body><script>var _0x={};var u=atob(\"{b64}\");window.location=u;</script></body></html>",
                "[]"
            )
            .into_bytes()
        }
    }
}

/// Bytes materialized for payload bodies (larger sizes are declared via
/// `Content-Length`/`payload_size` but not materialized; see `pcapgen`).
pub(crate) const MATERIALIZE_LIMIT: usize = 4096;

/// Generates one infection episode for `family` starting at `start_ts`.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use synthtraffic::{episode::generate_infection, EkFamily};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let ep = generate_infection(&mut rng, EkFamily::Angler, 1.45e9);
/// assert!(ep.is_infection());
/// assert!(ep.unique_hosts() >= 2);
/// assert!(!ep.malicious_digests.is_empty());
/// ```
pub fn generate_infection<R: Rng>(rng: &mut R, family: EkFamily, start_ts: f64) -> Episode {
    let profile = family.profile();
    let mut fac = TxFactory::new(rng);
    let enticement = Enticement::sample(rng);
    let mut txs: Vec<HttpTransaction> = Vec::new();
    let mut malicious_digests = std::collections::BTreeSet::new();
    let mut t = start_ts;

    let n_hosts = profile.hosts.sample(rng).max(2);
    // Only 11 of the paper's 770 infection WCGs lack redirects entirely
    // (Sec. VII); every other trace chains through at least one hop.
    let n_redirects =
        if rng.gen_bool(11.0 / 770.0) { 0 } else { profile.redirects.sample(rng).max(1) };

    // Pacing: most kits are fully scripted and fast, but a quarter of
    // episodes throttle themselves to blend into human-paced browsing
    // (the timing-evasion trade-off Sec. VII discusses). This keeps the
    // temporal features strong but not sufficient on their own.
    let pace: f64 = if rng.gen_bool(0.12) { rng.gen_range(1.5..4.0) } else { 1.0 };

    // Payload disguise: some campaigns ship their payloads compressed or
    // with generic types instead of overt exploit extensions — the
    // paper's false-negative analysis found 89 such cases ("no
    // redirections but compressed malicious payload download").
    let disguised = rng.gen_bool(0.15);

    // --- Stage 0: enticement origin -------------------------------------
    let origin_host = enticement.origin_host(rng);
    let mut referer: Option<String> = None;
    if let Some(origin) = &origin_host {
        let uri = match enticement {
            Enticement::GoogleSearch | Enticement::BingSearch => {
                format!("/search?q={}", hostgen::random_token(rng, 8))
            }
            _ => hostgen::benign_uri(rng),
        };
        let body = hostgen::payload_body(rng, PayloadClass::Html, 2048);
        txs.push(fac.tx(rng, TxSpec {
            uri: uri.clone(),
            payload_class: PayloadClass::Html,
            payload_size: body.len(),
            body,
            ..TxSpec::get(t, origin)
        }));
        referer = Some(format!("http://{origin}{uri}"));
        t += pace * rng.gen_range(0.2..1.5);
    }

    // --- Stage 1: redirect chain ----------------------------------------
    // Budget hosts: chain intermediaries, landing, exploit server, C&C,
    // and CDN noise to fill up to n_hosts.
    let chain_hosts: Vec<String> =
        (0..n_redirects).map(|_| hostgen::random_domain(rng)).collect();
    let landing_host = hostgen::random_domain(rng);
    let exploit_host = if rng.gen_bool(0.6) {
        hostgen::random_domain(rng)
    } else {
        landing_host.clone()
    };
    let session = format!("sid={}", hostgen::random_token(rng, 12));

    let mut hop_targets: Vec<String> = chain_hosts.clone();
    hop_targets.push(landing_host.clone());
    for i in 0..n_redirects {
        let host = &hop_targets[i];
        let next = &hop_targets[i + 1];
        let next_uri = if i + 1 == n_redirects {
            hostgen::landing_uri(rng)
        } else {
            hostgen::benign_uri(rng)
        };
        let target_url = format!("http://{next}{next_uri}");
        let kind = RedirectKind::sample(rng);
        let uri = hostgen::benign_uri(rng);
        let (status, location, body) = match kind {
            RedirectKind::Http302 => (302, Some(target_url.clone()), Vec::new()),
            _ => (200, None, redirect_body(kind, &target_url)),
        };
        // A third of HTML redirect carriers ship compressed, like real
        // servers do — the evidence only appears after decoding.
        let compressed_hop = !body.is_empty() && rng.gen_bool(0.35);
        let mut hop_tx = fac.tx(rng, TxSpec {
            uri: uri.clone(),
            referer: referer.clone(),
            status,
            payload_class: if body.is_empty() { PayloadClass::Empty } else { PayloadClass::Html },
            payload_size: body.len(),
            body,
            location,
            ..TxSpec::get(t, host)
        });
        if compressed_hop {
            // The coding is derived from the already-computed body digest
            // rather than a fresh draw, keeping the episode RNG stream
            // stable: roughly half the carriers gzip, half deflate.
            let coding =
                if hop_tx.payload_digest & 1 == 0 { "gzip" } else { "deflate" };
            hop_tx.resp_headers.append("Content-Encoding", coding);
        }
        txs.push(hop_tx);
        referer = Some(format!("http://{host}{uri}"));
        // Infectious redirect chains move fast (Sec. III-C: shorter delays
        // between consecutive redirects than benign ones).
        t += pace * rng.gen_range(0.05..0.6);
    }

    // --- Landing page ----------------------------------------------------
    let landing_uri = if rng.gen_bool(0.7) {
        hostgen::landing_uri(rng)
    } else {
        hostgen::benign_uri(rng)
    };
    let landing_body = hostgen::payload_body(rng, PayloadClass::Html, 3500);
    let landing_size = rng.gen_range(20_000..90_000);
    txs.push(fac.tx(rng, TxSpec {
        uri: landing_uri.clone(),
        referer: referer.clone(),
        payload_class: PayloadClass::Html,
        payload_size: landing_size,
        body: landing_body,
        cookie: Some(session.clone()),
        ..TxSpec::get(t, &landing_host)
    }));
    let landing_url = format!("http://{landing_host}{landing_uri}");
    t += pace * rng.gen_range(0.1..0.8);

    // --- Stage 2: exploit payload downloads ------------------------------
    let classes = [
        PayloadClass::Pdf,
        PayloadClass::Exe,
        PayloadClass::Jar,
        PayloadClass::Swf,
        PayloadClass::Crypt,
    ];
    let exploit_get = |t| TxSpec {
        referer: Some(landing_url.clone()),
        cookie: Some(session.clone()),
        ..TxSpec::get(t, &exploit_host)
    };
    let mut any_exploit = false;
    for (class, &expectation) in classes.iter().zip(&profile.payloads[..5]) {
        let count = sample_payload_count(rng, expectation);
        for _ in 0..count {
            any_exploit = true;
            // Disguised campaigns wrap the payload: an archive or generic
            // binary on the wire, even though it is the same exploit.
            let wire_class = if disguised {
                if rng.gen_bool(0.6) { PayloadClass::Archive } else { PayloadClass::Other }
            } else {
                *class
            };
            let size = hostgen::payload_size(rng, *class);
            let tx = fac.fetch(rng, exploit_get(t), wire_class, size);
            malicious_digests.insert(tx.payload_digest);
            txs.push(tx);
            t += pace * rng.gen_range(0.1..1.0);
        }
    }
    if !any_exploit {
        // Every ground-truth infection involved at least one payload
        // download (Sec. VII); force the family's most likely class.
        let size = hostgen::payload_size(rng, PayloadClass::Exe);
        let tx = fac.fetch(rng, exploit_get(t), PayloadClass::Exe, size);
        malicious_digests.insert(tx.payload_digest);
        txs.push(tx);
        t += pace * rng.gen_range(0.1..1.0);
    }

    // --- JavaScript noise (Table I's *.js column) ------------------------
    let js_count = sample_payload_count(rng, profile.payloads[5].min(8.0));
    for _ in 0..js_count {
        let size = hostgen::payload_size(rng, PayloadClass::Js);
        let get = TxSpec { referer: Some(landing_url.clone()), ..TxSpec::get(t, &landing_host) };
        txs.push(fac.fetch(rng, get, PayloadClass::Js, size));
        t += pace * rng.gen_range(0.05..0.5);
    }

    // --- Stage 3: post-download C&C call-backs ---------------------------
    if rng.gen_bool(CALLBACK_PROB) {
        let n_cc = rng.gen_range(1..=3);
        for _ in 0..n_cc {
            // Never-before-seen hosts, addressed by raw IP (Sec. II-D).
            let cc_host = hostgen::random_public_ip(rng).to_string();
            t += pace * rng.gen_range(0.5..8.0);
            let status = if rng.gen_bool(0.25) {
                0 // C&C never answered: an unreciprocated victim→host edge
            } else if rng.gen_bool(0.7) {
                200
            } else {
                40 * 10 + rng.gen_range(0u16..5)
            };
            let (class, body) = if status == 200 {
                (PayloadClass::Text, hostgen::payload_body(rng, PayloadClass::Text, 64))
            } else {
                (PayloadClass::Empty, Vec::new())
            };
            txs.push(fac.tx(rng, TxSpec {
                method: Method::Post,
                uri: "/gate.php".to_string(),
                status,
                payload_class: class,
                payload_size: body.len(),
                body,
                ..TxSpec::get(t, &cc_host)
            }));
        }
    }

    // --- CDN noise to fill the host budget --------------------------------
    for _ in remote_hosts(&txs)..n_hosts {
        let cdn = hostgen::random_domain(rng);
        let class = if rng.gen_bool(0.6) { PayloadClass::Image } else { PayloadClass::Js };
        let size = hostgen::payload_size(rng, class);
        let body = hostgen::payload_body(rng, class, size.min(MATERIALIZE_LIMIT));
        let uri = hostgen::payload_uri(rng, class);
        // `dt` is drawn between the URI and the transaction, so this
        // site cannot use `TxFactory::fetch`.
        t += rng.gen_range(0.1..1.2);
        txs.push(fac.tx(rng, TxSpec {
            uri,
            referer: Some(landing_url.clone()),
            payload_class: class,
            payload_size: size,
            body,
            ..TxSpec::get(t, &cdn)
        }));
    }

    txs.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    Episode {
        label: EpisodeLabel::Infection(family),
        transactions: txs,
        victim: fac.victim(),
        enticement,
        start_ts,
        malicious_digests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gen(family: EkFamily, seed: u64) -> Episode {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_infection(&mut rng, family, 1_400_000_000.0)
    }

    #[test]
    fn deterministic_for_seed() {
        let a = gen(EkFamily::Angler, 5);
        let b = gen(EkFamily::Angler, 5);
        assert_eq!(a.transactions.len(), b.transactions.len());
        for (x, y) in a.transactions.iter().zip(&b.transactions) {
            assert_eq!(x.uri, y.uri);
            assert_eq!(x.payload_digest, y.payload_digest);
        }
    }

    #[test]
    fn every_infection_downloads_a_payload() {
        // Every ground-truth infection involved a payload download
        // (Sec. VII); disguised campaigns ship it as an archive/binary.
        for seed in 0..30 {
            let ep = gen(EkFamily::Rig, seed);
            let downloaded = ep.transactions.iter().any(|t| {
                t.status / 100 == 2
                    && t.payload_size > 5_000
                    && (t.payload_class.is_exploit_type()
                        || matches!(
                            t.payload_class,
                            nettrace::payload::PayloadClass::Archive
                                | nettrace::payload::PayloadClass::Other
                        ))
            });
            assert!(downloaded, "seed {seed} had no payload download");
        }
    }

    #[test]
    fn timestamps_are_monotonic() {
        let ep = gen(EkFamily::Nuclear, 7);
        for w in ep.transactions.windows(2) {
            assert!(w[1].ts >= w[0].ts);
        }
        assert!(ep.duration() > 0.0);
    }

    #[test]
    fn host_counts_stay_within_family_range() {
        for seed in 0..50 {
            let ep = gen(EkFamily::Angler, seed);
            let hosts = ep.unique_hosts();
            // Callback hosts can add up to 3 beyond the base budget.
            assert!((2..=74 + 3).contains(&hosts), "seed {seed}: {hosts} hosts");
        }
    }

    #[test]
    fn callbacks_use_fresh_ip_hosts() {
        // Find an episode with callbacks; check POST targets are IPs that
        // never appeared before the download stage.
        let mut found = false;
        for seed in 0..40 {
            let ep = gen(EkFamily::Angler, seed);
            let posts: Vec<&HttpTransaction> =
                ep.transactions.iter().filter(|t| t.method == Method::Post).collect();
            if posts.is_empty() {
                continue;
            }
            found = true;
            for p in &posts {
                assert!(p.host.parse::<std::net::Ipv4Addr>().is_ok(), "host {}", p.host);
                let earlier_non_post = ep
                    .transactions
                    .iter()
                    .filter(|t| t.method != Method::Post)
                    .any(|t| t.host == p.host);
                assert!(!earlier_non_post, "C&C host {} seen earlier", p.host);
            }
        }
        assert!(found, "no episode with callbacks in 40 seeds");
    }

    #[test]
    fn redirect_bodies_roundtrip() {
        let url = "http://evil.example/landing?x=1";
        let meta = redirect_body(RedirectKind::MetaRefresh, url);
        assert!(String::from_utf8(meta).unwrap().contains(url));
        let js = String::from_utf8(redirect_body(RedirectKind::ObfuscatedJs, url)).unwrap();
        assert!(!js.contains(url), "obfuscated body must hide the target");
        let b64 = js.split("atob(\"").nth(1).unwrap().split('"').next().unwrap();
        assert_eq!(nettrace::base64::decode(b64).unwrap(), url.as_bytes());
    }

    #[test]
    fn magnitude_generates_heavy_download_stage() {
        // Magnitude averages ~20 executables per trace in Table I.
        let mut total = 0usize;
        for seed in 0..10 {
            total += gen(EkFamily::Magnitude, seed)
                .transactions
                .iter()
                .filter(|t| t.payload_class == PayloadClass::Exe)
                .count();
        }
        assert!(total >= 120, "expected heavy exe volume, got {total}/10 episodes");
    }

    #[test]
    fn enticement_referrers_match_category() {
        for seed in 0..30 {
            let ep = gen(EkFamily::Fiesta, seed);
            let first = &ep.transactions[0];
            match ep.enticement {
                Enticement::GoogleSearch => assert!(first.host.contains("google")),
                Enticement::BingSearch => assert!(first.host.contains("bing")),
                Enticement::EmptyReferrer | Enticement::RedactedReferrer => {
                    assert!(first.referer().is_none())
                }
                _ => {}
            }
        }
    }
}
