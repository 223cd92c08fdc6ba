//! The Web Conversation Graph (WCG) abstraction of Sec. III.
//!
//! A WCG is a directed multigraph whose nodes are hosts (victim, remote
//! hosts, and an *origin node* naming the enticement source) and whose
//! edges are request / response / redirect relations annotated with
//! method, URI length, status code, payload type and size, timestamp, and
//! infection **stage** (pre-download / download / post-download).

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use nettrace::http::Method;
use nettrace::payload::PayloadClass;
use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};
use wcgraph::{DiGraph, NodeId};

pub mod builder;
pub(crate) mod record;
pub mod redirect;
#[cfg(test)]
pub(crate) mod reference;
pub mod stages;

pub use builder::{PushOutcome, WcgBuilder};
pub use stages::Stage;

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// The client to which payloads are downloaded.
    Victim,
    /// Any remote host participating in the conversation.
    Remote,
    /// The enticement source (referrer of the first transaction).
    Origin,
}

/// Node annotations (Sec. III-C, node level).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeAttr {
    /// Hostname (or IP string) of the host.
    pub name: String,
    /// Node role.
    pub kind: NodeKind,
    /// IP address when known.
    pub ip: Option<Ipv4Addr>,
    /// Number of distinct URIs requested from this host.
    pub uris: usize,
    /// Count of payloads per type served by this host.
    pub payload_summary: BTreeMap<PayloadClass, usize>,
}

impl NodeAttr {
    fn new(name: String, kind: NodeKind) -> Self {
        NodeAttr {
            name,
            kind,
            ip: None,
            uris: 0,
            payload_summary: BTreeMap::new(),
        }
    }
}

/// The relation an edge expresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Victim → host request.
    Request,
    /// Host → victim response.
    Response,
    /// Host → host redirection.
    Redirect,
}

/// Edge annotations (Sec. III-C, edge level).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeAttr {
    /// Relation kind.
    pub kind: EdgeKind,
    /// Conversation stage this edge belongs to.
    pub stage: Stage,
    /// Event timestamp (request time for requests, completion for
    /// responses, response time for redirects).
    pub ts: f64,
    /// HTTP method (request edges).
    pub method: Option<Method>,
    /// URI length (request edges).
    pub uri_len: usize,
    /// HTTP status code (response edges; 0 elsewhere).
    pub status: u16,
    /// Payload type (response edges).
    pub payload_class: Option<PayloadClass>,
    /// Payload size in bytes (response edges).
    pub payload_size: usize,
}

/// Redirection aggregates (graph level).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RedirectStats {
    /// Total redirect hops observed (sum over all chains; Sec. III-D's
    /// modified inference takes the sum of all redirections in a WCG).
    pub total: usize,
    /// Longest chain of consecutive redirections (unique hops).
    pub max_chain: usize,
    /// Redirections whose source and target registrable domains differ.
    pub cross_domain: usize,
    /// Distinct top-level domains among redirect participants.
    pub tlds: BTreeSet<String>,
    /// Gaps between consecutive redirect events, for the
    /// average-delay-between-redirects property.
    pub redirect_gaps: Vec<f64>,
}

/// A fully built and stage-annotated web conversation graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Wcg {
    /// The underlying annotated multigraph.
    pub graph: DiGraph<NodeAttr, EdgeAttr>,
    /// The victim node, when any transaction was observed.
    pub victim: Option<NodeId>,
    /// The origin node (known enticement source), if identifiable.
    pub origin: Option<NodeId>,
    /// Whether the DNT header was enabled on any request.
    pub dnt: bool,
    /// Whether any request carried an `X-Flash-Version` header.
    pub x_flash: bool,
    /// Total GET / POST / other request methods.
    pub method_counts: MethodCounts,
    /// Response counts per status class (index 1–5; index 0 counts
    /// requests with no observed response).
    pub status_class_counts: [usize; 6],
    /// Transactions with a referrer set / unset.
    pub referrer_set: usize,
    /// Transactions without a referrer.
    pub referrer_unset: usize,
    /// Sum of request-URI lengths.
    pub uri_length_total: usize,
    /// Number of request URIs (with multiplicity).
    pub uri_count: usize,
    /// First request timestamp.
    pub first_ts: f64,
    /// Last response-completion timestamp.
    pub last_ts: f64,
    /// Gaps between consecutive transactions.
    pub inter_tx_gaps: Vec<f64>,
    /// Redirection aggregates.
    pub redirects: RedirectStats,
    /// Total transaction count.
    pub tx_count: usize,
    /// Total payload bytes delivered to the victim.
    pub payload_bytes: usize,
    /// Per-stage transaction counts `[pre, download, post]`.
    pub stage_counts: [usize; 3],
}

/// GET / POST / other request-method totals.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MethodCounts {
    /// GET requests.
    pub get: usize,
    /// POST requests.
    pub post: usize,
    /// Any other method.
    pub other: usize,
}

impl Wcg {
    /// Builds a WCG from a conversation's transactions (any order; they
    /// are sorted by request timestamp internally), including redirect
    /// mining, origin-node inference, and stage annotation.
    ///
    /// # Example
    ///
    /// ```
    /// use dynaminer::wcg::Wcg;
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use synthtraffic::{episode::generate_infection, EkFamily};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let ep = generate_infection(&mut rng, EkFamily::Rig, 1.45e9);
    /// let wcg = Wcg::from_transactions(&ep.transactions);
    /// assert!(wcg.graph.node_count() >= 2);
    /// assert_eq!(wcg.tx_count, ep.transactions.len());
    /// ```
    pub fn from_transactions(transactions: &[HttpTransaction]) -> Wcg {
        let mut builder = WcgBuilder::new();
        builder.rebuild(transactions);
        builder.into_wcg()
    }

    /// Conversation duration in seconds.
    pub fn duration(&self) -> f64 {
        (self.last_ts - self.first_ts).max(0.0)
    }

    /// Number of remote hosts (nodes excluding victim and origin).
    pub fn remote_host_count(&self) -> usize {
        self.graph
            .node_ids()
            .filter(|&n| self.graph.node(n).kind == NodeKind::Remote)
            .count()
    }

    /// Whether the conversation contains at least one post-download edge.
    pub fn has_post_download(&self) -> bool {
        self.stage_counts[2] > 0
    }

    /// Renders the WCG in Graphviz DOT format (Fig. 6-style output).
    pub fn to_dot(&self, name: &str) -> String {
        wcgraph::dot::to_dot(
            &self.graph,
            name,
            |n| format!("{} ({:?})", n.name, n.kind),
            |e| match e.kind {
                EdgeKind::Request => format!(
                    "req {} len={} s{}",
                    e.method.as_ref().map_or("?", |m| m.as_str()),
                    e.uri_len,
                    e.stage.index()
                ),
                EdgeKind::Response => format!(
                    "res {} {} {}B s{}",
                    e.status,
                    e.payload_class.map_or("-", |c| c.label()),
                    e.payload_size,
                    e.stage.index()
                ),
                EdgeKind::Redirect => format!("redirect s{}", e.stage.index()),
            },
        )
    }
}

/// Last two DNS labels of `host`, borrowed from the input (no allocation —
/// this runs once per redirect edge on the live path).
fn registrable_domain(host: &str) -> &str {
    match host.rmatch_indices('.').nth(1) {
        Some((i, _)) => &host[i + 1..],
        None => host,
    }
}

/// Top-level domain of `host`, borrowed from the input. `None` for IPv4
/// literals. Callers pass already-lowercased host names, so no case
/// normalization happens here.
fn tld(host: &str) -> Option<&str> {
    if host.parse::<Ipv4Addr>().is_ok() {
        return None;
    }
    host.rsplit('.').next()
}

/// Host component of `url` as written, when non-empty; callers
/// lowercase it.
fn url_host(url: &str) -> Option<&str> {
    let rest = url.split_once("://").map_or(url, |(_, r)| r);
    let host = rest.split(['/', '?', '#']).next()?;
    let host = host.split(':').next()?;
    (!host.is_empty()).then_some(host)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nettrace::http::{HeaderMap, Method};
    use nettrace::reassembly::Endpoint;

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tx(
        ts: f64,
        host: &str,
        uri: &str,
        method: Method,
        status: u16,
        class: PayloadClass,
        size: usize,
        referer: Option<&str>,
        location: Option<&str>,
    ) -> HttpTransaction {
        let mut req_headers = HeaderMap::new();
        req_headers.append("Host", host);
        if let Some(r) = referer {
            req_headers.append("Referer", r);
        }
        let mut resp_headers = HeaderMap::new();
        if let Some(l) = location {
            resp_headers.append("Location", l);
        }
        HttpTransaction {
            seq: 0,
            ts,
            resp_ts: ts + 0.1,
            client: Endpoint::new(Ipv4Addr::new(10, 0, 0, 5), 50000),
            server: Endpoint::new(Ipv4Addr::new(203, 0, 113, 10), 80),
            host: host.to_string(),
            method,
            uri: uri.to_string(),
            req_headers,
            status,
            resp_headers,
            payload_class: class,
            payload_size: size,
            body_preview: Vec::new(),
            payload_digest: 0,
        }
    }

    /// Whether two graphs are equal in every field. Compared through
    /// `Debug`, which prints non-finite timestamps (JSON has none) and
    /// tells `-0.0` from `0.0`.
    pub(crate) fn same_wcg(a: &Wcg, b: &Wcg) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// Response bodies that redirect without a 3xx: a meta refresh, an
    /// `atob`-obfuscated target and a plain `window.location`
    /// assignment, each naming a host the generators also use, and a
    /// relative meta refresh, which names no host at all.
    pub(crate) const REDIRECTING_PREVIEWS: [&str; 4] = [
        r#"<html><meta http-equiv="Refresh" content="0;url=http://C.Example.org/p1"></html>"#,
        // "http://198.51.100.7/p2"
        r#"<script>var u = atob("aHR0cDovLzE5OC41MS4xMDAuNy9wMg==");</script>"#,
        r#"<script>window.location = "http://a.example.com/p0";</script>"#,
        r#"<html><meta http-equiv="refresh" content="0;url=/p2"></html>"#,
    ];

    /// One transaction of one client over a six-host pool (one host
    /// under two spellings), for the builder and session-tracker
    /// proptests: any timestamp (streams arrive out of order, tie, or
    /// carry NaN and infinities), a referrer that names a URL the pool
    /// may hold, only a pool host, or neither, two session cookies,
    /// exploit and plain payloads, and `Location` redirects into the
    /// pool.
    /// "origin.example" doubles as a referrer host, so a stream can
    /// contact its inferred origin — the builder's other rebuild trigger.
    pub(crate) fn arb_tx() -> impl proptest::prelude::Strategy<Value = HttpTransaction> {
        use proptest::prelude::*;
        let host = || {
            prop_oneof![
                Just("a.example.com"),
                Just("B.Example.net"),
                Just("b.example.net"),
                Just("c.example.org"),
                Just("198.51.100.7"),
                Just("origin.example"),
            ]
        };
        let method = prop_oneof![Just(Method::Get), Just(Method::Post), Just(Method::Head)];
        let status =
            prop_oneof![Just(0u16), Just(200u16), Just(302u16), Just(404u16), Just(500u16)];
        let class = prop_oneof![
            Just(PayloadClass::Html),
            Just(PayloadClass::Js),
            Just(PayloadClass::Exe),
            Just(PayloadClass::Jar),
            Just(PayloadClass::Empty),
        ];
        // Mostly ten minutes of spread, but also negative, NaN, infinite
        // and signed-zero timestamps, and exact ties.
        let ts = prop_oneof![
            0.0f64..600.0,
            0.0f64..600.0,
            0.0f64..600.0,
            -600.0f64..0.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0f64),
            Just(0.0f64),
            Just(300.0f64),
        ];
        let shape = (0u8..4, 0u8..3, any::<bool>(), 0u8..3);
        ((host(), host(), ts), (method, status, class), shape).prop_map(
            |((host, other, ts), (method, status, class), (referer, cookie, redirects, page))| {
                let referer = match referer {
                    0 => None,
                    1 => Some(format!("http://{other}/p{page}")),
                    2 => Some(format!("http://{other}/elsewhere")),
                    _ => Some("http://unrelated.example/".to_string()),
                };
                let location = redirects.then(|| format!("http://{other}/p0"));
                let uri = format!("/p{page}");
                let (referer, location) = (referer.as_deref(), location.as_deref());
                let mut t = tx(ts, host, &uri, method, status, class, 700, referer, location);
                if cookie > 0 {
                    t.req_headers.append("Cookie", ["sid=a", "sid=b"][usize::from(cookie) - 1]);
                }
                t
            },
        )
    }

    fn angler_like() -> Vec<HttpTransaction> {
        vec![
            tx(1.0, "www.bing.com", "/search?q=x", Method::Get, 200, PayloadClass::Html, 2000, None, None),
            tx(2.0, "siteA.com", "/page", Method::Get, 302, PayloadClass::Empty, 0,
               Some("http://www.bing.com/search?q=x"), Some("http://siteB.net/landing")),
            tx(2.3, "siteB.net", "/landing", Method::Get, 302, PayloadClass::Empty, 0,
               Some("http://siteA.com/page"), Some("http://exploit.ru/gate.php?k=v")),
            tx(2.6, "exploit.ru", "/gate.php?k=v", Method::Get, 200, PayloadClass::Html, 40_000,
               Some("http://siteB.net/landing"), None),
            tx(3.0, "exploit.ru", "/flash.swf", Method::Get, 200, PayloadClass::Swf, 80_000,
               Some("http://exploit.ru/gate.php?k=v"), None),
            tx(10.0, "198.51.100.9", "/gate.php", Method::Post, 200, PayloadClass::Text, 30, None, None),
            tx(20.0, "198.51.100.10", "/gate.php", Method::Post, 404, PayloadClass::Empty, 0, None, None),
        ]
    }

    #[test]
    fn builds_nodes_for_victim_origin_and_hosts() {
        let wcg = Wcg::from_transactions(&angler_like());
        // bing is contacted directly, so no separate origin node; victim +
        // 5 remote hosts (bing, siteA, siteB, exploit.ru, 2 C&C IPs) = 7.
        assert_eq!(wcg.graph.node_count(), 7);
        assert!(wcg.victim.is_some());
        assert!(wcg.origin.is_none(), "bing is contacted, not a pure origin");
        assert_eq!(wcg.remote_host_count(), 6);
    }

    #[test]
    fn origin_node_created_when_referrer_not_contacted() {
        let txs = vec![tx(
            1.0, "landing.com", "/x", Method::Get, 200, PayloadClass::Html, 10,
            Some("http://www.google.com/search?q=a"), None,
        )];
        let wcg = Wcg::from_transactions(&txs);
        let origin = wcg.origin.expect("origin node");
        assert_eq!(wcg.graph.node(origin).name, "www.google.com");
        assert_eq!(wcg.graph.node(origin).kind, NodeKind::Origin);
        // Origin contributes a redirect edge to the first host.
        let redirects = wcg
            .graph
            .edges()
            .filter(|(_, _, _, e)| e.kind == EdgeKind::Redirect)
            .count();
        assert_eq!(redirects, 1);
    }

    #[test]
    fn redirect_chain_is_tracked() {
        let wcg = Wcg::from_transactions(&angler_like());
        assert_eq!(wcg.redirects.total, 2);
        assert_eq!(wcg.redirects.max_chain, 2);
        assert_eq!(wcg.redirects.cross_domain, 2);
        assert!(wcg.redirects.tlds.contains("com"));
        assert!(wcg.redirects.tlds.contains("net"));
        assert!(wcg.redirects.tlds.contains("ru"));
    }

    #[test]
    fn aggregates_count_methods_statuses_referrers() {
        let wcg = Wcg::from_transactions(&angler_like());
        assert_eq!(wcg.method_counts.get, 5);
        assert_eq!(wcg.method_counts.post, 2);
        assert_eq!(wcg.status_class_counts[2], 4); // 200s
        assert_eq!(wcg.status_class_counts[3], 2); // 302s
        assert_eq!(wcg.status_class_counts[4], 1); // 404
        assert_eq!(wcg.referrer_set, 4);
        assert_eq!(wcg.referrer_unset, 3);
        assert_eq!(wcg.tx_count, 7);
        assert!(wcg.duration() > 18.0);
    }

    #[test]
    fn stages_split_pre_download_post() {
        let wcg = Wcg::from_transactions(&angler_like());
        assert!(wcg.stage_counts[0] >= 2, "pre: {:?}", wcg.stage_counts);
        assert!(wcg.stage_counts[1] >= 1, "download: {:?}", wcg.stage_counts);
        assert_eq!(wcg.stage_counts[2], 2, "post: {:?}", wcg.stage_counts);
        assert!(wcg.has_post_download());
    }

    #[test]
    fn payload_summary_per_node() {
        let wcg = Wcg::from_transactions(&angler_like());
        let exploit = wcg
            .graph
            .node_ids()
            .find(|&n| wcg.graph.node(n).name == "exploit.ru")
            .unwrap();
        let summary = &wcg.graph.node(exploit).payload_summary;
        assert_eq!(summary.get(&PayloadClass::Swf), Some(&1));
        assert_eq!(summary.get(&PayloadClass::Html), Some(&1));
    }

    #[test]
    fn empty_conversation_yields_empty_graph() {
        let wcg = Wcg::from_transactions(&[]);
        assert_eq!(wcg.graph.node_count(), 0);
        assert_eq!(wcg.tx_count, 0);
        assert!(wcg.victim.is_none());
    }

    #[test]
    fn dot_export_mentions_hosts_and_stages() {
        let wcg = Wcg::from_transactions(&angler_like());
        let dot = wcg.to_dot("angler");
        assert!(dot.contains("exploit.ru"));
        assert!(dot.contains("req GET"));
        assert!(dot.contains("res 200"));
    }

    #[test]
    fn helper_functions() {
        assert_eq!(registrable_domain("a.b.example.com"), "example.com");
        assert_eq!(registrable_domain("example.com"), "example.com");
        assert_eq!(registrable_domain("com"), "com");
        assert_eq!(tld("x.example.ru"), Some("ru"));
        assert_eq!(tld("198.51.100.9"), None);
        assert_eq!(url_host("http://h.com/p?q=1"), Some("h.com"));
        assert_eq!(url_host("https://h.com:8080/p"), Some("h.com"));
        assert_eq!(url_host("h.com/p"), Some("h.com"));
        assert_eq!(url_host("http://H.CoM/p"), Some("H.CoM"));
        assert_eq!(url_host("http:///"), None);
    }

    #[test]
    fn victim_is_the_first_transactions_client() {
        // Conversations are clustered per client upstream; when a mixed
        // stream slips through, the WCG anchors on the first client and
        // keeps all transactions (documented behavior).
        let mut txs = angler_like();
        txs[3].client = nettrace::reassembly::Endpoint::new(Ipv4Addr::new(10, 9, 9, 9), 1234);
        let wcg = Wcg::from_transactions(&txs);
        let victim = wcg.victim.unwrap();
        assert_eq!(wcg.graph.node(victim).ip, Some(Ipv4Addr::new(10, 0, 0, 5)));
        assert_eq!(wcg.tx_count, txs.len());
    }

    #[test]
    fn wcg_serde_roundtrip_preserves_structure() {
        let wcg = Wcg::from_transactions(&angler_like());
        let json = serde_json::to_string(&wcg).unwrap();
        let restored: Wcg = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.graph.node_count(), wcg.graph.node_count());
        assert_eq!(restored.graph.edge_count(), wcg.graph.edge_count());
        assert_eq!(restored.stage_counts, wcg.stage_counts);
        assert_eq!(restored.redirects.max_chain, wcg.redirects.max_chain);
    }

    #[test]
    fn inter_tx_gaps_are_recorded() {
        let wcg = Wcg::from_transactions(&angler_like());
        assert_eq!(wcg.inter_tx_gaps.len(), 6);
        assert!(wcg.inter_tx_gaps.iter().all(|&g| g >= 0.0));
    }
}
