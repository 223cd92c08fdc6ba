//! Allocation-count regression fence for the detector's per-transaction
//! path (`OnTheWireDetector::observe_owned`). Kept as the only test in
//! this binary so no concurrent test thread can perturb the process-wide
//! allocation counter.

use std::net::Ipv4Addr;

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::{DetectorConfig, OnTheWireDetector};
use nettrace::http::{HeaderMap, Method};
use nettrace::payload::PayloadClass;
use nettrace::reassembly::Endpoint;
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::{BenignScenario, EkFamily};

#[global_allocator]
static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;

/// A model to construct the detector with. The transactions below never
/// raise a clue, so it is never asked for a score.
fn classifier() -> Classifier {
    let mut rng = StdRng::seed_from_u64(11);
    let items = [
        (generate_infection(&mut rng, EkFamily::Angler, 1.4e9).transactions, true),
        (generate_benign(&mut rng, BenignScenario::WEIGHTED[0].0, 1.43e9).transactions, false),
    ];
    Classifier::fit_default(&build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l))), 11)
}

/// A page fetch at `ts` that carries every match key the tracker reads:
/// a mixed-case Host, a Referer on the same site and a session Cookie.
fn transaction(ts: f64) -> HttpTransaction {
    let mut req_headers = HeaderMap::new();
    req_headers.append("Host", "Www.Example.com");
    req_headers.append("Referer", "http://WWW.example.com/index.html");
    req_headers.append("Cookie", "PHPSESSID=4f2a9c");
    let mut resp_headers = HeaderMap::new();
    resp_headers.append("Content-Type", "text/html");
    HttpTransaction {
        seq: 0,
        ts,
        resp_ts: ts + 0.05,
        client: Endpoint::new(Ipv4Addr::new(10, 0, 0, 7), 50000),
        server: Endpoint::new(Ipv4Addr::new(203, 0, 113, 1), 80),
        host: "Www.Example.com".into(),
        method: Method::Get,
        uri: "/news/today.html".into(),
        req_headers,
        status: 200,
        resp_headers,
        payload_class: PayloadClass::Html,
        payload_size: 2000,
        body_preview: b"<html><head><title>t.b.d.</title></head><body>-(.</body></html>".to_vec(),
        payload_digest: 7,
    }
}

/// A transaction whose host, URL, referrer host and session id its
/// conversation already holds must cost no heap beyond what it stores:
/// the trusted-vendor weed-out compares in place, the redirect
/// precheck reads the preview without copying it, and every match key
/// is borrowed or built in a reused buffer, and a conversation no clue
/// fired on holds no graph to fold them into. What remains over 1 000
/// transactions is the amortized growth of the vector they are stored
/// in (measured: 8; 34 while every transaction was also folded into a
/// graph on arrival). A weed-out that lowercases the host and formats
/// each suffix takes 21 allocations per transaction; copying the
/// referrer host and the session id, one each (23 034 in all).
#[test]
fn observing_known_match_keys_allocates_only_amortized_growth() {
    const TRANSACTIONS: usize = 1_000;
    const BOUND: u64 = 64;
    let mut detector = OnTheWireDetector::new(classifier(), DetectorConfig::default());
    detector.observe_owned(transaction(1.4e9));
    let stream: Vec<HttpTransaction> =
        (1..=TRANSACTIONS).map(|i| transaction(1.4e9 + i as f64 * 0.1)).collect();

    let before = bench::alloc_count::allocations();
    for tx in stream {
        assert!(detector.observe_owned(tx).is_none());
    }
    let allocations = bench::alloc_count::allocations() - before;

    assert_eq!(detector.transactions_seen(), TRANSACTIONS + 1, "none was weeded out");
    assert_eq!(detector.tracker().conversation_count(), 1, "all joined the warm conversation");
    assert!(
        allocations <= BOUND,
        "{TRANSACTIONS} transactions with known match keys took {allocations} heap \
         allocations, bound {BOUND}"
    );
}
