//! Allocation-count regression fence for the final verdict sweep. Kept
//! as the only test in this binary so no concurrent test thread can
//! perturb the process-wide allocation counter.

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

fn classifier() -> Classifier {
    let mut rng = StdRng::seed_from_u64(11);
    let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
    for i in 0..10 {
        items.push((generate_infection(&mut rng, EkFamily::ALL[i], 1.4e9).transactions, true));
        let scenario = BenignScenario::WEIGHTED[i % 8].0;
        items.push((generate_benign(&mut rng, scenario, 1.43e9).transactions, false));
    }
    let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
    Classifier::fit_default(&data, 11)
}

/// Transaction `j` of client `client`: a page on one of six hosts, every
/// other one naming the previous page as its referrer.
fn transaction(client: u32, j: usize) -> HttpTransaction {
    let host = format!("h{}.example", j % 6);
    let mut req_headers = HeaderMap::new();
    req_headers.append("Host", host.clone());
    if j % 2 == 1 {
        req_headers.append("Referer", format!("http://h{}.example/p{}", (j - 1) % 6, j - 1));
    }
    let ts = 1.4e9 + f64::from(client) * 7.0 + j as f64;
    HttpTransaction {
        seq: 0,
        ts,
        resp_ts: ts + 0.05,
        client: Endpoint::new(Ipv4Addr::from(0x0a00_0000 + client), 50000),
        server: Endpoint::new(Ipv4Addr::new(203, 0, 113, 1), 80),
        host,
        method: Method::Get,
        uri: format!("/p{j}"),
        req_headers,
        status: if j.is_multiple_of(5) { 302 } else { 200 },
        resp_headers: HeaderMap::new(),
        payload_class: PayloadClass::Html,
        payload_size: 2000,
        body_preview: Vec::new(),
        payload_digest: j as u64,
    }
}

/// Heap acquisitions of one sweep over `conversations` conversations of
/// `per_conversation` transactions each, on a detector that has seen
/// them all and swept once before.
fn sweep_allocations(clf: &Classifier, conversations: u32, per_conversation: usize) -> u64 {
    let mut detector = OnTheWireDetector::new(clf.clone(), DetectorConfig::default());
    for client in 0..conversations {
        for j in 0..per_conversation {
            detector.observe_owned(transaction(client, j));
        }
    }
    let warm = detector.final_verdicts(1);
    assert_eq!(warm.len(), conversations as usize, "one conversation per client");
    assert!(warm.iter().all(|v| v.transactions == per_conversation));
    let before = bench::alloc_count::allocations();
    std::hint::black_box(detector.final_verdicts(1));
    bench::alloc_count::allocations() - before
}

/// The sweep scores the graphs the conversations hold and builds none,
/// and the forest scores each feature vector in place, so what it takes
/// from the heap is a constant: its output vectors and one worker's
/// scratch space growing to the largest graph (measured: 49 to 54), and
/// nothing per conversation. Rebuilding each WCG from its transactions,
/// as `Classifier::score_conversations_batch` does, takes 103
/// acquisitions per conversation of 8 transactions and 227 per
/// conversation of 64.
#[test]
fn sweep_allocations_do_not_grow_with_conversation_length() {
    const CONSTANT: u64 = 64;
    const PER_CONVERSATION: u64 = 0;
    let clf = classifier();
    for (conversations, per_conversation) in [(64, 8), (64, 64), (256, 8), (256, 64)] {
        let allocations = sweep_allocations(&clf, conversations, per_conversation);
        let bound = CONSTANT + PER_CONVERSATION * u64::from(conversations);
        assert!(
            allocations <= bound,
            "{conversations} conversations of {per_conversation} transactions: \
             {allocations} allocations in one sweep, bound {bound}"
        );
    }
}
