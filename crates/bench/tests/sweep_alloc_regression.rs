//! Allocation-count regression fence for the final verdict sweep and the
//! feed before it. Kept as the only test in this binary so no concurrent
//! test thread can perturb the process-wide allocation counter.

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
/// other one naming the previous page as its referrer. No clue ever
/// fires on these.
fn page(client: u32, j: usize) -> HttpTransaction {
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

/// The same pages, except that the first two redirect to the next host
/// and the third downloads an executable: a redirect chain, then an
/// exploit download, so the clue fires and the conversation holds its
/// graph from then on.
fn infection(client: u32, j: usize) -> HttpTransaction {
    let mut tx = page(client, j);
    match j {
        0 | 1 => {
            tx.status = 302;
            tx.resp_headers.append("Location", format!("http://h{}.example/p{}", j + 1, j + 1));
        }
        2 => {
            tx.uri = "/p2.exe".into();
            tx.payload_class = PayloadClass::Exe;
        }
        _ => {}
    }
    tx
}

/// Heap acquisitions of one detector's life over `conversations`
/// conversations of `per_conversation` transactions each (one per
/// client), built by `shape` before counting starts.
struct Allocations {
    /// Observing every transaction.
    feed: u64,
    /// The first final verdict sweep after the feed.
    first_sweep: u64,
    /// A second sweep straight after the first.
    second_sweep: u64,
}

fn allocations(
    clf: &Classifier,
    conversations: u32,
    per_conversation: usize,
    shape: fn(u32, usize) -> HttpTransaction,
    watched: bool,
) -> Allocations {
    let stream: Vec<HttpTransaction> = (0..conversations)
        .flat_map(|client| (0..per_conversation).map(move |j| shape(client, j)))
        .collect();
    let mut detector = OnTheWireDetector::new(clf.clone(), DetectorConfig::default());
    let count = bench::alloc_count::allocations;
    let before = count();
    for tx in stream {
        detector.observe_owned(tx);
    }
    let fed = count();
    let first = std::hint::black_box(detector.final_verdicts(1));
    let swept = count();
    std::hint::black_box(detector.final_verdicts(1));
    let second_sweep = count() - swept;
    assert_eq!(first.len(), conversations as usize, "one conversation per client");
    assert!(first.iter().all(|v| v.transactions == per_conversation));
    for conv in detector.tracker().conversations() {
        assert_eq!(conv.watched, watched, "conversation {:#x}", conv.id);
        assert_eq!(conv.held_wcg().is_some(), watched, "conversation {:#x}", conv.id);
    }
    Allocations { feed: fed - before, first_sweep: swept - fed, second_sweep }
}

const SHAPES: [(u32, usize); 4] = [(64, 8), (64, 64), (256, 8), (256, 64)];

/// A conversation the clue made the detector look at holds its graph,
/// and the forest scores each feature vector in place, so what a sweep
/// takes from the heap is a constant: its output vectors and one
/// worker's scratch space growing to the largest graph (measured: 53 to
/// 58 in either sweep), and nothing per conversation. Rebuilding each
/// WCG from its transactions, as `Classifier::score_conversations_batch`
/// does, takes 103 acquisitions per conversation of 8 transactions and
/// 227 per conversation of 64.
fn sweeps_over_held_graphs_do_not_grow_with_conversations(clf: &Classifier) {
    const CONSTANT: u64 = 64;
    const PER_CONVERSATION: u64 = 0;
    for (conversations, per_conversation) in SHAPES {
        let counted = allocations(clf, conversations, per_conversation, infection, true);
        let bound = CONSTANT + PER_CONVERSATION * u64::from(conversations);
        for (which, n) in [("first", counted.first_sweep), ("second", counted.second_sweep)] {
            assert!(
                n <= bound,
                "{conversations} watched conversations of {per_conversation} transactions: \
                 {n} allocations in the {which} sweep, bound {bound}"
            );
        }
    }
}

/// A conversation no clue ever fired on holds no graph: the feed only
/// stores (measured: 2.77 allocations per transaction on conversations
/// of 8, 1.39 on conversations of 64; folding each transaction into a
/// graph on arrival took 9.15 and 3.21), and the first sweep builds
/// each graph into one reused builder, scores it and drops it. Feed and
/// sweep together must take no more than the fold on arrival and a
/// sweep of held graphs took (the totals below) plus the sweep's
/// constant; they measure 3 978, 11 862, 15 724 and 47 224, since the
/// reused builder keeps its vectors' capacity from one graph to the
/// next.
fn graphs_built_in_the_sweep_cost_no_more_than_graphs_folded_on_arrival(clf: &Classifier) {
    const FOLDED_ON_ARRIVAL: [u64; 4] = [4_733, 13_184, 18_783, 52_578];
    const CONSTANT: u64 = 64;
    const FEED_PER_TRANSACTION: f64 = 3.0;
    for ((conversations, per_conversation), folded) in SHAPES.into_iter().zip(FOLDED_ON_ARRIVAL) {
        let counted = allocations(clf, conversations, per_conversation, page, false);
        let what = format!("{conversations} conversations of {per_conversation} transactions");
        let transactions = f64::from(conversations) * per_conversation as f64;
        let per_transaction = counted.feed as f64 / transactions;
        assert!(
            per_transaction <= FEED_PER_TRANSACTION,
            "{what}: the feed took {per_transaction:.2} allocations per transaction, \
             bound {FEED_PER_TRANSACTION}"
        );
        let total = counted.feed + counted.first_sweep;
        assert!(
            total <= folded + CONSTANT,
            "{what}: feed and sweep took {total} allocations, bound {}",
            folded + CONSTANT
        );
    }
}

/// One test, so the two fences never share the counter with another
/// test thread.
#[test]
fn feed_and_sweep_allocations_stay_within_their_bounds() {
    let clf = classifier();
    sweeps_over_held_graphs_do_not_grow_with_conversations(&clf);
    graphs_built_in_the_sweep_cost_no_more_than_graphs_folded_on_arrival(&clf);
}
