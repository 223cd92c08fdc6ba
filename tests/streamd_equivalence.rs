//! Sharded stream engine vs. the single-threaded detector.
//!
//! The engine's determinism contract (DESIGN.md §12): with the
//! state-exhaustion caps not binding, a `StreamEngine` fed a
//! `(ts, seq)`-sorted stream emits the exact same alert sequence as one
//! `OnTheWireDetector` fed the same stream — at any shard count and any
//! worker-thread timing. These tests pin that
//! contract, the graceful-drain zero-loss invariant, and the sharded
//! forensic report's field-for-field equality. The engine is fed with
//! `process` and closed with `streamd::finish_report`; the reference is
//! the single detector, alone or behind `forensic::analyze_transactions`,
//! which shares no engine code. One detector fed the same clients in
//! any interleaving that keeps each client's order reports the same:
//! detector state is per client, which is what lets a capture replay
//! split its clients into groups.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::{Alert, DetectorConfig, OnTheWireDetector};
use dynaminer::forensic::{analyze_transactions, ForensicReport};
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamd::{finish_report, order_and_downloads, BackpressurePolicy, StreamConfig, StreamEngine};
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::{BenignScenario, EkFamily};

fn classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
        for i in 0..30 {
            items.push((
                generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9).transactions,
                true,
            ));
            items.push((
                generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9).transactions,
                false,
            ));
        }
        let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
        Classifier::fit_default(&data, 11)
    })
}

fn episode(rng: &mut StdRng, (infected, idx): (bool, usize), t0: f64) -> Vec<HttpTransaction> {
    if infected {
        generate_infection(rng, EkFamily::ALL[idx % 10], t0).transactions
    } else {
        generate_benign(rng, BenignScenario::WEIGHTED[idx % 8].0, t0).transactions
    }
}

/// Builds an interleaved multi-client stream: episodes start offset by
/// 37 s so their transactions overlap in time, then the merge is
/// `(ts)`-sorted and numbered — exactly what a capture replay feeds.
/// A `returning` infection `(family, gap)` is replayed by the client of
/// the earliest transaction, starting `idle_timeout + gap` seconds after
/// that client's last transaction, so every conversation it had is
/// closed to it.
fn build_stream(
    seed: u64,
    episodes: &[(bool, usize)],
    returning: Option<(usize, f64)>,
) -> Vec<HttpTransaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream: Vec<HttpTransaction> = Vec::new();
    for (i, &kind) in episodes.iter().enumerate() {
        stream.extend(episode(&mut rng, kind, 1.4e9 + i as f64 * 37.0));
    }
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    if let Some((family, gap)) = returning {
        let client = stream[0].client.addr;
        let last = stream.iter().filter(|t| t.client.addr == client).map(|t| t.ts);
        let t0 = last.fold(f64::MIN, f64::max) + DetectorConfig::default().idle_timeout + gap;
        for mut tx in episode(&mut rng, (true, family), t0) {
            tx.client.addr = client;
            stream.push(tx);
        }
        stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    }
    nettrace::assign_seq(&mut stream);
    stream
}

fn single_threaded_alerts(stream: &[HttpTransaction]) -> Vec<Alert> {
    let mut det = OnTheWireDetector::new(classifier().clone(), DetectorConfig::default());
    for tx in stream {
        det.observe(tx);
    }
    det.alerts().to_vec()
}

macro_rules! prop_assert_alerts_eq {
    ($got:expr, $want:expr, $shards:expr) => {
        prop_assert_eq!($got.len(), $want.len(), "alert count at {} shards", $shards);
        for (a, b) in $got.iter().zip($want.iter()) {
            prop_assert_eq!(a.client, b.client, "client at {} shards", $shards);
            prop_assert_eq!(
                a.conversation_id, b.conversation_id,
                "conversation id at {} shards", $shards
            );
            prop_assert_eq!(a.ts.to_bits(), b.ts.to_bits(), "ts at {} shards", $shards);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "score at {} shards", $shards);
            prop_assert_eq!(&a.trigger_host, &b.trigger_host, "host at {} shards", $shards);
            prop_assert_eq!(
                a.trigger_payload, b.trigger_payload,
                "payload at {} shards", $shards
            );
            prop_assert_eq!(
                a.conversation_size, b.conversation_size,
                "size at {} shards", $shards
            );
        }
    };
}

proptest! {
    /// The acceptance property: arbitrary interleaved benign+infection
    /// streams replayed into 1 to 8 shards with tiny queues and batches
    /// (so the feeder and workers genuinely interleave and block) — the
    /// merged alert stream equals the single detector's, field for
    /// field, and the report serializes exactly as
    /// `analyze_transactions`'s does. One client returns after its
    /// conversations closed: its new conversations continue its id
    /// counter, and no verdict id repeats.
    #[test]
    fn sharded_engine_matches_single_threaded_detector(
        seed in any::<u64>(),
        episodes in vec((any::<bool>(), 0usize..16), 1..6),
        returning in (0usize..10, 1.0f64..900.0),
        shards in 1usize..=8,
    ) {
        let stream = build_stream(seed, &episodes, Some(returning));
        let mut engine = StreamEngine::new(
            classifier().clone(),
            DetectorConfig::default(),
            StreamConfig {
                shards,
                queue_capacity: 16,
                batch_size: 3,
                backpressure: BackpressurePolicy::Block,
            },
        );
        let run = engine.process(stream.iter().cloned());
        prop_assert_eq!(run.dropped, 0, "blocking policy never drops");
        prop_assert_eq!(run.enqueued, run.processed, "drain loses nothing");
        prop_assert_alerts_eq!(run.alerts, single_threaded_alerts(&stream), shards);
        let report = finish_report(&mut engine, order_and_downloads(&stream).1, 1, None);
        let single =
            analyze_transactions(&stream, classifier().clone(), DetectorConfig::default());
        prop_assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&single).unwrap(),
            "report at {} shards", shards
        );
        let ids: Vec<u64> = report.conversations.iter().map(|c| c.id).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "verdict ids repeat: {:?}", ids);
        // The returning client's per-client id counters (the low halves
        // of its ids), without the return and with it: one counter that
        // runs on, 0, 1, 2, …, past where the first run stopped.
        let client = u64::from(u32::from(stream[0].client.addr));
        let counters = |report: &ForensicReport| -> Vec<u64> {
            let mine = report.conversations.iter().filter(|c| c.id >> 32 == client);
            mine.map(|c| c.id & u64::from(u32::MAX)).collect()
        };
        let before = counters(&analyze_transactions(
            &build_stream(seed, &episodes, None),
            classifier().clone(),
            DetectorConfig::default(),
        ));
        let after = counters(&report);
        prop_assert!(after.len() > before.len(), "the return opened no conversation");
        prop_assert_eq!(after, (0..after.len() as u64).collect::<Vec<_>>());
    }
}

/// One detector fed `stream` in the given order, reported as
/// `analyze_transactions` reports: the downloads ledger in `(ts, seq)`
/// order.
fn report_in_order(stream: &[HttpTransaction], order: Vec<HttpTransaction>) -> String {
    let mut det = OnTheWireDetector::new(classifier().clone(), DetectorConfig::default());
    for tx in order {
        det.observe_owned(tx);
    }
    let report = ForensicReport {
        transactions: det.transactions_seen(),
        conversations: det.final_verdicts(1),
        downloads: order_and_downloads(stream).1,
        alerts: det.alerts().len(),
        ingest: None,
        stats: None,
    };
    serde_json::to_string(&report).unwrap()
}

proptest! {
    /// Orderings, where sharded ≡ single covers partitions: one detector
    /// fed the clients of `build_stream` in a random interleaving that
    /// keeps each client's `(ts, seq)` order, and in the order that
    /// feeds all of one client before the next, reports exactly what
    /// `analyze_transactions` reports. A difference is state one client
    /// leaves for another.
    #[test]
    fn any_per_client_order_reports_as_the_feed_order(
        seed in any::<u64>(),
        episodes in vec((any::<bool>(), 0usize..16), 1..6),
        returning in (0usize..10, 1.0f64..900.0),
        shuffle in any::<u64>(),
    ) {
        let stream = build_stream(seed, &episodes, Some(returning));
        let want = serde_json::to_string(
            &analyze_transactions(&stream, classifier().clone(), DetectorConfig::default()),
        )
        .unwrap();
        let mut clients: Vec<Vec<HttpTransaction>> = Vec::new();
        for tx in &stream {
            match clients.iter_mut().find(|c| c[0].client.addr == tx.client.addr) {
                Some(client) => client.push(tx.clone()),
                None => clients.push(vec![tx.clone()]),
            }
        }
        let client_major: Vec<HttpTransaction> = clients.concat();
        prop_assert_eq!(report_in_order(&stream, client_major), want.clone(), "client-major");
        // Each step takes the next transaction of a client drawn in
        // proportion to what it has left: every interleaving can occur.
        let mut rng = StdRng::seed_from_u64(shuffle);
        let mut rest: Vec<std::vec::IntoIter<HttpTransaction>> =
            clients.into_iter().map(Vec::into_iter).collect();
        let mut interleaved = Vec::with_capacity(stream.len());
        for left in (1..=stream.len()).rev() {
            let mut pick = rng.gen_range(0..left);
            let client = rest.iter_mut().find(|c| {
                let here = pick < c.len();
                pick = pick.saturating_sub(c.len());
                here
            });
            interleaved.push(client.and_then(Iterator::next).expect("a transaction is left"));
        }
        prop_assert_eq!(report_in_order(&stream, interleaved), want, "interleaving {:#x}", shuffle);
    }
}

#[test]
fn drain_flushes_every_queue_with_zero_loss() {
    let stream = build_stream(3, &[(true, 0), (false, 1), (true, 2), (false, 5)], None);
    let registry = telemetry::Registry::new();
    let shards = 4usize;
    let mut engine = StreamEngine::with_telemetry(
        classifier().clone(),
        DetectorConfig::default(),
        StreamConfig {
            shards,
            // Queues far smaller than the stream: input ends while they
            // are still full, so the drain path does real flushing.
            queue_capacity: 4,
            batch_size: 2,
            backpressure: BackpressurePolicy::Block,
        },
        &registry,
    );
    let report = engine.process(stream.iter().cloned());
    assert_eq!(report.enqueued, stream.len() as u64, "every transaction was offered");
    assert_eq!(report.dropped, 0, "blocking policy drops nothing");
    assert_eq!(report.processed, report.enqueued, "enqueued == processed + dropped");

    let snap = registry.snapshot();
    assert_eq!(snap.counter("streamd_enqueued_total"), report.enqueued);
    assert_eq!(snap.counter("streamd_processed_total"), report.processed);
    assert_eq!(snap.counter("streamd_dropped_total"), 0);
    let per_shard: u64 =
        (0..shards).map(|i| snap.counter(&format!("streamd_shard{i}_processed_total"))).sum();
    assert_eq!(per_shard, report.processed, "per-shard counters sum to the total");
    for i in 0..shards {
        assert_eq!(
            snap.gauges[&format!("streamd_shard{i}_queue_depth")],
            0,
            "shard {i} queue drained"
        );
    }
    // The detectors saw everything the feeder offered (minus trusted
    // weed-out, which is why processed >= transactions_seen).
    let seen: usize = engine.detectors().iter().map(|d| d.transactions_seen()).sum();
    assert!(seen as u64 <= report.processed);
    assert_eq!(
        snap.counter("streamd_backpressure_waits_total"),
        report.backpressure_waits
    );
}

#[test]
fn drop_newest_accounting_balances() {
    let stream = build_stream(5, &[(true, 1), (true, 4), (false, 2), (false, 6)], None);
    let mut engine = StreamEngine::new(
        classifier().clone(),
        DetectorConfig::default(),
        StreamConfig {
            shards: 2,
            queue_capacity: 2,
            batch_size: 1,
            backpressure: BackpressurePolicy::DropNewest,
        },
    );
    let report = engine.process(stream.iter().cloned());
    assert_eq!(report.enqueued, stream.len() as u64);
    assert_eq!(
        report.enqueued,
        report.processed + report.dropped,
        "every offered transaction is either processed or counted dropped"
    );
    assert_eq!(report.backpressure_waits, 0, "drop policy never blocks");
}

/// Mid-stream shutdown: ending a `process` call early (stream split in
/// half) drains gracefully and keeps detector state, so a second call
/// continues the same sessions — the concatenated alert stream equals
/// one uninterrupted run.
#[test]
fn mid_stream_drain_keeps_sessions_across_process_calls() {
    let stream = build_stream(8, &[(true, 3), (false, 0), (true, 7)], None);
    let reference = single_threaded_alerts(&stream);
    let mid = stream.len() / 2;
    let mut engine = StreamEngine::new(
        classifier().clone(),
        DetectorConfig::default(),
        StreamConfig { shards: 2, ..StreamConfig::default() },
    );
    let first = engine.process(stream[..mid].iter().cloned());
    let second = engine.process(stream[mid..].iter().cloned());
    assert_eq!(first.dropped + second.dropped, 0);
    assert_eq!(
        first.enqueued + second.enqueued,
        first.processed + second.processed
    );
    let got: Vec<&Alert> = first.alerts.iter().chain(&second.alerts).collect();
    assert_eq!(got.len(), reference.len());
    for (a, b) in got.iter().zip(&reference) {
        assert_eq!(a.conversation_id, b.conversation_id);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.ts.to_bits(), b.ts.to_bits());
    }
}

/// Sharded bit-identity: the report an engine closes with equals the
/// single-threaded one, serialized form included, and its `stats` agree
/// with what it reports.
#[test]
fn sharded_forensic_report_is_bit_identical() {
    let stream =
        build_stream(9, &[(true, 0), (false, 3), (true, 5), (false, 1), (true, 9), (false, 7)], None);
    let single = analyze_transactions(&stream, classifier().clone(), DetectorConfig::default());
    let single_json = serde_json::to_string(&single).unwrap();
    for shards in [1usize, 2, 8] {
        let registry = telemetry::Registry::new();
        let mut engine = StreamEngine::with_telemetry(
            classifier().clone(),
            DetectorConfig::default(),
            StreamConfig { shards, ..StreamConfig::default() },
            &registry,
        );
        engine.process(stream.iter().cloned());
        let downloads = order_and_downloads(&stream).1;
        let mut replayed = finish_report(&mut engine, downloads, 1, Some(&registry));
        // The stats ride on the serialized report and come back intact.
        let back: dynaminer::forensic::ForensicReport =
            serde_json::from_str(&serde_json::to_string(&replayed).unwrap()).unwrap();
        assert_eq!(back.stats, replayed.stats);
        let stats = replayed.stats.take().expect("a run with a registry attaches stats");
        assert_eq!(
            serde_json::to_string(&replayed).unwrap(),
            single_json,
            "engine report at {shards} shards"
        );
        assert_eq!(stats.counter("detector_transactions_total") as usize, single.transactions);
        assert_eq!(stats.counter("detector_alerts_total") as usize, single.alerts);
        assert_eq!(stats.counter("streamd_processed_total"), stream.len() as u64);
        // Each WCG rebuild timed one feature extraction and one scoring
        // call; the final verdict pass adds one scoring observation per
        // shard detector.
        let rebuilds = stats.counter("detector_wcg_rebuilds_total");
        assert!(rebuilds > 0, "infection episodes classify at least once");
        assert_eq!(stats.histogram_count("classifier_feature_extraction_ns"), rebuilds);
        assert_eq!(stats.histogram_count("classifier_scoring_ns"), rebuilds + shards as u64);
    }
}

/// The shard hash is a pure function of the client address: every
/// transaction of a client lands on the same shard, across engines.
#[test]
fn shard_assignment_is_stable() {
    use std::net::Ipv4Addr;
    for shards in [1usize, 2, 7, 8] {
        for raw in [0u32, 1, 0x0a00_0001, 0xc0a8_0101, u32::MAX] {
            let addr = Ipv4Addr::from(raw);
            let s = streamd::shard_of(addr, shards);
            assert!(s < shards);
            assert_eq!(s, streamd::shard_of(addr, shards), "pure function");
        }
    }
}
