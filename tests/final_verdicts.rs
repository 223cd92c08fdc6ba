//! The final verdict sweep scores the WCG a watched conversation holds
//! and builds every other conversation's by folding the per-transaction
//! records made on arrival (DESIGN.md §9). These tests pin what that rests on:
//! whatever happened to a conversation on the way — out-of-order
//! arrivals, the transaction cap, cap eviction of its neighbours,
//! a snapshot restore, a model reload — its verdict carries the bits of
//! `Classifier::score_transactions(&conversation.transactions)`, the
//! score of a WCG rebuilt from the stored transactions, at any thread
//! count.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::{DetectorConfig, OnTheWireDetector};
use dynaminer::forensic::ConversationVerdict;
use dynaminer::wcg::{PushOutcome, WcgBuilder};
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use streamd::{StreamConfig, StreamEngine};
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::{BenignScenario, EkFamily};

mod common;

fn train(seed: u64, base_ts: f64) -> Classifier {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
    for i in 0..30 {
        items.push((generate_infection(&mut rng, EkFamily::ALL[i % 10], base_ts).transactions, true));
        let scenario = BenignScenario::WEIGHTED[i % 8].0;
        items.push((generate_benign(&mut rng, scenario, base_ts + 3e7).transactions, false));
    }
    let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
    Classifier::fit_default(&data, seed)
}

fn classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| train(7, 1.4e9))
}

/// A second, genuinely different model for the reload test.
fn other_classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| train(19, 1.41e9))
}

/// One episode of every exploit-kit family and every benign scenario,
/// `rounds` times over, each from its own client, merged in time order.
fn all_kinds_stream(seed: u64, rounds: usize) -> Vec<HttpTransaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::new();
    for round in 0..rounds {
        let t0 = 1.4e9 + round as f64 * 911.0;
        for (i, family) in EkFamily::ALL.into_iter().enumerate() {
            stream.extend(generate_infection(&mut rng, family, t0 + i as f64 * 37.0).transactions);
        }
        for (i, (scenario, _)) in BenignScenario::WEIGHTED.into_iter().enumerate() {
            stream.extend(generate_benign(&mut rng, scenario, t0 + i as f64 * 41.0).transactions);
        }
    }
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    nettrace::assign_seq(&mut stream);
    stream
}

type VerdictBits = (u64, usize, u64, bool, usize);

fn bits(verdicts: &[ConversationVerdict]) -> Vec<VerdictBits> {
    verdicts
        .iter()
        .map(|v| (v.id, v.transactions, v.score.to_bits(), v.alerted, v.hosts))
        .collect()
}

/// What the sweep must say of `detector`'s conversations: every field
/// from the conversation, the score rebuilt from its stored transactions.
fn rebuilt(detector: &OnTheWireDetector, model: &Classifier) -> Vec<VerdictBits> {
    detector
        .tracker()
        .conversations()
        .map(|c| {
            let score = model.score_transactions(&c.transactions);
            (c.id, c.transactions.len(), score.to_bits(), c.alerted, c.hosts().count())
        })
        .collect()
}

/// Conversations that hold their graph (the sweep scores it) and that
/// hold none (the sweep builds one).
fn graph_states(detector: &OnTheWireDetector) -> (usize, usize) {
    let held = detector.tracker().conversations().filter(|c| c.held_wcg().is_some()).count();
    (held, detector.tracker().conversation_count() - held)
}

/// The sweep at 1, 2 and 8 threads against the rebuilt scores.
fn assert_sweep_is_rebuild(detector: &mut OnTheWireDetector, model: &Classifier, what: &str) {
    for threads in [1, 2, 8] {
        let swept = bits(&detector.final_verdicts(threads));
        assert!(!swept.is_empty(), "{what}: nothing to score");
        assert_eq!(swept, rebuilt(detector, model), "{what}, {threads} threads");
    }
}

fn detector(config: DetectorConfig, stream: &[HttpTransaction]) -> OnTheWireDetector {
    let mut detector = OnTheWireDetector::new(classifier().clone(), config);
    for tx in stream {
        detector.observe(tx);
    }
    detector
}

#[test]
fn every_family_and_scenario_scores_as_rebuilt() {
    let stream = all_kinds_stream(3, 2);
    let mut det = detector(DetectorConfig::default(), &stream);
    assert!(!det.alerts().is_empty(), "the stream holds infections");
    let (held, built) = graph_states(&det);
    assert!(held > 0 && built > 0, "both graph paths run: {held} held, {built} built");
    assert_sweep_is_rebuild(&mut det, classifier(), "all kinds");
    // A sweep leaves the detector as it found it.
    assert_eq!(graph_states(&det), (held, built));
}

/// A graph exists only where the detector has looked: every watched
/// conversation holds one, no other conversation does, and a sweep
/// builds none that stays.
#[test]
fn only_watched_conversations_hold_a_graph() {
    let mut det = detector(DetectorConfig::default(), &all_kinds_stream(3, 2));
    let held = |det: &OnTheWireDetector| {
        det.tracker().conversations().map(|c| (c.watched, c.held_wcg().is_some())).collect()
    };
    let before: Vec<(bool, bool)> = held(&det);
    assert!(before.iter().any(|&(watched, _)| watched), "a clue fired");
    assert!(before.iter().any(|&(watched, _)| !watched), "some conversation was never watched");
    for (watched, graph) in &before {
        assert_eq!(watched, graph, "a graph is held exactly when watched");
    }
    det.final_verdicts(2);
    assert_eq!(held(&det), before);
}

#[test]
fn out_of_order_arrivals_score_as_rebuilt() {
    let mut stream = all_kinds_stream(5, 1);
    stream.shuffle(&mut StdRng::seed_from_u64(50));
    let mut det = detector(DetectorConfig::default(), &stream);
    // The shuffle did force the incremental builders to start over.
    let rebuilds = det
        .tracker()
        .conversations()
        .filter(|c| {
            let mut builder = WcgBuilder::new();
            c.transactions.iter().any(|tx| builder.push(tx) == PushOutcome::NeedsRebuild)
        })
        .count();
    assert!(rebuilds > 0, "no conversation needed a rebuild");
    assert_sweep_is_rebuild(&mut det, classifier(), "shuffled");
}

#[test]
fn capped_conversations_score_what_they_stored() {
    let config = DetectorConfig { max_transactions_per_conversation: 4, ..DetectorConfig::default() };
    let mut det = detector(config, &all_kinds_stream(8, 1));
    assert!(det.tracker().dropped_transaction_count() > 0, "the cap never bound");
    assert_sweep_is_rebuild(&mut det, classifier(), "capped");
}

#[test]
fn cap_eviction_survivors_score_as_rebuilt() {
    let config = DetectorConfig { max_conversations_per_client: 2, ..DetectorConfig::default() };
    let mut det = detector(config, &all_kinds_stream(13, 2));
    assert!(det.tracker().cap_evicted_count() > 0, "the conversation cap never evicted");
    assert_sweep_is_rebuild(&mut det, classifier(), "cap eviction");
}

#[test]
fn restored_engines_score_as_rebuilt_at_any_shard_count() {
    let stream = all_kinds_stream(21, 2);
    let (head, tail) = stream.split_at(stream.len() / 2);
    let shards = |shards| StreamConfig { shards, ..StreamConfig::default() };
    let mut writer = StreamEngine::new(classifier().clone(), DetectorConfig::default(), shards(2));
    writer.process(head.iter().cloned());
    let bytes = writer.snapshot().to_bytes().expect("snapshot serializes");
    let mut reports = Vec::new();
    for n in [1, 4] {
        let mut engine = StreamEngine::restore(
            classifier().clone(),
            DetectorConfig::default(),
            shards(n),
            &telemetry::Registry::new(),
            streamd::EngineSnapshot::from_bytes(&bytes).expect("snapshot parses"),
        );
        let rebuilt_by_id = |engine: &StreamEngine| {
            let mut all: Vec<VerdictBits> =
                engine.detectors().iter().flat_map(|d| rebuilt(d, classifier())).collect();
            all.sort();
            all
        };
        // Straight after the restore no conversation holds a graph...
        let restored = bits(&engine.final_verdicts(2));
        assert_eq!(restored, rebuilt_by_id(&engine), "restored into {n} shard(s)");
        // ...and after the rest of the stream some are current again.
        engine.process(tail.iter().cloned());
        let swept = bits(&engine.final_verdicts(2));
        assert_eq!(swept, rebuilt_by_id(&engine), "restored into {n} shard(s), stream finished");
        reports.push(swept);
    }
    assert_eq!(reports[0], reports[1], "1 and 4 shards agree");
}

/// A graph held under one model may serve the next — it does not depend
/// on the model — but a score may not.
#[test]
fn a_reload_rescores_everything_under_the_new_model() {
    let stream = all_kinds_stream(34, 2);
    let mut det = OnTheWireDetector::new(classifier().clone(), DetectorConfig::default());
    let (head, tail) = stream.split_at(stream.len() * 3 / 4);
    for tx in head {
        det.observe(tx);
    }
    let before = bits(&det.final_verdicts(1));
    assert!(graph_states(&det).0 > 0, "no graph was held under the first model");
    det.model_slot().swap(other_classifier().clone());
    assert!(graph_states(&det).0 > 0, "the reload keeps the held graphs");
    let reloaded = bits(&det.final_verdicts(1));
    assert_eq!(reloaded, rebuilt(&det, other_classifier()));
    assert_ne!(reloaded, before, "the two models agree everywhere");
    for tx in tail {
        det.observe(tx);
    }
    assert_sweep_is_rebuild(&mut det, other_classifier(), "reloaded mid-stream");
}

proptest! {
    /// Arbitrary streams of one client: random timestamps make rebuilds
    /// common, "origin.example" invalidates inferred origins, and a cap
    /// of 12 binds on the longer streams.
    #[test]
    fn arbitrary_streams_score_as_rebuilt(txs in vec(common::arb_transaction(), 1..40)) {
        let config =
            DetectorConfig { max_transactions_per_conversation: 12, ..DetectorConfig::default() };
        let mut det = detector(config, &txs);
        for threads in [1, 3] {
            let swept = bits(&det.final_verdicts(threads));
            prop_assert_eq!(swept, rebuilt(&det, classifier()), "{} threads", threads);
        }
    }
}
