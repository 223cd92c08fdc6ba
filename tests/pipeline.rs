//! Cross-crate integration: synthetic episode → pcap bytes → packet
//! parsing → TCP reassembly → HTTP transactions → WCG → features →
//! classifier — the full path a deployment would take.

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::features;
use dynaminer::wcg::Wcg;
use nettrace::SpanPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::pcapgen::episodes_pcap;
use synthtraffic::{BenignScenario, EkFamily};

fn reparse(ep: &synthtraffic::Episode) -> Vec<nettrace::HttpTransaction> {
    SpanPipeline::extract_capture_strict(&episodes_pcap(std::slice::from_ref(ep))).unwrap()
}

#[test]
fn features_survive_the_pcap_roundtrip() {
    // Features extracted from the direct transaction stream and from the
    // pcap-reparsed stream must agree on everything that does not depend
    // on declared-but-unmaterialized payload bytes.
    let mut rng = StdRng::seed_from_u64(99);
    for family in [EkFamily::Angler, EkFamily::Rig, EkFamily::Goon] {
        let ep = generate_infection(&mut rng, family, 1.4e9);
        let direct = features::extract(&Wcg::from_transactions(&ep.transactions));
        let reparsed = features::extract(&Wcg::from_transactions(&reparse(&ep)));
        for name in [
            "order",
            "size",
            "conversation-length",
            "gets",
            "posts",
            "http-30xs",
            "referrer-ctrs",
            "no-referrer-ctrs",
            "diameter",
            "avg-betweenness-centrality",
            "avg-pagerank",
            "reciprocity",
        ] {
            let (a, b) = (direct.get(name), reparsed.get(name));
            assert!(
                (a - b).abs() < 1e-9,
                "{family}: feature {name} differs: direct {a} vs reparsed {b}"
            );
        }
        // Temporal features agree to pcap timestamp precision.
        for name in ["duration", "avg-inter-transact-time"] {
            let (a, b) = (direct.get(name), reparsed.get(name));
            assert!((a - b).abs() < 0.05, "{family}: {name}: {a} vs {b}");
        }
    }
}

#[test]
fn classifier_trained_on_direct_transactions_detects_reparsed_pcaps() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut corpus: Vec<(Vec<nettrace::HttpTransaction>, bool)> = Vec::new();
    for i in 0..40 {
        corpus.push((
            generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9).transactions,
            true,
        ));
        corpus.push((
            generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9).transactions,
            false,
        ));
    }
    let data = build_dataset(corpus.iter().map(|(t, l)| (t.as_slice(), *l)));
    let clf = Classifier::fit_default(&data, 11);

    let mut eval_rng = StdRng::seed_from_u64(1234);
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..10 {
        let inf = generate_infection(&mut eval_rng, EkFamily::ALL[i % 10], 1.45e9);
        let ben =
            generate_benign(&mut eval_rng, BenignScenario::WEIGHTED[i % 8].0, 1.45e9);
        for (ep, label) in [(inf, true), (ben, false)] {
            let txs = reparse(&ep);
            let wcg = Wcg::from_transactions(&txs);
            correct += usize::from(clf.predict_wcg(&wcg) == label);
            total += 1;
        }
    }
    assert!(correct as f64 / total as f64 >= 0.85, "{correct}/{total}");
}

#[test]
fn obfuscated_redirects_are_recovered_after_reparse() {
    // Find an episode whose redirect chain includes an obfuscated hop and
    // confirm the chain survives serialization + reparsing.
    let mut rng = StdRng::seed_from_u64(55);
    let mut checked = 0;
    for _ in 0..40 {
        let ep = generate_infection(&mut rng, EkFamily::Goon, 1.4e9);
        let has_obfuscated = ep
            .transactions
            .iter()
            .any(|t| String::from_utf8_lossy(&t.body_preview).contains("atob("));
        if !has_obfuscated {
            continue;
        }
        let direct = Wcg::from_transactions(&ep.transactions);
        let reparsed = Wcg::from_transactions(&reparse(&ep));
        assert_eq!(direct.redirects.total, reparsed.redirects.total);
        assert_eq!(direct.redirects.max_chain, reparsed.redirects.max_chain);
        assert!(direct.redirects.total > 0);
        checked += 1;
        if checked >= 3 {
            return;
        }
    }
    assert!(checked > 0, "no obfuscated episode found in 40 draws");
}

#[test]
fn corpus_scale_statistics_hold_end_to_end() {
    // A scaled-down ground-truth corpus keeps the paper's directional
    // contrasts after the full pcap pipeline.
    let corpus = synthtraffic::ground_truth(21, 0.03);
    let mut infection_hosts = Vec::new();
    let mut benign_hosts = Vec::new();
    for ep in corpus.iter().take(60) {
        let wcg = Wcg::from_transactions(&reparse(ep));
        if ep.is_infection() {
            infection_hosts.push(wcg.remote_host_count());
        } else {
            benign_hosts.push(wcg.remote_host_count());
        }
    }
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
    assert!(
        mean(&infection_hosts) > mean(&benign_hosts),
        "infection {} vs benign {}",
        mean(&infection_hosts),
        mean(&benign_hosts)
    );
}
