//! Allocation-count regression fence for scoring one feature vector.
//! Kept as the only test in this binary so no concurrent test thread can
//! perturb the process-wide allocation counter.

use dynaminer::classifier::{build_dataset, Classifier, FeatureSelection};
use dynaminer::features::{self, FeatureVector};
use dynaminer::wcg::Wcg;
use mlearn::forest::ForestConfig;
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::{BenignScenario, EkFamily};

#[global_allocator]
static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;

/// `Classifier::score_features` is what the detector calls on every
/// classification, so it must not touch the heap: the forest kernel reads
/// each tree's leaf in place, an `All` model scores the 37 values where
/// they lie, and a narrower selection projects them onto the stack. The
/// counter pins that at exactly 0 per call, for an `All` and a
/// `GraphOnly` model.
#[test]
fn score_features_is_allocation_free() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
    for i in 0..10 {
        items.push((generate_infection(&mut rng, EkFamily::ALL[i], 1.4e9).transactions, true));
        let scenario = BenignScenario::WEIGHTED[i % 8].0;
        items.push((generate_benign(&mut rng, scenario, 1.43e9).transactions, false));
    }
    let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
    let vectors: Vec<FeatureVector> =
        items.iter().map(|(t, _)| features::extract(&Wcg::from_transactions(t))).collect();
    let graph_only =
        Classifier::fit(&data, FeatureSelection::GraphOnly, &ForestConfig::default(), 11, 1, None);
    for (what, clf) in [("All", Classifier::fit_default(&data, 11)), ("GraphOnly", graph_only)] {
        let warm: f64 = vectors.iter().map(|fv| clf.score_features(fv)).sum();
        std::hint::black_box(warm);
        let before = bench::alloc_count::allocations();
        let mut acc = 0.0;
        for _ in 0..3 {
            for fv in &vectors {
                acc += clf.score_features(std::hint::black_box(fv));
            }
        }
        std::hint::black_box(acc);
        let delta = bench::alloc_count::allocations() - before;
        assert_eq!(
            delta,
            0,
            "{what}: {delta} heap allocations over {} scores; scoring must not allocate",
            3 * vectors.len()
        );
    }
}
