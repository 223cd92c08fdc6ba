//! Ensemble random forest combining CART trees by probability averaging.
//!
//! [`RandomForest::fit`] is the one way to train. Every tree derives its
//! own RNG from `(seed, tree_index)` via [`pool::derive_seed`], so
//! bootstrap resamples and split choices are a pure function of the seed
//! and the model is bit-identical at any worker-thread count.
//! [`RandomForest::score`] is the one scoring kernel: it reads each
//! tree's leaf in place and allocates nothing. `predict_proba` gives
//! every class's `score` in one walk over the trees, and `predict` is
//! its argmax; batch callers (`Classifier::score_features_batch`) loop
//! over `score`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use telemetry::pool::{self, derive_seed};

use crate::dataset::Dataset;
use crate::tree::{argmax, DecisionTree, TreeConfig};

/// How many candidate features each split examines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// `log2(n_features) + 1` — the paper's best setting (`N_f`).
    Log2PlusOne,
    /// `sqrt(n_features)` rounded down (at least 1).
    Sqrt,
    /// All features at every split.
    All,
    /// A fixed count (clamped to the feature count).
    Fixed(usize),
}

impl MaxFeatures {
    /// Resolves to a concrete count for `n_features` columns.
    pub(crate) fn resolve(self, n_features: usize) -> usize {
        let k = match self {
            MaxFeatures::Log2PlusOne => (n_features as f64).log2().floor() as usize + 1,
            MaxFeatures::Sqrt => (n_features as f64).sqrt().floor() as usize,
            MaxFeatures::All => n_features,
            MaxFeatures::Fixed(k) => k,
        };
        k.clamp(1, n_features)
    }
}

/// How the ensemble combines its trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Combination {
    /// Average per-tree class probabilities (the paper's choice: reduces
    /// variance relative to voting).
    ProbabilityAveraging,
    /// Classic majority vote over per-tree argmax predictions.
    MajorityVote,
}

/// Forest hyper-parameters. The defaults are the paper's best setting:
/// 20 trees, `log2(F)+1` features per split, probability averaging.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees (`N_t` in the paper; best value 20).
    pub n_trees: usize,
    /// Per-split feature-subset size (`N_f`).
    pub max_features: MaxFeatures,
    /// Whether each tree trains on a bootstrap resample.
    pub bootstrap: bool,
    /// Tree-growing limits.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Combination rule.
    pub combination: Combination,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 20,
            max_features: MaxFeatures::Log2PlusOne,
            bootstrap: true,
            max_depth: 32,
            min_samples_split: 2,
            combination: Combination::ProbabilityAveraging,
        }
    }
}

/// A trained ensemble random forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    combination: Combination,
}

impl RandomForest {
    /// Trains a forest on `data` with deterministic randomness from
    /// `seed`, growing trees on up to `threads` workers (`0` = all
    /// cores, see [`pool::resolve_threads`]). Each tree seeds its own
    /// RNG from `(seed, tree_index)`, so the model is **bit-identical for
    /// any `threads`**.
    ///
    /// With `tree_fit_ns`, each tree's wall-clock fit time is recorded
    /// into it. The durations are observed in *tree order* after the
    /// pool joins, so the bucket counts are as deterministic as the
    /// timings themselves; timing never changes the model.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `config.n_trees` is zero.
    pub fn fit(
        data: &Dataset,
        config: &ForestConfig,
        seed: u64,
        threads: usize,
        tree_fit_ns: Option<&telemetry::Histogram>,
    ) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(config.n_trees > 0, "need at least one tree");
        let tree_config = TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            max_features: Some(config.max_features.resolve(data.n_features())),
        };
        // Below this tree count, thread spawn/join overhead eats the win;
        // run inline. The model is bit-identical either way (per-tree
        // seeds depend only on the index).
        const PARALLEL_MIN_TREES: usize = 8;
        let threads =
            if config.n_trees < PARALLEL_MIN_TREES { 1 } else { pool::resolve_threads(threads) };
        let timed = pool::run_indexed(config.n_trees, threads, |t| {
            let started = std::time::Instant::now();
            let tree = grow_tree(data, config, &tree_config, seed, t);
            let elapsed = started.elapsed().as_nanos();
            (tree, u64::try_from(elapsed).unwrap_or(u64::MAX))
        });
        let mut trees = Vec::with_capacity(timed.len());
        for (tree, ns) in timed {
            if let Some(hist) = tree_fit_ns {
                hist.observe(ns);
            }
            trees.push(tree);
        }
        RandomForest { trees, n_classes: data.n_classes(), combination: config.combination }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The ensemble's probability for `class` — the score used for ROC
    /// curves and alert thresholds: the mean of the trees' leaf
    /// probabilities (averaging) or the share of trees whose argmax is
    /// `class` (voting). Trees are summed in order, so this is bit for bit
    /// `predict_proba(row)[class]`. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range or the row width differs from
    /// the training width.
    pub fn score(&self, row: &[f64], class: usize) -> f64 {
        assert!(class < self.n_classes, "class out of range");
        let sum = match self.combination {
            Combination::ProbabilityAveraging => {
                self.trees.iter().fold(0.0, |acc, tree| acc + tree.leaf_probs(row)[class])
            }
            Combination::MajorityVote => {
                self.trees.iter().filter(|tree| argmax(tree.leaf_probs(row)) == class).count()
                    as f64
            }
        };
        sum / self.trees.len() as f64
    }

    /// [`RandomForest::score`] for every class, in one walk over the
    /// trees. Each class slot sums in tree order, so every value is bit
    /// for bit its `score`.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut sums = vec![0.0; self.n_classes];
        for tree in &self.trees {
            let probs = tree.leaf_probs(row);
            match self.combination {
                Combination::ProbabilityAveraging => {
                    for (sum, p) in sums.iter_mut().zip(probs) {
                        *sum += p;
                    }
                }
                Combination::MajorityVote => sums[argmax(probs)] += 1.0,
            }
        }
        let n = self.trees.len() as f64;
        sums.iter_mut().for_each(|sum| *sum /= n);
        sums
    }

    /// Predicted class: argmax of [`RandomForest::predict_proba`].
    pub fn predict(&self, row: &[f64]) -> usize {
        argmax(&self.predict_proba(row))
    }

    /// Mean-decrease-in-impurity feature importances, averaged over trees
    /// and normalized to sum to 1 (all zeros when no split ever occurred).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut acc: Vec<f64> = Vec::new();
        for tree in &self.trees {
            let imp = tree.feature_importances();
            if acc.is_empty() {
                acc = imp;
            } else {
                for (a, v) in acc.iter_mut().zip(imp) {
                    *a += v;
                }
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }

    /// Checks a forest read from outside — a model file — before it
    /// scores anything: at least one tree, `n_classes` classes, every
    /// tree reading `n_features`-wide rows, every split on one of those
    /// features, and every leaf holding `n_classes` probabilities in
    /// [0, 1]. A forest that passes cannot panic or return NaN in
    /// [`RandomForest::score`] on a row of that width.
    ///
    /// # Errors
    ///
    /// Names the first violation found.
    pub fn check(&self, n_features: usize, n_classes: usize) -> Result<(), String> {
        if self.trees.is_empty() {
            return Err("forest has no trees".into());
        }
        if self.n_classes != n_classes {
            return Err(format!("forest has {} classes, expected {n_classes}", self.n_classes));
        }
        for (i, tree) in self.trees.iter().enumerate() {
            tree.check(n_features, n_classes).map_err(|e| format!("tree {i}: {e}"))?;
        }
        Ok(())
    }
}

/// Grows tree `index` of a forest: seeds a fresh RNG from
/// `(seed, index)`, draws the bootstrap resample, and fits the tree.
fn grow_tree(
    data: &Dataset,
    config: &ForestConfig,
    tree_config: &TreeConfig,
    seed: u64,
    index: usize,
) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, index as u64));
    let n = data.len();
    let indices: Vec<usize> = if config.bootstrap {
        (0..n).map(|_| rng.gen_range(0..n)).collect()
    } else {
        (0..n).collect()
    };
    DecisionTree::fit(data, &indices, tree_config, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_data(seed: u64) -> Dataset {
        // Two Gaussian-ish blobs with overlap, plus a useless feature.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into(), "junk".into()], 2);
        for _ in 0..100 {
            let cls = rng.gen_range(0..2usize);
            let center = if cls == 0 { 0.0 } else { 3.0 };
            let x: f64 = center + rng.gen_range(-1.5..1.5);
            let y: f64 = center + rng.gen_range(-1.5..1.5);
            d.push(vec![x, y, rng.gen_range(0.0..1.0)], cls);
        }
        d
    }

    fn three_blobs() -> Dataset {
        let mut rng = StdRng::seed_from_u64(77);
        let mut d = Dataset::new(vec!["x".into(), "y".into()], 3);
        for _ in 0..150 {
            let cls = rng.gen_range(0..3usize);
            let cx = [0.0, 5.0, 0.0][cls];
            let cy = [0.0, 0.0, 5.0][cls];
            d.push(
                vec![cx + rng.gen_range(-1.0..1.0), cy + rng.gen_range(-1.0..1.0)],
                cls,
            );
        }
        d
    }

    fn fit(data: &Dataset, config: &ForestConfig, seed: u64) -> RandomForest {
        RandomForest::fit(data, config, seed, 0, None)
    }

    #[test]
    fn forest_beats_chance_on_noisy_blobs() {
        let train = noisy_data(1);
        let test = noisy_data(2);
        let forest = fit(&train, &ForestConfig::default(), 42);
        let correct =
            (0..test.len()).filter(|&i| forest.predict(test.row(i)) == test.label(i)).count();
        assert!(correct as f64 / test.len() as f64 > 0.85, "accuracy {correct}/100");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = noisy_data(1);
        let f1 = fit(&data, &ForestConfig::default(), 7);
        let f2 = fit(&data, &ForestConfig::default(), 7);
        for i in 0..data.len() {
            assert_eq!(f1.predict_proba(data.row(i)), f2.predict_proba(data.row(i)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let data = noisy_data(1);
        let f1 = fit(&data, &ForestConfig::default(), 7);
        let f2 = fit(&data, &ForestConfig::default(), 8);
        let any_diff = (0..data.len())
            .any(|i| f1.predict_proba(data.row(i)) != f2.predict_proba(data.row(i)));
        assert!(any_diff);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = noisy_data(3);
        for combination in [Combination::ProbabilityAveraging, Combination::MajorityVote] {
            let config = ForestConfig { combination, ..ForestConfig::default() };
            let forest = fit(&data, &config, 5);
            let p = forest.predict_proba(&[1.0, 1.0, 0.5]);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn averaging_gives_smoother_scores_than_voting() {
        // Inseparable duplicates force impure leaves, so averaging yields a
        // much finer score lattice than the n_trees+1 levels voting can
        // produce — the variance-reduction argument the paper makes.
        let mut data = Dataset::new(vec!["x".into()], 2);
        for (x, pos_tenths) in [(0.0, 2), (1.0, 4), (2.0, 6), (3.0, 8)] {
            for i in 0..10 {
                data.push(vec![x], usize::from(i < pos_tenths));
            }
        }
        let base = ForestConfig::default();
        let avg = fit(
            &data,
            &ForestConfig { combination: Combination::ProbabilityAveraging, ..base.clone() },
            9,
        );
        let vote = fit(&data, &ForestConfig { combination: Combination::MajorityVote, ..base }, 9);
        // Averaged probabilities should track the true conditional
        // probability of each x; majority voting polarizes toward 0/1.
        let truth = [(0.0, 0.2), (1.0, 0.4), (2.0, 0.6), (3.0, 0.8)];
        let calibration_error = |f: &RandomForest| {
            truth
                .iter()
                .map(|&(x, p)| (f.score(&[x], 1) - p).abs())
                .sum::<f64>()
        };
        let (ae, ve) = (calibration_error(&avg), calibration_error(&vote));
        assert!(ae < ve, "averaging error {ae} should beat voting error {ve}");
        assert!(ae < 0.4, "averaging calibration error {ae}");
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::Log2PlusOne.resolve(37), 6); // log2(37)≈5.2 → 5+1
        assert_eq!(MaxFeatures::Sqrt.resolve(37), 6);
        assert_eq!(MaxFeatures::All.resolve(37), 37);
        assert_eq!(MaxFeatures::Fixed(100).resolve(37), 37);
        assert_eq!(MaxFeatures::Fixed(0).resolve(37), 1);
        assert_eq!(MaxFeatures::Log2PlusOne.resolve(1), 1);
    }

    #[test]
    fn n_trees_respected() {
        let data = noisy_data(1);
        let config = ForestConfig { n_trees: 5, ..ForestConfig::default() };
        assert_eq!(fit(&data, &config, 1).n_trees(), 5);
    }

    #[test]
    fn feature_importances_find_the_signal() {
        let data = noisy_data(6);
        let forest = fit(&data, &ForestConfig::default(), 3);
        let imp = forest.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // x and y carry the signal; junk should get the least credit.
        assert!(imp[2] < imp[0] && imp[2] < imp[1], "{imp:?}");
    }

    #[test]
    fn serialized_forest_predicts_identically() {
        let data = noisy_data(10);
        let forest = fit(&data, &ForestConfig::default(), 4);
        let json = serde_json::to_string(&forest).unwrap();
        let restored: RandomForest = serde_json::from_str(&json).unwrap();
        for i in 0..data.len() {
            assert_eq!(forest.predict_proba(data.row(i)), restored.predict_proba(data.row(i)));
        }
    }

    #[test]
    fn multiclass_forest_separates_three_blobs() {
        let d = three_blobs();
        let forest = fit(&d, &ForestConfig::default(), 8);
        let correct = (0..d.len()).filter(|&i| forest.predict(d.row(i)) == d.label(i)).count();
        assert!(correct as f64 / d.len() as f64 > 0.95, "{correct}/150");
        let p = forest.predict_proba(&[5.0, 0.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let d = Dataset::new(vec!["x".into()], 2);
        fit(&d, &ForestConfig::default(), 1);
    }

    #[test]
    fn fit_is_bit_identical_at_any_thread_count() {
        // The acceptance test for the deterministic parallel layer: the
        // trained model must not depend on how many workers grew it.
        let data = noisy_data(11);
        let config = ForestConfig::default();
        let reference = RandomForest::fit(&data, &config, 42, 1, None);
        for threads in [0, 2, 3, 8] {
            let forest = RandomForest::fit(&data, &config, 42, threads, None);
            for i in 0..data.len() {
                let (a, b) = (reference.score(data.row(i), 1), forest.score(data.row(i), 1));
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn predict_proba_is_the_score_kernel() {
        let data = noisy_data(13);
        let blobs = three_blobs();
        let mut cases = Vec::new();
        for combination in [Combination::ProbabilityAveraging, Combination::MajorityVote] {
            let config = ForestConfig { combination, ..ForestConfig::default() };
            cases.push((fit(&data, &config, 21), &data));
            cases.push((fit(&blobs, &config, 22), &blobs));
        }
        for (forest, data) in &cases {
            for class in 0..data.n_classes() {
                for i in 0..data.len() {
                    let row = data.row(i);
                    let score = forest.score(row, class).to_bits();
                    assert_eq!(forest.predict_proba(row)[class].to_bits(), score, "row {i}");
                }
            }
        }
    }

    #[test]
    fn timed_fit_records_one_observation_per_tree_and_same_model() {
        let data = noisy_data(25);
        let config = ForestConfig::default();
        let plain = RandomForest::fit(&data, &config, 9, 2, None);
        let registry = telemetry::Registry::new();
        let hist = registry.latency_histogram("mlearn_tree_fit_ns", "per-tree fit time");
        let timed = RandomForest::fit(&data, &config, 9, 2, Some(&hist));
        assert_eq!(hist.count(), config.n_trees as u64);
        assert!(hist.sum() > 0, "trees take measurable time");
        // Timing is observational only: the model is bit-identical.
        for i in 0..data.len() {
            let (a, b) = (timed.score(data.row(i), 1), plain.score(data.row(i), 1));
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
    }

    #[test]
    fn check_accepts_a_trained_forest_and_names_what_is_wrong() {
        let data = noisy_data(15);
        let forest = fit(&data, &ForestConfig::default(), 3);
        assert_eq!(forest.check(3, 2), Ok(()));
        assert!(forest.check(2, 2).unwrap_err().contains("reads 3 features"));
        assert!(forest.check(3, 3).unwrap_err().contains("2 classes"));
        let empty = RandomForest { trees: Vec::new(), ..forest };
        assert_eq!(empty.check(3, 2), Err("forest has no trees".into()));
    }
}
