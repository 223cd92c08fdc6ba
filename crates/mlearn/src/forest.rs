//! Ensemble random forest combining CART trees by probability averaging.
//!
//! Training parallelizes across trees with deterministic results: every
//! tree derives its own RNG from `(seed, tree_index)` via
//! [`parallel::derive_seed`], so bootstrap resamples and split choices
//! are a pure function of the seed — bit-identical at any worker-thread
//! count. Scoring offers a batched mode that walks each tree once for a
//! whole block of rows, accumulating into one preallocated buffer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::parallel::{self, derive_seed};
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
    pub fn resolve(self, n_features: usize) -> usize {
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
    /// `seed`, parallelizing across trees on all available cores. The
    /// result depends only on `(data, config, seed)` — see
    /// [`RandomForest::fit_threaded`].
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `config.n_trees` is zero.
    pub fn fit(data: &Dataset, config: &ForestConfig, seed: u64) -> Self {
        Self::fit_threaded(data, config, seed, parallel::default_threads())
    }

    /// Trains like [`RandomForest::fit`] on up to `threads` worker
    /// threads. Each tree seeds its own RNG from `(seed, tree_index)`, so
    /// the trained model is **bit-identical for any `threads` value** —
    /// parallelism is a pure throughput knob, never a reproducibility
    /// hazard.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `config.n_trees` is zero.
    pub fn fit_threaded(
        data: &Dataset,
        config: &ForestConfig,
        seed: u64,
        threads: usize,
    ) -> Self {
        Self::fit_threaded_timed(data, config, seed, threads, None)
    }

    /// Trains like [`RandomForest::fit_threaded`], recording each
    /// tree's wall-clock fit time into `tree_fit_ns` when given. The
    /// per-tree durations are folded in *index order* after the pool
    /// joins (via a [`telemetry::LocalHistogram`] shard), so the
    /// histogram's bucket counts are as deterministic as the timings
    /// themselves and the model stays bit-identical for any `threads`.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `config.n_trees` is zero.
    pub fn fit_threaded_timed(
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
        let threads = if config.n_trees < PARALLEL_MIN_TREES { 1 } else { threads };
        let timed = parallel::run_indexed(config.n_trees, threads, |t| {
            let started = std::time::Instant::now();
            let tree = grow_tree(data, config, &tree_config, seed, t).0;
            let elapsed = started.elapsed().as_nanos();
            (tree, u64::try_from(elapsed).unwrap_or(u64::MAX))
        });
        let mut trees = Vec::with_capacity(timed.len());
        if let Some(hist) = tree_fit_ns {
            let mut shard = telemetry::LocalHistogram::shard_of(hist);
            for (tree, ns) in timed {
                shard.observe(ns);
                trees.push(tree);
            }
            hist.record_local(&shard);
        } else {
            trees.extend(timed.into_iter().map(|(tree, _)| tree));
        }
        RandomForest { trees, n_classes: data.n_classes(), combination: config.combination }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Ensemble class-probability estimate: the mean of per-tree
    /// probabilities (averaging mode) or the vote distribution (voting
    /// mode).
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_classes];
        self.accumulate_row(row, &mut acc);
        let total = self.trees.len() as f64;
        for a in &mut acc {
            *a /= total;
        }
        acc
    }

    /// Adds each tree's (unnormalized) contribution for `row` into `acc`.
    fn accumulate_row(&self, row: &[f64], acc: &mut [f64]) {
        match self.combination {
            Combination::ProbabilityAveraging => {
                for tree in &self.trees {
                    for (a, p) in acc.iter_mut().zip(tree.leaf_probs(row)) {
                        *a += p;
                    }
                }
            }
            Combination::MajorityVote => {
                for tree in &self.trees {
                    acc[argmax(tree.leaf_probs(row))] += 1.0;
                }
            }
        }
    }

    /// Scores a whole block of rows in one pass, accumulating into a
    /// single preallocated `rows × classes` buffer so the hot loop does
    /// **zero per-row allocations** — unlike
    /// [`RandomForest::predict_proba`], which must allocate its result
    /// `Vec` on every call. That allocation churn is what makes
    /// on-the-wire re-classification of many conversations cheaper
    /// through this path than row-by-row calls.
    ///
    /// Returns one probability vector per row, in row order.
    pub fn predict_proba_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<Vec<f64>> {
        let k = self.n_classes;
        let mut acc = vec![0.0f64; rows.len() * k];
        self.accumulate_batch(rows, &mut acc);
        let total = self.trees.len() as f64;
        acc.chunks(k).map(|slot| slot.iter().map(|v| v / total).collect()).collect()
    }

    /// Row-major accumulation into a flat `rows.len() × n_classes`
    /// buffer (unnormalized): each row's class slot is filled by one
    /// allocation-free [`RandomForest::accumulate_row`] pass.
    ///
    /// Row-major order is deliberate. Tree-major traversal (outer loop
    /// over trees, inner over rows, with and without cache tiling) was
    /// benchmarked and *lost* to row-major here: with unbounded-depth
    /// trees the forest's pointer-chased working set is as large as the
    /// row block itself, so every tile pass re-streams the forest and
    /// there is no node reuse to win back. All of the batched speedup
    /// comes from eliminating the per-row result allocation instead.
    fn accumulate_batch<R: AsRef<[f64]>>(&self, rows: &[R], acc: &mut [f64]) {
        // 256 rows × 37 features × 8 bytes ≈ 74 KiB — comfortably L2-resident
        // alongside the forest itself.
        let k = self.n_classes;
        debug_assert_eq!(acc.len(), rows.len() * k);
        for (slot, row) in acc.chunks_mut(k).zip(rows) {
            self.accumulate_row(row.as_ref(), slot);
        }
    }

    /// `class` scores for a block of rows (the batched analogue of
    /// [`RandomForest::score`]) across up to `threads` workers.
    ///
    /// This is the leanest scoring path: one flat accumulator per chunk
    /// and one output `Vec` — zero per-row allocations — so it beats
    /// calling [`RandomForest::score`] row by row even single-threaded.
    pub fn score_batch<R: AsRef<[f64]> + Sync>(
        &self,
        rows: &[R],
        class: usize,
        threads: usize,
    ) -> Vec<f64> {
        assert!(class < self.n_classes, "class out of range");
        let k = self.n_classes;
        let total = self.trees.len() as f64;
        let score_chunk = |chunk: &[R]| -> Vec<f64> {
            let mut acc = vec![0.0f64; chunk.len() * k];
            self.accumulate_batch(chunk, &mut acc);
            acc.chunks(k).map(|slot| slot[class] / total).collect()
        };
        let threads = threads.max(1).min(rows.len().max(1));
        if threads <= 1 {
            return score_chunk(rows);
        }
        let chunk = rows.len().div_ceil(threads);
        let chunks: Vec<&[R]> = rows.chunks(chunk).collect();
        parallel::run_indexed(chunks.len(), threads, |c| score_chunk(chunks[c]))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Predicted class: argmax of [`RandomForest::predict_proba`].
    pub fn predict(&self, row: &[f64]) -> usize {
        argmax(&self.predict_proba(row))
    }

    /// Probability assigned to `class` — the score used for ROC curves.
    pub fn score(&self, row: &[f64], class: usize) -> f64 {
        self.predict_proba(row)[class]
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
}

/// A forest plus its out-of-bag (OOB) error estimate.
#[derive(Debug, Clone)]
pub struct OobFit {
    /// The trained forest.
    pub forest: RandomForest,
    /// Out-of-bag misclassification rate: each training sample is scored
    /// only by trees whose bootstrap did not contain it. `None` when no
    /// sample was out of bag (tiny data or bootstrap disabled).
    pub oob_error: Option<f64>,
}

impl RandomForest {
    /// Trains like [`RandomForest::fit`] but also computes the
    /// out-of-bag error — a free validation estimate that needs no
    /// held-out split (Breiman's OOB methodology). Uses all available
    /// cores; see [`RandomForest::fit_with_oob_threaded`].
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `config.n_trees` is zero.
    pub fn fit_with_oob(data: &Dataset, config: &ForestConfig, seed: u64) -> OobFit {
        Self::fit_with_oob_threaded(data, config, seed, parallel::default_threads())
    }

    /// Trains like [`RandomForest::fit_threaded`] (same per-tree seed
    /// derivation, so the forest is identical to a plain fit at the same
    /// seed) and accumulates the OOB estimate from each tree's bootstrap
    /// complement. Tree growth runs in parallel; OOB accumulation merges
    /// per-tree results in tree order, so the error estimate is also
    /// thread-count invariant.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `config.n_trees` is zero.
    pub fn fit_with_oob_threaded(
        data: &Dataset,
        config: &ForestConfig,
        seed: u64,
        threads: usize,
    ) -> OobFit {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(config.n_trees > 0, "need at least one tree");
        let tree_config = crate::tree::TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            max_features: Some(config.max_features.resolve(data.n_features())),
        };
        let n = data.len();
        let grown = parallel::run_indexed(config.n_trees, threads, |t| {
            grow_tree(data, config, &tree_config, seed, t)
        });
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut oob_probs = vec![vec![0.0f64; data.n_classes()]; n];
        let mut oob_counts = vec![0usize; n];
        for (tree, indices) in grown {
            let mut in_bag = vec![false; n];
            for &i in &indices {
                in_bag[i] = true;
            }
            for i in (0..n).filter(|&i| !in_bag[i]) {
                for (acc, &p) in oob_probs[i].iter_mut().zip(tree.leaf_probs(data.row(i))) {
                    *acc += p;
                }
                oob_counts[i] += 1;
            }
            trees.push(tree);
        }
        let mut errors = 0usize;
        let mut counted = 0usize;
        for i in 0..n {
            if oob_counts[i] == 0 {
                continue;
            }
            counted += 1;
            if argmax(&oob_probs[i]) != data.label(i) {
                errors += 1;
            }
        }
        let oob_error =
            (counted > 0).then(|| errors as f64 / counted as f64);
        OobFit {
            forest: RandomForest {
                trees,
                n_classes: data.n_classes(),
                combination: config.combination,
            },
            oob_error,
        }
    }
}

/// Grows tree `index` of a forest: seeds a fresh RNG from
/// `(seed, index)`, draws the bootstrap resample, and fits the tree.
/// Returns the tree together with its training indices (the OOB path
/// needs them to find each tree's bootstrap complement).
fn grow_tree(
    data: &Dataset,
    config: &ForestConfig,
    tree_config: &TreeConfig,
    seed: u64,
    index: usize,
) -> (DecisionTree, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, index as u64));
    let n = data.len();
    let indices: Vec<usize> = if config.bootstrap {
        (0..n).map(|_| rng.gen_range(0..n)).collect()
    } else {
        (0..n).collect()
    };
    let tree = DecisionTree::fit(data, &indices, tree_config, &mut rng);
    (tree, indices)
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

    #[test]
    fn forest_beats_chance_on_noisy_blobs() {
        let train = noisy_data(1);
        let test = noisy_data(2);
        let forest = RandomForest::fit(&train, &ForestConfig::default(), 42);
        let correct =
            (0..test.len()).filter(|&i| forest.predict(test.row(i)) == test.label(i)).count();
        assert!(correct as f64 / test.len() as f64 > 0.85, "accuracy {correct}/100");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = noisy_data(1);
        let f1 = RandomForest::fit(&data, &ForestConfig::default(), 7);
        let f2 = RandomForest::fit(&data, &ForestConfig::default(), 7);
        for i in 0..data.len() {
            assert_eq!(f1.predict_proba(data.row(i)), f2.predict_proba(data.row(i)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let data = noisy_data(1);
        let f1 = RandomForest::fit(&data, &ForestConfig::default(), 7);
        let f2 = RandomForest::fit(&data, &ForestConfig::default(), 8);
        let any_diff = (0..data.len())
            .any(|i| f1.predict_proba(data.row(i)) != f2.predict_proba(data.row(i)));
        assert!(any_diff);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = noisy_data(3);
        for combination in [Combination::ProbabilityAveraging, Combination::MajorityVote] {
            let config = ForestConfig { combination, ..ForestConfig::default() };
            let forest = RandomForest::fit(&data, &config, 5);
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
        let avg = RandomForest::fit(
            &data,
            &ForestConfig { combination: Combination::ProbabilityAveraging, ..base.clone() },
            9,
        );
        let vote = RandomForest::fit(
            &data,
            &ForestConfig { combination: Combination::MajorityVote, ..base },
            9,
        );
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
        assert_eq!(RandomForest::fit(&data, &config, 1).n_trees(), 5);
    }

    #[test]
    fn feature_importances_find_the_signal() {
        let data = noisy_data(6);
        let forest = RandomForest::fit(&data, &ForestConfig::default(), 3);
        let imp = forest.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // x and y carry the signal; junk should get the least credit.
        assert!(imp[2] < imp[0] && imp[2] < imp[1], "{imp:?}");
    }

    #[test]
    fn oob_error_estimates_generalization() {
        let train = noisy_data(7);
        let fit = RandomForest::fit_with_oob(&train, &ForestConfig::default(), 5);
        let oob = fit.oob_error.expect("bootstrap leaves samples out");
        // Compare against true held-out error: they should be in the same
        // region (both well under chance, within 15 points of each other).
        let test = noisy_data(8);
        let held_out_err = (0..test.len())
            .filter(|&i| fit.forest.predict(test.row(i)) != test.label(i))
            .count() as f64
            / test.len() as f64;
        assert!(oob < 0.35, "oob {oob}");
        assert!((oob - held_out_err).abs() < 0.15, "oob {oob} vs held-out {held_out_err}");
    }

    #[test]
    fn oob_without_bootstrap_is_none() {
        let data = noisy_data(9);
        let config = ForestConfig { bootstrap: false, ..ForestConfig::default() };
        assert!(RandomForest::fit_with_oob(&data, &config, 1).oob_error.is_none());
    }

    #[test]
    fn serialized_forest_predicts_identically() {
        let data = noisy_data(10);
        let forest = RandomForest::fit(&data, &ForestConfig::default(), 4);
        let json = serde_json::to_string(&forest).unwrap();
        let restored: RandomForest = serde_json::from_str(&json).unwrap();
        for i in 0..data.len() {
            assert_eq!(forest.predict_proba(data.row(i)), restored.predict_proba(data.row(i)));
        }
    }

    #[test]
    fn multiclass_forest_separates_three_blobs() {
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
        let forest = RandomForest::fit(&d, &ForestConfig::default(), 8);
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
        RandomForest::fit(&d, &ForestConfig::default(), 1);
    }

    #[test]
    fn fit_is_bit_identical_at_any_thread_count() {
        // The acceptance test for the deterministic parallel layer: the
        // trained model must not depend on how many workers grew it.
        let data = noisy_data(11);
        let config = ForestConfig::default();
        let reference = RandomForest::fit_threaded(&data, &config, 42, 1);
        for threads in [2, 3, 8, crate::parallel::default_threads().max(2)] {
            let forest = RandomForest::fit_threaded(&data, &config, 42, threads);
            for i in 0..data.len() {
                assert_eq!(
                    reference.predict_proba(data.row(i)),
                    forest.predict_proba(data.row(i)),
                    "row {i} diverged at {threads} threads"
                );
            }
        }
        // The default entry point is the same model.
        let default_fit = RandomForest::fit(&data, &config, 42);
        assert_eq!(
            reference.predict_proba(data.row(0)),
            default_fit.predict_proba(data.row(0))
        );
    }

    #[test]
    fn fit_with_oob_grows_the_same_forest_as_fit() {
        let data = noisy_data(12);
        let config = ForestConfig::default();
        let plain = RandomForest::fit(&data, &config, 9);
        for threads in [1, 4] {
            let with_oob = RandomForest::fit_with_oob_threaded(&data, &config, 9, threads);
            for i in 0..data.len() {
                assert_eq!(
                    plain.predict_proba(data.row(i)),
                    with_oob.forest.predict_proba(data.row(i)),
                    "row {i} diverged (threads {threads})"
                );
            }
        }
    }

    #[test]
    fn batched_predict_matches_per_row() {
        let data = noisy_data(13);
        for combination in [Combination::ProbabilityAveraging, Combination::MajorityVote] {
            let config = ForestConfig { combination, ..ForestConfig::default() };
            let forest = RandomForest::fit(&data, &config, 21);
            let rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i).to_vec()).collect();
            let batched = forest.predict_proba_batch(&rows);
            assert_eq!(batched.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(batched[i], forest.predict_proba(row), "row {i}");
            }
            for threads in [1, 3] {
                let scores = forest.score_batch(&rows, 1, threads);
                for (i, p) in batched.iter().enumerate() {
                    assert_eq!(scores[i], p[1], "score row {i} ({threads} threads)");
                }
            }
        }
    }

    #[test]
    fn batched_predict_on_empty_input() {
        let data = noisy_data(14);
        let forest = RandomForest::fit(&data, &ForestConfig::default(), 2);
        let rows: Vec<Vec<f64>> = Vec::new();
        assert!(forest.predict_proba_batch(&rows).is_empty());
    }

    #[test]
    fn timed_fit_records_one_observation_per_tree_and_same_model() {
        let data = noisy_data(25);
        let config = ForestConfig::default();
        let plain = RandomForest::fit_threaded(&data, &config, 9, 2);
        let registry = telemetry::Registry::new();
        let hist = registry.latency_histogram("mlearn_tree_fit_ns", "per-tree fit time");
        let timed = RandomForest::fit_threaded_timed(&data, &config, 9, 2, Some(&hist));
        assert_eq!(hist.count(), config.n_trees as u64);
        assert!(hist.sum() > 0, "trees take measurable time");
        // Timing is observational only: the model is bit-identical.
        let rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i).to_vec()).collect();
        assert_eq!(timed.predict_proba_batch(&rows), plain.predict_proba_batch(&rows));
    }
}
