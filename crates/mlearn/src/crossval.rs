//! Stratified k-fold cross-validation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use telemetry::pool;

use crate::dataset::Dataset;
use crate::forest::{ForestConfig, RandomForest};
use crate::metrics::{roc_auc, Confusion};

/// One train/test split of sample indices.
#[derive(Debug, Clone)]
pub struct Fold {
    /// Training-sample indices.
    pub train: Vec<usize>,
    /// Held-out test-sample indices.
    pub test: Vec<usize>,
}

/// Produces `k` stratified folds: each class is shuffled independently and
/// dealt round-robin so every fold preserves the class mix.
///
/// # Panics
///
/// Panics when `k < 2` or `k` exceeds the number of samples.
pub fn stratified_kfold(labels: &[usize], k: usize, seed: u64) -> Vec<Fold> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(k <= labels.len(), "more folds than samples");
    let mut rng = StdRng::seed_from_u64(seed);
    let n_classes = labels.iter().max().map_or(0, |m| m + 1);
    let mut fold_members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for class in 0..n_classes {
        let mut members: Vec<usize> =
            (0..labels.len()).filter(|&i| labels[i] == class).collect();
        members.shuffle(&mut rng);
        for (j, idx) in members.into_iter().enumerate() {
            fold_members[j % k].push(idx);
        }
    }
    (0..k)
        .map(|f| {
            let test = fold_members[f].clone();
            let train = fold_members
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != f)
                .flat_map(|(_, m)| m.iter().copied())
                .collect();
            Fold { train, test }
        })
        .collect()
}

/// Aggregated cross-validation result for a binary problem.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Pooled confusion counts over all folds.
    pub confusion: Confusion,
    /// Pooled positive-class scores per test sample (by original index).
    pub scores: Vec<f64>,
    /// Pooled predicted labels per sample (by original index).
    pub predictions: Vec<usize>,
    /// ROC area computed over the pooled scores.
    pub roc_area: f64,
}

/// Runs stratified k-fold cross-validation of a [`RandomForest`] on a
/// binary dataset, pooling test predictions over folds (the paper's 10-fold
/// evaluation methodology).
///
/// `positive` designates the class whose detection is being measured
/// (infection = 1 in the DynaMiner datasets). Folds are independent (each
/// trains on its own subset with its own derived seed), so they run
/// through the worker pool on up to `threads` workers (`0` = all cores);
/// the budget is split between fold workers and each fold's forest fit.
/// Because forest training is itself thread-count invariant, the pooled
/// result is bit-identical for any `threads`.
///
/// # Panics
///
/// Panics when the dataset is not binary or `k` is invalid.
pub fn cross_validate(
    data: &Dataset,
    k: usize,
    config: &ForestConfig,
    positive: usize,
    seed: u64,
    threads: usize,
) -> CvResult {
    assert_eq!(data.n_classes(), 2, "cross_validate expects a binary dataset");
    let threads = pool::resolve_threads(threads);
    let folds = stratified_kfold(data.labels(), k, seed);
    // Split the budget: up to k fold workers, remaining threads go to each
    // fold's forest fit.
    let fold_workers = threads.min(k);
    let fit_threads = (threads / fold_workers).max(1);
    let per_fold: Vec<Vec<(usize, f64, usize)>> =
        pool::run_indexed(folds.len(), fold_workers, |fold_no| {
            let fold = &folds[fold_no];
            let train = data.subset(&fold.train);
            let fold_seed = seed.wrapping_add(fold_no as u64 + 1);
            let forest = RandomForest::fit(&train, config, fold_seed, fit_threads, None);
            fold.test
                .iter()
                .map(|&i| {
                    let proba = forest.predict_proba(data.row(i));
                    (i, proba[positive], crate::tree::argmax(&proba))
                })
                .collect()
        });
    let mut scores = vec![0.0f64; data.len()];
    let mut predictions = vec![0usize; data.len()];
    for (i, score, pred) in per_fold.into_iter().flatten() {
        scores[i] = score;
        predictions[i] = pred;
    }
    let confusion = Confusion::from_predictions(data.labels(), &predictions, positive);
    let bool_labels: Vec<bool> = data.labels().iter().map(|&l| l == positive).collect();
    let roc_area = roc_auc(&scores, &bool_labels);
    CvResult { confusion, scores, predictions, roc_area }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn folds_partition_all_samples() {
        let labels: Vec<usize> = (0..53).map(|i| i % 2).collect();
        let folds = stratified_kfold(&labels, 5, 1);
        assert_eq!(folds.len(), 5);
        let mut seen: Vec<usize> = folds.iter().flat_map(|f| f.test.iter().copied()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..53).collect::<Vec<_>>());
        for fold in &folds {
            assert_eq!(fold.train.len() + fold.test.len(), 53);
            // No overlap.
            for &t in &fold.test {
                assert!(!fold.train.contains(&t));
            }
        }
    }

    #[test]
    fn folds_are_stratified() {
        // 80/20 imbalance; every fold's test split must keep roughly it.
        let labels: Vec<usize> = (0..100).map(|i| usize::from(i < 20)).collect();
        for fold in stratified_kfold(&labels, 5, 3) {
            let pos = fold.test.iter().filter(|&&i| labels[i] == 1).count();
            assert_eq!(pos, 4, "each fold should hold 4 of the 20 positives");
        }
    }

    #[test]
    fn folds_deterministic_by_seed() {
        let labels: Vec<usize> = (0..30).map(|i| i % 2).collect();
        let a = stratified_kfold(&labels, 3, 9);
        let b = stratified_kfold(&labels, 3, 9);
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.test, fb.test);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_fold() {
        stratified_kfold(&[0, 1], 1, 0);
    }

    #[test]
    fn cross_validation_learns_separable_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut data = Dataset::new(vec!["x".into(), "y".into()], 2);
        for _ in 0..120 {
            let cls = rng.gen_range(0..2usize);
            let center = if cls == 0 { 0.0 } else { 4.0 };
            data.push(
                vec![center + rng.gen_range(-1.0..1.0), center + rng.gen_range(-1.0..1.0)],
                cls,
            );
        }
        let result = cross_validate(&data, 5, &ForestConfig::default(), 1, 7, 0);
        let c = result.confusion;
        let accuracy = (c.tp + c.tn) as f64 / data.len() as f64;
        assert!(accuracy > 0.95, "acc {accuracy}");
        assert!(result.roc_area > 0.98, "auc {}", result.roc_area);
        assert_eq!(result.scores.len(), data.len());
        assert_eq!(result.predictions.len(), data.len());
    }

    #[test]
    fn cross_validation_is_thread_count_invariant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut data = Dataset::new(vec!["x".into()], 2);
        for _ in 0..60 {
            let cls = rng.gen_range(0..2usize);
            let center = if cls == 0 { 0.0 } else { 2.0 };
            data.push(vec![center + rng.gen_range(-1.5..1.5)], cls);
        }
        let config = ForestConfig::default();
        let reference = cross_validate(&data, 5, &config, 1, 11, 1);
        for threads in [0, 2, 3, 8] {
            let result = cross_validate(&data, 5, &config, 1, 11, threads);
            assert_eq!(result.scores, reference.scores, "{threads} threads");
            assert_eq!(result.predictions, reference.predictions, "{threads} threads");
            assert_eq!(result.roc_area, reference.roc_area, "{threads} threads");
        }
    }
}
