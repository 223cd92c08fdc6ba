//! Gain-ratio feature ranking with per-fold averaging (Table IV
//! methodology: "gain ratio metric with 10-fold cross validation").

use serde::{Deserialize, Serialize};

use crate::crossval::stratified_kfold;
use crate::dataset::Dataset;

/// Ranking summary for one feature across folds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureRank {
    /// Feature (column) name.
    pub name: String,
    /// Column index in the dataset.
    pub column: usize,
    /// Mean gain ratio over folds.
    pub mean_gain: f64,
    /// Standard deviation of the gain ratio over folds.
    pub std_gain: f64,
    /// Mean rank over folds (1 = most informative).
    pub mean_rank: f64,
    /// Standard deviation of the rank over folds.
    pub std_rank: f64,
}

fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / t;
            -p * p.log2()
        })
        .sum()
}

/// Gain ratio of one continuous feature on the rows at `indices`: the
/// information gain of the best binary threshold split divided by the split
/// information (C4.5's correction for multi-valued attributes; for a binary
/// split it normalizes by the partition entropy). Returns 0 when the
/// feature cannot split the data.
pub(crate) fn gain_ratio(data: &Dataset, indices: &[usize], feature: usize) -> f64 {
    let n = indices.len();
    if n < 2 {
        return 0.0;
    }
    let mut order: Vec<usize> = indices.to_vec();
    order.sort_by(|&a, &b| data.row(a)[feature].total_cmp(&data.row(b)[feature]));
    let mut right = vec![0usize; data.n_classes()];
    for &i in &order {
        right[data.label(i)] += 1;
    }
    let parent_entropy = entropy(&right);
    if parent_entropy == 0.0 {
        return 0.0;
    }
    let mut left = vec![0usize; data.n_classes()];
    let mut best = 0.0f64;
    for split_at in 1..n {
        let moved = order[split_at - 1];
        left[data.label(moved)] += 1;
        right[data.label(moved)] -= 1;
        if data.row(order[split_at - 1])[feature] == data.row(order[split_at])[feature] {
            continue;
        }
        let wl = split_at as f64 / n as f64;
        let info_gain =
            parent_entropy - wl * entropy(&left) - (1.0 - wl) * entropy(&right);
        let split_info = entropy(&[split_at, n - split_at]);
        if split_info > 0.0 {
            best = best.max(info_gain / split_info);
        }
    }
    best
}

/// Ranks every feature by gain ratio, averaging gain and rank over `k`
/// stratified folds (each fold's *training* portion is scored). The result
/// is sorted by ascending mean rank — the paper's Table IV ordering.
///
/// # Panics
///
/// Panics when `k` is invalid for the dataset size.
pub fn rank_features(data: &Dataset, k: usize, seed: u64) -> Vec<FeatureRank> {
    let folds = stratified_kfold(data.labels(), k, seed);
    let n_features = data.n_features();
    let mut gains: Vec<Vec<f64>> = vec![Vec::with_capacity(k); n_features];
    let mut ranks: Vec<Vec<f64>> = vec![Vec::with_capacity(k); n_features];
    for fold in &folds {
        let fold_gains: Vec<f64> =
            (0..n_features).map(|f| gain_ratio(data, &fold.train, f)).collect();
        // Rank 1 = highest gain. Ties share order-of-appearance ranks,
        // which keeps ranks integral as in the paper's table.
        let mut order: Vec<usize> = (0..n_features).collect();
        order.sort_by(|&a, &b| fold_gains[b].total_cmp(&fold_gains[a]));
        for (pos, &f) in order.iter().enumerate() {
            gains[f].push(fold_gains[f]);
            ranks[f].push((pos + 1) as f64);
        }
    }
    let mut out: Vec<FeatureRank> = (0..n_features)
        .map(|f| {
            let (mg, sg) = mean_std(&gains[f]);
            let (mr, sr) = mean_std(&ranks[f]);
            FeatureRank {
                name: data.feature_names()[f].clone(),
                column: f,
                mean_gain: mg,
                std_gain: sg,
                mean_rank: mr,
                std_rank: sr,
            }
        })
        .collect();
    out.sort_by(|a, b| a.mean_rank.total_cmp(&b.mean_rank));
    out
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var =
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn informative_dataset() -> Dataset {
        // "signal" separates classes perfectly; "weak" partially; "noise"
        // not at all.
        let mut rng = StdRng::seed_from_u64(11);
        let mut d =
            Dataset::new(vec!["signal".into(), "weak".into(), "noise".into()], 2);
        for i in 0..200 {
            let cls = i % 2;
            let signal = cls as f64 * 10.0 + rng.gen_range(0.0..1.0);
            let weak = cls as f64 * 1.0 + rng.gen_range(0.0..2.0);
            let noise = rng.gen_range(0.0..1.0);
            d.push(vec![signal, weak, noise], cls);
        }
        d
    }

    #[test]
    fn perfect_feature_has_gain_ratio_one() {
        let d = informative_dataset();
        let all: Vec<usize> = (0..d.len()).collect();
        let g = gain_ratio(&d, &all, 0);
        assert!((g - 1.0).abs() < 1e-9, "got {g}");
    }

    #[test]
    fn noise_feature_has_low_gain_ratio() {
        let d = informative_dataset();
        let all: Vec<usize> = (0..d.len()).collect();
        let noise = gain_ratio(&d, &all, 2);
        let signal = gain_ratio(&d, &all, 0);
        let weak = gain_ratio(&d, &all, 1);
        assert!(noise < 0.25, "noise gain {noise}");
        assert!(noise < weak && weak < signal, "{noise} {weak} {signal}");
    }

    #[test]
    fn constant_feature_has_zero_gain() {
        let mut d = Dataset::new(vec!["c".into()], 2);
        for i in 0..10 {
            d.push(vec![5.0], i % 2);
        }
        let all: Vec<usize> = (0..10).collect();
        assert_eq!(gain_ratio(&d, &all, 0), 0.0);
    }

    #[test]
    fn pure_labels_have_zero_gain() {
        let mut d = Dataset::new(vec!["x".into()], 2);
        for i in 0..10 {
            d.push(vec![i as f64], 0);
        }
        let all: Vec<usize> = (0..10).collect();
        assert_eq!(gain_ratio(&d, &all, 0), 0.0);
    }

    #[test]
    fn ranking_orders_by_informativeness() {
        let d = informative_dataset();
        let ranking = rank_features(&d, 5, 3);
        assert_eq!(ranking[0].name, "signal");
        assert_eq!(ranking[1].name, "weak");
        assert_eq!(ranking[2].name, "noise");
        assert!((ranking[0].mean_rank - 1.0).abs() < 1e-12);
        assert_eq!(ranking[0].std_rank, 0.0);
        assert!(ranking[0].mean_gain > ranking[1].mean_gain);
        assert!(ranking[1].mean_gain > ranking[2].mean_gain);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
