//! CART decision trees with Gini impurity and random feature subsets.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// Tree-growing hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features examined per split; `None` means all.
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 32, min_samples_split: 2, max_features: None }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Class-probability estimate from training-sample proportions.
        probs: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Weighted impurity decrease contributed by this split
        /// (`n_node/n_total · (gini_parent − gini_children)`), accumulated
        /// into mean-decrease-in-impurity feature importances.
        importance: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained CART decision tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
    n_features: usize,
}

impl DecisionTree {
    /// Grows a tree on the rows of `data` at `indices`.
    ///
    /// `rng` drives the per-split random feature subsetting when
    /// [`TreeConfig::max_features`] is set.
    ///
    /// # Panics
    ///
    /// Panics when `indices` is empty.
    pub fn fit<R: Rng>(
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut R,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let total = indices.len();
        let mut idx = indices.to_vec();
        let root = grow(data, &mut idx, config, rng, 0, total);
        DecisionTree { root, n_classes: data.n_classes(), n_features: data.n_features() }
    }

    /// The training-sample class proportions of the leaf `row` lands in,
    /// borrowed from the tree: the forest's scoring kernel reads it in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the training width.
    pub(crate) fn leaf_probs(&self, row: &[f64]) -> &[f64] {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { probs } => return probs,
                Node::Split { feature, threshold, left, right, .. } => {
                    node = if row[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Most probable class for one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        argmax(self.leaf_probs(row))
    }

    /// Mean-decrease-in-impurity feature importances (unnormalized): the
    /// weighted Gini decrease accumulated per feature over all splits.
    pub(crate) fn feature_importances(&self) -> Vec<f64> {
        fn walk(node: &Node, acc: &mut [f64]) {
            if let Node::Split { feature, importance, left, right, .. } = node {
                acc[*feature] += importance;
                walk(left, acc);
                walk(right, acc);
            }
        }
        let mut acc = vec![0.0; self.n_features];
        walk(&self.root, &mut acc);
        acc
    }

    /// The per-tree half of [`RandomForest::check`](crate::forest::RandomForest::check):
    /// the tree reads `n_features`-wide rows, splits only on those
    /// features, and every leaf holds `n_classes` probabilities in [0, 1].
    pub(crate) fn check(&self, n_features: usize, n_classes: usize) -> Result<(), String> {
        fn walk(node: &Node, n_features: usize, n_classes: usize) -> Result<(), String> {
            match node {
                Node::Leaf { probs } => {
                    if probs.len() != n_classes {
                        return Err(format!(
                            "leaf has {} class probabilities, expected {n_classes}",
                            probs.len()
                        ));
                    }
                    match probs.iter().find(|p| !(0.0..=1.0).contains(*p)) {
                        Some(p) => Err(format!("leaf probability {p} is not in [0, 1]")),
                        None => Ok(()),
                    }
                }
                Node::Split { feature, left, right, .. } => {
                    if *feature >= n_features {
                        return Err(format!("split on feature {feature} of {n_features}"));
                    }
                    walk(left, n_features, n_classes)?;
                    walk(right, n_features, n_classes)
                }
            }
        }
        if self.n_features != n_features {
            return Err(format!("reads {} features, expected {n_features}", self.n_features));
        }
        walk(&self.root, n_features, n_classes)
    }
}

/// Index of the maximum value (ties broken toward the lower index).
pub(crate) fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

fn class_probs(data: &Dataset, indices: &[usize]) -> Vec<f64> {
    let mut counts = vec![0usize; data.n_classes()];
    for &i in indices {
        counts[data.label(i)] += 1;
    }
    let total = indices.len() as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    impurity: f64,
}

/// Finds the lowest-weighted-Gini binary split among `features`.
fn best_split(
    data: &Dataset,
    indices: &[usize],
    features: &[usize],
    parent_gini: f64,
) -> Option<BestSplit> {
    let n = indices.len();
    let mut best: Option<BestSplit> = None;
    for &f in features {
        // Sort samples by this feature's value.
        let mut order: Vec<usize> = indices.to_vec();
        order.sort_by(|&a, &b| data.row(a)[f].total_cmp(&data.row(b)[f]));
        let mut left_counts = vec![0usize; data.n_classes()];
        let mut right_counts = vec![0usize; data.n_classes()];
        for &i in &order {
            right_counts[data.label(i)] += 1;
        }
        for split_at in 1..n {
            let moved = order[split_at - 1];
            left_counts[data.label(moved)] += 1;
            right_counts[data.label(moved)] -= 1;
            let prev = data.row(order[split_at - 1])[f];
            let next = data.row(order[split_at])[f];
            if prev == next {
                continue; // cannot split between equal values
            }
            let wl = split_at as f64 / n as f64;
            let impurity = wl * gini(&left_counts, split_at)
                + (1.0 - wl) * gini(&right_counts, n - split_at);
            // Zero-gain splits are admitted (like scikit-learn's CART):
            // they make progress on XOR-like data, and recursion still
            // terminates because both children are strictly smaller.
            if impurity < best.as_ref().map_or(parent_gini + 1e-12, |b| b.impurity) {
                best = Some(BestSplit { feature: f, threshold: (prev + next) / 2.0, impurity });
            }
        }
    }
    best
}

fn grow<R: Rng>(
    data: &Dataset,
    indices: &mut Vec<usize>,
    config: &TreeConfig,
    rng: &mut R,
    depth: usize,
    total: usize,
) -> Node {
    let mut counts = vec![0usize; data.n_classes()];
    for &i in indices.iter() {
        counts[data.label(i)] += 1;
    }
    let node_gini = gini(&counts, indices.len());
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    if pure || depth >= config.max_depth || indices.len() < config.min_samples_split {
        return Node::Leaf { probs: class_probs(data, indices) };
    }
    // Random feature subset (without replacement).
    let mut feature_ids: Vec<usize> = (0..data.n_features()).collect();
    let features: Vec<usize> = match config.max_features {
        Some(k) if k < feature_ids.len() => {
            feature_ids.shuffle(rng);
            feature_ids.truncate(k);
            feature_ids
        }
        _ => feature_ids,
    };
    let Some(split) = best_split(data, indices, &features, node_gini) else {
        return Node::Leaf { probs: class_probs(data, indices) };
    };
    let (mut left_idx, mut right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| data.row(i)[split.feature] <= split.threshold);
    if left_idx.is_empty() || right_idx.is_empty() {
        return Node::Leaf { probs: class_probs(data, indices) };
    }
    let importance =
        indices.len() as f64 / total as f64 * (node_gini - split.impurity).max(0.0);
    indices.clear();
    indices.shrink_to_fit();
    let left = grow(data, &mut left_idx, config, rng, depth + 1, total);
    let right = grow(data, &mut right_idx, config, rng, depth + 1, total);
    Node::Split {
        feature: split.feature,
        threshold: split.threshold,
        importance,
        left: Box::new(left),
        right: Box::new(right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn threshold_data() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "noise".into()], 2);
        for i in 0..40 {
            let x = i as f64;
            let noise = (i * 7 % 13) as f64;
            d.push(vec![x, noise], usize::from(x >= 20.0));
        }
        d
    }

    fn all_indices(d: &Dataset) -> Vec<usize> {
        (0..d.len()).collect()
    }

    fn leaf_count(node: &Node) -> usize {
        match node {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => leaf_count(left) + leaf_count(right),
        }
    }

    fn depth(node: &Node) -> usize {
        match node {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
        }
    }

    #[test]
    fn learns_a_simple_threshold() {
        let d = threshold_data();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&d, &all_indices(&d), &TreeConfig::default(), &mut rng);
        assert_eq!(tree.predict(&[5.0, 0.0]), 0);
        assert_eq!(tree.predict(&[35.0, 0.0]), 1);
        // One clean split suffices: exactly two leaves.
        assert_eq!(leaf_count(&tree.root), 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(vec!["x".into()], 2);
        for i in 0..10 {
            d.push(vec![i as f64], 0);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&d, &all_indices(&d), &TreeConfig::default(), &mut rng);
        assert_eq!(leaf_count(&tree.root), 1);
        assert_eq!(tree.leaf_probs(&[3.0]), [1.0, 0.0]);
    }

    #[test]
    fn max_depth_caps_growth() {
        let d = threshold_data();
        let mut rng = StdRng::seed_from_u64(1);
        let config = TreeConfig { max_depth: 0, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&d, &all_indices(&d), &config, &mut rng);
        assert_eq!(depth(&tree.root), 0);
        let probs = tree.leaf_probs(&[0.0, 0.0]);
        assert!((probs[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_features_yield_leaf() {
        let mut d = Dataset::new(vec!["x".into()], 2);
        for i in 0..10 {
            d.push(vec![7.0], i % 2);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&d, &all_indices(&d), &TreeConfig::default(), &mut rng);
        assert_eq!(leaf_count(&tree.root), 1);
    }

    #[test]
    fn xor_needs_depth_two() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], 2);
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for _ in 0..5 {
                d.push(vec![a, b], ((a as usize) ^ (b as usize)) & 1);
            }
        }
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&d, &all_indices(&d), &TreeConfig::default(), &mut rng);
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            assert_eq!(tree.predict(&[a, b]), ((a as usize) ^ (b as usize)) & 1);
        }
        assert!(depth(&tree.root) >= 2);
    }

    /// Alternating labels make every best split peel one end point off,
    /// so the tree is a chain that stops at `max_depth`: the deepest
    /// shape a saved model holds, which the JSON reader must still load.
    #[test]
    fn a_full_depth_tree_round_trips_through_json() {
        let mut d = Dataset::new(vec!["x".into()], 2);
        for i in 0..101 {
            d.push(vec![i as f64], i % 2);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&d, &all_indices(&d), &TreeConfig::default(), &mut rng);
        assert_eq!(depth(&tree.root), TreeConfig::default().max_depth);
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn probabilities_reflect_leaf_mixture() {
        let mut d = Dataset::new(vec!["x".into()], 2);
        // Left of 10: 3 of class 0, 1 of class 1 (inseparable duplicates).
        for _ in 0..3 {
            d.push(vec![5.0], 0);
        }
        d.push(vec![5.0], 1);
        for _ in 0..4 {
            d.push(vec![15.0], 1);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&d, &all_indices(&d), &TreeConfig::default(), &mut rng);
        let probs = tree.leaf_probs(&[5.0]);
        assert!((probs[0] - 0.75).abs() < 1e-12);
        assert!((probs[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_features_one_still_learns() {
        let d = threshold_data();
        let mut rng = StdRng::seed_from_u64(3);
        let config = TreeConfig { max_features: Some(1), ..TreeConfig::default() };
        let tree = DecisionTree::fit(&d, &all_indices(&d), &config, &mut rng);
        // With deep growth even a random per-split feature choice separates.
        let correct = (0..40)
            .filter(|&i| tree.predict(d.row(i)) == d.label(i))
            .count();
        assert!(correct >= 36, "got {correct}/40");
    }

    #[test]
    fn importances_credit_the_informative_feature() {
        let d = threshold_data();
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&d, &all_indices(&d), &TreeConfig::default(), &mut rng);
        let imp = tree.feature_importances();
        assert!(imp[0] > imp[1], "signal {} vs noise {}", imp[0], imp[1]);
        assert!(imp[0] > 0.0);
        // A clean binary split on a balanced problem decreases Gini from
        // 0.5 to 0: root importance ≈ 0.5.
        assert!((imp[0] - 0.5).abs() < 0.05, "{}", imp[0]);
    }

    #[test]
    fn check_rejects_out_of_range_splits_and_malformed_leaves() {
        let leaf = |probs: Vec<f64>| Box::new(Node::Leaf { probs });
        let tree = |feature, left, right| DecisionTree {
            root: Node::Split { feature, threshold: 0.5, importance: 0.0, left, right },
            n_classes: 2,
            n_features: 2,
        };
        let good = || leaf(vec![0.25, 0.75]);
        assert_eq!(tree(1, good(), good()).check(2, 2), Ok(()));
        let err = |t: DecisionTree| t.check(2, 2).unwrap_err();
        assert!(err(tree(2, good(), good())).contains("split on feature 2 of 2"));
        assert!(err(tree(0, good(), leaf(vec![1.0]))).contains("1 class probabilities"));
        assert!(err(tree(0, leaf(vec![f64::NAN, 0.0]), good())).contains("not in [0, 1]"));
        assert!(err(tree(0, leaf(vec![1.5, -0.5]), good())).contains("not in [0, 1]"));
    }

    #[test]
    fn argmax_prefers_lower_index_on_ties() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
    }
}
