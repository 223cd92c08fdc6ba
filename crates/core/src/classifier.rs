//! Training and querying the ensemble random forest (Sec. V-A).
//!
//! The classifier is an [`mlearn`] random forest with the paper's best
//! hyper-parameters — 20 trees, `log2(F)+1` features per split, and
//! **probability averaging** across trees — wrapped with the WCG feature
//! extraction and the Table III feature-group selection.

use mlearn::dataset::Dataset;
use mlearn::forest::{ForestConfig, RandomForest};
use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};

use crate::features::{self, FeatureGroup, FeatureVector, FEATURE_COUNT, NAMES};
use crate::wcg::Wcg;

/// Class label for benign conversations.
pub const LABEL_BENIGN: usize = 0;
/// Class label for infection conversations.
pub const LABEL_INFECTION: usize = 1;

/// Which feature columns the classifier uses (the Table III ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureSelection {
    /// All 37 features.
    All,
    /// Graph features only (f7–f25).
    GraphOnly,
    /// Everything except graph features (HLFs + HFs + TFs).
    NonGraph,
}

/// Column `c` at index `c`: each selection is a slice of it or, for
/// [`FeatureSelection::NonGraph`], of [`NON_GRAPH_COLUMNS`].
static ALL_COLUMNS: [usize; FEATURE_COUNT] = {
    let mut columns = [0; FEATURE_COUNT];
    let mut c = 0;
    while c < FEATURE_COUNT {
        columns[c] = c;
        c += 1;
    }
    columns
};

const GRAPH: std::ops::Range<usize> = FeatureGroup::Graph.columns();

/// The high-level, header and temporal columns: everything outside
/// [`FeatureGroup::Graph`].
static NON_GRAPH_COLUMNS: [usize; FEATURE_COUNT - (GRAPH.end - GRAPH.start)] = {
    let mut columns = [0; FEATURE_COUNT - (GRAPH.end - GRAPH.start)];
    let (mut c, mut i) = (0, 0);
    while c < FEATURE_COUNT {
        if c < GRAPH.start || c >= GRAPH.end {
            columns[i] = c;
            i += 1;
        }
        c += 1;
    }
    columns
};

impl FeatureSelection {
    /// The selected column indices, in order.
    pub fn columns(self) -> &'static [usize] {
        match self {
            FeatureSelection::All => &ALL_COLUMNS,
            FeatureSelection::GraphOnly => &ALL_COLUMNS[GRAPH],
            FeatureSelection::NonGraph => &NON_GRAPH_COLUMNS,
        }
    }
}

/// Builds a 37-column binary dataset from labelled conversations
/// (`true` = infection) on the calling thread: [`build_dataset_parallel`]
/// with one worker.
pub fn build_dataset<'a, I>(conversations: I) -> Dataset
where
    I: IntoIterator<Item = (&'a [HttpTransaction], bool)>,
{
    let items: Vec<(&[HttpTransaction], bool)> = conversations.into_iter().collect();
    build_dataset_parallel(&items, 1)
}

/// Builds a 37-column binary dataset from labelled conversations
/// (`true` = infection): each conversation is abstracted into a WCG and
/// featurized, on up to `threads` workers of the [`telemetry::pool`].
/// Featurization dominates the cost (graph analytics per conversation,
/// very uneven across WCG sizes, which the pool's dynamic distribution
/// balances). Rows keep the input order, so the dataset is
/// the same at any `threads`.
pub fn build_dataset_parallel(
    conversations: &[(&[HttpTransaction], bool)],
    threads: usize,
) -> Dataset {
    let rows = telemetry::pool::run_indexed(conversations.len(), threads, |i| {
        let (txs, infected) = conversations[i];
        let wcg = Wcg::from_transactions(txs);
        let fv = features::extract(&wcg);
        (fv.values().to_vec(), usize::from(infected))
    });
    let mut data = Dataset::new(NAMES.iter().map(|s| s.to_string()).collect(), 2);
    for (values, label) in rows {
        data.push(values, label);
    }
    data
}

/// A trained DynaMiner classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Classifier {
    forest: RandomForest,
    selection: FeatureSelection,
}

impl Classifier {
    /// Trains on a 37-column dataset (as produced by [`build_dataset`]),
    /// projecting to `selection`'s columns first. Trees grow on up to
    /// `threads` workers (`0` = all cores) and, with `tree_fit_ns`, record
    /// their fit times (see [`RandomForest::fit`]); the model is
    /// bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty or not 37 columns wide.
    pub fn fit(
        data: &Dataset,
        selection: FeatureSelection,
        config: &ForestConfig,
        seed: u64,
        threads: usize,
        tree_fit_ns: Option<&telemetry::Histogram>,
    ) -> Classifier {
        assert_eq!(data.n_features(), FEATURE_COUNT, "expected a 37-feature dataset");
        let projected = data.select_features(selection.columns());
        let forest = RandomForest::fit(&projected, config, seed, threads, tree_fit_ns);
        Classifier { forest, selection }
    }

    /// Trains with the paper's default configuration on all features and
    /// all cores.
    pub fn fit_default(data: &Dataset, seed: u64) -> Classifier {
        Classifier::fit(data, FeatureSelection::All, &ForestConfig::default(), seed, 0, None)
    }

    /// Checks a classifier read from outside (a model file) before it
    /// scores anything: see [`RandomForest::check`], with rows as wide as
    /// the selection and two classes, benign and infection.
    ///
    /// # Errors
    ///
    /// Names the first structural fault found.
    pub fn check(&self) -> Result<(), String> {
        self.forest.check(self.selection.columns().len(), 2)
    }

    /// Infection probability for an extracted feature vector. Allocates
    /// nothing: the selected columns are projected onto the stack.
    pub fn score_features(&self, fv: &FeatureVector) -> f64 {
        let values = fv.values();
        let columns = self.selection.columns();
        let mut row = [0.0; FEATURE_COUNT];
        for (slot, &c) in row.iter_mut().zip(columns) {
            *slot = values[c];
        }
        self.forest.score(&row[..columns.len()], LABEL_INFECTION)
    }

    /// Infection probability for a WCG.
    pub fn score_wcg(&self, wcg: &Wcg) -> f64 {
        self.score_features(&features::extract(wcg))
    }

    /// Binary verdict for a WCG at the 0.5 threshold.
    pub fn predict_wcg(&self, wcg: &Wcg) -> bool {
        self.score_wcg(wcg) >= 0.5
    }

    /// Infection probability for a raw conversation.
    pub fn score_transactions(&self, txs: &[HttpTransaction]) -> f64 {
        self.score_wcg(&Wcg::from_transactions(txs))
    }

    /// [`Classifier::score_features`] for each vector, in order, on up
    /// to `threads` workers.
    pub fn score_features_batch(&self, fvs: &[FeatureVector], threads: usize) -> Vec<f64> {
        telemetry::pool::run_indexed(fvs.len(), threads, |i| self.score_features(&fvs[i]))
    }

    /// Infection probabilities for many raw conversations: WCG
    /// construction and feature extraction run through the worker pool,
    /// then all rows are batch-scored. Matches
    /// [`Classifier::score_transactions`] conversation for conversation.
    pub fn score_conversations_batch(
        &self,
        conversations: &[&[HttpTransaction]],
        threads: usize,
    ) -> Vec<f64> {
        let fvs: Vec<FeatureVector> =
            telemetry::pool::run_indexed(conversations.len(), threads, |i| {
                features::extract(&Wcg::from_transactions(conversations[i]))
            });
        self.score_features_batch(&fvs, threads)
    }

    /// Mean-decrease-in-impurity importances of the trained forest,
    /// mapped back to feature names and sorted descending — the model
    /// introspection behind the paper's "manual verification of the trees
    /// generated by the ERF".
    pub fn feature_importances(&self) -> Vec<(String, f64)> {
        let importances = self.forest.feature_importances();
        let mut named: Vec<(String, f64)> = self
            .selection
            .columns()
            .iter()
            .zip(importances)
            .map(|(&c, imp)| (NAMES[c].to_string(), imp))
            .collect();
        named.sort_by(|a, b| b.1.total_cmp(&a.1));
        named
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use synthtraffic::benign::generate_benign;
    use synthtraffic::episode::generate_infection;
    use synthtraffic::{BenignScenario, EkFamily};

    fn small_corpus(seed: u64, n: usize) -> Vec<(Vec<nettrace::HttpTransaction>, bool)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for i in 0..n {
            let family = EkFamily::ALL[i % EkFamily::ALL.len()];
            out.push((generate_infection(&mut rng, family, 1_400_000_000.0).transactions, true));
            let scenario = BenignScenario::WEIGHTED[i % 8].0;
            out.push((generate_benign(&mut rng, scenario, 1_430_000_000.0).transactions, false));
        }
        out
    }

    #[test]
    fn selections_are_the_feature_groups() {
        let all: Vec<usize> = (0..FEATURE_COUNT).collect();
        let graph: Vec<usize> = FeatureGroup::Graph.columns().collect();
        let non_graph: Vec<usize> =
            all.iter().copied().filter(|&c| FeatureGroup::of_column(c) != FeatureGroup::Graph).collect();
        assert_eq!(FeatureSelection::All.columns(), all);
        assert_eq!(FeatureSelection::GraphOnly.columns(), graph);
        assert_eq!(FeatureSelection::NonGraph.columns(), non_graph);
        assert_eq!((graph.len(), non_graph.len()), (19, 18));
    }

    #[test]
    fn classifier_separates_synthetic_corpora() {
        let train = small_corpus(1, 30);
        let data = build_dataset(train.iter().map(|(t, l)| (t.as_slice(), *l)));
        let clf = Classifier::fit_default(&data, 7);

        let test = small_corpus(2, 15);
        let mut correct = 0usize;
        for (txs, infected) in &test {
            let wcg = Wcg::from_transactions(txs);
            if clf.predict_wcg(&wcg) == *infected {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn scores_are_probabilities() {
        let train = small_corpus(3, 10);
        let data = build_dataset(train.iter().map(|(t, l)| (t.as_slice(), *l)));
        let clf = Classifier::fit_default(&data, 1);
        for (txs, _) in &train {
            let s = clf.score_transactions(txs);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn graph_only_classifier_works() {
        let train = small_corpus(4, 40);
        let data = build_dataset(train.iter().map(|(t, l)| (t.as_slice(), *l)));
        let clf =
            Classifier::fit(&data, FeatureSelection::GraphOnly, &ForestConfig::default(), 3, 0, None);
        assert_eq!(clf.selection, FeatureSelection::GraphOnly);
        assert_eq!(clf.check(), Ok(()));
        // The stack projection scores what a projected row always scored.
        for (txs, _) in &train {
            let fv = crate::features::extract(&Wcg::from_transactions(txs));
            let row: Vec<f64> = clf.selection.columns().iter().map(|&c| fv.values()[c]).collect();
            let projected = clf.forest.predict_proba(&row)[LABEL_INFECTION];
            assert_eq!(clf.score_features(&fv).to_bits(), projected.to_bits());
        }
        let test = small_corpus(5, 15);
        let correct = test
            .iter()
            .filter(|(txs, infected)| clf.predict_wcg(&Wcg::from_transactions(txs)) == *infected)
            .count();
        assert!(correct as f64 / test.len() as f64 > 0.75, "{correct}/{}", test.len());
    }

    #[test]
    fn parallel_dataset_matches_sequential() {
        let corpus = small_corpus(9, 12);
        let items: Vec<(&[nettrace::HttpTransaction], bool)> =
            corpus.iter().map(|(t, l)| (t.as_slice(), *l)).collect();
        let sequential = build_dataset(items.iter().copied());
        for threads in [1, 3, 8, 64] {
            let parallel = build_dataset_parallel(&items, threads);
            assert_eq!(parallel.len(), sequential.len());
            for i in 0..sequential.len() {
                assert_eq!(parallel.row(i), sequential.row(i), "row {i}, {threads} threads");
                assert_eq!(parallel.label(i), sequential.label(i));
            }
        }
    }

    #[test]
    fn batch_scoring_matches_per_conversation() {
        let train = small_corpus(7, 15);
        let data = build_dataset(train.iter().map(|(t, l)| (t.as_slice(), *l)));
        let clf = Classifier::fit_default(&data, 4);
        let test = small_corpus(8, 10);
        let convs: Vec<&[nettrace::HttpTransaction]> =
            test.iter().map(|(t, _)| t.as_slice()).collect();
        let expected: Vec<f64> =
            convs.iter().map(|txs| clf.score_transactions(txs)).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                clf.score_conversations_batch(&convs, threads),
                expected,
                "{threads} threads"
            );
        }
        // Feature-vector batch path agrees too.
        let fvs: Vec<crate::features::FeatureVector> = convs
            .iter()
            .map(|txs| crate::features::extract(&Wcg::from_transactions(txs)))
            .collect();
        assert_eq!(clf.score_features_batch(&fvs, 2), expected);
    }

    #[test]
    fn threaded_fit_matches_sequential_fit() {
        let train = small_corpus(10, 12);
        let data = build_dataset(train.iter().map(|(t, l)| (t.as_slice(), *l)));
        let reference = Classifier::fit_default(&data, 6);
        for threads in [1, 2, 8] {
            let config = ForestConfig::default();
            let clf = Classifier::fit(&data, FeatureSelection::All, &config, 6, threads, None);
            for (txs, _) in &train {
                assert_eq!(
                    clf.score_transactions(txs).to_bits(),
                    reference.score_transactions(txs).to_bits(),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn importances_are_named_and_normalized() {
        let train = small_corpus(6, 20);
        let data = build_dataset(train.iter().map(|(t, l)| (t.as_slice(), *l)));
        let clf = Classifier::fit_default(&data, 2);
        let imp = clf.feature_importances();
        assert_eq!(imp.len(), 37);
        let total: f64 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(imp[0].1 >= imp.last().unwrap().1, "sorted descending");
        assert!(crate::features::NAMES.contains(&imp[0].0.as_str()));
    }

    #[test]
    #[should_panic(expected = "37-feature")]
    fn fit_validates_width() {
        let d = Dataset::new(vec!["x".into()], 2);
        Classifier::fit(&d, FeatureSelection::All, &ForestConfig::default(), 1, 0, None);
    }
}
