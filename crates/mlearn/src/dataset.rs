//! Feature-matrix container with named columns and integer class labels.

use serde::{Deserialize, Serialize};

/// A supervised dataset: row-major feature matrix plus one class label per
/// row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
    n_classes: usize,
}

impl Dataset {
    /// Creates an empty dataset with the given feature names and class
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes` is zero or no feature is named.
    pub fn new(feature_names: Vec<String>, n_classes: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        assert!(!feature_names.is_empty(), "need at least one feature");
        Dataset { feature_names, rows: Vec::new(), labels: Vec::new(), n_classes }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics when the row width or the label is out of range, or when a
    /// feature value is NaN (NaNs would silently poison split search).
    pub fn push(&mut self, row: Vec<f64>, label: usize) {
        assert_eq!(row.len(), self.feature_names.len(), "row width mismatch");
        assert!(label < self.n_classes, "label {label} out of range");
        assert!(row.iter().all(|v| !v.is_nan()), "NaN feature value");
        self.rows.push(row);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature names in column order.
    pub(crate) fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Feature row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// Label of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// A new dataset containing the rows at `indices` (cloned), preserving
    /// order and duplicates — the shape bootstrap sampling needs.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            feature_names: self.feature_names.clone(),
            rows: indices.iter().map(|&i| self.rows[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// A new dataset keeping only the feature columns at `columns` (in the
    /// given order). Used for the paper's feature-group ablation.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of bounds or `columns` is empty.
    pub fn select_features(&self, columns: &[usize]) -> Dataset {
        assert!(!columns.is_empty(), "need at least one column");
        Dataset {
            feature_names: columns.iter().map(|&c| self.feature_names[c].clone()).collect(),
            rows: self
                .rows
                .iter()
                .map(|r| columns.iter().map(|&c| r[c]).collect())
                .collect(),
            labels: self.labels.clone(),
            n_classes: self.n_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], 2);
        d.push(vec![1.0, 10.0], 0);
        d.push(vec![2.0, 20.0], 1);
        d.push(vec![3.0, 30.0], 1);
        d
    }

    #[test]
    fn push_and_access() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(1), &[2.0, 20.0]);
        assert_eq!(d.label(2), 1);
        assert_eq!(d.labels(), [0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_is_validated() {
        sample().push(vec![1.0], 0);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn label_is_validated() {
        sample().push(vec![0.0, 0.0], 5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        sample().push(vec![f64::NAN, 0.0], 0);
    }

    #[test]
    fn subset_preserves_duplicates_and_order() {
        let d = sample();
        let s = d.subset(&[2, 0, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.row(0), &[3.0, 30.0]);
        assert_eq!(s.row(1), &[1.0, 10.0]);
        assert_eq!(s.labels(), &[1, 0, 1]);
    }

    #[test]
    fn select_features_projects_columns() {
        let d = sample();
        let p = d.select_features(&[1]);
        assert_eq!(p.n_features(), 1);
        assert_eq!(p.feature_names(), ["b"]);
        assert_eq!(p.row(0), &[10.0]);
        assert_eq!(p.labels(), d.labels());
    }
}
