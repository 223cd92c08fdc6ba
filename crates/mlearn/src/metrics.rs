//! Binary-classification metrics: confusion counts, rates, F-score, ROC
//! curves, and AUC.

use serde::{Deserialize, Serialize};

/// Confusion counts for a binary problem with a designated positive class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// Positive samples predicted positive.
    pub tp: usize,
    /// Negative samples predicted positive.
    pub fp: usize,
    /// Negative samples predicted negative.
    pub tn: usize,
    /// Positive samples predicted negative.
    pub fn_: usize,
}

impl Confusion {
    /// Builds confusion counts from parallel label/prediction slices.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length.
    pub fn from_predictions(labels: &[usize], predictions: &[usize], positive: usize) -> Self {
        assert_eq!(labels.len(), predictions.len(), "length mismatch");
        let mut c = Confusion::default();
        for (&l, &p) in labels.iter().zip(predictions) {
            c.record(l == positive, p == positive);
        }
        c
    }

    /// Records a single `(label, predicted)` outcome.
    pub fn record(&mut self, label: bool, predicted: bool) {
        match (label, predicted) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// True-positive rate (recall): `tp / (tp + fn)`.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// False-positive rate: `fp / (fp + tn)`.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// Precision: `tp / (tp + fp)`.
    pub(crate) fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// F1 score: harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One operating point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Score threshold at or above which samples are called positive.
    pub threshold: f64,
    /// False-positive rate at this threshold.
    pub fpr: f64,
    /// True-positive rate at this threshold.
    pub tpr: f64,
}

/// Computes the ROC curve from positive-class scores and true labels
/// (`true` = positive). Points are ordered by increasing FPR, starting at
/// `(0,0)` and ending at `(1,1)`.
///
/// # Panics
///
/// Panics when the slices differ in length or are empty.
pub fn roc_curve(scores: &[f64], labels: &[bool]) -> Vec<RocPoint> {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    assert!(!scores.is_empty(), "need at least one sample");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let pos_total = labels.iter().filter(|&&l| l).count();
    let neg_total = labels.len() - pos_total;
    let mut points = vec![RocPoint { threshold: f64::INFINITY, fpr: 0.0, tpr: 0.0 }];
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0usize;
    while i < order.len() {
        let threshold = scores[order[i]];
        // Consume all samples tied at this score.
        while i < order.len() && scores[order[i]] == threshold {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            threshold,
            fpr: ratio(fp, neg_total),
            tpr: ratio(tp, pos_total),
        });
    }
    points
}

/// Area under the ROC curve of `scores` against `labels`, by
/// trapezoidal integration over [`roc_curve`].
pub(crate) fn roc_auc(scores: &[f64], labels: &[bool]) -> f64 {
    roc_curve(scores, labels)
        .windows(2)
        .map(|w| (w[1].fpr - w[0].fpr) * (w[0].tpr + w[1].tpr) / 2.0)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts_and_rates() {
        let labels = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0];
        let preds = [1, 1, 0, 0, 0, 0, 0, 0, 0, 1];
        let c = Confusion::from_predictions(&labels, &preds, 1);
        assert_eq!((c.tp, c.fn_, c.fp, c.tn), (2, 1, 1, 6));
        assert!((c.tpr() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.fpr() - 1.0 / 7.0).abs() < 1e-12);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_confusions_do_not_divide_by_zero() {
        let c = Confusion::default();
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn perfect_separation_auc_is_one() {
        let scores = [0.9, 0.8, 0.7, 0.3, 0.2, 0.1];
        let labels = [true, true, true, false, false, false];
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_scores_auc_is_zero() {
        let scores = [0.1, 0.2, 0.9, 0.8];
        let labels = [true, true, false, false];
        assert!(roc_auc(&scores, &labels).abs() < 1e-12);
    }

    #[test]
    fn random_ties_auc_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn curve_endpoints() {
        let scores = [0.9, 0.1];
        let labels = [true, false];
        let curve = roc_curve(&scores, &labels);
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn curve_is_monotonic() {
        let scores = [0.9, 0.85, 0.6, 0.55, 0.5, 0.4, 0.3];
        let labels = [true, false, true, true, false, true, false];
        let curve = roc_curve(&scores, &labels);
        for w in curve.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
    }

    #[test]
    fn record_counts_one_outcome_at_a_time() {
        let mut c = Confusion::default();
        for (label, predicted) in [(true, true), (true, false), (false, true), (false, false)] {
            c.record(label, predicted);
        }
        assert_eq!((c.tp, c.fn_, c.fp, c.tn), (1, 1, 1, 1));
        c.record(false, false);
        assert_eq!(c.tpr(), 0.5);
        assert!((c.fpr() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_auc_value() {
        // scores: pos {0.8, 0.4}, neg {0.6, 0.2}: pairs ranked correctly
        // 3 of 4 → AUC = 0.75.
        let scores = [0.8, 0.4, 0.6, 0.2];
        let labels = [true, true, false, false];
        assert!((roc_auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }
}
