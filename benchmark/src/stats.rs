//! Order statistics over the timed passes of one run.

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them,
/// so a result file and the acceptance script agree on the spread.
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Quartiles {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of `values`; a single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample: every metric is taken over at least one pass.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
        samples: n,
    }
}

/// The quartile of `values` on the low side: of times, the quarter of
/// samples the host disturbed least.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quartiles(values).q1
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The `p`-th percentile (0–100) by nearest rank over a sorted copy.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work on this workload reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
    }
}
