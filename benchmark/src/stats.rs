//! Median and quartiles of a sample set, plus the named-sample store the
//! two passes push into.

use std::collections::BTreeMap;

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median — the spread figure
    /// the regression bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `k`-th quartile cut (`k` in 1..=3) of ascending `sorted`, by the
/// same rule as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), so a spread printed here matches one computed from the
/// result files with the standard library.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let len = sorted.len();
    if len < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let m = len + 1;
    let j = (k * m / 4).clamp(1, len - 1);
    let delta = (k * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarizes `samples`; an empty set is all zeros with `n = 0`.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        median: quartile(&sorted, 2),
        q1: quartile(&sorted, 1),
        q3: quartile(&sorted, 3),
    }
}

/// Samples by metric name, in name order.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn summary(&self, name: &str) -> Summary {
        summarize(self.get(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = summarize(&[5.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
    }

    #[test]
    fn degenerate_sets_do_not_panic() {
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(summarize(&[]).median, 0.0);
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(one.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
