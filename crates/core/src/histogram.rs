//! Empirical processing-time histograms.
//!
//! The paper's simulator consumes per-stage processing-time PDFs collected by
//! instrumenting real applications (Table I, "histograms"). We reproduce the
//! same input format: a list of `(upper_bound_seconds, probability)` bins,
//! sampled by inverse-CDF lookup with uniform interpolation inside a bin.
//! Histograms are serializable so they can be shipped alongside the JSON
//! configuration files, and can also be *collected* from any stream of
//! samples (e.g. to turn a parametric model into the histogram code path, or
//! to re-profile a simulated stage).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// An empirical distribution over non-negative durations (seconds).
///
/// Bins are half-open intervals `(lower, upper]`; the first bin starts at
/// `start`. Sampling picks a bin proportionally to its probability mass and
/// draws uniformly within the bin.
///
/// # Examples
///
/// ```
/// use uqsim_core::histogram::Histogram;
///
/// // 50/50 mix of ~10us and ~100us processing times.
/// let h = Histogram::from_bins(0.0, vec![(10e-6, 0.5), (100e-6, 0.5)]).unwrap();
/// assert!((h.mean() - 30e-6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "HistogramRepr")]
pub struct Histogram {
    /// Lower bound of the first bin, in seconds.
    start: f64,
    /// `(upper_bound_seconds, probability)` per bin; upper bounds strictly
    /// increasing; probabilities sum to 1.
    bins: Vec<(f64, f64)>,
    /// Precomputed cumulative probabilities, same length as `bins`.
    #[serde(skip)]
    cdf: Vec<f64>,
}

/// The serialized shape of a [`Histogram`]; deserialization goes through
/// [`Histogram::from_bins`] so the cumulative table is always rebuilt and
/// the invariants re-checked.
#[derive(Debug, Deserialize)]
struct HistogramRepr {
    start: f64,
    bins: Vec<(f64, f64)>,
}

impl TryFrom<HistogramRepr> for Histogram {
    type Error = HistogramError;

    fn try_from(raw: HistogramRepr) -> Result<Self, Self::Error> {
        Histogram::from_bins(raw.start, raw.bins)
    }
}

/// Error building a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramError(String);

impl std::fmt::Display for HistogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid histogram: {}", self.0)
    }
}

impl std::error::Error for HistogramError {}

impl Histogram {
    /// Builds a histogram from a starting lower bound and
    /// `(upper_bound, probability)` bins.
    ///
    /// # Errors
    ///
    /// Returns an error if bins are empty, bounds are not strictly
    /// increasing and non-negative, any probability is negative, or the
    /// probabilities do not sum to 1 (within 1e-6; they are renormalized).
    pub fn from_bins(start: f64, bins: Vec<(f64, f64)>) -> Result<Self, HistogramError> {
        if bins.is_empty() {
            return Err(HistogramError("no bins".into()));
        }
        if !(start.is_finite() && start >= 0.0) {
            return Err(HistogramError(format!("bad start bound {start}")));
        }
        let mut prev = start;
        let mut total = 0.0;
        for &(ub, p) in &bins {
            if !(ub.is_finite() && ub > prev) {
                return Err(HistogramError(format!(
                    "bin upper bound {ub} not strictly greater than {prev}"
                )));
            }
            if !(p.is_finite() && p >= 0.0) {
                return Err(HistogramError(format!("bad probability {p}")));
            }
            prev = ub;
            total += p;
        }
        if total <= 0.0 || (total - 1.0).abs() > 1e-6 {
            return Err(HistogramError(format!(
                "probabilities sum to {total}, expected 1"
            )));
        }
        let mut bins = bins;
        for b in &mut bins {
            b.1 /= total;
        }
        let mut h = Histogram {
            start,
            bins,
            cdf: Vec::new(),
        };
        h.rebuild_cdf();
        Ok(h)
    }

    /// Builds an equal-width histogram from raw samples (seconds).
    ///
    /// # Errors
    ///
    /// Returns an error if `samples` is empty, contains non-finite or
    /// negative values, or `num_bins` is zero.
    pub fn from_samples(samples: &[f64], num_bins: usize) -> Result<Self, HistogramError> {
        if samples.is_empty() {
            return Err(HistogramError("no samples".into()));
        }
        if num_bins == 0 {
            return Err(HistogramError("num_bins must be > 0".into()));
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &s in samples {
            if !s.is_finite() || s < 0.0 {
                return Err(HistogramError(format!("bad sample {s}")));
            }
            lo = lo.min(s);
            hi = hi.max(s);
        }
        if hi <= lo {
            // Degenerate: all samples identical; one narrow bin around it.
            let eps = (lo.abs() * 1e-6).max(1e-12);
            return Histogram::from_bins((lo - eps).max(0.0), vec![(lo + eps, 1.0)]);
        }
        let width = (hi - lo) / num_bins as f64;
        let mut counts = vec![0u64; num_bins];
        for &s in samples {
            let mut idx = ((s - lo) / width) as usize;
            if idx >= num_bins {
                idx = num_bins - 1;
            }
            counts[idx] += 1;
        }
        let n = samples.len() as f64;
        let bins = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (lo + width * (i + 1) as f64, c as f64 / n))
            .collect();
        Histogram::from_bins(lo, bins)
    }

    /// Rebuilds the cumulative table (called by `from_bins`).
    fn rebuild_cdf(&mut self) {
        let mut acc = 0.0;
        self.cdf = self
            .bins
            .iter()
            .map(|&(_, p)| {
                acc += p;
                acc
            })
            .collect();
        if let Some(last) = self.cdf.last_mut() {
            *last = 1.0;
        }
    }

    /// Draws one value (seconds) from the empirical distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        debug_assert_eq!(self.cdf.len(), self.bins.len(), "cdf not rebuilt");
        let u: f64 = rng.gen();
        let idx = match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.bins.len() - 1),
            Err(i) => i.min(self.bins.len() - 1),
        };
        let lower = if idx == 0 {
            self.start
        } else {
            self.bins[idx - 1].0
        };
        let upper = self.bins[idx].0;
        lower + (upper - lower) * rng.gen::<f64>()
    }

    /// Expected value assuming uniform mass within each bin.
    pub fn mean(&self) -> f64 {
        let mut prev = self.start;
        let mut acc = 0.0;
        for &(ub, p) in &self.bins {
            acc += p * (prev + ub) / 2.0;
            prev = ub;
        }
        acc
    }

    /// Lower bound of the support.
    pub fn min_value(&self) -> f64 {
        self.start
    }

    /// Upper bound of the support.
    pub fn max_value(&self) -> f64 {
        self.bins.last().expect("histogram has bins").0
    }

    /// Returns a copy with every bound multiplied by `factor` (used to model
    /// frequency scaling when only a reference-frequency profile exists).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> Histogram {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        let bins = self.bins.iter().map(|&(ub, p)| (ub * factor, p)).collect();
        Histogram::from_bins(self.start * factor, bins).expect("scaling preserves validity")
    }

    /// The `(upper_bound, probability)` bins.
    pub fn bins(&self) -> &[(f64, f64)] {
        &self.bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn rng() -> rand::rngs::SmallRng {
        RngFactory::new(1234).stream("hist", 0)
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Histogram::from_bins(0.0, vec![]).is_err());
        assert!(Histogram::from_bins(0.0, vec![(1.0, 0.5)]).is_err()); // sums to 0.5
        assert!(Histogram::from_bins(0.0, vec![(1.0, 0.5), (0.5, 0.5)]).is_err()); // not increasing
        assert!(Histogram::from_bins(0.0, vec![(1.0, -1.0), (2.0, 2.0)]).is_err());
        assert!(Histogram::from_bins(-1.0, vec![(1.0, 1.0)]).is_err());
    }

    #[test]
    fn samples_stay_in_support() {
        let h = Histogram::from_bins(1e-6, vec![(2e-6, 0.25), (4e-6, 0.75)]).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            let s = h.sample(&mut r);
            assert!((1e-6..=4e-6).contains(&s), "sample {s} out of support");
        }
    }

    #[test]
    fn sample_mean_matches_analytic_mean() {
        let h = Histogram::from_bins(0.0, vec![(10e-6, 0.5), (100e-6, 0.5)]).unwrap();
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| h.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - h.mean()).abs() / h.mean() < 0.02);
    }

    #[test]
    fn from_samples_roundtrips_mean() {
        let mut r = rng();
        let samples: Vec<f64> = (0..50_000)
            .map(|_| crate::dist::sample_exponential(&mut r, 1e-3))
            .collect();
        let emp_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let h = Histogram::from_samples(&samples, 200).unwrap();
        assert!((h.mean() - emp_mean).abs() / emp_mean < 0.05);
    }

    #[test]
    fn from_samples_degenerate_constant() {
        let h = Histogram::from_samples(&[5e-6, 5e-6, 5e-6], 10).unwrap();
        assert!((h.mean() - 5e-6).abs() < 1e-9);
    }

    #[test]
    fn scaling_scales_mean() {
        let h = Histogram::from_bins(0.0, vec![(10e-6, 1.0)]).unwrap();
        let h2 = h.scaled(2.0);
        assert!((h2.mean() - 2.0 * h.mean()).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip_rebuilds_cdf() {
        // Deserialization must yield a directly usable histogram: the CDF
        // is rebuilt by the try_from conversion, no manual step needed.
        let h = Histogram::from_bins(0.0, vec![(1e-6, 0.3), (2e-6, 0.7)]).unwrap();
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(back.sample(&mut r) <= 2e-6);
        }
    }

    #[test]
    fn serde_rejects_invalid_histograms() {
        let err = serde_json::from_str::<Histogram>(r#"{"start": 0.0, "bins": [[1.0, 0.5]]}"#);
        assert!(
            err.is_err(),
            "probabilities summing to 0.5 must be rejected"
        );
    }

    #[test]
    fn renormalizes_tiny_drift() {
        let h = Histogram::from_bins(0.0, vec![(1.0, 0.5 + 2e-7), (2.0, 0.5)]).unwrap();
        let total: f64 = h.bins().iter().map(|b| b.1).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
