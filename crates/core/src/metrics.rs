//! Latency and throughput metrics.
//!
//! The validation methodology of the paper revolves around load–latency
//! curves (mean and tail) and time series of windowed tail latency (for the
//! power-management study). This module provides:
//!
//! * [`LatencySummary`] — percentiles/mean over a set of samples,
//! * [`LatencyRecorder`] — an accumulating recorder with warmup filtering.
//!
//! The windowed series (Fig. 15/16, Table III) are the telemetry sampler's
//! [`TelemetryWindow`](crate::telemetry::TelemetryWindow)s.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Summary statistics over a batch of latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median (p50), seconds.
    pub p50: f64,
    /// 95th percentile, seconds.
    pub p95: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Maximum observed, seconds.
    pub max: f64,
}

impl LatencySummary {
    /// The empty summary (all zeros).
    pub fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        }
    }

    /// Computes a summary from unsorted samples (seconds), sorting a copy
    /// of them; [`sort_and_summarize`](Self::sort_and_summarize) is the
    /// same summary, bit for bit, for a caller that can give up the order.
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::sort_and_summarize(&mut samples.to_vec())
    }

    /// Sorts `samples` (seconds) in place and computes their summary,
    /// copying nothing: at 8 bytes a sample, the copy [`from_samples`]
    /// sorts is as large as everything a long run has kept. The sort is
    /// unstable, by the total order: latencies are finite and
    /// non-negative, so equal samples are bit-equal and the sorted slice
    /// is the one a stable sort by `partial_cmp` yields.
    ///
    /// [`from_samples`]: Self::from_samples
    pub fn sort_and_summarize(samples: &mut [f64]) -> Self {
        samples.sort_unstable_by(f64::total_cmp);
        Self::from_sorted(samples)
    }

    /// Computes a summary from already-sorted samples.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `sorted` is non-decreasing.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        if sorted.is_empty() {
            return Self::empty();
        }
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "samples must be sorted"
        );
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        LatencySummary {
            count,
            mean,
            p50: percentile_sorted(sorted, 0.50),
            p95: percentile_sorted(sorted, 0.95),
            p99: percentile_sorted(sorted, 0.99),
            max: sorted[count - 1],
        }
    }
}

/// Nearest-rank percentile (the convention used by wrk2 and most tail-latency
/// reporting): the smallest sample such that at least `q` of the samples are
/// ≤ it.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

/// Accumulates end-to-end latency samples, ignoring those completed before
/// the warmup deadline.
///
/// Every retained sample is kept, exactly, as an `f64` — 8 bytes per
/// measured request, the one part of a run's memory that grows with its
/// length. That is the price of percentiles that are exact (and pinned
/// bit for bit by the golden files), so the simulator keeps only two of
/// these, for the end-to-end latencies of completed and of timed-out
/// requests; anything recorded more often than once per request — per
/// request type, per instance visit — goes into a bounded
/// [`StreamingHistogram`](crate::telemetry::StreamingHistogram) instead.
///
/// # Examples
///
/// ```
/// use uqsim_core::metrics::LatencyRecorder;
/// use uqsim_core::time::{SimDuration, SimTime};
///
/// let mut rec = LatencyRecorder::new(SimTime::from_secs_f64(1.0));
/// rec.record(SimTime::from_secs_f64(0.5), SimDuration::from_millis(9)); // warmup: dropped
/// rec.record(SimTime::from_secs_f64(1.5), SimDuration::from_millis(2));
/// assert_eq!(rec.summary().count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    warmup_until: SimTime,
    samples: Vec<f64>,
    dropped_warmup: usize,
}

impl LatencyRecorder {
    /// Creates a recorder that ignores completions before `warmup_until`.
    pub fn new(warmup_until: SimTime) -> Self {
        LatencyRecorder {
            warmup_until,
            samples: Vec::new(),
            dropped_warmup: 0,
        }
    }

    /// Records a completion at `now` with the given end-to-end latency.
    pub fn record(&mut self, now: SimTime, latency: SimDuration) {
        if now < self.warmup_until {
            self.dropped_warmup += 1;
            return;
        }
        self.samples.push(latency.as_secs_f64());
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples discarded as warmup.
    pub fn dropped_warmup(&self) -> usize {
        self.dropped_warmup
    }

    /// Summary over all retained samples (sorts a copy of them).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.samples)
    }

    /// [`summary`](Self::summary) without the copy: sorts the retained
    /// samples where they are, so from here on [`samples`](Self::samples)
    /// and [`into_samples`](Self::into_samples) hand them out ascending.
    pub fn sort_and_summarize(&mut self) -> LatencySummary {
        LatencySummary::sort_and_summarize(&mut self.samples)
    }

    /// Raw retained samples (seconds), in completion order — ascending
    /// once [`sort_and_summarize`](Self::sort_and_summarize) has run.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The retained samples, moved out.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&xs, 0.50), 50.0);
        assert_eq!(percentile_sorted(&xs, 0.99), 99.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 100.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_small_samples() {
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 0.51), 2.0);
    }

    #[test]
    fn summary_from_samples() {
        let s = LatencySummary::from_samples(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 4.0);
    }

    /// The stable `partial_cmp` sort `from_samples` used to make.
    fn summary_by_stable_sort(samples: &[f64]) -> LatencySummary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        LatencySummary::from_sorted(&sorted)
    }

    fn assert_same_bits(a: LatencySummary, b: LatencySummary) {
        assert_eq!(a.count, b.count);
        for (x, y) in [
            (a.mean, b.mean),
            (a.p50, b.p50),
            (a.p95, b.p95),
            (a.p99, b.p99),
            (a.max, b.max),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// 100,000 latencies as the recorder stores them — nanosecond counts in
    /// seconds, spread over six decades — and 100,000 heavily tied ones:
    /// 17 distinct values, zero included.
    fn random_and_tied() -> [Vec<f64>; 2] {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let random = (0..100_000)
            .map(|_| {
                let ns = 10f64.powf(rng.gen_range(3.0..9.0)) as u64;
                SimDuration::from_nanos(ns).as_secs_f64()
            })
            .collect();
        let tied = (0..100_000)
            .map(|_| SimDuration::from_nanos(rng.gen_range(0..17u64) * 250_000).as_secs_f64())
            .collect();
        [random, tied]
    }

    #[test]
    fn unstable_sort_yields_the_stable_sorts_summary_bit_for_bit() {
        for samples in &random_and_tied() {
            assert_same_bits(
                LatencySummary::from_samples(samples),
                summary_by_stable_sort(samples),
            );
        }
    }

    /// What a finished cell does to its recorder: the summary of the
    /// samples sorted where they lie is the one `summary` gets from a
    /// sorted copy, and what is left is the same samples, ascending.
    #[test]
    fn sorting_in_place_yields_the_copying_summary_bit_for_bit() {
        for samples in random_and_tied() {
            let mut rec = LatencyRecorder::new(SimTime::ZERO);
            rec.samples.clone_from(&samples);
            let copying = rec.summary();
            assert_eq!(rec.samples(), samples, "`summary` leaves the order alone");
            let in_place = rec.sort_and_summarize();
            assert_eq!(in_place, copying);
            assert_same_bits(in_place, summary_by_stable_sort(&samples));
            let mut sorted = samples;
            sorted.sort_unstable_by(f64::total_cmp);
            assert_eq!(rec.into_samples(), sorted);
        }
    }

    #[test]
    fn summary_percentiles_monotone() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64) * 1e-6).collect();
        let s = LatencySummary::from_samples(&xs);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn recorder_drops_warmup() {
        let mut rec = LatencyRecorder::new(SimTime::from_secs_f64(1.0));
        rec.record(SimTime::from_secs_f64(0.9), SimDuration::from_millis(100));
        rec.record(SimTime::from_secs_f64(1.0), SimDuration::from_millis(1));
        rec.record(SimTime::from_secs_f64(2.0), SimDuration::from_millis(3));
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped_warmup(), 1);
        let s = rec.summary();
        assert!((s.mean - 0.002).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_all_zero() {
        let s = LatencySummary::from_samples(&[]);
        assert_eq!(s, LatencySummary::empty());
        assert_eq!(s.count, 0);
    }
}
