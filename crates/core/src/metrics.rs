//! Latency and throughput metrics.
//!
//! The validation methodology of the paper revolves around load–latency
//! curves (mean and tail) and time series of windowed tail latency (for the
//! power-management study). This module provides:
//!
//! * [`LatencySummary`] — percentiles/mean over a set of samples,
//! * [`LatencyRecorder`] — an accumulating recorder with warmup filtering,
//!   which keeps every sample exactly in about a byte,
//! * [`Ascending`] — the samples of one or more recorders, merged into
//!   ascending order.
//!
//! The windowed series (Fig. 15/16, Table III) are the telemetry sampler's
//! [`TelemetryWindow`](crate::telemetry::TelemetryWindow)s.

use std::borrow::Cow;
use std::hint::select_unpredictable;

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
    /// of them. The sort is unstable, by the total order: latencies are
    /// finite and non-negative, so equal samples are bit-equal and the
    /// sorted copy is the one a stable sort by `partial_cmp` yields.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self::from_sorted(&sorted)
    }

    /// Computes a summary from already-sorted samples.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `sorted` is non-decreasing.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "samples must be sorted"
        );
        Self::from_ascending(sorted.iter().copied())
    }

    /// The summary of every sample the `recorders` hold together: one
    /// [`Ascending`] merge of their runs, bit for bit the summary
    /// [`from_samples`](Self::from_samples) computes over the concatenation
    /// of their samples as `f64` seconds, in any order.
    pub(crate) fn merged<'a>(recorders: impl IntoIterator<Item = &'a LatencyRecorder>) -> Self {
        Self::from_ascending(Ascending::new(recorders))
    }

    /// The one summary loop: nearest-rank percentiles read off the samples
    /// as they pass, the mean as their ascending `f64` sum over the count,
    /// the maximum as the last.
    fn from_ascending(ascending: impl ExactSizeIterator<Item = f64>) -> Self {
        let count = ascending.len();
        if count == 0 {
            return Self::empty();
        }
        let ranks = [0.50, 0.95, 0.99].map(|q| nearest_rank(count, q));
        let mut at_rank = [0.0; 3];
        let (mut i, mut max) = (0, 0.0);
        let sum: f64 = ascending
            .inspect(|&x| {
                for (value, &rank) in at_rank.iter_mut().zip(&ranks) {
                    if i == rank {
                        *value = x;
                    }
                }
                i += 1;
                max = x;
            })
            .sum();
        let [p50, p95, p99] = at_rank;
        LatencySummary {
            count,
            mean: sum / count as f64,
            p50,
            p95,
            p99,
            max,
        }
    }
}

/// The 0-based index of the nearest-rank `q` quantile of `n > 0` sorted
/// samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    (rank.max(1) - 1).min(n - 1)
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
    sorted[nearest_rank(sorted.len(), q)]
}

/// Samples a [`LatencyRecorder`] buffers before it sorts them and seals
/// them as one run: 32 Ki, at most 256 KB of open buffer per recorder.
const RUN_LEN: usize = 1 << 15;

/// Accumulates end-to-end latency samples, ignoring those completed before
/// the warmup deadline.
///
/// Every retained sample is kept exactly, as the whole number of
/// nanoseconds it is. Samples go into an open buffer that grows by
/// doubling; when it holds 32 Ki of them it is sorted and sealed as
/// one *run*: each sample stored as the LEB128 varint of its distance from
/// the one before it, in an exact-size byte slice. A run of latencies a few
/// hundred microseconds apart costs about a byte a sample, against the 8
/// of an `f64` — this is still the one part of a run's memory that grows
/// with its length, so the simulator keeps only two recorders, for the
/// end-to-end latencies of completed and of timed-out requests; anything
/// recorded more often than once per request — per request type, per
/// instance visit — goes into a bounded
/// [`StreamingHistogram`](crate::telemetry::StreamingHistogram) instead.
///
/// Nothing is lost: nanoseconds map to seconds monotonically
/// (`ns as f64 / 1e9`), so the samples merged in ascending order
/// ([`ascending`](Self::ascending)) are the old `f64` samples sorted, and
/// the [`summary`](Self::summary) — percentiles pinned bit for bit by the
/// golden files — is the one [`LatencySummary::from_samples`] computes.
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
/// rec.record(SimTime::from_secs_f64(1.6), SimDuration::from_millis(1));
/// assert_eq!(rec.summary().count, 2);
/// assert_eq!(rec.ascending().collect::<Vec<_>>(), [0.001, 0.002]);
/// ```
#[derive(Clone)]
pub struct LatencyRecorder {
    warmup_until: SimTime,
    /// The sealed runs, in the order they filled.
    runs: Vec<Run>,
    /// Nanoseconds recorded since the last run was sealed, in completion
    /// order.
    open: Vec<u64>,
    dropped_warmup: usize,
}

/// One sealed run: `len` ascending nanosecond counts, each coded as the
/// LEB128 varint of its distance from the one before (the first's from
/// zero).
#[derive(Clone)]
struct Run {
    len: usize,
    bytes: Box<[u8]>,
}

impl Run {
    fn seal(sorted: &[u64]) -> Run {
        let deltas = || {
            sorted.iter().scan(0, |prev, &ns| {
                let delta = ns - *prev;
                *prev = ns;
                Some(delta)
            })
        };
        let mut bytes = Vec::with_capacity(deltas().map(varint_len).sum());
        for mut delta in deltas() {
            while delta >= 0x80 {
                bytes.push(delta as u8 | 0x80);
                delta >>= 7;
            }
            bytes.push(delta as u8);
        }
        Run {
            len: sorted.len(),
            bytes: bytes.into_boxed_slice(),
        }
    }
}

/// Bytes of the LEB128 varint of `v`: one per started 7 bits.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

impl LatencyRecorder {
    /// Creates a recorder that ignores completions before `warmup_until`.
    pub fn new(warmup_until: SimTime) -> Self {
        LatencyRecorder {
            warmup_until,
            runs: Vec::new(),
            open: Vec::new(),
            dropped_warmup: 0,
        }
    }

    /// Records a completion at `now` with the given end-to-end latency.
    pub fn record(&mut self, now: SimTime, latency: SimDuration) {
        if now < self.warmup_until {
            self.dropped_warmup += 1;
            return;
        }
        self.open.push(latency.as_nanos());
        if self.open.len() == RUN_LEN {
            self.seal_open();
        }
    }

    /// Sorts the open buffer where it lies and seals it as a run; the
    /// buffer keeps its capacity for the next one.
    fn seal_open(&mut self) {
        self.open.sort_unstable();
        self.runs.push(Run::seal(&self.open));
        self.open.clear();
    }

    /// Seals what the open buffer holds and frees the buffer: a finished
    /// recorder keeps its runs, about a byte per sample, and nothing else.
    /// Recording afterwards is allowed (the buffer grows again).
    pub(crate) fn finish(&mut self) {
        if !self.open.is_empty() {
            self.seal_open();
        }
        self.open = Vec::new();
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.len).sum::<usize>() + self.open.len()
    }

    /// True if no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of samples discarded as warmup.
    pub fn dropped_warmup(&self) -> usize {
        self.dropped_warmup
    }

    /// Summary over all retained samples: one merge of the runs and a
    /// sorted copy of the open buffer.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::merged([self])
    }

    /// The retained samples (seconds), ascending.
    pub fn ascending(&self) -> Ascending<'_> {
        Ascending::new([self])
    }
}

impl std::fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let coded: usize = self.runs.iter().map(|run| run.bytes.len()).sum();
        f.debug_struct("LatencyRecorder")
            .field("warmup_until", &self.warmup_until)
            .field("len", &self.len())
            .field("runs", &self.runs.len())
            .field("coded_bytes", &coded)
            .field("open", &self.open.len())
            .field("dropped_warmup", &self.dropped_warmup)
            .finish()
    }
}

/// The samples of one or more [`LatencyRecorder`]s, ascending, in seconds
/// ([`LatencyRecorder::ascending`],
/// [`Simulator::latency_samples`](crate::sim::Simulator::latency_samples)).
///
/// A k-way merge of every sealed run, plus a sorted copy of each open
/// buffer sealed on the spot, through a tree of losers: the root holds the
/// smallest unread sample, each inner node the sample that lost the match
/// played there, so taking a sample replays one leaf-to-root path —
/// `⌈log₂ k⌉` comparisons against keys stored in the nodes themselves. It
/// allocates the tree and the copies of open buffers (at most 32 Ki
/// samples each), never the samples it yields.
pub struct Ascending<'a> {
    runs: Vec<Cursor<'a>>,
    /// `tree[0]` is the winner, `tree[n]` for `0 < n < k` the loser at
    /// inner node `n`, whose children are `2n` and `2n + 1`; run `r` is
    /// leaf `k + r`. Each entry is a run's unread sample in nanoseconds
    /// and the run: `u64::MAX` once the run is spent. A real `u64::MAX`
    /// ties with spent runs, which is harmless — exactly `left` more
    /// samples are taken, and any of those runs yields the same value.
    tree: Vec<(u64, usize)>,
    left: usize,
}

/// Read position in one run's varints.
struct Cursor<'a> {
    bytes: Cow<'a, [u8]>,
    pos: usize,
}

impl Cursor<'_> {
    /// The next delta, or `None` at the end of the run.
    #[inline]
    fn delta(&mut self) -> Option<u64> {
        let bytes = &*self.bytes;
        let mut byte = *bytes.get(self.pos)?;
        self.pos += 1;
        let mut delta = u64::from(byte & 0x7f);
        let mut shift = 0;
        while byte >= 0x80 {
            byte = bytes[self.pos];
            self.pos += 1;
            shift += 7;
            delta |= u64::from(byte & 0x7f) << shift;
        }
        Some(delta)
    }
}

impl<'a> Ascending<'a> {
    fn new(recorders: impl IntoIterator<Item = &'a LatencyRecorder>) -> Self {
        let cursor = |bytes| Cursor { bytes, pos: 0 };
        let mut runs = Vec::new();
        let mut left = 0;
        for rec in recorders {
            let sealed = rec
                .runs
                .iter()
                .map(|run| cursor(Cow::Borrowed(&*run.bytes)));
            runs.extend(sealed);
            if !rec.open.is_empty() {
                let mut sorted = rec.open.clone();
                sorted.sort_unstable();
                runs.push(cursor(Cow::Owned(Run::seal(&sorted).bytes.into_vec())));
            }
            left += rec.len();
        }
        // Spent leaves up to a power of two (one at least): every leaf is
        // as deep as the next, so each take replays the same path length.
        runs.resize_with(runs.len().next_power_of_two(), || {
            cursor(Cow::Borrowed(&[]))
        });
        let heads: Vec<(u64, usize)> = runs
            .iter_mut()
            .enumerate()
            .map(|(r, run)| (run.delta().unwrap_or(u64::MAX), r))
            .collect();
        let mut tree = vec![(0, 0); runs.len()];
        tree[0] = play(1, &heads, &mut tree);
        Ascending { runs, tree, left }
    }
}

/// Plays the matches below `node` of the tree over the runs' `heads`,
/// records each match's loser, and returns the winner.
fn play(node: usize, heads: &[(u64, usize)], tree: &mut [(u64, usize)]) -> (u64, usize) {
    let k = heads.len();
    if node >= k {
        return heads[node - k];
    }
    let (a, b) = (play(2 * node, heads, tree), play(2 * node + 1, heads, tree));
    let (winner, loser) = if b.0 < a.0 { (b, a) } else { (a, b) };
    tree[node] = loser;
    winner
}

impl Iterator for Ascending<'_> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (ns, run) = self.tree[0];
        let next = match self.runs[run].delta() {
            Some(delta) => ns + delta,
            None => u64::MAX,
        };
        let mut winner = (next, run);
        let mut node = (run + self.runs.len()) / 2;
        while node > 0 {
            let other = self.tree[node];
            // Which side wins is a coin toss: conditional moves, not a
            // branch the predictor would miss half the time.
            let swap = other.0 < winner.0;
            self.tree[node] = select_unpredictable(swap, winner, other);
            winner = select_unpredictable(swap, other, winner);
            node /= 2;
        }
        self.tree[0] = winner;
        Some(SimDuration::from_nanos(ns).as_secs_f64())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Ascending<'_> {}

impl std::fmt::Debug for Ascending<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ascending")
            .field("runs", &self.runs.len())
            .field("left", &self.left)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// The summary as `from_sorted` computed it before it shared the
    /// streaming loop: a stable `partial_cmp` sort, indexed percentiles,
    /// `Iterator::sum` over the slice.
    fn reference_summary(samples: &[f64]) -> LatencySummary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        if sorted.is_empty() {
            return LatencySummary::empty();
        }
        let count = sorted.len();
        LatencySummary {
            count,
            mean: sorted.iter().sum::<f64>() / count as f64,
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[count - 1],
        }
    }

    fn assert_same_bits(what: &str, a: LatencySummary, b: LatencySummary) {
        assert_eq!(a.count, b.count, "{what}: count");
        for (name, x, y) in [
            ("mean", a.mean, b.mean),
            ("p50", a.p50, b.p50),
            ("p95", a.p95, b.p95),
            ("p99", a.p99, b.p99),
            ("max", a.max, b.max),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name} {x} vs {y}");
        }
    }

    /// `n` latencies as the simulator records them — whole nanoseconds —
    /// spread over six decades.
    fn random_ns(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| 10f64.powf(rng.gen_range(3.0..9.0)) as u64)
            .collect()
    }

    fn recorder_of(ns: &[u64]) -> LatencyRecorder {
        let mut rec = LatencyRecorder::new(SimTime::ZERO);
        for &ns in ns {
            rec.record(SimTime::ZERO, SimDuration::from_nanos(ns));
        }
        rec
    }

    /// The samples the recorder used to keep: completion order, `f64`
    /// seconds.
    fn as_secs(ns: &[u64]) -> Vec<f64> {
        let secs = |&ns| SimDuration::from_nanos(ns).as_secs_f64();
        ns.iter().map(secs).collect()
    }

    /// The recorder's summary and ascending samples against the old `f64`
    /// vector's, bit for bit — before and after [`LatencyRecorder::finish`].
    fn assert_recorder_matches(what: &str, ns: &[u64]) {
        let old = as_secs(ns);
        let want = LatencySummary::from_samples(&old);
        let mut sorted = old.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let mut rec = recorder_of(ns);
        assert_eq!(rec.len(), ns.len(), "{what}: len");
        for stage in ["open", "finished"] {
            assert_same_bits(&format!("{what}, {stage}"), rec.summary(), want);
            let ascending: Vec<f64> = rec.ascending().collect();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(bits(&ascending) == bits(&sorted), "{what}, {stage}: order");
            rec.finish();
        }
        assert_same_bits(what, want, reference_summary(&old));
    }

    #[test]
    fn unstable_sort_yields_the_stable_sorts_summary_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(5);
        let random = as_secs(&random_ns(&mut rng, 100_000));
        let tied = as_secs(
            &(0..100_000)
                .map(|_| rng.gen_range(0..17u64) * 250_000)
                .collect::<Vec<_>>(),
        );
        for samples in [random, tied] {
            assert_same_bits(
                "from_samples",
                LatencySummary::from_samples(&samples),
                reference_summary(&samples),
            );
        }
    }

    /// `finish` sorts the open buffer where it lies; `summary` before it
    /// sorts a copy. Both are the summary of the samples, bit for bit.
    #[test]
    fn sorting_in_place_yields_the_copying_summary_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(6);
        let ns = random_ns(&mut rng, RUN_LEN / 2);
        let mut rec = recorder_of(&ns);
        let copying = rec.summary();
        assert_eq!(rec.open, ns, "`summary` leaves the open buffer alone");
        rec.finish();
        assert!(rec.open.is_empty() && rec.open.capacity() == 0);
        assert_eq!(rec.runs.len(), 1);
        assert_eq!(rec.summary(), copying);
        assert_same_bits("in place", copying, reference_summary(&as_secs(&ns)));
    }

    #[test]
    fn empty_and_single_sample_recorders_summarize_like_the_vector() {
        assert_recorder_matches("empty", &[]);
        assert_eq!(recorder_of(&[]).summary(), LatencySummary::empty());
        assert_recorder_matches("one", &[123_456]);
        assert_recorder_matches("one zero", &[0]);
    }

    #[test]
    fn runs_either_side_of_the_run_length_summarize_like_the_vector() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [RUN_LEN - 1, RUN_LEN, RUN_LEN + 1, 3 * RUN_LEN + 17] {
            let ns = random_ns(&mut rng, n);
            assert_recorder_matches(&format!("{n} samples"), &ns);
            let rec = recorder_of(&ns);
            assert_eq!(rec.runs.len(), n / RUN_LEN, "{n}: sealed runs");
            assert_eq!(rec.open.len(), n % RUN_LEN, "{n}: open");
        }
    }

    #[test]
    fn ties_and_zeros_summarize_like_the_vector() {
        let mut rng = SmallRng::seed_from_u64(8);
        let tied: Vec<u64> = (0..2 * RUN_LEN + 5)
            .map(|_| rng.gen_range(0..17u64) * 250_000)
            .collect();
        assert_recorder_matches("17 values", &tied);
        assert_recorder_matches("all zero", &vec![0; RUN_LEN + 3]);
        assert_recorder_matches("all equal", &vec![987_654_321; 2 * RUN_LEN]);
    }

    /// Saturated sweeps reach latencies of seconds and more.
    #[test]
    fn latencies_above_four_seconds_summarize_like_the_vector() {
        let mut rng = SmallRng::seed_from_u64(9);
        let long: Vec<u64> = (0..RUN_LEN + 1_000)
            .map(|_| (1u64 << 32) + rng.gen_range(0..1u64 << 40))
            .collect();
        assert_recorder_matches("above 2^32 ns", &long);
    }

    /// The widest delta, `u64::MAX` from zero, is a 10-byte varint; a
    /// real `u64::MAX` also ties with the merge's spent-run sentinel.
    #[test]
    fn ten_byte_varints_round_trip() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(0x7f), 1);
        assert_eq!(varint_len(0x80), 2);
        assert_eq!(varint_len(u64::MAX), 10);
        let extremes = [u64::MAX, 0, 1 << 35, u64::MAX, 0];
        assert_recorder_matches("extremes", &extremes);
        let mut rec = recorder_of(&extremes);
        rec.finish();
        // Deltas 0, 0 (1 B each), 2^35 (6 B), 2^64 - 1 - 2^35 (10 B), 0.
        assert_eq!(rec.runs[0].bytes.len(), 1 + 1 + 6 + 10 + 1);
        let mut lone = recorder_of(&[u64::MAX]);
        lone.finish();
        assert_eq!(lone.runs[0].bytes.len(), 10);
        assert_recorder_matches("u64::MAX alone", &[u64::MAX]);
        let mut rng = SmallRng::seed_from_u64(10);
        let mut wide = random_ns(&mut rng, RUN_LEN + 9);
        wide.extend([u64::MAX; 3]);
        wide.extend([0; 3]);
        let mut merged = vec![recorder_of(&wide), recorder_of(&[u64::MAX, 5])];
        merged[0].finish();
        let all: Vec<u64> = wide.iter().chain(&[u64::MAX, 5]).copied().collect();
        assert_same_bits(
            "u64::MAX across runs",
            LatencySummary::merged(&merged),
            LatencySummary::from_samples(&as_secs(&all)),
        );
    }

    #[test]
    fn a_summary_mid_run_leaves_the_recorder_recording() {
        let mut rng = SmallRng::seed_from_u64(11);
        let ns = random_ns(&mut rng, 2 * RUN_LEN + 300);
        let mut rec = LatencyRecorder::new(SimTime::ZERO);
        for (i, &x) in ns.iter().enumerate() {
            rec.record(SimTime::ZERO, SimDuration::from_nanos(x));
            if [0, 99, RUN_LEN - 1, RUN_LEN + 50, ns.len() - 1].contains(&i) {
                let so_far = LatencySummary::from_samples(&as_secs(&ns[..=i]));
                assert_same_bits(&format!("after {}", i + 1), rec.summary(), so_far);
            }
        }
        assert_recorder_matches("whole run", &ns);
    }

    /// What `merge_results` does with the cells' recorders.
    #[test]
    fn merging_recorders_summarizes_their_concatenation() {
        let mut rng = SmallRng::seed_from_u64(12);
        for cells in [1, 2, 30] {
            let parts: Vec<Vec<u64>> = (0..cells)
                .map(|c| {
                    let n = rng.gen_range(0..3 * RUN_LEN / 2) + usize::from(c % 7 == 0) * RUN_LEN;
                    random_ns(&mut rng, n)
                })
                .collect();
            let mut recs: Vec<LatencyRecorder> = parts.iter().map(|p| recorder_of(p)).collect();
            let all = as_secs(&parts.concat());
            let want = LatencySummary::from_samples(&all);
            assert_same_bits(
                &format!("{cells} open"),
                LatencySummary::merged(&recs),
                want,
            );
            recs.iter_mut().for_each(LatencyRecorder::finish);
            assert_same_bits(
                &format!("{cells} sealed"),
                LatencySummary::merged(&recs),
                want,
            );
            assert_eq!(Ascending::new(&recs).len(), all.len());
        }
    }

    /// Latencies a few hundred microseconds apart cost about a byte each
    /// once sealed.
    #[test]
    fn a_sealed_run_costs_about_a_byte_a_sample() {
        let mut rng = SmallRng::seed_from_u64(13);
        let ns: Vec<u64> = (0..4 * RUN_LEN)
            .map(|_| 150_000 + rng.gen_range(0..400_000u64))
            .collect();
        let rec = recorder_of(&ns);
        let coded: usize = rec.runs.iter().map(|run| run.bytes.len()).sum();
        assert!(coded as f64 / ns.len() as f64 <= 1.1, "{coded} B");
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
