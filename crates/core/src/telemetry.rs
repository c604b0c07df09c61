//! Live telemetry: streaming histograms, latency decomposition, periodic
//! sampling, and Prometheus/CSV/JSON export.
//!
//! This is the observability layer on top of the raw recorders in
//! [`crate::metrics`]. It is organized as two channels:
//!
//! 1. **Aggregates** — a [`MetricsRegistry`] snapshot of counters, gauges,
//!    and summaries assembled on demand from the simulator's accumulators
//!    and from bounded-memory [`StreamingHistogram`]s (HDR-style log-linear
//!    buckets, mergeable, no per-sample storage). Each family declares how
//!    it merges across a run's cells, and the Prometheus text and a cell's
//!    JSON dump both render from the registry.
//! 2. **Time series** — a periodic sampler event
//!    ([`crate::event::EventKind::TelemetrySample`]) that, at a fixed
//!    simulated interval, closes a windowed-latency summary
//!    ([`TelemetryWindow`]) and snapshots per-instance queue depth,
//!    utilization, thread occupancy, connection-pool saturation, and
//!    network-irq utilization into a [`SeriesSet`].
//!
//! Both are functions of the simulated run alone: the layer reads no wall
//! clock, so every export is byte-reproducible across machines. How fast
//! the simulator itself runs is the caller's to time (`uqsim top` times
//! its own frames).
//!
//! The whole layer follows the span-log discipline: the simulator holds an
//! `Option<Box<TelemetryState>>`, every hot-path hook is a single
//! `is_none()` branch when disabled, and nothing is allocated until
//! [`Simulator::enable_telemetry`](crate::Simulator::enable_telemetry) is called.
//!
//! # Latency decomposition
//!
//! Each live request carries an *attribution frontier* (`mark`): at every
//! event that advances the request, the elapsed `[mark, now]` interval is
//! charged to the [`LatencyComponent`] of the event that closed it and the
//! frontier moves to `now`. Because the charges telescope from submission
//! to completion, the components sum to the end-to-end latency **exactly**
//! (integer nanoseconds, no rounding). The attribution is critical-path
//! biased: when branches run in parallel, whichever branch's event fires
//! next advances the shared frontier, so sibling work overlapping it is
//! folded into the component of the event that happened to close each
//! interval. Fan-in synchronization stalls (the wait for the slowest
//! sibling at a merge node) are charged to
//! [`LatencyComponent::FanInSync`].

use crate::metrics::LatencySummary;
use crate::run::RunResult;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

// ---------------------------------------------------------------------
// Streaming histogram
// ---------------------------------------------------------------------

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power of two,
/// bounding the relative quantile error at 1/32 ≈ 3.1%.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Bucket index for a nanosecond value. Pure integer bit arithmetic — no
/// floating point — so bucketing is identical on every platform, which the
/// byte-stable Prometheus golden test relies on.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let shift = msb - u64::from(SUB_BITS);
        (shift * SUB_BUCKETS + SUB_BUCKETS + ((v >> shift) & (SUB_BUCKETS - 1))) as usize
    }
}

/// Largest value contained in bucket `idx` (inclusive).
pub(crate) fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        idx
    } else {
        let octave = (idx - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (idx - SUB_BUCKETS) % SUB_BUCKETS;
        ((SUB_BUCKETS + sub + 1) << octave) - 1
    }
}

/// A bounded-memory, mergeable, HDR-style log-linear histogram over
/// nanosecond values.
///
/// Values below 32 ns get exact unit buckets; above that, each power of
/// two is split into 32 linear sub-buckets, so any reported quantile `q̂`
/// satisfies `q ≤ q̂ ≤ q · (1 + 1/32)` where `q` is the exact nearest-rank
/// quantile. Memory is proportional to the log of the largest recorded
/// value (≤ 1920 buckets for the full `u64` range), independent of sample
/// count — this is what replaces sort-the-whole-sample-vec percentiles on
/// hot paths.
///
/// # Examples
///
/// ```
/// use uqsim_core::telemetry::StreamingHistogram;
///
/// let mut h = StreamingHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile_ns(0.50);
/// assert!((500..=516).contains(&p50), "p50 within bucket resolution: {p50}");
/// assert_eq!(h.max_ns(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingHistogram {
    /// Bucket counts, grown lazily to the highest touched bucket.
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        StreamingHistogram {
            counts: Vec::new(),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one nanosecond value.
    pub fn record(&mut self, ns: u64) {
        let idx = bucket_index(ns);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values, nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Smallest recorded value, nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded value, nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of recorded values, seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e9
        }
    }

    /// Nearest-rank quantile, nanoseconds: the upper bound of the bucket
    /// containing the `ceil(q·count)`-th smallest value, clamped to the
    /// recorded maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// [`Self::quantile_ns`] in seconds.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e9
    }

    /// The recorded values as a [`LatencySummary`], in seconds: what a
    /// recorder that kept every sample would report, at this histogram's
    /// resolution. `count` and `max` are exact and `mean` is the exact sum
    /// over the count (a sample vector's differs in the last bits only,
    /// from `f64` summation); each percentile is [`Self::quantile_secs`],
    /// so `q ≤ q̂ ≤ q · (1 + 1/32)` of the exact nearest-rank `q`.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count as usize,
            mean: self.mean_secs(),
            p50: self.quantile_secs(0.50),
            p95: self.quantile_secs(0.95),
            p99: self.quantile_secs(0.99),
            max: self.max_ns as f64 / 1e9,
        }
    }

    /// Merges another histogram into this one (element-wise bucket sums).
    /// Merging is commutative and associative, so per-shard histograms can
    /// be combined in any order with identical results.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Raw bucket counts (index = [`bucket_index`]), for cohort slicing in
    /// [`crate::critpath`].
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

// ---------------------------------------------------------------------
// Latency decomposition
// ---------------------------------------------------------------------

/// The component an interval of a request's end-to-end latency is
/// attributed to. Discriminant values index `components_ns` arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyComponent {
    /// Waiting for a free client connection before launch.
    ClientWait = 0,
    /// Wire flight, transmission, and receive-side interrupt processing.
    Network = 1,
    /// Sitting in a stage queue waiting for a worker thread and core.
    QueueWait = 2,
    /// Being serviced by a stage batch (includes context-switch overhead).
    Service = 3,
    /// Waiting for a pooled connection to a downstream service.
    Blocking = 4,
    /// Waiting at a fan-in node for the slowest sibling branch.
    FanInSync = 5,
}

impl LatencyComponent {
    /// Number of components.
    pub const COUNT: usize = 6;

    /// All components in discriminant order.
    pub const ALL: [LatencyComponent; Self::COUNT] = [
        LatencyComponent::ClientWait,
        LatencyComponent::Network,
        LatencyComponent::QueueWait,
        LatencyComponent::Service,
        LatencyComponent::Blocking,
        LatencyComponent::FanInSync,
    ];

    /// Stable snake_case name, used as the Prometheus/CSV label value.
    pub fn name(self) -> &'static str {
        match self {
            LatencyComponent::ClientWait => "client_wait",
            LatencyComponent::Network => "network",
            LatencyComponent::QueueWait => "queue_wait",
            LatencyComponent::Service => "service",
            LatencyComponent::Blocking => "blocking",
            LatencyComponent::FanInSync => "fan_in_sync",
        }
    }
}

impl Serialize for LatencyComponent {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self.name());
    }
}

impl Deserialize for LatencyComponent {
    fn deserialize(src: &mut serde::Source<'_>) -> Result<Self, serde::Error> {
        let names = LatencyComponent::ALL.map(LatencyComponent::name);
        Ok(LatencyComponent::ALL[src.variant(&names, "LatencyComponent")?])
    }
}

// ---------------------------------------------------------------------
// Configuration and sampler state
// ---------------------------------------------------------------------

/// What [`Simulator::enable_telemetry`](crate::Simulator::enable_telemetry) turns on.
///
/// The default is decomposition-only: per-request latency attribution
/// folded into aggregate totals and streaming histograms, no periodic
/// sampler — the cheapest useful setting, and
/// what [`crate::run::run_one`] uses so sweeps carry decomposition columns.
/// Nothing here is kept per request: the per-request record is the span
/// log ([`Simulator::enable_span_tracing`](crate::Simulator::enable_span_tracing)), and the decomposition's
/// per-request invariant (the components sum to the end-to-end latency)
/// is a `debug_assert!` at every completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Simulated interval between sampler ticks; `None` disables the
    /// time-series channel entirely.
    pub sample_interval: Option<SimDuration>,
    /// Accumulate a streaming critical-path contribution profile
    /// ([`crate::critpath::CpcProfile`]): every telescoping latency charge
    /// additionally records a per-site segment, folded per e2e-latency
    /// bucket on measured completions. Bounded memory, non-perturbing
    /// (completions are bit-identical on vs off).
    pub critpath: bool,
}

/// One closed sampler window: the latency summary over completions in the
/// `sample_interval` ending at `end`. Empty windows are emitted with
/// `count = 0` so time axes are gap-free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TelemetryWindow {
    /// Window end (the tick time); the window covers the preceding interval.
    pub end: SimTime,
    /// Completions in the window.
    pub count: u64,
    /// Median latency, seconds (0 when empty).
    pub p50_s: f64,
    /// 95th-percentile latency, seconds (0 when empty).
    pub p95_s: f64,
    /// 99th-percentile latency, seconds (0 when empty).
    pub p99_s: f64,
    /// Completions per second over the window.
    pub throughput: f64,
}

/// Identity of one gauge series in a [`SeriesSet`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SeriesDef {
    /// Metric name, e.g. `instance_utilization`.
    pub metric: &'static str,
    /// Optional `(label_name, label_value)` pair, e.g. `("instance", "api0")`.
    pub label: Option<(&'static str, String)>,
}

/// A set of gauge time series sampled at the same ticks: one shared time
/// axis, one value column per series.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SeriesSet {
    defs: Vec<SeriesDef>,
    times_ns: Vec<u64>,
    values: Vec<Vec<f64>>,
}

impl SeriesSet {
    pub(crate) fn new(defs: Vec<SeriesDef>) -> Self {
        let n = defs.len();
        SeriesSet {
            defs,
            times_ns: Vec::new(),
            values: vec![Vec::new(); n],
        }
    }

    pub(crate) fn push_row(&mut self, t: SimTime, row: &[f64]) {
        debug_assert_eq!(row.len(), self.defs.len(), "series row width mismatch");
        self.times_ns.push(t.as_nanos());
        for (col, &v) in self.values.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// The series definitions, in column order.
    pub fn defs(&self) -> &[SeriesDef] {
        &self.defs
    }

    /// The shared time axis, nanoseconds.
    pub fn times_ns(&self) -> &[u64] {
        &self.times_ns
    }

    /// All samples of the series at column `idx`.
    pub fn column(&self, idx: usize) -> &[f64] {
        &self.values[idx]
    }

    /// Number of ticks recorded.
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// True if no ticks were recorded.
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// The most recent sample of the series named `metric` with the given
    /// label value (`None` matches unlabeled series).
    pub fn latest(&self, metric: &str, label: Option<&str>) -> Option<f64> {
        let idx = self.defs.iter().position(|d| {
            d.metric == metric && d.label.as_ref().map(|(_, v)| v.as_str()) == label
        })?;
        self.values[idx].last().copied()
    }
}

// ---------------------------------------------------------------------
// Registry and exporters
// ---------------------------------------------------------------------

/// How a family's metrics combine when the cells of a run are merged
/// ([`MetricsRegistry::merge`]). The emitter declares it with the family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MergeRule {
    /// Metric by metric, the cells' values add up: counters and gauges sum,
    /// summaries merge their histograms.
    Add,
    /// Every cell holds the same value (the simulated time): the first
    /// cell's is kept.
    Same,
    /// One metric per entity, and no entity is in two cells: the cells'
    /// metrics are concatenated in cell order.
    PerEntity,
}

/// What a family's metrics are, as Prometheus `# TYPE` names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonically increasing integer counts.
    Counter,
    /// Instantaneous values.
    Gauge,
    /// p50/p95/p99 quantiles, sum and count.
    Summary,
}

/// The value of one exported metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing integer count.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A summary that adds up across cells: its histogram, whose
    /// quantiles, sum and count are rendered on export.
    Histogram(StreamingHistogram),
    /// A summary final in its cell (one per entity): what it
    /// prints, and no histogram.
    Summary(SummaryValue),
}

/// What a summary prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryValue {
    /// `(quantile, value_seconds)` pairs for p50, p95 and p99.
    pub quantiles: [(f64, f64); 3],
    /// Sum of all observations, seconds.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl SummaryValue {
    /// What a summary of `hist` prints.
    fn of(hist: &StreamingHistogram) -> Self {
        SummaryValue {
            quantiles: [0.5, 0.95, 0.99].map(|q| (q, hist.quantile_secs(q))),
            sum: hist.sum_ns() as f64 / 1e9,
            count: hist.count(),
        }
    }
}

impl MetricValue {
    /// Adds `other`'s value to this one ([`MergeRule::Add`]).
    fn add(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            (a, b) => panic!("cannot add {b:?} to {a:?}"),
        }
    }
}

/// One exported metric of a family: a label set and a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `(label_name, label_value)` pairs, in emission order.
    pub labels: Vec<(&'static str, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A metric family: a name, help text, kind and merge rule, and its
/// metrics — none when what it measures is absent (a cell with no pools,
/// a run with no fault plan or no telemetry).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Family {
    /// Metric name (Prometheus conventions, `uqsim_` prefix).
    name: &'static str,
    /// One-line help text.
    help: &'static str,
    /// What the metrics are.
    kind: MetricKind,
    /// How the family merges across cells.
    merge: MergeRule,
    /// The metrics, in emission order; all of `kind`.
    metrics: Vec<Metric>,
}

impl Family {
    /// Adds a counter to a [`MetricKind::Counter`] family.
    pub(crate) fn counter(&mut self, labels: Vec<(&'static str, String)>, value: u64) -> &mut Self {
        self.push(MetricKind::Counter, labels, MetricValue::Counter(value))
    }

    /// Adds a gauge to a [`MetricKind::Gauge`] family.
    pub(crate) fn gauge(&mut self, labels: Vec<(&'static str, String)>, value: f64) -> &mut Self {
        self.push(MetricKind::Gauge, labels, MetricValue::Gauge(value))
    }

    /// Adds a summary of `hist` to a [`MetricKind::Summary`] family: a
    /// copy of the histogram if the family adds up across cells, else only
    /// what it prints.
    pub(crate) fn summary(
        &mut self,
        labels: Vec<(&'static str, String)>,
        hist: &StreamingHistogram,
    ) -> &mut Self {
        let value = match self.merge {
            MergeRule::Add => MetricValue::Histogram(hist.clone()),
            MergeRule::Same | MergeRule::PerEntity => MetricValue::Summary(SummaryValue::of(hist)),
        };
        self.push(MetricKind::Summary, labels, value)
    }

    fn push(
        &mut self,
        kind: MetricKind,
        labels: Vec<(&'static str, String)>,
        value: MetricValue,
    ) -> &mut Self {
        assert_eq!(self.kind, kind, "{}: a metric of another kind", self.name);
        self.metrics.push(Metric { labels, value });
        self
    }
}

/// An ordered list of metric families, assembled on demand by
/// [`Simulator::metrics_registry`](crate::Simulator::metrics_registry) — every family, every time, so the
/// registries of a run's cells line up family by family and a merge zips
/// them, each family by the rule its emitter declared. Rendered by
/// [`MetricsRegistry::to_prometheus`] (and, for a cell's `metrics.json`,
/// by the run pipeline).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the next family, empty, and returns it to add metrics to.
    pub(crate) fn declare(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        merge: MergeRule,
    ) -> &mut Family {
        self.families.push(Family {
            name,
            help,
            kind,
            merge,
            metrics: Vec::new(),
        });
        let last = self.families.len() - 1;
        &mut self.families[last]
    }

    /// The metrics of the family named `name` (none if there is no such
    /// family).
    pub fn metrics_of(&self, name: &str) -> &[Metric] {
        self.families
            .iter()
            .find(|f| f.name == name)
            .map_or(&[], |f| f.metrics.as_slice())
    }

    /// Folds `other` — the next cell's registry — into this one, each
    /// family by its [`MergeRule`].
    ///
    /// # Panics
    ///
    /// Panics unless both registries list the same families, as every
    /// [`Simulator::metrics_registry`](crate::Simulator::metrics_registry) does, and an adding family has as
    /// many metrics in both.
    pub(crate) fn merge(&mut self, other: &MetricsRegistry) {
        assert_eq!(
            self.families.len(),
            other.families.len(),
            "registry shapes differ"
        );
        for (a, b) in self.families.iter_mut().zip(&other.families) {
            assert_eq!(a.name, b.name, "registry shapes differ");
            match a.merge {
                MergeRule::Same => {}
                MergeRule::PerEntity => a.metrics.extend(b.metrics.iter().cloned()),
                MergeRule::Add => {
                    assert_eq!(
                        a.metrics.len(),
                        b.metrics.len(),
                        "{}: shapes differ",
                        a.name
                    );
                    for (x, y) in a.metrics.iter_mut().zip(&b.metrics) {
                        x.value.add(&y.value);
                    }
                }
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format,
    /// skipping empty families.
    ///
    /// The output is deterministic: metric order is fixed by assembly
    /// order, bucket math is pure integer arithmetic, and float formatting
    /// uses Rust's shortest-roundtrip `Display` — so a fixed-seed run
    /// exports byte-identical text on every platform.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in self.families.iter().filter(|f| !f.metrics.is_empty()) {
            let name = fam.name;
            let ty = match fam.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Summary => "summary",
            };
            out.push_str(&format!("# HELP {name} {}\n# TYPE {name} {ty}\n", fam.help));
            for m in &fam.metrics {
                let labels = label_str(&m.labels, None);
                let printed = match &m.value {
                    MetricValue::Counter(v) => {
                        out.push_str(&format!("{name}{labels} {v}\n"));
                        continue;
                    }
                    MetricValue::Gauge(v) => {
                        out.push_str(&format!("{name}{labels} {v}\n"));
                        continue;
                    }
                    MetricValue::Histogram(h) => SummaryValue::of(h),
                    MetricValue::Summary(printed) => *printed,
                };
                for (q, v) in printed.quantiles {
                    let q_labels = label_str(&m.labels, Some(q));
                    out.push_str(&format!("{name}{q_labels} {v}\n"));
                }
                out.push_str(&format!("{name}_sum{labels} {}\n", printed.sum));
                out.push_str(&format!("{name}_count{labels} {}\n", printed.count));
            }
        }
        out
    }

    /// A cell's `metrics.json`, rendered from its registry and `result`,
    /// its run summary: the run counters, latency summary and snapshot,
    /// each latency component's mean, total and p99 (`null` without
    /// telemetry), each instance's utilization and queue depth, each
    /// machine's network utilization, then the sampler's windows and series
    /// (`null` when `sampled` is `None`).
    pub(crate) fn to_json(&self, result: &RunResult, sampled: Option<SampledSeries<'_>>) -> Value {
        let components = self.metrics_of(LATENCY_COMPONENT);
        let decomposition = (!components.is_empty()).then(|| {
            let mut map = serde_json::Map::new();
            for m in components {
                let MetricValue::Histogram(h) = &m.value else {
                    unreachable!("an adding summary keeps its histogram")
                };
                let component = json!({
                    "mean_s": h.mean_secs(),
                    "total_s": h.sum_ns() as f64 / 1e9,
                    "p99_s": h.quantile_secs(0.99),
                });
                map.insert(m.labels[0].1.clone(), component);
            }
            Value::Object(map)
        });
        let gauges = |name| {
            self.metrics_of(name).iter().map(move |m| match m.value {
                MetricValue::Gauge(v) => (&m.labels[0].1, v),
                _ => unreachable!("{name} is a gauge family"),
            })
        };
        let depths = gauges(INSTANCE_QUEUE_DEPTH);
        let instances: Vec<Value> = (gauges(INSTANCE_UTILIZATION).zip(depths))
            .map(|((name, utilization), (_, depth))| {
                json!({ "name": name, "utilization": utilization, "queue_depth": depth as u64 })
            })
            .collect();
        let machines: Vec<Value> = gauges(NETWORK_UTILIZATION)
            .map(|(name, u)| json!({ "name": name, "network_utilization": u }))
            .collect();
        json!({
            "run": {
                "seed": result.seed,
                "sim_time_s": result.duration.as_secs_f64(),
                "warmup_s": result.warmup.as_secs_f64(),
                "generated": result.generated,
                "completed": result.completed,
                "timeouts": result.timeouts,
                "events_processed": result.events_processed,
            },
            "latency": result.latency,
            "snapshot": result.metrics,
            "decomposition": decomposition,
            "utilization": { "instances": instances, "machines": machines },
            "windows": sampled.map(|s| s.windows),
            "series": sampled.map(|s| s.series),
        })
    }
}

/// The families [`MetricsRegistry::to_json`] reads back.
pub(crate) const INSTANCE_UTILIZATION: &str = "uqsim_instance_utilization";
pub(crate) const INSTANCE_QUEUE_DEPTH: &str = "uqsim_instance_queue_depth";
pub(crate) const NETWORK_UTILIZATION: &str = "uqsim_network_utilization";
pub(crate) const LATENCY_COMPONENT: &str = "uqsim_latency_component_seconds";

/// Renders a `{a="x",b="y"}` label block (empty string when no labels).
fn label_str(labels: &[(&'static str, String)], quantile: Option<f64>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Quotes a CSV field if it contains a delimiter, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The compact per-run telemetry summary threaded into sweep tables: mean
/// utilizations (measured since the warmup boundary) and mean latency
/// decomposition. Plain `Copy` data, cheap to aggregate across
/// replications.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Mean per-instance core utilization since warmup, averaged over
    /// instances.
    pub instance_utilization: f64,
    /// Mean irq-core utilization since warmup, averaged over machines that
    /// have irq cores.
    pub network_utilization: f64,
    /// Measured requests in the decomposition aggregates (0 when the
    /// telemetry layer is disabled).
    pub decomposed_requests: u64,
    /// Mean seconds per request per [`LatencyComponent`], in discriminant
    /// order.
    pub component_mean_s: [f64; LatencyComponent::COUNT],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            instance_utilization: 0.0,
            network_utilization: 0.0,
            decomposed_requests: 0,
            component_mean_s: [0.0; LatencyComponent::COUNT],
        }
    }
}

// ---------------------------------------------------------------------
// Simulator-side state
// ---------------------------------------------------------------------

/// All telemetry state, boxed behind an `Option` on the simulator so the
/// disabled cost is one pointer and one branch per hook.
#[derive(Debug)]
pub(crate) struct TelemetryState {
    pub(crate) cfg: TelemetryConfig,
    pub(crate) comp_hist: [StreamingHistogram; LatencyComponent::COUNT],
    pub(crate) e2e_hist: StreamingHistogram,
    /// `[instance][stage]` queue-wait histograms (post-warmup).
    pub(crate) stage_queue_wait: Vec<Vec<StreamingHistogram>>,
    /// `[instance][stage]` per-job service-interval histograms (post-warmup).
    pub(crate) stage_service: Vec<Vec<StreamingHistogram>>,
    /// Latency samples of the currently open sampler window.
    pub(crate) window_buf: Vec<f64>,
    pub(crate) windows: Vec<TelemetryWindow>,
    pub(crate) series: SeriesSet,
    pub(crate) prev_inst_busy: Vec<u64>,
    pub(crate) prev_irq_busy: Vec<u64>,
    pub(crate) prev_tick: SimTime,
    /// Retry-emission counter at the previous tick (fault series only).
    pub(crate) prev_retried: u64,
    /// Streaming critical-path accumulator (only fed when `cfg.critpath`).
    pub(crate) crit: crate::critpath::CritAccum,
}

impl TelemetryState {
    /// What the sampler has recorded so far.
    pub(crate) fn sampled(&self) -> SampledSeries<'_> {
        SampledSeries {
            windows: &self.windows,
            series: &self.series,
        }
    }

    /// Records a completing request that neither timed out nor was
    /// superseded: buffers the windowed sample (warm-up included) and — for
    /// `measured` completions — feeds the decomposition aggregates.
    pub(crate) fn on_completion(
        &mut self,
        components_ns: [u64; LatencyComponent::COUNT],
        latency: SimDuration,
        measured: bool,
    ) {
        if self.cfg.sample_interval.is_some() {
            self.window_buf.push(latency.as_secs_f64());
        }
        if !measured {
            return;
        }
        for (hist, &ns) in self.comp_hist.iter_mut().zip(&components_ns) {
            hist.record(ns);
        }
        self.e2e_hist.record(latency.as_nanos());
    }
}

/// The header line of the time-series CSV.
pub(crate) const CSV_HEADER: &str = "t_s,metric,label,value\n";

/// What the sampler recorded, tick for tick: the closed latency windows
/// and the gauge series. Borrowed from a live simulator's telemetry state,
/// or from the series a partition cell kept when its simulator went
/// ([`CellSeries`](crate::partition::CellSeries)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampledSeries<'a> {
    pub(crate) windows: &'a [TelemetryWindow],
    pub(crate) series: &'a SeriesSet,
}

impl SampledSeries<'_> {
    /// Ticks both channels have closed.
    pub(crate) fn ticks(&self) -> usize {
        self.series.len().min(self.windows.len())
    }

    /// Appends the CSV rows of tick `k` (see [`Simulator::metrics_csv`](crate::Simulator::metrics_csv) for
    /// the ordering contract): the five `windowed_*` summary rows under
    /// `windowed_label`, then every gauge series under its entity's name.
    pub(crate) fn push_csv_tick(&self, out: &mut String, k: usize, windowed_label: &str) {
        let w = &self.windows[k];
        let t = w.end.as_secs_f64();
        let l = windowed_label;
        out.push_str(&format!("{t:.9},windowed_count,{l},{}\n", w.count));
        out.push_str(&format!(
            "{t:.9},windowed_throughput_qps,{l},{}\n",
            w.throughput
        ));
        out.push_str(&format!("{t:.9},windowed_p50_seconds,{l},{}\n", w.p50_s));
        out.push_str(&format!("{t:.9},windowed_p95_seconds,{l},{}\n", w.p95_s));
        out.push_str(&format!("{t:.9},windowed_p99_seconds,{l},{}\n", w.p99_s));
        for (col, def) in self.series.defs().iter().enumerate() {
            let label = def
                .label
                .as_ref()
                .map(|(_, v)| csv_field(v))
                .unwrap_or_default();
            out.push_str(&format!(
                "{t:.9},{},{label},{}\n",
                def.metric,
                self.series.column(col)[k]
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_continuous_at_octave_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(65), 64, "two values per bucket in octave 1");
        // Indices never decrease.
        let mut prev = 0;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index regressed at {v}");
            prev = i;
        }
    }

    #[test]
    fn bucket_upper_bounds_its_bucket() {
        for idx in 0..500 {
            let upper = bucket_upper(idx);
            assert_eq!(bucket_index(upper), idx, "upper of {idx} maps back");
            assert_eq!(
                bucket_index(upper + 1),
                idx + 1,
                "upper of {idx} is the last value"
            );
        }
    }

    #[test]
    fn quantiles_within_resolution() {
        let mut h = StreamingHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5000u64), (0.95, 9500), (0.99, 9900)] {
            let est = h.quantile_ns(q);
            assert!(est >= exact, "q{q}: {est} < exact {exact}");
            assert!(
                est <= exact + exact / 32 + 1,
                "q{q}: {est} above resolution bound for {exact}"
            );
        }
        assert_eq!(h.quantile_ns(1.0), 10_000);
        assert_eq!(h.max_ns(), 10_000);
        assert_eq!(h.min_ns(), 1);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = StreamingHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_secs(), 0.0);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        for v in [1u64, 40, 40, 2000, 1 << 40] {
            a.record(v);
        }
        for v in [7u64, 7, 555] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 8);
    }

    #[test]
    fn component_names_are_stable() {
        let names: Vec<&str> = LatencyComponent::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "client_wait",
                "network",
                "queue_wait",
                "service",
                "blocking",
                "fan_in_sync"
            ]
        );
        for (i, c) in LatencyComponent::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminants index the arrays");
        }
    }

    #[test]
    fn registry_renders_prometheus_families() {
        use MergeRule::{Add, PerEntity};
        let mut reg = MetricsRegistry::new();
        reg.declare("uqsim_x_total", "X events.", MetricKind::Counter, Add)
            .counter(vec![], 3);
        reg.declare("uqsim_empty", "Nothing.", MetricKind::Gauge, PerEntity);
        reg.declare("uqsim_g", "A gauge.", MetricKind::Gauge, PerEntity)
            .gauge(vec![("inst", "a\"b".into())], 0.5);
        let mut h = StreamingHistogram::new();
        h.record(10);
        reg.declare("uqsim_s_seconds", "A summary.", MetricKind::Summary, Add)
            .summary(vec![], &h);
        let text = reg.to_prometheus();
        assert!(text.starts_with(
            "# HELP uqsim_x_total X events.\n# TYPE uqsim_x_total counter\nuqsim_x_total 3\n"
        ));
        assert!(
            !text.contains("uqsim_empty"),
            "an empty family prints nothing"
        );
        assert!(text.contains("uqsim_g{inst=\"a\\\"b\"} 0.5\n"));
        assert!(text.contains("uqsim_s_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("uqsim_s_seconds_sum 0.00000001\n"));
        assert!(text.contains("uqsim_s_seconds_count 1\n"));
    }

    /// Each family merges by its own rule: adding families add metric by
    /// metric (a summary through its histogram), a `Same` family keeps the
    /// first value, per-entity families concatenate in order.
    #[test]
    fn registries_merge_by_each_familys_rule() {
        use MergeRule::{Add, PerEntity, Same};
        let cell = |n: u64, entity: &str, v: u64| {
            let mut reg = MetricsRegistry::new();
            reg.declare("c_total", "C.", MetricKind::Counter, Add)
                .counter(vec![], n);
            reg.declare("t", "T.", MetricKind::Gauge, Same)
                .gauge(vec![], 1.5);
            reg.declare("e", "E.", MetricKind::Gauge, PerEntity)
                .gauge(vec![("e", entity.into())], n as f64);
            let mut h = StreamingHistogram::new();
            h.record(v);
            reg.declare("s", "S.", MetricKind::Summary, Add)
                .summary(vec![], &h);
            (reg, h)
        };
        let (mut a, mut ha) = cell(2, "x", 100);
        let (b, hb) = cell(5, "y", 9000);
        a.merge(&b);
        ha.merge(&hb);
        assert_eq!(a.metrics_of("c_total")[0].value, MetricValue::Counter(7));
        assert_eq!(a.metrics_of("t")[0].value, MetricValue::Gauge(1.5));
        let entities: Vec<&str> = (a.metrics_of("e").iter())
            .map(|m| m.labels[0].1.as_str())
            .collect();
        assert_eq!(entities, ["x", "y"]);
        assert_eq!(a.metrics_of("s")[0].value, MetricValue::Histogram(ha));
    }

    #[test]
    fn series_set_latest_matches_pushed_rows() {
        let mut s = SeriesSet::new(vec![
            SeriesDef {
                metric: "a",
                label: None,
            },
            SeriesDef {
                metric: "b",
                label: Some(("instance", "x".into())),
            },
        ]);
        s.push_row(SimTime::from_nanos(10), &[1.0, 2.0]);
        s.push_row(SimTime::from_nanos(20), &[3.0, 4.0]);
        assert_eq!(s.latest("a", None), Some(3.0));
        assert_eq!(s.latest("b", Some("x")), Some(4.0));
        assert_eq!(s.latest("b", Some("y")), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn csv_field_quotes_delimiters() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }
}
