//! Critical-path extraction and tail-latency attribution.
//!
//! µqSim's telescoping latency attribution (see [`crate::telemetry`])
//! charges every not-yet-attributed interval `[mark, now]` of a request's
//! life to exactly one [`EdgeKind`] at one site, advancing a shared
//! per-request frontier. Because concurrent fan-out branches share that
//! frontier, whichever branch's event fires next is the one that advances
//! it — the sequence of charges **is** the request's critical path through
//! its span DAG, and the segment durations telescope to the end-to-end
//! latency with 0 ns error. That segment list is the request's one
//! attribution record: the latency decomposition is its sum by kind, and
//! this module's profile its fold by site.
//!
//! This module aggregates those per-request critical paths into a
//! **critical-path contribution (CPC) profile**: for every *site* (client,
//! instance, stage, or connection pool) and *edge kind*
//! ([`EdgeKind`]: queue wait, service, network, blocking, fan-in sync,
//! client wait, a retry's wait for a client connection), how many
//! nanoseconds of critical-path time it contributed — overall, and split
//! by end-to-end latency cohort (the p50 band vs the p99+ band), so a
//! differential "tail vs median" report can rank which sites *shift*
//! under load or faults.
//!
//! Two acquisition modes produce byte-identical profiles:
//!
//! * **Streaming** ([`TelemetryConfig::critpath`](crate::telemetry::TelemetryConfig)):
//!   with telemetry on, each non-zero charge pushes a `(site, kind, ns)`
//!   segment onto the live request; with `critpath` set too, measured
//!   completions fold their segments by site into per-latency-bucket runs,
//!   and the profile's e2e histogram is the telemetry layer's. Bounded
//!   memory, non-perturbing (no extra events, no RNG draws — completions
//!   are bit-identical with the mode on or off).
//! * **Post-hoc** ([`ReplayFold`]; [`CpcProfile::from_trace`] for a
//!   retained [`TraceLog`]): replay the recorded span events through the
//!   same frontier state machine, chunk by chunk. Every charge the
//!   simulator made corresponds to exactly one logged event at the same
//!   timestamp in the same order, so the replay reproduces the streaming
//!   profile exactly — `uqsim why` cross-asserts the two.
//!
//! Profiles merge exactly (element-wise `u64` sums, commutative and
//! associative), so per-partition-cell profiles combine cell-order
//! deterministically into a byte-identical result at any `--shards` count
//! (invariant P7 of DESIGN.md §11).

use crate::fasthash::FastMap;
use crate::ids::{ClientId, InstanceId, JobId, PoolId, RequestId};
use crate::slot_table::SlotTable;
use crate::telemetry::{bucket_index, MergeRule, MetricKind, MetricsRegistry, StreamingHistogram};
use crate::time::SimTime;
use crate::trace::{SpanChunk, TraceEvent, TraceLog, TraceMeta};
use serde_json::{json, Value};

// ---------------------------------------------------------------------
// Edge kinds and sites
// ---------------------------------------------------------------------

/// What kind of time a segment of a request's critical path is. The
/// first six are the latency decomposition's components (see
/// [`crate::telemetry`]); `RetryBackoff` is a retry's wait for a client
/// connection, split out so retry storms are attributable, and the
/// decomposition counts it as `ClientWait`. The backoff delay itself
/// passes before the retry is emitted, so it is on no critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
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
    /// A retry's wait for a client connection (the `ClientWait` of a
    /// request re-emitted by a resilience policy; hedges stay `ClientWait`).
    RetryBackoff = 6,
}

impl EdgeKind {
    /// Number of edge kinds.
    pub const COUNT: usize = 7;

    /// Number of latency-decomposition components: the first
    /// `COMPONENTS` kinds of [`EdgeKind::ALL`].
    pub const COMPONENTS: usize = 6;

    /// All kinds in discriminant order.
    pub const ALL: [EdgeKind; Self::COUNT] = [
        EdgeKind::ClientWait,
        EdgeKind::Network,
        EdgeKind::QueueWait,
        EdgeKind::Service,
        EdgeKind::Blocking,
        EdgeKind::FanInSync,
        EdgeKind::RetryBackoff,
    ];

    /// Stable snake_case name (Prometheus/CSV/folded-stack label value).
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::ClientWait => "client_wait",
            EdgeKind::Network => "network",
            EdgeKind::QueueWait => "queue_wait",
            EdgeKind::Service => "service",
            EdgeKind::Blocking => "blocking",
            EdgeKind::FanInSync => "fan_in_sync",
            EdgeKind::RetryBackoff => "retry_backoff",
        }
    }

    /// The decomposition component this kind's time counts under, as an
    /// index into the first [`EdgeKind::COMPONENTS`] kinds.
    pub fn component(self) -> usize {
        match self {
            EdgeKind::RetryBackoff => EdgeKind::ClientWait as usize,
            kind => kind as usize,
        }
    }
}

/// Where a critical-path segment was spent. Resolved to a display label
/// (globally unique across partition cells) when a profile is snapshotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CritSite {
    /// Client-side (connection wait, final delivery leg).
    Client(ClientId),
    /// Arrival/fan-in at an instance (network and sync edges).
    Instance(InstanceId),
    /// One stage of one instance (queue-wait and service edges).
    Stage(InstanceId, u32),
    /// A connection pool (blocking edges).
    Pool(PoolId),
}

/// One critical-path segment buffered on a live request: `ns` nanoseconds
/// of `kind` time spent at `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritSeg {
    /// Where the time was spent.
    pub site: CritSite,
    /// What kind of time it was.
    pub kind: EdgeKind,
    /// Segment duration, nanoseconds (always > 0; zero-length charges are
    /// never buffered).
    pub ns: u64,
}

/// Resolves a site to its display label. Labels are namespaced so the four
/// site classes never collide: clients are `client:<name>`, pools are
/// `pool:<up>-><down>`, stages are `<instance>/<stage>`, and instance
/// arrival sites are the bare instance name.
fn site_label(site: CritSite, meta: &TraceMeta) -> String {
    match site {
        CritSite::Client(c) => match meta.clients.get(c.index()) {
            Some(cl) => format!("client:{}", cl.name),
            None => format!("client:{}", c.raw()),
        },
        CritSite::Instance(i) => match meta.instances.get(i.index()) {
            Some(inst) => inst.name.to_string(),
            None => format!("instance{}", i.raw()),
        },
        CritSite::Stage(i, s) => match meta.instances.get(i.index()) {
            Some(inst) => match inst.stages.get(s as usize) {
                Some(stage) => format!("{}/{stage}", inst.name),
                None => format!("{}/stage{s}", inst.name),
            },
            None => format!("instance{}/stage{s}", i.raw()),
        },
        CritSite::Pool(p) => match meta.pools.get(p.index()) {
            Some(pool) => format!("pool:{}->{}", pool.up, pool.down),
            None => format!("pool:{}", p.raw()),
        },
    }
}

// ---------------------------------------------------------------------
// Accumulation
// ---------------------------------------------------------------------

/// Per-(site, kind) accumulator: nanoseconds and segment counts per
/// e2e-latency bucket of the owning request (log-linear [`bucket_index`]
/// buckets shared with [`StreamingHistogram`]), kept as one run of
/// consecutive buckets from the first touched one to the last — a few
/// dozen, of ≈ 520 below 1 ms. Both ends of a run are touched buckets
/// (count ≥ 1), so equal contents have one representation and the
/// derived equality is exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BucketRun {
    /// Bucket index of `cells[0]`.
    first: usize,
    /// `[ns, count]` of bucket `first + i`.
    cells: Vec<[u64; 2]>,
}

impl BucketRun {
    /// One past the last touched bucket (0 for an empty run).
    fn end(&self) -> usize {
        self.first + self.cells.len()
    }

    /// Extends the run to include buckets `lo..hi` (not empty).
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.cells.is_empty() {
            self.first = lo;
        } else if lo < self.first {
            let gap = std::iter::repeat_n([0; 2], self.first - lo);
            self.cells.splice(..0, gap);
            self.first = lo;
        }
        if hi > self.end() {
            self.cells.resize(hi - self.first, [0; 2]);
        }
    }

    /// Adds one segment of `ns` nanoseconds to `bucket`.
    fn add(&mut self, bucket: usize, ns: u64) {
        if bucket < self.first || bucket >= self.end() {
            self.cover(bucket, bucket + 1);
        }
        let cell = &mut self.cells[bucket - self.first];
        cell[0] += ns;
        cell[1] += 1;
    }

    /// Adds `other` bucket by bucket.
    fn merge(&mut self, other: &BucketRun) {
        if other.cells.is_empty() {
            return;
        }
        self.cover(other.first, other.end());
        let at = other.first - self.first;
        for (dst, src) in self.cells[at..].iter_mut().zip(&other.cells) {
            dst[0] += src[0];
            dst[1] += src[1];
        }
    }

    /// Nanoseconds in buckets `lo..=hi_inclusive`.
    fn range_ns(&self, lo: usize, hi_inclusive: usize) -> u64 {
        let lo = lo.max(self.first);
        let hi = (hi_inclusive + 1).min(self.end());
        if lo >= hi {
            return 0;
        }
        let cells = &self.cells[lo - self.first..hi - self.first];
        cells.iter().map(|c| c[0]).sum()
    }
}

/// The fold by site: one bucket run per (site, kind). Bounded memory —
/// proportional to the buckets the (site, kind) pairs touch, independent
/// of request count. The e2e histogram of the folded requests is kept by
/// whoever feeds it (the telemetry layer, or [`ReplayFold`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct CritAccum {
    cells: FastMap<(CritSite, EdgeKind), BucketRun>,
}

impl CritAccum {
    /// Folds one measured completion: the request's e2e latency picks the
    /// cohort bucket, and every segment of its critical path lands in it.
    pub(crate) fn fold(&mut self, e2e_ns: u64, segs: &[CritSeg]) {
        let bucket = bucket_index(e2e_ns);
        for s in segs {
            self.cells
                .entry((s.site, s.kind))
                .or_default()
                .add(bucket, s.ns);
        }
    }

    /// Snapshots the accumulator, with `e2e` the histogram of the folded
    /// requests' latencies, into a mergeable, label-resolved
    /// [`CpcProfile`] (entries sorted by `(site label, kind)`).
    pub(crate) fn snapshot(&self, meta: &TraceMeta, e2e: &StreamingHistogram) -> CpcProfile {
        let mut entries: Vec<CpcEntry> = self
            .cells
            .iter()
            .map(|(&(site, kind), run)| CpcEntry {
                site: site_label(site, meta),
                kind,
                run: run.clone(),
            })
            .collect();
        entries.sort_by(|a, b| a.site.cmp(&b.site).then(a.kind.cmp(&b.kind)));
        CpcProfile {
            e2e: e2e.clone(),
            entries,
        }
    }
}

// ---------------------------------------------------------------------
// The profile
// ---------------------------------------------------------------------

/// One `(site, kind)` row of a [`CpcProfile`], holding its nanoseconds and
/// segment counts per e2e-latency bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpcEntry {
    /// Display label of the site (globally unique across partition cells).
    pub site: String,
    /// Edge kind.
    pub kind: EdgeKind,
    run: BucketRun,
}

impl CpcEntry {
    /// Total critical-path nanoseconds this entry contributed.
    pub fn total_ns(&self) -> u64 {
        self.run.cells.iter().map(|c| c[0]).sum()
    }
}

/// A critical-path contribution profile: the per-request critical paths of
/// every measured completion, aggregated per `(site, kind)` and per
/// e2e-latency bucket. See the [module docs](self) for semantics, and
/// [`CpcProfile::report`] for the cohort/differential analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpcProfile {
    e2e: StreamingHistogram,
    entries: Vec<CpcEntry>,
}

impl CpcProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request's critical path directly: `e2e_ns` end-to-end
    /// latency and its telescoping `(site label, kind, ns)` segments.
    /// This is the public builder used by tests and external tooling; the
    /// simulator's streaming mode and [`CpcProfile::from_trace`] fold
    /// through the same per-bucket arithmetic.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the segment durations sum to `e2e_ns` (the 0 ns
    /// telescoping discipline).
    pub fn observe(&mut self, e2e_ns: u64, segs: &[(&str, EdgeKind, u64)]) {
        debug_assert_eq!(
            segs.iter().map(|s| s.2).sum::<u64>(),
            e2e_ns,
            "critical-path segments must telescope to the e2e latency"
        );
        let bucket = bucket_index(e2e_ns);
        self.e2e.record(e2e_ns);
        for &(site, kind, ns) in segs {
            let idx = match self
                .entries
                .binary_search_by(|e| e.site.as_str().cmp(site).then(e.kind.cmp(&kind)))
            {
                Ok(i) => i,
                Err(i) => {
                    self.entries.insert(
                        i,
                        CpcEntry {
                            site: site.to_string(),
                            kind,
                            run: BucketRun::default(),
                        },
                    );
                    i
                }
            };
            self.entries[idx].run.add(bucket, ns);
        }
    }

    /// Merges another profile into this one (element-wise `u64` sums).
    /// Exactly commutative and associative, so per-cell profiles combine
    /// order-independently — the partition layer folds cells in cell order
    /// and gets byte-identical output at any shard count.
    pub fn merge(&mut self, other: &CpcProfile) {
        self.e2e.merge(&other.e2e);
        let mut merged: Vec<CpcEntry> =
            Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut a, mut b) = (
            self.entries.drain(..).peekable(),
            other.entries.iter().peekable(),
        );
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(x), Some(y)) => match x.site.cmp(&y.site).then(x.kind.cmp(&y.kind)) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => {
                        let mut x = a.next().expect("peeked");
                        x.run.merge(&b.next().expect("peeked").run);
                        merged.push(x);
                        continue;
                    }
                },
            };
            if take_a {
                merged.push(a.next().expect("peeked"));
            } else {
                merged.push(b.next().expect("peeked").clone());
            }
        }
        drop(a);
        self.entries = merged;
    }

    /// Number of measured requests folded in.
    pub fn requests(&self) -> u64 {
        self.e2e.count()
    }

    /// True if no request has been folded in.
    pub fn is_empty(&self) -> bool {
        self.e2e.is_empty()
    }

    /// The end-to-end latency histogram of the folded requests.
    pub fn e2e(&self) -> &StreamingHistogram {
        &self.e2e
    }

    /// The `(site, kind)` entries, sorted by `(site label, kind)`.
    pub fn entries(&self) -> &[CpcEntry] {
        &self.entries
    }

    /// Computes the cohort/differential report. Cohort boundaries derive
    /// from the profile's own e2e histogram: the **p50 band** is every
    /// latency bucket at or below the bucket holding the median, the
    /// **p99+ band** every bucket at or above the bucket holding the 99th
    /// percentile. Shares are a row's nanoseconds divided by the cohort's
    /// total critical-path nanoseconds; the differential is
    /// `p99 share − p50 share`.
    pub fn report(&self) -> CpcReport {
        let p50_ns = self.e2e.quantile_ns(0.50);
        let p99_ns = self.e2e.quantile_ns(0.99);
        let p50_hi = bucket_index(p50_ns);
        let p99_lo = bucket_index(p99_ns);
        let last = self.entries.iter().map(|e| e.run.end()).max().unwrap_or(0);
        let last = last.saturating_sub(1);
        let overall_total: u64 = self.entries.iter().map(CpcEntry::total_ns).sum();
        let p50_total: u64 = self.entries.iter().map(|e| e.run.range_ns(0, p50_hi)).sum();
        let p99_total: u64 = self
            .entries
            .iter()
            .map(|e| e.run.range_ns(p99_lo, last))
            .sum();
        let share = |ns: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                ns as f64 / total as f64
            }
        };
        let rows = self
            .entries
            .iter()
            .map(|e| {
                let overall = e.total_ns();
                let p50 = e.run.range_ns(0, p50_hi);
                let p99 = e.run.range_ns(p99_lo, last);
                CpcRow {
                    site: e.site.clone(),
                    kind: e.kind,
                    overall_ns: overall,
                    overall_share: share(overall, overall_total),
                    p50_ns: p50,
                    p50_share: share(p50, p50_total),
                    p99_ns: p99,
                    p99_share: share(p99, p99_total),
                    diff_share: share(p99, p99_total) - share(p50, p50_total),
                }
            })
            .collect();
        let counts = self.e2e.bucket_counts();
        let band = |lo: usize, hi_inclusive: usize| -> u64 {
            let hi = (hi_inclusive + 1).min(counts.len());
            if lo >= hi {
                0
            } else {
                counts[lo..hi].iter().sum()
            }
        };
        CpcReport {
            requests: self.e2e.count(),
            p50_ns,
            p99_ns,
            max_ns: self.e2e.max_ns(),
            p50_band_requests: band(0, p50_hi),
            p99_band_requests: band(p99_lo, counts.len().saturating_sub(1)),
            rows,
        }
    }

    /// Folded-stack flame-graph lines (`site;kind ns`), one per entry in
    /// `(site, kind)` order — directly consumable by inferno / flamegraph.pl
    /// / speedscope.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("{};{} {}\n", e.site, e.kind.name(), e.total_ns()));
        }
        out
    }

    /// The `uqsim_critpath_*` Prometheus families, built standalone (they
    /// are intentionally not part of the per-run metrics registry, so
    /// existing exports stay byte-identical when the mode is off).
    pub fn registry(&self) -> MetricsRegistry {
        use MergeRule::{Add, PerEntity};
        use MetricKind::{Counter, Gauge, Summary};
        let report = self.report();
        let mut reg = MetricsRegistry::new();
        reg.declare(
            "uqsim_critpath_requests",
            "Measured requests folded into the critical-path profile",
            Counter,
            Add,
        )
        .counter(vec![], report.requests);
        reg.declare(
            "uqsim_critpath_e2e_seconds",
            "End-to-end latency of the folded requests",
            Summary,
            Add,
        )
        .summary(vec![], &self.e2e);
        let site = |r: &CpcRow| {
            vec![
                ("site", r.site.clone()),
                ("kind", r.kind.name().to_string()),
            ]
        };
        let fam = reg.declare(
            "uqsim_critpath_seconds_total",
            "Critical-path time contributed per site and edge kind",
            Gauge,
            PerEntity,
        );
        for r in &report.rows {
            fam.gauge(site(r), r.overall_ns as f64 / 1e9);
        }
        let fam = reg.declare(
            "uqsim_critpath_share",
            "Share of cohort critical-path time per site and edge kind",
            Gauge,
            PerEntity,
        );
        for r in &report.rows {
            for (cohort, share) in [
                ("overall", r.overall_share),
                ("p50", r.p50_share),
                ("p99", r.p99_share),
            ] {
                let mut labels = site(r);
                labels.push(("cohort", cohort.to_string()));
                fam.gauge(labels, share);
            }
        }
        reg
    }

    /// Reconstructs the profile post-hoc from a retained span log,
    /// replaying the simulator's telescoping-frontier state machine over
    /// the event stream ([`ReplayFold`] fed the whole log at once; see the
    /// [module docs](self) for the event ↔ charge correspondence).
    ///
    /// # Errors
    ///
    /// Fails if the log was truncated (attribution from a partial stream
    /// would silently misattribute), if an event is stamped before the
    /// frontier its request had already reached (a corrupt log — the
    /// simulator never records one), or if any measured request's segments
    /// do not telescope exactly to its end-to-end latency (which would
    /// indicate a recorder or replay bug, never a property of the
    /// workload). The last two name the offending event by its index in
    /// the log.
    pub fn from_trace(log: &TraceLog, meta: &TraceMeta) -> Result<CpcProfile, String> {
        let mut fold = ReplayFold::new();
        fold.feed(log.retained());
        fold.finish(meta, log.len(), log.dropped())
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What the replay remembers about one live request.
#[derive(Debug)]
struct ReqState {
    submitted: SimTime,
    mark: SimTime,
    client: ClientId,
    retry: bool,
    segs: Vec<CritSeg>,
}

/// What the replay remembers about one live job.
#[derive(Debug)]
struct JobState {
    request: RequestId,
    instance: InstanceId,
    stage: u32,
    in_service: bool,
}

/// Advances `rid`'s frontier to `t`, charging the elapsed interval to
/// (site, kind). Zero-length intervals are skipped, mirroring the streaming
/// mode. Charges against already-completed requests (quorum stragglers) or
/// unknown ids are no-ops.
///
/// # Errors
///
/// `t` lies before the frontier: no log the simulator records moves a
/// request back in time, so the log is corrupt.
fn charge(
    reqs: &mut SlotTable<RequestId, ReqState>,
    rid: RequestId,
    t: SimTime,
    site: CritSite,
    kind: EdgeKind,
) -> Result<(), String> {
    if let Some(r) = reqs.get_mut(&rid) {
        let Some(dt) = t.as_nanos().checked_sub(r.mark.as_nanos()) else {
            return Err(format!(
                "request {rid} goes back in time: stamped {} ns, behind its \
                 frontier at {} ns",
                t.as_nanos(),
                r.mark.as_nanos()
            ));
        };
        r.mark = t;
        if dt > 0 {
            r.segs.push(CritSeg { site, kind, ns: dt });
        }
    }
    Ok(())
}

fn recycle(spare: &mut Vec<Vec<CritSeg>>, mut segs: Vec<CritSeg>) {
    segs.clear();
    spare.push(segs);
}

/// The post-hoc replay as an incremental fold: [`feed`](ReplayFold::feed)
/// it the span log's chunks in order, then [`finish`](ReplayFold::finish).
/// The profile depends on the event sequence only, not on how it was cut
/// into chunks.
#[derive(Debug, Default)]
pub struct ReplayFold {
    reqs: SlotTable<RequestId, ReqState>,
    jobs: SlotTable<JobId, JobState>,
    /// Segment buffers of finished requests, handed to the next ones.
    spare_segs: Vec<Vec<CritSeg>>,
    accum: CritAccum,
    /// End-to-end latencies of the measured requests folded in.
    e2e: StreamingHistogram,
    /// Events taken up so far, over every chunk fed.
    events: usize,
    /// The first event the replay could not take — one that moves its
    /// request back in time, or completes a request whose segments do not
    /// telescope — named by its index in the log; the replay stops there.
    error: Option<String>,
}

impl ReplayFold {
    /// A replay that has seen no event yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays the next chunk of the log.
    pub fn feed(&mut self, chunk: &SpanChunk) {
        if self.error.is_some() {
            return;
        }
        if let Err(what) = self.replay(chunk) {
            self.error = Some(format!("span event {}: {what}", self.events - 1));
        }
    }

    /// Replays `chunk` up to and including the first event that cannot be
    /// taken, which `events` then counts last.
    fn replay(&mut self, chunk: &SpanChunk) -> Result<(), String> {
        let ReplayFold {
            reqs,
            jobs,
            spare_segs,
            accum,
            e2e,
            events,
            ..
        } = self;
        for ev in chunk.events() {
            *events += 1;
            match *ev {
                TraceEvent::RequestEmitted {
                    request, client, t, ..
                } => {
                    reqs.insert(
                        request,
                        ReqState {
                            submitted: t,
                            mark: t,
                            client,
                            retry: false,
                            segs: spare_segs.pop().unwrap_or_default(),
                        },
                    );
                }
                TraceEvent::RequestRetry { request, .. } => {
                    if let Some(r) = reqs.get_mut(&request) {
                        r.retry = true;
                    }
                }
                TraceEvent::RequestLaunched { request, t, .. } => {
                    let (client, retry) = match reqs.get(&request) {
                        Some(r) => (r.client, r.retry),
                        None => continue,
                    };
                    let kind = if retry {
                        EdgeKind::RetryBackoff
                    } else {
                        EdgeKind::ClientWait
                    };
                    charge(reqs, request, t, CritSite::Client(client), kind)?;
                }
                TraceEvent::FanIn {
                    request,
                    instance: Some(i),
                    fired,
                    t,
                    ..
                } => {
                    // Instance fan-ins are recorded only when fan_in > 1;
                    // the firing arrival's wait is synchronization, every
                    // other arrival's hop is network time. Sink fan-ins
                    // (instance = None) charge nothing, exactly like the
                    // simulator.
                    let kind = if fired {
                        EdgeKind::FanInSync
                    } else {
                        EdgeKind::Network
                    };
                    charge(reqs, request, t, CritSite::Instance(i), kind)?;
                }
                TraceEvent::Enqueue {
                    job,
                    request,
                    instance,
                    stage,
                    t,
                    ..
                } => {
                    match jobs.get_mut(&job) {
                        Some(j) if j.in_service => {
                            // A stage-to-stage hand-off: the elapsed batch
                            // service belongs to the *previous* stage.
                            let site = CritSite::Stage(j.instance, j.stage);
                            j.instance = instance;
                            j.stage = stage.raw();
                            j.in_service = false;
                            charge(reqs, request, t, site, EdgeKind::Service)?;
                        }
                        Some(j) => {
                            j.instance = instance;
                            j.stage = stage.raw();
                        }
                        None => {
                            // First enqueue = arrival at the instance: the
                            // hop since the frontier is network time (a
                            // same-timestamp fan-in charge already advanced
                            // it, making this a zero-length no-op there).
                            jobs.insert(
                                job,
                                JobState {
                                    request,
                                    instance,
                                    stage: stage.raw(),
                                    in_service: false,
                                },
                            );
                            charge(
                                reqs,
                                request,
                                t,
                                CritSite::Instance(instance),
                                EdgeKind::Network,
                            )?;
                        }
                    }
                }
                TraceEvent::BatchStart {
                    instance,
                    stage,
                    start,
                    jobs: batch,
                    ..
                } => {
                    // Service begins: each batched job's wait since its
                    // frontier is queue time, charged in batch order (the
                    // exact order the simulator charges at dispatch).
                    for &job in chunk.batch_jobs(batch) {
                        let Some(j) = jobs.get_mut(&job) else {
                            continue;
                        };
                        j.in_service = true;
                        let rid = j.request;
                        charge(
                            reqs,
                            rid,
                            start,
                            CritSite::Stage(instance, stage.raw()),
                            EdgeKind::QueueWait,
                        )?;
                    }
                }
                TraceEvent::NodeDone {
                    request,
                    job,
                    instance,
                    t,
                    ..
                } => {
                    if let Some(j) = jobs.remove(&job) {
                        if j.in_service {
                            charge(
                                reqs,
                                request,
                                t,
                                CritSite::Stage(instance, j.stage),
                                EdgeKind::Service,
                            )?;
                        }
                    }
                }
                TraceEvent::PoolGrant {
                    pool, request, t, ..
                } => {
                    charge(reqs, request, t, CritSite::Pool(pool), EdgeKind::Blocking)?;
                }
                TraceEvent::RequestCompleted {
                    request,
                    measured,
                    t,
                    ..
                } => {
                    let client = match reqs.get(&request) {
                        Some(r) => r.client,
                        None => continue,
                    };
                    charge(
                        reqs,
                        request,
                        t,
                        CritSite::Client(client),
                        EdgeKind::Network,
                    )?;
                    let r = reqs.remove(&request).expect("request state present");
                    if measured {
                        let e2e_ns = (t - r.submitted).as_nanos();
                        let sum: u64 = r.segs.iter().map(|s| s.ns).sum();
                        if sum != e2e_ns {
                            return Err(format!(
                                "critical path of request {request} does not telescope: \
                                 segments sum to {sum} ns, end-to-end is {e2e_ns} ns"
                            ));
                        }
                        accum.fold(e2e_ns, &r.segs);
                        e2e.record(e2e_ns);
                    }
                    recycle(spare_segs, r.segs);
                }
                TraceEvent::RequestDropped { request, .. }
                | TraceEvent::RequestShed { request, .. } => {
                    if let Some(r) = reqs.remove(&request) {
                        recycle(spare_segs, r.segs);
                    }
                }
                TraceEvent::JobKilled { job, .. } => {
                    jobs.remove(&job);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Ends the replay of a log that recorded `events` events and dropped
    /// `dropped`, resolving site labels through `meta`.
    ///
    /// # Errors
    ///
    /// As [`CpcProfile::from_trace`]: a truncated log, an event that moved
    /// its request back in time, or a request whose segments did not
    /// telescope.
    pub fn finish(
        self,
        meta: &TraceMeta,
        events: usize,
        dropped: u64,
    ) -> Result<CpcProfile, String> {
        if dropped > 0 {
            return Err(format!(
                "span log truncated ({dropped} events dropped): critical-path attribution \
                 requires the complete stream — raise the trace capacity (--events) to at \
                 least {}",
                events as u64 + dropped
            ));
        }
        match self.error {
            Some(msg) => Err(msg),
            None => Ok(self.accum.snapshot(meta, &self.e2e)),
        }
    }
}

// ---------------------------------------------------------------------
// Report and renderings
// ---------------------------------------------------------------------

/// One row of a [`CpcReport`]: a `(site, kind)` pair with its overall,
/// p50-band, and p99-band critical-path time and cohort shares.
#[derive(Debug, Clone, PartialEq)]
pub struct CpcRow {
    /// Site label.
    pub site: String,
    /// Edge kind.
    pub kind: EdgeKind,
    /// Critical-path nanoseconds over all measured requests.
    pub overall_ns: u64,
    /// Share of all critical-path time.
    pub overall_share: f64,
    /// Critical-path nanoseconds within the p50 band.
    pub p50_ns: u64,
    /// Share of the p50 band's critical-path time.
    pub p50_share: f64,
    /// Critical-path nanoseconds within the p99+ band.
    pub p99_ns: u64,
    /// Share of the p99+ band's critical-path time.
    pub p99_share: f64,
    /// `p99_share - p50_share`: positive means the site grows on the tail.
    pub diff_share: f64,
}

/// The cohort/differential analysis of a [`CpcProfile`]
/// (see [`CpcProfile::report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CpcReport {
    /// Measured requests folded in.
    pub requests: u64,
    /// e2e p50, nanoseconds.
    pub p50_ns: u64,
    /// e2e p99, nanoseconds.
    pub p99_ns: u64,
    /// e2e maximum, nanoseconds.
    pub max_ns: u64,
    /// Requests in the p50 band (e2e bucket ≤ the median's bucket).
    pub p50_band_requests: u64,
    /// Requests in the p99+ band (e2e bucket ≥ the p99's bucket).
    pub p99_band_requests: u64,
    /// Rows in `(site, kind)` order.
    pub rows: Vec<CpcRow>,
}

impl CpcReport {
    /// The p99-band's top contributor (ties break toward the first row in
    /// `(site, kind)` order), or `None` on an empty profile.
    pub fn top_p99(&self) -> Option<&CpcRow> {
        self.rows
            .iter()
            .max_by(|a, b| {
                a.p99_share
                    .total_cmp(&b.p99_share)
                    .then(b.site.cmp(&a.site).then(b.kind.cmp(&a.kind)))
            })
            .filter(|r| r.p99_ns > 0)
    }

    /// Rows ranked by differential share, descending (biggest tail
    /// amplifier first; deterministic tie-break on `(site, kind)`).
    pub fn ranked_by_diff(&self) -> Vec<&CpcRow> {
        let mut rows: Vec<&CpcRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            b.diff_share
                .total_cmp(&a.diff_share)
                .then(a.site.cmp(&b.site).then(a.kind.cmp(&b.kind)))
        });
        rows
    }

    /// Rows ranked by one cohort's share, descending.
    fn ranked_by(&self, key: impl Fn(&CpcRow) -> f64) -> Vec<&CpcRow> {
        let mut rows: Vec<&CpcRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            key(b)
                .total_cmp(&key(a))
                .then(a.site.cmp(&b.site).then(a.kind.cmp(&b.kind)))
        });
        rows
    }

    /// Renders the human-readable attribution report (the body of
    /// `uqsim why`). Deterministic: fixed section order, share-ranked rows
    /// with `(site, kind)` tie-breaks, fixed-precision formatting.
    pub fn to_text(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let pct = |s: f64| s * 100.0;
        let mut out = String::new();
        out.push_str(&format!(
            "critical-path attribution — {} measured requests\n",
            self.requests
        ));
        if self.requests == 0 {
            out.push_str("(no measured completions; nothing to attribute)\n");
            return out;
        }
        out.push_str(&format!(
            "e2e: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n",
            ms(self.p50_ns),
            ms(self.p99_ns),
            ms(self.max_ns)
        ));
        out.push_str(&format!(
            "cohorts: p50 band {} requests (e2e <= {:.3} ms), p99+ band {} requests (e2e >= {:.3} ms)\n",
            self.p50_band_requests,
            ms(self.p50_ns),
            self.p99_band_requests,
            ms(self.p99_ns)
        ));
        let section = |out: &mut String,
                       title: &str,
                       rows: Vec<&CpcRow>,
                       share: &dyn Fn(&CpcRow) -> f64,
                       ns: &dyn Fn(&CpcRow) -> u64| {
            out.push_str(&format!("\n{title}\n"));
            out.push_str(&format!(
                "  {:<38} {:<13} {:>12} {:>8}\n",
                "site", "kind", "ms", "share"
            ));
            for r in rows.into_iter().take(16) {
                if ns(r) == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {:<38} {:<13} {:>12.3} {:>7.2}%\n",
                    r.site,
                    r.kind.name(),
                    ms(ns(r)),
                    pct(share(r))
                ));
            }
        };
        section(
            &mut out,
            "overall",
            self.ranked_by(|r| r.overall_share),
            &|r| r.overall_share,
            &|r| r.overall_ns,
        );
        section(
            &mut out,
            "p50 cohort (where a median request spends its critical path)",
            self.ranked_by(|r| r.p50_share),
            &|r| r.p50_share,
            &|r| r.p50_ns,
        );
        section(
            &mut out,
            "p99+ cohort (where a tail request spends its critical path)",
            self.ranked_by(|r| r.p99_share),
            &|r| r.p99_share,
            &|r| r.p99_ns,
        );
        out.push_str("\ntail vs median (share shift, p99+ band minus p50 band)\n");
        for r in self.ranked_by_diff().into_iter().take(16) {
            if r.diff_share.abs() < 1e-4 {
                continue;
            }
            out.push_str(&format!(
                "  {:>+7.2}%  {} {} (p50 {:.2}% -> p99 {:.2}%)\n",
                pct(r.diff_share),
                r.site,
                r.kind.name(),
                pct(r.p50_share),
                pct(r.p99_share)
            ));
        }
        if let Some(top) = self.top_p99() {
            out.push_str(&format!(
                "\ntop p99 contributor: {} {} ({:.2}% of tail critical-path time)\n",
                top.site,
                top.kind.name(),
                pct(top.p99_share)
            ));
        }
        out
    }

    /// CSV rows in `(site, kind)` order. Columns:
    /// `site,kind,overall_ns,overall_share,p50_ns,p50_share,p99_ns,p99_share,diff_share`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "site,kind,overall_ns,overall_share,p50_ns,p50_share,p99_ns,p99_share,diff_share\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                r.site,
                r.kind.name(),
                r.overall_ns,
                r.overall_share,
                r.p50_ns,
                r.p50_share,
                r.p99_ns,
                r.p99_share,
                r.diff_share
            ));
        }
        out
    }

    /// JSON rendering (the `uqsim why --json` payload).
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|r| {
                json!({
                    "site": r.site,
                    "kind": r.kind.name(),
                    "overall_ns": r.overall_ns,
                    "overall_share": r.overall_share,
                    "p50_ns": r.p50_ns,
                    "p50_share": r.p50_share,
                    "p99_ns": r.p99_ns,
                    "p99_share": r.p99_share,
                    "diff_share": r.diff_share,
                })
            })
            .collect();
        json!({
            "requests": self.requests,
            "e2e": {
                "p50_ns": self.p50_ns,
                "p99_ns": self.p99_ns,
                "max_ns": self.max_ns,
            },
            "cohorts": {
                "p50_band_requests": self.p50_band_requests,
                "p99_band_requests": self.p99_band_requests,
            },
            "top_p99": self.top_p99().map(|t| json!({
                "site": t.site, "kind": t.kind.name(), "share": t.p99_share,
            })).unwrap_or(Value::Null),
            "rows": rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_kind_names_are_stable() {
        let names: Vec<&str> = EdgeKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "client_wait",
                "network",
                "queue_wait",
                "service",
                "blocking",
                "fan_in_sync",
                "retry_backoff"
            ]
        );
        for (i, k) in EdgeKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "discriminants index the arrays");
        }
    }

    #[test]
    fn observe_and_report() {
        let mut p = CpcProfile::new();
        // 9 fast requests dominated by service, one slow one dominated by
        // queue wait: the differential must point at the queue.
        for _ in 0..9 {
            p.observe(
                1_000,
                &[
                    ("api/handler", EdgeKind::Service, 800),
                    ("client:wrk", EdgeKind::Network, 200),
                ],
            );
        }
        p.observe(
            100_000,
            &[
                ("api/handler", EdgeKind::QueueWait, 95_000),
                ("api/handler", EdgeKind::Service, 4_000),
                ("client:wrk", EdgeKind::Network, 1_000),
            ],
        );
        assert_eq!(p.requests(), 10);
        let report = p.report();
        assert_eq!(report.requests, 10);
        let top = report.top_p99().expect("non-empty");
        assert_eq!(top.site, "api/handler");
        assert_eq!(top.kind, EdgeKind::QueueWait);
        let diff = report.ranked_by_diff();
        assert_eq!(diff[0].kind, EdgeKind::QueueWait);
        assert!(diff[0].diff_share > 0.5);
        // Shares within each cohort sum to 1.
        let overall: f64 = report.rows.iter().map(|r| r.overall_share).sum();
        assert!((overall - 1.0).abs() < 1e-12, "{overall}");
        let text = report.to_text();
        assert!(text.contains("top p99 contributor: api/handler queue_wait"));
        assert!(report.to_csv().starts_with("site,kind,overall_ns"));
        assert_eq!(report.to_json()["requests"], 10u64);
        assert!(p.to_folded().contains("api/handler;queue_wait 95000\n"));
    }

    #[test]
    fn merge_is_commutative_and_exact() {
        let seg_a: &[(&str, EdgeKind, u64)] = &[
            ("a/s0", EdgeKind::Service, 700),
            ("client:c", EdgeKind::Network, 300),
        ];
        let seg_b: &[(&str, EdgeKind, u64)] = &[
            ("b/s0", EdgeKind::QueueWait, 40_000),
            ("client:c", EdgeKind::Network, 2_000),
        ];
        let mut x = CpcProfile::new();
        x.observe(1_000, seg_a);
        let mut y = CpcProfile::new();
        y.observe(42_000, seg_b);

        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx);

        let mut both = CpcProfile::new();
        both.observe(1_000, seg_a);
        both.observe(42_000, seg_b);
        assert_eq!(xy, both);
    }

    /// What [`BucketRun`] replaced, kept as its reference: two vectors
    /// indexed from bucket 0, grown to the highest bucket touched.
    #[derive(Debug, Clone, Default)]
    struct Dense {
        ns: Vec<u64>,
        count: Vec<u64>,
    }

    impl Dense {
        fn add(&mut self, bucket: usize, ns: u64) {
            if bucket >= self.ns.len() {
                self.ns.resize(bucket + 1, 0);
                self.count.resize(bucket + 1, 0);
            }
            self.ns[bucket] += ns;
            self.count[bucket] += 1;
        }

        fn merge(&mut self, other: &Dense) {
            if self.ns.len() < other.ns.len() {
                self.ns.resize(other.ns.len(), 0);
                self.count.resize(other.count.len(), 0);
            }
            for (dst, &src) in self.ns.iter_mut().zip(&other.ns) {
                *dst += src;
            }
            for (dst, &src) in self.count.iter_mut().zip(&other.count) {
                *dst += src;
            }
        }

        fn range_ns(&self, lo: usize, hi_inclusive: usize) -> u64 {
            let hi = (hi_inclusive + 1).min(self.ns.len());
            if lo >= hi {
                return 0;
            }
            self.ns[lo..hi].iter().sum()
        }
    }

    /// The run says exactly what the dense vectors say, bucket by bucket.
    fn assert_same(run: &BucketRun, dense: &Dense, context: &str) {
        assert_eq!(run.end(), dense.ns.len(), "{context}");
        for bucket in 0..dense.ns.len() {
            let cell = match bucket.checked_sub(run.first) {
                Some(i) => run.cells[i],
                None => [0; 2],
            };
            assert_eq!(cell, [dense.ns[bucket], dense.count[bucket]], "{context}");
        }
        // Both ends are touched buckets: the representation is unique.
        for end in [run.cells.first(), run.cells.last()].into_iter().flatten() {
            assert!(end[1] > 0, "{context}: an end of the run is untouched");
        }
    }

    /// A seeded xorshift: each call draws a number below its argument.
    fn draws(mut x: u64) -> impl FnMut(u64) -> u64 {
        move |below| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % below
        }
    }

    #[test]
    fn bucket_run_agrees_with_a_dense_reference() {
        let mut next = draws(0x9e37_79b9_7f4a_7c15);
        // Six (run, reference) pairs under one random sequence of adds
        // (anywhere in 400..600, so below `first` as often as past the
        // end), merges (of an empty operand, into one, of a pair into
        // itself) and resets.
        let mut pool: Vec<(BucketRun, Dense)> = vec![Default::default(); 6];
        for step in 0..20_000 {
            let (i, j) = (next(6) as usize, next(6) as usize);
            match next(10) {
                0 => pool[i] = Default::default(),
                1 | 2 => {
                    let (run, dense) = pool[j].clone();
                    pool[i].0.merge(&run);
                    pool[i].1.merge(&dense);
                }
                _ => {
                    let (bucket, ns) = (400 + next(200) as usize, next(1_000));
                    pool[i].0.add(bucket, ns);
                    pool[i].1.add(bucket, ns);
                }
            }
            let (run, dense) = &pool[i];
            assert_same(run, dense, &format!("step {step}"));
            let (lo, span) = (350 + next(300) as usize, next(120) as usize);
            assert_eq!(
                run.range_ns(lo, lo + span),
                dense.range_ns(lo, lo + span),
                "step {step}: buckets {lo}..={}",
                lo + span
            );
            // Equal contents are equal runs, however each was reached.
            let same = pool[i].1.ns == pool[j].1.ns && pool[i].1.count == pool[j].1.count;
            assert_eq!(pool[i].0 == pool[j].0, same, "step {step}: {i} vs {j}");
        }
    }

    #[test]
    fn profiles_built_in_any_order_are_equal_and_report_what_a_dense_table_reports() {
        let mut next = draws(0x2545_f491_4f6c_dd1d);
        // 400 requests over four sites, latencies over three decades.
        let sites = ["a/s0", "a/s1", "b/s0", "client:c"];
        type Segs = Vec<(&'static str, EdgeKind, u64)>;
        let requests: Vec<(u64, Segs)> = (0..400)
            .map(|_| {
                let scale = 10u64.pow(3 + next(3) as u32);
                let segs: Segs = (0..1 + next(4))
                    .map(|_| {
                        let kind = EdgeKind::ALL[next(3) as usize + 1];
                        (sites[next(4) as usize], kind, 1 + next(scale))
                    })
                    .collect();
                (segs.iter().map(|s| s.2).sum(), segs)
            })
            .collect();

        let observe_all = |order: &mut dyn Iterator<Item = usize>| {
            let mut profile = CpcProfile::new();
            order.for_each(|i| profile.observe(requests[i].0, &requests[i].1));
            profile
        };
        let forward = observe_all(&mut (0..requests.len()));
        let backward = observe_all(&mut (0..requests.len()).rev());
        assert_eq!(forward, backward);
        // Merged from parts, in either order, with an empty profile among
        // them and into itself halved.
        let (head, tail) = (observe_all(&mut (0..150)), observe_all(&mut (150..400)));
        for (first, second) in [(&head, &tail), (&tail, &head)] {
            let mut merged = CpcProfile::new();
            merged.merge(first);
            merged.merge(&CpcProfile::new());
            merged.merge(second);
            assert_eq!(merged, forward);
            assert_eq!(merged.report(), forward.report());
        }
        let mut doubled = forward.clone();
        doubled.merge(&forward);
        let twice = observe_all(&mut (0..requests.len()).chain(0..requests.len()));
        assert_eq!(doubled, twice);

        // The report's numbers, against a dense table of the same requests.
        let mut table: std::collections::BTreeMap<(&str, EdgeKind), Dense> = Default::default();
        for (e2e_ns, segs) in &requests {
            for &(site, kind, ns) in segs {
                let dense = table.entry((site, kind)).or_default();
                dense.add(bucket_index(*e2e_ns), ns);
            }
        }
        let report = forward.report();
        let (p50_hi, p99_lo) = (bucket_index(report.p50_ns), bucket_index(report.p99_ns));
        let last = table.values().map(|d| d.ns.len()).max().unwrap() - 1;
        assert_eq!(report.rows.len(), table.len());
        for (row, ((site, kind), dense)) in report.rows.iter().zip(&table) {
            assert_eq!((row.site.as_str(), row.kind), (*site, *kind));
            assert_eq!(row.overall_ns, dense.ns.iter().sum::<u64>(), "{site}");
            assert_eq!(row.p50_ns, dense.range_ns(0, p50_hi), "{site}");
            assert_eq!(row.p99_ns, dense.range_ns(p99_lo, last), "{site}");
        }
    }

    #[test]
    fn empty_profile_renders() {
        let p = CpcProfile::new();
        let report = p.report();
        assert_eq!(report.requests, 0);
        assert!(report.top_p99().is_none());
        assert!(report.to_text().contains("no measured completions"));
        assert!(p
            .registry()
            .to_prometheus()
            .contains("uqsim_critpath_requests 0"));
    }

    /// No log the simulator can record fails to telescope, so the check is
    /// tripped from inside: a segment nothing charged, slipped into a live
    /// request between two chunks.
    #[test]
    fn a_replay_error_outlives_the_chunk_it_was_found_in() {
        use crate::ids::{ConnectionId, RequestTypeId};
        let request = RequestId::new(1, 0);
        let at = SimTime::from_nanos;
        let chunk_of = |events: &[TraceEvent]| {
            let mut log = TraceLog::new(events.len());
            events.iter().for_each(|&ev| log.record(ev));
            log
        };
        let opening = chunk_of(&[
            TraceEvent::RequestEmitted {
                request,
                request_type: RequestTypeId::from_raw(0),
                client: ClientId::from_raw(0),
                t: at(0),
            },
            TraceEvent::RequestLaunched {
                request,
                conn: ConnectionId::from_raw(0),
                t: at(10),
            },
        ]);
        let closing = chunk_of(&[TraceEvent::RequestCompleted {
            request,
            request_type: RequestTypeId::from_raw(0),
            timed_out: false,
            measured: true,
            retired: true,
            t: at(50),
        }]);
        let replay = |tamper: bool, dropped: u64| {
            let mut fold = ReplayFold::new();
            fold.feed(opening.retained());
            if tamper {
                let live = fold.reqs.get_mut(&request).expect("the request is live");
                live.segs.push(CritSeg {
                    site: CritSite::Client(ClientId::from_raw(0)),
                    kind: EdgeKind::Network,
                    ns: 5,
                });
            }
            fold.feed(closing.retained());
            // Later chunks neither clear the error nor add to the profile.
            fold.feed(opening.retained());
            fold.feed(closing.retained());
            fold.finish(&TraceMeta::default(), 6, dropped)
        };
        assert_eq!(replay(false, 0).expect("telescopes").requests(), 2);
        let err = replay(true, 0).expect_err("55 ns of segments in 50 ns");
        assert!(
            err.contains("does not telescope: segments sum to 55 ns, end-to-end is 50 ns"),
            "{err}"
        );
        // Truncation is reported first, as for a retained log.
        let err = replay(true, 3).expect_err("truncated");
        assert!(err.contains("raise the trace capacity (--events) to at least 9"));

        // A corrupt log can move a request back in time. That is an error
        // naming the event, the request and both timestamps — in whichever
        // chunk the event arrives — not a `SimTime` subtraction panic.
        let stale = chunk_of(&[TraceEvent::RequestLaunched {
            request,
            conn: ConnectionId::from_raw(0),
            t: at(5),
        }]);
        let mut fold = ReplayFold::new();
        for chunk in [&opening, &stale, &closing] {
            fold.feed(chunk.retained());
        }
        assert_eq!(
            fold.finish(&TraceMeta::default(), 4, 0),
            Err("span event 2: request RequestId(1.0) goes back in time: \
                 stamped 5 ns, behind its frontier at 10 ns"
                .to_string())
        );
    }
}
