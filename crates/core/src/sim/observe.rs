//! Observers: the span log, live telemetry, the warm-up baseline of the
//! busy counters, and the controllers with the latency samples they read
//! at each tick. Nothing here changes the trajectory: every hook is one
//! branch when its observer is off, and no hook draws a random number.

use super::{Cx, Simulator};
use crate::connection::ConnectionPool;
use crate::controller::{ControlAction, Controller, TickStats};
use crate::critpath::{CritSeg, CritSite, EdgeKind};
use crate::event::EventKind;
use crate::ids::{ControllerId, InstanceId, JobId, MachineId, PoolId, RequestId};
use crate::job::Request;
use crate::metrics::LatencySummary;
use crate::telemetry::{
    Baseline, MergeRule, MetricKind, MetricsRegistry, MetricsSnapshot, SeriesDef, SeriesSet,
    StreamingHistogram, TelemetryConfig, TelemetryState, TelemetryWindow, CSV_HEADER,
    INSTANCE_QUEUE_DEPTH, INSTANCE_UTILIZATION, LATENCY_COMPONENT, NETWORK_UTILIZATION,
};
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    AuditReport, BatchJobs, ChromeTrace, ChunkReceiver, TraceAuditor, TraceEvent, TraceLog,
};

/// Where a latency charge happened, resolved lazily against the request
/// inside [`charge_latency`] (`Client` avoids a second arena lookup at the
/// call site — the charged request's own client is meant).
#[derive(Debug, Clone, Copy)]
pub(super) enum CritSiteRef {
    Client,
    Instance(InstanceId),
    Stage(InstanceId, u32),
    Pool(PoolId),
}

/// What a sampler column is about, named only when the columns are
/// defined (see [`Simulator::sampler_columns`]).
#[derive(Debug, Clone, Copy)]
enum Entity<'a> {
    /// The run as a whole: no label.
    Run,
    Instance(usize),
    Machine(usize),
    Pool(&'a ConnectionPool),
}

/// The one place a latency charge is written: charges `req`'s
/// not-yet-attributed time `[mark, now]` to `kind` at `site` — one
/// [`CritSeg`] on the request unless the interval is empty — and advances
/// the frontier to `now`. Consecutive charges telescope, so on completion
/// the segments sum exactly to `completed - submitted`.
#[inline]
fn charge_latency(req: &mut Request, now: SimTime, kind: EdgeKind, site: CritSiteRef) {
    let ns = (now - req.mark).as_nanos();
    req.mark = now;
    if ns == 0 {
        return;
    }
    // A retry's wait for a client connection is split out from ordinary
    // client wait; hedge twins keep the plain kind.
    let kind = if kind == EdgeKind::ClientWait && req.attempt > 0 && req.hedge_twin.is_none() {
        EdgeKind::RetryBackoff
    } else {
        kind
    };
    let site = match site {
        CritSiteRef::Client => CritSite::Client(req.client),
        CritSiteRef::Instance(i) => CritSite::Instance(i),
        CritSiteRef::Stage(i, s) => CritSite::Stage(i, s),
        CritSiteRef::Pool(p) => CritSite::Pool(p),
    };
    req.crit.push(CritSeg { site, kind, ns });
}

/// The observers of a run. Each is off until switched on, and costs one
/// branch per hook while off.
#[derive(Default)]
pub(super) struct Observers {
    /// Span/event recorder (see [`crate::trace`]).
    span_log: Option<Box<TraceLog>>,
    /// Live-telemetry state (see [`crate::telemetry`]).
    telemetry: Option<Box<TelemetryState>>,
    /// Busy nanoseconds at the warm-up boundary — per instance (summed
    /// over its cores) and per machine (summed over its irq cores) — the
    /// origin of the since-warm-up `*_utilization` views. `None` until the
    /// builder's one-shot [`EventKind::TelemetrySample`] fires.
    warmup_busy: Option<Baseline>,
    controllers: Vec<Box<dyn Controller>>,
    /// End-to-end latencies and per-instance node residencies since the
    /// last controller tick; only pushed while a controller is registered.
    interval_e2e: Vec<f64>,
    interval_instance: Vec<Vec<f64>>,
}

impl Observers {
    /// Observers of a cluster of `instances` instances, all off.
    pub(super) fn new(instances: usize) -> Observers {
        Observers {
            interval_instance: vec![Vec::new(); instances],
            ..Observers::default()
        }
    }

    /// Records `ev` in the span log, if there is one.
    #[inline]
    pub(super) fn record(&mut self, ev: TraceEvent) {
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(ev);
        }
    }

    /// Records the event `make` builds over a batch's `jobs`, if there is
    /// a span log.
    #[inline]
    pub(super) fn record_batch(
        &mut self,
        jobs: &[JobId],
        make: impl FnOnce(BatchJobs) -> TraceEvent,
    ) {
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record_batch(jobs, make);
        }
    }

    /// Whether telemetry is on.
    pub(super) fn telemetry_on(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Charges request `rid`'s time since its last charge to `kind` at
    /// `site` (see [`charge_latency`]). A single branch when telemetry is
    /// off; a no-op for a request that is already gone.
    #[inline]
    pub(super) fn charge(&self, cx: &mut Cx, rid: RequestId, kind: EdgeKind, site: CritSiteRef) {
        if self.telemetry.is_none() {
            return;
        }
        if let Some(req) = cx.requests.get_mut(rid) {
            charge_latency(req, cx.now, kind, site);
        }
    }

    /// Charges `rid`'s time since its last charge to `kind` — the queue
    /// wait before or the service in `stage` of `inst` — and, from the
    /// warm-up instant on, records the job's interval since `since` in
    /// that stage's histogram.
    #[inline]
    pub(super) fn on_stage_interval(
        &mut self,
        cx: &mut Cx,
        rid: RequestId,
        kind: EdgeKind,
        inst: InstanceId,
        stage: usize,
        since: SimTime,
    ) {
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        if let Some(req) = cx.requests.get_mut(rid) {
            charge_latency(req, cx.now, kind, CritSiteRef::Stage(inst, stage as u32));
        }
        if cx.now >= cx.warmup_at {
            let hists = match kind {
                EdgeKind::QueueWait => &mut tel.stage_queue_wait,
                _ => &mut tel.stage_service,
            };
            hists[inst.index()][stage].record((cx.now - since).as_nanos());
        }
    }

    /// Request `rid`'s response reached its client after `latency`: feeds
    /// the sampler window unless the response was `excluded` (timed out or
    /// superseded), and — for a `measured` one — the decomposition and
    /// the fold by site, from the request's critical-path segments.
    pub(super) fn on_completion(
        &mut self,
        cx: &Cx,
        rid: RequestId,
        latency: SimDuration,
        excluded: bool,
        measured: bool,
    ) {
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        let segs = cx.requests.get(rid).map_or(&[][..], |r| &r.crit);
        debug_assert!(
            segs.iter().map(|s| s.ns).sum::<u64>() == latency.as_nanos(),
            "critical-path segments do not telescope: {segs:?} vs {} ns",
            latency.as_nanos()
        );
        if !excluded {
            tel.on_completion(segs, latency, measured);
        }
    }

    /// A measured response's latency, for the next controller tick.
    pub(super) fn on_response(&mut self, latency: SimDuration) {
        if !self.controllers.is_empty() {
            self.interval_e2e.push(latency.as_secs_f64());
        }
    }

    /// A node visit of `residency` at `inst`, for the next controller tick.
    pub(super) fn on_node_done(&mut self, inst: InstanceId, residency: SimDuration) {
        if !self.controllers.is_empty() {
            self.interval_instance[inst.index()].push(residency.as_secs_f64());
        }
    }

    /// Ticks controller `id` on the latencies since its last tick and
    /// schedules its next tick. Returns the actions it decided on.
    pub(super) fn on_controller_tick(
        &mut self,
        cx: &mut Cx,
        id: ControllerId,
    ) -> Vec<ControlAction> {
        let ctrl = &mut self.controllers[id.index()];
        let stats = TickStats {
            end_to_end: LatencySummary::from_samples(&self.interval_e2e),
            per_instance: (self.interval_instance.iter())
                .map(|v| LatencySummary::from_samples(v))
                .collect(),
        };
        self.interval_e2e.clear();
        for v in &mut self.interval_instance {
            v.clear();
        }
        let (actions, next) = ctrl.tick(cx.now, &stats);
        cx.events
            .schedule(cx.now + next, EventKind::ControllerTick { controller: id });
        actions
    }
}

impl Simulator {
    /// Registers a controller; its first tick fires `first_tick()` from now.
    pub fn add_controller(&mut self, controller: Box<dyn Controller>) -> ControllerId {
        let id = ControllerId::from_raw(self.obs.controllers.len() as u32);
        let first = controller.first_tick();
        self.obs.controllers.push(controller);
        self.cx.events.schedule(
            self.cx.now + first,
            EventKind::ControllerTick { controller: id },
        );
        id
    }

    /// Takes the telemetry state out of the simulator (switching
    /// telemetry off).
    pub(crate) fn take_telemetry(&mut self) -> Option<Box<TelemetryState>> {
        self.obs.telemetry.take()
    }

    /// Enables per-request span tracing (see [`crate::trace`]): every
    /// request emission, network processing interval, stage enqueue, batch
    /// service, pool interaction, fan-in arrival, and completion is
    /// recorded, up to `capacity` events (further events are counted as
    /// dropped). Tracing every hot-path site costs simulator speed; leave
    /// it disabled for throughput experiments.
    pub fn enable_span_tracing(&mut self, capacity: usize) {
        self.obs.span_log = Some(Box::new(TraceLog::new(capacity)));
    }

    /// Enables span tracing with a *streamed* log
    /// ([`TraceLog::streaming`]): the same events, up to `capacity` in all,
    /// but each full chunk goes to the returned receiver — to be
    /// [drained](ChunkReceiver::drain) on another thread while this one
    /// runs — instead of staying in memory. Call
    /// [`close_span_stream`](Self::close_span_stream) when the run is over.
    pub fn stream_span_tracing(&mut self, capacity: usize) -> ChunkReceiver {
        let (log, chunks) = TraceLog::streaming(capacity);
        self.obs.span_log = Some(Box::new(log));
        chunks
    }

    /// Hands the last chunk of a streamed span log to its consumer and
    /// ends the stream ([`TraceLog::close`]).
    pub fn close_span_stream(&mut self) {
        if let Some(log) = self.obs.span_log.as_deref_mut() {
            log.close();
        }
    }

    /// The span log, if span tracing is enabled. Of a streamed log only the
    /// totals ([`TraceLog::len`], [`TraceLog::dropped`]) are still here.
    pub fn span_log(&self) -> Option<&TraceLog> {
        self.obs.span_log.as_deref()
    }

    /// Takes the span log out of the simulator (disabling further
    /// recording).
    pub fn take_span_log(&mut self) -> Option<TraceLog> {
        self.obs.span_log.take().map(|b| *b)
    }

    /// The span log as Chrome `trace_event` JSON (viewable in
    /// `about:tracing` or Perfetto) — a view to serialize, see
    /// [`ChromeTrace`] — or `None` if span tracing is disabled.
    pub fn chrome_trace(&self) -> Option<ChromeTrace<'_>> {
        self.obs
            .span_log
            .as_deref()
            .map(|log| ChromeTrace::of_log(log, self.trace_meta()))
    }

    /// Audits the span log against the simulator's invariants (see
    /// [`TraceAuditor`]), or `None` if span tracing is disabled.
    pub fn audit_trace(&self) -> Option<AuditReport> {
        self.obs
            .span_log
            .as_deref()
            .map(|log| TraceAuditor::new().audit(log, &self.audit_counts()))
    }

    /// The streaming critical-path contribution profile accumulated so far
    /// (label-resolved and mergeable), or `None` unless telemetry was
    /// enabled with [`TelemetryConfig::critpath`](crate::telemetry::TelemetryConfig)
    /// set.
    pub fn critpath_profile(&self) -> Option<crate::critpath::CpcProfile> {
        let tel = self.obs.telemetry.as_deref()?;
        if !tel.cfg.critpath {
            return None;
        }
        Some(tel.crit.snapshot(&self.trace_meta(), &tel.e2e_hist))
    }
}

impl Simulator {
    /// Enables the telemetry layer. Call before [`Simulator::run_for`];
    /// decomposition starts from the requests generated after this call
    /// (in-flight requests are still attributed correctly — the component
    /// sums stay exact — but their pre-enable intervals collapse into the
    /// first post-enable charge).
    ///
    /// With `cfg.sample_interval` set, a recurring
    /// [`EventKind::TelemetrySample`] event snapshots the gauge series and
    /// closes a [`TelemetryWindow`] at each tick.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let now = self.baseline();
        let mut defs = Vec::new();
        self.sampler_columns(&now, &now, |metric, entity, _| {
            defs.push(SeriesDef {
                metric,
                label: self.series_label(entity),
            });
        });
        let stage_hists: Vec<Vec<StreamingHistogram>> = (0..self.instances.len())
            .map(|i| vec![StreamingHistogram::new(); self.instances.stages(i).len()])
            .collect();
        let state = TelemetryState {
            cfg,
            comp_hist: std::array::from_fn(|_| StreamingHistogram::new()),
            e2e_hist: StreamingHistogram::new(),
            stage_queue_wait: stage_hists.clone(),
            stage_service: stage_hists,
            window_buf: Vec::new(),
            windows: Vec::new(),
            series: SeriesSet::new(defs),
            prev: now,
            crit: crate::critpath::CritAccum::default(),
        };
        self.obs.telemetry = Some(Box::new(state));
        if let Some(interval) = cfg.sample_interval {
            assert!(
                interval > SimDuration::ZERO,
                "sample interval must be positive"
            );
            self.cx.events.schedule(
                self.cx.now + interval,
                EventKind::TelemetrySample { recurring: true },
            );
        }
    }

    /// The busy counters and the retry count now.
    fn baseline(&self) -> Baseline {
        Baseline {
            at: self.cx.now,
            inst_busy: (0..self.instances.len())
                .map(|i| self.instances.busy_ns(&self.machines, i))
                .collect(),
            irq_busy: (0..self.machines.len())
                .map(|m| self.machines.irq_busy_ns(m))
                .collect(),
            retried: self.retried(),
        }
    }

    /// Walks the sampler's columns in [`SeriesSet`] order, handing `col`
    /// each column's metric, the entity it is labeled with, and its value
    /// over the tick from `prev` to `now`. `enable_telemetry` defines the
    /// columns from this walk and each tick pushes its row from it, so the
    /// two cannot disagree.
    ///
    /// The fault-gated columns come last and only with a fault plan: a run
    /// without one exports exactly the series it did before the fault
    /// engine existed. Faults are installed before telemetry is enabled
    /// (`install_faults` asserts this), so the column set is fixed.
    fn sampler_columns<'a>(
        &'a self,
        prev: &Baseline,
        now: &Baseline,
        mut col: impl FnMut(&'static str, Entity<'a>, f64),
    ) {
        let span_ns = (now.at - prev.at).as_nanos().max(1) as f64;
        col("live_requests", Entity::Run, self.cx.requests.live() as f64);
        col("live_jobs", Entity::Run, self.cx.jobs.live() as f64);
        col("event_heap", Entity::Run, self.cx.events.len() as f64);
        for i in 0..self.instances.len() {
            let ncores = self.instances.cores(i).len().max(1) as f64;
            let busy = now.inst_busy[i].saturating_sub(prev.inst_busy[i]);
            let depth = self.instances.queue_depth(i);
            let (running, blocked) = self.instances.thread_states(i);
            let at = Entity::Instance(i);
            col("instance_queue_depth", at, depth as f64);
            col("instance_utilization", at, busy as f64 / (span_ns * ncores));
            col("threads_running", at, running as f64);
            col("threads_blocked", at, blocked as f64);
        }
        for m in 0..self.machines.len() {
            let nirq = self.machines.irq_count(m).max(1) as f64;
            let busy = now.irq_busy[m].saturating_sub(prev.irq_busy[m]);
            let at = Entity::Machine(m);
            col("network_utilization", at, busy as f64 / (span_ns * nirq));
            col("net_queue_depth", at, self.machines.net_depth(m) as f64);
        }
        for p in self.paths.pools() {
            col("pool_free", Entity::Pool(p), p.free_count() as f64);
            col("pool_waiters", Entity::Pool(p), p.waiter_count() as f64);
        }
        if self.faults.installed() {
            let retries = now.retried.saturating_sub(prev.retried);
            col("retry_rate", Entity::Run, retries as f64 / (span_ns / 1e9));
            for i in 0..self.instances.len() {
                let down = f64::from(u8::from(self.faults.is_down(i)));
                col("instance_fault_down", Entity::Instance(i), down);
            }
        }
    }

    /// The label of a sampler column about `entity`.
    fn series_label(&self, entity: Entity<'_>) -> Option<(&'static str, String)> {
        match entity {
            Entity::Run => None,
            Entity::Instance(i) => Some(("instance", self.instances.name(i).to_string())),
            Entity::Machine(m) => Some(("machine", self.machines.name(m).to_string())),
            Entity::Pool(p) => Some(("pool", self.pool_name(p))),
        }
    }

    /// A pool's name: `up->down`, its two instances.
    fn pool_name(&self, p: &ConnectionPool) -> String {
        let up = self.instances.name(p.up_instance.index());
        format!("{up}->{}", self.instances.name(p.down_instance.index()))
    }

    /// Handles a [`EventKind::TelemetrySample`] event. The one-shot
    /// (`recurring == false`) variant only records the warm-up baseline of
    /// the busy counters (the builder schedules it at the warm-up boundary,
    /// so the since-warm-up utilization getters have an exact origin); the
    /// recurring variant is the sampler tick.
    pub(crate) fn on_telemetry_sample(&mut self, recurring: bool) {
        let now = self.baseline();
        if !recurring {
            self.obs.warmup_busy = Some(now);
            return;
        }
        let Some(tel) = self.obs.telemetry.as_deref() else {
            return;
        };
        let mut row = Vec::with_capacity(tel.series.defs().len());
        self.sampler_columns(&tel.prev, &now, |_, _, value| row.push(value));

        let Some(tel) = self.obs.telemetry.as_deref_mut() else {
            return;
        };
        let interval = tel
            .cfg
            .sample_interval
            .expect("recurring sample without an interval");
        // Close the latency window over completions since the last tick.
        let summary = LatencySummary::from_samples(&tel.window_buf);
        tel.windows.push(TelemetryWindow {
            end: now.at,
            count: summary.count as u64,
            p50_s: summary.p50,
            p95_s: summary.p95,
            p99_s: summary.p99,
            throughput: summary.count as f64 / interval.as_secs_f64(),
        });
        tel.window_buf.clear();
        tel.series.push_row(now.at, &row);
        let next = now.at + interval;
        tel.prev = now;
        self.cx
            .events
            .schedule(next, EventKind::TelemetrySample { recurring: true });
    }

    /// Mean core utilization of an instance since the warm-up boundary, up
    /// to now (0 until the clock passes the boundary). Busy nanoseconds
    /// accrue up front when a batch starts service, so a short interval
    /// ending mid-batch can read slightly above 1.0.
    pub fn instance_utilization(&self, instance: InstanceId) -> f64 {
        let i = instance.index();
        let busy = self.instances.busy_ns(&self.machines, i);
        let at_warmup = self.obs.warmup_busy.as_ref().map(|b| b.inst_busy[i]);
        self.busy_share_since_warmup(busy, at_warmup, self.instances.cores(i).len())
    }

    /// Mean irq-core utilization of a machine since the warm-up boundary;
    /// see [`Simulator::instance_utilization`].
    pub fn network_utilization(&self, machine: MachineId) -> f64 {
        let m = machine.index();
        let busy = self.machines.irq_busy_ns(m);
        let at_warmup = self.obs.warmup_busy.as_ref().map(|b| b.irq_busy[m]);
        self.busy_share_since_warmup(busy, at_warmup, self.machines.irq_count(m))
    }

    /// The share of `cores` cores' time since the warm-up boundary spent
    /// busy, given their busy nanoseconds now and at the boundary (`None`
    /// before its baseline is recorded: then from time zero).
    fn busy_share_since_warmup(&self, busy: u64, at_warmup: Option<u64>, cores: usize) -> f64 {
        let warmup_at = self.cx.warmup_at;
        if cores == 0 || warmup_at >= self.cx.now {
            return 0.0;
        }
        let (t0, busy0) = match at_warmup {
            Some(busy0) => (warmup_at, busy0),
            None => (SimTime::ZERO, 0),
        };
        let span = (self.cx.now - t0).as_nanos();
        busy.saturating_sub(busy0) as f64 / (span as f64 * cores as f64)
    }

    /// The closed sampler windows (empty slice when the sampler is off).
    pub fn telemetry_windows(&self) -> &[TelemetryWindow] {
        self.obs
            .telemetry
            .as_deref()
            .map(|t| t.windows.as_slice())
            .unwrap_or(&[])
    }

    /// The sampled gauge series, if the sampler is enabled.
    pub fn telemetry_series(&self) -> Option<&SeriesSet> {
        self.obs.telemetry.as_deref().map(|t| &t.series)
    }

    /// The compact per-run summary threaded into sweep tables.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let n_inst = self.instances.len();
        let instance_utilization = if n_inst == 0 {
            0.0
        } else {
            (0..n_inst)
                .map(|i| self.instance_utilization(InstanceId::from_raw(i as u32)))
                .sum::<f64>()
                / n_inst as f64
        };
        let irq_machines: Vec<usize> = (0..self.machines.len())
            .filter(|&m| self.machines.irq_count(m) > 0)
            .collect();
        let network_utilization = if irq_machines.is_empty() {
            0.0
        } else {
            irq_machines
                .iter()
                .map(|&m| self.network_utilization(MachineId::from_raw(m as u32)))
                .sum::<f64>()
                / irq_machines.len() as f64
        };
        let (decomposed_requests, component_mean_s) = match self.obs.telemetry.as_deref() {
            Some(t) => (
                t.e2e_hist.count(),
                t.comp_hist.each_ref().map(|h| h.mean_secs()),
            ),
            None => (0, [0.0; EdgeKind::COMPONENTS]),
        };
        MetricsSnapshot {
            instance_utilization,
            network_utilization,
            decomposed_requests,
            component_mean_s,
        }
    }

    /// Assembles the full metrics registry: run counters, per-entity
    /// gauges, fault counters and latency summaries. Every family is
    /// listed, in the same order, whatever the simulator holds; a family
    /// whose entities are absent is empty — pools in a pool-less scenario,
    /// the fault families without a fault plan, the summaries without
    /// telemetry — and prints nothing.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        use MergeRule::{Add, PerEntity, Same};
        use MetricKind::{Counter, Gauge, Summary};
        let mut reg = MetricsRegistry::new();
        for (name, help, value) in [
            (
                "uqsim_requests_generated_total",
                "Requests generated by all clients.",
                self.generated(),
            ),
            (
                "uqsim_requests_completed_total",
                "Requests whose response reached the client.",
                self.completed(),
            ),
            (
                "uqsim_request_timeouts_total",
                "Requests whose client-side timeout fired.",
                self.timeouts(),
            ),
            (
                "uqsim_events_processed_total",
                "Events the simulation engine has processed.",
                self.cx.events_processed,
            ),
        ] {
            reg.declare(name, help, Counter, Add).counter(vec![], value);
        }
        reg.declare(
            "uqsim_sim_time_seconds",
            "Current simulated time.",
            Gauge,
            Same,
        )
        .gauge(vec![], self.cx.now.as_secs_f64());
        reg.declare(
            "uqsim_live_requests",
            "Requests currently in flight.",
            Gauge,
            Add,
        )
        .gauge(vec![], self.cx.requests.live() as f64);
        reg.declare("uqsim_live_jobs", "Jobs currently in flight.", Gauge, Add)
            .gauge(vec![], self.cx.jobs.live() as f64);
        let instances = || {
            (0..self.instances.len()).map(|i| {
                (
                    InstanceId::from_raw(i as u32),
                    self.instances.name(i).to_string(),
                )
            })
        };
        let fam = reg.declare(
            INSTANCE_UTILIZATION,
            "Mean core utilization of the instance since warmup.",
            Gauge,
            PerEntity,
        );
        for (id, name) in instances() {
            fam.gauge(vec![("instance", name)], self.instance_utilization(id));
        }
        let fam = reg.declare(
            INSTANCE_QUEUE_DEPTH,
            "Jobs currently queued at the instance.",
            Gauge,
            PerEntity,
        );
        for (id, name) in instances() {
            fam.gauge(
                vec![("instance", name)],
                self.instance_queue_depth(id) as f64,
            );
        }
        let fam = reg.declare(
            NETWORK_UTILIZATION,
            "Mean irq-core utilization of the machine since warmup.",
            Gauge,
            PerEntity,
        );
        for mi in 0..self.machines.len() {
            let util = self.network_utilization(MachineId::from_raw(mi as u32));
            fam.gauge(vec![("machine", self.machines.name(mi).to_string())], util);
        }
        let pool_label = |p| vec![("pool", self.pool_name(p))];
        let fam = reg.declare(
            "uqsim_pool_free",
            "Free connections in the pool.",
            Gauge,
            PerEntity,
        );
        for p in self.paths.pools() {
            fam.gauge(pool_label(p), p.free_count() as f64);
        }
        let fam = reg.declare(
            "uqsim_pool_waiters",
            "Jobs blocked waiting for a pool connection.",
            Gauge,
            PerEntity,
        );
        for p in self.paths.pools() {
            fam.gauge(pool_label(p), p.waiter_count() as f64);
        }
        // The fault families are empty without a fault plan, so the
        // Prometheus export of an unfaulted run prints none of them.
        let fault = self.faults.snapshot();
        let installed = fault.is_some();
        let s = fault.unwrap_or_default();
        for (name, help, value) in [
            (
                "uqsim_requests_dropped_total",
                "Requests terminally dropped by an injected fault.",
                s.dropped,
            ),
            (
                "uqsim_requests_shed_total",
                "Requests shed at emission by an open circuit breaker.",
                s.shed,
            ),
            (
                "uqsim_retries_total",
                "Retry emissions fired by client resilience policies.",
                self.retried(),
            ),
            (
                "uqsim_responses_degraded_total",
                "Responses delivered in degraded mode (sheds and quorum early-fires).",
                self.degraded(),
            ),
            (
                "uqsim_hedges_total",
                "Hedged duplicate attempts emitted.",
                s.hedged,
            ),
            (
                "uqsim_jobs_killed_total",
                "Jobs killed by crashes, drains, or exhausted retransmits.",
                s.jobs_killed,
            ),
            (
                "uqsim_packets_dropped_total",
                "Packet deliveries dropped by degraded links.",
                s.packets_dropped,
            ),
            (
                "uqsim_retransmits_total",
                "Packet retransmissions after a drop.",
                s.retransmits,
            ),
            (
                "uqsim_breaker_trips_total",
                "Times a client circuit breaker opened.",
                s.breaker_trips,
            ),
        ] {
            let fam = reg.declare(name, help, Counter, Add);
            if installed {
                fam.counter(vec![], value);
            }
        }
        let fam = reg.declare(
            "uqsim_instance_fault_down",
            "1 while the instance is crashed, else 0.",
            Gauge,
            PerEntity,
        );
        if installed {
            for (id, name) in instances() {
                let down = f64::from(u8::from(self.faults.is_down(id.index())));
                fam.gauge(vec![("instance", name)], down);
            }
        }
        let tel = self.obs.telemetry.as_deref();
        let fam = reg.declare(
            "uqsim_e2e_latency_seconds",
            "End-to-end latency over measured completions.",
            Summary,
            Add,
        );
        if let Some(t) = tel {
            fam.summary(vec![], &t.e2e_hist);
        }
        let fam = reg.declare(
            LATENCY_COMPONENT,
            "Per-request latency attributed to each component.",
            Summary,
            Add,
        );
        if let Some(t) = tel {
            let components = &EdgeKind::ALL[..EdgeKind::COMPONENTS];
            for (c, hist) in components.iter().zip(&t.comp_hist) {
                fam.summary(vec![("component", c.name().to_string())], hist);
            }
        }
        for (name, help, hists) in [
            (
                "uqsim_stage_queue_wait_seconds",
                "Time jobs spent queued before each stage.",
                tel.map(|t| &t.stage_queue_wait),
            ),
            (
                "uqsim_stage_service_seconds",
                "Per-job service interval of each stage.",
                tel.map(|t| &t.stage_service),
            ),
        ] {
            let fam = reg.declare(name, help, Summary, PerEntity);
            let Some(hists) = hists else { continue };
            for (i, stages) in hists.iter().enumerate() {
                for (spec, hist) in self.instances.stages(i).iter().zip(stages) {
                    let labels = vec![
                        ("instance", self.instances.name(i).to_string()),
                        ("stage", spec.metric_label()),
                    ];
                    fam.summary(labels, hist);
                }
            }
        }
        reg
    }

    /// [`Simulator::metrics_registry`] rendered as Prometheus text.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics_registry().to_prometheus()
    }

    /// The long-form time-series CSV (`t_s,metric,label,value`), or `None`
    /// when the sampler is disabled. Rows are tick-major: the windowed
    /// latency summary of each tick, then every gauge series at that tick.
    ///
    /// **Row/label ordering contract** (pinned by the `metrics_golden` CLI
    /// test): each tick emits exactly five `windowed_*` rows with an empty
    /// label, in the fixed order `count`, `throughput_qps`, `p50_seconds`,
    /// `p95_seconds`, `p99_seconds`, followed by every gauge series in its
    /// registration order — the order entities appear in the scenario
    /// configuration — labeled with the entity name. The partitioned merge
    /// ([`merge_csv`](crate::partition::merge_csv)) preserves this
    /// per-cell ordering and is the byte-identity for single-cell runs.
    pub fn metrics_csv(&self) -> Option<String> {
        let tel = self.obs.telemetry.as_deref()?;
        tel.cfg.sample_interval?;
        let mut out = String::from(CSV_HEADER);
        let sampled = tel.sampled();
        for k in 0..sampled.ticks() {
            sampled.push_csv_tick(&mut out, k, "");
        }
        Some(out)
    }

    /// The full telemetry state as JSON: run counters, latency summary,
    /// utilization, decomposition means, sampler windows and gauge series.
    /// Rendered from [`Simulator::metrics_registry`] and the run summary so
    /// far, as the run pipeline renders a finished cell's `metrics.json`.
    pub fn metrics_json(&self) -> serde_json::Value {
        let (duration, warmup_s) = (
            self.cx.now - SimTime::ZERO,
            self.cx.cfg.warmup.as_secs_f64(),
        );
        let result = crate::run::result_of(self, self.cx.cfg.seed, duration, warmup_s);
        let sampled = self.obs.telemetry.as_deref().map(TelemetryState::sampled);
        self.metrics_registry().to_json(&result, sampled)
    }
}
