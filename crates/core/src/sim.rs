//! The simulator: cluster state, the run loop, and the public API.
//!
//! A [`Simulator`] is built from a scenario with
//! [`ScenarioConfig::build`](crate::config::ScenarioConfig::build), then
//! driven with [`Simulator::run_for`]. The event handlers behind it —
//! all behavior described in DESIGN.md §4: network processing on irq
//! cores, per-thread stage queues with epoll/socket batching,
//! connection-pool backpressure, fan-in synchronization, thread blocking,
//! and DVFS-aware service times — live in one child module per component:
//! `client` (emission, launch, response delivery, timeouts), `network`
//! (wire, packet loss, irq processing), `instance` (stage queues, batch
//! dispatch, node completion), `path` (fan-out, fan-in, connection pools)
//! and `fault` (fault windows, terminal outcomes, resilience policy).
//!
//! Residence per node visit, latency per request type, and the size and
//! service time of each batch are not kept beside the run: they are views
//! of the span log ([`Simulator::enable_span_tracing`]; `NodeDone`,
//! `RequestCompleted` and `BatchStart` events).

use crate::config::Name;
use crate::connection::{Connection, ConnectionPool};
use crate::controller::{ControlAction, Controller, TickStats};
use crate::critpath::{CritSeg, CritSite, EdgeKind};
use crate::event::{EventKind, EventQueue, Packet};
use crate::ids::{
    ConnectionId, ControllerId, InstanceId, JobId, MachineId, PoolId, RequestId, ServiceId, StageId,
};
use crate::job::{JobArena, Request, RequestArena};
use crate::machine::{Core, MachineSpec};
use crate::metrics::{Ascending, LatencyRecorder, LatencySummary};
use crate::path::RequestType;
use crate::service::ServiceModel;
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    AuditCounts, AuditReport, ChromeTrace, ChunkReceiver, ClientMeta, InstanceMeta, MachineMeta,
    PoolMeta, RequestTypeMeta, TraceAuditor, TraceLog, TraceMeta,
};
use rand::rngs::SmallRng;
use std::collections::VecDeque;

mod client;
mod fault;
mod instance;
mod network;
mod path;

/// Where a latency charge happened, resolved lazily against the request
/// inside [`charge_latency`] (`Client` avoids a second arena lookup at the
/// call site — the charged request's own client is meant).
#[derive(Debug, Clone, Copy)]
enum CritSiteRef {
    Client,
    Instance(InstanceId),
    Stage(InstanceId, u32),
    Pool(PoolId),
}

/// The one place a latency charge is written: charges `req`'s
/// not-yet-attributed time `[mark, now]` to `component` and advances the
/// frontier to `now`. Consecutive charges telescope, so on completion the
/// components sum exactly to `completed - submitted`.
///
/// `site` records *where* the time was spent; with `critpath` (the
/// streaming critical-path mode) on, every non-zero charge additionally
/// buffers a [`CritSeg`] on the request (folded into the CPC profile at
/// completion).
#[inline]
fn charge_latency(
    req: &mut Request,
    now: SimTime,
    critpath: bool,
    component: crate::telemetry::LatencyComponent,
    site: CritSiteRef,
) {
    let dt = (now - req.mark).as_nanos();
    req.mark = now;
    req.components_ns[component as usize] += dt;
    if critpath && dt > 0 {
        // A retry's launch delay is backoff, not ordinary client
        // connection wait; hedge twins keep the plain kind.
        let kind = if component == crate::telemetry::LatencyComponent::ClientWait
            && req.attempt > 0
            && req.hedge_twin.is_none()
        {
            EdgeKind::RetryBackoff
        } else {
            EdgeKind::from_component(component)
        };
        let site = match site {
            CritSiteRef::Client => CritSite::Client(req.client),
            CritSiteRef::Instance(i) => CritSite::Instance(i),
            CritSiteRef::Stage(i, s) => CritSite::Stage(i, s),
            CritSiteRef::Pool(p) => CritSite::Pool(p),
        };
        req.crit.push(CritSeg { site, kind, ns: dt });
    }
}

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed for all random streams.
    pub seed: u64,
    /// Completions before this time are excluded from the latency summary.
    pub warmup: SimDuration,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            warmup: SimDuration::from_secs(1),
        }
    }
}

/// Execution model of an instance (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecModel {
    /// Jobs dispatch straight onto the instance's cores; one implicit
    /// worker per core; stage queues shared.
    Simple,
    /// Explicit worker threads contending for the instance's cores, with a
    /// context-switch penalty and support for thread blocking; stage queues
    /// are per-thread (connections are bound to threads).
    MultiThreaded {
        /// Context-switch overhead in nanoseconds, charged when a core runs
        /// a different thread than it ran last.
        ctx_switch_ns: u64,
    },
}

/// A batch of jobs a thread is currently servicing through one stage.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    pub(crate) stage: StageId,
    pub(crate) jobs: Vec<JobId>,
}

/// Runtime state of one worker thread.
#[derive(Debug)]
pub(crate) struct ThreadRt {
    pub(crate) running: Option<Batch>,
    /// Number of outstanding synchronous calls blocking this thread.
    pub(crate) block_depth: u32,
    pub(crate) queue_set: usize,
    pub(crate) held_core: Option<usize>,
}

impl ThreadRt {
    fn is_idle(&self) -> bool {
        self.running.is_none() && self.block_depth == 0
    }
}

/// Runtime state of one deployed instance.
#[derive(Debug)]
pub(crate) struct InstanceRt {
    pub(crate) name: Name,
    pub(crate) service: ServiceId,
    pub(crate) machine: MachineId,
    /// Machine-local core indices owned by this instance.
    pub(crate) cores: Vec<usize>,
    pub(crate) exec: ExecModel,
    pub(crate) threads: Vec<ThreadRt>,
    /// Bit t set iff `threads[t].is_idle()` (no running batch, not
    /// blocked). Maintained at every `running`/`block_depth` transition so
    /// the dispatcher iterates set bits instead of scanning `ThreadRt`s.
    pub(crate) idle_mask: u64,
    /// One set shared (Simple) or one per thread.
    pub(crate) queue_sets: Vec<crate::queue::StageQueueSet>,
    pub(crate) shared_queues: bool,
    /// Round-robin counter for binding new connections to threads.
    pub(crate) rr_thread: usize,
}

impl InstanceRt {
    /// Takes one outstanding synchronous call off thread `t`, which goes
    /// back to the idle set if that was its last and it runs nothing.
    fn unblock(&mut self, t: usize) {
        let th = &mut self.threads[t];
        if th.block_depth > 0 {
            th.block_depth -= 1;
        }
        if th.is_idle() {
            self.idle_mask |= 1u64 << t;
        }
    }

    /// Total queued jobs across all queue sets and stages.
    fn queue_depth(&self) -> usize {
        self.queue_sets
            .iter()
            .map(crate::queue::StageQueueSet::len)
            .sum()
    }
}

/// Runtime state of one machine.
#[derive(Debug)]
pub(crate) struct MachineRt {
    pub(crate) spec: MachineSpec,
    pub(crate) cores: Vec<Core>,
    /// Machine-local indices of the irq cores.
    pub(crate) irq_cores: Vec<usize>,
    pub(crate) net_queue: VecDeque<Packet>,
    /// One in-service slot per irq core.
    pub(crate) net_slots: Vec<Option<Packet>>,
    /// Cached `spec.dvfs.max_ghz()` (immutable after build): the energy
    /// update reads it once per batch and per packet.
    pub(crate) max_ghz: f64,
}

impl MachineRt {
    /// Occupies core `core` for `dur` at its current frequency: marks it
    /// busy and accrues the busy time and dynamic energy it costs.
    fn occupy_core(&mut self, core: usize, dur: SimDuration) {
        let max_ghz = self.max_ghz;
        let core = &mut self.cores[core];
        core.busy = true;
        core.busy_ns += dur.as_nanos();
        core.dyn_energy_j +=
            dur.as_secs_f64() * self.spec.power.dynamic_power_w(core.freq_ghz, max_ghz);
    }
}

/// Runtime state of one client.
#[derive(Debug)]
pub(crate) struct ClientRt {
    pub(crate) spec: crate::client::ClientSpec,
    pub(crate) conns: Vec<ConnectionId>,
    pub(crate) next_conn: usize,
    /// Arrivals generated so far (trace-replay cursor).
    pub(crate) issued: u64,
    /// Stateful arrival-process runtime (bursty processes, typed traces).
    pub(crate) arrival: crate::client::ArrivalRt,
}

/// The discrete-event simulator.
pub struct Simulator {
    pub(crate) cfg: SimConfig,
    pub(crate) now: SimTime,
    pub(crate) events: EventQueue,
    pub(crate) rng_service: SmallRng,
    pub(crate) rng_arrival: SmallRng,
    pub(crate) rng_path: SmallRng,
    pub(crate) rng_network: SmallRng,
    pub(crate) machines: Vec<MachineRt>,
    pub(crate) services: Vec<ServiceModel>,
    /// Each stage's frequency scaling per core frequency seen so far.
    pub(crate) at_freq: crate::stage::AtFreqMemo,
    pub(crate) instances: Vec<InstanceRt>,
    pub(crate) conns: Vec<Connection>,
    pub(crate) pools: Vec<ConnectionPool>,
    /// `(up_instance, down_instance) → pool`.
    pub(crate) pool_lookup: crate::fasthash::FastMap<(u32, u32), PoolId>,
    /// Free ephemeral connections per `(up_instance, down_instance)`.
    pub(crate) eph_free: crate::fasthash::FastMap<(u32, u32), Vec<ConnectionId>>,
    pub(crate) request_types: Vec<RequestType>,
    /// Per type, per node: does a job arriving at this node unblock the
    /// thread pinned by some earlier node's `block_thread_until`?
    pub(crate) unblocks_thread: Vec<Vec<bool>>,
    /// Per type, per node: round-robin instance-selection counters.
    pub(crate) rr_instance: Vec<Vec<usize>>,
    pub(crate) clients: Vec<ClientRt>,
    pub(crate) requests: RequestArena,
    pub(crate) jobs: JobArena,
    /// Recycled batch job vectors: `dispatch_instance` pops a scratch
    /// vector here and `on_stage_done` returns it, so steady-state batch
    /// assembly allocates nothing.
    pub(crate) batch_pool: Vec<Vec<JobId>>,
    pub(crate) controllers: Vec<Option<Box<dyn Controller>>>,
    // Metrics.
    /// The exact post-warmup end-to-end samples: with `e2e_timeout`, the
    /// only per-request state a run keeps (about a byte each, sorted and
    /// delta-coded; the golden-pinned percentiles are read off them). The
    /// other recorders are bounded.
    pub(crate) e2e: LatencyRecorder,
    pub(crate) interval_e2e: Vec<f64>,
    pub(crate) interval_instance: Vec<Vec<f64>>,
    pub(crate) generated: u64,
    pub(crate) completed: u64,
    pub(crate) timeouts: u64,
    pub(crate) completed_after_timeout: u64,
    pub(crate) events_processed: u64,
    pub(crate) stopped: bool,
    /// Span/event recorder (see [`crate::trace`]); `None` keeps every
    /// hot-path hook to a single branch.
    pub(crate) span_log: Option<Box<TraceLog>>,
    /// Live-telemetry state (see [`crate::telemetry`]); `None` keeps every
    /// hot-path hook to a single branch, same discipline as `span_log`.
    pub(crate) telemetry: Option<Box<crate::telemetry::TelemetryState>>,
    /// Busy nanoseconds at the warm-up boundary — per instance (summed
    /// over its cores) and per machine (summed over its irq cores) — the
    /// origin of the since-warm-up `*_utilization` views. `None`
    /// until the builder's one-shot [`EventKind::TelemetrySample`] fires.
    pub(crate) warmup_busy: Option<(Vec<u64>, Vec<u64>)>,
    /// Fault-injection state (see [`crate::fault`]); `None` keeps every
    /// hot-path hook to a single branch, same discipline as `span_log`.
    pub(crate) fault: Option<Box<crate::fault::FaultState>>,
    /// Requests terminally dropped by a fault.
    pub(crate) dropped: u64,
    /// Requests shed by an open circuit breaker.
    pub(crate) shed: u64,
    /// Retry emissions fired by client resilience policies.
    pub(crate) retried: u64,
    /// Degraded completions: shed responses plus quorum early-fires.
    pub(crate) degraded: u64,
    /// Quorum early-fire completions inside the measurement window; these
    /// sit in `e2e` but are excluded from goodput.
    pub(crate) degraded_measured: u64,
    /// Resolved requests still draining straggler jobs; excluded from the
    /// live count the trace auditor checks conservation against.
    pub(crate) resolved_pending: u64,
    /// Latencies of requests at their timeout deadline (the latency the
    /// client observed for failed calls); never mixed into `e2e`.
    pub(crate) e2e_timeout: LatencyRecorder,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("instances", &self.instances.len())
            .field("pending_events", &self.events.len())
            .field("generated", &self.generated)
            .field("completed", &self.completed)
            .finish()
    }
}

impl Simulator {
    // ------------------------------------------------------------------
    // Public driving API
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs until `deadline` (simulated), then stops. In-flight requests at
    /// the deadline are abandoned (open-loop steady-state convention).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.events.schedule(deadline, EventKind::Stop);
        self.stopped = false;
        while !self.stopped {
            let Some(ev) = self.events.pop() else { break };
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            self.events_processed += 1;
            self.handle(ev.kind);
        }
    }

    /// Runs for `duration` of simulated time from now.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.now + duration);
    }

    /// Advances the simulation through every pending event with timestamp
    /// `<= horizon`, then returns with the simulator *paused*: no `Stop`
    /// event is scheduled, the clock rests on the last processed event, and
    /// a later `run_until_paused`/[`Simulator::run_until`] call resumes
    /// exactly where this one left off.
    ///
    /// Use it to look at a run mid-flight (e.g. read a counter at the
    /// warm-up boundary). Because pausing injects no event, a run chopped
    /// into any sequence of non-decreasing horizons followed by a final
    /// [`Simulator::run_until`] pops the same events in the same
    /// `(time, seq)` order — and therefore draws the same random numbers
    /// and produces the same state — as one uninterrupted `run_until`
    /// (spec invariant **P4** in DESIGN.md §11, enforced by
    /// `chunked_advance_matches_single_shot` in `tests/partition.rs`), at
    /// the same cost per event.
    pub fn run_until_paused(&mut self, horizon: SimTime) {
        while let Some(ev) = self.events.pop_at_or_before(horizon) {
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            self.events_processed += 1;
            self.handle(ev.kind);
        }
    }

    /// Registers a controller; its first tick fires `first_tick()` from now.
    pub fn add_controller(&mut self, controller: Box<dyn Controller>) -> ControllerId {
        let id = ControllerId::from_raw(self.controllers.len() as u32);
        let first = controller.first_tick();
        self.controllers.push(Some(controller));
        self.events.schedule(
            self.now + first,
            EventKind::ControllerTick { controller: id },
        );
        id
    }

    /// Sets every core of `instance` to `freq_ghz`, snapped to the owning
    /// machine's DVFS levels. Returns the snapped frequency.
    pub fn set_instance_freq(&mut self, instance: InstanceId, freq_ghz: f64) -> f64 {
        let inst = &self.instances[instance.index()];
        let m = inst.machine.index();
        let snapped = self.machines[m].spec.dvfs.snap(freq_ghz);
        let cores = inst.cores.clone();
        for c in cores {
            self.machines[m].cores[c].freq_ghz = snapped;
        }
        snapped
    }

    /// Current frequency of `instance` (its first core), GHz.
    pub fn instance_freq(&self, instance: InstanceId) -> f64 {
        let inst = &self.instances[instance.index()];
        self.machines[inst.machine.index()].cores[inst.cores[0]].freq_ghz
    }

    // ------------------------------------------------------------------
    // Public metrics API
    // ------------------------------------------------------------------

    /// End-to-end latency summary over post-warmup completions.
    pub fn latency_summary(&self) -> LatencySummary {
        self.e2e.summary()
    }

    /// The exact post-warmup end-to-end latency samples (seconds),
    /// ascending — the data behind
    /// [`latency_summary`](Self::latency_summary). Completion order is not
    /// kept; the span log has it (`RequestEmitted` → `RequestCompleted`).
    pub fn latency_samples(&self) -> Ascending<'_> {
        self.e2e.ascending()
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests whose client-side timeout fired before completion.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Timed-out requests that later completed anyway (excluded from the
    /// latency summary).
    pub fn completed_after_timeout(&self) -> u64 {
        self.completed_after_timeout
    }

    /// Requests terminally dropped by a fault: a crash, drain, or exhausted
    /// retransmission killed their last in-flight branch, so no response
    /// ever reached the client. Zero unless a fault plan is installed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Requests shed at emission by an open circuit breaker. Shed requests
    /// complete instantly with a degraded marker and touch no simulated
    /// resource.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Retry emissions fired by client resilience policies (each is also
    /// counted in [`Simulator::generated`]).
    pub fn retried(&self) -> u64 {
        self.retried
    }

    /// Responses delivered in degraded mode: breaker sheds plus completions
    /// whose quorum/best-effort fan-in fired before every branch arrived.
    pub fn degraded(&self) -> u64 {
        self.degraded
    }

    /// Degraded (early-fire) completions inside the measurement window.
    /// These are counted in the end-to-end latency summary but excluded
    /// from goodput, so `latency.count - degraded_measured` is the exact
    /// number of full-fidelity, within-deadline completions measured.
    pub fn degraded_measured(&self) -> u64 {
        self.degraded_measured
    }

    /// Latency summary of requests at their timeout deadline — the latency
    /// the client actually observed for its failed calls. Kept strictly
    /// separate from the success-path summary so timeouts can never improve
    /// the reported tail.
    pub fn timeout_latency_summary(&self) -> LatencySummary {
        self.e2e_timeout.summary()
    }

    /// The deadline-pinned latency samples of timed-out requests (seconds),
    /// ascending — the data behind [`Simulator::timeout_latency_summary`].
    /// The partitioned merge re-summarizes these across cells with one
    /// merge of every cell's runs.
    pub fn timeout_latency_samples(&self) -> Ascending<'_> {
        self.e2e_timeout.ascending()
    }

    /// Number of client-owned connections currently holding an outstanding
    /// request. A timed-out call releases its slot at the deadline, so after
    /// a timeout burst this can never exceed the number of launched requests
    /// that are still inside their deadline.
    pub fn busy_client_connections(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.busy && matches!(c.up, crate::connection::UpEndpoint::Client(_)))
            .count()
    }

    /// The fault/resilience counters and fault-window timeline, or `None`
    /// when no fault plan is installed.
    pub fn fault_summary(&self) -> Option<crate::fault::FaultSummary> {
        let f = self.fault.as_deref()?;
        let mut s = f.summary_snapshot();
        s.dropped = self.dropped;
        s.shed = self.shed;
        s.retried = self.retried;
        s.degraded = self.degraded;
        s.timed_out = self.timeouts;
        Some(s)
    }

    /// Enables per-request span tracing (see [`crate::trace`]): every
    /// request emission, network processing interval, stage enqueue, batch
    /// service, pool interaction, fan-in arrival, and completion is
    /// recorded, up to `capacity` events (further events are counted as
    /// dropped). Tracing every hot-path site costs simulator speed; leave
    /// it disabled for throughput experiments.
    pub fn enable_span_tracing(&mut self, capacity: usize) {
        self.span_log = Some(Box::new(TraceLog::new(capacity)));
    }

    /// Enables span tracing with a *streamed* log
    /// ([`TraceLog::streaming`]): the same events, up to `capacity` in all,
    /// but each full chunk goes to the returned receiver — to be
    /// [drained](ChunkReceiver::drain) on another thread while this one
    /// runs — instead of staying in memory. Call
    /// [`close_span_stream`](Self::close_span_stream) when the run is over.
    pub fn stream_span_tracing(&mut self, capacity: usize) -> ChunkReceiver {
        let (log, chunks) = TraceLog::streaming(capacity);
        self.span_log = Some(Box::new(log));
        chunks
    }

    /// Hands the last chunk of a streamed span log to its consumer and
    /// ends the stream ([`TraceLog::close`]).
    pub fn close_span_stream(&mut self) {
        if let Some(log) = self.span_log.as_deref_mut() {
            log.close();
        }
    }

    /// The span log, if span tracing is enabled. Of a streamed log only the
    /// totals ([`TraceLog::len`], [`TraceLog::dropped`]) are still here.
    pub fn span_log(&self) -> Option<&TraceLog> {
        self.span_log.as_deref()
    }

    /// Takes the span log out of the simulator (disabling further
    /// recording).
    pub fn take_span_log(&mut self) -> Option<TraceLog> {
        self.span_log.take().map(|b| *b)
    }

    /// Entity names for rendering traces: machines, instances (with their
    /// stage names), and request types (with their node names).
    pub fn trace_meta(&self) -> TraceMeta {
        TraceMeta {
            machines: self
                .machines
                .iter()
                .map(|m| MachineMeta {
                    name: m.spec.name.clone(),
                    cores: m.cores.len(),
                })
                .collect(),
            instances: self
                .instances
                .iter()
                .map(|i| InstanceMeta {
                    name: i.name.clone(),
                    machine: i.machine.raw(),
                    stages: self.services[i.service.index()]
                        .stages
                        .iter()
                        .map(|s| s.name.clone())
                        .collect(),
                })
                .collect(),
            request_types: self
                .request_types
                .iter()
                .map(|t| RequestTypeMeta {
                    name: t.name.clone(),
                    nodes: t.nodes.iter().map(|n| n.name.clone()).collect(),
                })
                .collect(),
            pools: self
                .pools
                .iter()
                .map(|p| PoolMeta {
                    up: self.instances[p.up_instance.index()].name.clone(),
                    down: self.instances[p.down_instance.index()].name.clone(),
                })
                .collect(),
            clients: self
                .clients
                .iter()
                .map(|c| ClientMeta {
                    name: c.spec.name.clone(),
                })
                .collect(),
        }
    }

    /// The span log as Chrome `trace_event` JSON (viewable in
    /// `about:tracing` or Perfetto) — a view to serialize, see
    /// [`ChromeTrace`] — or `None` if span tracing is disabled.
    pub fn chrome_trace(&self) -> Option<ChromeTrace<'_>> {
        self.span_log
            .as_deref()
            .map(|log| ChromeTrace::of_log(log, self.trace_meta()))
    }

    /// Ground-truth counters for trace auditing.
    pub fn audit_counts(&self) -> AuditCounts {
        AuditCounts {
            generated: self.generated,
            completed: self.completed,
            live_requests: self.requests.live() as u64 - self.resolved_pending,
            unretired: self.requests.live() as u64,
            timeouts: self.timeouts,
            measured: self.e2e.len() as u64,
            dropped: self.dropped,
            shed: self.shed,
        }
    }

    /// Audits the span log against the simulator's invariants (see
    /// [`TraceAuditor`]), or `None` if span tracing is disabled.
    pub fn audit_trace(&self) -> Option<AuditReport> {
        self.span_log
            .as_deref()
            .map(|log| TraceAuditor::new().audit(log, &self.audit_counts()))
    }

    /// The streaming critical-path contribution profile accumulated so far
    /// (label-resolved and mergeable), or `None` unless telemetry was
    /// enabled with [`TelemetryConfig::critpath`](crate::telemetry::TelemetryConfig)
    /// set.
    pub fn critpath_profile(&self) -> Option<crate::critpath::CpcProfile> {
        let tel = self.telemetry.as_deref()?;
        if !tel.cfg.critpath {
            return None;
        }
        Some(tel.crit.snapshot(&self.trace_meta()))
    }

    /// Energy consumed by `machine` so far, joules: accumulated dynamic
    /// (cubic-in-frequency) energy plus static power over elapsed time.
    pub fn machine_energy_j(&self, machine: MachineId) -> f64 {
        let m = &self.machines[machine.index()];
        let dynamic: f64 = m.cores.iter().map(|c| c.dyn_energy_j).sum();
        let static_j = m.spec.power.idle_w * m.cores.len() as f64 * self.now.as_secs_f64();
        dynamic + static_j
    }

    /// Total energy consumed by the whole cluster so far, joules.
    pub fn cluster_energy_j(&self) -> f64 {
        (0..self.machines.len())
            .map(|m| self.machine_energy_j(MachineId::from_raw(m as u32)))
            .sum()
    }

    /// Requests currently in flight.
    pub fn live_requests(&self) -> usize {
        self.requests.live()
    }

    /// Jobs currently in flight.
    pub fn live_jobs(&self) -> usize {
        self.jobs.live()
    }

    /// Events processed so far (simulator-speed statistic).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of deployed instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Resolves an instance by name.
    pub fn instance_by_name(&self, name: &str) -> Option<InstanceId> {
        self.instances
            .iter()
            .position(|i| *i.name == *name)
            .map(|i| InstanceId::from_raw(i as u32))
    }

    /// Total jobs currently queued at an instance.
    pub fn instance_queue_depth(&self, instance: InstanceId) -> usize {
        self.instances[instance.index()].queue_depth()
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Whether the clock has reached the warm-up boundary: what completes
    /// from here on is measured (the test [`LatencyRecorder::record`] makes).
    fn past_warmup(&self) -> bool {
        self.now >= SimTime::ZERO + self.cfg.warmup
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::ClientArrival { client } => self.on_client_arrival(client),
            EventKind::NetDeliver { job, instance } => self.deliver_to_instance(job, instance),
            EventKind::NetEnqueue { job, instance } => self.on_net_enqueue(job, instance),
            EventKind::NetDone { machine, slot } => self.on_net_done(machine, slot as usize),
            EventKind::StageDone { instance, thread } => self.on_stage_done(instance, thread),
            EventKind::DeliverToClient { request } => self.on_deliver_to_client(request),
            EventKind::RequestTimeout { request } => self.on_request_timeout(request),
            EventKind::ControllerTick { controller } => self.on_controller_tick(controller),
            EventKind::TelemetrySample { recurring } => self.on_telemetry_sample(recurring),
            EventKind::FaultStart { fault } => self.on_fault_start(fault as usize),
            EventKind::FaultEnd { fault } => self.on_fault_end(fault as usize),
            // A failed operation comes back as a fresh request: same type,
            // same payload size, bumped attempt count.
            EventKind::RetryEmit(retry) => self.emit_request(
                retry.client,
                retry.request_type,
                retry.size_bytes,
                retry.attempt,
                None,
            ),
            EventKind::HedgeFire { request } => self.on_hedge_fire(request),
            EventKind::NetRetransmit(rt) => self.on_net_retransmit(rt.job, rt.from, rt.dest),
            EventKind::Stop => self.stopped = true,
        }
    }

    /// Charges request `rid`'s time since its last charge to `component` at
    /// `site` (see [`charge_latency`]). A single branch when telemetry is
    /// off; a no-op for a request that is already gone.
    #[inline]
    fn attribute_latency(
        &mut self,
        rid: RequestId,
        component: crate::telemetry::LatencyComponent,
        site: CritSiteRef,
    ) {
        let Some(tel) = self.telemetry.as_deref() else {
            return;
        };
        if let Some(req) = self.requests.get_mut(rid) {
            charge_latency(req, self.now, tel.cfg.critpath, component, site);
        }
    }

    // ------------------------------------------------------------------
    // Controllers
    // ------------------------------------------------------------------

    fn on_controller_tick(&mut self, id: ControllerId) {
        let mut ctrl = self.controllers[id.index()]
            .take()
            .expect("controller registered");
        let stats = TickStats {
            end_to_end: LatencySummary::from_samples(&self.interval_e2e),
            per_instance: self
                .interval_instance
                .iter()
                .map(|v| LatencySummary::from_samples(v))
                .collect(),
        };
        self.interval_e2e.clear();
        for v in &mut self.interval_instance {
            v.clear();
        }
        let (actions, next) = ctrl.tick(self.now, &stats);
        self.controllers[id.index()] = Some(ctrl);
        for action in actions {
            match action {
                ControlAction::SetInstanceFreq { instance, freq_ghz } => {
                    self.set_instance_freq(instance, freq_ghz);
                }
            }
        }
        self.events.schedule(
            self.now + next,
            EventKind::ControllerTick { controller: id },
        );
    }
}
