//! The simulator: cluster state, event handlers, and the run loop.
//!
//! A [`Simulator`] is built from a scenario with
//! [`ScenarioConfig::build`](crate::config::ScenarioConfig::build), then
//! driven with [`Simulator::run_for`]. All behavior described in DESIGN.md
//! §4 lives here: network processing on irq cores, per-thread stage queues
//! with epoll/socket batching, connection-pool backpressure, fan-in
//! synchronization, thread blocking, and DVFS-aware service times.
//!
//! Residence per node visit, latency per request type, and the size and
//! service time of each batch are not kept beside the run: they are views
//! of the span log ([`Simulator::enable_span_tracing`]; `NodeDone`,
//! `RequestCompleted` and `BatchStart` events).

use crate::connection::{Connection, ConnectionPool, UpEndpoint};
use crate::controller::{ControlAction, Controller, TickStats};
use crate::critpath::{CritSeg, CritSite, EdgeKind};
use crate::event::{EventKind, EventQueue, Packet, PacketDest};
use crate::ids::{
    ClientId, ConnectionId, ControllerId, InstanceId, JobId, MachineId, PathNodeId, PoolId,
    RequestId, ServiceId, StageId, ThreadId,
};
use crate::job::{JobArena, Request, RequestArena};
use crate::machine::{Core, MachineSpec};
use crate::metrics::{Ascending, LatencyRecorder, LatencySummary};
use crate::path::{InstanceSelect, LinkKind, NodeTarget, PathSelect, RequestType};
use crate::service::ServiceModel;
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    AuditCounts, AuditReport, ChromeTrace, ChunkReceiver, ClientMeta, InstanceMeta, MachineMeta,
    PoolMeta, RequestTypeMeta, TraceAuditor, TraceEvent, TraceLog, TraceMeta,
};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;

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
    pub(crate) name: String,
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
    /// Busy-counter checkpoints backing the `*_utilization_since` queries.
    /// One is recorded at the warmup boundary and one per sampler tick.
    pub(crate) util_checkpoints: Vec<crate::machine::UtilCheckpoint>,
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

    /// True if [`Simulator::install_faults`] has been called.
    pub fn faults_installed(&self) -> bool {
        self.fault.is_some()
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

    /// Schedules a DVFS change at a future simulated time (a cluster
    /// administration operation, §III-A). `core` of `None` retunes the
    /// whole machine.
    pub fn schedule_dvfs(
        &mut self,
        at: SimTime,
        machine: MachineId,
        core: Option<crate::ids::CoreId>,
        freq_ghz: f64,
    ) {
        self.events.schedule(
            at,
            EventKind::DvfsSet(Box::new(crate::event::DvfsChange {
                machine,
                core,
                freq_ghz,
            })),
        );
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
            .position(|i| i.name == name)
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
            EventKind::DvfsSet(change) => {
                let m = &mut self.machines[change.machine.index()];
                let snapped = m.spec.dvfs.snap(change.freq_ghz);
                match change.core {
                    Some(c) => m.cores[c.index()].freq_ghz = snapped,
                    None => {
                        for c in &mut m.cores {
                            c.freq_ghz = snapped;
                        }
                    }
                }
            }
            EventKind::RequestTimeout { request } => self.on_request_timeout(request),
            EventKind::ControllerTick { controller } => self.on_controller_tick(controller),
            EventKind::TelemetrySample { recurring } => self.on_telemetry_sample(recurring),
            EventKind::FaultStart { fault } => self.on_fault_start(fault as usize),
            EventKind::FaultEnd { fault } => self.on_fault_end(fault as usize),
            EventKind::RetryEmit(retry) => self.on_retry_emit(
                retry.client,
                retry.request_type,
                retry.attempt,
                retry.size_bytes,
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
    // Client side
    // ------------------------------------------------------------------

    fn on_client_arrival(&mut self, client: ClientId) {
        let c = client.index();
        // Open-loop clients self-schedule the next arrival (unless a
        // replayed trace is exhausted); closed-loop users reissue from
        // on_deliver_to_client instead.
        let issued = self.clients[c].issued;
        self.clients[c].issued += 1;
        if self.clients[c].spec.closed_loop.is_none() {
            let gap = {
                let ClientRt { spec, arrival, .. } = &mut self.clients[c];
                spec.arrivals
                    .gap_rt(arrival, issued, self.now, &mut self.rng_arrival)
            };
            if let Some(gap) = gap {
                self.events
                    .schedule(self.now + gap, EventKind::ClientArrival { client });
            }
        }

        // Create the request: a typed trace dictates the type of arrival
        // `issued`; everything else draws from the client's mix.
        let ty = match self.clients[c].arrival.trace_type(issued) {
            Some(ty) => ty,
            None => self.clients[c].spec.mix.choose(&mut self.rng_path),
        };
        let node_count = self.request_types[ty.index()].nodes.len();
        let rid = self.requests.alloc(ty, client, self.now, node_count);
        let size = self.clients[c]
            .spec
            .request_size
            .sample(&mut self.rng_path)
            .max(0.0);
        self.requests
            .get_mut(rid)
            .expect("fresh request")
            .size_bytes = size;
        self.generated += 1;
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestEmitted {
                request: rid,
                request_type: ty,
                client,
                t: self.now,
            });
        }
        // Fault hooks: an open breaker sheds the request before it touches
        // any timer or connection; otherwise an optional hedge deadline is
        // armed. A single branch when no fault plan is installed.
        if self.fault.is_some() && self.fault_admission(rid, client) {
            return;
        }
        if let Some(timeout_s) = self.clients[c].spec.timeout_s {
            self.events.schedule(
                self.now + SimDuration::from_secs_f64(timeout_s),
                EventKind::RequestTimeout { request: rid },
            );
        }

        // Assign a connection round-robin; queue behind it if busy.
        let n_conns = self.clients[c].conns.len();
        let ci = self.clients[c].next_conn;
        // Wrap without the integer divide; `next_conn` stays in range.
        self.clients[c].next_conn = if ci + 1 == n_conns { 0 } else { ci + 1 };
        let conn_id = self.clients[c].conns[ci];
        self.requests
            .get_mut(rid)
            .expect("fresh request")
            .client_conn = Some(conn_id);
        if self.conns[conn_id.index()].busy {
            self.conns[conn_id.index()].pending.push_back(rid);
        } else {
            self.launch_request(rid, conn_id);
        }
    }

    /// Writes a request onto its (free) client connection: creates the root
    /// job and sends it over the network.
    fn launch_request(&mut self, rid: RequestId, conn_id: ConnectionId) {
        // Time between generation and hitting the wire is client-side
        // connection wait (coordinated-omission territory).
        self.attribute_latency(
            rid,
            crate::telemetry::LatencyComponent::ClientWait,
            CritSiteRef::Client,
        );
        self.conns[conn_id.index()].busy = true;
        let ty = {
            let req = self.requests.get_mut(rid).expect("request exists");
            req.launched = Some(self.now);
            req.ty
        };
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestLaunched {
                request: rid,
                conn: conn_id,
                t: self.now,
            });
        }
        let root = self.request_types[ty.index()].root;
        let job = self.jobs.alloc(rid, root);
        self.requests
            .get_mut(rid)
            .expect("request exists")
            .live_jobs += 1;
        self.jobs.get_mut(job).expect("fresh job").conn = Some(conn_id);
        let dest = self.conns[conn_id.index()].down_instance;
        self.send_job(job, None, dest);
    }

    fn on_deliver_to_client(&mut self, rid: RequestId) {
        // The final leg (last node exit → client) is network time.
        self.attribute_latency(
            rid,
            crate::telemetry::LatencyComponent::Network,
            CritSiteRef::Client,
        );
        let (
            latency,
            conn_id,
            live_jobs,
            client,
            timed_out,
            ty,
            components,
            conn_released,
            early_fire,
            superseded,
            hedge_twin,
        ) = {
            let req = self.requests.get(rid).expect("completing request exists");
            (
                self.now - req.submitted,
                req.client_conn.expect("launched request has a connection"),
                req.live_jobs,
                req.client,
                req.timed_out,
                req.ty,
                req.components_ns,
                req.conn_released,
                req.early_fire,
                req.superseded,
                req.hedge_twin,
            )
        };
        debug_assert!(
            live_jobs == 0 || early_fire,
            "request completed with live jobs"
        );
        debug_assert!(
            self.telemetry.is_none() || components.iter().sum::<u64>() == latency.as_nanos(),
            "latency decomposition does not telescope: {components:?} vs {} ns",
            latency.as_nanos()
        );
        if timed_out {
            // Already accounted as a timeout error; exclude from latency.
            self.completed_after_timeout += 1;
        } else if superseded {
            // The hedge twin already delivered the logical response; this
            // late copy closes the books but is not measured.
        } else {
            self.e2e.record(self.now, latency);
            if !self.controllers.is_empty() {
                self.interval_e2e.push(latency.as_secs_f64());
            }
            if early_fire {
                // A quorum/best-effort fan-in answered without every
                // branch: a degraded (but successful) response.
                self.degraded += 1;
                if self.past_warmup() {
                    self.degraded_measured += 1;
                }
            }
            if let Some(twin) = hedge_twin {
                // First delivery wins the hedge race.
                if let Some(tr) = self.requests.get_mut(twin) {
                    tr.superseded = true;
                }
            }
            self.fault_on_success(client);
        }
        self.completed += 1;
        let measured = !timed_out && !superseded && self.past_warmup();
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestCompleted {
                request: rid,
                request_type: ty,
                timed_out,
                measured,
                retired: live_jobs == 0,
                t: self.now,
            });
        }
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.on_completion(self.now, components, latency, timed_out || superseded);
            if tel.cfg.critpath && measured {
                // Fold the request's critical path into the CPC profile.
                // `telemetry` and `requests` are disjoint fields, so both
                // mutable borrows coexist.
                if let Some(req) = self.requests.get(rid) {
                    debug_assert_eq!(
                        req.crit.iter().map(|s| s.ns).sum::<u64>(),
                        latency.as_nanos(),
                        "critical-path segments do not telescope"
                    );
                    tel.crit.fold(latency.as_nanos(), &req.crit);
                }
            }
        }
        if live_jobs == 0 {
            self.retire_request(rid, true);
        } else {
            // Quorum stragglers are still in flight: defer the release
            // until the last one drains (see `try_finalize`).
            self.requests
                .get_mut(rid)
                .expect("completing request exists")
                .resolved = true;
            self.resolved_pending += 1;
        }

        // Free the connection (unless the timeout already did) and launch
        // the next queued request if any.
        if !conn_released {
            let next = {
                let conn = &mut self.conns[conn_id.index()];
                conn.busy = false;
                conn.pending.pop_front()
            };
            if let Some(next_rid) = next {
                self.launch_request(next_rid, conn_id);
            }
            // Closed-loop users reissue after a think time. A superseded
            // copy must not: its hedge twin's delivery already did.
            if !superseded {
                self.closed_loop_reissue(client);
            }
        }
    }

    /// Schedules a closed-loop user's next arrival after a think time;
    /// no-op for open-loop clients.
    fn closed_loop_reissue(&mut self, client: ClientId) {
        let think = self.clients[client.index()]
            .spec
            .closed_loop
            .as_ref()
            .map(|cl| SimDuration::from_secs_f64(cl.think_time.sample(&mut self.rng_arrival)));
        if let Some(think) = think {
            self.events
                .schedule(self.now + think, EventKind::ClientArrival { client });
        }
    }

    fn on_request_timeout(&mut self, rid: RequestId) {
        // The request may have completed long ago; its slot id is then
        // stale and the lookup simply misses.
        let (launched, client, conn_id, ty, attempt, size, submitted) = {
            let Some(req) = self.requests.get_mut(rid) else {
                return;
            };
            if req.timed_out || req.resolved || req.superseded {
                return;
            }
            req.timed_out = true;
            let launched = req.launched.is_some();
            if launched {
                req.conn_released = true;
            }
            (
                launched,
                req.client,
                req.client_conn,
                req.ty,
                req.attempt,
                req.size_bytes,
                req.submitted,
            )
        };
        self.timeouts += 1;
        // The client observed exactly the deadline for this failed call —
        // a distinct latency outcome, never mixed into the success summary.
        self.e2e_timeout.record(self.now, self.now - submitted);
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestTimeout {
                request: rid,
                t: self.now,
            });
        }
        if launched {
            // The client abandons the call at the deadline: its connection
            // slot frees immediately even though the server-side work keeps
            // draining (the late response is discarded on arrival).
            let conn_id = conn_id.expect("launched request has a connection");
            let next = {
                let conn = &mut self.conns[conn_id.index()];
                conn.busy = false;
                conn.pending.pop_front()
            };
            if let Some(next_rid) = next {
                self.launch_request(next_rid, conn_id);
            }
            self.closed_loop_reissue(client);
        }
        // Resilience policy: a timeout is a client-observed failure.
        self.fault_on_failure(client, ty, attempt, size);
    }

    // ------------------------------------------------------------------
    // Network
    // ------------------------------------------------------------------

    /// Sends a job from `from` (or a client, if `None`) to `dest`. Cross-
    /// machine hops pay wire latency and the destination's interrupt
    /// processing; same-machine hops pay only loopback latency.
    fn send_job(&mut self, job: JobId, from: Option<InstanceId>, dest: InstanceId) {
        let m = self.instances[dest.index()].machine.index();
        // Fault: packet loss toward a degraded machine. Drawn from the
        // dedicated fault RNG stream so fault-free runs stay byte-identical.
        if let Some(f) = self.fault.as_deref_mut() {
            let p = f.net_drop_p[m];
            if p > 0.0 && f.rng.gen::<f64>() < p {
                f.summary.packets_dropped += 1;
                self.on_packet_dropped(job, from, dest);
                return;
            }
        }
        let local = from
            .map(|f| self.instances[f.index()].machine.index() == m)
            .unwrap_or(false);
        let net = &self.machines[m].spec.network;
        let mut delay = if local {
            net.loopback_latency.sample(&mut self.rng_network)
        } else {
            net.wire_latency.sample(&mut self.rng_network)
        };
        if !local {
            if let Some(bw_gbps) = net.bandwidth_gbps {
                let bytes = self
                    .jobs
                    .get(job)
                    .and_then(|j| self.requests.get(j.request))
                    .map(|r| r.size_bytes)
                    .unwrap_or(0.0);
                delay += bytes * 8.0 / (bw_gbps * 1e9);
            }
        }
        if let Some(f) = self.fault.as_deref() {
            delay += f.net_added_s[m];
        }
        // The delivery route is static per (sender, dest): loopback traffic
        // and machines without interrupt cores bypass the network service,
        // so the choice is made here and the delivery event stays compact.
        let kind = if local || self.machines[m].irq_cores.is_empty() {
            EventKind::NetDeliver {
                job,
                instance: dest,
            }
        } else {
            EventKind::NetEnqueue {
                job,
                instance: dest,
            }
        };
        self.events
            .schedule(self.now + SimDuration::from_secs_f64(delay), kind);
    }

    /// A degraded link dropped `job`'s packet: retransmit within the
    /// network policy's budget, else the job dies (and its request with it,
    /// if this was the last live branch).
    fn on_packet_dropped(&mut self, job: JobId, from: Option<InstanceId>, dest: InstanceId) {
        let retransmit = {
            let f = self.fault.as_deref_mut().expect("drop implies faults");
            match (f.net_policy, self.jobs.get_mut(job)) {
                (Some(pol), Some(j)) if j.net_attempts < pol.retransmit_limit => {
                    j.net_attempts += 1;
                    f.summary.retransmits += 1;
                    let backoff = pol.retransmit_backoff_s
                        * f64::from(1u32 << u32::from(j.net_attempts - 1).min(16));
                    Some(SimDuration::from_secs_f64(backoff))
                }
                _ => None,
            }
        };
        match retransmit {
            Some(delay) => self.events.schedule(
                self.now + delay,
                EventKind::NetRetransmit(Box::new(crate::event::RetransmitSpec {
                    job,
                    from,
                    dest,
                })),
            ),
            None => self.kill_job(job),
        }
    }

    /// Handles [`EventKind::NetRetransmit`]: re-offers the packet to the
    /// network (which re-rolls the drop). The job may have died in the
    /// meantime (e.g. its instance crashed) — then the packet evaporates.
    fn on_net_retransmit(&mut self, job: JobId, from: Option<InstanceId>, dest: InstanceId) {
        if self.jobs.get(job).is_some() {
            self.send_job(job, from, dest);
        }
    }

    /// Handles [`EventKind::NetEnqueue`]: the packet enters the machine's
    /// network-processing service ([`EventKind::NetDeliver`] arrivals skip
    /// this and go straight to [`Self::deliver_to_instance`]).
    fn on_net_enqueue(&mut self, job: JobId, inst: InstanceId) {
        let m = self.instances[inst.index()].machine.index();
        self.machines[m].net_queue.push_back(Packet {
            job,
            dest: PacketDest::Instance(inst),
            local: false,
        });
        self.net_dispatch(m);
    }

    fn net_dispatch(&mut self, m: usize) {
        loop {
            let machine = &mut self.machines[m];
            if machine.net_queue.is_empty() {
                break;
            }
            let Some(slot) = machine.net_slots.iter().position(Option::is_none) else {
                break;
            };
            let packet = machine.net_queue.pop_front().expect("checked non-empty");
            machine.net_slots[slot] = Some(packet);
            let core = machine.irq_cores[slot];
            machine.cores[core].busy = true;
            let rx = machine.spec.network.rx_time.sample(&mut self.rng_network);
            let dur = SimDuration::from_secs_f64(rx);
            machine.cores[core].busy_ns += dur.as_nanos();
            let max_ghz = machine.max_ghz;
            let freq = machine.cores[core].freq_ghz;
            machine.cores[core].dyn_energy_j +=
                dur.as_secs_f64() * machine.spec.power.dynamic_power_w(freq, max_ghz);
            self.events.schedule(
                self.now + dur,
                EventKind::NetDone {
                    machine: MachineId::from_raw(m as u32),
                    slot: slot as u32,
                },
            );
            if let Some(log) = self.span_log.as_deref_mut() {
                log.record(TraceEvent::NetRx {
                    machine: MachineId::from_raw(m as u32),
                    core: core as u32,
                    job: packet.job,
                    start: self.now,
                    end: self.now + dur,
                });
            }
        }
    }

    fn on_net_done(&mut self, machine: MachineId, slot: usize) {
        let m = machine.index();
        let packet = self.machines[m].net_slots[slot]
            .take()
            .expect("slot was in service");
        let core = self.machines[m].irq_cores[slot];
        self.machines[m].cores[core].busy = false;
        match packet.dest {
            PacketDest::Instance(inst) => self.deliver_to_instance(packet.job, inst),
            PacketDest::Client(_) => unreachable!("client deliveries bypass the net service"),
        }
        self.net_dispatch(m);
    }

    // ------------------------------------------------------------------
    // Instance side
    // ------------------------------------------------------------------

    /// A job (post-network) arrives at its target instance: handle reply
    /// connection release, fan-in merging, execution-path choice, thread
    /// routing, and enqueue into the first stage.
    fn deliver_to_instance(&mut self, job_id: JobId, inst_id: InstanceId) {
        let (rid, node, conn) = {
            let j = self.jobs.get(job_id).expect("delivered job exists");
            (j.request, j.node, j.conn)
        };
        let ty = self.requests.get(rid).expect("job's request exists").ty;

        // One pass over the node spec: every field the delivery path needs,
        // copied out under a single borrow instead of four indexed lookups.
        let (released_reply_conn, fan_in, required, exec_select, pin) = {
            let rt = &self.request_types[ty.index()];
            let spec = &rt.nodes[node.index()];
            let fan_in = rt.fan_in[node.index()].max(1);
            let exec_select = match spec.target {
                NodeTarget::Service { exec_path, .. } => exec_path,
                NodeTarget::ClientSink => unreachable!("sinks never execute on instances"),
            };
            (
                matches!(
                    spec.link,
                    LinkKind::Reply { .. } | LinkKind::ReplyToParent | LinkKind::ReplyVia { .. }
                ),
                fan_in,
                spec.fan_in_policy.required(fan_in),
                exec_select,
                spec.pin_thread_of,
            )
        };
        if released_reply_conn {
            if let Some(c) = conn {
                self.release_conn(c);
            }
        }

        // Fault: arrivals at a crashed instance die at the door (the reply
        // release above still happened — the *upstream* conn frees
        // normally).
        if self
            .fault
            .as_deref()
            .is_some_and(|f| f.instance_down[inst_id.index()])
        {
            self.kill_job_with(job_id, Some(released_reply_conn));
            return;
        }

        // Fan-in: the node fires once `required` copies have arrived — all
        // of them by default, fewer under a quorum/best-effort policy.
        // Copies arriving after the firing are absorbed.
        let (arrivals, fired) = {
            let req = self.requests.get_mut(rid).expect("job's request exists");
            let nr = &mut req.nodes[node.index()];
            nr.arrivals += 1;
            let arrivals = nr.arrivals;
            let fired = (arrivals as usize) == required;
            if (arrivals as usize) <= required {
                nr.entry_conn = conn;
            }
            if fired {
                nr.enter = Some(self.now);
                if required < fan_in {
                    req.early_fire = true;
                }
            } else {
                req.live_jobs -= 1;
            }
            (arrivals, fired)
        };
        if fan_in > 1 {
            if let Some(log) = self.span_log.as_deref_mut() {
                log.record(TraceEvent::FanIn {
                    request: rid,
                    node,
                    instance: Some(inst_id),
                    arrivals,
                    fan_in: fan_in as u32,
                    required: required as u32,
                    fired,
                    t: self.now,
                });
            }
        }
        // The hop that arrives is network time; when the firing fan-in copy
        // lands, the wait since the previous arrival was synchronization.
        let comp = if fired && fan_in > 1 {
            crate::telemetry::LatencyComponent::FanInSync
        } else {
            crate::telemetry::LatencyComponent::Network
        };
        self.attribute_latency(rid, comp, CritSiteRef::Instance(inst_id));
        if !fired {
            self.jobs.free(job_id);
            self.try_finalize(rid);
            return;
        }

        // Choose the intra-service execution path.
        let inst_service = self.instances[inst_id.index()].service;
        let exec_idx = match exec_select {
            PathSelect::Fixed { index } => index,
            PathSelect::Probabilistic => {
                self.services[inst_service.index()].choose_path(&mut self.rng_path)
            }
        };

        // Route to a worker thread / queue set.
        let shared = self.instances[inst_id.index()].shared_queues;
        let thread_idx = if let Some(pn) = pin {
            self.requests.get(rid).expect("request exists").nodes[pn.index()]
                .thread
                .expect("pinned node already executed")
                .index()
        } else if shared {
            0
        } else {
            conn.and_then(|c| self.conns[c.index()].thread_at(inst_id))
                .map(ThreadId::index)
                .unwrap_or(0)
        };
        let set = if shared { 0 } else { thread_idx };

        {
            let j = self.jobs.get_mut(job_id).expect("delivered job exists");
            j.exec_path = exec_idx;
            j.stage_cursor = 0;
            j.instance = Some(inst_id);
            j.state_since = self.now;
        }
        let first_stage = self.services[inst_service.index()].paths[exec_idx].stages[0].index();
        let conn_key = conn.expect("jobs always travel on a connection");
        self.instances[inst_id.index()].queue_sets[set].push(first_stage, job_id, conn_key);
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::Enqueue {
                job: job_id,
                request: rid,
                node,
                instance: inst_id,
                stage: StageId::from_raw(first_stage as u32),
                t: self.now,
            });
        }

        // Unblock the pinned thread waiting for this reply, if any.
        if self.unblocks_thread[ty.index()][node.index()] {
            self.instances[inst_id.index()].unblock(thread_idx);
        }

        self.dispatch_instance(inst_id);
    }

    /// Starts as much work as possible on an instance: idle threads pick the
    /// latest non-empty stage of their queue set and run a batch on a free
    /// core.
    fn dispatch_instance(&mut self, inst_id: InstanceId) {
        let i = inst_id.index();
        loop {
            // Every pass below ends with a full thread scan that finds
            // nothing once the queues drain; the per-set bitmasks make
            // "all empty" a handful of u64 loads, so check that first.
            if self.instances[i]
                .queue_sets
                .iter()
                .all(crate::queue::StageQueueSet::is_empty)
            {
                break;
            }
            // Find (thread, core, stage) without mutating.
            let candidate = {
                let inst = &self.instances[i];
                let machine = &self.machines[inst.machine.index()];
                let mut found = None;
                // Ascending-bit iteration visits threads in the same order
                // as the scan it replaces, so the candidate is unchanged.
                let mut idle = inst.idle_mask;
                while idle != 0 {
                    let t = idle.trailing_zeros() as usize;
                    idle &= idle - 1;
                    let th = &inst.threads[t];
                    debug_assert!(th.is_idle(), "idle_mask out of sync");
                    // Queue check first: it is one bitmask load, while the
                    // core checks touch the (cold) machine core table. A
                    // workless thread never reaches the core scan, and the
                    // (thread, core, stage) produced is unchanged: a
                    // candidate still needs idle + free core + work.
                    let Some(stage) = inst.queue_sets[th.queue_set].highest_nonempty() else {
                        continue;
                    };
                    let core_idx = match inst.exec {
                        ExecModel::Simple => {
                            let c = inst.cores[t];
                            if machine.cores[c].busy {
                                continue;
                            }
                            c
                        }
                        ExecModel::MultiThreaded { .. } => {
                            match inst.cores.iter().copied().find(|&c| !machine.cores[c].busy) {
                                Some(c) => c,
                                // No free cores: no thread can start.
                                None => break,
                            }
                        }
                    };
                    found = Some((t, core_idx, stage));
                    break;
                }
                found
            };
            let Some((t, core_idx, stage_idx)) = candidate else {
                break;
            };

            // Assemble the batch into a pooled scratch vector (returned to
            // the pool by `on_stage_done`) and start service.
            let mut jobs = self.batch_pool.pop().unwrap_or_default();
            let inst = &mut self.instances[i];
            let set_idx = inst.threads[t].queue_set;
            inst.queue_sets[set_idx].assemble_batch_into(stage_idx, &mut jobs);
            debug_assert!(!jobs.is_empty(), "candidate stage had work");
            let k = jobs.len();
            let m = inst.machine.index();
            // One fused pass per job: batch bytes for the service-time
            // model, dispatch bookkeeping, and queue-wait telemetry (two
            // extra arena walks before the fusion).
            let mut batch_bytes: f64 = 0.0;
            for &j in &jobs {
                let (rid, enqueued) = {
                    let job = self.jobs.get_mut(j).expect("queued job exists");
                    job.thread = Some(ThreadId::from_raw(t as u32));
                    job.instance = Some(inst_id);
                    let enqueued = job.state_since;
                    job.state_since = self.now;
                    (job.request, enqueued)
                };
                // Not `attribute_latency`: `inst` holds a borrow of
                // self.instances, so only disjoint fields are touchable here.
                if let Some(tel) = self.telemetry.as_deref_mut() {
                    if let Some(req) = self.requests.get_mut(rid) {
                        charge_latency(
                            req,
                            self.now,
                            tel.cfg.critpath,
                            crate::telemetry::LatencyComponent::QueueWait,
                            CritSiteRef::Stage(inst_id, stage_idx as u32),
                        );
                    }
                    if self.now >= tel.warmup_at {
                        tel.stage_queue_wait[i][stage_idx].record((self.now - enqueued).as_nanos());
                    }
                }
                if let Some(req) = self.requests.get(rid) {
                    batch_bytes += req.size_bytes;
                }
            }
            let core = &mut self.machines[m].cores[core_idx];
            let freq = core.freq_ghz;
            let ctx_ns = match inst.exec {
                ExecModel::MultiThreaded { ctx_switch_ns }
                    if core.last_thread != Some((i as u32, t as u32)) =>
                {
                    ctx_switch_ns
                }
                _ => 0,
            };
            let svc = &self.services[inst.service.index()];
            let secs =
                svc.stages[stage_idx]
                    .service
                    .sample(&mut self.rng_service, k, batch_bytes, freq);
            // Fault: a machine-slowdown window inflates service times.
            let secs = match self.fault.as_deref() {
                Some(f) => secs * f.slow_factor[m],
                None => secs,
            };
            let dur = SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(ctx_ns);
            core.busy = true;
            core.last_thread = Some((i as u32, t as u32));
            core.busy_ns += dur.as_nanos();
            let machine = &mut self.machines[m];
            let max_ghz = machine.max_ghz;
            machine.cores[core_idx].dyn_energy_j +=
                dur.as_secs_f64() * machine.spec.power.dynamic_power_w(freq, max_ghz);
            if let Some(log) = self.span_log.as_deref_mut() {
                let start = self.now;
                log.record_batch(&jobs, |jobs| TraceEvent::BatchStart {
                    instance: inst_id,
                    machine: MachineId::from_raw(m as u32),
                    stage: StageId::from_raw(stage_idx as u32),
                    thread: ThreadId::from_raw(t as u32),
                    core: core_idx as u32,
                    freq_ghz: freq,
                    start,
                    end: start + dur,
                    jobs,
                });
            }
            inst.threads[t].running = Some(Batch {
                stage: StageId::from_raw(stage_idx as u32),
                jobs,
            });
            inst.threads[t].held_core = Some(core_idx);
            inst.idle_mask &= !(1u64 << t);
            self.events.schedule(
                self.now + dur,
                EventKind::StageDone {
                    instance: inst_id,
                    thread: ThreadId::from_raw(t as u32),
                },
            );
        }
    }

    fn on_stage_done(&mut self, inst_id: InstanceId, thread: ThreadId) {
        let i = inst_id.index();
        let t = thread.index();
        let batch = self.instances[i].threads[t]
            .running
            .take()
            .expect("StageDone for running thread");
        let core_idx = self.instances[i].threads[t]
            .held_core
            .take()
            .expect("running thread holds a core");
        if self.instances[i].threads[t].block_depth == 0 {
            self.instances[i].idle_mask |= 1u64 << t;
        }
        let m = self.instances[i].machine.index();
        self.machines[m].cores[core_idx].busy = false;

        // Fault: the instance crashed while this batch was in service — the
        // work is lost. (Queued jobs were drained at crash time; arrivals
        // die at the door.)
        if self.fault.as_deref().is_some_and(|f| f.instance_down[i]) {
            for &job_id in &batch.jobs {
                self.kill_job(job_id);
            }
            self.recycle_batch(batch);
            return;
        }

        let sid = self.instances[i].service.index();
        let set = self.instances[i].threads[t].queue_set;
        for &job_id in &batch.jobs {
            let (cursor, exec_path, conn, rid, node, svc_start) = {
                let job = self.jobs.get_mut(job_id).expect("batch job exists");
                debug_assert_eq!(
                    self.services[sid].paths[job.exec_path].stages[job.stage_cursor], batch.stage,
                    "job was batched at a stage it is not at"
                );
                job.stage_cursor += 1;
                let svc_start = job.state_since;
                job.state_since = self.now;
                (
                    job.stage_cursor,
                    job.exec_path,
                    job.conn,
                    job.request,
                    job.node,
                    svc_start,
                )
            };
            self.attribute_latency(
                rid,
                crate::telemetry::LatencyComponent::Service,
                CritSiteRef::Stage(inst_id, batch.stage.raw()),
            );
            if let Some(tel) = self.telemetry.as_deref_mut() {
                if self.now >= tel.warmup_at {
                    tel.stage_service[i][batch.stage.index()]
                        .record((self.now - svc_start).as_nanos());
                }
            }
            let stages = &self.services[sid].paths[exec_path].stages;
            if cursor < stages.len() {
                let next_stage_id = stages[cursor];
                let next_stage = next_stage_id.index();
                self.instances[i].queue_sets[set].push(
                    next_stage,
                    job_id,
                    conn.expect("executing job has a connection"),
                );
                if let Some(log) = self.span_log.as_deref_mut() {
                    log.record(TraceEvent::Enqueue {
                        job: job_id,
                        request: rid,
                        node,
                        instance: inst_id,
                        stage: next_stage_id,
                        t: self.now,
                    });
                }
            } else {
                self.complete_node(job_id, inst_id, thread);
            }
        }
        self.recycle_batch(batch);
        self.dispatch_instance(inst_id);
    }

    /// Returns a finished batch's job vector to the scratch pool.
    fn recycle_batch(&mut self, batch: Batch) {
        let mut jobs = batch.jobs;
        jobs.clear();
        self.batch_pool.push(jobs);
    }

    /// A job finished the last stage of its node: log its residency, handle
    /// thread blocking, and fan out to children.
    fn complete_node(&mut self, job_id: JobId, inst_id: InstanceId, thread: ThreadId) {
        let job = self.jobs.free(job_id);
        let rid = job.request;
        let node = job.node;

        let (ty, entered) = {
            let req = self.requests.get_mut(rid).expect("job's request exists");
            let nr = &mut req.nodes[node.index()];
            nr.instance = Some(inst_id);
            nr.thread = Some(thread);
            let entered = nr.enter.expect("a completing node was entered");
            // Interval samples only feed controller ticks; skip the push
            // when no controller will ever drain them.
            if !self.controllers.is_empty() {
                let residency = self.now - entered;
                self.interval_instance[inst_id.index()].push(residency.as_secs_f64());
            }
            req.live_jobs -= 1;
            (req.ty, entered)
        };
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::NodeDone {
                request: rid,
                job: job_id,
                node,
                instance: inst_id,
                thread,
                entered,
                t: self.now,
            });
        }

        let spec = &self.request_types[ty.index()].nodes[node.index()];
        let n_children = spec.children.len();
        if spec.block_thread_until.is_some() {
            let inst = &mut self.instances[inst_id.index()];
            inst.threads[thread.index()].block_depth += 1;
            inst.idle_mask &= !(1u64 << thread.index());
        }

        // Iterate by index, re-reading the spec each round: `fan_out` needs
        // `&mut self`, and this keeps the hot path free of a children clone.
        for k in 0..n_children {
            let child = self.request_types[ty.index()].nodes[node.index()].children[k];
            self.fan_out(rid, ty, node, child, inst_id, thread, job.conn);
        }
        // A failed or early-resolved request may have just drained its last
        // live branch. No-op when faults and quorum policies are off.
        self.try_finalize(rid);
    }

    /// Sends one fan-out copy from `parent` (just completed on
    /// `sender_inst`/`sender_thread`, having entered on `parent_conn`) to
    /// `child`.
    #[allow(clippy::too_many_arguments)]
    fn fan_out(
        &mut self,
        rid: RequestId,
        ty: crate::ids::RequestTypeId,
        parent: PathNodeId,
        child: PathNodeId,
        sender_inst: InstanceId,
        sender_thread: ThreadId,
        parent_conn: Option<ConnectionId>,
    ) {
        let (fan_in, is_sink) = {
            let rt = &self.request_types[ty.index()];
            (
                rt.fan_in[child.index()].max(1),
                matches!(rt.nodes[child.index()].target, NodeTarget::ClientSink),
            )
        };

        match is_sink {
            true => {
                let required = self.request_types[ty.index()].nodes[child.index()]
                    .fan_in_policy
                    .required(fan_in);
                let (arrivals, fire) = {
                    let req = self.requests.get_mut(rid).expect("request exists");
                    let nr = &mut req.nodes[child.index()];
                    nr.arrivals += 1;
                    let fire = (nr.arrivals as usize) == required;
                    if fire {
                        req.sink_fired = true;
                        if required < fan_in {
                            req.early_fire = true;
                        }
                    }
                    (nr.arrivals, fire)
                };
                if fan_in > 1 {
                    if let Some(log) = self.span_log.as_deref_mut() {
                        log.record(TraceEvent::FanIn {
                            request: rid,
                            node: child,
                            instance: None,
                            arrivals,
                            fan_in: fan_in as u32,
                            required: required as u32,
                            fired: fire,
                            t: self.now,
                        });
                    }
                }
                if fire {
                    let m = self.instances[sender_inst.index()].machine.index();
                    let wire = self.machines[m]
                        .spec
                        .network
                        .wire_latency
                        .sample(&mut self.rng_network);
                    self.events.schedule(
                        self.now + SimDuration::from_secs_f64(wire),
                        EventKind::DeliverToClient { request: rid },
                    );
                }
            }
            false => {
                let dest = self.resolve_instance(rid, ty, child);
                let job = self.jobs.alloc(rid, child);
                self.requests
                    .get_mut(rid)
                    .expect("request exists")
                    .live_jobs += 1;
                // Reply links reuse the connection the referenced node
                // entered on; resolve it under shared borrows so the spec
                // never needs cloning.
                let reply_conn = {
                    let spec = &self.request_types[ty.index()].nodes[child.index()];
                    match &spec.link {
                        LinkKind::Request => None,
                        LinkKind::ReplyToParent => Some(parent_conn.unwrap_or_else(|| {
                            panic!("reply_to_parent from node {parent} without an entry connection")
                        })),
                        LinkKind::Reply { of } => Some(
                            self.requests.get(rid).expect("request exists").nodes[of.index()]
                                .entry_conn
                                .expect("reply references an entered node"),
                        ),
                        LinkKind::ReplyVia { entries } => {
                            let of = entries
                                .iter()
                                .find(|(p, _)| *p == parent)
                                .unwrap_or_else(|| {
                                    panic!("reply_via map has no entry for parent {parent}")
                                })
                                .1;
                            Some(
                                self.requests.get(rid).expect("request exists").nodes[of.index()]
                                    .entry_conn
                                    .expect("reply_via references an entered node"),
                            )
                        }
                    }
                };
                match reply_conn {
                    None => self.send_request_edge(job, sender_inst, sender_thread, dest),
                    Some(conn) => {
                        self.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
                        self.send_job(job, Some(sender_inst), dest);
                    }
                }
            }
        }
    }

    fn resolve_instance(
        &mut self,
        rid: RequestId,
        ty: crate::ids::RequestTypeId,
        node: PathNodeId,
    ) -> InstanceId {
        let select = match &self.request_types[ty.index()].nodes[node.index()].target {
            NodeTarget::Service { instance, .. } => instance,
            NodeTarget::ClientSink => unreachable!("sinks have no instance to resolve"),
        };
        match select {
            InstanceSelect::Fixed { instance } => *instance,
            InstanceSelect::RoundRobin { instances } => {
                let ctr = &mut self.rr_instance[ty.index()][node.index()];
                let inst = instances[*ctr % instances.len()];
                *ctr += 1;
                inst
            }
            InstanceSelect::SameAsNode { node: n } => {
                self.requests.get(rid).expect("request exists").nodes[n.index()]
                    .instance
                    .expect("referenced node already executed")
            }
        }
    }

    /// Sends a request-edge copy: acquire a pooled connection (waiting if
    /// exhausted) or an ephemeral connection if no pool is configured.
    fn send_request_edge(
        &mut self,
        job: JobId,
        sender_inst: InstanceId,
        sender_thread: ThreadId,
        dest: InstanceId,
    ) {
        let key = (sender_inst.raw(), dest.raw());
        if let Some(&pool_id) = self.pool_lookup.get(&key) {
            let acquired = self.pools[pool_id.index()].acquire(sender_thread);
            match acquired {
                Some(conn) => {
                    self.conns[conn.index()].busy = true;
                    self.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
                    if let Some(log) = self.span_log.as_deref_mut() {
                        log.record(TraceEvent::PoolAcquire {
                            pool: pool_id,
                            conn,
                            job,
                            t: self.now,
                        });
                    }
                    self.send_job(job, Some(sender_inst), dest);
                }
                None => {
                    self.pools[pool_id.index()].enqueue_waiter(job);
                    if let Some(log) = self.span_log.as_deref_mut() {
                        log.record(TraceEvent::PoolBlock {
                            pool: pool_id,
                            job,
                            t: self.now,
                        });
                    }
                }
            }
        } else {
            // Ephemeral unbounded connection; prefer one bound to the
            // sending thread so the reply returns to the right worker.
            let conn = self.acquire_ephemeral(sender_inst, sender_thread, dest);
            self.conns[conn.index()].busy = true;
            self.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
            self.send_job(job, Some(sender_inst), dest);
        }
    }

    fn acquire_ephemeral(
        &mut self,
        sender_inst: InstanceId,
        sender_thread: ThreadId,
        dest: InstanceId,
    ) -> ConnectionId {
        let key = (sender_inst.raw(), dest.raw());
        if let Some(free) = self.eph_free.get_mut(&key) {
            if let Some(pos) = free.iter().position(|&c| {
                matches!(
                    self.conns[c.index()].up,
                    UpEndpoint::Instance { thread, .. } if thread == sender_thread
                )
            }) {
                return free.swap_remove(pos);
            }
            if let Some(c) = free.pop() {
                return c;
            }
        }
        // Create a new connection, binding the downstream thread round-robin.
        let down_inst = &mut self.instances[dest.index()];
        let n = down_inst.threads.len();
        let dt = down_inst.rr_thread;
        debug_assert!(dt < n, "rr_thread wraps in range");
        down_inst.rr_thread = if dt + 1 == n { 0 } else { dt + 1 };
        let id = ConnectionId::from_raw(self.conns.len() as u32);
        self.conns.push(Connection::new(
            UpEndpoint::Instance {
                instance: sender_inst,
                thread: sender_thread,
            },
            dest,
            ThreadId::from_raw(dt as u32),
        ));
        id
    }

    /// Releases a pooled or ephemeral connection after its reply was
    /// delivered. Pool releases may immediately hand the connection to a
    /// waiting job.
    fn release_conn(&mut self, conn_id: ConnectionId) {
        self.conns[conn_id.index()].busy = false;
        let pool = self.conns[conn_id.index()].pool;
        if let Some(pid) = pool {
            if let Some(log) = self.span_log.as_deref_mut() {
                log.record(TraceEvent::PoolRelease {
                    pool: pid,
                    conn: conn_id,
                    t: self.now,
                });
            }
            let released_thread = match self.conns[conn_id.index()].up {
                UpEndpoint::Instance { thread, .. } => thread,
                UpEndpoint::Client(_) => {
                    unreachable!("pooled connections originate from instances")
                }
            };
            if let Some((job, c)) = self.pools[pid.index()].release(conn_id, released_thread) {
                self.conns[c.index()].busy = true;
                let rid = {
                    let j = self.jobs.get_mut(job).expect("waiting job exists");
                    j.conn = Some(c);
                    j.request
                };
                // Time spent waiting for a pooled connection is blocking.
                self.attribute_latency(
                    rid,
                    crate::telemetry::LatencyComponent::Blocking,
                    CritSiteRef::Pool(pid),
                );
                if let Some(log) = self.span_log.as_deref_mut() {
                    log.record(TraceEvent::PoolGrant {
                        pool: pid,
                        conn: c,
                        job,
                        request: rid,
                        t: self.now,
                    });
                }
                let dest = self.pools[pid.index()].down_instance;
                let up = self.pools[pid.index()].up_instance;
                self.send_job(job, Some(up), dest);
            }
        } else {
            match self.conns[conn_id.index()].up {
                UpEndpoint::Instance { instance, .. } => {
                    let key = (
                        instance.raw(),
                        self.conns[conn_id.index()].down_instance.raw(),
                    );
                    self.eph_free.entry(key).or_default().push(conn_id);
                }
                UpEndpoint::Client(_) => {
                    // Client connections are released in on_deliver_to_client.
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & resilience (see crate::fault)
    // ------------------------------------------------------------------

    /// Installs a fault plan: lowers names to ids (errors name `faults.json`
    /// and the offending key), seeds the dedicated `"fault"` RNG stream, and
    /// schedules every fault window's start/end transition.
    ///
    /// Call before [`Simulator::run_for`]. Installing an empty plan is valid
    /// and changes nothing observable: no extra events, no extra RNG draws.
    ///
    /// # Panics
    ///
    /// Panics if [`Simulator::enable_telemetry`] was already called: the
    /// telemetry layer fixes its series columns (including the fault-gated
    /// ones) at enable time, so faults must be installed first.
    pub fn install_faults(
        &mut self,
        plan: &crate::fault::FaultPlan,
    ) -> crate::error::SimResult<()> {
        assert!(
            self.telemetry.is_none(),
            "install_faults must be called before enable_telemetry"
        );
        let instance_names: Vec<String> = self.instances.iter().map(|i| i.name.clone()).collect();
        let machine_names: Vec<String> =
            self.machines.iter().map(|m| m.spec.name.clone()).collect();
        let client_names: Vec<String> = self.clients.iter().map(|c| c.spec.name.clone()).collect();
        let pool_lookup = &self.pool_lookup;
        let (schedule, client_policy) = crate::fault::lower_plan(
            plan,
            &instance_names,
            &machine_names,
            &client_names,
            |up, down| pool_lookup.get(&(up.raw(), down.raw())).copied(),
        )?;
        for (idx, f) in schedule.iter().enumerate() {
            self.events
                .schedule(f.at, EventKind::FaultStart { fault: idx as u32 });
            if let Some(until) = f.until {
                self.events
                    .schedule(until, EventKind::FaultEnd { fault: idx as u32 });
            }
        }
        let rng = crate::rng::RngFactory::new(self.cfg.seed).stream("fault", 0);
        self.fault = Some(Box::new(crate::fault::FaultState::new(
            rng,
            schedule,
            self.instances.len(),
            self.machines.len(),
            client_policy,
            plan.policy.network,
        )));
        Ok(())
    }

    fn on_fault_start(&mut self, idx: usize) {
        let fault = match self.fault.as_deref() {
            Some(f) => f.schedule[idx].fault,
            None => return,
        };
        match fault {
            crate::fault::LoweredFault::Crash { instance } => {
                let i = instance.index();
                let name = self.instances[i].name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.instance_down[i] = true;
                    f.log(self.now, format!("instance {name} crashed"));
                }
                // Queued jobs die with the process. Batches already in
                // service die at their StageDone; arrivals die at the door.
                let mut doomed = Vec::new();
                for set in &mut self.instances[i].queue_sets {
                    doomed.extend(set.drain_all());
                }
                // Threads blocked on now-doomed replies restart unblocked.
                {
                    let inst = &mut self.instances[i];
                    for (t, th) in inst.threads.iter_mut().enumerate() {
                        th.block_depth = 0;
                        if th.running.is_none() {
                            inst.idle_mask |= 1u64 << t;
                        }
                    }
                }
                for job in doomed {
                    self.kill_job(job);
                }
            }
            crate::fault::LoweredFault::Slowdown { machine, factor } => {
                let m = machine.index();
                let name = self.machines[m].spec.name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.slow_factor[m] = factor;
                    f.log(self.now, format!("machine {name} slowed down x{factor}"));
                }
            }
            crate::fault::LoweredFault::NetDegrade {
                machine,
                added_s,
                drop_prob,
            } => {
                let m = machine.index();
                let name = self.machines[m].spec.name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.net_added_s[m] = added_s;
                    f.net_drop_p[m] = drop_prob;
                    f.log(
                        self.now,
                        format!("network to {name} degraded (+{added_s}s, drop p={drop_prob})"),
                    );
                }
            }
            crate::fault::LoweredFault::PoolLeak { pool, leak } => {
                let p = pool.index();
                let leaked = self.pools[p].leak(leak);
                let up = self.instances[self.pools[p].up_instance.index()]
                    .name
                    .clone();
                let down = self.instances[self.pools[p].down_instance.index()]
                    .name
                    .clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.log(
                        self.now,
                        format!("pool {up}->{down} leaked {leaked} connections"),
                    );
                }
            }
        }
    }

    fn on_fault_end(&mut self, idx: usize) {
        let fault = match self.fault.as_deref() {
            Some(f) => f.schedule[idx].fault,
            None => return,
        };
        match fault {
            crate::fault::LoweredFault::Crash { instance } => {
                let i = instance.index();
                let name = self.instances[i].name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.instance_down[i] = false;
                    f.log(self.now, format!("instance {name} restarted"));
                }
            }
            crate::fault::LoweredFault::Slowdown { machine, .. } => {
                let m = machine.index();
                let name = self.machines[m].spec.name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.slow_factor[m] = 1.0;
                    f.log(self.now, format!("machine {name} back to full speed"));
                }
            }
            crate::fault::LoweredFault::NetDegrade { machine, .. } => {
                let m = machine.index();
                let name = self.machines[m].spec.name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.net_added_s[m] = 0.0;
                    f.net_drop_p[m] = 0.0;
                    f.log(self.now, format!("network to {name} healthy"));
                }
            }
            crate::fault::LoweredFault::PoolLeak { pool, .. } => {
                let p = pool.index();
                let grants = self.pools[p].restore_leaked();
                let restored = grants.len() + self.pools[p].free_count();
                let up = self.instances[self.pools[p].up_instance.index()]
                    .name
                    .clone();
                let down = self.instances[self.pools[p].down_instance.index()]
                    .name
                    .clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.log(
                        self.now,
                        format!("pool {up}->{down} restored ({restored} usable)"),
                    );
                }
                // Restored connections may go straight to waiting jobs,
                // mirroring the grant path of `release_conn`.
                let pid = crate::ids::PoolId::from_raw(p as u32);
                for (job, c) in grants {
                    self.conns[c.index()].busy = true;
                    let rid = {
                        let j = self.jobs.get_mut(job).expect("waiting job exists");
                        j.conn = Some(c);
                        j.request
                    };
                    self.attribute_latency(
                        rid,
                        crate::telemetry::LatencyComponent::Blocking,
                        CritSiteRef::Pool(pid),
                    );
                    if let Some(log) = self.span_log.as_deref_mut() {
                        log.record(TraceEvent::PoolGrant {
                            pool: pid,
                            conn: c,
                            job,
                            request: rid,
                            t: self.now,
                        });
                    }
                    let dest = self.pools[p].down_instance;
                    let upi = self.pools[p].up_instance;
                    self.send_job(job, Some(upi), dest);
                }
            }
        }
    }

    /// Kills one in-flight job (crash drain, crash arrival, dead batch, or
    /// exhausted retransmissions): frees it, releases any non-client
    /// connection it still holds, marks the request failed, and resolves the
    /// request as dropped once its last live branch is gone.
    ///
    /// `conn_released` overrides the inferred "does the job still hold its
    /// connection" decision; the crash-arrival door passes it because the
    /// reply release has just happened there.
    fn kill_job_with(&mut self, job_id: JobId, conn_released: Option<bool>) {
        let job = self.jobs.free(job_id);
        let rid = job.request;
        let already_released = conn_released.unwrap_or_else(|| {
            // A job releases its (reply-link) connection when it is
            // delivered; before delivery it still holds whatever it carries.
            job.instance.is_some()
                && self.requests.get(rid).is_some_and(|r| {
                    !matches!(
                        self.request_types[r.ty.index()].nodes[job.node.index()].link,
                        LinkKind::Request
                    )
                })
        });
        if let Some(c) = job.conn {
            if !already_released && !matches!(self.conns[c.index()].up, UpEndpoint::Client(_)) {
                self.release_conn(c);
            }
        }
        if let Some(f) = self.fault.as_deref_mut() {
            f.summary.jobs_killed += 1;
        }
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::JobKilled {
                job: job_id,
                request: rid,
                t: self.now,
            });
        }
        if let Some(req) = self.requests.get_mut(rid) {
            req.live_jobs -= 1;
            req.failed = true;
        }
        self.try_finalize(rid);
    }

    fn kill_job(&mut self, job_id: JobId) {
        self.kill_job_with(job_id, None);
    }

    /// Checks a request for final disposal after a live-jobs decrement:
    /// retires a resolved request whose stragglers drained, or resolves a
    /// failed request as dropped once nothing of it is left in flight.
    /// No-op in runs without faults or early-firing fan-ins (both flags
    /// stay false).
    fn try_finalize(&mut self, rid: RequestId) {
        let Some(req) = self.requests.get(rid) else {
            return;
        };
        if req.live_jobs > 0 {
            return;
        }
        if req.resolved {
            self.retire_request(rid, false);
            self.resolved_pending -= 1;
        } else if req.failed && !req.sink_fired {
            self.resolve_dropped(rid);
        }
    }

    /// Releases `rid`'s slot — the one place that does, so that the span
    /// log always learns of it. `at_terminal` says the terminal event the
    /// caller has just recorded carries the release (`RequestCompleted`
    /// with `retired`, `RequestDropped`, `RequestShed`); otherwise
    /// stragglers deferred it past that event and it is logged as a
    /// `RequestRetired` of its own. Nothing names the request afterwards:
    /// no job of it is left, and its timers miss on the stale id.
    fn retire_request(&mut self, rid: RequestId, at_terminal: bool) {
        if !at_terminal {
            if let Some(log) = self.span_log.as_deref_mut() {
                log.record(TraceEvent::RequestRetired {
                    request: rid,
                    t: self.now,
                });
            }
        }
        if self.requests.get(rid).is_some_and(|req| req.failed) {
            self.release_threads_blocked_for(rid);
        }
        self.requests.free(rid);
    }

    /// A request that lost a job to a fault retires with nodes that never
    /// ran, and a thread that blocked until one of them
    /// (`block_thread_until`) would wait forever: only that node's delivery
    /// unblocks it. Releases each such thread and lets its instance
    /// dispatch. A thread whose own instance crashed since the blocking
    /// node ran was reset by the crash and is left alone.
    fn release_threads_blocked_for(&mut self, rid: RequestId) {
        let req = self.requests.get(rid).expect("retiring request exists");
        let specs = &self.request_types[req.ty.index()].nodes;
        let schedule = self.fault.as_deref().map_or(&[][..], |f| &f.schedule);
        let mut released = Vec::new();
        for (nr, spec) in req.nodes.iter().zip(specs) {
            let (Some(until), Some(inst), Some(thread), Some(entered)) =
                (spec.block_thread_until, nr.instance, nr.thread, nr.enter)
            else {
                continue;
            };
            let crashed_since = schedule.iter().any(|w| {
                w.fault == crate::fault::LoweredFault::Crash { instance: inst }
                    && (entered..=self.now).contains(&w.at)
            });
            if req.nodes[until.index()].enter.is_some() || crashed_since {
                continue;
            }
            self.instances[inst.index()].unblock(thread.index());
            released.push(inst);
        }
        for inst in released {
            self.dispatch_instance(inst);
        }
    }

    /// Resolves a request whose last in-flight branch was killed: the
    /// client never gets a response. Releases the client connection (unless
    /// the timeout already did) and feeds the resilience policy.
    fn resolve_dropped(&mut self, rid: RequestId) {
        let (client, conn, conn_released, launched, timed_out, superseded, ty, attempt, size) = {
            let req = self.requests.get_mut(rid).expect("dropping request exists");
            req.resolved = true;
            (
                req.client,
                req.client_conn,
                req.conn_released,
                req.launched.is_some(),
                req.timed_out,
                req.superseded,
                req.ty,
                req.attempt,
                req.size_bytes,
            )
        };
        self.dropped += 1;
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestDropped {
                request: rid,
                t: self.now,
            });
        }
        self.retire_request(rid, true);
        if launched && !conn_released {
            let conn_id = conn.expect("launched request has a connection");
            let next = {
                let c = &mut self.conns[conn_id.index()];
                c.busy = false;
                c.pending.pop_front()
            };
            if let Some(next_rid) = next {
                self.launch_request(next_rid, conn_id);
            }
            self.closed_loop_reissue(client);
        }
        // A timed-out request already reported its failure at the deadline;
        // a superseded hedge copy must not trigger retries of its own.
        if !timed_out && !superseded {
            self.fault_on_failure(client, ty, attempt, size);
        }
    }

    /// Breaker admission + hedge arming at emission time. Returns `true`
    /// when the request was shed (the caller must not launch it).
    fn fault_admission(&mut self, rid: RequestId, client: ClientId) -> bool {
        let (open, hedge) = {
            let Some(f) = self.fault.as_deref() else {
                return false;
            };
            match &f.client_policy[client.index()] {
                Some(p) => (p.breaker_open(self.now), p.hedge_after),
                None => return false,
            }
        };
        if open {
            self.resolve_shed(rid, client);
            return true;
        }
        if let Some(h) = hedge {
            let attempt = self.requests.get(rid).map_or(0, |r| r.attempt);
            if attempt == 0 {
                self.events
                    .schedule(self.now + h, EventKind::HedgeFire { request: rid });
            }
        }
        false
    }

    /// Immediately resolves `rid` as shed: the breaker refused it, the
    /// client sees an instant degraded response, and no simulated resource
    /// is touched.
    fn resolve_shed(&mut self, rid: RequestId, client: ClientId) {
        self.shed += 1;
        self.degraded += 1;
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestShed {
                request: rid,
                t: self.now,
            });
        }
        self.retire_request(rid, true);
        // Closed-loop users observe the instant rejection and think again.
        self.closed_loop_reissue(client);
    }

    /// Breaker bookkeeping on a client-observed success.
    fn fault_on_success(&mut self, client: ClientId) {
        if let Some(f) = self.fault.as_deref_mut() {
            if let Some(p) = f.client_policy[client.index()].as_mut() {
                p.on_success();
            }
        }
    }

    /// A client-observed failure (timeout or drop): feeds the breaker and
    /// schedules a retry when the policy allows one.
    fn fault_on_failure(
        &mut self,
        client: ClientId,
        ty: crate::ids::RequestTypeId,
        attempt: u32,
        size_bytes: f64,
    ) {
        let delay = {
            let Some(f) = self.fault.as_deref_mut() else {
                return;
            };
            let crate::fault::FaultState {
                client_policy, rng, ..
            } = f;
            let Some(p) = client_policy[client.index()].as_mut() else {
                return;
            };
            p.on_failure(self.now, attempt, rng)
        };
        if let Some(delay) = delay {
            self.events.schedule(
                self.now + delay,
                EventKind::RetryEmit(Box::new(crate::event::RetrySpec {
                    client,
                    request_type: ty,
                    attempt: attempt + 1,
                    size_bytes,
                })),
            );
        }
    }

    /// Handles [`EventKind::RetryEmit`]: re-emits a failed operation as a
    /// fresh request — same type, same payload size, bumped attempt count.
    fn on_retry_emit(
        &mut self,
        client: ClientId,
        ty: crate::ids::RequestTypeId,
        attempt: u32,
        size_bytes: f64,
    ) {
        let c = client.index();
        let node_count = self.request_types[ty.index()].nodes.len();
        let rid = self.requests.alloc(ty, client, self.now, node_count);
        {
            let req = self.requests.get_mut(rid).expect("fresh request");
            req.size_bytes = size_bytes;
            req.attempt = attempt;
        }
        self.generated += 1;
        self.retried += 1;
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestEmitted {
                request: rid,
                request_type: ty,
                client,
                t: self.now,
            });
            log.record(TraceEvent::RequestRetry {
                request: rid,
                attempt,
                t: self.now,
            });
        }
        // The breaker may have opened between scheduling and firing.
        if self.fault_admission(rid, client) {
            return;
        }
        if let Some(timeout_s) = self.clients[c].spec.timeout_s {
            self.events.schedule(
                self.now + SimDuration::from_secs_f64(timeout_s),
                EventKind::RequestTimeout { request: rid },
            );
        }
        let n_conns = self.clients[c].conns.len();
        let ci = self.clients[c].next_conn;
        // Wrap without the integer divide; `next_conn` stays in range.
        self.clients[c].next_conn = if ci + 1 == n_conns { 0 } else { ci + 1 };
        let conn_id = self.clients[c].conns[ci];
        self.requests
            .get_mut(rid)
            .expect("fresh request")
            .client_conn = Some(conn_id);
        if self.conns[conn_id.index()].busy {
            self.conns[conn_id.index()].pending.push_back(rid);
        } else {
            self.launch_request(rid, conn_id);
        }
    }

    /// Handles [`EventKind::HedgeFire`]: the original is still outstanding
    /// past the hedge deadline, so a duplicate is issued; the first delivery
    /// wins and the loser is marked superseded.
    fn on_hedge_fire(&mut self, rid: RequestId) {
        let (client, ty, size, attempt) = {
            let Some(req) = self.requests.get(rid) else {
                return; // already completed or dropped
            };
            if req.timed_out || req.resolved || req.hedge_twin.is_some() {
                return;
            }
            (req.client, req.ty, req.size_bytes, req.attempt)
        };
        let c = client.index();
        let node_count = self.request_types[ty.index()].nodes.len();
        let twin = self.requests.alloc(ty, client, self.now, node_count);
        {
            let t = self.requests.get_mut(twin).expect("fresh request");
            t.size_bytes = size;
            t.attempt = attempt;
            t.hedge_twin = Some(rid);
        }
        self.requests
            .get_mut(rid)
            .expect("hedged request exists")
            .hedge_twin = Some(twin);
        self.generated += 1;
        if let Some(f) = self.fault.as_deref_mut() {
            f.summary.hedged += 1;
        }
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestEmitted {
                request: twin,
                request_type: ty,
                client,
                t: self.now,
            });
        }
        if let Some(timeout_s) = self.clients[c].spec.timeout_s {
            self.events.schedule(
                self.now + SimDuration::from_secs_f64(timeout_s),
                EventKind::RequestTimeout { request: twin },
            );
        }
        let n_conns = self.clients[c].conns.len();
        let ci = self.clients[c].next_conn;
        // Wrap without the integer divide; `next_conn` stays in range.
        self.clients[c].next_conn = if ci + 1 == n_conns { 0 } else { ci + 1 };
        let conn_id = self.clients[c].conns[ci];
        self.requests
            .get_mut(twin)
            .expect("fresh request")
            .client_conn = Some(conn_id);
        if self.conns[conn_id.index()].busy {
            self.conns[conn_id.index()].pending.push_back(twin);
        } else {
            self.launch_request(twin, conn_id);
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
