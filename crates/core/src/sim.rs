//! The simulator: a context, six components, the run loop and the event
//! dispatch.
//!
//! A [`Simulator`] is built from a scenario with
//! [`ScenarioConfig::build`](crate::config::ScenarioConfig::build), then
//! driven with [`Simulator::run_for`]. It is a context `Cx` — the clock,
//! the event queue, the warm-up instant, the request and job arenas and
//! the shared random streams — and six components, each owning its state
//! in private fields of one child module: `client` (arrivals, emission,
//! delivery, timeouts, outcome counters), `network` (machines: cores, DVFS,
//! energy, wire, packet loss, irq processing), `instance` (stage queues,
//! batch dispatch, node completion), `path` (request types, fan-out,
//! fan-in, connection pools), `fault` (fault windows, terminal outcomes,
//! resilience policy) and `observe` (span log, telemetry, controllers).
//! The behavior is described in DESIGN.md §4.
//!
//! Residence per node visit, latency per request type, and the size and
//! service time of each batch are not kept beside the run: they are views
//! of the span log ([`Simulator::enable_span_tracing`]; `NodeDone`,
//! `RequestCompleted` and `BatchStart` events).

use crate::client::{ArrivalRt, ClientSpec};
use crate::controller::ControlAction;
use crate::event::{EventKind, EventQueue};
use crate::ids::{ConnectionId, InstanceId};
use crate::job::{JobArena, RequestArena};
use crate::time::{SimDuration, SimTime};
use crate::trace::{PoolMeta, TraceMeta};
use rand::rngs::SmallRng;

mod client;
mod fault;
mod instance;
mod network;
mod observe;
mod path;

use client::Clients;
use fault::Faults;
pub(crate) use instance::Instances;
pub(crate) use network::Machines;
use observe::Observers;
pub(crate) use path::Paths;

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

/// What every component shares: the clock and the event queue through
/// which it schedules, the warm-up instant, the request and job arenas,
/// and the four random streams.
struct Cx {
    cfg: SimConfig,
    now: SimTime,
    /// `SimTime::ZERO + cfg.warmup`: what completes or is recorded from
    /// here on is measured.
    warmup_at: SimTime,
    events: EventQueue,
    events_processed: u64,
    stopped: bool,
    requests: RequestArena,
    jobs: JobArena,
    rng_service: SmallRng,
    rng_arrival: SmallRng,
    rng_path: SmallRng,
    rng_network: SmallRng,
}

impl Cx {
    /// A context at time zero, its streams drawn from `cfg.seed`.
    fn new(cfg: SimConfig) -> Cx {
        let factory = crate::rng::RngFactory::new(cfg.seed);
        Cx {
            now: SimTime::ZERO,
            warmup_at: SimTime::ZERO + cfg.warmup,
            cfg,
            events: EventQueue::new(),
            events_processed: 0,
            stopped: false,
            requests: RequestArena::new(),
            jobs: JobArena::new(),
            rng_service: factory.stream("service", 0),
            rng_arrival: factory.stream("arrival", 0),
            rng_path: factory.stream("path", 0),
            rng_network: factory.stream("network", 0),
        }
    }
}

/// The discrete-event simulator.
pub struct Simulator {
    cx: Cx,
    machines: Machines,
    instances: Instances,
    paths: Paths,
    clients: Clients,
    obs: Observers,
    faults: Faults,
}

impl Simulator {
    /// Assembles a simulator at time zero and schedules its first events:
    /// the warm-up baseline of the busy counters and each client's first
    /// arrivals.
    pub(crate) fn new(
        cfg: SimConfig,
        machines: Machines,
        instances: Instances,
        paths: Paths,
        clients: Vec<(ClientSpec, ArrivalRt, Vec<ConnectionId>)>,
    ) -> Simulator {
        let mut cx = Cx::new(cfg);
        let mut clients = Clients::new(cx.warmup_at, clients);
        // A one-shot busy-counter baseline at the warm-up instant, so the
        // since-warm-up `*_utilization` views work whether or not the
        // periodic sampler is enabled. Scheduled unconditionally to keep
        // event counts identical across telemetry on/off runs.
        let baseline = EventKind::TelemetrySample { recurring: false };
        cx.events.schedule(cx.warmup_at, baseline);
        clients.start(&mut cx);
        Simulator {
            obs: Observers::new(instances.len()),
            cx,
            clients,
            machines,
            instances,
            paths,
            faults: Faults::default(),
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.cx.now)
            .field("instances", &self.instances.len())
            .field("pending_events", &self.cx.events.len())
            .field("generated", &self.generated())
            .field("completed", &self.completed())
            .finish()
    }
}

impl Simulator {
    // ------------------------------------------------------------------
    // Public driving API
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.cx.now
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cx.cfg
    }

    /// Runs until `deadline` (simulated), then stops. In-flight requests at
    /// the deadline are abandoned (open-loop steady-state convention).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.cx.events.schedule(deadline, EventKind::Stop);
        self.cx.stopped = false;
        while !self.cx.stopped {
            let Some(ev) = self.cx.events.pop() else {
                break;
            };
            debug_assert!(ev.time >= self.cx.now, "time went backwards");
            self.cx.now = ev.time;
            self.cx.events_processed += 1;
            self.handle(ev.kind);
        }
    }

    /// Runs for `duration` of simulated time from now.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.cx.now + duration);
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
        while let Some(ev) = self.cx.events.pop_at_or_before(horizon) {
            debug_assert!(ev.time >= self.cx.now, "time went backwards");
            self.cx.now = ev.time;
            self.cx.events_processed += 1;
            self.handle(ev.kind);
        }
    }

    /// Sets every core of `instance` to `freq_ghz`, snapped to the owning
    /// machine's DVFS levels. Returns the snapped frequency.
    pub fn set_instance_freq(&mut self, instance: InstanceId, freq_ghz: f64) -> f64 {
        let i = instance.index();
        let m = self.instances.machine(i);
        self.machines.set_freq(m, self.instances.cores(i), freq_ghz)
    }

    /// Current frequency of `instance` (its first core), GHz.
    pub fn instance_freq(&self, instance: InstanceId) -> f64 {
        let i = instance.index();
        self.machines.cores(self.instances.machine(i))[self.instances.cores(i)[0]].freq_ghz
    }

    // ------------------------------------------------------------------
    // Public metrics API
    // ------------------------------------------------------------------

    /// Entity names for rendering traces: machines, instances (with their
    /// stage names), and request types (with their node names).
    pub fn trace_meta(&self) -> TraceMeta {
        TraceMeta {
            machines: self.machines.meta(),
            instances: self.instances.meta(),
            request_types: self.paths.request_type_meta(),
            pools: (self.paths.pools().iter())
                .map(|p| PoolMeta {
                    up: self.instances.name(p.up_instance.index()).clone(),
                    down: self.instances.name(p.down_instance.index()).clone(),
                })
                .collect(),
            clients: self.clients.meta(),
        }
    }

    /// Requests currently in flight.
    pub fn live_requests(&self) -> usize {
        self.cx.requests.live()
    }

    /// Jobs currently in flight.
    pub fn live_jobs(&self) -> usize {
        self.cx.jobs.live()
    }

    /// Events processed so far (simulator-speed statistic).
    pub fn events_processed(&self) -> u64 {
        self.cx.events_processed
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::ClientArrival { client } => {
                let (ty, size) = self.clients.on_arrival(&mut self.cx, client);
                self.emit_request(client, ty, size, 0, None);
            }
            EventKind::NetDeliver { job, instance } => self.deliver_to_instance(job, instance),
            EventKind::NetEnqueue { job, instance } => {
                let m = self.instances.machine(instance.index());
                (self.machines).on_net_enqueue(&mut self.cx, &mut self.obs, m, job, instance);
            }
            EventKind::NetDone { machine, slot } => self.on_net_done(machine, slot as usize),
            EventKind::StageDone { instance, thread } => self.on_stage_done(instance, thread),
            EventKind::DeliverToClient { request } => self.on_deliver_to_client(request),
            EventKind::RequestTimeout { request } => self.on_request_timeout(request),
            EventKind::ControllerTick { controller } => {
                for action in self.obs.on_controller_tick(&mut self.cx, controller) {
                    match action {
                        ControlAction::SetInstanceFreq { instance, freq_ghz } => {
                            self.set_instance_freq(instance, freq_ghz);
                        }
                    }
                }
            }
            EventKind::TelemetrySample { recurring } => self.on_telemetry_sample(recurring),
            EventKind::FaultStart { fault } => self.on_fault(fault as usize, true),
            EventKind::FaultEnd { fault } => self.on_fault(fault as usize, false),
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
            EventKind::Stop => self.cx.stopped = true,
        }
    }
}
