//! Fault injection and resilience policies.
//!
//! This module is the chaos-engineering layer of the simulator: a
//! deterministic, seed-derived fault-injection engine plus per-client
//! resilience policies, threaded through the event loop. It lets a single
//! scenario answer questions the happy path cannot: what does tail latency
//! look like while an instance is down, do retries amplify overload into a
//! metastable collapse, and does a retry budget or circuit breaker restore
//! graceful degradation?
//!
//! # Fault plan
//!
//! A [`FaultPlan`] (conventionally `faults.json`) declares a *schedule* of
//! fault windows plus optional resilience policies:
//!
//! ```json
//! {
//!   "faults": [
//!     { "kind": "instance_crash", "instance": "api0", "at_s": 2.0,
//!       "restart_after_s": 1.0 },
//!     { "kind": "machine_slowdown", "machine": "server", "at_s": 4.0,
//!       "duration_s": 1.0, "factor": 3.0 },
//!     { "kind": "network_degrade", "machine": "server", "at_s": 6.0,
//!       "duration_s": 1.0, "added_latency_s": 0.002, "drop_prob": 0.05 },
//!     { "kind": "pool_leak", "up": "front0", "down": "api0", "at_s": 8.0,
//!       "leak": 4, "restore_after_s": 2.0 }
//!   ],
//!   "policy": {
//!     "clients": [
//!       { "client": "wrk", "max_retries": 3, "backoff_base_s": 0.01,
//!         "retry_budget": { "capacity": 20.0, "fill_per_s": 10.0 },
//!         "breaker": { "failure_threshold": 32, "cooldown_s": 0.5 } }
//!     ],
//!     "network": { "retransmit_limit": 2, "retransmit_backoff_s": 0.001 }
//!   }
//! }
//! ```
//!
//! This module is the one that knows what a fault is made of: one reading
//! of each variant says which entity owns the fault and what its window
//! is, and the check of the plan against a whole scenario before any cell
//! runs, the routing of each fault to the cell that owns it, and the
//! lowering all go through it (DESIGN.md §10).
//! [`Simulator::install_faults`](crate::sim::Simulator::install_faults)
//! lowers the plan (names looked up as the scenario's own references are,
//! every time a checked duration and every window end a checked instant,
//! each error naming `faults.json` and the key) and schedules
//! [`EventKind::FaultStart`](crate::event::EventKind::FaultStart) /
//! [`EventKind::FaultEnd`](crate::event::EventKind::FaultEnd) transitions.
//!
//! # Determinism
//!
//! All fault randomness (packet-drop coin flips, retry jitter) comes from a
//! dedicated RNG stream — `RngFactory::new(seed).stream("fault", 0)` —
//! independent of the service/arrival/path/network streams, so:
//!
//! * a run **without** a fault plan consumes exactly the same random draws
//!   as before this module existed (goldens stay byte-identical), and
//! * a run **with** a fault plan is byte-reproducible for a given
//!   `(seed, plan)` at any sweep parallelism.
//!
//! # Request outcomes
//!
//! Faults widen the terminal-outcome set. Every emitted request now ends in
//! exactly one of **completed**, **dropped** (a fault killed its last
//! in-flight branch), or **shed** (an open circuit breaker refused it at
//! emission; it completes instantly with a degraded marker and touches no
//! simulated resource). Timeouts remain an orthogonal flag: a timed-out
//! request releases its client-connection slot at the deadline but its
//! in-flight work still drains and is accounted as a late completion. The
//! trace auditor checks this conservation law event-by-event
//! (see [`crate::trace::TraceAuditor`]).

use crate::config::{seconds, Name, Names, ScenarioConfig};
use crate::error::{SimError, SimResult};
use crate::fasthash::FastMap;
use crate::ids::{InstanceId, MachineId, PoolId};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Plan configuration (what faults.json deserializes into)
// ---------------------------------------------------------------------

/// One scheduled fault window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultSpec {
    /// An instance crashes: its stage queues drain (killing the queued
    /// jobs), in-flight batches are discarded on completion, and arrivals
    /// die at the door until it restarts.
    InstanceCrash {
        /// Instance name (from `graph.json`).
        instance: Name,
        /// Crash time, seconds.
        at_s: f64,
        /// Restart delay; `None` means the instance stays down forever.
        #[serde(default)]
        restart_after_s: Option<f64>,
    },
    /// Every stage on a machine runs slower by a multiplicative factor
    /// (thermal throttling, a noisy neighbor, a failing disk).
    MachineSlowdown {
        /// Machine name (from `machines.json`).
        machine: Name,
        /// Window start, seconds.
        at_s: f64,
        /// Window length, seconds.
        duration_s: f64,
        /// Service-time multiplier (> 1 slows the machine down).
        factor: f64,
    },
    /// Packets destined for a machine gain latency and may be dropped.
    NetworkDegrade {
        /// Destination machine name.
        machine: Name,
        /// Window start, seconds.
        at_s: f64,
        /// Window length, seconds.
        duration_s: f64,
        /// Extra one-way latency per delivery, seconds.
        #[serde(default)]
        added_latency_s: f64,
        /// Probability each delivery is dropped, in `[0, 1]`.
        #[serde(default)]
        drop_prob: f64,
    },
    /// Free connections leak out of a pool (shrinking its effective size)
    /// and optionally return later.
    PoolLeak {
        /// Upstream instance name of the pool.
        up: Name,
        /// Downstream instance name of the pool.
        down: Name,
        /// Leak time, seconds.
        at_s: f64,
        /// How many free connections to remove.
        leak: usize,
        /// When to return them; `None` means they never come back.
        #[serde(default)]
        restore_after_s: Option<f64>,
    },
}

/// Token-bucket retry budget: retries spend a token; tokens refill at a
/// fixed rate. An empty bucket suppresses the retry (the failure stands),
/// which is what prevents retry storms from amplifying overload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryBudgetSpec {
    /// Maximum (and initial) tokens.
    pub capacity: f64,
    /// Tokens regained per simulated second.
    pub fill_per_s: f64,
}

/// Circuit breaker: after `failure_threshold` consecutive failures the
/// breaker opens for `cooldown_s`; while open, new emissions are shed
/// immediately (completing as degraded, touching no simulated resource).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerSpec {
    /// Consecutive client-observed failures (timeouts or drops) that trip
    /// the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open, seconds.
    pub cooldown_s: f64,
}

fn default_backoff_base() -> f64 {
    0.01
}
fn default_backoff_cap() -> f64 {
    1.0
}
fn default_jitter() -> f64 {
    0.5
}

/// Per-client resilience policy: bounded retries with exponential backoff
/// and jitter, an optional hedged second attempt, an optional retry
/// budget, and an optional circuit breaker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientPolicySpec {
    /// Client name (from `client.json`).
    pub client: Name,
    /// Retries after the initial attempt (0 disables retries).
    #[serde(default)]
    pub max_retries: u32,
    /// First-retry backoff, seconds; attempt `n` waits `base * 2^n`.
    #[serde(default = "default_backoff_base")]
    pub backoff_base_s: f64,
    /// Upper bound on the backoff delay, seconds.
    #[serde(default = "default_backoff_cap")]
    pub backoff_cap_s: f64,
    /// Uniform jitter fraction: the delay is scaled by `1 + jitter * u`
    /// with `u ~ U[0,1)` from the fault RNG stream.
    #[serde(default = "default_jitter")]
    pub jitter: f64,
    /// Emit a duplicate (hedged) attempt if the original is still
    /// unresolved after this many seconds; first completion wins.
    #[serde(default)]
    pub hedge_after_s: Option<f64>,
    /// Token-bucket retry budget; `None` means unbounded retries.
    #[serde(default)]
    pub retry_budget: Option<RetryBudgetSpec>,
    /// Circuit breaker; `None` means never shed.
    #[serde(default)]
    pub breaker: Option<BreakerSpec>,
}

/// Network retransmission policy for dropped packets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetPolicySpec {
    /// Retransmissions allowed per hop before the job is killed.
    pub retransmit_limit: u8,
    /// Base retransmission backoff, seconds (doubles per attempt).
    pub retransmit_backoff_s: f64,
}

/// The resilience-policy section of a fault plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// Per-client policies; clients not listed get no policy.
    #[serde(default)]
    pub clients: Vec<ClientPolicySpec>,
    /// Packet-retransmission policy; `None` kills dropped packets outright.
    #[serde(default)]
    pub network: Option<NetPolicySpec>,
}

/// A complete fault plan: scheduled faults plus resilience policies.
/// Deserialized from `faults.json`; installed with
/// [`Simulator::install_faults`](crate::sim::Simulator::install_faults).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scheduled fault windows.
    #[serde(default)]
    pub faults: Vec<FaultSpec>,
    /// Resilience policies.
    #[serde(default)]
    pub policy: PolicySpec,
}

/// The file a fault plan's keys sit in, as [`SimError::Config`] names it.
const FAULTS: &str = "faults.json";

/// The error for the key `key` of the fault plan.
fn invalid(key: String, detail: impl std::fmt::Display) -> SimError {
    SimError::Config {
        source_name: FAULTS.to_string(),
        detail: format!("{key}: {detail}"),
    }
}

/// Checks that `secs` at `key` is a duration longer than zero.
fn positive(key: impl Fn() -> String, secs: f64) -> SimResult<()> {
    seconds(FAULTS, &key, secs)?;
    if secs > 0.0 {
        Ok(())
    } else {
        Err(invalid(key(), "must be positive"))
    }
}

/// The list of a scenario a fault's owner is named in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `graph.json`'s instances.
    Instance,
    /// `machines.json`'s machines.
    Machine,
}

/// What a fault acts on and when, read off its variant.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Owner<'a> {
    /// The list the owner is named in.
    kind: Kind,
    /// The owner's name.
    name: &'a str,
    /// The key naming the owner, under `faults[i]`.
    field: &'static str,
    /// Window start, seconds.
    at_s: f64,
    /// Window length, seconds, and its key; `None` if the fault never ends.
    length: Option<(&'static str, f64)>,
}

impl FaultSpec {
    /// The entity that owns the fault — the one a cell must hold to
    /// install it — and the fault's window. This is the one reading of a
    /// variant's owner and times: the whole-scenario check, the routing to
    /// cells and the lowering all go through it.
    fn owner(&self) -> Owner<'_> {
        let (kind, name, field, at_s, length) = match self {
            FaultSpec::InstanceCrash {
                instance,
                at_s,
                restart_after_s,
            } => (
                Kind::Instance,
                instance,
                "instance",
                at_s,
                restart_after_s.map(|s| ("restart_after_s", s)),
            ),
            FaultSpec::MachineSlowdown {
                machine,
                at_s,
                duration_s,
                ..
            }
            | FaultSpec::NetworkDegrade {
                machine,
                at_s,
                duration_s,
                ..
            } => (
                Kind::Machine,
                machine,
                "machine",
                at_s,
                Some(("duration_s", *duration_s)),
            ),
            FaultSpec::PoolLeak {
                up,
                at_s,
                restore_after_s,
                ..
            } => (
                Kind::Instance,
                up,
                "up",
                at_s,
                restore_after_s.map(|s| ("restore_after_s", s)),
            ),
        };
        Owner {
            kind,
            name,
            field,
            at_s: *at_s,
            length,
        }
    }
}

impl Owner<'_> {
    /// The window of fault `i` on the clock: its start and, unless it never
    /// ends, its end — each a checked conversion, its error naming the key.
    fn window(&self, i: usize) -> SimResult<(SimTime, Option<SimTime>)> {
        let key = |field: &str| format!("faults[{i}].{field}");
        let at = SimTime::ZERO + seconds(FAULTS, || key("at_s"), self.at_s)?;
        let until = match self.length {
            None => None,
            Some((field, secs)) => {
                let length = seconds(FAULTS, || key(field), secs)?;
                let end = at.checked_add(length).ok_or_else(|| {
                    let (at_s, last) = (self.at_s, u64::MAX / 1_000_000_000);
                    let detail = format!(
                        "{secs:?} s after at_s {at_s:?} s ends past {last} s, \
                         the last instant the clock holds"
                    );
                    invalid(key(field), detail)
                })?;
                Some(end)
            }
        };
        Ok((at, until))
    }
}

/// The instances, machines and clients a fault plan is resolved against,
/// each looked up as the scenario's own references are
/// ([`ScenarioConfig::resolve`](crate::config::ScenarioConfig)).
pub(crate) struct Entities<'a> {
    instances: Names<'a>,
    machines: Names<'a>,
    clients: Names<'a>,
}

impl<'a> Entities<'a> {
    /// The names of a scenario's instances, machines and clients, in order.
    pub(crate) fn new(
        instances: impl Iterator<Item = &'a str>,
        machines: impl Iterator<Item = &'a str>,
        clients: impl Iterator<Item = &'a str>,
    ) -> Self {
        Entities {
            instances: Names::new("instance", instances),
            machines: Names::new("machine", machines),
            clients: Names::new("client", clients),
        }
    }
}

/// A plan lowered against a scenario: its fault windows in plan order, and
/// each client policy with the client it belongs to.
pub(crate) type Lowered = (Vec<ScheduledFault>, Vec<(usize, ClientPolicyRt)>);

impl FaultPlan {
    /// Parses a plan from JSON text, with errors naming `faults.json`.
    pub fn from_json(text: &str) -> SimResult<FaultPlan> {
        let plan: FaultPlan = serde_json::from_str(text).map_err(|e| SimError::Config {
            source_name: FAULTS.to_string(),
            detail: e.to_string(),
        })?;
        plan.validate()?;
        Ok(plan)
    }

    /// Reads and parses a plan from a file.
    pub fn from_file(path: &std::path::Path) -> SimResult<FaultPlan> {
        let text = std::fs::read_to_string(path).map_err(|e| SimError::io_at(path, e))?;
        Self::from_json(&text)
    }

    /// Validation that needs no scenario: every window fits the clock and
    /// every value its range, each error naming its key. Names are
    /// resolved when the plan is lowered against a scenario.
    pub fn validate(&self) -> SimResult<()> {
        for (i, f) in self.faults.iter().enumerate() {
            f.owner().window(i)?;
            let key = |field: &str| format!("faults[{i}].{field}");
            match *f {
                FaultSpec::InstanceCrash { .. } => {}
                FaultSpec::MachineSlowdown {
                    duration_s, factor, ..
                } => {
                    positive(|| key("duration_s"), duration_s)?;
                    if factor < 1.0 {
                        let detail = format!("slowdown factor must be >= 1, got {factor}");
                        return Err(invalid(key("factor"), detail));
                    }
                }
                FaultSpec::NetworkDegrade {
                    duration_s,
                    added_latency_s,
                    drop_prob,
                    ..
                } => {
                    positive(|| key("duration_s"), duration_s)?;
                    seconds(FAULTS, || key("added_latency_s"), added_latency_s)?;
                    if !(0.0..=1.0).contains(&drop_prob) {
                        let detail = format!("must be in [0, 1], got {drop_prob}");
                        return Err(invalid(key("drop_prob"), detail));
                    }
                }
                FaultSpec::PoolLeak { leak, .. } => {
                    if leak == 0 {
                        let detail = "must leak at least one connection";
                        return Err(invalid(key("leak"), detail));
                    }
                }
            }
        }
        for (i, p) in self.policy.clients.iter().enumerate() {
            let key = |field: &str| format!("policy.clients[{i}].{field}");
            seconds(FAULTS, || key("backoff_base_s"), p.backoff_base_s)?;
            seconds(FAULTS, || key("backoff_cap_s"), p.backoff_cap_s)?;
            if p.jitter < 0.0 {
                return Err(invalid(key("jitter"), "must be non-negative"));
            }
            if let Some(h) = p.hedge_after_s {
                positive(|| key("hedge_after_s"), h)?;
            }
            if let Some(b) = &p.retry_budget {
                if b.capacity <= 0.0 || b.fill_per_s < 0.0 {
                    return Err(invalid(
                        key("retry_budget.capacity"),
                        "capacity must be positive and fill_per_s non-negative",
                    ));
                }
            }
            if let Some(b) = &p.breaker {
                if b.failure_threshold == 0 {
                    return Err(invalid(key("breaker.failure_threshold"), "must be >= 1"));
                }
                positive(|| key("breaker.cooldown_s"), b.cooldown_s)?;
            }
        }
        if let Some(n) = &self.policy.network {
            let key = || "policy.network.retransmit_backoff_s".to_string();
            seconds(FAULTS, key, n.retransmit_backoff_s)?;
        }
        Ok(())
    }

    /// Lowers the plan against a scenario's names: each fault's owner and
    /// each policy's client to an id, `(up, down)` pairs to their pool
    /// with `pool_of`, windows to the clock. Errors name `faults.json` and
    /// the key. With `only_owned`, a fault or policy whose owner `names`
    /// does not hold is left out instead — another cell of the scenario
    /// owns it.
    pub(crate) fn lower(
        &self,
        names: &Entities<'_>,
        mut pool_of: impl FnMut(InstanceId, InstanceId) -> Option<PoolId>,
        only_owned: bool,
    ) -> SimResult<Lowered> {
        self.validate()?;
        let mut schedule = Vec::with_capacity(self.faults.len());
        for (i, f) in self.faults.iter().enumerate() {
            let owner = f.owner();
            let list = match owner.kind {
                Kind::Instance => &names.instances,
                Kind::Machine => &names.machines,
            };
            if only_owned && list.get(owner.name).is_none() {
                continue;
            }
            let key = |field: &str| format!("faults[{i}].{field}");
            let id = list.find(owner.name, FAULTS, || key(owner.field))?;
            let (at, until) = owner.window(i)?;
            let fault = match *f {
                FaultSpec::InstanceCrash { .. } => LoweredFault::Crash {
                    instance: InstanceId::from_raw(id),
                },
                FaultSpec::MachineSlowdown { factor, .. } => LoweredFault::Slowdown {
                    machine: MachineId::from_raw(id),
                    factor,
                },
                FaultSpec::NetworkDegrade {
                    added_latency_s,
                    drop_prob,
                    ..
                } => LoweredFault::NetDegrade {
                    machine: MachineId::from_raw(id),
                    added_s: added_latency_s,
                    drop_prob,
                },
                FaultSpec::PoolLeak {
                    ref up,
                    ref down,
                    leak,
                    ..
                } => {
                    let down_id = names.instances.find(down, FAULTS, || key("down"))?;
                    let pool = pool_of(InstanceId::from_raw(id), InstanceId::from_raw(down_id))
                        .ok_or_else(|| {
                            let detail = format!("no connection pool from {up:?} to {down:?}");
                            invalid(key("up"), detail)
                        })?;
                    LoweredFault::PoolLeak { pool, leak }
                }
            };
            schedule.push(ScheduledFault { fault, at, until });
        }
        let mut policies = Vec::with_capacity(self.policy.clients.len());
        for (i, p) in self.policy.clients.iter().enumerate() {
            if only_owned && names.clients.get(&p.client).is_none() {
                continue;
            }
            let key = || format!("policy.clients[{i}].client");
            let client = names.clients.find(&p.client, FAULTS, key)?;
            policies.push((client as usize, ClientPolicyRt::new(p)));
        }
        Ok((schedule, policies))
    }

    /// Lowers the plan against a whole scenario — `groups` together — and
    /// keeps nothing: the cells of a partitioned run each install only
    /// what they own, so this is where a name no cell holds, a pool no
    /// cell has or a window the clock cannot hold is an error, before any
    /// cell runs.
    pub(crate) fn check_against(&self, groups: &[ScenarioConfig]) -> SimResult<()> {
        let names = Entities::new(
            groups.iter().flat_map(|g| &g.instances).map(|i| &*i.name),
            groups.iter().flat_map(|g| &g.machines).map(|m| &*m.name),
            groups.iter().flat_map(|g| &g.clients).map(|c| &*c.name),
        );
        // A pool naming an unknown instance is the scenario's error, which
        // the split reports.
        let pools: FastMap<(u32, u32), PoolId> = (groups.iter().flat_map(|g| &g.pools))
            .filter_map(|p| Some((names.instances.get(&p.up)?, names.instances.get(&p.down)?)))
            .zip(0..)
            .map(|(pair, k)| (pair, PoolId::from_raw(k)))
            .collect();
        let pool_of =
            |up: InstanceId, down: InstanceId| pools.get(&(up.raw(), down.raw())).copied();
        self.lower(&names, pool_of, false).map(drop)
    }
}

// ---------------------------------------------------------------------
// Lowered runtime state
// ---------------------------------------------------------------------

/// A lowered fault: entity names resolved to ids, times to [`SimTime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LoweredFault {
    /// Instance crash window.
    Crash {
        /// Crashed instance.
        instance: InstanceId,
    },
    /// Machine slowdown window.
    Slowdown {
        /// Affected machine.
        machine: MachineId,
        /// Service-time multiplier.
        factor: f64,
    },
    /// Network degradation window.
    NetDegrade {
        /// Affected (destination) machine.
        machine: MachineId,
        /// Extra per-delivery latency, seconds.
        added_s: f64,
        /// Per-delivery drop probability.
        drop_prob: f64,
    },
    /// Pool leak window.
    PoolLeak {
        /// Affected pool.
        pool: PoolId,
        /// Connections to remove.
        leak: usize,
    },
}

/// A lowered fault plus its schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScheduledFault {
    pub(crate) fault: LoweredFault,
    pub(crate) at: SimTime,
    /// End of the window; `None` for permanent faults.
    pub(crate) until: Option<SimTime>,
}

/// Runtime token bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BudgetRt {
    tokens: f64,
    capacity: f64,
    fill_per_s: f64,
    last_refill: SimTime,
}

impl BudgetRt {
    fn new(spec: RetryBudgetSpec) -> Self {
        BudgetRt {
            tokens: spec.capacity,
            capacity: spec.capacity,
            fill_per_s: spec.fill_per_s,
            last_refill: SimTime::ZERO,
        }
    }

    /// Refills to `now`, then takes one token if available.
    fn try_take(&mut self, now: SimTime) -> bool {
        let dt = (now - self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.fill_per_s).min(self.capacity);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Runtime circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BreakerRt {
    consecutive_failures: u32,
    threshold: u32,
    cooldown: SimDuration,
    open_until: Option<SimTime>,
    /// Times the breaker has tripped (for the chaos report).
    pub(crate) trips: u64,
}

impl BreakerRt {
    fn new(spec: BreakerSpec) -> Self {
        BreakerRt {
            consecutive_failures: 0,
            threshold: spec.failure_threshold,
            cooldown: SimDuration::from_secs_f64(spec.cooldown_s),
            open_until: None,
            trips: 0,
        }
    }

    fn is_open(&self, now: SimTime) -> bool {
        self.open_until.is_some_and(|t| now < t)
    }

    fn on_success(&mut self) {
        self.consecutive_failures = 0;
    }

    fn on_failure(&mut self, now: SimTime) {
        if self.is_open(now) {
            return;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.threshold {
            self.open_until = Some(now + self.cooldown);
            self.consecutive_failures = 0;
            self.trips += 1;
        }
    }
}

/// Lowered per-client policy state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClientPolicyRt {
    pub(crate) max_retries: u32,
    pub(crate) backoff_base: SimDuration,
    pub(crate) backoff_cap: SimDuration,
    pub(crate) jitter: f64,
    pub(crate) hedge_after: Option<SimDuration>,
    pub(crate) budget: Option<BudgetRt>,
    pub(crate) breaker: Option<BreakerRt>,
}

impl ClientPolicyRt {
    fn new(spec: &ClientPolicySpec) -> Self {
        ClientPolicyRt {
            max_retries: spec.max_retries,
            backoff_base: SimDuration::from_secs_f64(spec.backoff_base_s),
            backoff_cap: SimDuration::from_secs_f64(spec.backoff_cap_s),
            jitter: spec.jitter,
            hedge_after: spec.hedge_after_s.map(SimDuration::from_secs_f64),
            budget: spec.retry_budget.map(BudgetRt::new),
            breaker: spec.breaker.map(BreakerRt::new),
        }
    }

    /// True if the breaker is currently open (new emissions are shed).
    pub(crate) fn breaker_open(&self, now: SimTime) -> bool {
        self.breaker.as_ref().is_some_and(|b| b.is_open(now))
    }

    /// Records a client-observed success.
    pub(crate) fn on_success(&mut self) {
        if let Some(b) = &mut self.breaker {
            b.on_success();
        }
    }

    /// Records a client-observed failure (timeout or drop) and decides
    /// whether a retry may fire: the breaker must be closed, the attempt
    /// count under the cap, and the budget (if any) must yield a token.
    /// Returns the backoff delay for the retry when allowed.
    pub(crate) fn on_failure(
        &mut self,
        now: SimTime,
        attempt: u32,
        rng: &mut SmallRng,
    ) -> Option<SimDuration> {
        if let Some(b) = &mut self.breaker {
            b.on_failure(now);
        }
        if attempt >= self.max_retries || self.breaker_open(now) {
            return None;
        }
        if let Some(budget) = &mut self.budget {
            if !budget.try_take(now) {
                return None;
            }
        }
        let exp = (self.backoff_base.as_secs_f64() * f64::from(1u32 << attempt.min(20)))
            .min(self.backoff_cap.as_secs_f64());
        let jittered = exp * (1.0 + self.jitter * rng.gen::<f64>());
        Some(SimDuration::from_secs_f64(jittered))
    }
}

/// One line of the chaos report timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultTimelineEntry {
    /// Simulated time of the transition, seconds.
    pub t_s: f64,
    /// Human-readable description (deterministic wording).
    pub what: String,
}

/// Aggregate fault/resilience counters for one run, used by the chaos
/// report and threaded into sweep rows.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultSummary {
    /// Requests terminally dropped by a fault.
    pub dropped: u64,
    /// Requests shed by an open circuit breaker.
    pub shed: u64,
    /// Retry emissions.
    pub retried: u64,
    /// Hedged (duplicate) emissions.
    pub hedged: u64,
    /// Responses delivered in degraded mode: breaker sheds plus quorum /
    /// best-effort early-fire completions.
    pub degraded: u64,
    /// Client-side timeout deadlines that fired.
    pub timed_out: u64,
    /// Jobs killed by crashes, drains, and exhausted retransmissions.
    pub jobs_killed: u64,
    /// Packet-drop coin flips that came up dropped.
    pub packets_dropped: u64,
    /// Packet retransmissions fired.
    pub retransmits: u64,
    /// Circuit-breaker trips across all clients.
    pub breaker_trips: u64,
    /// Fault-window transitions, in firing order.
    pub timeline: Vec<FaultTimelineEntry>,
}

/// All fault-injection runtime state, boxed behind an `Option` on the
/// simulator so the disabled cost is one pointer and one branch per hook.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Dedicated RNG stream (`stream("fault", 0)`), independent of the
    /// simulation's other streams.
    pub(crate) rng: SmallRng,
    /// Lowered fault schedule, indexed by `EventKind::FaultStart/End`.
    pub(crate) schedule: Vec<ScheduledFault>,
    /// Per-instance down flag.
    pub(crate) instance_down: Vec<bool>,
    /// Per-machine service-time multiplier (1.0 = healthy).
    pub(crate) slow_factor: Vec<f64>,
    /// Per-machine added delivery latency, seconds.
    pub(crate) net_added_s: Vec<f64>,
    /// Per-machine packet-drop probability.
    pub(crate) net_drop_p: Vec<f64>,
    /// Per-client resilience policy (index = client id).
    pub(crate) client_policy: Vec<Option<ClientPolicyRt>>,
    /// Packet retransmission policy.
    pub(crate) net_policy: Option<NetPolicySpec>,
    /// Counters and timeline for the chaos report.
    pub(crate) summary: FaultSummary,
}

impl FaultState {
    /// Builds the runtime state for a validated, lowered plan.
    pub(crate) fn new(
        rng: SmallRng,
        schedule: Vec<ScheduledFault>,
        n_instances: usize,
        n_machines: usize,
        client_policy: Vec<Option<ClientPolicyRt>>,
        net_policy: Option<NetPolicySpec>,
    ) -> Self {
        FaultState {
            rng,
            schedule,
            instance_down: vec![false; n_instances],
            slow_factor: vec![1.0; n_machines],
            net_added_s: vec![0.0; n_machines],
            net_drop_p: vec![0.0; n_machines],
            client_policy,
            net_policy,
            summary: FaultSummary::default(),
        }
    }

    /// Appends a timeline entry.
    pub(crate) fn log(&mut self, t: SimTime, what: String) {
        self.summary.timeline.push(FaultTimelineEntry {
            t_s: t.as_secs_f64(),
            what,
        });
    }

    /// The summary with breaker trips folded in from the live policies.
    pub(crate) fn summary_snapshot(&self) -> FaultSummary {
        let mut s = self.summary.clone();
        s.breaker_trips = self
            .client_policy
            .iter()
            .flatten()
            .filter_map(|p| p.breaker.as_ref())
            .map(|b| b.trips)
            .sum();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn plan_parses_every_fault_kind() {
        let text = r#"{
            "faults": [
                {"kind": "instance_crash", "instance": "api0", "at_s": 2.0,
                 "restart_after_s": 1.0},
                {"kind": "machine_slowdown", "machine": "m0", "at_s": 1.0,
                 "duration_s": 0.5, "factor": 3.0},
                {"kind": "network_degrade", "machine": "m0", "at_s": 3.0,
                 "duration_s": 1.0, "added_latency_s": 0.002, "drop_prob": 0.1},
                {"kind": "pool_leak", "up": "front0", "down": "api0",
                 "at_s": 4.0, "leak": 2}
            ],
            "policy": {
                "clients": [
                    {"client": "wrk", "max_retries": 2,
                     "retry_budget": {"capacity": 5.0, "fill_per_s": 1.0},
                     "breaker": {"failure_threshold": 4, "cooldown_s": 0.5}}
                ],
                "network": {"retransmit_limit": 2, "retransmit_backoff_s": 0.001}
            }
        }"#;
        let plan = FaultPlan::from_json(text).expect("plan parses");
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(plan.policy.clients.len(), 1);
        let p = &plan.policy.clients[0];
        assert_eq!(p.max_retries, 2);
        assert_eq!(p.backoff_base_s, default_backoff_base(), "default applied");
        assert_eq!(plan.policy.network.unwrap().retransmit_limit, 2);
    }

    #[test]
    fn empty_plan_is_valid() {
        let plan = FaultPlan::from_json("{}").expect("empty plan");
        assert!(plan.faults.is_empty());
        assert!(plan.policy.clients.is_empty());
    }

    #[test]
    fn invalid_drop_prob_names_the_key() {
        let text = r#"{"faults": [{"kind": "network_degrade", "machine": "m0",
            "at_s": 0.0, "duration_s": 1.0, "drop_prob": 1.5}]}"#;
        let err = FaultPlan::from_json(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("faults.json"), "names the file: {msg}");
        assert!(msg.contains("faults[0].drop_prob"), "names the key: {msg}");
    }

    #[test]
    fn invalid_slowdown_factor_rejected() {
        let text = r#"{"faults": [{"kind": "machine_slowdown", "machine": "m0",
            "at_s": 0.0, "duration_s": 1.0, "factor": 0.5}]}"#;
        let msg = FaultPlan::from_json(text).unwrap_err().to_string();
        assert!(msg.contains("faults[0].factor"), "{msg}");
    }

    /// The names of a scenario with instances `front0`, `api0`, machine
    /// `m0` and client `wrk`.
    fn entities() -> Entities<'static> {
        let list = |names: &'static [&'static str]| names.iter().copied();
        Entities::new(list(&["front0", "api0"]), list(&["m0"]), list(&["wrk"]))
    }

    #[test]
    fn lowering_resolves_names_and_rejects_unknowns() {
        let plan = FaultPlan::from_json(
            r#"{"faults": [{"kind": "instance_crash", "instance": "api0", "at_s": 1.0}],
                "policy": {"clients": [{"client": "wrk"}]}}"#,
        )
        .unwrap();
        let (schedule, policies) = plan.lower(&entities(), |_, _| None, false).unwrap();
        assert_eq!(schedule.len(), 1);
        assert_eq!(
            schedule[0].fault,
            LoweredFault::Crash {
                instance: InstanceId::from_raw(1)
            }
        );
        assert_eq!(schedule[0].at, t(1.0));
        assert!(schedule[0].until.is_none(), "no restart scheduled");
        assert_eq!(policies.len(), 1);
        assert_eq!(policies[0].0, 0, "the policy is wrk's");

        let bad = FaultPlan::from_json(
            r#"{"faults": [{"kind": "instance_crash", "instance": "api0", "at_s": 1.0},
                           {"kind": "machine_slowdown", "machine": "nope", "at_s": 1.0,
                            "duration_s": 1.0, "factor": 2.0}]}"#,
        )
        .unwrap();
        let msg = (bad.lower(&entities(), |_, _| None, false))
            .unwrap_err()
            .to_string();
        assert_eq!(
            msg,
            "invalid configuration in faults.json: faults[1].machine: unknown machine `nope`"
        );
        // A cell leaves out what another cell owns, and keeps the rest in
        // plan order.
        let (schedule, _) = bad.lower(&entities(), |_, _| None, true).unwrap();
        assert_eq!(schedule.len(), 1);
    }

    #[test]
    fn unknown_pool_pair_is_contextual() {
        let plan = FaultPlan::from_json(
            r#"{"faults": [{"kind": "pool_leak", "up": "front0", "down": "api0",
                "at_s": 1.0, "leak": 1}]}"#,
        )
        .unwrap();
        let msg = (plan.lower(&entities(), |_, _| None, false))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("faults[0].up: no connection pool"), "{msg}");
    }

    /// Each window value is a duration the clock can hold, and the window
    /// ends on the clock: each error names the key that broke it.
    #[test]
    fn a_window_the_clock_cannot_hold_names_its_key() {
        let fault = |fields: &str| {
            let text = format!(r#"{{"faults": [{{{fields}}}]}}"#);
            FaultPlan::from_json(&text).unwrap_err().to_string()
        };
        let crash = r#""kind": "instance_crash", "instance": "api0""#;
        let slow = r#""kind": "machine_slowdown", "machine": "m0", "factor": 2.0"#;
        for (fields, key) in [
            (
                format!(r#"{crash}, "at_s": 1e300"#),
                "faults[0].at_s: 1e300 s",
            ),
            (
                format!(r#"{slow}, "at_s": -1.0, "duration_s": 1.0"#),
                "faults[0].at_s: -1.0 s",
            ),
            (
                format!(r#"{slow}, "at_s": 1.0, "duration_s": 1e300"#),
                "faults[0].duration_s: 1e300 s",
            ),
            (
                format!(r#"{slow}, "at_s": 1.0, "duration_s": 0.0"#),
                "faults[0].duration_s: must be positive",
            ),
            (
                format!(r#"{crash}, "at_s": 1.8e10, "restart_after_s": 1e9"#),
                "faults[0].restart_after_s: 1000000000.0 s after at_s 18000000000.0 s ends past",
            ),
        ] {
            let msg = fault(&fields);
            assert!(msg.contains(key), "{fields}: {msg}");
        }
        let policy = r#"{"policy": {"clients": [{"client": "wrk", "backoff_cap_s": -1}]}}"#;
        let msg = FaultPlan::from_json(policy).unwrap_err().to_string();
        assert!(
            msg.contains("policy.clients[0].backoff_cap_s: -1.0 s"),
            "{msg}"
        );
    }

    #[test]
    fn budget_refills_and_caps() {
        let mut b = BudgetRt::new(RetryBudgetSpec {
            capacity: 2.0,
            fill_per_s: 1.0,
        });
        assert!(b.try_take(t(0.0)));
        assert!(b.try_take(t(0.0)));
        assert!(!b.try_take(t(0.0)), "bucket empty");
        assert!(b.try_take(t(1.0)), "one token refilled after 1s");
        // Long idle refills to capacity, not beyond.
        assert!(b.try_take(t(100.0)));
        assert!(b.try_take(t(100.0)));
        assert!(!b.try_take(t(100.0)));
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_cools_down() {
        let mut b = BreakerRt::new(BreakerSpec {
            failure_threshold: 3,
            cooldown_s: 1.0,
        });
        b.on_failure(t(0.0));
        b.on_failure(t(0.0));
        assert!(!b.is_open(t(0.0)));
        b.on_success();
        b.on_failure(t(0.1));
        b.on_failure(t(0.1));
        assert!(!b.is_open(t(0.1)), "success reset the streak");
        b.on_failure(t(0.2));
        assert!(b.is_open(t(0.2)), "third consecutive failure trips");
        assert_eq!(b.trips, 1);
        assert!(b.is_open(t(1.1)), "still inside cooldown");
        assert!(!b.is_open(t(1.3)), "cooldown expired");
    }

    #[test]
    fn policy_backoff_is_capped_exponential_with_jitter() {
        let spec = ClientPolicySpec {
            client: "c".into(),
            max_retries: 10,
            backoff_base_s: 0.01,
            backoff_cap_s: 0.05,
            jitter: 0.0,
            hedge_after_s: None,
            retry_budget: None,
            breaker: None,
        };
        let mut p = ClientPolicyRt::new(&spec);
        let mut rng = RngFactory::new(1).stream("fault", 0);
        let d0 = p.on_failure(t(0.0), 0, &mut rng).unwrap();
        let d2 = p.on_failure(t(0.0), 2, &mut rng).unwrap();
        let d9 = p.on_failure(t(0.0), 9, &mut rng).unwrap();
        assert!((d0.as_secs_f64() - 0.01).abs() < 1e-12);
        assert!((d2.as_secs_f64() - 0.04).abs() < 1e-12);
        assert!((d9.as_secs_f64() - 0.05).abs() < 1e-12, "capped");
        assert!(p.on_failure(t(0.0), 10, &mut rng).is_none(), "cap reached");
    }

    #[test]
    fn policy_retry_denied_when_budget_empty_or_breaker_open() {
        let spec = ClientPolicySpec {
            client: "c".into(),
            max_retries: 10,
            backoff_base_s: 0.01,
            backoff_cap_s: 1.0,
            jitter: 0.0,
            hedge_after_s: None,
            retry_budget: Some(RetryBudgetSpec {
                capacity: 1.0,
                fill_per_s: 0.0,
            }),
            breaker: Some(BreakerSpec {
                failure_threshold: 3,
                cooldown_s: 10.0,
            }),
        };
        let mut p = ClientPolicyRt::new(&spec);
        let mut rng = RngFactory::new(1).stream("fault", 0);
        assert!(p.on_failure(t(0.0), 0, &mut rng).is_some(), "budget has 1");
        assert!(p.on_failure(t(0.0), 0, &mut rng).is_none(), "budget empty");
        // Third consecutive failure opens the breaker; retries denied even
        // if budget were available.
        assert!(p.on_failure(t(0.0), 0, &mut rng).is_none());
        assert!(p.breaker_open(t(0.0)));
    }

    #[test]
    fn summary_snapshot_sums_breaker_trips() {
        let mut st = FaultState::new(
            RngFactory::new(7).stream("fault", 0),
            Vec::new(),
            2,
            1,
            vec![
                Some(ClientPolicyRt::new(&ClientPolicySpec {
                    client: "a".into(),
                    max_retries: 0,
                    backoff_base_s: 0.0,
                    backoff_cap_s: 0.0,
                    jitter: 0.0,
                    hedge_after_s: None,
                    retry_budget: None,
                    breaker: Some(BreakerSpec {
                        failure_threshold: 1,
                        cooldown_s: 1.0,
                    }),
                })),
                None,
            ],
            None,
        );
        if let Some(p) = st.client_policy[0].as_mut() {
            let mut rng = RngFactory::new(7).stream("fault", 1);
            let _ = p.on_failure(t(0.0), 0, &mut rng);
        }
        st.summary.dropped = 3;
        let snap = st.summary_snapshot();
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.breaker_trips, 1);
        assert!(!st.instance_down[0] && !st.instance_down[1]);
        assert_eq!(st.slow_factor, vec![1.0]);
    }
}
