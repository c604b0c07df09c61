//! One-shot "build, run, summarize" entry point.
//!
//! [`run_one`] is the unit of work the parallel sweep engine
//! (`uqsim_runner`) fans across threads: it takes a *scenario description*
//! (plain data, cheap to clone and [`Send`]), overrides the seed, runs it
//! through the one run pipeline ([`crate::partition::run_partitioned`], on
//! the caller's thread) for a fixed simulated duration, and returns a
//! compact, `Send` summary. Because each call owns its simulators and the
//! scenario is immutable input, any number of `run_one` calls can execute
//! concurrently with byte-for-byte the results of running them serially.
//!
//! # Examples
//!
//! ```
//! use uqsim_core::run::run_one;
//! use uqsim_core::config::ScenarioConfig;
//! use uqsim_core::time::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
//! let result = run_one(&cfg, 7, SimDuration::from_millis(600))?;
//! assert_eq!(result.seed, 7);
//! assert!(result.completed > 0);
//! // Identical inputs replay identically — the invariant the parallel
//! // sweep runner's determinism guarantee is built on.
//! let again = run_one(&cfg, 7, SimDuration::from_millis(600))?;
//! assert_eq!(result.latency, again.latency);
//! # Ok(())
//! # }
//! ```

use crate::config::ScenarioConfig;
use crate::error::SimResult;
use crate::fault::{FaultPlan, FaultSummary};
use crate::metrics::LatencySummary;
use crate::partition::{run_partitioned, PartitionOptions};
use crate::telemetry::MetricsSnapshot;
use crate::time::SimDuration;

/// A tiny self-contained scenario (one machine, one two-stage service, one
/// open-loop client) used by doc examples and smoke tests.
pub const EXAMPLE_SCENARIO: &str = r#"{
  "seed": 42,
  "warmup_s": 0.1,
  "machines": [
    { "name": "server0", "cores": 2,
      "dvfs": { "levels_ghz": [2.6] },
      "network": { "irq_cores": 1,
        "rx_time": { "type": "exponential", "mean": 0.0000166 },
        "wire_latency": { "type": "constant", "value": 0.00002 } } }
  ],
  "services": [
    { "name": "api",
      "stages": [
        { "name": "handler", "queue": { "type": "single" },
          "service": { "base": { "type": "constant", "value": 0.0 },
            "per_job": { "type": "exponential", "mean": 0.00008 },
            "ref_freq_ghz": 2.6, "freq_alpha": 1.0 } }
      ],
      "paths": [{ "name": "default", "stages": [0] }] }
  ],
  "instances": [
    { "name": "api0", "service": "api", "machine": "server0",
      "cores": 1, "exec": { "type": "simple" } }
  ],
  "pools": [],
  "request_types": [
    { "name": "get",
      "nodes": [
        { "name": "front",
          "target": { "type": "service", "service": "api",
            "instance": { "type": "fixed", "name": "api0" },
            "exec_path": "default" },
          "children": ["sink"] },
        { "name": "sink", "target": { "type": "client_sink" },
          "link": { "reply": { "of": "front" } } }
      ] }
  ],
  "clients": [
    { "name": "wrk", "connections": 64,
      "arrivals": { "type": "poisson",
        "schedule": { "segments": [[0.0, 2000.0]] } },
      "mix": [["get", 1.0]], "roots": ["api0"] }
  ]
}"#;

/// A fault plan sized for [`EXAMPLE_SCENARIO`]: the lone service instance
/// crashes and restarts mid-run, then its machine throttles, while the
/// client retries with a budget and a circuit breaker. Used by doc
/// examples and smoke tests that need fault activity without a config
/// file on disk.
pub const EXAMPLE_FAULTS: &str = r#"{
  "faults": [
    { "kind": "instance_crash", "instance": "api0",
      "at_s": 0.2, "restart_after_s": 0.15 },
    { "kind": "machine_slowdown", "machine": "server0",
      "at_s": 0.45, "duration_s": 0.1, "factor": 4.0 }
  ],
  "policy": {
    "clients": [
      { "client": "wrk", "max_retries": 3,
        "backoff_base_s": 0.002, "backoff_cap_s": 0.05, "jitter": 0.5,
        "retry_budget": { "capacity": 50.0, "fill_per_s": 25.0 },
        "breaker": { "failure_threshold": 20, "cooldown_s": 0.05 } }
    ]
  }
}"#;

/// The summary one [`run_one`] call produces: everything the sweep
/// aggregator needs, and nothing tied to the (dropped) simulator state.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The master seed this replication ran under.
    pub seed: u64,
    /// Simulated duration (including warmup).
    pub duration: SimDuration,
    /// Warmup portion of `duration` excluded from the latency statistics.
    pub warmup: SimDuration,
    /// Requests generated (including warmup and in-flight).
    pub generated: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests that hit a client-side timeout.
    pub timeouts: u64,
    /// Post-warmup throughput, requests/second.
    pub achieved_qps: f64,
    /// Post-warmup goodput, requests/second: within-deadline completions
    /// delivered at full fidelity (degraded quorum early-fires excluded).
    /// Equals `achieved_qps` when no faults are installed.
    pub goodput_qps: f64,
    /// Requests terminally dropped by an injected fault.
    pub dropped: u64,
    /// Requests shed at emission by an open circuit breaker.
    pub shed: u64,
    /// Retry emissions fired by client resilience policies.
    pub retried: u64,
    /// Responses delivered in degraded mode (sheds + quorum early-fires).
    pub degraded: u64,
    /// End-to-end latency over post-warmup completions. With a fault plan
    /// installed these are the *goodput percentiles*: timed-out and shed
    /// requests never enter this summary.
    pub latency: LatencySummary,
    /// Latency of timed-out requests at their deadline — what the client
    /// observed for its failed calls. Empty when nothing timed out.
    pub timeout_latency: LatencySummary,
    /// Events the engine processed — the wall-clock cost proxy.
    pub events_processed: u64,
    /// Utilization and latency-decomposition summary (decomposition-only
    /// telemetry; see [`TelemetryConfig::default`](crate::telemetry::TelemetryConfig)).
    pub metrics: MetricsSnapshot,
    /// Fault-engine counters and fault-window timeline; `None` when the run
    /// had no fault plan.
    pub fault: Option<FaultSummary>,
    /// Critical-path contribution profile over the measured completions
    /// (see [`crate::critpath`]). Always `Some` for [`run_one`] /
    /// [`run_one_faulted`] runs (the streaming mode is on by default
    /// there); `None` when the simulator ran without it.
    pub critpath: Option<crate::critpath::CpcProfile>,
}

/// Runs `cfg` under `seed` for `duration` of simulated time and
/// summarizes.
///
/// This is the `Send`-safe unit of parallel execution: the input is plain
/// data, the simulators live and die inside the call, and the returned
/// [`RunResult`] is plain data again. Identical `(cfg, seed, duration)`
/// inputs produce identical results, on any thread, in any order.
///
/// # Errors
///
/// Propagates scenario-construction failures ([`ScenarioConfig::build`]).
pub fn run_one(cfg: &ScenarioConfig, seed: u64, duration: SimDuration) -> SimResult<RunResult> {
    run_one_faulted(cfg, None, seed, duration)
}

/// [`run_one`] with an optional fault plan installed before the clock
/// starts. `run_one(cfg, seed, d)` is exactly
/// `run_one_faulted(cfg, None, seed, d)`; passing `Some(plan)` schedules
/// the plan's fault windows and arms its per-client resilience policies.
///
/// Both are the summary of a one-shard [`run_partitioned`] with
/// [`PartitionOptions::default`] (decomposition telemetry plus the
/// streaming critical-path profile), so a scenario made of several
/// request-closed cells runs as those cells and a connected one as a
/// single simulator under `seed`.
///
/// Determinism extends to faulted runs: identical
/// `(cfg, plan, seed, duration)` inputs reproduce byte-identical results,
/// on any thread, in any order — the fault engine draws from its own
/// seed-derived RNG stream and never perturbs the simulation's other
/// streams.
///
/// # Errors
///
/// Propagates scenario-construction failures and fault-plan references to
/// unknown instances/machines/clients.
pub fn run_one_faulted(
    cfg: &ScenarioConfig,
    faults: Option<&FaultPlan>,
    seed: u64,
    duration: SimDuration,
) -> SimResult<RunResult> {
    run_partitioned(cfg, faults, seed, duration, &PartitionOptions::default()).map(|run| run.result)
}

/// Summarizes a finished simulator into a [`RunResult`] — one cell of
/// [`crate::partition::run_partitioned`]. The two latency summaries are
/// [`Simulator::latency_summary`](crate::sim::Simulator::latency_summary)
/// and its timeout twin bit for bit, but the recorders are
/// [finished](crate::metrics::LatencyRecorder::finish) first: the cell
/// records nothing more, so each open buffer is sorted where it lies,
/// sealed and freed instead of copied.
pub(crate) fn summarize(
    sim: &mut crate::sim::Simulator,
    seed: u64,
    duration: SimDuration,
    warmup_s: f64,
) -> RunResult {
    sim.finish_recorders();
    result_of(sim, seed, duration, warmup_s)
}

/// The [`RunResult`] of `sim` as it stands: what [`summarize`] returns,
/// without finishing the recorders first.
pub(crate) fn result_of(
    sim: &crate::sim::Simulator,
    seed: u64,
    duration: SimDuration,
    warmup_s: f64,
) -> RunResult {
    let latency = sim.latency_summary();
    let warmup = SimDuration::from_secs_f64(warmup_s);
    let measured = (duration.as_secs_f64() - warmup_s).max(f64::EPSILON);
    let good = (latency.count as u64).saturating_sub(sim.degraded_measured());
    RunResult {
        seed,
        duration,
        warmup,
        generated: sim.generated(),
        completed: sim.completed(),
        timeouts: sim.timeouts(),
        achieved_qps: latency.count as f64 / measured,
        goodput_qps: good as f64 / measured,
        dropped: sim.dropped(),
        shed: sim.shed(),
        retried: sim.retried(),
        degraded: sim.degraded(),
        latency,
        timeout_latency: sim.timeout_latency_summary(),
        events_processed: sim.events_processed(),
        metrics: sim.metrics_snapshot(),
        fault: sim.fault_summary(),
        critpath: sim.critpath_profile(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    /// The compile-time guarantee the parallel runner relies on: a built
    /// simulator (controllers included) can move across threads.
    #[test]
    fn simulator_and_run_result_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulator>();
        assert_send::<RunResult>();
        assert_send::<ScenarioConfig>();
    }

    #[test]
    fn run_one_is_deterministic_per_seed_and_divergent_across_seeds() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let d = SimDuration::from_millis(400);
        let a = run_one(&cfg, 1, d).unwrap();
        let b = run_one(&cfg, 1, d).unwrap();
        assert_eq!(a, b, "same seed must reproduce exactly");
        let c = run_one(&cfg, 2, d).unwrap();
        assert_ne!(a.latency, c.latency, "different seeds should diverge");
        assert!(a.completed > 0 && a.latency.count > 0);
    }

    #[test]
    fn unfaulted_runs_have_zero_fault_counters_and_goodput_equals_achieved() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let r = run_one(&cfg, 3, SimDuration::from_millis(400)).unwrap();
        assert_eq!(
            (r.dropped, r.shed, r.retried, r.degraded),
            (0, 0, 0, 0),
            "no fault plan, no fault activity"
        );
        assert!(r.fault.is_none());
        assert_eq!(r.timeout_latency.count, 0);
        assert_eq!(r.goodput_qps, r.achieved_qps);
    }

    #[test]
    fn faulted_run_is_deterministic_and_counts_fault_activity() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let plan = crate::fault::FaultPlan::from_json(EXAMPLE_FAULTS).unwrap();
        let d = SimDuration::from_millis(700);
        let a = run_one_faulted(&cfg, Some(&plan), 1, d).unwrap();
        let b = run_one_faulted(&cfg, Some(&plan), 1, d).unwrap();
        assert_eq!(a, b, "same (cfg, plan, seed) must reproduce exactly");
        let base = run_one(&cfg, 1, d).unwrap();
        assert!(
            a.dropped > 0,
            "the crash window should drop requests at the door"
        );
        assert!(
            a.retried > 0,
            "dropped requests should trigger the client retry policy"
        );
        assert!(a.fault.is_some());
        assert!(
            a.latency != base.latency,
            "a crash plus slowdown must perturb the latency distribution"
        );
    }

    #[test]
    fn run_one_runs_under_an_overridden_load() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let d = SimDuration::from_millis(400);
        let low = run_one(&cfg.with_offered_qps(500.0), 1, d).unwrap();
        let high = run_one(&cfg.with_offered_qps(4000.0), 1, d).unwrap();
        assert!(
            high.achieved_qps > 2.0 * low.achieved_qps,
            "offered-load override must change throughput: {} vs {}",
            low.achieved_qps,
            high.achieved_qps
        );
    }
}
