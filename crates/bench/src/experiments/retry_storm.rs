//! Retry-storm failure-mode experiment: the metastable cliff.
//!
//! One service near saturation takes a transient 4× machine slowdown.
//! Three client policies face the same fault on the same seed:
//!
//! * **no-retry** — timeouts are final. The backlog drains after the
//!   window and goodput recovers on its own.
//! * **naive** — unbounded-budget retries (8 attempts, short backoff).
//!   During the window every attempt times out, each timeout spawns
//!   another attempt, and the amplified load outruns the *healthy*
//!   capacity — so the collapse persists after the fault clears. This is
//!   the classic metastable failure: the trigger is gone, the storm
//!   remains.
//! * **guarded** — the same retries behind a token-bucket retry budget
//!   and a circuit breaker. The budget empties, the breaker sheds load
//!   while the service is sick, and goodput recovers like no-retry.
//!
//! The experiment reports per-phase goodput (within-deadline completions
//! per second): before the fault, during the fault + its aftermath, and
//! in the late recovery window. The outcomes at the scenario's seed are
//! tabulated in EXPERIMENTS.md and pinned, count for count, by
//! `crates/bench/tests/retry_storm.rs` (print them with
//! `cargo run --release -p uqsim-bench --bin retry_storm`).

use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, PathNodeConfig,
    RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::fault::{BreakerSpec, ClientPolicySpec, PolicySpec, RetryBudgetSpec};
use uqsim_core::ids::StageId;
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::SimTime;
use uqsim_core::{FaultPlan, FaultSpec, SimResult};

/// Offered load, requests/second (80% of the healthy 20k capacity).
pub const OFFERED_QPS: f64 = 16_000.0;
/// Client-side deadline, seconds.
pub const TIMEOUT_S: f64 = 20e-3;
/// Phase boundaries: warmup end, fault start, storm-phase end, run end.
pub const PHASES_S: [f64; 4] = [0.5, 1.0, 3.0, 5.0];

/// One policy's measured outcome.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Policy label.
    pub name: &'static str,
    /// Goodput in the pre-fault window, requests/second.
    pub pre_goodput: f64,
    /// Goodput across the fault window and its immediate aftermath.
    pub storm_goodput: f64,
    /// Goodput in the late recovery window.
    pub recovery_goodput: f64,
    /// Total requests generated (retries included).
    pub generated: u64,
    /// Client-observed timeouts.
    pub timeouts: u64,
    /// Retry emissions.
    pub retried: u64,
    /// Breaker-shed requests.
    pub shed: u64,
    /// Breaker trips.
    pub breaker_trips: u64,
}

/// All three policies' outcomes, as the test asserts them.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Timeouts are final; no retry amplification.
    pub no_retry: PolicyOutcome,
    /// Unbudgeted retries: the metastable collapse.
    pub naive: PolicyOutcome,
    /// Budget + breaker: graceful degradation and recovery.
    pub guarded: PolicyOutcome,
}

fn retrying_policy() -> ClientPolicySpec {
    ClientPolicySpec {
        client: "storm".into(),
        max_retries: 8,
        backoff_base_s: 5e-3,
        backoff_cap_s: 20e-3,
        jitter: 0.5,
        hedge_after_s: None,
        retry_budget: None,
        breaker: None,
    }
}

fn guarded_policy() -> ClientPolicySpec {
    ClientPolicySpec {
        retry_budget: Some(RetryBudgetSpec {
            capacity: 100.0,
            fill_per_s: 50.0,
        }),
        breaker: Some(BreakerSpec {
            failure_threshold: 50,
            cooldown_s: 0.2,
        }),
        ..retrying_policy()
    }
}

/// One 2-core service (20k qps healthy capacity) behind a client with a
/// deadline.
fn scenario() -> ScenarioConfig {
    let fixed = InstanceSelectConfig::Fixed {
        name: "svc0".into(),
    };
    let mut visit = PathNodeConfig::service("svc", "svc", fixed, "p");
    visit.children = vec!["client_sink".into()];
    ScenarioConfig {
        seed: 1913,
        warmup_s: PHASES_S[0],
        machines: vec![MachineSpec {
            name: "m".into(),
            cores: 2,
            dvfs: DvfsSpec::fixed(2.6),
            network: NetworkSpec::passthrough(5e-6),
            power: Default::default(),
        }],
        services: vec![ServiceModel::new(
            "svc",
            vec![StageSpec::new(
                "proc",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::exponential(100e-6), 2.6),
            )],
            vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
        )],
        instances: vec![InstanceConfig {
            name: "svc0".into(),
            service: "svc".into(),
            machine: "m".into(),
            cores: 2,
            exec: ExecConfig::Simple,
        }],
        pools: Vec::new(),
        request_types: vec![RequestTypeConfig {
            name: "get".into(),
            nodes: vec![visit, PathNodeConfig::client_sink("svc")],
        }],
        clients: vec![ClientConfig {
            timeout_s: Some(TIMEOUT_S),
            ..ClientConfig::open_loop("storm", OFFERED_QPS, 256, "get", "svc0")
        }],
    }
}

/// Runs one policy through the slowdown and measures per-phase goodput.
fn run_policy(name: &'static str, policy: Option<ClientPolicySpec>) -> SimResult<PolicyOutcome> {
    let mut sim = scenario().build()?;

    let plan = FaultPlan {
        faults: vec![FaultSpec::MachineSlowdown {
            machine: "m".into(),
            at_s: PHASES_S[1],
            duration_s: 0.5,
            factor: 4.0,
        }],
        policy: PolicySpec {
            clients: policy.into_iter().collect(),
            network: None,
        },
    };
    sim.install_faults(&plan)?;

    // Phase goodput: within-deadline completions per second of each window
    // (quorum early-fires cannot occur here — the path has no fan-in).
    let mut prev = 0usize;
    let mut goodput = |sim: &uqsim_core::Simulator, span: f64| {
        let count = sim.latency_summary().count;
        let g = (count - prev) as f64 / span;
        prev = count;
        g
    };
    sim.run_until(SimTime::from_secs_f64(PHASES_S[1]));
    let pre = goodput(&sim, PHASES_S[1] - PHASES_S[0]);
    sim.run_until(SimTime::from_secs_f64(PHASES_S[2]));
    let storm = goodput(&sim, PHASES_S[2] - PHASES_S[1]);
    sim.run_until(SimTime::from_secs_f64(PHASES_S[3]));
    let recovery = goodput(&sim, PHASES_S[3] - PHASES_S[2]);

    let f = sim.fault_summary().expect("fault plan installed");
    Ok(PolicyOutcome {
        name,
        pre_goodput: pre,
        storm_goodput: storm,
        recovery_goodput: recovery,
        generated: sim.generated(),
        timeouts: f.timed_out,
        retried: f.retried,
        shed: f.shed,
        breaker_trips: f.breaker_trips,
    })
}

fn print_row(o: &PolicyOutcome) {
    println!(
        "{:<10} {:>12.0} {:>12.0} {:>12.0} {:>10} {:>9} {:>9} {:>8} {:>6}",
        o.name,
        o.pre_goodput,
        o.storm_goodput,
        o.recovery_goodput,
        o.generated,
        o.timeouts,
        o.retried,
        o.shed,
        o.breaker_trips
    );
}

/// Runs the experiment and prints the table.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run() -> SimResult<Summary> {
    println!("# Retry storm — metastable collapse vs retry budget + breaker");
    println!(
        "# {OFFERED_QPS:.0} qps offered, {:.0} ms deadline, 4x slowdown t={}s..{}s",
        TIMEOUT_S * 1e3,
        PHASES_S[1],
        PHASES_S[1] + 0.5,
    );
    let no_retry = run_policy("no-retry", None)?;
    let naive = run_policy("naive", Some(retrying_policy()))?;
    let guarded = run_policy("guarded", Some(guarded_policy()))?;
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10} {:>9} {:>9} {:>8} {:>6}",
        "policy",
        "pre_qps",
        "storm_qps",
        "recovery_qps",
        "generated",
        "timeouts",
        "retries",
        "shed",
        "trips"
    );
    print_row(&no_retry);
    print_row(&naive);
    print_row(&guarded);
    Ok(Summary {
        no_retry,
        naive,
        guarded,
    })
}
