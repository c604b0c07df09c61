//! Property test: on an M/M/1 queue, the stage spans the correlator pairs
//! up from `Enqueue` and `BatchStart` events agree with the node residencies
//! the simulator logs directly (`NodeDone`: `t - entered`, per node visit;
//! counts and mean residency), and the span-derived mean queue wait tracks
//! the analytic M/M/1 value `Wq = rho / (mu - lambda)`.
//!
//! The scenario is a single-core instance with one exponential stage fed by
//! a Poisson open-loop client — exactly M/M/1 — so queue waits extracted
//! from `Enqueue -> BatchStart` correlation are checkable against queueing
//! theory, while residency (`Enqueue -> end of service`) is checkable
//! against the residency each `NodeDone` records.

use proptest::prelude::*;
use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, PathNodeConfig,
    RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::ids::StageId;
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::trace::TraceEvent;
use uqsim_core::Simulator;

const SERVICE_MEAN_S: f64 = 300e-6;
const WARMUP_S: f64 = 0.3;
const RUN_S: f64 = 1.3;

fn build_mm1(lambda_qps: f64, seed: u64) -> Simulator {
    let fixed = InstanceSelectConfig::Fixed {
        name: "svc0".into(),
    };
    let mut node = PathNodeConfig::service("svc", "svc", fixed, "p");
    node.children = vec!["client_sink".into()];
    ScenarioConfig {
        seed,
        warmup_s: WARMUP_S,
        machines: vec![MachineSpec {
            name: "m".into(),
            cores: 1,
            dvfs: DvfsSpec::fixed(2.6),
            network: NetworkSpec::passthrough(0.0),
            power: Default::default(),
        }],
        services: vec![ServiceModel::new(
            "svc",
            vec![StageSpec::new(
                "proc",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::exponential(SERVICE_MEAN_S), 2.6),
            )],
            vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
        )],
        instances: vec![InstanceConfig {
            name: "svc0".into(),
            service: "svc".into(),
            machine: "m".into(),
            cores: 1,
            exec: ExecConfig::Simple,
        }],
        pools: Vec::new(),
        request_types: vec![RequestTypeConfig {
            name: "get".into(),
            nodes: vec![node, PathNodeConfig::client_sink("svc")],
        }],
        // Plenty of client connections so HTTP/1.1 connection blocking
        // never distorts the Poisson arrivals.
        clients: vec![ClientConfig::open_loop("c", lambda_qps, 256, "get", "svc0")],
    }
    .build()
    .unwrap()
}

proptest! {
    #[test]
    fn mm1_spans_agree_with_recorder_and_theory(
        lambda in 500.0f64..2000.0,
        seed in any::<u64>(),
    ) {
        let mut sim = build_mm1(lambda, seed);
        sim.enable_span_tracing(4_000_000);
        sim.run_for(SimDuration::from_secs_f64(RUN_S));

        // The trace upholds every invariant.
        let report = sim.audit_trace().expect("tracing enabled");
        prop_assert!(report.is_clean(), "violations: {:#?}", report.violations);

        // Span-derived per-stage samples, filtered exactly like the
        // residencies: node exits in [warmup, deadline). A StageDone landing
        // exactly on the deadline is never processed (Stop wins the tie),
        // so spans ending there have no `NodeDone`.
        let warmup_at = SimTime::ZERO + SimDuration::from_secs_f64(WARMUP_S);
        let deadline = sim.now();
        let log = sim.span_log().expect("tracing enabled");
        let spans = log.spans();
        let retained: Vec<_> = spans
            .iter()
            .filter(|s| s.end_t >= warmup_at && s.end_t < deadline)
            .collect();
        prop_assert!(!retained.is_empty(), "no post-warmup spans at lambda {lambda}");
        let residencies: Vec<f64> = log
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::NodeDone { entered, t, .. } if t >= warmup_at => {
                    Some((t - entered).as_secs_f64())
                }
                _ => None,
            })
            .collect();
        prop_assert!(!residencies.is_empty());

        // 1. Counts match the logged node exits (small slack for jobs whose
        //    service completed but whose StageDone event is still queued at
        //    the deadline).
        let diff = (retained.len() as i64 - residencies.len() as i64).abs();
        prop_assert!(
            diff <= 2,
            "span count {} vs node-exit count {} at lambda {lambda}",
            retained.len(),
            residencies.len()
        );

        // 2. Mean residency matches. For a single-stage Simple-exec
        //    service, enqueue == node entry and service end == node exit,
        //    so the two measurements are the same quantity.
        let span_mean =
            retained.iter().map(|s| s.total_s()).sum::<f64>() / retained.len() as f64;
        let node_mean = residencies.iter().sum::<f64>() / residencies.len() as f64;
        let rel = (span_mean - node_mean).abs() / node_mean;
        prop_assert!(
            rel < 0.02,
            "span mean residency {span_mean} vs node exits {node_mean} at lambda {lambda}"
        );

        // 3. Mean queue wait tracks M/M/1 theory: Wq = rho / (mu - lambda).
        let mu = 1.0 / SERVICE_MEAN_S;
        let rho = lambda / mu;
        let wq = rho / (mu - lambda);
        let span_wq =
            retained.iter().map(|s| s.queue_wait_s()).sum::<f64>() / retained.len() as f64;
        let err = (span_wq - wq).abs();
        prop_assert!(
            err < 0.45 * wq + 20e-6,
            "span Wq {span_wq} vs analytic {wq} at lambda {lambda} (rho {rho:.2})"
        );
    }
}
