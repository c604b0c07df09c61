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
const RUN_S: f64 = 20.3;

/// One exponential stage of mean `service_mean_s` on one core, fed by a
/// Poisson client at `lambda_qps`.
fn build_queue(lambda_qps: f64, service_mean_s: f64, seed: u64) -> Simulator {
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
                ServiceTimeModel::per_job(Distribution::exponential(service_mean_s), 2.6),
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
        let mut sim = build_queue(lambda, SERVICE_MEAN_S, seed);
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

        // 3. Mean queue wait tracks M/M/1 theory.
        let waits: Vec<f64> = retained.iter().map(|s| s.queue_wait_s()).collect();
        let checked = wq_within_batch_means_bound(&waits, mm1_wq(lambda));
        prop_assert!(checked.is_ok(), "{} at lambda {lambda}", checked.unwrap_err());
    }
}

/// M/M/1 mean queue wait at `lambda_qps` for this file's service mean:
/// `Wq = rho / (mu - lambda)`.
fn mm1_wq(lambda_qps: f64) -> f64 {
    let mu = 1.0 / SERVICE_MEAN_S;
    (lambda_qps / mu) / (mu - lambda_qps)
}

/// Batches the post-warm-up queue waits are cut into.
const BATCHES: usize = 20;
/// Half-width of the bound, in standard errors of the batch means.
const K_SE: f64 = 8.0;

/// Checks the mean of `waits` (queue waits in completion order) against
/// the analytic `wq` with a batch-means bound.
///
/// Successive waits of one FIFO queue are correlated (Lindley's
/// recursion), so their sample variance understates the error of their
/// mean. Cut them into `B = BATCHES` contiguous batches of `m = n / B`
/// waits (the remainder is dropped) and take the batch means `Y_b`. Once
/// `m` is long against the waits' correlation time — about `1 / (mu (1 -
/// sqrt(rho))^2)`, under 10 ms at this file's heaviest load, while a batch
/// holds a simulated second — the `Y_b` are nearly independent with a
/// common variance `sigma_inf^2 / m`, so `(Ybar - Wq) / (S_Y / sqrt(B))`
/// is close to Student's t with `B - 1 = 19` degrees of freedom, `S_Y`
/// being the batch means' sample standard deviation. The check is
/// `|Ybar - Wq| < K_SE * S_Y / sqrt(B)`.
///
/// `P(|t_19| > 4) ≈ 8e-4`, but the statistic's tail is heavier than that:
/// the waits' own right tail is long busy periods, and a run that happens
/// to miss them has a low mean *and* a small `S_Y` together. Over 2,000
/// seeds at each of λ = 500, 600, 800, 1,200, 1,600, 1,800 and 2,000 (ρ
/// 0.15–0.6) |t| exceeded 4 in 25 runs of 14,000, 5 in one and 7 once (7.43,
/// λ = 800: every batch 10–30 % under Wq); hence `K_SE = 8`. A stage 15 %
/// slower than the model still fails it: at λ = 1,800 in 194 seeds of 200,
/// at λ = 1,200 in 176, at λ = 800 in 93 and at λ = 500 in 10
/// (`a_service_mean_fifteen_percent_off_is_rejected`), where the old
/// `0.45 Wq + 20 µs` over one simulated second raised false alarms at
/// λ = 600 and 800.
fn wq_within_batch_means_bound(waits: &[f64], wq: f64) -> Result<(), String> {
    let m = waits.len() / BATCHES;
    if m < 2 {
        return Err(format!(
            "{} waits: too few for {BATCHES} batches",
            waits.len()
        ));
    }
    let means: Vec<f64> = waits
        .chunks_exact(m)
        .take(BATCHES)
        .map(|b| b.iter().sum::<f64>() / m as f64)
        .collect();
    let b = means.len() as f64;
    let ybar = means.iter().sum::<f64>() / b;
    let var = means.iter().map(|y| (y - ybar) * (y - ybar)).sum::<f64>() / (b - 1.0);
    let se = (var / b).sqrt();
    let err = (ybar - wq).abs();
    if err < K_SE * se {
        Ok(())
    } else {
        Err(format!(
            "span Wq {ybar} vs analytic {wq}: |error| {err} >= {K_SE} x batch-means se {se}"
        ))
    }
}

/// Post-warm-up queue waits of one M/M/1 run, in completion order.
fn waits_of(lambda_qps: f64, service_mean_s: f64, seed: u64) -> Vec<f64> {
    let mut sim = build_queue(lambda_qps, service_mean_s, seed);
    sim.enable_span_tracing(4_000_000);
    sim.run_for(SimDuration::from_secs_f64(RUN_S));
    let warmup_at = SimTime::ZERO + SimDuration::from_secs_f64(WARMUP_S);
    let deadline = sim.now();
    let log = sim.span_log().expect("tracing enabled");
    log.spans()
        .iter()
        .filter(|s| s.end_t >= warmup_at && s.end_t < deadline)
        .map(|s| s.queue_wait_s())
        .collect()
}

/// The bound can fail: a stage 15 % slower than the analytic model
/// assumes is rejected at a load where the wait is long enough to measure
/// (expected: about 97 % of seeds).
#[test]
fn a_service_mean_fifteen_percent_off_is_rejected() {
    let lambda = 1_800.0;
    let rejected = (1..=16)
        .filter(|&seed| {
            let waits = waits_of(lambda, 1.15 * SERVICE_MEAN_S, seed);
            wq_within_batch_means_bound(&waits, mm1_wq(lambda)).is_err()
        })
        .count();
    assert!(
        rejected >= 12,
        "a 15 % slower stage passed the Wq bound at {} seeds of 16",
        16 - rejected
    );
}

/// The false-alarm sweep behind `K_SE`: 2,000 seeds at each load, every
/// one within the bound. Slow (14,000 runs of 20 simulated seconds, about
/// ten minutes on two threads); run it by name after a change to the
/// samplers or to the bound:
/// `cargo test -p uqsim-core --test trace_mm1 -- --ignored`.
#[test]
#[ignore]
fn false_alarms_over_many_seeds() {
    let loads = [500.0, 600.0, 800.0, 1_200.0, 1_600.0, 1_800.0, 2_000.0];
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                s.spawn(move || {
                    let mut failures = Vec::new();
                    for lambda in loads {
                        for seed in (w..2_000).step_by(2) {
                            let waits = waits_of(lambda, SERVICE_MEAN_S, seed);
                            if let Err(e) = wq_within_batch_means_bound(&waits, mm1_wq(lambda)) {
                                failures.push(format!("seed {seed}: {e} at lambda {lambda}"));
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    });
    assert!(failures.is_empty(), "{failures:#?}");
}
