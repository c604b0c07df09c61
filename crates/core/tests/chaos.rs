//! Adversarial fault-injection tests: fan-out DAGs losing a parent branch
//! mid-flight. A quorum fan-in must keep answering (degraded) when one
//! branch is crashed, an `all` fan-in must account every half-finished
//! request as dropped, and in both cases the trace auditor must verify the
//! terminal-outcome conservation law event-by-event. And a crash must not
//! outlast its restart: threads that blocked for a reply the crash killed
//! are released when the request is dropped. And hedging: a duplicate of
//! a slow request races its original, and exactly one of the two counts.

use uqsim_core::client::ArrivalProcess;
use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, LinkConfig, Name,
    PathNodeConfig, RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::ids::StageId;
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::partition::{run_partitioned, PartitionOptions, SpanTracing};
use uqsim_core::path::FanInPolicy;
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::{FaultPlan, FaultSpec, Simulator, TelemetryConfig};

fn service_node(
    name: &str,
    service: &str,
    instance: InstanceSelectConfig,
    link: LinkConfig,
    children: Vec<Name>,
) -> PathNodeConfig {
    PathNodeConfig {
        children,
        link,
        ..PathNodeConfig::service(name, service, instance, "p")
    }
}

fn fixed(instance: &str) -> InstanceSelectConfig {
    InstanceSelectConfig::Fixed {
        name: instance.into(),
    }
}

fn single_stage_service(name: &str, mean_s: f64) -> ServiceModel {
    ServiceModel::new(
        name,
        vec![StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::exponential(mean_s), 2.6),
        )],
        vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
    )
}

fn instance(name: &str, service: &str) -> InstanceConfig {
    InstanceConfig {
        name: name.into(),
        service: service.into(),
        machine: "m".into(),
        cores: 2,
        exec: ExecConfig::Simple,
    }
}

/// A frontend fanning out to `backends` parallel instances whose replies
/// synchronize at a join node with the given fan-in policy.
fn build_fanout(seed: u64, backends: usize, policy: FanInPolicy) -> Simulator {
    let backs: Vec<Name> = (0..backends).map(|k| format!("back{k}").into()).collect();
    let mut instances = vec![instance("front0", "front")];
    instances.extend(backs.iter().map(|b| instance(b, "back")));

    // root → {back0 … } → join → sink.
    let root = service_node(
        "root",
        "front",
        fixed("front0"),
        LinkConfig::Request,
        backs.clone(),
    );
    let mut nodes = vec![root];
    for b in &backs {
        let join = vec!["join".into()];
        nodes.push(service_node(b, "back", fixed(b), LinkConfig::Request, join));
    }
    let mut join = service_node(
        "join",
        "front",
        InstanceSelectConfig::SameAsNode {
            node: "root".into(),
        },
        LinkConfig::ReplyVia {
            entries: backs.iter().map(|b| (b.clone(), b.clone())).collect(),
        },
        vec!["client_sink".into()],
    );
    join.fan_in_policy = policy;
    nodes.push(join);
    nodes.push(PathNodeConfig::client_sink("root"));
    ScenarioConfig {
        seed,
        warmup_s: 0.1,
        machines: vec![MachineSpec {
            name: "m".into(),
            cores: 8,
            dvfs: DvfsSpec::fixed(2.6),
            network: NetworkSpec::passthrough(5e-6),
            power: Default::default(),
        }],
        services: vec![
            single_stage_service("front", 30e-6),
            single_stage_service("back", 80e-6),
        ],
        instances,
        pools: Vec::new(),
        request_types: vec![RequestTypeConfig {
            name: "fanout".into(),
            nodes,
        }],
        clients: vec![ClientConfig::open_loop(
            "c", 2_000.0, 64, "fanout", "front0",
        )],
    }
    .build()
    .unwrap()
}

fn crash_plan(instance: &str, at_s: f64, restart_after_s: Option<f64>) -> FaultPlan {
    FaultPlan {
        faults: vec![FaultSpec::InstanceCrash {
            instance: instance.into(),
            at_s,
            restart_after_s,
        }],
        policy: Default::default(),
    }
}

/// Runs the audit and asserts zero violations plus a non-trivial trace.
fn assert_audit_clean(sim: &Simulator) {
    let log = sim.span_log().expect("span tracing enabled");
    assert_eq!(log.dropped(), 0, "event capacity too small for this test");
    let report = sim.audit_trace().expect("span tracing enabled");
    assert!(report.is_clean(), "violations: {:#?}", report.violations);
    assert!(report.spans_checked > 0, "no stage spans correlated");
}

/// quorum(2) over three backends, one of which crashes permanently: the
/// join keeps firing on the two survivors, so requests complete (degraded)
/// instead of hanging or dropping, and the conservation law still audits.
#[test]
fn quorum_fan_in_survives_a_dead_parent_branch() {
    let mut sim = build_fanout(31, 3, FanInPolicy::Quorum { k: 2 });
    sim.install_faults(&crash_plan("back1", 0.3, None)).unwrap();
    sim.enable_span_tracing(4_000_000);
    sim.run_for(SimDuration::from_secs(1));

    let f = sim.fault_summary().expect("fault plan installed");
    // The crash really killed work on the dead branch...
    assert!(f.jobs_killed > 100, "jobs killed {}", f.jobs_killed);
    // ...yet no request was terminally dropped: two live parents always
    // satisfy the quorum.
    assert_eq!(sim.dropped(), 0, "quorum must absorb the dead branch");
    // Completions continue through the post-crash era (0.3s..1s at 2k qps
    // would leave far fewer completions if the join wedged at the crash).
    assert!(sim.completed() > 1_200, "completed {}", sim.completed());
    // Early fires are degraded responses; after the crash every completion
    // is one, so they dominate.
    assert!(
        sim.degraded() > sim.completed() / 2,
        "degraded {} of {}",
        sim.degraded(),
        sim.completed()
    );
    // Terminal-outcome conservation, then the event-by-event audit of it.
    assert_eq!(
        sim.generated(),
        sim.completed() + sim.dropped() + sim.shed() + sim.live_requests() as u64
    );
    assert_audit_clean(&sim);
}

/// An `all` fan-in crashing one of two parents mid-flight: every request
/// whose dead-branch copy can no longer arrive must resolve as dropped
/// (never hang half-joined), completions must resume after the restart,
/// and the auditor must still verify conservation event-by-event.
#[test]
fn crash_mid_fanout_conserves_requests_under_all_fan_in() {
    let mut sim = build_fanout(32, 2, FanInPolicy::All);
    sim.install_faults(&crash_plan("back0", 0.3, Some(0.3)))
        .unwrap();
    sim.enable_span_tracing(4_000_000);
    sim.run_for(SimDuration::from_secs(1));

    let f = sim.fault_summary().expect("fault plan installed");
    assert!(f.jobs_killed > 100, "jobs killed {}", f.jobs_killed);
    // Requests caught mid-fanout lost a required branch and were dropped.
    assert!(sim.dropped() > 100, "dropped {}", sim.dropped());
    // The restart at 0.6s revives the branch: completions from both the
    // pre-crash and post-restart eras.
    assert!(sim.completed() > 800, "completed {}", sim.completed());
    assert_eq!(
        sim.generated(),
        sim.completed() + sim.dropped() + sim.shed() + sim.live_requests() as u64
    );
    assert_audit_clean(&sim);
}

/// The bundled social network under its bundled plan: `post` crashes at
/// 2.2 s with every `frontend` thread blocked (`block_thread_until`) on a
/// reply that has to come through it, and restarts at 2.5 s. Those replies
/// died with the crash, so only dropping the request can release the
/// threads; while it did not, nothing completed after the crash however
/// long the run (17,790 completions at 3, 5, 10 and 20 s alike).
#[test]
fn a_crash_does_not_wedge_the_threads_blocked_on_its_replies() {
    let scenario = include_str!("../../cli/configs/social_network.json");
    let plan = include_str!("../../cli/configs/social_network_faults.json");
    let mut sim = ScenarioConfig::from_json(scenario)
        .expect("bundled scenario parses")
        .build()
        .expect("bundled scenario builds");
    sim.install_faults(&FaultPlan::from_json(plan).expect("bundled plan parses"))
        .expect("plan matches scenario");

    // To the restart, then on to 5 s and to 20 s.
    sim.run_for(SimDuration::from_millis(2_500));
    assert!(sim.dropped() > 1_000, "the crash dropped {}", sim.dropped());
    let (generated, completed) = (sim.generated(), sim.completed());
    for until_s in [5.0, 20.0] {
        sim.run_until(SimTime::from_secs_f64(until_s));
        let generated = sim.generated() - generated;
        let completed = sim.completed() - completed;
        assert!(
            completed as f64 >= 0.95 * generated as f64,
            "restart to {until_s} s: {completed} of {generated} completed"
        );
        // Nothing piles up either: a healthy run holds a few dozen.
        assert!(
            sim.live_requests() < 256,
            "{} in flight",
            sim.live_requests()
        );
    }
}

/// The example scenario with no fault, only a client policy that hedges:
/// a request still unanswered 0.3 ms after its emission gets a twin, the
/// first of the two to reach the client is measured and the other is
/// superseded. Both copies count as generated and completed; only the
/// winner is measured, from its own emission (DESIGN.md §10).
#[test]
fn hedged_requests_conserve_audit_and_replay() {
    let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).expect("parses");
    let plan = FaultPlan::from_json(
        r#"{ "faults": [],
             "policy": { "clients": [ { "client": "wrk", "hedge_after_s": 0.0003 } ] } }"#,
    )
    .expect("plan parses");
    let d = SimDuration::from_millis(600);
    let run = || {
        let mut sim = cfg.clone().build().expect("builds");
        sim.install_faults(&plan).expect("plan matches scenario");
        sim.enable_span_tracing(4_000_000);
        sim.run_for(d);
        sim
    };
    let sim = run();
    let hedged = sim.fault_summary().expect("policy installed").hedged;
    assert!(hedged > 0, "no request was hedged");
    assert_eq!(
        sim.generated(),
        sim.completed() + sim.dropped() + sim.shed() + sim.live_requests() as u64
    );
    assert_audit_clean(&sim);
    let latency = sim.latency_summary();
    let pins = (
        sim.generated(),
        sim.completed(),
        hedged,
        latency.count,
        latency.p99,
    );
    assert_eq!(pins, (1317, 1315, 102, 985, 0.00045954));

    // Same seed, same run.
    let again = run();
    assert_eq!(
        again.latency_samples().collect::<Vec<_>>(),
        sim.latency_samples().collect::<Vec<_>>()
    );
    assert_eq!(again.generated(), sim.generated());

    // The streaming critical path of the same run equals its replay from
    // the span log, and the one cell runs what the bare simulator ran.
    let opts = PartitionOptions {
        shards: 1,
        telemetry: Some(TelemetryConfig {
            critpath: true,
            ..TelemetryConfig::default()
        }),
        span_tracing: SpanTracing::Check {
            events: 4_000_000,
            replay: true,
        },
    };
    let seed = cfg.seed;
    let cell = run_partitioned(cfg, Some(&plan), seed, d, &opts).expect("runs");
    let checks = cell.cells[0].checks.as_ref().expect("span log checked");
    assert!(checks.audit.is_clean(), "{:#?}", checks.audit.violations);
    assert_eq!(checks.replay, Some(Ok(())), "streaming == replay");
    let r = &cell.result;
    let f = r.fault.as_ref().expect("policy installed");
    assert_eq!(
        (
            r.generated,
            r.completed,
            f.hedged,
            r.latency.count,
            r.latency.p99
        ),
        pins
    );
}

/// The retransmit budget is a limit, not a count of extra chances: a link
/// that drops every packet for the whole run gives each job one send and
/// `retransmit_limit` re-sends before it dies — so `3 × killed` retransmits
/// and `4 × killed` dropped packets at a limit of 3, exactly. The zero
/// backoff settles each job's drops at the instant of its send, so no job
/// is still between attempts at the deadline.
#[test]
fn a_job_is_retransmitted_exactly_retransmit_limit_times() {
    let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).expect("parses");
    let plan = FaultPlan::from_json(
        r#"{ "faults": [ { "kind": "network_degrade", "machine": "server0",
                            "at_s": 0.0, "duration_s": 1.0, "drop_prob": 1.0 } ],
             "policy": { "network": { "retransmit_limit": 3,
                                      "retransmit_backoff_s": 0.0 } } }"#,
    )
    .expect("plan parses");
    let mut sim = cfg.build().expect("builds");
    sim.install_faults(&plan).expect("plan matches scenario");
    sim.run_for(SimDuration::from_millis(300));
    let s = sim.fault_summary().expect("plan installed");
    assert!(s.jobs_killed > 100, "too few jobs died: {}", s.jobs_killed);
    assert_eq!(s.retransmits, 3 * s.jobs_killed);
    assert_eq!(s.packets_dropped, 4 * s.jobs_killed);
    assert_eq!(sim.completed(), 0, "no packet got through");
}

/// A link that drops everything and room for 20 retransmits: one job's
/// resends are `base × 2^k` apart, doubling up to 2^16 × `base` and
/// staying there, and the job dies at its 21st drop.
#[test]
fn retransmit_backoff_doubles_up_to_its_cap() {
    let mut cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).expect("parses");
    // One request, after the fault window opens at time zero.
    cfg.clients[0].arrivals = ArrivalProcess::Trace {
        timestamps: vec![0.001],
        types: Vec::new(),
    };
    let base = 1e-6;
    let plan = FaultPlan::from_json(&format!(
        r#"{{ "faults": [ {{ "kind": "network_degrade", "machine": "server0",
                              "at_s": 0.0, "duration_s": 10.0, "drop_prob": 1.0 }} ],
             "policy": {{ "network": {{ "retransmit_limit": 20,
                                        "retransmit_backoff_s": {base} }} }} }}"#
    ))
    .expect("plan parses");
    let mut sim = cfg.build().expect("builds");
    sim.install_faults(&plan).expect("plan matches scenario");
    let counts = |sim: &Simulator| {
        let s = sim.fault_summary().expect("plan installed");
        (s.retransmits, s.jobs_killed)
    };
    // Send k (k = 0 is the first) drops at `send`; up to the 20th it
    // schedules the next one, the 21st kills the job.
    let mut send = SimTime::ZERO + SimDuration::from_secs_f64(0.001);
    for k in 0..=20u64 {
        sim.run_until_paused(SimTime::from_nanos(send.as_nanos() - 1));
        assert_eq!(counts(&sim), (k, 0), "before send {k}");
        sim.run_until_paused(send);
        let after = if k < 20 { (k + 1, 0) } else { (20, 1) };
        assert_eq!(counts(&sim), after, "at send {k}");
        let gap = base * f64::from(1u32 << k.min(16));
        send += SimDuration::from_secs_f64(gap);
    }
}
