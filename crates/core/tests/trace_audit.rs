//! Trace-auditor integration tests on adversarial scenarios: a
//! fan-out/fan-in DAG (the paper's Fig. 10 shape), connection-pool
//! exhaustion, and multi-threaded execution with context switching. Each
//! scenario runs with span tracing enabled and must audit with zero
//! invariant violations.

use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, LinkConfig, PathNodeConfig,
    PoolConfig, RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::ids::{PathNodeId, StageId};
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::SimDuration;
use uqsim_core::trace::TraceEvent;
use uqsim_core::Simulator;

fn nid(i: usize) -> PathNodeId {
    PathNodeId::from_raw(i as u32)
}

fn service_node(
    name: &str,
    service: &str,
    instance: InstanceSelectConfig,
    link: LinkConfig,
    children: &[&str],
) -> PathNodeConfig {
    PathNodeConfig {
        children: children.iter().map(|&c| c.into()).collect(),
        link,
        ..PathNodeConfig::service(name, service, instance, "p")
    }
}

fn fixed(instance: &str) -> InstanceSelectConfig {
    InstanceSelectConfig::Fixed {
        name: instance.into(),
    }
}

fn same_as(node: &str) -> InstanceSelectConfig {
    InstanceSelectConfig::SameAsNode { node: node.into() }
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

fn instance(name: &str, service: &str, cores: usize) -> InstanceConfig {
    InstanceConfig {
        name: name.into(),
        service: service.into(),
        machine: "m".into(),
        cores,
        exec: ExecConfig::Simple,
    }
}

/// A scenario on machine `m` (`cores` cores, `wire_s` wire latency) with
/// a 100 ms warm-up and one request type, `ty`, issued by client `c` at
/// `qps` over `connections` connections to instance `root`.
fn scenario(
    seed: u64,
    cores: usize,
    wire_s: f64,
    services: Vec<ServiceModel>,
    instances: Vec<InstanceConfig>,
    ty: RequestTypeConfig,
    (qps, connections, root): (f64, usize, &str),
) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        warmup_s: 0.1,
        machines: vec![MachineSpec {
            name: "m".into(),
            cores,
            dvfs: DvfsSpec::fixed(2.6),
            network: NetworkSpec::passthrough(wire_s),
            power: Default::default(),
        }],
        services,
        instances,
        pools: Vec::new(),
        clients: vec![ClientConfig::open_loop(
            "c",
            qps,
            connections,
            ty.name.clone(),
            root,
        )],
        request_types: vec![ty],
    }
}

/// Runs the audit and asserts zero violations plus a non-trivial trace.
fn assert_clean(sim: &Simulator) {
    let log = sim.span_log().expect("span tracing enabled");
    assert_eq!(log.dropped(), 0, "event capacity too small for this test");
    let report = sim.audit_trace().expect("span tracing enabled");
    assert!(report.is_clean(), "violations: {:#?}", report.violations);
    assert!(report.spans_checked > 0, "no stage spans correlated");
}

/// Fig. 10 shape: a frontend fans out to two parallel backends whose
/// replies synchronize at a join node (fan-in 2) before answering the
/// client.
#[test]
fn fan_out_fan_in_dag_audits_clean() {
    // 0 root (front) → {1 b, 2 c} → 3 join (front, fan-in 2) → 4 sink.
    let root = service_node(
        "root",
        "front",
        fixed("front0"),
        LinkConfig::Request,
        &["b", "c"],
    );
    let node_b = service_node("b", "back", fixed("back_b"), LinkConfig::Request, &["join"]);
    let node_c = service_node("c", "back", fixed("back_c"), LinkConfig::Request, &["join"]);
    let join = service_node(
        "join",
        "front",
        same_as("root"),
        LinkConfig::ReplyVia {
            entries: vec![("b".into(), "b".into()), ("c".into(), "c".into())],
        },
        &["client_sink"],
    );
    let sink = PathNodeConfig::client_sink("root");
    let ty = RequestTypeConfig {
        name: "fanout".into(),
        nodes: vec![root, node_b, node_c, join, sink],
    };
    let cfg = scenario(
        21,
        6,
        5e-6,
        vec![
            single_stage_service("front", 30e-6),
            single_stage_service("back", 80e-6),
        ],
        vec![
            instance("front0", "front", 2),
            instance("back_b", "back", 2),
            instance("back_c", "back", 2),
        ],
        ty,
        (2_000.0, 64, "front0"),
    );

    let mut sim = cfg.build().unwrap();
    sim.enable_span_tracing(2_000_000);
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.completed() > 500, "completed {}", sim.completed());
    assert_clean(&sim);

    // The join must produce fan-in events: two arrivals per request, the
    // second one firing.
    let log = sim.span_log().unwrap();
    let mut arrivals = 0u64;
    let mut fired = 0u64;
    for ev in log.events() {
        if let TraceEvent::FanIn {
            node,
            fan_in,
            fired: f,
            ..
        } = ev
        {
            assert_eq!(*node, nid(3), "only the join has fan-in > 1");
            assert_eq!(*fan_in, 2);
            arrivals += 1;
            fired += u64::from(*f);
        }
    }
    assert!(fired > 500, "join fired {fired} times");
    assert!(
        arrivals >= 2 * fired,
        "each firing needs two arrivals: {arrivals} arrivals, {fired} fired"
    );
}

/// A two-instance chain behind a pool of 2 connections, overloaded so the
/// pool is continuously exhausted: block/grant events must appear and the
/// pool discipline must still audit clean.
#[test]
fn pool_exhaustion_audits_clean() {
    let n0 = service_node(
        "front",
        "svc",
        fixed("front"),
        LinkConfig::Request,
        &["back"],
    );
    let n1 = service_node(
        "back",
        "svc",
        fixed("back"),
        LinkConfig::Request,
        &["front_reply"],
    );
    let n2 = service_node(
        "front_reply",
        "svc",
        same_as("front"),
        LinkConfig::ReplyToParent,
        &["client_sink"],
    );
    let sink = PathNodeConfig::client_sink("front");
    let ty = RequestTypeConfig {
        name: "r".into(),
        nodes: vec![n0, n1, n2, sink],
    };
    let mut cfg = scenario(
        6,
        4,
        5e-6,
        vec![single_stage_service("svc", 200e-6)],
        vec![instance("front", "svc", 1), instance("back", "svc", 1)],
        ty,
        (6_000.0, 512, "front"),
    );
    cfg.pools = vec![PoolConfig {
        up: "front".into(),
        down: "back".into(),
        size: 2,
    }];

    let mut sim = cfg.build().unwrap();
    sim.enable_span_tracing(4_000_000);
    sim.run_for(SimDuration::from_secs(1));
    assert_clean(&sim);

    let log = sim.span_log().unwrap();
    let mut blocks = 0u64;
    let mut grants = 0u64;
    let mut acquires = 0u64;
    let mut releases = 0u64;
    for ev in log.events() {
        match ev {
            TraceEvent::PoolBlock { .. } => blocks += 1,
            TraceEvent::PoolGrant { .. } => grants += 1,
            TraceEvent::PoolAcquire { .. } => acquires += 1,
            TraceEvent::PoolRelease { .. } => releases += 1,
            _ => {}
        }
    }
    // The back tier (5k capacity at 200us) is overloaded at 6k qps: jobs
    // must block on the exhausted pool and be granted connections later.
    assert!(blocks > 100, "pool blocks {blocks}");
    assert!(grants > 100, "pool grants {grants}");
    assert!(acquires > 0, "pool acquires {acquires}");
    // Every grant follows a release; direct acquires release too.
    assert!(releases >= grants, "releases {releases} vs grants {grants}");
}

/// Four worker threads contending for two cores with a context-switch
/// penalty: per-core non-overlap must hold even with threads migrating
/// between cores.
#[test]
fn multithreaded_ctx_switch_audits_clean() {
    let node = service_node(
        "svc",
        "svc",
        fixed("svc0"),
        LinkConfig::Request,
        &["client_sink"],
    );
    let sink = PathNodeConfig::client_sink("svc");
    let ty = RequestTypeConfig {
        name: "get".into(),
        nodes: vec![node, sink],
    };
    let mut svc0 = instance("svc0", "svc", 2);
    svc0.exec = ExecConfig::MultiThreaded {
        threads: 4,
        ctx_switch_s: 2e-6,
    };
    let cfg = scenario(
        17,
        2,
        5e-6,
        vec![single_stage_service("svc", 100e-6)],
        vec![svc0],
        ty,
        (8_000.0, 64, "svc0"),
    );

    let mut sim = cfg.build().unwrap();
    sim.enable_span_tracing(2_000_000);
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.completed() > 1_000, "completed {}", sim.completed());
    assert_clean(&sim);

    // Both cores and several threads must actually have serviced batches.
    let log = sim.span_log().unwrap();
    let mut cores = std::collections::HashSet::new();
    let mut threads = std::collections::HashSet::new();
    for ev in log.events() {
        if let TraceEvent::BatchStart { core, thread, .. } = ev {
            cores.insert(*core);
            threads.insert(*thread);
        }
    }
    assert_eq!(cores.len(), 2, "both cores used: {cores:?}");
    assert!(
        threads.len() >= 2,
        "thread contention exercised: {threads:?}"
    );
}

/// Span-derived per-request windows agree with the old sampled-trace API:
/// every span of a traced request falls inside its submitted..completed
/// window (cross-validation of the two tracing subsystems).
#[test]
fn span_log_agrees_with_sampled_traces() {
    let node = service_node(
        "svc",
        "svc",
        fixed("svc0"),
        LinkConfig::Request,
        &["client_sink"],
    );
    let sink = PathNodeConfig::client_sink("svc");
    let ty = RequestTypeConfig {
        name: "get".into(),
        nodes: vec![node, sink],
    };
    let cfg = scenario(
        9,
        2,
        10e-6,
        vec![single_stage_service("svc", 100e-6)],
        vec![instance("svc0", "svc", 2)],
        ty,
        (2_000.0, 64, "svc0"),
    );
    let mut sim = cfg.build().unwrap();
    sim.enable_span_tracing(2_000_000);
    sim.run_for(SimDuration::from_secs(1));
    assert_clean(&sim);
    let log = sim.span_log().unwrap();
    let traces = uqsim_core::trace::sampled_traces(log, &sim.trace_meta(), 10, 100);
    assert!(!traces.is_empty(), "sampled traces recorded");

    // Span end times per request bound the sampled spans: both views read
    // the same executions, so every sampled span's [enter, exit] must
    // appear among the span log's batch intervals for that instance.
    let spans = log.spans();
    for t in &traces {
        let covered = spans.iter().any(|s| {
            s.enqueue_t >= t.submitted
                && s.end_t <= t.completed
                && s.end_t.as_nanos() == t.spans[0].exit.as_nanos()
        });
        assert!(covered, "sampled trace has no matching stage span: {t:?}");
    }
}
