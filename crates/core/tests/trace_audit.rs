//! Trace-auditor integration tests on adversarial scenarios: a
//! fan-out/fan-in DAG (the paper's Fig. 10 shape), connection-pool
//! exhaustion, and multi-threaded execution with context switching. Each
//! scenario runs with span tracing enabled and must audit with zero
//! invariant violations.

use uqsim_core::builder::{ExecSpec, ScenarioBuilder};
use uqsim_core::client::ClientSpec;
use uqsim_core::dist::Distribution;
use uqsim_core::ids::{PathNodeId, ServiceId, StageId};
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::path::{
    InstanceSelect, LinkKind, NodeTarget, PathNodeSpec, PathSelect, RequestType,
};
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
    service: ServiceId,
    instance: InstanceSelect,
    link: LinkKind,
    children: Vec<PathNodeId>,
) -> PathNodeSpec {
    PathNodeSpec {
        name: name.into(),
        target: NodeTarget::Service {
            service,
            instance,
            exec_path: PathSelect::Fixed { index: 0 },
        },
        children,
        link,
        block_thread_until: None,
        pin_thread_of: None,
        fan_in_policy: Default::default(),
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
    let mut b = ScenarioBuilder::new(21);
    b.warmup(SimDuration::from_millis(100));
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 6,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(5e-6),
        power: Default::default(),
    });
    let s_front = b.add_service(single_stage_service("front", 30e-6));
    let s_back = b.add_service(single_stage_service("back", 80e-6));
    let i_front = b
        .add_instance("front0", s_front, m, 2, ExecSpec::Simple)
        .unwrap();
    let i_b = b
        .add_instance("back_b", s_back, m, 2, ExecSpec::Simple)
        .unwrap();
    let i_c = b
        .add_instance("back_c", s_back, m, 2, ExecSpec::Simple)
        .unwrap();

    // 0 root (front) → {1 b, 2 c} → 3 join (front, fan-in 2) → 4 sink.
    let root = service_node(
        "root",
        s_front,
        InstanceSelect::Fixed { instance: i_front },
        LinkKind::Request,
        vec![nid(1), nid(2)],
    );
    let node_b = service_node(
        "b",
        s_back,
        InstanceSelect::Fixed { instance: i_b },
        LinkKind::Request,
        vec![nid(3)],
    );
    let node_c = service_node(
        "c",
        s_back,
        InstanceSelect::Fixed { instance: i_c },
        LinkKind::Request,
        vec![nid(3)],
    );
    let join = service_node(
        "join",
        s_front,
        InstanceSelect::SameAsNode { node: nid(0) },
        LinkKind::ReplyVia {
            entries: vec![(nid(1), nid(1)), (nid(2), nid(2))],
        },
        vec![nid(4)],
    );
    let sink = PathNodeSpec::client_sink(nid(0));
    let ty = b
        .add_request_type(RequestType::new(
            "fanout",
            vec![root, node_b, node_c, join, sink],
            nid(0),
        ))
        .unwrap();
    b.add_client(ClientSpec::open_loop("c", 2_000.0, 64, ty), vec![i_front]);

    let mut sim = b.build().unwrap();
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
    let mut b = ScenarioBuilder::new(6);
    b.warmup(SimDuration::from_millis(100));
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 4,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(5e-6),
        power: Default::default(),
    });
    let s = b.add_service(single_stage_service("svc", 200e-6));
    let front = b.add_instance("front", s, m, 1, ExecSpec::Simple).unwrap();
    let back = b.add_instance("back", s, m, 1, ExecSpec::Simple).unwrap();
    b.add_pool(front, back, 2).unwrap();
    let mut n0 = service_node(
        "front",
        s,
        InstanceSelect::Fixed { instance: front },
        LinkKind::Request,
        vec![nid(1)],
    );
    n0.children = vec![nid(1)];
    let n1 = service_node(
        "back",
        s,
        InstanceSelect::Fixed { instance: back },
        LinkKind::Request,
        vec![nid(2)],
    );
    let n2 = service_node(
        "front_reply",
        s,
        InstanceSelect::SameAsNode { node: nid(0) },
        LinkKind::ReplyToParent,
        vec![nid(3)],
    );
    let sink = PathNodeSpec::client_sink(nid(0));
    let ty = b
        .add_request_type(RequestType::new("r", vec![n0, n1, n2, sink], nid(0)))
        .unwrap();
    b.add_client(ClientSpec::open_loop("c", 6_000.0, 512, ty), vec![front]);

    let mut sim = b.build().unwrap();
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
    let mut b = ScenarioBuilder::new(17);
    b.warmup(SimDuration::from_millis(100));
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 2,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(5e-6),
        power: Default::default(),
    });
    let s = b.add_service(single_stage_service("svc", 100e-6));
    let i = b
        .add_instance(
            "svc0",
            s,
            m,
            2,
            ExecSpec::MultiThreaded {
                threads: 4,
                ctx_switch: SimDuration::from_micros(2),
            },
        )
        .unwrap();
    let node = service_node(
        "svc",
        s,
        InstanceSelect::Fixed { instance: i },
        LinkKind::Request,
        vec![nid(1)],
    );
    let sink = PathNodeSpec::client_sink(nid(0));
    let ty = b
        .add_request_type(RequestType::new("get", vec![node, sink], nid(0)))
        .unwrap();
    b.add_client(ClientSpec::open_loop("c", 8_000.0, 64, ty), vec![i]);

    let mut sim = b.build().unwrap();
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
    let mut b = ScenarioBuilder::new(9);
    b.warmup(SimDuration::from_millis(100));
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 2,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(10e-6),
        power: Default::default(),
    });
    let s = b.add_service(single_stage_service("svc", 100e-6));
    let i = b.add_instance("svc0", s, m, 2, ExecSpec::Simple).unwrap();
    let node = service_node(
        "svc",
        s,
        InstanceSelect::Fixed { instance: i },
        LinkKind::Request,
        vec![nid(1)],
    );
    let sink = PathNodeSpec::client_sink(nid(0));
    let ty = b
        .add_request_type(RequestType::new("get", vec![node, sink], nid(0)))
        .unwrap();
    b.add_client(ClientSpec::open_loop("c", 2_000.0, 64, ty), vec![i]);
    let mut sim = b.build().unwrap();
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
