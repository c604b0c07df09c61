//! Integration tests of the extended client and observability features:
//! closed-loop load generation, client-side timeouts, request tracing,
//! per-stage statistics and stage profiles (both read off the span log's
//! `BatchStart` events), payload-size-dependent costs, and NIC bandwidth.

use uqsim_core::client::{ArrivalProcess, ClosedLoop};
use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, Name, PathNodeConfig,
    PoolConfig, RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::ids::{InstanceId, StageId};
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::telemetry::{MetricValue, TelemetryConfig};
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::trace::TraceEvent;
use uqsim_core::Simulator;

/// Machine `m` with `cores` cores at 2.6 GHz and a pass-through network.
fn machine(cores: usize, wire_s: f64) -> MachineSpec {
    MachineSpec {
        name: "m".into(),
        cores,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(wire_s),
        power: Default::default(),
    }
}

/// Service `svc` with the one stage `stage`, on execution path `p`.
fn one_stage(stage: StageSpec) -> ServiceModel {
    ServiceModel::new(
        "svc",
        vec![stage],
        vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
    )
}

/// Instance `name` of `svc` on `m`.
fn instance(name: &str, cores: usize) -> InstanceConfig {
    InstanceConfig {
        name: name.into(),
        service: "svc".into(),
        machine: "m".into(),
        cores,
        exec: ExecConfig::Simple,
    }
}

/// A node `node` running `svc` on the instance `on` selects, with
/// `children`.
fn svc_node(node: &str, on: InstanceSelectConfig, children: &[&str]) -> PathNodeConfig {
    let mut n = PathNodeConfig::service(node, "svc", on, "p");
    n.children = children.iter().map(|&c| c.into()).collect();
    n
}

fn fixed(instance: &str) -> InstanceSelectConfig {
    InstanceSelectConfig::Fixed {
        name: instance.into(),
    }
}

/// Request type `name`: node `node` on `svc0`, then the client sink.
fn one_hop(name: &str, node: &str) -> RequestTypeConfig {
    RequestTypeConfig {
        name: name.into(),
        nodes: vec![
            svc_node(node, fixed("svc0"), &["client_sink"]),
            PathNodeConfig::client_sink(node),
        ],
    }
}

/// An open-loop Poisson client `c` issuing `get` to `svc0`.
fn open_loop(qps: f64, connections: usize) -> ClientConfig {
    ClientConfig::open_loop("c", qps, connections, "get", "svc0")
}

/// `service` as instance `svc0` (`cores` cores) on `machine`, request
/// type `get` (node `svc`, then the client sink), and `client`.
fn single_instance(
    seed: u64,
    warmup_s: f64,
    machine: MachineSpec,
    service: ServiceModel,
    cores: usize,
    client: ClientConfig,
) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        warmup_s,
        machines: vec![machine],
        services: vec![service],
        instances: vec![instance("svc0", cores)],
        pools: Vec::new(),
        request_types: vec![one_hop("get", "svc")],
        clients: vec![client],
    }
}

/// A single-instance scenario with one epoll-fronted two-stage service;
/// `spec` is pointed at its one request type and instance.
fn build(spec: ClientConfig, service_mean: f64, cores: usize) -> Simulator {
    let service = ServiceModel::new(
        "svc",
        vec![
            StageSpec::new(
                "epoll",
                QueueDiscipline::Epoll { batch_per_conn: 16 },
                ServiceTimeModel::batched(
                    Distribution::constant(4e-6),
                    Distribution::constant(1e-6),
                    2.6,
                ),
            ),
            StageSpec::new(
                "proc",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::exponential(service_mean), 2.6),
            ),
        ],
        vec![ExecPath::new(
            "p",
            vec![StageId::from_raw(0), StageId::from_raw(1)],
        )],
    );
    let spec = ClientConfig {
        mix: vec![("get".into(), 1.0)],
        roots: vec!["svc0".into()],
        ..spec
    };
    single_instance(9, 0.2, machine(cores, 10e-6), service, cores, spec)
        .build()
        .unwrap()
}

/// A closed-loop client of `users` users with think time `think`.
fn closed_loop(users: usize, think: Distribution, connections: usize) -> ClientConfig {
    ClientConfig {
        closed_loop: Some(ClosedLoop {
            users,
            think_time: think,
        }),
        ..ClientConfig::open_loop("users", 1.0, connections, "get", "svc0")
    }
}

/// What the span log's `BatchStart` events say about one stage of an
/// instance: the batches it started, the jobs they carried, and their
/// service times.
#[derive(Default)]
struct StageBatches {
    invocations: u64,
    jobs: u64,
    busy: SimDuration,
    /// Each batch's service time, seconds, in start order.
    durations: Vec<f64>,
}

/// Per-stage batch statistics of `instance`, read off the span log, which
/// must hold the whole run.
fn stage_batches(sim: &Simulator, instance: InstanceId) -> Vec<StageBatches> {
    let log = sim.span_log().expect("span tracing is on");
    assert_eq!(log.dropped(), 0, "span log too small for this test");
    let stages = sim.trace_meta().instances[instance.index()].stages.len();
    let mut out: Vec<StageBatches> = (0..stages).map(|_| StageBatches::default()).collect();
    for ev in log.events() {
        if let TraceEvent::BatchStart {
            instance: i,
            stage,
            start,
            end,
            jobs,
            ..
        } = *ev
        {
            if i == instance {
                let s = &mut out[stage.index()];
                s.invocations += 1;
                s.jobs += jobs.len() as u64;
                s.busy += end - start;
                s.durations.push((end - start).as_secs_f64());
            }
        }
    }
    out
}

#[test]
fn closed_loop_throughput_follows_littles_law() {
    // N users, think Z, service-ish response time R: X = N / (Z + R).
    let users = 8;
    let think = 2e-3;
    let service = 100e-6;
    let spec = closed_loop(users, Distribution::constant(think), 64);
    let mut sim = build(spec, service, 4);
    sim.run_for(SimDuration::from_secs(10));
    let x = sim.latency_summary().count as f64 / 9.8;
    let r = sim.latency_summary().mean;
    let expect = users as f64 / (think + r);
    assert!(
        (x - expect).abs() / expect < 0.05,
        "closed-loop throughput {x} vs Little's law {expect}"
    );
}

#[test]
fn closed_loop_bounds_in_flight_work() {
    // Even with an absurdly slow server, a closed loop never piles up more
    // than `users` requests.
    let spec = closed_loop(5, Distribution::constant(1e-4), 16);
    let mut sim = build(spec, 50e-3, 1);
    sim.run_for(SimDuration::from_secs(5));
    assert!(
        sim.live_requests() <= 5,
        "in flight {}",
        sim.live_requests()
    );
    assert_eq!(
        sim.generated(),
        sim.completed() + sim.live_requests() as u64
    );
}

#[test]
fn timeouts_fire_only_in_overload() {
    let make = |qps: f64| ClientConfig {
        timeout_s: Some(20e-3),
        ..open_loop(qps, 64)
    };
    // Light load (mu = 10k on 2 cores): no timeouts.
    let mut calm = build(make(4_000.0), 100e-6, 2);
    calm.run_for(SimDuration::from_secs(3));
    assert_eq!(calm.timeouts(), 0, "no timeouts below saturation");

    // Heavy overload: most requests exceed 20ms from submission.
    let mut hot = build(make(40_000.0), 100e-6, 2);
    hot.run_for(SimDuration::from_secs(3));
    assert!(hot.timeouts() > 1_000, "timeouts {}", hot.timeouts());
    // Timed-out requests that eventually finish are excluded from latency.
    assert!(hot.completed_after_timeout() > 0);
    assert!(hot.latency_summary().max <= 21e-3 || hot.latency_summary().count > 0);
}

#[test]
fn timeout_burst_frees_every_client_connection_slot() {
    // A finite burst (trace replay) of 300 requests at 1 ms spacing hits a
    // server whose ~50 ms service time dwarfs the 5 ms client deadline, so
    // essentially everything times out. Each timed-out call must release
    // its connection slot at the deadline — not when the abandoned response
    // eventually drains — or the 4-connection client wedges after the first
    // four launches.
    let spec = ClientConfig {
        name: "burst".into(),
        connections: 4,
        arrivals: ArrivalProcess::trace((0..300).map(|i| f64::from(i) * 1e-3).collect()),
        mix: vec![("get".into(), 1.0)],
        roots: vec!["svc0".into()],
        request_size: Distribution::constant(512.0),
        closed_loop: None,
        timeout_s: Some(5e-3),
    };
    let mut sim = build(spec, 50e-3, 32);
    sim.run_for(SimDuration::from_secs(3));

    assert_eq!(sim.generated(), 300);
    assert!(sim.timeouts() > 200, "timeouts {}", sim.timeouts());
    // The server kept finishing abandoned work after the client moved on.
    assert!(sim.completed_after_timeout() > 0);
    // Pool-occupancy regression: after the burst drains, every client
    // connection slot is free again and nothing is left in flight. A
    // leaked slot would stay busy forever (the late response was already
    // discarded, so nothing else can ever release it).
    assert_eq!(
        sim.busy_client_connections(),
        0,
        "timed-out requests leaked client connection slots"
    );
    assert_eq!(sim.live_requests(), 0, "requests stuck in flight");
    // Timeouts are a distinct latency outcome, pinned at exactly the
    // deadline; the success-path summary never sees them.
    let t = sim.timeout_latency_summary();
    assert!(t.count > 50, "timeout outcome samples {}", t.count);
    assert!(
        (t.mean - 5e-3).abs() < 1e-6 && (t.max - 5e-3).abs() < 1e-6,
        "timeout latency must sit at the deadline: mean {} max {}",
        t.mean,
        t.max
    );
    assert!(
        sim.latency_summary().max <= 5e-3 + 1e-6,
        "success summary contains a timed-out call: max {}",
        sim.latency_summary().max
    );
}

#[test]
fn traces_record_spans_in_order() {
    let spec = open_loop(2_000.0, 64);
    let mut sim = build(spec, 100e-6, 2);
    sim.enable_span_tracing(1_000_000);
    sim.run_for(SimDuration::from_secs(2));
    let log = sim.span_log().unwrap();
    let traces = uqsim_core::trace::sampled_traces(log, &sim.trace_meta(), 10, 100);
    assert!(!traces.is_empty() && traces.len() <= 100);
    for t in &traces {
        assert_eq!(&*t.request_type, "get");
        assert_eq!(t.spans.len(), 1, "one service node per request");
        let span = &t.spans[0];
        assert_eq!(&*span.instance, "svc0");
        assert!(t.submitted <= span.enter);
        assert!(span.enter <= span.exit);
        assert!(span.exit <= t.completed);
    }
    // Traces are serializable (export format).
    let json = serde_json::to_string(&traces[0]).unwrap();
    assert!(json.contains("svc0"));
}

#[test]
fn stage_stats_show_batching_under_load() {
    let spec = open_loop(15_000.0, 256);
    let mut sim = build(spec, 100e-6, 2);
    sim.enable_span_tracing(1_000_000);
    sim.run_for(SimDuration::from_secs(2));
    let stats = stage_batches(&sim, InstanceId::from_raw(0));
    assert_eq!(stats.len(), 2);
    assert_eq!(&*sim.trace_meta().instances[0].stages[0], "epoll");
    let mean_batch = |s: &StageBatches| s.jobs as f64 / s.invocations as f64;
    assert!(stats[0].invocations > 0);
    assert!(stats[0].jobs >= stats[0].invocations);
    // At 75% utilization the epoll stage visibly batches.
    assert!(
        mean_batch(&stats[0]) > 1.05,
        "epoll should batch under load: mean batch {}",
        mean_batch(&stats[0])
    );
    // Single-discipline stage never batches.
    assert!((mean_batch(&stats[1]) - 1.0).abs() < 1e-9);
    assert!(stats[1].busy > SimDuration::ZERO);
}

#[test]
fn request_sizes_slow_byte_proportional_stages() {
    // Same scenario, but the proc stage charges 50ns/byte; big payloads
    // must raise the mean latency accordingly.
    let run = |bytes: f64| {
        let service = one_stage(StageSpec::new(
            "read",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(10e-6), 2.6).with_per_byte(50e-9),
        ));
        let client = ClientConfig {
            request_size: Distribution::constant(bytes),
            ..open_loop(1_000.0, 64)
        };
        let cfg = single_instance(4, 0.2, machine(2, 0.0), service, 2, client);
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(3));
        sim.latency_summary().mean
    };
    let small = run(100.0); // +5us
    let large = run(4_000.0); // +200us
    assert!(
        large - small > 150e-6,
        "4KB payloads must add ~195us over 100B: {small} vs {large}"
    );
}

#[test]
fn nic_bandwidth_adds_transmission_time() {
    let run = |bandwidth: Option<f64>| {
        let mut m = machine(2, 10e-6);
        m.network.bandwidth_gbps = bandwidth;
        let service = one_stage(StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(10e-6), 2.6),
        ));
        let client = ClientConfig {
            request_size: Distribution::constant(12_500.0), // 100 kbit
            ..open_loop(500.0, 64)
        };
        let cfg = single_instance(4, 0.1, m, service, 2, client);
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(2));
        sim.latency_summary().mean
    };
    let infinite = run(None);
    let one_gbps = run(Some(1.0)); // 100kbit / 1Gbps = 100us extra
    assert!(
        one_gbps - infinite > 80e-6,
        "1Gbps must add ~100us for 12.5KB: {infinite} vs {one_gbps}"
    );
}

#[test]
fn stage_profiling_feeds_back_as_empirical_model() {
    // The paper's histogram pipeline: profile a running stage, build a
    // histogram, and use it as an empirical service-time distribution.
    let spec = open_loop(5_000.0, 128);
    let mut sim = build(spec, 80e-6, 2);
    sim.enable_span_tracing(1_000_000);
    sim.run_for(SimDuration::from_secs(2));
    // The `proc` stage never batches, so each batch is one invocation.
    let stats = stage_batches(&sim, InstanceId::from_raw(0));
    let samples = &stats[1].durations;
    assert!(
        samples.len() > 1_000,
        "profiled {} invocations",
        samples.len()
    );
    let emp_mean = samples.iter().sum::<f64>() / samples.len() as f64;
    assert!(
        (emp_mean - 80e-6).abs() / 80e-6 < 0.1,
        "profiled mean {emp_mean}"
    );

    // Round trip through a histogram.
    let h = uqsim_core::histogram::Histogram::from_samples(samples, 100).unwrap();
    assert!((h.mean() - emp_mean).abs() / emp_mean < 0.05);
    let d = Distribution::Empirical { histogram: h };
    assert!(d.validate().is_ok());

    // A simulator driven by the empirical distribution lands in the same
    // latency regime as the parametric original.
    let spec2 = open_loop(5_000.0, 128);
    let service = one_stage(StageSpec::new(
        "proc",
        QueueDiscipline::Single,
        ServiceTimeModel::per_job(d, 2.6),
    ));
    let cfg = single_instance(10, 0.2, machine(2, 10e-6), service, 2, spec2);
    let mut sim2 = cfg.build().unwrap();
    sim2.run_for(SimDuration::from_secs(2));
    let a = sim.latency_summary().mean;
    let b2 = sim2.latency_summary().mean;
    assert!(
        (a - b2).abs() / a < 0.35,
        "parametric {a} vs empirical {b2}"
    );
}

#[test]
fn scheduled_dvfs_slows_the_service() {
    let spec = open_loop(2_000.0, 64);
    let mut sim = build(spec, 100e-6, 2);
    // That machine is fixed-frequency (2.6 only), so snapping keeps 2.6:
    // halve the frequency on a DVFS-capable one instead.
    let mut m = machine(2, 0.0);
    m.dvfs = DvfsSpec::range(1.3, 2.6, 1.3);
    let service = one_stage(StageSpec::new(
        "proc",
        QueueDiscipline::Single,
        ServiceTimeModel::per_job(Distribution::constant(100e-6), 2.6),
    ));
    let cfg = single_instance(3, 0.1, m, service, 2, open_loop(1_000.0, 64));
    let mut slow = cfg.build().unwrap();
    let inst = slow.instance_by_name("svc0").expect("the one instance");
    assert_eq!(slow.set_instance_freq(inst, 1.3), 1.3);
    slow.run_for(SimDuration::from_secs(2));
    // At 1.3 GHz the 100us (at 2.6) service takes 200us.
    let p50 = slow.latency_summary().p50;
    assert!(
        p50 > 180e-6,
        "halved frequency must double service time: p50 {p50}"
    );

    // Sanity on the untouched scenario.
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.latency_summary().p50 < 180e-6);
}

#[test]
fn pool_stats_report_backpressure() {
    // Build a two-instance chain with a tiny pool and overload it.
    let same_as_front = InstanceSelectConfig::SameAsNode {
        node: "front".into(),
    };
    let mut front_reply = svc_node("front_reply", same_as_front, &["client_sink"]);
    front_reply.link = uqsim_core::config::LinkConfig::ReplyToParent;
    let cfg = ScenarioConfig {
        seed: 6,
        warmup_s: 0.1,
        machines: vec![machine(4, 5e-6)],
        services: vec![one_stage(StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::exponential(200e-6), 2.6),
        ))],
        // Three front cores carry the 12k front visits a second (two per
        // request) at 0.8 of their capacity, so the one back core, not the
        // front, is what 6k requests a second overload.
        instances: vec![instance("front", 3), instance("back", 1)],
        pools: vec![PoolConfig {
            up: "front".into(),
            down: "back".into(),
            size: 2,
        }],
        request_types: vec![RequestTypeConfig {
            name: "r".into(),
            nodes: vec![
                svc_node("front", fixed("front"), &["back"]),
                svc_node("back", fixed("back"), &["front_reply"]),
                front_reply,
                PathNodeConfig::client_sink("front"),
            ],
        }],
        clients: vec![ClientConfig::open_loop("c", 6_000.0, 512, "r", "front")],
    };
    let mut sim = cfg.build().unwrap();
    sim.run_for(SimDuration::from_secs(1));
    // The registry's pool gauges, one per pool, labelled `up->down`.
    let reg = sim.metrics_registry();
    let gauges = |name: &str| -> Vec<(String, f64)> {
        reg.metrics_of(name)
            .iter()
            .map(|m| match (&m.labels[..], &m.value) {
                ([("pool", label)], MetricValue::Gauge(v)) => (label.clone(), *v),
                other => panic!("{name}: unexpected shape {other:?}"),
            })
            .collect()
    };
    let free = gauges("uqsim_pool_free");
    let waiters = gauges("uqsim_pool_waiters");
    assert_eq!(free.len(), 1);
    assert_eq!(waiters.len(), 1);
    assert_eq!(free[0].0, "front->back");
    assert_eq!(waiters[0].0, "front->back");
    // The back tier (5k capacity at 200us) is overloaded at 6k: the pool
    // of 2 connections is exhausted and jobs wait.
    assert_eq!(free[0].1, 0.0, "pool should be exhausted");
    assert!(waiters[0].1 > 0.0, "jobs should be waiting for connections");
}

#[test]
fn energy_accounting_is_cubic_in_frequency() {
    // Two identical runs at max and at half frequency: the same number of
    // requests costs 2x the busy time but (1/2)^3 the dynamic power, so
    // the dynamic energy at half frequency is 1/4 of the max-frequency
    // energy; total energy (with the static floor) must decrease.
    let run = |freq: f64| {
        let mut m = machine(2, 0.0);
        m.dvfs = DvfsSpec::range(1.3, 2.6, 1.3);
        m.power = uqsim_core::machine::PowerModel {
            idle_w: 2.0,
            dyn_w: 8.0,
        };
        let service = one_stage(StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(100e-6), 2.6),
        ));
        let cfg = single_instance(12, 0.1, m, service, 2, open_loop(1_000.0, 64));
        let mut sim = cfg.build().unwrap();
        sim.set_instance_freq(InstanceId::from_raw(0), freq);
        sim.run_for(SimDuration::from_secs(2));
        (sim.cluster_energy_j(), sim.completed())
    };
    let (e_fast, n_fast) = run(2.6);
    let (e_slow, n_slow) = run(1.3);
    // Same work completed.
    assert!((n_fast as f64 - n_slow as f64).abs() / (n_fast as f64) < 0.02);
    // Static floor: 2 cores * 2W * 2s = 8J in both runs.
    let static_j = 8.0;
    let dyn_fast = e_fast - static_j;
    let dyn_slow = e_slow - static_j;
    // Busy time doubles, dynamic power is 1/8 => dynamic energy ~ 1/4.
    let ratio = dyn_slow / dyn_fast;
    assert!(
        (ratio - 0.25).abs() < 0.05,
        "dynamic energy ratio {ratio} should be ~0.25 (fast {dyn_fast}J, slow {dyn_slow}J)"
    );
    assert!(e_slow < e_fast, "DVFS must save energy");
}

#[test]
fn trace_replay_reproduces_exact_arrivals() {
    // Five arrivals at known instants; generation must stop afterwards.
    let timestamps = vec![0.010, 0.020, 0.025, 0.100, 0.500];
    let spec = ClientConfig {
        arrivals: ArrivalProcess::trace(timestamps.clone()),
        ..ClientConfig::open_loop("replay", 1.0, 8, "get", "svc0")
    };
    let mut sim = build(spec, 10e-6, 2);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        sim.generated(),
        timestamps.len() as u64,
        "one request per trace entry"
    );
    assert_eq!(sim.completed(), timestamps.len() as u64);
    // Running longer generates nothing more.
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.generated(), timestamps.len() as u64);
}

#[test]
fn trace_validation_rejects_bad_traces() {
    assert!(ArrivalProcess::trace(vec![]).validate().is_err());
    assert!(ArrivalProcess::trace(vec![1.0, 0.5]).validate().is_err());
    assert!(ArrivalProcess::trace(vec![-1.0]).validate().is_err());
    assert!(ArrivalProcess::trace(vec![0.0, 0.0, 1.0])
        .validate()
        .is_ok());
}

/// A two-request-type scenario (both served by the same instance) for
/// typed-trace replay tests.
fn build_two_types(spec: ClientConfig) -> Simulator {
    let service = one_stage(StageSpec::new(
        "proc",
        QueueDiscipline::Single,
        ServiceTimeModel::per_job(Distribution::constant(20e-6), 2.6),
    ));
    let mut cfg = single_instance(9, 0.0, machine(4, 10e-6), service, 4, spec);
    cfg.request_types = vec![one_hop("alpha", "alpha"), one_hop("beta", "beta")];
    cfg.build().unwrap()
}

#[test]
fn typed_trace_dictates_request_types() {
    // 90 arrivals: every third request is a "beta", the rest "alpha" —
    // exactly, not in distribution.
    let n = 90;
    let timestamps: Vec<f64> = (0..n).map(|i| f64::from(i) * 1e-3).collect();
    let types: Vec<Name> = (0..n)
        .map(|i| {
            if i % 3 == 2 {
                "beta".into()
            } else {
                "alpha".into()
            }
        })
        .collect();
    let spec = ClientConfig {
        arrivals: ArrivalProcess::Trace { timestamps, types },
        ..ClientConfig::open_loop("replay", 1.0, 8, "alpha", "svc0")
    };
    let mut sim = build_two_types(spec);
    sim.enable_span_tracing(100_000);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.generated(), n as u64);
    // Measured completions per type, as the span log records them.
    let log = sim.span_log().unwrap();
    assert_eq!(log.dropped(), 0);
    let mut counts = [0usize; 2];
    for ev in log.events() {
        if let TraceEvent::RequestCompleted {
            request_type,
            measured: true,
            ..
        } = *ev
        {
            counts[request_type.index()] += 1;
        }
    }
    let [alpha, beta] = counts;
    assert_eq!(alpha, 60, "alpha count {alpha}");
    assert_eq!(beta, 30, "beta count {beta}");
}

#[test]
fn typed_trace_with_unknown_type_fails_to_build() {
    let service = one_stage(StageSpec::new(
        "proc",
        QueueDiscipline::Single,
        ServiceTimeModel::per_job(Distribution::constant(20e-6), 2.6),
    ));
    let client = ClientConfig {
        arrivals: ArrivalProcess::Trace {
            timestamps: vec![0.0, 1e-3],
            types: vec!["get".into(), "nonexistent".into()],
        },
        ..ClientConfig::open_loop("c", 1.0, 4, "get", "svc0")
    };
    let mut cfg = single_instance(1, 1.0, machine(2, 10e-6), service, 2, client);
    cfg.request_types = vec![one_hop("get", "get")];
    let err = cfg.build().unwrap_err().to_string();
    assert!(err.contains("nonexistent"), "error names the type: {err}");
}

#[test]
fn oversized_instance_is_a_config_error_not_a_panic() {
    // 65 threads exceed the 64-bit idle mask; the builder must refuse with
    // an error naming the instance instead of panicking (oversized
    // generated scenarios surface cleanly).
    let mut big = machine(80, 10e-6);
    big.name = "big".into();
    let service = one_stage(StageSpec::new(
        "proc",
        QueueDiscipline::Single,
        ServiceTimeModel::per_job(Distribution::constant(20e-6), 2.6),
    ));
    let client = ClientConfig::open_loop("c", 100.0, 4, "get", "wide0");
    let mut cfg = single_instance(1, 1.0, big, service, 4, client);
    cfg.instances = vec![InstanceConfig {
        name: "wide0".into(),
        service: "svc".into(),
        machine: "big".into(),
        cores: 4,
        exec: ExecConfig::MultiThreaded {
            threads: 65,
            ctx_switch_s: 2e-6,
        },
    }];
    cfg.request_types = vec![RequestTypeConfig {
        name: "get".into(),
        nodes: vec![
            svc_node("get", fixed("wide0"), &["client_sink"]),
            PathNodeConfig::client_sink("get"),
        ],
    }];
    let err = cfg.build().unwrap_err().to_string();
    assert!(
        err.contains("wide0") && err.contains("64"),
        "error names the instance and the limit: {err}"
    );
}

/// One request whose every step takes no time, emitted exactly at the
/// warm-up instant: its stage queue wait and its stage service are
/// recorded, and its response completes, on that instant — and each is
/// measured, as everything from the warm-up instant on is.
#[test]
fn records_on_the_warmup_instant_are_measured() {
    let cfg = ScenarioConfig::from_json(
        r#"{ "seed": 1, "warmup_s": 0.1,
  "machines": [ { "name": "m", "cores": 1, "dvfs": { "levels_ghz": [2.6] },
    "network": { "irq_cores": 0, "rx_time": { "type": "constant", "value": 0.0 },
      "wire_latency": { "type": "constant", "value": 0.0 },
      "loopback_latency": { "type": "constant", "value": 0.0 } } } ],
  "services": [ { "name": "s",
    "stages": [ { "name": "work", "queue": { "type": "single" },
      "service": { "base": { "type": "constant", "value": 0.0 },
        "per_job": { "type": "constant", "value": 0.0 },
        "ref_freq_ghz": 2.6, "freq_alpha": 1.0 } } ],
    "paths": [ { "name": "p", "stages": [0] } ] } ],
  "instances": [ { "name": "s0", "service": "s", "machine": "m",
    "cores": 1, "exec": { "type": "simple" } } ],
  "pools": [],
  "request_types": [ { "name": "get", "nodes": [
    { "name": "front", "target": { "type": "service", "service": "s",
        "instance": { "type": "fixed", "name": "s0" }, "exec_path": "p" },
      "children": ["sink"] },
    { "name": "sink", "target": { "type": "client_sink" },
      "link": { "reply": { "of": "front" } } } ] } ],
  "clients": [ { "name": "c", "connections": 1,
    "arrivals": { "type": "trace", "timestamps": [0.1] },
    "mix": [["get", 1.0]], "roots": ["s0"] } ] }"#,
    )
    .expect("parses");
    let mut sim = cfg.build().expect("builds");
    sim.enable_telemetry(TelemetryConfig::default());
    sim.enable_span_tracing(1_000);
    sim.run_for(SimDuration::from_millis(200));
    let warmup_at = SimTime::ZERO + sim.config().warmup;
    let completed = (sim.span_log().expect("tracing is on").events().iter())
        .filter_map(|ev| match ev {
            TraceEvent::RequestCompleted { t, measured, .. } => Some((*t, *measured)),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(completed, [(warmup_at, true)]);
    assert_eq!(sim.latency_summary().count, 1);
    let registry = sim.metrics_registry();
    for family in [
        "uqsim_stage_queue_wait_seconds",
        "uqsim_stage_service_seconds",
    ] {
        let counts = (registry.metrics_of(family).iter())
            .map(|m| match &m.value {
                MetricValue::Summary(s) => s.count,
                v => panic!("{family} holds {v:?}"),
            })
            .collect::<Vec<_>>();
        assert_eq!(counts, [1], "{family}");
    }
}
