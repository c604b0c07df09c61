//! Integration tests of the extended client and observability features:
//! closed-loop load generation, client-side timeouts, request tracing,
//! per-stage statistics and stage profiles (both read off the span log's
//! `BatchStart` events), payload-size-dependent costs, and NIC bandwidth.

use uqsim_core::builder::{ExecSpec, ScenarioBuilder};
use uqsim_core::client::{ClientSpec, RequestMix};
use uqsim_core::dist::Distribution;
use uqsim_core::ids::{InstanceId, PathNodeId, StageId};
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::path::{PathNodeSpec, RequestType};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::telemetry::MetricValue;
use uqsim_core::time::SimDuration;
use uqsim_core::trace::TraceEvent;
use uqsim_core::Simulator;

/// A single-instance scenario with one epoll-fronted two-stage service.
fn build(spec: ClientSpec, service_mean: f64, cores: usize) -> Simulator {
    let mut b = ScenarioBuilder::new(9);
    b.warmup(SimDuration::from_millis(200));
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(10e-6),
        power: Default::default(),
    });
    let s = b.add_service(ServiceModel::new(
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
    ));
    let i = b
        .add_instance("svc0", s, m, cores, ExecSpec::Simple)
        .unwrap();
    let mut node = PathNodeSpec::request("svc", s, i);
    node.children = vec![PathNodeId::from_raw(1)];
    let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
    let ty = b
        .add_request_type(RequestType::new(
            "get",
            vec![node, sink],
            PathNodeId::from_raw(0),
        ))
        .unwrap();
    let mut spec = spec;
    spec.mix = RequestMix::single(ty);
    b.add_client(spec, vec![i]);
    b.build().unwrap()
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
    let spec = ClientSpec::closed_loop(
        "users",
        users,
        Distribution::constant(think),
        64,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
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
    let spec = ClientSpec::closed_loop(
        "users",
        5,
        Distribution::constant(1e-4),
        16,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
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
    let make = |qps: f64| {
        ClientSpec::open_loop("c", qps, 64, uqsim_core::ids::RequestTypeId::from_raw(0))
            .with_timeout(20e-3)
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
    let spec = ClientSpec {
        name: "burst".into(),
        connections: 4,
        arrivals: uqsim_core::client::ArrivalProcess::trace(
            (0..300).map(|i| f64::from(i) * 1e-3).collect(),
        ),
        mix: RequestMix::single(uqsim_core::ids::RequestTypeId::from_raw(0)),
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
    let spec = ClientSpec::open_loop(
        "c",
        2_000.0,
        64,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
    let mut sim = build(spec, 100e-6, 2);
    sim.enable_span_tracing(1_000_000);
    sim.run_for(SimDuration::from_secs(2));
    let log = sim.span_log().unwrap();
    let traces = uqsim_core::trace::sampled_traces(log, &sim.trace_meta(), 10, 100);
    assert!(!traces.is_empty() && traces.len() <= 100);
    for t in &traces {
        assert_eq!(t.request_type, "get");
        assert_eq!(t.spans.len(), 1, "one service node per request");
        let span = &t.spans[0];
        assert_eq!(span.instance, "svc0");
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
    let spec = ClientSpec::open_loop(
        "c",
        15_000.0,
        256,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
    let mut sim = build(spec, 100e-6, 2);
    sim.enable_span_tracing(1_000_000);
    sim.run_for(SimDuration::from_secs(2));
    let stats = stage_batches(&sim, InstanceId::from_raw(0));
    assert_eq!(stats.len(), 2);
    assert_eq!(sim.trace_meta().instances[0].stages[0], "epoll");
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
        let mut b = ScenarioBuilder::new(4);
        b.warmup(SimDuration::from_millis(200));
        let m = b.add_machine(MachineSpec {
            name: "m".into(),
            cores: 2,
            dvfs: DvfsSpec::fixed(2.6),
            network: NetworkSpec::passthrough(0.0),
            power: Default::default(),
        });
        let s = b.add_service(ServiceModel::new(
            "svc",
            vec![StageSpec::new(
                "read",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::constant(10e-6), 2.6).with_per_byte(50e-9),
            )],
            vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
        ));
        let i = b.add_instance("svc0", s, m, 2, ExecSpec::Simple).unwrap();
        let mut node = PathNodeSpec::request("svc", s, i);
        node.children = vec![PathNodeId::from_raw(1)];
        let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
        let ty = b
            .add_request_type(RequestType::new(
                "get",
                vec![node, sink],
                PathNodeId::from_raw(0),
            ))
            .unwrap();
        b.add_client(
            ClientSpec::open_loop("c", 1_000.0, 64, ty)
                .with_request_size(Distribution::constant(bytes)),
            vec![i],
        );
        let mut sim = b.build().unwrap();
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
        let mut b = ScenarioBuilder::new(4);
        b.warmup(SimDuration::from_millis(100));
        let mut net = NetworkSpec::passthrough(10e-6);
        net.bandwidth_gbps = bandwidth;
        let m = b.add_machine(MachineSpec {
            name: "m".into(),
            cores: 2,
            dvfs: DvfsSpec::fixed(2.6),
            network: net,
            power: Default::default(),
        });
        let s = b.add_service(ServiceModel::new(
            "svc",
            vec![StageSpec::new(
                "proc",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::constant(10e-6), 2.6),
            )],
            vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
        ));
        let i = b.add_instance("svc0", s, m, 2, ExecSpec::Simple).unwrap();
        let mut node = PathNodeSpec::request("svc", s, i);
        node.children = vec![PathNodeId::from_raw(1)];
        let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
        let ty = b
            .add_request_type(RequestType::new(
                "get",
                vec![node, sink],
                PathNodeId::from_raw(0),
            ))
            .unwrap();
        b.add_client(
            ClientSpec::open_loop("c", 500.0, 64, ty)
                .with_request_size(Distribution::constant(12_500.0)), // 100 kbit
            vec![i],
        );
        let mut sim = b.build().unwrap();
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
    let spec = ClientSpec::open_loop(
        "c",
        5_000.0,
        128,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
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
    let spec2 = ClientSpec::open_loop(
        "c",
        5_000.0,
        128,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
    let mut b = ScenarioBuilder::new(10);
    b.warmup(SimDuration::from_millis(200));
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 2,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(10e-6),
        power: Default::default(),
    });
    let s = b.add_service(ServiceModel::new(
        "svc",
        vec![StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(d, 2.6),
        )],
        vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
    ));
    let i = b.add_instance("svc0", s, m, 2, ExecSpec::Simple).unwrap();
    let mut node = PathNodeSpec::request("svc", s, i);
    node.children = vec![PathNodeId::from_raw(1)];
    let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
    let ty = b
        .add_request_type(RequestType::new(
            "get",
            vec![node, sink],
            PathNodeId::from_raw(0),
        ))
        .unwrap();
    let mut spec2 = spec2;
    spec2.mix = RequestMix::single(ty);
    b.add_client(spec2, vec![i]);
    let mut sim2 = b.build().unwrap();
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
    let spec = ClientSpec::open_loop(
        "c",
        2_000.0,
        64,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
    let mut sim = build(spec, 100e-6, 2);
    // The machine is fixed-frequency (2.6 only), so snapping keeps 2.6;
    // use instance freq setter semantics instead via schedule on a DVFS-
    // capable scenario.
    let mut b = ScenarioBuilder::new(3);
    b.warmup(SimDuration::from_millis(100));
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 2,
        dvfs: DvfsSpec::range(1.3, 2.6, 1.3),
        network: NetworkSpec::passthrough(0.0),
        power: Default::default(),
    });
    let s = b.add_service(ServiceModel::new(
        "svc",
        vec![StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(100e-6), 2.6),
        )],
        vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
    ));
    let i = b.add_instance("svc0", s, m, 2, ExecSpec::Simple).unwrap();
    let mut node = PathNodeSpec::request("svc", s, i);
    node.children = vec![PathNodeId::from_raw(1)];
    let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
    let ty = b
        .add_request_type(RequestType::new(
            "get",
            vec![node, sink],
            PathNodeId::from_raw(0),
        ))
        .unwrap();
    b.add_client(ClientSpec::open_loop("c", 1_000.0, 64, ty), vec![i]);
    let mut slow = b.build().unwrap();
    slow.schedule_dvfs(
        uqsim_core::time::SimTime::from_secs_f64(0.0),
        uqsim_core::ids::MachineId::from_raw(0),
        None,
        1.3,
    );
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
    let mut b = ScenarioBuilder::new(6);
    b.warmup(SimDuration::from_millis(100));
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 4,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(5e-6),
        power: Default::default(),
    });
    let s = b.add_service(ServiceModel::new(
        "svc",
        vec![StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::exponential(200e-6), 2.6),
        )],
        vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
    ));
    let front = b.add_instance("front", s, m, 1, ExecSpec::Simple).unwrap();
    let back = b.add_instance("back", s, m, 1, ExecSpec::Simple).unwrap();
    b.add_pool(front, back, 2).unwrap();
    let mut n0 = PathNodeSpec::request("front", s, front);
    n0.children = vec![PathNodeId::from_raw(1)];
    let mut n1 = PathNodeSpec::request("back", s, back);
    n1.children = vec![PathNodeId::from_raw(2)];
    let mut n2 = PathNodeSpec::reply_to_parent("front_reply", s, PathNodeId::from_raw(0));
    n2.children = vec![PathNodeId::from_raw(3)];
    let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
    let ty = b
        .add_request_type(RequestType::new(
            "r",
            vec![n0, n1, n2, sink],
            PathNodeId::from_raw(0),
        ))
        .unwrap();
    b.add_client(ClientSpec::open_loop("c", 6_000.0, 512, ty), vec![front]);
    let mut sim = b.build().unwrap();
    sim.run_for(SimDuration::from_secs(1));
    // The registry's pool gauges, one per pool, labelled `up->down`.
    let reg = sim.metrics_registry();
    let gauges = |name: &str| -> Vec<(String, f64)> {
        reg.metrics()
            .iter()
            .filter(|m| m.name == name)
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
        let mut b = ScenarioBuilder::new(12);
        b.warmup(SimDuration::from_millis(100));
        let m = b.add_machine(MachineSpec {
            name: "m".into(),
            cores: 2,
            dvfs: DvfsSpec::range(1.3, 2.6, 1.3),
            network: NetworkSpec::passthrough(0.0),
            power: uqsim_core::machine::PowerModel {
                idle_w: 2.0,
                dyn_w: 8.0,
            },
        });
        let s = b.add_service(ServiceModel::new(
            "svc",
            vec![StageSpec::new(
                "proc",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::constant(100e-6), 2.6),
            )],
            vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
        ));
        let i = b.add_instance("svc0", s, m, 2, ExecSpec::Simple).unwrap();
        let mut node = PathNodeSpec::request("svc", s, i);
        node.children = vec![PathNodeId::from_raw(1)];
        let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
        let ty = b
            .add_request_type(RequestType::new(
                "get",
                vec![node, sink],
                PathNodeId::from_raw(0),
            ))
            .unwrap();
        b.add_client(ClientSpec::open_loop("c", 1_000.0, 64, ty), vec![i]);
        let mut sim = b.build().unwrap();
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
    use uqsim_core::client::ArrivalProcess;
    // Five arrivals at known instants; generation must stop afterwards.
    let timestamps = vec![0.010, 0.020, 0.025, 0.100, 0.500];
    let mut spec = ClientSpec::open_loop(
        "replay",
        1.0,
        8,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
    spec.arrivals = ArrivalProcess::trace(timestamps.clone());
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
    use uqsim_core::client::ArrivalProcess;
    assert!(ArrivalProcess::trace(vec![]).validate().is_err());
    assert!(ArrivalProcess::trace(vec![1.0, 0.5]).validate().is_err());
    assert!(ArrivalProcess::trace(vec![-1.0]).validate().is_err());
    assert!(ArrivalProcess::trace(vec![0.0, 0.0, 1.0])
        .validate()
        .is_ok());
}

/// A two-request-type scenario (both served by the same instance) for
/// typed-trace replay tests.
fn build_two_types(spec: ClientSpec) -> Simulator {
    let mut b = ScenarioBuilder::new(9);
    b.warmup(SimDuration::ZERO);
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 4,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(10e-6),
        power: Default::default(),
    });
    let s = b.add_service(ServiceModel::new(
        "svc",
        vec![StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(20e-6), 2.6),
        )],
        vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
    ));
    let i = b.add_instance("svc0", s, m, 4, ExecSpec::Simple).unwrap();
    for name in ["alpha", "beta"] {
        let mut node = PathNodeSpec::request(name, s, i);
        node.children = vec![PathNodeId::from_raw(1)];
        let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
        b.add_request_type(RequestType::new(
            name,
            vec![node, sink],
            PathNodeId::from_raw(0),
        ))
        .unwrap();
    }
    b.add_client(spec, vec![i]);
    b.build().unwrap()
}

#[test]
fn typed_trace_dictates_request_types() {
    use uqsim_core::client::ArrivalProcess;
    // 90 arrivals: every third request is a "beta", the rest "alpha" —
    // exactly, not in distribution.
    let n = 90;
    let timestamps: Vec<f64> = (0..n).map(|i| f64::from(i) * 1e-3).collect();
    let types: Vec<String> = (0..n)
        .map(|i| {
            if i % 3 == 2 {
                "beta".into()
            } else {
                "alpha".into()
            }
        })
        .collect();
    let mut spec = ClientSpec::open_loop(
        "replay",
        1.0,
        8,
        uqsim_core::ids::RequestTypeId::from_raw(0),
    );
    spec.arrivals = ArrivalProcess::Trace { timestamps, types };
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
    use uqsim_core::client::ArrivalProcess;
    let mut b = ScenarioBuilder::new(1);
    let m = b.add_machine(MachineSpec {
        name: "m".into(),
        cores: 2,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(10e-6),
        power: Default::default(),
    });
    let s = b.add_service(ServiceModel::new(
        "svc",
        vec![StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(20e-6), 2.6),
        )],
        vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
    ));
    let i = b.add_instance("svc0", s, m, 2, ExecSpec::Simple).unwrap();
    let mut node = PathNodeSpec::request("get", s, i);
    node.children = vec![PathNodeId::from_raw(1)];
    let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
    let ty = b
        .add_request_type(RequestType::new(
            "get",
            vec![node, sink],
            PathNodeId::from_raw(0),
        ))
        .unwrap();
    let mut spec = ClientSpec::open_loop("c", 1.0, 4, ty);
    spec.arrivals = ArrivalProcess::Trace {
        timestamps: vec![0.0, 1e-3],
        types: vec!["get".into(), "nonexistent".into()],
    };
    b.add_client(spec, vec![i]);
    let err = b.build().unwrap_err().to_string();
    assert!(err.contains("nonexistent"), "error names the type: {err}");
}

#[test]
fn oversized_instance_is_a_config_error_not_a_panic() {
    // 65 threads exceed the 64-bit idle mask; the builder must refuse with
    // an error naming the instance instead of panicking (oversized
    // generated scenarios surface cleanly).
    let mut b = ScenarioBuilder::new(1);
    let m = b.add_machine(MachineSpec {
        name: "big".into(),
        cores: 80,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec::passthrough(10e-6),
        power: Default::default(),
    });
    let s = b.add_service(ServiceModel::new(
        "svc",
        vec![StageSpec::new(
            "proc",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(20e-6), 2.6),
        )],
        vec![ExecPath::new("p", vec![StageId::from_raw(0)])],
    ));
    let i = b
        .add_instance(
            "wide0",
            s,
            m,
            4,
            ExecSpec::MultiThreaded {
                threads: 65,
                ctx_switch: SimDuration::from_micros(2),
            },
        )
        .unwrap();
    let mut node = PathNodeSpec::request("get", s, i);
    node.children = vec![PathNodeId::from_raw(1)];
    let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
    let ty = b
        .add_request_type(RequestType::new(
            "get",
            vec![node, sink],
            PathNodeId::from_raw(0),
        ))
        .unwrap();
    b.add_client(ClientSpec::open_loop("c", 100.0, 4, ty), vec![i]);
    let err = b.build().unwrap_err().to_string();
    assert!(
        err.contains("wide0") && err.contains("64"),
        "error names the instance and the limit: {err}"
    );
}
