//! From a resolved scenario to a runnable [`Simulator`].
//!
//! [`ScenarioConfig::build`] and [`ScenarioConfig::into_simulator`] resolve
//! the configuration's names ([`ScenarioConfig::resolve`](crate::config))
//! and hand the configuration and its [`Resolved`] references to [`build`],
//! which checks every value the names leave unchecked and then allocates
//! the runtime state. Every count that sizes an allocation — cores, worker
//! threads, connections — is checked before the allocation is made.

use crate::client::{ClientSpec, RequestMix};
use crate::config::{seconds, ExecConfig, Resolved, ScenarioConfig, CLIENT, GRAPH, MACHINES, SIM};
use crate::connection::{Connection, ConnectionPool, UpEndpoint};
use crate::error::{SimError, SimResult};
use crate::ids::{ClientId, ConnectionId, MachineId, PoolId, ServiceId, ThreadId};
use crate::path::{InstanceSelect, NodeTarget, RequestType};
use crate::rng::RngFactory;
use crate::sim::{ExecModel, Instances, Machines, Paths, SimConfig, Simulator};

/// Checks `cfg` and builds its simulator, which takes over the machines,
/// service models and clients. `names` is `cfg` resolved and supplies the
/// pools and request types; `cfg`'s own are not read.
///
/// # Errors
///
/// Returns an error on any inconsistency the names leave: zero or
/// oversized counts, bad durations, invalid specs or request types, a node
/// whose instance runs another service, core over-subscription, or an
/// empty scenario.
pub(crate) fn build(cfg: ScenarioConfig, names: Resolved) -> SimResult<Simulator> {
    let ScenarioConfig {
        seed,
        warmup_s,
        machines,
        services,
        instances,
        pools: pools_by_name,
        request_types: types_by_name,
        clients,
    } = cfg;
    // `names` has both over ids.
    drop((pools_by_name, types_by_name));
    let Resolved {
        instances: placed,
        pools,
        mut request_types,
        clients: mut client_refs,
    } = names;
    let warmup = seconds(SIM, || "warmup_s".into(), warmup_s)?;

    // --- checks, before anything is allocated -------------------------
    let mut execs = Vec::with_capacity(instances.len());
    for (i, inst) in instances.iter().enumerate() {
        if inst.cores == 0 {
            return Err(SimError::InvalidScenario(format!(
                "instance {}: zero cores",
                inst.name
            )));
        }
        execs.push(match inst.exec {
            ExecConfig::Simple => (ExecModel::Simple, inst.cores),
            ExecConfig::MultiThreaded {
                threads,
                ctx_switch_s,
            } => {
                if threads == 0 {
                    return Err(SimError::InvalidScenario(format!(
                        "instance {}: zero threads",
                        inst.name
                    )));
                }
                let key = || format!("instances[{i}].exec.threads");
                number(&mut 0, threads, "threads", GRAPH, key)?;
                let key = || format!("instances[{i}].exec.ctx_switch_s");
                let ctx_switch_ns = seconds(GRAPH, key, ctx_switch_s)?.as_nanos();
                (ExecModel::MultiThreaded { ctx_switch_ns }, threads)
            }
        });
    }
    let mut connections = 0;
    let mut pool_lookup = crate::fasthash::FastMap::default();
    for (p, &(up, down, size)) in pools.iter().enumerate() {
        if size == 0 {
            return Err(SimError::InvalidScenario(format!(
                "pool {up} -> {down}: zero size"
            )));
        }
        let pid = PoolId::from_raw(p as u32);
        if pool_lookup.insert((up.raw(), down.raw()), pid).is_some() {
            return Err(SimError::InvalidScenario(format!(
                "duplicate pool {up} -> {down}"
            )));
        }
        let key = || format!("pools[{p}].size");
        number(&mut connections, size, "connections", GRAPH, key)?;
    }
    for ty in &mut request_types {
        ty.validate().map_err(SimError::InvalidScenario)?;
    }
    if instances.is_empty() {
        return Err(SimError::InvalidScenario("no instances deployed".into()));
    }
    for (m, spec) in machines.iter().enumerate() {
        spec.validate().map_err(SimError::InvalidScenario)?;
        let key = || format!("machines[{m}].cores");
        number(&mut 0, spec.cores, "cores", MACHINES, key)?;
    }
    for s in &services {
        s.validate().map_err(SimError::InvalidScenario)?;
    }
    // Clients are checked as they are lowered; their connections come
    // once the instances they open them to exist.
    let factory = RngFactory::new(seed);
    let mut client_rts = Vec::with_capacity(clients.len());
    for (c, (client, refs)) in clients.into_iter().zip(&mut client_refs).enumerate() {
        let mix = std::mem::take(&mut refs.mix);
        // `RequestMix::weighted` normalizes by the total weight.
        let total: f64 = mix.iter().map(|e| e.1).sum();
        if mix.is_empty() || !(total.is_finite() && total > 0.0) {
            return Err(SimError::InvalidScenario(format!(
                "client {}: request mix weights must sum to a positive number, got {:?}",
                client.name,
                mix.iter().map(|e| e.1).collect::<Vec<_>>()
            )));
        }
        let spec = ClientSpec {
            name: client.name,
            connections: client.connections,
            arrivals: client.arrivals,
            mix: RequestMix::weighted(mix),
            request_size: client.request_size,
            closed_loop: client.closed_loop,
            timeout_s: client.timeout_s,
        };
        spec.validate().map_err(SimError::InvalidScenario)?;
        spec.arrivals
            .check_rates()
            .map_err(|detail| SimError::Config {
                source_name: CLIENT.into(),
                detail: format!("clients[{c}].arrivals.{detail}"),
            })?;
        if refs.roots.is_empty() {
            return Err(SimError::InvalidScenario(format!(
                "client {}: no root instances",
                spec.name
            )));
        }
        let key = || format!("clients[{c}].connections");
        number(
            &mut connections,
            spec.connections,
            "connections",
            CLIENT,
            key,
        )?;
        if let Some(t) = spec.timeout_s {
            seconds(CLIENT, || format!("clients[{c}].timeout_s"), t)?;
        }
        // Stateful (bursty) processes get their own "burst" rng
        // sub-stream; a typed trace replays its resolved request types.
        let mut arrival = spec.arrivals.runtime(&factory, c as u64);
        arrival.trace_types = std::mem::take(&mut refs.trace_types);
        client_rts.push((spec, arrival, Vec::new()));
    }
    check_targets(&request_types, &placed)?;

    // --- machines & core allocation -------------------------------
    let mut machines = Machines::new(machines);

    // --- instances -------------------------------------------------
    let mut next_free_core: Vec<usize> =
        (0..machines.len()).map(|m| machines.irq_count(m)).collect();
    let mut deployed_rts = Vec::with_capacity(instances.len());
    let deployed = instances.into_iter().zip(&placed).zip(execs);
    for (idx, ((inst, &(service, machine)), (exec, thread_count))) in deployed.enumerate() {
        let mi = machine.index();
        let first = next_free_core[mi];
        let free = machines.cores(mi).len() - first;
        if inst.cores > free {
            return Err(SimError::InvalidScenario(format!(
                "machine {} out of cores for instance {} (needs {}, {free} free)",
                machines.name(mi),
                inst.name,
                inst.cores
            )));
        }
        if thread_count > 64 {
            return Err(SimError::InvalidScenario(format!(
                "instance {}: {} worker threads exceed the engine's limit of \
                 64 threads per instance (the idle-thread bitmask is one u64); \
                 split the instance or reduce its threads/cores",
                inst.name, thread_count
            )));
        }
        let last = first + inst.cores;
        let cores: Vec<usize> = (first..last).collect();
        next_free_core[mi] = last;
        machines.claim(mi, &cores, idx as u32);
        deployed_rts.push((inst.name, service, machine, cores, exec, thread_count));
    }
    let mut instances = Instances::new(services);
    for (name, service, machine, cores, exec, threads) in deployed_rts {
        instances.deploy(name, service, machine, cores, exec, threads);
    }

    // --- connections: pools ---------------------------------------
    let mut conns: Vec<Connection> = Vec::new();
    let mut pools_rt: Vec<ConnectionPool> = Vec::with_capacity(pools.len());
    for (pi, &(up, down, size)) in pools.iter().enumerate() {
        let pid = PoolId::from_raw(pi as u32);
        let up_threads = instances.thread_count(up.index());
        let down_threads = instances.thread_count(down.index());
        let member_ids: Vec<ConnectionId> = (0..size)
            .map(|k| {
                let id = ConnectionId::from_raw(conns.len() as u32);
                let mut c = Connection::new(
                    UpEndpoint::Instance {
                        instance: up,
                        thread: ThreadId::from_raw((k % up_threads) as u32),
                    },
                    down,
                    ThreadId::from_raw((k % down_threads) as u32),
                );
                c.pool = Some(pid);
                conns.push(c);
                id
            })
            .collect();
        pools_rt.push(ConnectionPool::new(up, down, member_ids, &conns));
    }

    // --- connections: clients --------------------------------------
    for (ci, ((spec, _, client_conns), refs)) in client_rts.iter_mut().zip(&client_refs).enumerate()
    {
        let roots = &refs.roots;
        *client_conns = (0..spec.connections)
            .map(|k| {
                let root = roots[k % roots.len()];
                let down_threads = instances.thread_count(root.index());
                let id = ConnectionId::from_raw(conns.len() as u32);
                conns.push(Connection::new(
                    UpEndpoint::Client(ClientId::from_raw(ci as u32)),
                    root,
                    ThreadId::from_raw((k % down_threads) as u32),
                ));
                id
            })
            .collect();
    }

    Ok(Simulator::new(
        SimConfig { seed, warmup },
        machines,
        instances,
        Paths::new(request_types, conns, pools_rt, pool_lookup),
        client_rts,
    ))
}

/// Counts `n` more `what` into the `total` numbered so far, or returns
/// the error for the key `key()` of `file` when they would not fit the
/// `u32` ids they are numbered with.
fn number(
    total: &mut u64,
    n: usize,
    what: &str,
    file: &str,
    key: impl FnOnce() -> String,
) -> SimResult<()> {
    *total = total.saturating_add(n as u64);
    if *total <= u64::from(u32::MAX) {
        return Ok(());
    }
    Err(SimError::Config {
        source_name: file.into(),
        detail: format!(
            "{}: {n} {what} would number past the last id, {}",
            key(),
            u32::MAX
        ),
    })
}

/// Checks that every service node targets instances of its own service,
/// and that a round-robin selector has someone to choose.
fn check_targets(
    request_types: &[RequestType],
    placed: &[(ServiceId, MachineId)],
) -> SimResult<()> {
    for ty in request_types {
        for node in &ty.nodes {
            let NodeTarget::Service {
                service, instance, ..
            } = &node.target
            else {
                continue;
            };
            let candidates = match instance {
                InstanceSelect::Fixed { instance } => std::slice::from_ref(instance),
                InstanceSelect::RoundRobin { instances } => {
                    if instances.is_empty() {
                        return Err(SimError::InvalidScenario(format!(
                            "request type {}: node {} has empty round-robin set",
                            ty.name, node.name
                        )));
                    }
                    instances.as_slice()
                }
                InstanceSelect::SameAsNode { .. } => &[],
            };
            for &i in candidates {
                let runs = placed[i.index()].0;
                if runs != *service {
                    return Err(SimError::InvalidScenario(format!(
                        "request type {}: node {} targets service {} but instance {} runs {}",
                        ty.name, node.name, service, i, runs
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::{
        ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, PathNodeConfig,
        RequestTypeConfig, ScenarioConfig,
    };
    use crate::dist::Distribution;
    use crate::ids::{InstanceId, StageId};
    use crate::machine::{DvfsSpec, MachineSpec, NetworkSpec};
    use crate::service::{ExecPath, ServiceModel};
    use crate::sim::Simulator;
    use crate::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
    use crate::time::SimDuration;

    fn simple_machine(cores: usize) -> MachineSpec {
        MachineSpec {
            name: "m".into(),
            cores,
            dvfs: DvfsSpec::fixed(2.6),
            network: NetworkSpec::passthrough(0.0),
            power: Default::default(),
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
            vec![ExecPath::new("only", vec![StageId::from_raw(0)])],
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

    /// A request type `name`: node `node` of `service` on `instance`, then
    /// the client sink.
    fn one_hop(name: &str, node: &str, service: &str, instance: &str) -> RequestTypeConfig {
        let fixed = InstanceSelectConfig::Fixed {
            name: instance.into(),
        };
        let mut front = PathNodeConfig::service(node, service, fixed, "only");
        front.children = vec!["client_sink".into()];
        RequestTypeConfig {
            name: name.into(),
            nodes: vec![front, PathNodeConfig::client_sink(node)],
        }
    }

    /// A scenario on one machine `m` with the default 1 s warm-up.
    fn scenario(
        seed: u64,
        machine: MachineSpec,
        services: Vec<ServiceModel>,
        instances: Vec<InstanceConfig>,
    ) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            warmup_s: 1.0,
            machines: vec![machine],
            services,
            instances,
            pools: Vec::new(),
            request_types: Vec::new(),
            clients: Vec::new(),
        }
    }

    /// One machine, one single-stage instance, one client.
    fn echo_scenario(qps: f64, svc_mean: f64, seed: u64) -> Simulator {
        let mut cfg = scenario(
            seed,
            simple_machine(4),
            vec![single_stage_service("svc", svc_mean)],
            vec![instance("svc0", "svc", 1)],
        );
        cfg.warmup_s = 0.5;
        cfg.request_types = vec![one_hop("echo", "svc", "svc", "svc0")];
        cfg.clients = vec![ClientConfig::open_loop("c", qps, 10_000, "echo", "svc0")];
        cfg.build().unwrap()
    }

    #[test]
    fn echo_requests_complete() {
        let mut sim = echo_scenario(1_000.0, 100e-6, 7);
        sim.run_for(SimDuration::from_secs(3));
        assert!(sim.completed() > 2_000, "completed {}", sim.completed());
        let s = sim.latency_summary();
        assert!(s.count > 0);
        assert!(s.mean > 0.0);
        // Open-loop throughput matches the offered load (±5%).
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 1000.0).abs() / 1000.0 < 0.05, "throughput {tput}");
    }

    #[test]
    fn mm1_mean_latency_matches_theory() {
        // M/M/1: W = 1/(mu - lambda). lambda = 5k, mu = 10k => W = 200us.
        let mut sim = echo_scenario(5_000.0, 100e-6, 11);
        sim.run_for(SimDuration::from_secs(20));
        let s = sim.latency_summary();
        let expect = 1.0 / (10_000.0 - 5_000.0);
        assert!(
            (s.mean - expect).abs() / expect < 0.08,
            "mean {} vs theory {expect}",
            s.mean
        );
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed| {
            let mut sim = echo_scenario(2_000.0, 100e-6, seed);
            sim.run_for(SimDuration::from_secs(2));
            (sim.completed(), format!("{:?}", sim.latency_summary()))
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1, run(6).1, "different seeds should differ");
    }

    #[test]
    fn no_leaks_after_run() {
        let mut sim = echo_scenario(3_000.0, 100e-6, 13);
        sim.run_for(SimDuration::from_secs(2));
        // In-flight requests are bounded by the connection count.
        assert!(sim.live_requests() <= 10_000);
        assert!(sim.generated() >= sim.completed());
        let inflight = sim.generated() - sim.completed();
        assert_eq!(inflight as usize, sim.live_requests());
    }

    #[test]
    fn utilization_matches_rho() {
        let mut sim = echo_scenario(5_000.0, 100e-6, 17);
        sim.run_for(SimDuration::from_secs(10));
        let u = sim.instance_utilization(InstanceId::from_raw(0));
        assert!((u - 0.5).abs() < 0.05, "utilization {u}");
    }

    #[test]
    fn build_rejects_core_oversubscription() {
        let cfg = scenario(
            1,
            simple_machine(2),
            vec![single_stage_service("svc", 1e-4)],
            vec![instance("a", "svc", 2), instance("b", "svc", 1)],
        );
        assert!(cfg.build().is_err());
    }

    #[test]
    fn build_rejects_wrong_service_instance() {
        let mut cfg = scenario(
            1,
            simple_machine(4),
            vec![
                single_stage_service("svc_a", 1e-4),
                single_stage_service("svc_b", 1e-4),
            ],
            vec![instance("a", "svc_a", 1)],
        );
        // Node claims service B but targets an instance of service A.
        cfg.request_types = vec![one_hop("t", "x", "svc_b", "a")];
        cfg.clients = vec![ClientConfig::open_loop("c", 100.0, 8, "t", "a")];
        assert!(cfg.build().is_err());
    }

    #[test]
    fn build_rejects_empty_scenario() {
        let mut cfg = scenario(1, simple_machine(1), Vec::new(), Vec::new());
        cfg.machines.clear();
        assert!(cfg.build().is_err());
    }

    #[test]
    fn instance_lookup_by_name() {
        let sim = echo_scenario(100.0, 1e-4, 3);
        assert_eq!(sim.instance_by_name("svc0"), Some(InstanceId::from_raw(0)));
        assert_eq!(sim.instance_by_name("nope"), None);
    }
}
