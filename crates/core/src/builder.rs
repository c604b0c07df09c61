//! Programmatic scenario construction.
//!
//! [`ScenarioBuilder`] is the in-code equivalent of the paper's JSON inputs
//! (Table I): register machines, service models, deployed instances,
//! connection pools, request-type DAGs, and clients, then [`build`] a
//! runnable [`Simulator`]. The JSON front-end in [`crate::config`] lowers
//! parsed files onto this same builder.
//!
//! [`build`]: ScenarioBuilder::build

use crate::client::ClientSpec;
use crate::connection::{Connection, ConnectionPool, UpEndpoint};
use crate::error::{SimError, SimResult};
use crate::event::EventKind;
use crate::ids::{
    ClientId, ConnectionId, InstanceId, MachineId, PoolId, RequestTypeId, ServiceId, ThreadId,
};
use crate::job::{JobArena, RequestArena};
use crate::machine::{Core, CoreOwner, MachineSpec};
use crate::metrics::LatencyRecorder;
use crate::path::{InstanceSelect, NodeTarget, RequestType};
use crate::queue::StageQueue;
use crate::rng::RngFactory;
use crate::service::ServiceModel;
use crate::sim::{ClientRt, ExecModel, InstanceRt, MachineRt, SimConfig, Simulator, ThreadRt};
use crate::time::{SimDuration, SimTime};

/// Execution-model choice for a deployed instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecSpec {
    /// One implicit worker per core, shared stage queues.
    Simple,
    /// `threads` worker threads contending for the instance's cores.
    MultiThreaded {
        /// Number of worker threads.
        threads: usize,
        /// Context-switch penalty when a core changes thread.
        ctx_switch: SimDuration,
    },
}

#[derive(Debug, Clone)]
struct InstanceDef {
    name: String,
    service: ServiceId,
    machine: MachineId,
    cores: usize,
    exec: ExecSpec,
}

#[derive(Debug, Clone)]
struct PoolDef {
    up: InstanceId,
    down: InstanceId,
    size: usize,
}

#[derive(Debug, Clone)]
struct ClientDef {
    spec: ClientSpec,
    roots: Vec<InstanceId>,
}

/// Builder for a complete simulation scenario.
///
/// # Examples
///
/// ```
/// use uqsim_core::builder::{ExecSpec, ScenarioBuilder};
/// use uqsim_core::client::ClientSpec;
/// use uqsim_core::dist::Distribution;
/// use uqsim_core::machine::{MachineSpec, NetworkSpec, DvfsSpec};
/// use uqsim_core::path::{PathNodeSpec, RequestType};
/// use uqsim_core::ids::PathNodeId;
/// use uqsim_core::service::{ExecPath, ServiceModel};
/// use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
/// use uqsim_core::ids::StageId;
/// use uqsim_core::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ScenarioBuilder::new(42);
/// let m = b.add_machine(MachineSpec {
///     name: "m0".into(),
///     cores: 4,
///     dvfs: DvfsSpec::fixed(2.6),
///     network: NetworkSpec::passthrough(10e-6),
///     power: Default::default(),
/// });
/// let svc = b.add_service(ServiceModel::new(
///     "echo",
///     vec![StageSpec::new(
///         "proc",
///         QueueDiscipline::Single,
///         ServiceTimeModel::per_job(Distribution::exponential(100e-6), 2.6),
///     )],
///     vec![ExecPath::new("only", vec![StageId::from_raw(0)])],
/// ));
/// let inst = b.add_instance("echo0", svc, m, 1, ExecSpec::Simple)?;
/// let mut node = PathNodeSpec::request("echo", svc, inst);
/// node.children = vec![PathNodeId::from_raw(1)];
/// let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
/// let ty = b.add_request_type(RequestType::new("echo", vec![node, sink], PathNodeId::from_raw(0)))?;
/// b.add_client(ClientSpec::open_loop("c", 1000.0, 64, ty), vec![inst]);
/// let mut sim = b.build()?;
/// sim.run_for(SimDuration::from_secs(2));
/// assert!(sim.completed() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ScenarioBuilder {
    cfg: SimConfig,
    machines: Vec<MachineSpec>,
    services: Vec<ServiceModel>,
    instances: Vec<InstanceDef>,
    pools: Vec<PoolDef>,
    request_types: Vec<RequestType>,
    clients: Vec<ClientDef>,
}

impl ScenarioBuilder {
    /// Creates a builder with the given master seed.
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            cfg: SimConfig {
                seed,
                ..SimConfig::default()
            },
            machines: Vec::new(),
            services: Vec::new(),
            instances: Vec::new(),
            pools: Vec::new(),
            request_types: Vec::new(),
            clients: Vec::new(),
        }
    }

    /// Sets the latency warmup period (default 1 s).
    pub fn warmup(&mut self, warmup: SimDuration) -> &mut Self {
        self.cfg.warmup = warmup;
        self
    }

    /// Registers a machine.
    pub fn add_machine(&mut self, spec: MachineSpec) -> MachineId {
        let id = MachineId::from_raw(self.machines.len() as u32);
        self.machines.push(spec);
        id
    }

    /// The service models registered so far, indexed by [`ServiceId`].
    pub(crate) fn services(&self) -> &[ServiceModel] {
        &self.services
    }

    /// Registers a reusable service model.
    pub fn add_service(&mut self, model: ServiceModel) -> ServiceId {
        let id = ServiceId::from_raw(self.services.len() as u32);
        self.services.push(model);
        id
    }

    /// Deploys an instance of `service` on `machine` with `cores` dedicated
    /// cores.
    ///
    /// # Errors
    ///
    /// Returns an error if ids are out of range or parameters are zero.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        service: ServiceId,
        machine: MachineId,
        cores: usize,
        exec: ExecSpec,
    ) -> SimResult<InstanceId> {
        let name = name.into();
        if service.index() >= self.services.len() {
            return Err(SimError::UnknownEntity {
                kind: "service",
                name: service.to_string(),
            });
        }
        if machine.index() >= self.machines.len() {
            return Err(SimError::UnknownEntity {
                kind: "machine",
                name: machine.to_string(),
            });
        }
        if cores == 0 {
            return Err(SimError::InvalidScenario(format!(
                "instance {name}: zero cores"
            )));
        }
        if let ExecSpec::MultiThreaded { threads, .. } = exec {
            if threads == 0 {
                return Err(SimError::InvalidScenario(format!(
                    "instance {name}: zero threads"
                )));
            }
        }
        let id = InstanceId::from_raw(self.instances.len() as u32);
        self.instances.push(InstanceDef {
            name,
            service,
            machine,
            cores,
            exec,
        });
        Ok(id)
    }

    /// Creates a fixed-size connection pool from `up` to `down`.
    ///
    /// # Errors
    ///
    /// Returns an error on unknown instances, a zero size, or a duplicate
    /// pool for the same pair.
    pub fn add_pool(&mut self, up: InstanceId, down: InstanceId, size: usize) -> SimResult<PoolId> {
        if up.index() >= self.instances.len() || down.index() >= self.instances.len() {
            return Err(SimError::UnknownEntity {
                kind: "instance",
                name: format!("pool {up} -> {down}"),
            });
        }
        if size == 0 {
            return Err(SimError::InvalidScenario(format!(
                "pool {up} -> {down}: zero size"
            )));
        }
        if self.pools.iter().any(|p| p.up == up && p.down == down) {
            return Err(SimError::InvalidScenario(format!(
                "duplicate pool {up} -> {down}"
            )));
        }
        let id = PoolId::from_raw(self.pools.len() as u32);
        self.pools.push(PoolDef { up, down, size });
        Ok(id)
    }

    /// Registers a request type, validating its DAG.
    ///
    /// # Errors
    ///
    /// Returns an error if the DAG is structurally invalid.
    pub fn add_request_type(&mut self, mut ty: RequestType) -> SimResult<RequestTypeId> {
        ty.validate().map_err(SimError::InvalidScenario)?;
        let id = RequestTypeId::from_raw(self.request_types.len() as u32);
        self.request_types.push(ty);
        Ok(id)
    }

    /// Registers a client whose connections target `roots` round-robin.
    pub fn add_client(&mut self, spec: ClientSpec, roots: Vec<InstanceId>) -> ClientId {
        let id = ClientId::from_raw(self.clients.len() as u32);
        self.clients.push(ClientDef { spec, roots });
        id
    }

    /// Validates everything and constructs the runnable simulator, which
    /// takes over the registered machines, service models, request types
    /// and clients.
    ///
    /// # Errors
    ///
    /// Returns an error on any inconsistency: invalid specs, core
    /// over-subscription, dangling references, or empty scenarios.
    pub fn build(self) -> SimResult<Simulator> {
        if self.instances.is_empty() {
            return Err(SimError::InvalidScenario("no instances deployed".into()));
        }
        for m in &self.machines {
            m.validate().map_err(SimError::InvalidScenario)?;
        }
        for s in &self.services {
            s.validate().map_err(SimError::InvalidScenario)?;
        }
        for c in &self.clients {
            c.spec.validate().map_err(SimError::InvalidScenario)?;
            if c.roots.is_empty() {
                return Err(SimError::InvalidScenario(format!(
                    "client {}: no root instances",
                    c.spec.name
                )));
            }
            for &r in &c.roots {
                if r.index() >= self.instances.len() {
                    return Err(SimError::UnknownEntity {
                        kind: "instance",
                        name: r.to_string(),
                    });
                }
            }
            for &(ty, _) in &c.spec.mix.entries {
                if ty.index() >= self.request_types.len() {
                    return Err(SimError::UnknownEntity {
                        kind: "request type",
                        name: ty.to_string(),
                    });
                }
            }
        }
        self.validate_request_types()?;

        // --- machines & core allocation -------------------------------
        let mut machines: Vec<MachineRt> = self
            .machines
            .into_iter()
            .map(|spec| {
                let cores = (0..spec.cores)
                    .map(|_| Core {
                        freq_ghz: spec.dvfs.max_ghz(),
                        owner: CoreOwner::Free,
                        busy: false,
                        last_thread: None,
                        busy_ns: 0,
                        dyn_energy_j: 0.0,
                    })
                    .collect::<Vec<_>>();
                let irq_cores: Vec<usize> = (0..spec.network.irq_cores).collect();
                let net_slots = vec![None; irq_cores.len()];
                MachineRt {
                    max_ghz: spec.dvfs.max_ghz(),
                    spec,
                    cores,
                    irq_cores,
                    net_queue: std::collections::VecDeque::new(),
                    net_slots,
                }
            })
            .collect();
        for m in &mut machines {
            for &c in &m.irq_cores {
                m.cores[c].owner = CoreOwner::Network;
            }
        }

        // --- instances -------------------------------------------------
        let mut next_free_core: Vec<usize> = machines.iter().map(|m| m.irq_cores.len()).collect();
        let mut instances: Vec<InstanceRt> = Vec::with_capacity(self.instances.len());
        for (idx, def) in self.instances.into_iter().enumerate() {
            let mi = def.machine.index();
            let first = next_free_core[mi];
            let last = first + def.cores;
            if last > machines[mi].cores.len() {
                return Err(SimError::InvalidScenario(format!(
                    "machine {} out of cores for instance {} (needs {}, {} free)",
                    machines[mi].spec.name,
                    def.name,
                    def.cores,
                    machines[mi].cores.len() - first
                )));
            }
            let cores: Vec<usize> = (first..last).collect();
            next_free_core[mi] = last;
            for &c in &cores {
                machines[mi].cores[c].owner = CoreOwner::Instance(idx as u32);
            }
            let svc = &self.services[def.service.index()];
            let (exec, thread_count, shared) = match def.exec {
                ExecSpec::Simple => (ExecModel::Simple, def.cores, true),
                ExecSpec::MultiThreaded {
                    threads,
                    ctx_switch,
                } => (
                    ExecModel::MultiThreaded {
                        ctx_switch_ns: ctx_switch.as_nanos(),
                    },
                    threads,
                    false,
                ),
            };
            let set_count = if shared { 1 } else { thread_count };
            let queue_sets = (0..set_count)
                .map(|_| {
                    crate::queue::StageQueueSet::new(
                        svc.stages
                            .iter()
                            .map(|s| StageQueue::new(s.queue))
                            .collect(),
                    )
                })
                .collect();
            let threads = (0..thread_count)
                .map(|t| ThreadRt {
                    running: None,
                    block_depth: 0,
                    queue_set: if shared { 0 } else { t },
                    held_core: None,
                })
                .collect();
            if thread_count > 64 {
                return Err(SimError::InvalidScenario(format!(
                    "instance {}: {} worker threads exceed the engine's limit of \
                     64 threads per instance (the idle-thread bitmask is one u64); \
                     split the instance or reduce its threads/cores",
                    def.name, thread_count
                )));
            }
            instances.push(InstanceRt {
                name: def.name,
                service: def.service,
                machine: def.machine,
                cores,
                exec,
                idle_mask: if thread_count == 64 {
                    u64::MAX
                } else {
                    (1u64 << thread_count) - 1
                },
                threads,
                queue_sets,
                shared_queues: shared,
                rr_thread: 0,
            });
        }

        // --- connections: pools ---------------------------------------
        let mut conns: Vec<Connection> = Vec::new();
        let mut pools: Vec<ConnectionPool> = Vec::new();
        let mut pool_lookup = crate::fasthash::FastMap::default();
        for (pi, def) in self.pools.iter().enumerate() {
            let pid = PoolId::from_raw(pi as u32);
            let up_threads = instances[def.up.index()].threads.len();
            let down_threads = instances[def.down.index()].threads.len();
            let member_ids: Vec<ConnectionId> = (0..def.size)
                .map(|k| {
                    let id = ConnectionId::from_raw(conns.len() as u32);
                    let mut c = Connection::new(
                        UpEndpoint::Instance {
                            instance: def.up,
                            thread: ThreadId::from_raw((k % up_threads) as u32),
                        },
                        def.down,
                        ThreadId::from_raw((k % down_threads) as u32),
                    );
                    c.pool = Some(pid);
                    conns.push(c);
                    id
                })
                .collect();
            pools.push(ConnectionPool::new(def.up, def.down, member_ids, &conns));
            pool_lookup.insert((def.up.raw(), def.down.raw()), pid);
        }

        // --- connections: clients --------------------------------------
        let factory = RngFactory::new(self.cfg.seed);
        let mut clients: Vec<ClientRt> = Vec::new();
        for (ci, def) in self.clients.into_iter().enumerate() {
            let mut ids = Vec::with_capacity(def.spec.connections);
            for k in 0..def.spec.connections {
                let root = def.roots[k % def.roots.len()];
                let down_threads = instances[root.index()].threads.len();
                let id = ConnectionId::from_raw(conns.len() as u32);
                conns.push(Connection::new(
                    UpEndpoint::Client(ClientId::from_raw(ci as u32)),
                    root,
                    ThreadId::from_raw((k % down_threads) as u32),
                ));
                ids.push(id);
            }
            // Stateful (bursty) processes get their own "burst" rng
            // sub-stream; typed traces resolve request-type names here,
            // where the graph is known.
            let mut arrival = def.spec.arrivals.runtime(&factory, ci as u64);
            if let crate::client::ArrivalProcess::Trace { types, .. } = &def.spec.arrivals {
                arrival.trace_types = types
                    .iter()
                    .map(|n| {
                        self.request_types
                            .iter()
                            .position(|t| t.name == *n)
                            .map(|i| RequestTypeId::from_raw(i as u32))
                            .ok_or_else(|| SimError::UnknownEntity {
                                kind: "request type",
                                name: format!("{n} (trace of client {})", def.spec.name),
                            })
                    })
                    .collect::<SimResult<Vec<_>>>()?;
            }
            clients.push(ClientRt {
                spec: def.spec,
                conns: ids,
                next_conn: 0,
                issued: 0,
                arrival,
            });
        }

        // --- request type metadata -------------------------------------
        let unblocks_thread: Vec<Vec<bool>> = self
            .request_types
            .iter()
            .map(|ty| {
                let mut v = vec![false; ty.nodes.len()];
                for node in &ty.nodes {
                    if let Some(u) = node.block_thread_until {
                        v[u.index()] = true;
                    }
                }
                v
            })
            .collect();
        let rr_instance: Vec<Vec<usize>> = self
            .request_types
            .iter()
            .map(|ty| vec![0; ty.nodes.len()])
            .collect();

        // --- rng streams & metrics -------------------------------------
        let warmup_at = SimTime::ZERO + self.cfg.warmup;
        let n_instances = instances.len();
        let mut sim = Simulator {
            cfg: self.cfg,
            now: SimTime::ZERO,
            events: crate::event::EventQueue::new(),
            rng_service: factory.stream("service", 0),
            rng_arrival: factory.stream("arrival", 0),
            rng_path: factory.stream("path", 0),
            rng_network: factory.stream("network", 0),
            machines,
            services: self.services,
            instances,
            conns,
            pools,
            pool_lookup,
            eph_free: crate::fasthash::FastMap::default(),
            request_types: self.request_types,
            unblocks_thread,
            rr_instance,
            clients,
            requests: RequestArena::new(),
            jobs: JobArena::new(),
            batch_pool: Vec::new(),
            controllers: Vec::new(),
            e2e: LatencyRecorder::new(warmup_at),
            interval_e2e: Vec::new(),
            interval_instance: vec![Vec::new(); n_instances],
            generated: 0,
            completed: 0,
            timeouts: 0,
            completed_after_timeout: 0,
            events_processed: 0,
            stopped: false,
            span_log: None,
            telemetry: None,
            util_checkpoints: Vec::new(),
            fault: None,
            dropped: 0,
            shed: 0,
            retried: 0,
            degraded: 0,
            degraded_measured: 0,
            resolved_pending: 0,
            e2e_timeout: LatencyRecorder::new(warmup_at),
        };
        // A one-shot utilization checkpoint at the warmup boundary, so
        // `*_utilization_since(warmup_at)` works whether or not the
        // periodic sampler is enabled. Scheduled unconditionally to keep
        // event counts identical across telemetry on/off runs.
        sim.events
            .schedule(warmup_at, EventKind::TelemetrySample { recurring: false });

        // Kick off the clients: one pending arrival per open-loop client,
        // one per user for closed-loop clients.
        for ci in 0..sim.clients.len() {
            let client = ClientId::from_raw(ci as u32);
            match sim.clients[ci].spec.closed_loop.clone() {
                None => {
                    let first = {
                        let ClientRt { spec, arrival, .. } = &mut sim.clients[ci];
                        spec.arrivals
                            .first_arrival_rt(arrival, &mut sim.rng_arrival)
                    };
                    if let Some(first) = first {
                        sim.events
                            .schedule(SimTime::ZERO + first, EventKind::ClientArrival { client });
                    }
                }
                Some(cl) => {
                    for _ in 0..cl.users {
                        let think = cl.think_time.sample(&mut sim.rng_arrival);
                        sim.events.schedule(
                            SimTime::ZERO + SimDuration::from_secs_f64(think),
                            EventKind::ClientArrival { client },
                        );
                    }
                }
            }
        }
        Ok(sim)
    }

    fn validate_request_types(&self) -> SimResult<()> {
        for ty in &self.request_types {
            for (ni, node) in ty.nodes.iter().enumerate() {
                if let NodeTarget::Service {
                    service, instance, ..
                } = &node.target
                {
                    if service.index() >= self.services.len() {
                        return Err(SimError::UnknownEntity {
                            kind: "service",
                            name: service.to_string(),
                        });
                    }
                    let check_inst = |i: InstanceId| -> SimResult<()> {
                        let def = self
                            .instances
                            .get(i.index())
                            .ok_or(SimError::UnknownEntity {
                                kind: "instance",
                                name: i.to_string(),
                            })?;
                        if def.service != *service {
                            return Err(SimError::InvalidScenario(format!(
                                "request type {}: node {} targets service {} but instance {} runs {}",
                                ty.name, node.name, service, i, def.service
                            )));
                        }
                        Ok(())
                    };
                    match instance {
                        InstanceSelect::Fixed { instance } => check_inst(*instance)?,
                        InstanceSelect::RoundRobin { instances } => {
                            if instances.is_empty() {
                                return Err(SimError::InvalidScenario(format!(
                                    "request type {}: node {} has empty round-robin set",
                                    ty.name, node.name
                                )));
                            }
                            for &i in instances {
                                check_inst(i)?;
                            }
                        }
                        InstanceSelect::SameAsNode { node: n } => {
                            if n.index() >= ty.nodes.len() {
                                return Err(SimError::InvalidScenario(format!(
                                    "request type {}: node {} references missing node",
                                    ty.name, node.name
                                )));
                            }
                        }
                    }
                    if let NodeTarget::Service {
                        exec_path: crate::path::PathSelect::Fixed { index },
                        ..
                    } = &node.target
                    {
                        if *index >= self.services[service.index()].paths.len() {
                            return Err(SimError::InvalidScenario(format!(
                                "request type {}: node {} exec path {} out of range",
                                ty.name, node.name, index
                            )));
                        }
                    }
                }
                for n in [node.block_thread_until, node.pin_thread_of]
                    .into_iter()
                    .flatten()
                {
                    if n.index() >= ty.nodes.len() {
                        return Err(SimError::InvalidScenario(format!(
                            "request type {}: node {ni} references missing node {n}",
                            ty.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::ids::{PathNodeId, StageId};
    use crate::machine::{DvfsSpec, NetworkSpec};
    use crate::path::PathNodeSpec;
    use crate::service::ExecPath;
    use crate::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};

    fn simple_machine(cores: usize) -> MachineSpec {
        MachineSpec {
            name: "m".into(),
            cores,
            dvfs: DvfsSpec::fixed(2.6),
            network: NetworkSpec::passthrough(0.0),
            power: Default::default(),
        }
    }

    fn single_stage_service(mean_s: f64) -> ServiceModel {
        ServiceModel::new(
            "svc",
            vec![StageSpec::new(
                "proc",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::exponential(mean_s), 2.6),
            )],
            vec![ExecPath::new("only", vec![StageId::from_raw(0)])],
        )
    }

    /// One machine, one single-stage instance, one client.
    fn echo_scenario(qps: f64, svc_mean: f64, seed: u64) -> Simulator {
        let mut b = ScenarioBuilder::new(seed);
        b.warmup(SimDuration::from_millis(500));
        let m = b.add_machine(simple_machine(4));
        let svc = b.add_service(single_stage_service(svc_mean));
        let inst = b.add_instance("svc0", svc, m, 1, ExecSpec::Simple).unwrap();
        let mut node = PathNodeSpec::request("svc", svc, inst);
        node.children = vec![PathNodeId::from_raw(1)];
        let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
        let ty = b
            .add_request_type(RequestType::new(
                "echo",
                vec![node, sink],
                PathNodeId::from_raw(0),
            ))
            .unwrap();
        b.add_client(ClientSpec::open_loop("c", qps, 10_000, ty), vec![inst]);
        b.build().unwrap()
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
        let u = sim.instance_utilization_since(InstanceId::from_raw(0), SimTime::ZERO);
        assert!((u - 0.5).abs() < 0.05, "utilization {u}");
    }

    #[test]
    fn build_rejects_core_oversubscription() {
        let mut b = ScenarioBuilder::new(1);
        let m = b.add_machine(simple_machine(2));
        let svc = b.add_service(single_stage_service(1e-4));
        b.add_instance("a", svc, m, 2, ExecSpec::Simple).unwrap();
        b.add_instance("b", svc, m, 1, ExecSpec::Simple).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn build_rejects_wrong_service_instance() {
        let mut b = ScenarioBuilder::new(1);
        let m = b.add_machine(simple_machine(4));
        let svc_a = b.add_service(single_stage_service(1e-4));
        let svc_b = b.add_service(single_stage_service(1e-4));
        let inst_a = b.add_instance("a", svc_a, m, 1, ExecSpec::Simple).unwrap();
        // Node claims service B but targets an instance of service A.
        let mut node = PathNodeSpec::request("x", svc_b, inst_a);
        node.children = vec![PathNodeId::from_raw(1)];
        let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
        let ty = b
            .add_request_type(RequestType::new(
                "t",
                vec![node, sink],
                PathNodeId::from_raw(0),
            ))
            .unwrap();
        b.add_client(ClientSpec::open_loop("c", 100.0, 8, ty), vec![inst_a]);
        assert!(b.build().is_err());
    }

    #[test]
    fn build_rejects_empty_scenario() {
        let b = ScenarioBuilder::new(1);
        assert!(b.build().is_err());
    }

    #[test]
    fn instance_lookup_by_name() {
        let sim = echo_scenario(100.0, 1e-4, 3);
        assert_eq!(sim.instance_by_name("svc0"), Some(InstanceId::from_raw(0)));
        assert_eq!(sim.instance_by_name("nope"), None);
    }
}
