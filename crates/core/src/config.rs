//! Declarative JSON configuration (the paper's Table I inputs).
//!
//! µqSim's user interface is a set of JSON files: `service.json` (one per
//! microservice model), `machines.json`, `graph.json` (deployment),
//! `path.json` (request DAGs), and `client.json` (load). This module defines
//! serde mirrors of those inputs and the [`ScenarioConfig`] that holds them
//! all — the one way to describe a scenario, whether it is written in code
//! or read from files.
//!
//! Names (strings) are used for cross-references in the files and resolved
//! to ids at build time, in one place (`ScenarioConfig::resolve`) that the
//! partitioner shares, so a dangling name is the same error — naming the
//! file and key — from every caller.

use crate::client::ArrivalProcess;
use crate::error::{SimError, SimResult};
use crate::fasthash::FastMap;
use crate::ids::{InstanceId, MachineId, PathNodeId, RequestTypeId, ServiceId};
use crate::machine::MachineSpec;
use crate::path::{
    FanInPolicy, InstanceSelect, LinkKind, NodeTarget, PathNodeSpec, PathSelect, RequestType,
};
use crate::service::ServiceModel;
use crate::sim::Simulator;
use crate::time::SimDuration;
use serde::{Deserialize, Interner, Serialize};
use std::fmt::Display;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// An entity name, or a reference to one by name: shared and immutable, so
/// a copy of a scenario (a clone, a cell of a split, a re-seeded or
/// re-scaled run) shares every name with the original instead of
/// allocating it again. Reading a scenario allocates each distinct name in
/// it once ([`serde::Source`] interns string values).
pub type Name = Arc<str>;

/// `graph.json`: one deployed instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// Instance name (referenced by paths and pools).
    pub name: Name,
    /// Service model name.
    pub service: Name,
    /// Machine name.
    pub machine: Name,
    /// Dedicated cores.
    pub cores: usize,
    /// Execution model.
    pub exec: ExecConfig,
}

/// Execution-model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ExecConfig {
    /// One worker per core, shared queues.
    Simple,
    /// Explicit threads with a context-switch cost.
    MultiThreaded {
        /// Worker thread count.
        threads: usize,
        /// Context-switch overhead, seconds.
        #[serde(default)]
        ctx_switch_s: f64,
    },
}

/// `graph.json`: one connection pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Upstream instance name.
    pub up: Name,
    /// Downstream instance name.
    pub down: Name,
    /// Pool size (connections).
    pub size: usize,
}

/// `path.json`: one node of a request DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathNodeConfig {
    /// Node name (unique within the request type).
    pub name: Name,
    /// Target: `{"type": "client_sink"}` or a service execution.
    pub target: NodeTargetConfig,
    /// Child node names.
    #[serde(default)]
    pub children: Vec<Name>,
    /// Link kind: `request` (default), `reply_to_parent`, or
    /// `{"reply": "<node>"}`.
    #[serde(default)]
    pub link: LinkConfig,
    /// Hold the executing thread until the named node arrives back.
    #[serde(default)]
    pub block_thread_until: Option<Name>,
    /// Execute on the same thread as the named node.
    #[serde(default)]
    pub pin_thread_of: Option<Name>,
    /// Fan-in firing policy at this node: `{"type": "all"}` (default),
    /// `{"type": "quorum", "k": 2}`, or `{"type": "best_effort"}`.
    #[serde(default)]
    pub fan_in_policy: FanInPolicy,
}

impl PathNodeConfig {
    /// A node running `exec_path` of `service` on the selected instance,
    /// entered by a fresh request; wire its `children` (and a reply `link`,
    /// blocking or pinning) through the public fields.
    pub fn service(
        name: impl Into<Name>,
        service: impl Into<Name>,
        instance: InstanceSelectConfig,
        exec_path: impl Into<Name>,
    ) -> Self {
        PathNodeConfig {
            name: name.into(),
            target: NodeTargetConfig::Service {
                service: service.into(),
                instance,
                exec_path: Some(exec_path.into()),
            },
            children: Vec::new(),
            link: LinkConfig::Request,
            block_thread_until: None,
            pin_thread_of: None,
            fan_in_policy: FanInPolicy::All,
        }
    }

    /// The terminal client sink (named `client_sink`), replying on the
    /// connection that entered `root` — the client's own connection.
    pub fn client_sink(root: impl Into<Name>) -> Self {
        PathNodeConfig {
            name: "client_sink".into(),
            target: NodeTargetConfig::ClientSink,
            children: Vec::new(),
            link: LinkConfig::Reply { of: root.into() },
            block_thread_until: None,
            pin_thread_of: None,
            fan_in_policy: FanInPolicy::All,
        }
    }
}

/// Target configuration for a path node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum NodeTargetConfig {
    /// Run on an instance of a service.
    Service {
        /// Service name (for validation).
        service: Name,
        /// Instance selection.
        instance: InstanceSelectConfig,
        /// Execution path name within the service, or `null` for
        /// probabilistic selection.
        #[serde(default)]
        exec_path: Option<Name>,
    },
    /// The client sink.
    ClientSink,
}

/// Instance selection configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum InstanceSelectConfig {
    /// A fixed instance by name.
    Fixed {
        /// Instance name.
        name: Name,
    },
    /// Round-robin over named instances.
    RoundRobin {
        /// Instance names.
        names: Vec<Name>,
    },
    /// Same instance as an earlier node.
    SameAsNode {
        /// Node name.
        node: Name,
    },
}

/// Link configuration.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum LinkConfig {
    /// Fresh request edge.
    #[default]
    Request,
    /// Reply on the sending parent's entry connection.
    ReplyToParent,
    /// Reply on the named node's entry connection.
    Reply {
        /// Node name.
        of: Name,
    },
    /// Per-parent reply routing: `(parent node name, entry-connection node
    /// name)` pairs.
    ReplyVia {
        /// The routing map.
        entries: Vec<(Name, Name)>,
    },
}

/// `path.json`: one request type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTypeConfig {
    /// Request type name.
    pub name: Name,
    /// Nodes; the first is the root.
    pub nodes: Vec<PathNodeConfig>,
}

/// `client.json`: one workload client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Client name.
    pub name: Name,
    /// Connection count.
    pub connections: usize,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// `(request type name, weight)` mix.
    pub mix: Vec<(Name, f64)>,
    /// Root instance names the client connects to.
    pub roots: Vec<Name>,
    /// Request payload sizes in bytes (defaults to 512-byte constants).
    #[serde(default = "default_request_size")]
    pub request_size: crate::dist::Distribution,
    /// Closed-loop operation (overrides `arrivals`).
    #[serde(default)]
    pub closed_loop: Option<crate::client::ClosedLoop>,
    /// Client-side timeout, seconds.
    #[serde(default)]
    pub timeout_s: Option<f64>,
}

fn default_request_size() -> crate::dist::Distribution {
    crate::dist::Distribution::constant(512.0)
}

impl ClientConfig {
    /// An open-loop Poisson client at `qps` issuing one request type to one
    /// root instance: 512-byte requests, no timeout.
    pub fn open_loop(
        name: impl Into<Name>,
        qps: f64,
        connections: usize,
        request_type: impl Into<Name>,
        root: impl Into<Name>,
    ) -> Self {
        ClientConfig {
            name: name.into(),
            connections,
            arrivals: ArrivalProcess::poisson(qps),
            mix: vec![(request_type.into(), 1.0)],
            roots: vec![root.into()],
            request_size: default_request_size(),
            closed_loop: None,
            timeout_s: None,
        }
    }
}

/// The complete scenario: the union of all of Table I's inputs.
///
/// Reading one rejects a key it does not have, naming the nearest one it
/// does — except `window_s`, which once switched on a windowed latency
/// recorder and is accepted and ignored.
///
/// # Examples
///
/// A scenario written in code is the same data, named the same way:
///
/// ```
/// use uqsim_core::config::{
///     ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, PathNodeConfig,
///     RequestTypeConfig, ScenarioConfig,
/// };
/// use uqsim_core::dist::Distribution;
/// use uqsim_core::ids::StageId;
/// use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
/// use uqsim_core::service::{ExecPath, ServiceModel};
/// use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
/// use uqsim_core::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fixed = InstanceSelectConfig::Fixed { name: "echo0".into() };
/// let mut echo = PathNodeConfig::service("echo", "echo", fixed, "only");
/// echo.children = vec!["client_sink".into()];
/// let cfg = ScenarioConfig {
///     seed: 42,
///     warmup_s: 1.0,
///     machines: vec![MachineSpec {
///         name: "m0".into(),
///         cores: 4,
///         dvfs: DvfsSpec::fixed(2.6),
///         network: NetworkSpec::passthrough(10e-6),
///         power: Default::default(),
///     }],
///     services: vec![ServiceModel::new(
///         "echo",
///         vec![StageSpec::new(
///             "proc",
///             QueueDiscipline::Single,
///             ServiceTimeModel::per_job(Distribution::exponential(100e-6), 2.6),
///         )],
///         vec![ExecPath::new("only", vec![StageId::from_raw(0)])],
///     )],
///     instances: vec![InstanceConfig {
///         name: "echo0".into(),
///         service: "echo".into(),
///         machine: "m0".into(),
///         cores: 1,
///         exec: ExecConfig::Simple,
///     }],
///     pools: Vec::new(),
///     request_types: vec![RequestTypeConfig {
///         name: "echo".into(),
///         nodes: vec![echo, PathNodeConfig::client_sink("echo")],
///     }],
///     clients: vec![ClientConfig::open_loop("c", 1000.0, 64, "echo", "echo0")],
/// };
/// let mut sim = cfg.into_simulator()?;
/// sim.run_for(SimDuration::from_secs(2));
/// assert!(sim.completed() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(retired = "window_s")]
pub struct ScenarioConfig {
    /// Master seed.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Warmup, seconds.
    #[serde(default = "default_warmup")]
    pub warmup_s: f64,
    /// `machines.json`.
    pub machines: Vec<MachineSpec>,
    /// The `service.json` files.
    pub services: Vec<ServiceModel>,
    /// `graph.json`: deployment.
    pub instances: Vec<InstanceConfig>,
    /// `graph.json`: pools.
    #[serde(default)]
    pub pools: Vec<PoolConfig>,
    /// `path.json`.
    pub request_types: Vec<RequestTypeConfig>,
    /// `client.json`.
    pub clients: Vec<ClientConfig>,
}

fn default_seed() -> u64 {
    1
}
fn default_warmup() -> f64 {
    1.0
}

impl ScenarioConfig {
    /// Parses a scenario from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on parse failure.
    pub fn from_json(json: &str) -> SimResult<Self> {
        serde_json::from_str(json).map_err(|e| SimError::Config {
            source_name: "scenario".into(),
            detail: e.to_string(),
        })
    }

    /// Loads a scenario from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns I/O or parse errors, each naming the file.
    pub fn from_file(path: &Path) -> SimResult<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| SimError::io_at(path, e))?;
        parse(path, &text, &mut Interner::default())
    }

    /// Loads a scenario from a directory in the paper's Table I layout:
    ///
    /// * `machines.json` — `[MachineSpec, ...]`
    /// * `services.json` — `[ServiceModel, ...]` (the `service.json` files,
    ///   collected)
    /// * `graph.json` — `{ "instances": [...], "pools": [...] }`
    /// * `path.json` — `[RequestTypeConfig, ...]`
    /// * `client.json` — `[ClientConfig, ...]`
    /// * `sim.json` — optional `{ "seed", "warmup_s" }`
    ///
    /// The files are read through one [`Interner`], so a name is allocated
    /// once, however often the files name it: every reference to an entity
    /// shares the entity's own name.
    ///
    /// # Errors
    ///
    /// Returns I/O or parse errors naming the offending file. Only a
    /// `sim.json` that does not exist is absent; one that cannot be read is
    /// an error.
    pub fn from_dir(dir: &Path) -> SimResult<Self> {
        /// The files of `dir` read in turn into one text buffer, each
        /// sharing names with those read before it.
        struct Files<'d> {
            dir: &'d Path,
            text: String,
            names: Interner,
        }
        impl Files<'_> {
            fn load<T: serde::de::DeserializeOwned>(&mut self, name: &str) -> SimResult<T> {
                let path = self.dir.join(name);
                self.text.clear();
                File::open(&path)
                    .and_then(|mut file| file.read_to_string(&mut self.text))
                    .map_err(|e| SimError::io_at(&path, e))?;
                parse(&path, &self.text, &mut self.names)
            }
        }

        #[derive(Deserialize)]
        struct GraphFile {
            instances: Vec<InstanceConfig>,
            #[serde(default)]
            pools: Vec<PoolConfig>,
        }
        #[derive(Deserialize)]
        #[serde(retired = "window_s")]
        struct SimFile {
            #[serde(default = "default_seed")]
            seed: u64,
            #[serde(default = "default_warmup")]
            warmup_s: f64,
        }

        let mut files = Files {
            dir,
            text: String::new(),
            names: Interner::default(),
        };
        let machines: Vec<MachineSpec> = files.load("machines.json")?;
        let services: Vec<ServiceModel> = files.load("services.json")?;
        let graph: GraphFile = files.load("graph.json")?;
        let request_types: Vec<RequestTypeConfig> = files.load("path.json")?;
        let clients: Vec<ClientConfig> = files.load("client.json")?;
        let sim: SimFile = match files.load("sim.json") {
            Err(SimError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => SimFile {
                seed: default_seed(),
                warmup_s: default_warmup(),
            },
            sim => sim?,
        };
        Ok(ScenarioConfig {
            seed: sim.seed,
            warmup_s: sim.warmup_s,
            machines,
            services,
            instances: graph.instances,
            pools: graph.pools,
            request_types,
            clients,
        })
    }

    /// Writes the scenario to a directory in the Table I layout (the
    /// inverse of [`ScenarioConfig::from_dir`]).
    ///
    /// # Errors
    ///
    /// Returns I/O errors, each naming the file or directory.
    pub fn write_dir(&self, dir: &Path) -> SimResult<()> {
        /// `graph.json`: the two deployment lists under their keys.
        struct GraphFile<'a>(&'a ScenarioConfig);
        impl Serialize for GraphFile<'_> {
            fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
                sink.begin_object();
                sink.key("instances");
                self.0.instances.serialize(sink);
                sink.key("pools");
                self.0.pools.serialize(sink);
                sink.end_object();
            }
        }
        /// Streams `value` into `dir/name` through `to_writer_pretty`'s one
        /// buffer: no document-sized string is built on the way.
        fn write<T: Serialize + ?Sized>(dir: &Path, name: &str, value: &T) -> SimResult<()> {
            let path = dir.join(name);
            let io = |e| SimError::io_at(&path, e);
            let file = File::create(&path).map_err(io)?;
            serde_json::to_writer_pretty(file, value).map_err(io)
        }

        std::fs::create_dir_all(dir).map_err(|e| SimError::io_at(dir, e))?;
        write(dir, "machines.json", &self.machines)?;
        write(dir, "services.json", &self.services)?;
        write(dir, "graph.json", &GraphFile(self))?;
        write(dir, "path.json", &self.request_types)?;
        write(dir, "client.json", &self.clients)?;
        let sim = serde_json::json!({ "seed": self.seed, "warmup_s": self.warmup_s });
        write(dir, "sim.json", &sim)?;
        Ok(())
    }

    /// Serializes the scenario to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serializes")
    }

    /// Returns a copy with the master seed replaced — the whole scenario
    /// (arrivals, service times, path selection) re-randomizes from it.
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut cfg = self.clone();
        cfg.seed = seed;
        cfg
    }

    /// Returns a copy with every open-loop client's rate schedule pinned to
    /// `qps`, turning the configured schedule into a load *shape* that a
    /// sweep re-scales per point. An MMPP keeps its burst structure but has
    /// its state rates scaled so the stationary mean is `qps`; a flash
    /// crowd has its baseline pinned (spikes stay relative multipliers); a
    /// sessions client scales its session rate so the long-run request
    /// rate is `qps`. Trace-replay clients have no rate to scale and are
    /// left untouched.
    pub fn with_offered_qps(&self, qps: f64) -> Self {
        let mut cfg = self.clone();
        for client in &mut cfg.clients {
            let mean = client.arrivals.mean_rate_qps();
            match &mut client.arrivals {
                ArrivalProcess::Poisson { schedule }
                | ArrivalProcess::Uniform { schedule }
                | ArrivalProcess::FlashCrowd { base: schedule, .. } => {
                    for seg in &mut schedule.segments {
                        seg.1 = qps;
                    }
                }
                ArrivalProcess::Mmpp { states } => {
                    // A chain with no positive rate has no mean to scale
                    // from: leave it for `build` to reject by name.
                    let mean = mean.expect("mmpp has a stationary rate");
                    if mean.is_finite() && mean > 0.0 {
                        for s in states {
                            s.rate_qps *= qps / mean;
                        }
                    }
                }
                ArrivalProcess::Sessions {
                    session_rate_qps,
                    requests_per_session,
                    think_time,
                } => {
                    // Solve the back-to-back cycle equation for the session
                    // rate that yields `qps` overall; when `qps` exceeds
                    // the think-time-limited maximum, saturate (sessions
                    // start essentially back to back).
                    let k = requests_per_session.mean().max(1.0);
                    let inv = (k / qps - (k - 1.0) * think_time.mean()).max(1e-9);
                    *session_rate_qps = 1.0 / inv;
                }
                ArrivalProcess::Trace { .. } => {}
            }
        }
        cfg
    }

    /// Resolves the configuration's names and constructs the simulator,
    /// copying the machines, service models, instances and clients it
    /// keeps; [`into_simulator`](Self::into_simulator) moves them
    /// instead, for a caller that is done with the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for dangling names or structurally invalid inputs.
    pub fn build(&self) -> SimResult<Simulator> {
        let names = self.resolve()?;
        let cfg = ScenarioConfig {
            seed: self.seed,
            warmup_s: self.warmup_s,
            machines: self.machines.clone(),
            services: self.services.clone(),
            instances: self.instances.clone(),
            // `names` carries the pools and request types, over ids.
            pools: Vec::new(),
            request_types: Vec::new(),
            clients: self.clients.clone(),
        };
        crate::builder::build(cfg, names)
    }

    /// [`build`](Self::build), moving every machine, service model and
    /// client into the simulator: it is the only copy of the scenario
    /// left, and the rest of the configuration is freed before the
    /// simulator's runtime state is allocated.
    ///
    /// # Errors
    ///
    /// Returns an error for dangling names or structurally invalid inputs.
    pub fn into_simulator(self) -> SimResult<Simulator> {
        let names = self.resolve()?;
        crate::builder::build(self, names)
    }

    /// Resolves every name the scenario uses to the index of the entity it
    /// names, in file order: instances, pools, request types, clients.
    /// This is the one place a name is looked up — the partitioner and the
    /// build both start here — so a dangling name is the same
    /// [`SimError::Config`] from every caller, naming the Table I file and
    /// the key it appears under. Where one list holds two entities of the
    /// same name, the last one is the one named.
    pub(crate) fn resolve(&self) -> SimResult<Resolved> {
        let machines = Names::new("machine", self.machines.iter().map(|m| &*m.name));
        let services = Names::new("service", self.services.iter().map(|s| &*s.name));
        let instance_names = self.instances.iter().map(|i| &*i.name);
        let instances = Names::new("instance", instance_names);
        let types = self.request_types.iter().map(|t| &*t.name);
        let types = Names::new("request type", types);

        let mut placed = Vec::with_capacity(self.instances.len());
        for (i, inst) in self.instances.iter().enumerate() {
            let service =
                services.find(&inst.service, GRAPH, || format!("instances[{i}].service"))?;
            let machine =
                machines.find(&inst.machine, GRAPH, || format!("instances[{i}].machine"))?;
            placed.push((ServiceId::from_raw(service), MachineId::from_raw(machine)));
        }
        let mut pools = Vec::with_capacity(self.pools.len());
        for (p, pool) in self.pools.iter().enumerate() {
            let up = instances.find(&pool.up, GRAPH, || format!("pools[{p}].up"))?;
            let down = instances.find(&pool.down, GRAPH, || format!("pools[{p}].down"))?;
            pools.push((
                InstanceId::from_raw(up),
                InstanceId::from_raw(down),
                pool.size,
            ));
        }
        let request_types = (0..self.request_types.len())
            .map(|t| self.resolve_request_type(t, &services, &instances))
            .collect::<SimResult<Vec<_>>>()?;
        let mut clients = Vec::with_capacity(self.clients.len());
        for (c, client) in self.clients.iter().enumerate() {
            let type_at = |k: usize, name: &str, field: &str| {
                let key = || format!("clients[{c}].{field}[{k}]");
                types.find(name, CLIENT, key).map(RequestTypeId::from_raw)
            };
            let mix = (client.mix.iter().enumerate())
                .map(|(k, (name, weight))| Ok((type_at(k, name, "mix")?, *weight)))
                .collect::<SimResult<Vec<_>>>()?;
            let roots = (client.roots.iter().enumerate())
                .map(|(k, name)| {
                    let key = || format!("clients[{c}].roots[{k}]");
                    instances.find(name, CLIENT, key).map(InstanceId::from_raw)
                })
                .collect::<SimResult<Vec<_>>>()?;
            let trace_types = match &client.arrivals {
                ArrivalProcess::Trace { types, .. } => (types.iter().enumerate())
                    .map(|(k, name)| type_at(k, name, "arrivals.types"))
                    .collect::<SimResult<Vec<_>>>()?,
                _ => Vec::new(),
            };
            clients.push(ClientRefs {
                mix,
                roots,
                trace_types,
            });
        }
        Ok(Resolved {
            instances: placed,
            pools,
            request_types,
            clients,
        })
    }

    /// Request type `t` over ids, rooted at its first node and not yet
    /// validated.
    fn resolve_request_type(
        &self,
        t: usize,
        services: &Names<'_>,
        instances: &Names<'_>,
    ) -> SimResult<RequestType> {
        let rt = &self.request_types[t];
        let node_names = Names::new("path node", rt.nodes.iter().map(|n| &*n.name));
        let mut nodes = Vec::with_capacity(rt.nodes.len());
        for (n, node) in rt.nodes.iter().enumerate() {
            // Keys are spelt out only for an error, so `field` is lazy too.
            let key = |field: &dyn Display| format!("request_types[{t}].nodes[{n}].{field}");
            let node_at = |name: &str, field: &dyn Display| {
                node_names
                    .find(name, PATH, || key(field))
                    .map(PathNodeId::from_raw)
            };
            let instance_at = |name: &str, field: &dyn Display| {
                let found = instances.find(name, PATH, || key(field));
                found.map(InstanceId::from_raw)
            };
            let target = match &node.target {
                NodeTargetConfig::ClientSink => NodeTarget::ClientSink,
                NodeTargetConfig::Service {
                    service,
                    instance,
                    exec_path,
                } => {
                    let svc = services.find(service, PATH, || key(&"target.service"))?;
                    let instance = match instance {
                        InstanceSelectConfig::Fixed { name } => InstanceSelect::Fixed {
                            instance: instance_at(name, &"target.instance.name")?,
                        },
                        InstanceSelectConfig::RoundRobin { names } => {
                            let instances = (names.iter().enumerate())
                                .map(|(k, name)| {
                                    instance_at(name, &format_args!("target.instance.names[{k}]"))
                                })
                                .collect::<SimResult<_>>()?;
                            InstanceSelect::RoundRobin { instances }
                        }
                        InstanceSelectConfig::SameAsNode { node } => InstanceSelect::SameAsNode {
                            node: node_at(node, &"target.instance.node")?,
                        },
                    };
                    let exec_path = match exec_path {
                        None => PathSelect::Probabilistic,
                        Some(path) => match self.services[svc as usize].path_index(path) {
                            Some(index) => PathSelect::Fixed { index },
                            None => {
                                let key = key(&"target.exec_path");
                                return Err(SimError::Config {
                                    source_name: PATH.into(),
                                    detail: format!(
                                        "{key}: unknown execution path `{path}` of service \
                                         `{service}`"
                                    ),
                                });
                            }
                        },
                    };
                    NodeTarget::Service {
                        service: ServiceId::from_raw(svc),
                        instance,
                        exec_path,
                    }
                }
            };
            let link = match &node.link {
                LinkConfig::Request => LinkKind::Request,
                LinkConfig::ReplyToParent => LinkKind::ReplyToParent,
                LinkConfig::Reply { of } => LinkKind::Reply {
                    of: node_at(of, &"link.reply.of")?,
                },
                LinkConfig::ReplyVia { entries } => {
                    let entries = (entries.iter().enumerate())
                        .map(|(k, (parent, of))| {
                            let parent =
                                node_at(parent, &format_args!("link.reply_via.entries[{k}][0]"))?;
                            let of = node_at(of, &format_args!("link.reply_via.entries[{k}][1]"))?;
                            Ok((parent, of))
                        })
                        .collect::<SimResult<_>>()?;
                    LinkKind::ReplyVia { entries }
                }
            };
            let children = (node.children.iter().enumerate())
                .map(|(k, child)| node_at(child, &format_args!("children[{k}]")))
                .collect::<SimResult<_>>()?;
            let optional_node = |name: &Option<Name>, field: &'static str| {
                name.as_deref().map(|n| node_at(n, &field)).transpose()
            };
            nodes.push(PathNodeSpec {
                name: node.name.clone(),
                target,
                children,
                link,
                block_thread_until: optional_node(&node.block_thread_until, "block_thread_until")?,
                pin_thread_of: optional_node(&node.pin_thread_of, "pin_thread_of")?,
                fan_in_policy: node.fan_in_policy,
            });
        }
        Ok(RequestType::new(
            rt.name.clone(),
            nodes,
            PathNodeId::from_raw(0),
        ))
    }
}

/// A copy, so that the functions taking a scenario as
/// `impl Into<ScenarioConfig>` — [`run_partitioned`](crate::run_partitioned),
/// [`PartitionPlan::new`](crate::PartitionPlan::new),
/// [`split_cells`](crate::partition::split_cells) — take a borrowed one too:
/// a scenario handed over by value is used up without a copy, a borrowed
/// one is copied once.
impl From<&ScenarioConfig> for ScenarioConfig {
    fn from(cfg: &ScenarioConfig) -> Self {
        cfg.clone()
    }
}

/// `text`, the contents of the file at `path`, read as a `T` sharing names
/// with what `names` has read, or the parse error naming the file.
fn parse<T: serde::de::DeserializeOwned>(
    path: &Path,
    text: &str,
    names: &mut Interner,
) -> SimResult<T> {
    serde_json::from_str_interned(text, names).map_err(|e| SimError::Config {
        source_name: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// The Table I files a key can sit in, as [`SimError::Config`] names them.
pub(crate) const MACHINES: &str = "machines.json";
pub(crate) const GRAPH: &str = "graph.json";
pub(crate) const PATH: &str = "path.json";
pub(crate) const CLIENT: &str = "client.json";
pub(crate) const SIM: &str = "sim.json";

/// A scenario's names, resolved: each reference the configuration makes by
/// name, as the index of what it names ([`ScenarioConfig::resolve`]).
#[derive(Debug)]
pub(crate) struct Resolved {
    /// Per instance, the service it runs and the machine it runs on.
    pub(crate) instances: Vec<(ServiceId, MachineId)>,
    /// Per pool, its upstream and downstream instance, and its size.
    pub(crate) pools: Vec<(InstanceId, InstanceId, usize)>,
    /// The request types over ids, not yet validated.
    pub(crate) request_types: Vec<RequestType>,
    /// Per client, the request types and instances it names.
    pub(crate) clients: Vec<ClientRefs>,
}

/// What one client names, resolved.
#[derive(Debug)]
pub(crate) struct ClientRefs {
    /// The mix: request types and their (unnormalized) weights.
    pub(crate) mix: Vec<(RequestTypeId, f64)>,
    /// Root instances, connected to round-robin.
    pub(crate) roots: Vec<InstanceId>,
    /// A typed trace's request types, one per arrival (else empty).
    pub(crate) trace_types: Vec<RequestTypeId>,
}

/// One list's names: the position of each, the last of equal names winning.
pub(crate) struct Names<'a> {
    kind: &'static str,
    index: FastMap<&'a str, u32>,
}

impl<'a> Names<'a> {
    pub(crate) fn new(kind: &'static str, names: impl Iterator<Item = &'a str>) -> Self {
        let index = names.zip(0..).collect();
        Names { kind, index }
    }

    /// The position of `name`, if the list has it.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The position of `name`, or the error for the key `key()` of `file`
    /// naming something that is not there.
    pub(crate) fn find(
        &self,
        name: &str,
        file: &str,
        key: impl FnOnce() -> String,
    ) -> SimResult<u32> {
        self.get(name).ok_or_else(|| SimError::Config {
            source_name: file.to_string(),
            detail: format!("{}: unknown {} `{name}`", key(), self.kind),
        })
    }
}

/// `secs` as a duration, or the error for the key `key()` of `file`: a
/// duration is finite, not negative and at most `u64::MAX` nanoseconds.
pub(crate) fn seconds(
    file: &str,
    key: impl FnOnce() -> String,
    secs: f64,
) -> SimResult<SimDuration> {
    if secs.is_finite() && secs >= 0.0 && secs * 1e9 <= u64::MAX as f64 {
        return Ok(SimDuration::from_secs_f64(secs));
    }
    Err(SimError::Config {
        source_name: file.to_string(),
        detail: format!(
            "{}: {secs:?} s is not a duration (finite, at least 0 and at most {} s)",
            key(),
            u64::MAX / 1_000_000_000
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A minimal but complete scenario covering every config section.
    fn example_json() -> String {
        r#"{
            "seed": 7,
            "warmup_s": 0.2,
            "machines": [{
                "name": "m0", "cores": 6,
                "dvfs": { "levels_ghz": [2.6] },
                "network": {
                    "irq_cores": 0,
                    "rx_time": { "type": "constant", "value": 0.0 },
                    "wire_latency": { "type": "constant", "value": 0.00001 }
                }
            }],
            "services": [{
                "name": "api",
                "stages": [{
                    "name": "proc",
                    "queue": { "type": "single" },
                    "service": {
                        "base": { "type": "constant", "value": 0.0 },
                        "per_job": { "type": "exponential", "mean": 0.0001 },
                        "ref_freq_ghz": 2.6,
                        "freq_alpha": 1.0
                    }
                }],
                "paths": [{ "name": "default", "stages": [0] }]
            }],
            "instances": [{
                "name": "api0", "service": "api", "machine": "m0",
                "cores": 2, "exec": { "type": "simple" }
            }],
            "request_types": [{
                "name": "get",
                "nodes": [
                    {
                        "name": "front",
                        "target": {
                            "type": "service", "service": "api",
                            "instance": { "type": "fixed", "name": "api0" },
                            "exec_path": "default"
                        },
                        "children": ["sink"]
                    },
                    { "name": "sink", "target": { "type": "client_sink" },
                      "link": { "reply": { "of": "front" } } }
                ]
            }],
            "clients": [{
                "name": "wrk", "connections": 64,
                "arrivals": { "type": "poisson",
                              "schedule": { "segments": [[0.0, 2000.0]] } },
                "mix": [["get", 1.0]],
                "roots": ["api0"]
            }]
        }"#
        .to_string()
    }

    #[test]
    fn parses_and_builds() {
        let cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.completed() > 1_000, "completed {}", sim.completed());
    }

    #[test]
    fn json_roundtrip_preserves_config() {
        let cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        let json = cfg.to_json();
        let back = ScenarioConfig::from_json(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn offered_qps_leaves_a_zero_rate_mmpp_for_build_to_reject() {
        use crate::client::MmppState;
        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        let silent = |mean_dwell_s| MmppState {
            rate_qps: 0.0,
            mean_dwell_s,
        };
        cfg.clients[0].arrivals = ArrivalProcess::mmpp(vec![silent(0.05), silent(0.1)]);
        let scaled = cfg.with_offered_qps(1000.0);
        assert_eq!(scaled, cfg, "nothing to scale, so nothing changes");
        let err = scaled.build().unwrap_err().to_string();
        assert!(err.contains("positive rate"), "{err}");
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        cfg.instances[0].service = "nope".into();
        assert!(cfg.build().is_err());

        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        cfg.clients[0].roots = vec!["nope".into()];
        assert!(cfg.build().is_err());

        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        cfg.clients[0].mix = vec![("nope".into(), 1.0)];
        assert!(cfg.build().is_err());
    }

    /// Asserts that `cfg.build()` fails with a `graph.json` config error whose
    /// detail names the offending key and the dangling name.
    fn assert_graph_err(cfg: ScenarioConfig, key: &str, name: &str) {
        match cfg.build().unwrap_err() {
            SimError::Config {
                source_name,
                detail,
            } => {
                assert_eq!(source_name, "graph.json");
                assert!(detail.contains(key), "detail `{detail}` lacks key `{key}`");
                assert!(
                    detail.contains(name),
                    "detail `{detail}` lacks name `{name}`"
                );
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn dangling_instance_service_names_file_and_key() {
        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        cfg.instances[0].service = "ghost-svc".into();
        assert_graph_err(cfg, "instances[0].service", "ghost-svc");
    }

    #[test]
    fn dangling_instance_machine_names_file_and_key() {
        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        cfg.instances[0].machine = "ghost-machine".into();
        assert_graph_err(cfg, "instances[0].machine", "ghost-machine");
    }

    #[test]
    fn dangling_pool_up_names_file_and_key() {
        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        cfg.pools.push(PoolConfig {
            up: "ghost-up".into(),
            down: "api0".into(),
            size: 4,
        });
        assert_graph_err(cfg, "pools[0].up", "ghost-up");
    }

    #[test]
    fn dangling_pool_down_names_file_and_key() {
        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        cfg.pools.push(PoolConfig {
            up: "api0".into(),
            down: "ghost-down".into(),
            size: 4,
        });
        assert_graph_err(cfg, "pools[0].down", "ghost-down");
    }

    #[test]
    fn bad_json_is_a_config_error() {
        let err = ScenarioConfig::from_json("{not json").unwrap_err();
        assert!(matches!(err, SimError::Config { .. }));
    }

    #[test]
    fn dir_layout_roundtrips() {
        let cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        let dir = std::env::temp_dir().join(format!("uqsim-cfg-{}", std::process::id()));
        cfg.write_dir(&dir).unwrap();
        for f in [
            "machines.json",
            "services.json",
            "graph.json",
            "path.json",
            "client.json",
            "sim.json",
        ] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        let back = ScenarioConfig::from_dir(&dir).unwrap();
        assert_eq!(back, cfg);
        let mut sim = back.build().unwrap();
        sim.run_for(crate::time::SimDuration::from_millis(500));
        assert!(sim.completed() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_layout_missing_file_is_descriptive() {
        let dir = std::env::temp_dir().join(format!("uqsim-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = ScenarioConfig::from_dir(&dir).unwrap_err();
        assert!(matches!(err, SimError::Io(_)));
        let msg = err.to_string();
        assert!(
            msg.contains(&*dir.join("machines.json").to_string_lossy()),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every name `cfg` holds — entity names and the references to them
    /// alike — in the order the Table I files hold them: machines; services
    /// with their stages and paths; instances and pools; request types with
    /// their nodes; clients. What a copy of the scenario shares with it rather
    /// than allocating.
    fn names(cfg: &ScenarioConfig) -> Vec<&Name> {
        let mut out = Vec::new();
        out.extend(cfg.machines.iter().map(|m| &m.name));
        for s in &cfg.services {
            out.push(&s.name);
            out.extend(s.stages.iter().map(|st| &st.name));
            out.extend(s.paths.iter().map(|p| &p.name));
        }
        for i in &cfg.instances {
            out.extend([&i.name, &i.service, &i.machine]);
        }
        for p in &cfg.pools {
            out.extend([&p.up, &p.down]);
        }
        for t in &cfg.request_types {
            out.push(&t.name);
            for n in &t.nodes {
                out.push(&n.name);
                if let NodeTargetConfig::Service {
                    service,
                    instance,
                    exec_path,
                } = &n.target
                {
                    out.push(service);
                    match instance {
                        InstanceSelectConfig::Fixed { name } => out.push(name),
                        InstanceSelectConfig::RoundRobin { names } => out.extend(names),
                        InstanceSelectConfig::SameAsNode { node } => out.push(node),
                    }
                    out.extend(exec_path);
                }
                out.extend(&n.children);
                match &n.link {
                    LinkConfig::Request | LinkConfig::ReplyToParent => {}
                    LinkConfig::Reply { of } => out.push(of),
                    LinkConfig::ReplyVia { entries } => {
                        out.extend(entries.iter().flat_map(|(parent, of)| [parent, of]));
                    }
                }
                out.extend(&n.block_thread_until);
                out.extend(&n.pin_thread_of);
            }
        }
        for c in &cfg.clients {
            out.push(&c.name);
            out.extend(c.mix.iter().map(|(ty, _)| ty));
            out.extend(&c.roots);
            if let ArrivalProcess::Trace { types, .. } = &c.arrivals {
                out.extend(types);
            }
        }
        out
    }

    /// Where each of `cfg`'s names is: equal pointers, one allocation.
    fn name_ptrs(cfg: &ScenarioConfig) -> Vec<*const u8> {
        names(cfg).into_iter().map(|n| n.as_ptr()).collect()
    }

    #[test]
    fn a_read_directory_holds_each_name_once_and_its_copies_share_them() {
        let cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        let dir = std::env::temp_dir().join(format!("uqsim-names-{}", std::process::id()));
        cfg.write_dir(&dir).unwrap();
        let read = ScenarioConfig::from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(read, cfg);

        // A reference is the named entity's own name, whichever file holds
        // it: one interner reads the whole directory.
        let (api, api0) = (&read.services[0].name, &read.instances[0].name);
        assert!(Arc::ptr_eq(&read.instances[0].service, api));
        assert!(Arc::ptr_eq(
            &read.instances[0].machine,
            &read.machines[0].name
        ));
        assert!(Arc::ptr_eq(&read.clients[0].roots[0], api0));
        assert!(Arc::ptr_eq(
            &read.clients[0].mix[0].0,
            &read.request_types[0].name
        ));
        let NodeTargetConfig::Service {
            service, instance, ..
        } = &read.request_types[0].nodes[0].target
        else {
            panic!("the first node runs a service");
        };
        assert!(Arc::ptr_eq(service, api));
        assert!(
            matches!(instance, InstanceSelectConfig::Fixed { name } if Arc::ptr_eq(name, api0))
        );
        let values: HashSet<&str> = names(&read).into_iter().map(|n| &**n).collect();
        let held: HashSet<*const u8> = name_ptrs(&read).into_iter().collect();
        assert_eq!(held.len(), values.len(), "one allocation per distinct name");

        // Copies allocate no name: a clone, a re-seeded or re-scaled one and
        // every cell of a split hold the source's.
        let names = name_ptrs(&read);
        assert_eq!(name_ptrs(&read.clone()), names);
        assert_eq!(name_ptrs(&read.with_seed(9)), names);
        assert_eq!(name_ptrs(&read.with_offered_qps(500.0)), names);
        let groups = crate::partition::split_groups(vec![read.clone(), read.clone()]);
        let mut cells = 0;
        for group in groups {
            for cell in group.unwrap() {
                cells += 1;
                let ptrs = name_ptrs(&cell.config);
                assert!(!ptrs.is_empty() && ptrs.iter().all(|p| held.contains(p)));
            }
        }
        assert_eq!(cells, 2);
    }

    #[test]
    fn unknown_exec_path_name_rejected() {
        let mut cfg = ScenarioConfig::from_json(&example_json()).unwrap();
        if let NodeTargetConfig::Service { exec_path, .. } =
            &mut cfg.request_types[0].nodes[0].target
        {
            *exec_path = Some("missing".into());
        }
        assert!(cfg.build().is_err());
    }
}
