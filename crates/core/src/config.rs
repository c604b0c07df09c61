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
use crate::ids::{InstanceId, MachineId, PathNodeId, RequestTypeId, ServiceId};
use crate::machine::MachineSpec;
use crate::path::{
    FanInPolicy, InstanceSelect, LinkKind, NodeTarget, PathNodeSpec, PathSelect, RequestType,
};
use crate::service::ServiceModel;
use crate::sim::Simulator;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Display;
use std::path::Path;

/// `graph.json`: one deployed instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// Instance name (referenced by paths and pools).
    pub name: String,
    /// Service model name.
    pub service: String,
    /// Machine name.
    pub machine: String,
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
    pub up: String,
    /// Downstream instance name.
    pub down: String,
    /// Pool size (connections).
    pub size: usize,
}

/// `path.json`: one node of a request DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathNodeConfig {
    /// Node name (unique within the request type).
    pub name: String,
    /// Target: `{"type": "client_sink"}` or a service execution.
    pub target: NodeTargetConfig,
    /// Child node names.
    #[serde(default)]
    pub children: Vec<String>,
    /// Link kind: `request` (default), `reply_to_parent`, or
    /// `{"reply": "<node>"}`.
    #[serde(default)]
    pub link: LinkConfig,
    /// Hold the executing thread until the named node arrives back.
    #[serde(default)]
    pub block_thread_until: Option<String>,
    /// Execute on the same thread as the named node.
    #[serde(default)]
    pub pin_thread_of: Option<String>,
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
        name: impl Into<String>,
        service: impl Into<String>,
        instance: InstanceSelectConfig,
        exec_path: impl Into<String>,
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
    pub fn client_sink(root: impl Into<String>) -> Self {
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
        service: String,
        /// Instance selection.
        instance: InstanceSelectConfig,
        /// Execution path name within the service, or `null` for
        /// probabilistic selection.
        #[serde(default)]
        exec_path: Option<String>,
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
        name: String,
    },
    /// Round-robin over named instances.
    RoundRobin {
        /// Instance names.
        names: Vec<String>,
    },
    /// Same instance as an earlier node.
    SameAsNode {
        /// Node name.
        node: String,
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
        of: String,
    },
    /// Per-parent reply routing: `(parent node name, entry-connection node
    /// name)` pairs.
    ReplyVia {
        /// The routing map.
        entries: Vec<(String, String)>,
    },
}

/// `path.json`: one request type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTypeConfig {
    /// Request type name.
    pub name: String,
    /// Nodes; the first is the root.
    pub nodes: Vec<PathNodeConfig>,
}

/// `client.json`: one workload client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Client name.
    pub name: String,
    /// Connection count.
    pub connections: usize,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// `(request type name, weight)` mix.
    pub mix: Vec<(String, f64)>,
    /// Root instance names the client connects to.
    pub roots: Vec<String>,
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
        name: impl Into<String>,
        qps: f64,
        connections: usize,
        request_type: impl Into<String>,
        root: impl Into<String>,
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
    /// Returns I/O or parse errors.
    pub fn from_file(path: &Path) -> SimResult<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).map_err(|e| SimError::Config {
            source_name: path.display().to_string(),
            detail: e.to_string(),
        })
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
    /// # Errors
    ///
    /// Returns I/O or parse errors naming the offending file.
    pub fn from_dir(dir: &Path) -> SimResult<Self> {
        fn load<T: serde::de::DeserializeOwned>(dir: &Path, name: &str) -> SimResult<T> {
            let path = dir.join(name);
            let text = std::fs::read_to_string(&path)?;
            serde_json::from_str(&text).map_err(|e| SimError::Config {
                source_name: path.display().to_string(),
                detail: e.to_string(),
            })
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

        let machines: Vec<MachineSpec> = load(dir, "machines.json")?;
        let services: Vec<ServiceModel> = load(dir, "services.json")?;
        let graph: GraphFile = load(dir, "graph.json")?;
        let request_types: Vec<RequestTypeConfig> = load(dir, "path.json")?;
        let clients: Vec<ClientConfig> = load(dir, "client.json")?;
        let sim: SimFile = if dir.join("sim.json").exists() {
            load(dir, "sim.json")?
        } else {
            SimFile {
                seed: default_seed(),
                warmup_s: default_warmup(),
            }
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
    /// Returns I/O errors.
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
        fn write<T: Serialize + ?Sized>(dir: &Path, name: &str, value: &T) -> SimResult<()> {
            let text = serde_json::to_string_pretty(value).expect("config serializes");
            std::fs::write(dir.join(name), text)?;
            Ok(())
        }

        std::fs::create_dir_all(dir)?;
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
        let machines = Names::new("machine", self.machines.iter().map(|m| m.name.as_str()));
        let services = Names::new("service", self.services.iter().map(|s| s.name.as_str()));
        let instance_names = self.instances.iter().map(|i| i.name.as_str());
        let instances = Names::new("instance", instance_names);
        let types = self.request_types.iter().map(|t| t.name.as_str());
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
        let node_names = Names::new("path node", rt.nodes.iter().map(|n| n.name.as_str()));
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
            let optional_node = |name: &Option<String>, field: &'static str| {
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
struct Names<'a> {
    kind: &'static str,
    index: HashMap<&'a str, u32>,
}

impl<'a> Names<'a> {
    fn new(kind: &'static str, names: impl Iterator<Item = &'a str>) -> Self {
        let index = names.zip(0..).collect();
        Names { kind, index }
    }

    /// The position of `name`, or the error for the key `key()` of `file`
    /// naming something that is not there.
    fn find(&self, name: &str, file: &str, key: impl FnOnce() -> String) -> SimResult<u32> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| SimError::Config {
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
        std::fs::remove_dir_all(&dir).ok();
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
