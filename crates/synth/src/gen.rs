//! Spec → scenario lowering: the deterministic topology generator.

use crate::spec::GenSpec;
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt;
use uqsim_core::client::ArrivalProcess;
use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, LinkConfig, Name,
    NodeTargetConfig, PathNodeConfig, PoolConfig, RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::error::SimResult;
use uqsim_core::machine::MachineSpec;
use uqsim_core::rng::RngFactory;
use uqsim_core::service::ServiceModel;

/// The `RngFactory` stream label generation draws from, indexed by replica.
/// A dedicated label guarantees adding the generator never perturbed the
/// simulation streams ("service", "arrival", "path", ...) of any scenario.
pub(crate) const GEN_STREAM: &str = "gen";

/// One sampled service, before lowering to config structs.
struct SvcShape {
    /// Service (and model) name, e.g. `r0-l1-s2`.
    name: Name,
    /// Instance names, e.g. `r0-l1-s2-i0`.
    instances: Vec<Name>,
    /// Cores per instance (from the layer).
    cores: usize,
    /// Worker threads per instance (0 = simple execution).
    threads: usize,
}

/// What the services of one layer share, made once per spec: the role's
/// model, which each service copies under its own name (so every copy
/// shares the template's stage and path names), and the names of the
/// execution paths its nodes run.
struct LayerTemplate {
    model: ServiceModel,
    entry: Name,
    reply: Name,
    leaf: Name,
}

impl GenSpec {
    /// Generates the scenario for `seed`: the concatenation of its
    /// [`replicas`](Self::replicas). Deterministic: identical `(spec,
    /// seed)` inputs produce identical output on any machine —
    /// `generate(s).to_json()` is byte-stable.
    ///
    /// # Errors
    ///
    /// Returns [`uqsim_core::error::SimError::Config`] if the spec is
    /// invalid.
    pub fn generate(&self, seed: u64) -> SimResult<ScenarioConfig> {
        let mut cfg = self.empty(seed);
        for replica in self.replicas(seed)? {
            let ScenarioConfig {
                seed: _,
                warmup_s: _,
                machines,
                services,
                instances,
                pools,
                request_types,
                clients,
            } = replica;
            cfg.machines.extend(machines);
            cfg.services.extend(services);
            cfg.instances.extend(instances);
            cfg.pools.extend(pools);
            cfg.request_types.extend(request_types);
            cfg.clients.extend(clients);
        }
        Ok(cfg)
    }

    /// The scenario for `seed` one replica at a time: replica `r` is
    /// generated when the iterator reaches it, from its own `("gen", r)`
    /// stream, as a scenario of its own — its machines, services,
    /// instances, pools, request types and clients, under `seed` and the
    /// spec's warm-up. Replicas share nothing, so each is request-closed:
    /// a run can take them as the groups of
    /// [`run_groups`](uqsim_core::partition::run_groups) and hold only the
    /// ones it is running. [`generate`](Self::generate) is their
    /// concatenation, and each is byte-stable per `(spec, seed)` on its
    /// own.
    ///
    /// # Errors
    ///
    /// Returns [`uqsim_core::error::SimError::Config`] if the spec is
    /// invalid — checked here, before any replica is generated.
    ///
    /// # Examples
    ///
    /// ```
    /// use uqsim_synth::GenSpec;
    ///
    /// let spec = GenSpec::example();
    /// let replicas: Vec<_> = spec.replicas(7).unwrap().collect();
    /// assert_eq!(replicas.len(), spec.replicas);
    /// let machines: usize = replicas.iter().map(|r| r.machines.len()).sum();
    /// assert_eq!(machines, spec.generate(7).unwrap().machines.len());
    /// ```
    pub fn replicas(
        &self,
        seed: u64,
    ) -> SimResult<impl ExactSizeIterator<Item = ScenarioConfig> + Send + '_> {
        self.validate()?;
        let factory = RngFactory::new(seed);
        let templates: Vec<LayerTemplate> = (self.layers.iter())
            .map(|layer| LayerTemplate {
                model: layer.role.service_model(""),
                entry: layer.role.entry_path().into(),
                reply: layer.role.reply_path().into(),
                leaf: layer.role.leaf_path().into(),
            })
            .collect();
        Ok((0..self.replicas).map(move |r| {
            // Each replica draws from its own stream: inserting or removing
            // a replica never reshapes its siblings.
            let mut rng = factory.stream(GEN_STREAM, r as u64);
            let mut cfg = self.empty(seed);
            self.generate_replica(r, &templates, &mut rng, &mut cfg);
            cfg
        }))
    }

    /// A scenario with nothing in it yet, under `seed` and the spec's
    /// warm-up.
    fn empty(&self, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            warmup_s: self.warmup_s,
            machines: Vec::new(),
            services: Vec::new(),
            instances: Vec::new(),
            pools: Vec::new(),
            request_types: Vec::new(),
            clients: Vec::new(),
        }
    }

    /// Samples one replica's shape and fills the empty `cfg` with its
    /// machines, services, instances, pools, request types, and clients.
    /// Each name is formatted once and shared by everything naming it.
    fn generate_replica(
        &self,
        r: usize,
        templates: &[LayerTemplate],
        rng: &mut SmallRng,
        cfg: &mut ScenarioConfig,
    ) {
        let mut text = String::new();
        let mut name = |args: fmt::Arguments<'_>| -> Name {
            text.clear();
            fmt::Write::write_fmt(&mut text, args).expect("a String takes any text");
            Name::from(text.as_str())
        };

        // --- shape: services and instances per layer -------------------
        let mut layers: Vec<Vec<SvcShape>> = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let count = layer.services.sample(rng);
            let mut svcs = Vec::with_capacity(count);
            for s in 0..count {
                let service = name(format_args!("r{r}-l{l}-s{s}"));
                let n_inst = layer.instances_per_service.sample(rng);
                let instances = (0..n_inst)
                    .map(|i| name(format_args!("{service}-i{i}")))
                    .collect();
                svcs.push(SvcShape {
                    name: service,
                    instances,
                    cores: layer.cores_per_instance,
                    threads: layer.threads_per_instance,
                });
            }
            layers.push(svcs);
        }

        // --- edges: sampled fan-out, then orphan repair ----------------
        // edges[l][s] lists the layer-(l+1) services that service (l, s)
        // calls. Every next-layer service is guaranteed at least one
        // parent, so the whole replica stays reachable from layer 0 (and
        // `split_cells`' request closure covers it in one cell).
        let mut edges: Vec<Vec<Vec<usize>>> = Vec::new();
        for l in 0..layers.len().saturating_sub(1) {
            let down = layers[l + 1].len();
            let mut per_svc: Vec<Vec<usize>> = Vec::with_capacity(layers[l].len());
            for _ in 0..layers[l].len() {
                let f = self.layers[l].fanout.sample(rng).min(down);
                per_svc.push(choose_distinct(rng, down, f));
            }
            let mut orphaned: Vec<bool> = vec![true; down];
            for children in &per_svc {
                for &c in children {
                    orphaned[c] = false;
                }
            }
            for (c, _) in orphaned.iter().enumerate().filter(|(_, o)| **o) {
                let parent = sample_range(rng, 0, layers[l].len() - 1);
                per_svc[parent].push(c);
            }
            edges.push(per_svc);
        }

        // --- service models, and instances placed as they are made -----
        // Placement is deterministic first-fit onto replica machines, in
        // instance order. Generated machines are testbed-style Xeons; 4 of
        // `machine_cores` serve network IRQs, the rest host instances.
        let usable = self.machine_cores - 4;
        let mut remaining: Vec<usize> = Vec::new();
        for (svcs, template) in layers.iter().zip(templates) {
            for svc in svcs {
                let mut model = template.model.clone();
                model.name = svc.name.clone();
                cfg.services.push(model);
                for inst in &svc.instances {
                    let slot = match remaining.iter().position(|&free| free >= svc.cores) {
                        Some(m) => m,
                        None => {
                            let machine = name(format_args!("r{r}-m{}", remaining.len()));
                            cfg.machines
                                .push(MachineSpec::xeon(machine, self.machine_cores));
                            remaining.push(usable);
                            remaining.len() - 1
                        }
                    };
                    remaining[slot] -= svc.cores;
                    cfg.instances.push(InstanceConfig {
                        name: inst.clone(),
                        service: svc.name.clone(),
                        machine: cfg.machines[slot].name.clone(),
                        cores: svc.cores,
                        exec: if svc.threads == 0 {
                            ExecConfig::Simple
                        } else {
                            ExecConfig::MultiThreaded {
                                threads: svc.threads,
                                ctx_switch_s: 0.0,
                            }
                        },
                    });
                }
            }
        }

        // --- pools: one per (caller instance, callee instance) edge ----
        if self.pool_size > 0 {
            for (l, per_svc) in edges.iter().enumerate() {
                for (s, children) in per_svc.iter().enumerate() {
                    for &c in children {
                        for up in &layers[l][s].instances {
                            for down in &layers[l + 1][c].instances {
                                cfg.pools.push(PoolConfig {
                                    up: up.clone(),
                                    down: down.clone(),
                                    size: self.pool_size,
                                });
                            }
                        }
                    }
                }
            }
        }

        // --- request types: one tree per front-end service -------------
        let sink: Name = "sink".into();
        let tree = Tree {
            layers: &layers,
            edges: &edges,
            templates,
        };
        for (s, front) in layers[0].iter().enumerate() {
            let mut nodes: Vec<PathNodeConfig> = Vec::new();
            let mut counter = 0usize;
            let (root_entry, root_exit) = tree.visit(0, s, &mut nodes, &mut counter, &mut name);
            set_children(&mut nodes, &root_exit, vec![sink.clone()]);
            nodes.push(PathNodeConfig {
                name: sink.clone(),
                target: NodeTargetConfig::ClientSink,
                children: Vec::new(),
                link: LinkConfig::Reply { of: root_entry },
                block_thread_until: None,
                pin_thread_of: None,
                fan_in_policy: Default::default(),
            });
            let ty_name = name(format_args!("r{r}-t{s}"));
            cfg.request_types.push(RequestTypeConfig {
                name: ty_name.clone(),
                nodes,
            });
            // One client per front-end service: the client connection
            // decides which root instance executes a request, so a client
            // must only mix request types rooted at its own service.
            cfg.clients.push(ClientConfig {
                name: name(format_args!("r{r}-c{s}")),
                connections: self.client.connections,
                arrivals: self
                    .client
                    .arrivals
                    .clone()
                    .unwrap_or_else(|| ArrivalProcess::poisson(self.client.qps_per_front)),
                mix: vec![(ty_name, 1.0)],
                roots: front.instances.clone(),
                request_size: Distribution::constant(512.0),
                closed_loop: None,
                timeout_s: self.client.timeout_s,
            });
        }
    }
}

/// A replica's sampled shape, read while its request trees are emitted.
struct Tree<'a> {
    layers: &'a [Vec<SvcShape>],
    edges: &'a [Vec<Vec<usize>>],
    templates: &'a [LayerTemplate],
}

impl Tree<'_> {
    /// Materializes the visit of service `(l, s)` as path nodes, in
    /// pre-order, naming nodes with `name`.
    ///
    /// A leaf visit is a single node running the role's leaf path. A
    /// non-leaf visit is an entry node (forwarding to each child's entry)
    /// plus a join node on the same instance that merges the children's
    /// replies via their entry connections — the idiom of the hand-written
    /// scenarios. Returns `(entry, exit)` node names; the caller wires
    /// `exit` to its own join (or to the sink for the root).
    fn visit(
        &self,
        l: usize,
        s: usize,
        nodes: &mut Vec<PathNodeConfig>,
        counter: &mut usize,
        name: &mut impl FnMut(fmt::Arguments<'_>) -> Name,
    ) -> (Name, Name) {
        let svc = &self.layers[l][s];
        let paths = &self.templates[l];
        let id = *counter;
        *counter += 1;
        let select = InstanceSelectConfig::RoundRobin {
            names: svc.instances.clone(),
        };
        let children: &[usize] = self.edges.get(l).map(|e| e[s].as_slice()).unwrap_or(&[]);
        let node = |name: Name, instance, exec_path: &Name, link| PathNodeConfig {
            name,
            target: NodeTargetConfig::Service {
                service: svc.name.clone(),
                instance,
                exec_path: Some(exec_path.clone()),
            },
            // Child entries (or the parent's join, or the sink): filled
            // below or by the caller.
            children: Vec::new(),
            link,
            block_thread_until: None,
            pin_thread_of: None,
            fan_in_policy: Default::default(),
        };
        if children.is_empty() {
            let leaf = name(format_args!("n{id}"));
            nodes.push(node(leaf.clone(), select, &paths.leaf, LinkConfig::Request));
            return (leaf.clone(), leaf);
        }
        let entry = name(format_args!("n{id}"));
        let join = name(format_args!("n{id}j"));
        nodes.push(node(
            entry.clone(),
            select,
            &paths.entry,
            LinkConfig::Request,
        ));
        let entry_pos = nodes.len() - 1;
        let mut child_entries = Vec::with_capacity(children.len());
        let mut via = Vec::with_capacity(children.len());
        for &c in children {
            let (ce, cx) = self.visit(l + 1, c, nodes, counter, name);
            set_children(nodes, &cx, vec![join.clone()]);
            via.push((cx, ce.clone()));
            child_entries.push(ce);
        }
        nodes[entry_pos].children = child_entries;
        let same = InstanceSelectConfig::SameAsNode {
            node: entry.clone(),
        };
        let reply = LinkConfig::ReplyVia { entries: via };
        nodes.push(node(join.clone(), same, &paths.reply, reply));
        (entry, join)
    }
}

/// Points the named node at `children` (node names are unique per type).
fn set_children(nodes: &mut [PathNodeConfig], name: &str, children: Vec<Name>) {
    let node = nodes
        .iter_mut()
        .find(|n| *n.name == *name)
        .expect("visit returned an existing node");
    node.children = children;
}

/// Uniform draw from `min..=max` using the vendored rand's `f64` draw.
fn sample_range(rng: &mut SmallRng, min: usize, max: usize) -> usize {
    if min >= max {
        return min;
    }
    let span = (max - min + 1) as f64;
    (min + (rng.gen::<f64>() * span) as usize).min(max)
}

/// `k` distinct draws from `0..n` (partial Fisher–Yates), returned sorted
/// so generated children lists read in layer order.
fn choose_distinct(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + sample_range(rng, 0, n - 1 - i);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Headline sizes of a generated (or any) scenario. They add up: the
/// summary of [`GenSpec::generate`] is the sum of its replicas'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenSummary {
    /// Distinct service models.
    pub services: usize,
    /// Deployed instances.
    pub instances: usize,
    /// Machines.
    pub machines: usize,
    /// Connection pools.
    pub pools: usize,
    /// Request types.
    pub request_types: usize,
    /// Clients.
    pub clients: usize,
}

impl std::ops::AddAssign for GenSummary {
    fn add_assign(&mut self, other: GenSummary) {
        self.services += other.services;
        self.instances += other.instances;
        self.machines += other.machines;
        self.pools += other.pools;
        self.request_types += other.request_types;
        self.clients += other.clients;
    }
}

impl std::fmt::Display for GenSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} services, {} instances, {} machines, {} pools, {} request types, {} clients",
            self.services,
            self.instances,
            self.machines,
            self.pools,
            self.request_types,
            self.clients
        )
    }
}

/// Counts the headline sizes of a scenario.
pub fn summarize(cfg: &ScenarioConfig) -> GenSummary {
    GenSummary {
        services: cfg.services.len(),
        instances: cfg.instances.len(),
        machines: cfg.machines.len(),
        pools: cfg.pools.len(),
        request_types: cfg.request_types.len(),
        clients: cfg.clients.len(),
    }
}
