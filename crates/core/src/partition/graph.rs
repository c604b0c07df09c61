//! The must-colocate graph: splitting a scenario into request-closed cells.
//!
//! Spec: DESIGN.md §11.2 ("Ownership"). A **cell** is a connected
//! component of the graph whose vertices are machines and clients and
//! whose edges are every relation that can carry simulated causality:
//!
//! * a request type joins every machine any of its path nodes can select
//!   (fixed targets, *all* round-robin candidates, and transitively the
//!   nodes a `same_as_node` selector mirrors);
//! * a client joins the machines of every request type it emits (its mix
//!   and a typed trace's types) and of every root instance it opens
//!   connections to;
//! * a connection pool joins the machines of its up and down instances.
//!
//! Machines are atomic (a machine is never split across cells), so a
//! zero-latency intra-machine hop cannot cross a cell boundary — spec
//! invariant **P1**, enforced by
//! `zero_latency_intra_machine_hop_stays_in_one_cell` in
//! `tests/partition.rs`.

use std::collections::HashMap;

use crate::config::{Resolved, ScenarioConfig};
use crate::error::SimResult;
use crate::ids::InstanceId;
use crate::path::{InstanceSelect, NodeTarget, RequestType};

/// One request-closed cell of a partitioned scenario: which machines,
/// clients, instances, pools, and request types it owns (as indices into
/// the parent [`ScenarioConfig`]'s vectors, ascending), plus the extracted
/// sub-scenario that runs it.
///
/// Cells are numbered by their smallest machine index in the parent
/// configuration, so the cell list — and everything derived from it, seeds
/// included — is independent of the shard count (spec invariant **P3**).
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Cell index (position in the [`split_cells`] result).
    pub id: usize,
    /// Machine indices owned by this cell, ascending.
    pub machines: Vec<usize>,
    /// Client indices owned by this cell, ascending.
    pub clients: Vec<usize>,
    /// Instance indices owned by this cell, ascending.
    pub instances: Vec<usize>,
    /// Pool indices owned by this cell, ascending.
    pub pools: Vec<usize>,
    /// Request-type indices owned by this cell, ascending.
    pub request_types: Vec<usize>,
    /// The extracted sub-scenario: the owned entities plus, in their
    /// original relative order, the service models they reference — those
    /// named by the cell's instances and by its request types' path nodes.
    /// A service that nothing in the whole scenario references stays with
    /// cell 0, so every service model is still validated by some cell's
    /// build (an invalid unused one fails the run) without every cell
    /// cloning and re-validating the whole table. A scenario that is one
    /// cell therefore keeps its full service table. Building this config
    /// re-validates the cell's closure: any dangling name would fail
    /// `ScenarioConfig::build`. A run hands this configuration to the
    /// cell's simulator when it builds it
    /// ([`ScenarioConfig::into_simulator`]), so a cell's scenario exists
    /// once: as configuration until its worker claims it, as simulator
    /// after.
    pub config: ScenarioConfig,
}

/// Disjoint-set forest over `machines ∪ clients`.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so representatives are
            // stable under edge insertion order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// For each service of the scenario, in order, the cells whose instances
/// and request-type path nodes run it, ascending; a service nothing runs
/// goes to cell 0 (see [`CellSpec::config`]).
fn service_users(
    names: &Resolved,
    n_services: usize,
    cells_instances: &[Vec<usize>],
    cells_rts: &[Vec<usize>],
) -> Vec<Vec<usize>> {
    // Cells are visited in order, so each service's user list is ascending
    // and a repeated mention within one cell is the list's last entry.
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); n_services];
    for (cell, (instances, rts)) in cells_instances.iter().zip(cells_rts).enumerate() {
        let by_instances = instances.iter().map(|&i| names.instances[i].0);
        let nodes = rts.iter().flat_map(|&t| &names.request_types[t].nodes);
        let by_nodes = nodes.filter_map(|node| match &node.target {
            NodeTarget::Service { service, .. } => Some(*service),
            NodeTarget::ClientSink => None,
        });
        for service in by_instances.chain(by_nodes) {
            let cells = &mut users[service.index()];
            if cells.last() != Some(&cell) {
                cells.push(cell);
            }
        }
    }
    for cells in &mut users {
        if cells.is_empty() {
            cells.push(0);
        }
    }
    users
}

/// Moves every entity to the cell whose index list names it, into a list
/// of exactly the cell's size. Lists are ascending, so each cell keeps the
/// entities' relative order.
fn deal<T>(
    entities: Vec<T>,
    cells: &[Vec<usize>],
    configs: &mut [ScenarioConfig],
    field: fn(&mut ScenarioConfig) -> &mut Vec<T>,
) {
    let mut cell_of = vec![0; entities.len()];
    for (cell, indices) in cells.iter().enumerate() {
        field(&mut configs[cell]).reserve_exact(indices.len());
        for &i in indices {
            cell_of[i] = cell;
        }
    }
    for (entity, cell) in entities.into_iter().zip(cell_of) {
        field(&mut configs[cell]).push(entity);
    }
}

/// The instances a request type's path can select, in node order.
fn selectable_instances(ty: &RequestType) -> impl Iterator<Item = InstanceId> + '_ {
    ty.nodes
        .iter()
        .flat_map(|node| match &node.target {
            NodeTarget::Service { instance, .. } => match instance {
                InstanceSelect::Fixed { instance } => std::slice::from_ref(instance),
                InstanceSelect::RoundRobin { instances } => instances.as_slice(),
                // `same_as_node` mirrors a selection made by another node of
                // the same type, so it introduces no instance that the mirrored
                // node's own selector has not already added.
                InstanceSelect::SameAsNode { .. } => &[],
            },
            NodeTarget::ClientSink => &[],
        })
        .copied()
}

/// Splits a scenario into request-closed cells (see module docs).
///
/// The cells are carved out of the scenario: each machine, instance, pool,
/// request type and client moves into the one cell that owns it, and a
/// service model is copied only for each cell past the first that uses
/// it. A borrowed scenario is copied once first.
///
/// # Errors
///
/// Returns the [`SimError::Config`](crate::SimError::Config) naming the
/// file and key of the first name that names nothing — the error
/// `ScenarioConfig::build` reports for it, from the one resolver both use
/// — before any cell is built.
///
/// # Examples
///
/// ```
/// use uqsim_core::config::ScenarioConfig;
/// use uqsim_core::partition::split_cells;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
/// let cells = split_cells(&cfg)?;
/// // One machine, one client, fully connected: a single cell that owns
/// // the whole scenario.
/// assert_eq!(cells.len(), 1);
/// assert_eq!(cells[0].machines, vec![0]);
/// # Ok(())
/// # }
/// ```
pub fn split_cells(cfg: impl Into<ScenarioConfig>) -> SimResult<Vec<CellSpec>> {
    let cfg: ScenarioConfig = cfg.into();
    let names = cfg.resolve()?;
    let n_machines = cfg.machines.len();
    let n_clients = cfg.clients.len();
    let client_node = |c: usize| n_machines + c;
    let mut dsu = Dsu::new(n_machines + n_clients);
    let machine_of = |i: InstanceId| names.instances[i.index()].1.index();

    // Request-type edges: all selectable machines of one type colocate.
    let rt_machines: Vec<Vec<usize>> = (names.request_types.iter())
        .map(|ty| selectable_instances(ty).map(machine_of).collect())
        .collect();
    for machines in &rt_machines {
        if let Some((&first, rest)) = machines.split_first() {
            for &m in rest {
                dsu.union(first, m);
            }
        }
    }

    // Client edges: a client colocates with the types it emits (its mix
    // and a typed trace's) and with its roots.
    let emitted = |c: usize| {
        let refs = &names.clients[c];
        let mix = refs.mix.iter().map(|&(ty, _)| ty);
        mix.chain(refs.trace_types.iter().copied())
    };
    for (c, refs) in names.clients.iter().enumerate() {
        for ty in emitted(c) {
            for &m in &rt_machines[ty.index()] {
                dsu.union(client_node(c), m);
            }
        }
        for &root in &refs.roots {
            dsu.union(client_node(c), machine_of(root));
        }
    }

    // Pool edges: both endpoints of a connection pool colocate.
    for &(up, down, _) in &names.pools {
        dsu.union(machine_of(up), machine_of(down));
    }

    // Components → cells, numbered by smallest machine index.
    let mut cell_of_root: HashMap<usize, usize> = HashMap::new();
    let mut cells_machines: Vec<Vec<usize>> = Vec::new();
    for m in 0..n_machines {
        let root = dsu.find(m);
        let cell = *cell_of_root.entry(root).or_insert_with(|| {
            cells_machines.push(Vec::new());
            cells_machines.len() - 1
        });
        cells_machines[cell].push(m);
    }
    if cells_machines.is_empty() {
        // Degenerate machine-less scenario: one cell owning everything.
        cells_machines.push(Vec::new());
    }

    // Clients attach to their component's cell; a client whose component
    // holds no machine (it touches no simulated resource) goes to cell 0.
    let mut cells_clients: Vec<Vec<usize>> = vec![Vec::new(); cells_machines.len()];
    for c in 0..n_clients {
        let root = dsu.find(client_node(c));
        let cell = cell_of_root.get(&root).copied().unwrap_or(0);
        cells_clients[cell].push(c);
    }

    // Instances and pools follow their machines; request types follow
    // their instances (or, for sink-only types, the first client that
    // emits them, falling back to cell 0).
    let machine_cell: Vec<usize> = (0..n_machines)
        .map(|m| cell_of_root[&dsu.find(m)])
        .collect();
    let mut cells_instances: Vec<Vec<usize>> = vec![Vec::new(); cells_machines.len()];
    for (i, &(_, machine)) in names.instances.iter().enumerate() {
        cells_instances[machine_cell[machine.index()]].push(i);
    }
    let mut cells_pools: Vec<Vec<usize>> = vec![Vec::new(); cells_machines.len()];
    for (p, &(up, _, _)) in names.pools.iter().enumerate() {
        cells_pools[machine_cell[machine_of(up)]].push(p);
    }
    let mut cells_rts: Vec<Vec<usize>> = vec![Vec::new(); cells_machines.len()];
    for (t, machines) in rt_machines.iter().enumerate() {
        let cell = if let Some(&m) = machines.first() {
            machine_cell[m]
        } else {
            (0..n_clients)
                .find(|&c| emitted(c).any(|ty| ty.index() == t))
                .map(|c| {
                    cell_of_root
                        .get(&dsu.find(client_node(c)))
                        .copied()
                        .unwrap_or(0)
                })
                .unwrap_or(0)
        };
        cells_rts[cell].push(t);
    }

    // Carve one sub-scenario per cell out of the scenario.
    let users = service_users(&names, cfg.services.len(), &cells_instances, &cells_rts);
    drop(names);
    let mut configs: Vec<ScenarioConfig> = (0..cells_machines.len())
        .map(|_| ScenarioConfig {
            seed: cfg.seed,
            warmup_s: cfg.warmup_s,
            machines: Vec::new(),
            services: Vec::new(),
            instances: Vec::new(),
            pools: Vec::new(),
            request_types: Vec::new(),
            clients: Vec::new(),
        })
        .collect();
    for (service, users) in cfg.services.into_iter().zip(users) {
        let Some((&last, rest)) = users.split_last() else {
            continue;
        };
        for &cell in rest {
            configs[cell].services.push(service.clone());
        }
        configs[last].services.push(service);
    }
    deal(cfg.machines, &cells_machines, &mut configs, |c| {
        &mut c.machines
    });
    deal(cfg.instances, &cells_instances, &mut configs, |c| {
        &mut c.instances
    });
    deal(cfg.pools, &cells_pools, &mut configs, |c| &mut c.pools);
    deal(cfg.request_types, &cells_rts, &mut configs, |c| {
        &mut c.request_types
    });
    deal(cfg.clients, &cells_clients, &mut configs, |c| {
        &mut c.clients
    });
    let take = std::mem::take;
    Ok(configs
        .into_iter()
        .enumerate()
        .map(|(id, config)| CellSpec {
            id,
            machines: take(&mut cells_machines[id]),
            clients: take(&mut cells_clients[id]),
            instances: take(&mut cells_instances[id]),
            pools: take(&mut cells_pools[id]),
            request_types: take(&mut cells_rts[id]),
            config,
        })
        .collect())
}

/// Splits a scenario handed over as request-closed *groups* — scenarios
/// that share nothing and together are the whole one, such as the
/// replicas of a generated cluster — one group at a time: each group is
/// split ([`split_cells`]) only when the iterator reaches it, its cells are
/// numbered after the previous groups' cells and their index lists offset
/// past the previous groups' entities. So when every service, client and
/// request type of a group touches a machine of it, what this yields,
/// concatenated, is [`split_cells`] of the concatenated scenario — ids,
/// index lists and configurations — and one group is exactly
/// [`split_cells`] of it. Stops after a group that fails to split, with
/// its error.
///
/// # Examples
///
/// ```
/// use uqsim_core::config::ScenarioConfig;
/// use uqsim_core::partition::{split_cells, split_groups};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
/// let groups: Vec<_> = split_groups(vec![cfg.clone()]).collect::<Result<_, _>>()?;
/// assert_eq!(groups.len(), 1);
/// assert_eq!(groups[0][0].machines, split_cells(cfg)?[0].machines);
/// # Ok(())
/// # }
/// ```
pub fn split_groups<G>(groups: G) -> impl Iterator<Item = SimResult<Vec<CellSpec>>>
where
    G: IntoIterator<Item = ScenarioConfig>,
{
    fn lists(cell: &mut CellSpec) -> [&mut Vec<usize>; 5] {
        let CellSpec {
            machines,
            clients,
            instances,
            pools,
            request_types,
            ..
        } = cell;
        [machines, clients, instances, pools, request_types]
    }
    // Cells, then entities per list, of the groups split so far.
    let (mut cells_before, mut before) = (0, [0; 5]);
    let mut failed = false;
    groups.into_iter().map_while(move |group| {
        if failed {
            return None;
        }
        let sizes = [
            group.machines.len(),
            group.clients.len(),
            group.instances.len(),
            group.pools.len(),
            group.request_types.len(),
        ];
        let split = split_cells(group).map(|mut cells| {
            for cell in &mut cells {
                cell.id += cells_before;
                for (list, offset) in lists(cell).into_iter().zip(before) {
                    list.iter_mut().for_each(|i| *i += offset);
                }
            }
            cells_before += cells.len();
            for (total, size) in before.iter_mut().zip(sizes) {
                *total += size;
            }
            cells
        });
        failed = split.is_err();
        Some(split)
    })
}
