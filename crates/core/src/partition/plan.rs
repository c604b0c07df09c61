//! Shard assignment and per-cell seeds.
//!
//! Spec: DESIGN.md §11.3 ("Placement"). The plan is the *only* place the
//! shard count `K` enters a run, and it affects scheduling alone: cells,
//! per-cell seeds, and per-cell results are computed from the scenario and
//! the master seed only (spec invariants **P2**/**P3**).

use crate::config::ScenarioConfig;
use crate::error::SimResult;
use crate::rng::RngFactory;

use super::graph::{split_cells, CellSpec};

/// The master seed of cell `cell` under `master_seed`.
///
/// Cell 0 runs `master_seed` itself — the rule the sweep runner's
/// `seed_for(base, 0) == base` already follows — so a scenario that is one
/// cell is exactly the bare [`Simulator`](crate::sim::Simulator) under the
/// master seed. Later cells take the first draw of the core RNG factory's
/// `("cell", cell)` stream — the same decoupled-stream machinery every
/// simulator component uses, so cell seeds never collide with (or perturb)
/// any in-simulation stream of the parent seed. The mapping is frozen by
/// the `cell_seed_derivation_is_pinned` test: changing it would silently
/// re-seed every multi-cell golden.
///
/// # Examples
///
/// ```
/// use uqsim_core::partition::cell_seed;
///
/// assert_eq!(cell_seed(42, 0), 42);
/// // Deterministic, and distinct per cell:
/// assert_eq!(cell_seed(42, 1), cell_seed(42, 1));
/// assert_ne!(cell_seed(42, 1), cell_seed(42, 2));
/// assert_ne!(cell_seed(42, 1), cell_seed(43, 1));
/// ```
pub fn cell_seed(master_seed: u64, cell: u64) -> u64 {
    use rand::Rng;
    if cell == 0 {
        master_seed
    } else {
        RngFactory::new(master_seed).stream("cell", cell).gen()
    }
}

/// A complete execution plan: the cells and their deterministic shard
/// assignment.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// The request-closed cells, in canonical (smallest-machine) order.
    pub cells: Vec<CellSpec>,
    /// Worker shards the plan targets (`>= 1`).
    pub shards: usize,
    /// `assignment[cell] = shard` (LPT bin packing; see [`PartitionPlan::new`]).
    pub assignment: Vec<usize>,
}

/// Deterministic cost proxy for LPT packing: how much simulated machinery
/// a cell owns. Any fixed formula preserves correctness (assignment never
/// changes results); this one tracks event volume well enough to balance
/// replicated-pod clusters.
fn cell_weight(cell: &CellSpec) -> u64 {
    let cores: usize = cell.config.machines.iter().map(|m| m.cores).sum();
    let conns: usize = cell.config.clients.iter().map(|c| c.connections).sum();
    (cores + cell.config.instances.len() * 2 + conns / 8 + 1) as u64
}

impl PartitionPlan {
    /// Splits `cfg` into cells and assigns them to `shards` workers with
    /// longest-processing-time-first bin packing: visit cells by
    /// descending weight (ties: lower cell id first), placing each
    /// on the least-loaded shard (ties: lowest shard id). The assignment
    /// is a pure function of `(cfg, shards)`; results never depend on it
    /// (spec invariant **P2**, `lpt_assignment_is_deterministic_and_balanced`
    /// in `tests/partition.rs`).
    ///
    /// # Errors
    ///
    /// Propagates [`split_cells`] reference errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use uqsim_core::config::ScenarioConfig;
    /// use uqsim_core::partition::PartitionPlan;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
    /// let plan = PartitionPlan::new(&cfg, 4)?;
    /// assert_eq!(plan.cells.len(), 1);       // fully-connected scenario
    /// assert_eq!(plan.assignment, vec![0]);  // one cell -> first shard
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(cfg: &ScenarioConfig, shards: usize) -> SimResult<Self> {
        let shards = shards.max(1);
        let cells = split_cells(cfg)?;
        let mut order: Vec<usize> = (0..cells.len()).collect();
        let weights: Vec<u64> = cells.iter().map(cell_weight).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(weights[c]), c));
        let mut load = vec![0u64; shards];
        let mut assignment = vec![0usize; cells.len()];
        for c in order {
            let shard = (0..shards).min_by_key(|&s| (load[s], s)).unwrap_or(0);
            assignment[c] = shard;
            load[shard] += weights[c];
        }
        Ok(PartitionPlan {
            cells,
            shards,
            assignment,
        })
    }

    /// The cells assigned to `shard`, in cell order.
    pub fn shard_cells(&self, shard: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(c, _)| c)
            .collect()
    }

    /// The LPT weights used for the assignment, per cell (diagnostics).
    pub fn weights(&self) -> Vec<u64> {
        self.cells.iter().map(cell_weight).collect()
    }
}
