//! The cells of a run, their claim order, and per-cell seeds.
//!
//! Spec: DESIGN.md §11.3 ("Placement"). The shard count `K` is the number
//! of workers and nothing else: cells, their claim order, per-cell seeds,
//! and per-cell results are computed from the scenario and the master seed
//! only (spec invariants **P2**/**P3**).

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

/// A complete execution plan: the cells, and how many workers run them.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// The request-closed cells, in canonical (smallest-machine) order.
    pub cells: Vec<CellSpec>,
    /// Worker shards the plan targets (`>= 1`).
    pub shards: usize,
}

/// Deterministic cost proxy for the claim order: how much simulated
/// machinery a cell owns. Any fixed formula preserves correctness (the
/// order never changes results); this one tracks event volume well enough
/// to start the long cells of a replicated-pod cluster first.
fn cell_weight(cell: &CellSpec) -> u64 {
    let cores: usize = cell.config.machines.iter().map(|m| m.cores).sum();
    let conns: usize = cell.config.clients.iter().map(|c| c.connections).sum();
    (cores + cell.config.instances.len() * 2 + conns / 8 + 1) as u64
}

/// The order in which workers claim `cells` — positions into the slice,
/// by descending weight, ties to the lower position
/// ([`PartitionPlan::claim_order`]).
pub(super) fn claim_order(cells: &[CellSpec]) -> Vec<usize> {
    let weights: Vec<u64> = cells.iter().map(cell_weight).collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(weights[c]), c));
    order
}

impl PartitionPlan {
    /// Splits `cfg` into cells to be run by `shards` workers. No cell is
    /// placed on a worker ahead of time: each worker claims the next
    /// unstarted cell of [`claim_order`](Self::claim_order) when it is
    /// free, so a worker that the host runs slower simply claims fewer.
    ///
    /// The plan takes the scenario: handed over by value, it is carved
    /// into the cells without a copy ([`split_cells`]); borrowed, it is
    /// copied once.
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
    /// assert_eq!(plan.cells.len(), 1);        // fully-connected scenario
    /// assert_eq!(plan.claim_order(), vec![0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(cfg: impl Into<ScenarioConfig>, shards: usize) -> SimResult<Self> {
        Ok(PartitionPlan {
            cells: split_cells(cfg)?,
            shards: shards.max(1),
        })
    }

    /// The order in which workers claim cells: by descending weight (ties:
    /// lower cell id first), so that the run does not end on its costliest
    /// cell while the other workers idle. A pure function of the scenario —
    /// the shard count does not enter — and results never depend on it
    /// (spec invariant **P2**, `claim_order_is_pure_and_never_shows` in
    /// `tests/partition.rs`).
    pub fn claim_order(&self) -> Vec<usize> {
        claim_order(&self.cells)
    }

    /// The weights behind [`claim_order`](Self::claim_order), per cell.
    pub fn weights(&self) -> Vec<u64> {
        self.cells.iter().map(cell_weight).collect()
    }
}
