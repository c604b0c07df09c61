//! The run pipeline: one scenario as request-closed cells, on any number
//! of cores.
//!
//! The sweep engine (`uqsim-runner`) parallelizes *across* independent
//! simulations; this module is how every *one* of them runs, and
//! parallelizes *inside* a big scenario. The full execution-model
//! specification — ownership rules, the determinism argument, and the
//! design note on the conservative-sync layer that was removed — lives in
//! `DESIGN.md §11`; the spec's invariants are referenced below and in the
//! test suite as **P1**–**P7**.
//!
//! # The model in one paragraph
//!
//! A scenario is first split into **cells**: the connected components of
//! the *must-colocate* graph over machines and clients (edges: every
//! machine a request type can touch, every client's mix and roots, and
//! both endpoints of every connection pool — see [`split_cells`]). A cell
//! is request-closed by construction: no request, reply, pool grant, or
//! fault effect ever crosses a cell boundary (**P1**), so each cell runs
//! as a complete, independent [`Simulator`](crate::sim::Simulator) with
//! its own event queue, arenas, RNG streams, and telemetry sampler — one
//! `run_until(deadline)` per cell. `K` `vendor/minipool` workers claim the
//! cells one at a time, costliest first — an order fixed by the scenario
//! alone (**P2**); per-cell seeds derive from the master seed and the cell
//! index alone, cell 0 running the master seed itself (**P3**). Because
//! nothing a cell computes depends on `K` or worker scheduling (**P4**),
//! and every merge (the `merge` layer) is a deterministic function of
//! per-cell outputs in cell order (**P5**), the merged run/trace/metrics/chaos
//! outputs are **byte-identical at any shard count** — the same guarantee
//! the sweep engine makes for `--jobs`. A scenario that does not split is
//! one cell, and the merge of one cell is the identity, so the result is
//! also exactly what a bare `Simulator` under the master seed produces
//! (**P7**: any shard count, *including none*).
//!
//! A scenario may also be handed over as request-closed *groups* that
//! share nothing — a generated cluster's replicas — and [`run_groups`]
//! pulls each group only when a worker runs out of cells to claim, splits
//! it, and numbers its cells after the previous groups' cells
//! ([`split_groups`]): the cells, seeds and merges of the whole scenario,
//! held a group at a time. [`run_partitioned`] is the one-group case.
//!
//! And a batch of independent runs — a sweep's QPS points × seeds — is one
//! queue: [`run_batch`] pulls run after run, group after group, and the
//! same workers claim every cell of every run; the worker that finishes a
//! run's last cell merges that run. Each run is exactly what it is alone
//! ([`run_groups`] is the one-run case), so neither the worker count nor
//! the runs beside it ever show in its outputs.
//!
//! Cross-*cell* traffic does not exist (cells are closed), so cells never
//! synchronize; DESIGN.md §11's appendix records the conservative-sync
//! design (clocks, lookahead, windows, **P6**) that a cross-cell RPC
//! protocol would need, and why it was removed until one exists.
//!
//! # Quick start
//!
//! ```
//! use uqsim_core::config::ScenarioConfig;
//! use uqsim_core::partition::{run_partitioned, PartitionOptions};
//! use uqsim_core::time::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
//! let d = SimDuration::from_millis(400);
//! let two = run_partitioned(&cfg, None, 7, d, &PartitionOptions::with_shards(2))?;
//! let eight = run_partitioned(&cfg, None, 7, d, &PartitionOptions::with_shards(8))?;
//! // The shard count affects wall-clock only, never results:
//! assert_eq!(two.result, eight.result);
//! # Ok(())
//! # }
//! ```

mod exec;
mod graph;
mod merge;
mod plan;

pub use exec::{
    run_batch, run_groups, run_partitioned, CellOutput, CellSeries, PartitionOptions,
    PartitionedRun, RetainedTrace, SpanChecks, SpanTracing,
};
pub use graph::{split_cells, split_groups, CellSpec};
pub use merge::{
    merge_audits, merge_chrome_traces, merge_csv, merge_fault_summaries, merge_json,
    merge_registries, merge_results,
};
pub use plan::{cell_seed, PartitionPlan};
