//! # uqsim-runner
//!
//! The parallel sweep/replication engine. µqSim's discrete-event core is
//! deliberately single-threaded (deterministic replay needs a total event
//! order), so the cheapest correctness-preserving parallelism is at the
//! granularity of whole simulator runs: QPS points × seed replications ×
//! experiments are independent, and this crate fans them across cores.
//!
//! One fan-out: the cells of every run are claimed from the run
//! pipeline's one queue ([`uqsim_core::partition::run_batch`]), and this
//! crate opens no pool of its own. [`sweep::run_cells`] submits a list of
//! `(`[`ScenarioConfig`](uqsim_core::config::ScenarioConfig)`, seed)` runs
//! to it costliest first and returns their summaries by index — the paper
//! figures submit their `(curve, load)` runs to it directly — and
//! [`sweep::run_sweep`] builds a QPS grid × replications on the same queue,
//! over a scenario in hand ([`sweep::run_scenario_sweep`]) or one handed
//! over as lazily generated groups, and aggregates into a
//! [`SweepTable`](sweep::SweepTable) with 95% confidence intervals. `--jobs`
//! and `--shards` both name workers on that one queue.
//!
//! ## Determinism
//!
//! Every run's result lands in a slot keyed by its input index and the
//! aggregation folds slots in index order, so the output — down to the
//! serialized CSV/JSON bytes — is identical at any `--jobs` value. The
//! worker count decides only *when* a cell runs, never what it computes or
//! where its result goes. This is enforced by tests (see
//! `crates/cli/tests/sweep_determinism.rs`).
//!
//! ## Example
//!
//! ```
//! use uqsim_core::config::ScenarioConfig;
//! use uqsim_core::time::SimDuration;
//! use uqsim_runner::sweep::{SweepSpec, run_scenario_sweep};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
//! let spec = SweepSpec {
//!     qps: vec![500.0, 1500.0],
//!     reps: 2,
//!     base_seed: 42,
//!     duration: SimDuration::from_millis(400),
//!     jobs: 2,
//!     faults: None,
//!     shards: 0,
//! };
//! let table = run_scenario_sweep(&cfg, &spec, &|_p| {})?;
//! assert_eq!(table.rows.len(), 2);
//! // Same seeds at a different worker count → byte-identical output.
//! let serial = run_scenario_sweep(&cfg, &SweepSpec { jobs: 1, ..spec.clone() }, &|_p| {})?;
//! assert_eq!(table.to_csv(), serial.to_csv());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub use minipool::available_jobs;

pub mod stats;
pub mod sweep;
