//! # uqsim-runner
//!
//! The parallel sweep/replication engine. µqSim's discrete-event core is
//! deliberately single-threaded (deterministic replay needs a total event
//! order), so the cheapest correctness-preserving parallelism is at the
//! granularity of whole simulator runs: QPS points × seed replications ×
//! experiments are independent, and this crate fans them across cores.
//!
//! Three layers:
//!
//! * [`Pool`] (re-exported from the vendored `minipool` crate) — a scoped
//!   thread pool with dynamic work claiming, ordered results, and panic
//!   propagation.
//! * [`run_indexed`] / [`try_run_indexed`] — parallel maps over an index
//!   space, for work that is not a scenario cell (a live simulator with a
//!   controller attached, another simulator altogether).
//! * [`sweep`] — the scenario-level engine. [`sweep::run_cells`] runs a
//!   list of `(`[`ScenarioConfig`](uqsim_core::config::ScenarioConfig)`,
//!   seed)` cells, each one [`uqsim_core::run_partitioned`] call, claimed
//!   costliest first, results by index; the paper figures submit their
//!   `(curve, load)` cells to it directly, and
//!   [`sweep::run_scenario_sweep`] builds a QPS grid × replications on it
//!   and aggregates into a [`SweepTable`](sweep::SweepTable) with 95%
//!   confidence intervals.
//!
//! ## Determinism
//!
//! Every task's result lands in a slot keyed by its input index and the
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

pub use minipool::{available_jobs, Pool};

pub mod stats;
pub mod sweep;

/// Runs `f(0..n)` across up to `jobs` threads and returns the results in
/// index order (independent of `jobs` and scheduling).
///
/// # Examples
///
/// ```
/// let doubled = uqsim_runner::run_indexed(4, 5, |i| i * 2);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
/// ```
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    Pool::new(jobs).map_indexed(n, f)
}

/// Fallible [`run_indexed`]: every task runs to completion, then the error
/// of the lowest-indexed failing task is returned (a deterministic choice,
/// mirroring what a serial loop would have reported first).
///
/// # Errors
///
/// The first error by task index, if any task failed.
///
/// # Examples
///
/// ```
/// let r: Result<Vec<u32>, String> =
///     uqsim_runner::try_run_indexed(2, 4, |i| if i == 1 { Err("bad".into()) } else { Ok(i as u32) });
/// assert_eq!(r, Err("bad".to_string()));
/// ```
pub fn try_run_indexed<T, E, F>(jobs: usize, n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    Pool::new(jobs)
        .map_indexed(n, f)
        .into_iter()
        .collect::<Result<Vec<T>, E>>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_run_indexed_reports_first_error_by_index() {
        for jobs in [1, 2, 8] {
            let r: Result<Vec<usize>, usize> =
                try_run_indexed(jobs, 10, |i| if i % 4 == 3 { Err(i) } else { Ok(i) });
            assert_eq!(r, Err(3), "jobs={jobs}");
        }
    }

    #[test]
    fn try_run_indexed_collects_in_order() {
        let r: Result<Vec<usize>, ()> = try_run_indexed(3, 6, Ok);
        assert_eq!(r.unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }
}
