//! The run pipeline: cells on shards, merged.
//!
//! Spec: DESIGN.md §11.1 ("Execution"). [`run_partitioned`] is the one
//! build → run → summarize path every entry point shares
//! ([`run_one`](crate::run::run_one), the sweep runner, and the CLI's
//! `run`/`chaos`/`why`/`trace --config`/`sweep`): it splits the scenario
//! into cells, assigns them to shards, runs every cell as a whole
//! [`Simulator`] to the deadline, and merges the per-cell outputs
//! deterministically. A scenario that cannot be split is one cell under the
//! master seed, and the merge of one cell is the identity, so the classic
//! single-simulator run is the one-cell case of this function. The shard
//! count (and the worker scheduling under it) affects wall-clock time only
//! — never a single output byte.

use std::collections::HashSet;

use minipool::Pool;
use serde::Value;

use crate::config::ScenarioConfig;
use crate::critpath::{CpcProfile, ReplayFold};
use crate::error::{SimError, SimResult};
use crate::fault::{FaultPlan, FaultSpec};
use crate::run::RunResult;
use crate::sim::Simulator;
use crate::telemetry::TelemetryConfig;
use crate::time::{SimDuration, SimTime};
use crate::trace::{AuditFold, AuditReport, TraceAuditor};

use super::graph::{split_fault_plan, CellSpec};
use super::merge::{
    merge_audits, merge_chrome_traces, merge_csv, merge_json, merge_registries, merge_results,
};
use super::plan::{cell_seed, PartitionPlan};

/// What a run does with its per-request span events (see [`crate::trace`]).
/// The capacities are per cell, in events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTracing {
    /// Record nothing: every hot-path hook stays a single branch.
    Off,
    /// Keep each cell's log in memory, up to this many events, for the
    /// views that read a finished log (the merged Chrome trace, sampled
    /// request traces) and the audit.
    Retain(usize),
    /// Check the events instead of keeping them: each cell streams its log,
    /// up to `events` events, to a second thread that audits it — and with
    /// `replay` also replays it into a critical-path profile — while the
    /// cell still runs ([`CellOutput::checks`]). The log costs a few
    /// chunks of memory however long the run.
    Check {
        /// Most events a cell records; the rest count as dropped.
        events: usize,
        /// Also replay the events into a [`CpcProfile`].
        replay: bool,
    },
}

/// Knobs for a run. Only [`PartitionOptions::shards`] affects scheduling;
/// everything else configures what each cell records, and is applied
/// identically to every cell.
#[derive(Debug, Clone)]
pub struct PartitionOptions {
    /// Worker shards to spread cells over (`0` is treated as `1`).
    pub shards: usize,
    /// Telemetry configuration installed on every cell; `None` leaves the
    /// telemetry layer off altogether (every hot-path hook stays a single
    /// branch). [`TelemetryConfig::self_profile`] is forcibly disabled —
    /// wall-clock samples are inherently nondeterministic and would break
    /// the byte-identical-output guarantee.
    pub telemetry: Option<TelemetryConfig>,
    /// Whether each cell records span events, and whether it keeps them
    /// (for the merged Chrome trace) or only checks them.
    pub span_tracing: SpanTracing,
}

impl PartitionOptions {
    /// Options for a plain `shards`-way run: default (decomposition-only)
    /// telemetry plus the streaming critical-path profile, no span tracing.
    pub fn with_shards(shards: usize) -> Self {
        PartitionOptions {
            shards: shards.max(1),
            telemetry: Some(TelemetryConfig {
                critpath: true,
                ..TelemetryConfig::default()
            }),
            span_tracing: SpanTracing::Off,
        }
    }
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions::with_shards(1)
    }
}

/// One finished cell: its run summary and the simulator that produced it.
/// The simulator is kept (moved, not copied) so that every export — the
/// Prometheus registry, CSV, JSON, Chrome trace, audit, span log — is
/// rendered from it only when a caller asks, exactly as for a bare
/// [`Simulator`]. The exception is a span log the run was asked to check
/// rather than keep: its events are gone when the cell ends, and what the
/// checks found is in [`CellOutput::checks`].
#[derive(Debug)]
pub struct CellOutput {
    /// Cell index (position in [`PartitionPlan::cells`]).
    pub cell: usize,
    /// Shard that executed the cell (diagnostic only — results never
    /// depend on it).
    pub shard: usize,
    /// The cell's run summary, under its [`cell_seed`].
    pub result: RunResult,
    /// The cell's simulator, stopped at the deadline.
    pub sim: Simulator,
    /// What the checks of a streamed span log found; `None` unless the run
    /// asked for [`SpanTracing::Check`].
    pub checks: Option<SpanChecks>,
}

/// The finished checks of one cell's streamed span log
/// ([`SpanTracing::Check`]).
#[derive(Debug)]
pub struct SpanChecks {
    /// The trace audit against the cell's final counters.
    pub audit: AuditReport,
    /// The critical-path profile replayed from the events (to compare with
    /// the cell's streaming one), if the run asked for it.
    pub replay: Option<Result<CpcProfile, String>>,
}

impl CellOutput {
    /// Span events this cell dropped because its log filled up (`0` when
    /// tracing is off). A nonzero value means the audit and Chrome trace
    /// are incomplete — raise the per-cell capacity.
    pub fn span_dropped(&self) -> u64 {
        self.sim.span_log().map_or(0, |log| log.dropped())
    }
}

/// A completed run: the merged cluster-level summary plus the per-cell
/// outputs it was merged from.
#[derive(Debug)]
pub struct PartitionedRun {
    /// Cluster-level summary (master seed, merged per [`merge_results`]).
    pub result: RunResult,
    /// Per-cell outputs, in cell order.
    pub cells: Vec<CellOutput>,
    /// Shard count the run used.
    pub shards: usize,
    /// `assignment[cell] = shard` (diagnostic only).
    pub assignment: Vec<usize>,
}

impl PartitionedRun {
    /// The merged Prometheus exposition (byte-identical at any shard
    /// count).
    pub fn prometheus(&self) -> String {
        merge_registries(&self.cells).to_prometheus()
    }

    /// The merged time-series CSV, or `None` when the sampler was off.
    pub fn csv(&self) -> Option<String> {
        merge_csv(&self.cells)
    }

    /// The merged JSON metrics dump (one cell: that cell's own dump; more:
    /// a cluster header over the per-cell dumps).
    pub fn json(&self) -> Value {
        merge_json(&self.result, &self.cells)
    }

    /// The merged Chrome trace, or `None` unless the span logs were
    /// [retained](SpanTracing::Retain).
    pub fn chrome_trace(&self) -> Option<Value> {
        merge_chrome_traces(&self.cells)
    }

    /// The merged audit report, or `None` when span tracing was off.
    pub fn audit(&self) -> Option<AuditReport> {
        merge_audits(&self.cells)
    }
}

/// Rejects fault-plan references that no cell will claim, with the same
/// [`SimError::UnknownEntity`] that
/// [`Simulator::install_faults`](crate::sim::Simulator::install_faults)
/// raises for a whole scenario — per-cell plans are *filtered*, so without
/// this check a misspelled entity name would silently vanish instead of
/// erroring.
fn validate_fault_plan(cfg: &ScenarioConfig, plan: &FaultPlan) -> SimResult<()> {
    let instances: HashSet<&str> = cfg.instances.iter().map(|i| i.name.as_str()).collect();
    let machines: HashSet<&str> = cfg.machines.iter().map(|m| m.name.as_str()).collect();
    let clients: HashSet<&str> = cfg.clients.iter().map(|c| c.name.as_str()).collect();
    let unknown = |kind: &'static str, name: &str| SimError::UnknownEntity {
        kind,
        name: name.to_string(),
    };
    for spec in &plan.faults {
        match spec {
            FaultSpec::InstanceCrash { instance, .. }
            | FaultSpec::PoolLeak { up: instance, .. } => {
                if !instances.contains(instance.as_str()) {
                    return Err(unknown("instance", instance));
                }
            }
            FaultSpec::MachineSlowdown { machine, .. }
            | FaultSpec::NetworkDegrade { machine, .. } => {
                if !machines.contains(machine.as_str()) {
                    return Err(unknown("machine", machine));
                }
            }
        }
    }
    for p in &plan.policy.clients {
        if !clients.contains(p.client.as_str()) {
            return Err(unknown("client", &p.client));
        }
    }
    Ok(())
}

/// Builds, runs, and summarizes one cell (see [`run_partitioned`]).
fn run_cell(
    spec: &CellSpec,
    shard: usize,
    faults: Option<&FaultPlan>,
    master_seed: u64,
    duration: SimDuration,
    opts: &PartitionOptions,
) -> SimResult<CellOutput> {
    let seed = cell_seed(master_seed, spec.id as u64);
    let mut sim = spec.config.with_seed(seed).build()?;
    if let Some(p) = faults {
        // Install even when the filtered slice is empty: the presence of a
        // plan changes which metric families the registry emits, and every
        // cell must stay structurally congruent for the merge.
        sim.install_faults(&split_fault_plan(p, spec))?;
    }
    if let Some(tcfg) = opts.telemetry {
        sim.enable_telemetry(TelemetryConfig {
            self_profile: false,
            ..tcfg
        });
    }
    let deadline = SimTime::ZERO + duration;
    let (sim, checks) = match opts.span_tracing {
        SpanTracing::Off => {
            sim.run_until(deadline);
            (sim, None)
        }
        SpanTracing::Retain(capacity) => {
            sim.enable_span_tracing(capacity);
            sim.run_until(deadline);
            (sim, None)
        }
        SpanTracing::Check { events, replay } => {
            let (sim, checks) = run_checked(sim, deadline, events, replay);
            (sim, Some(checks))
        }
    };
    Ok(CellOutput {
        cell: spec.id,
        shard,
        result: crate::run::summarize(&sim, seed, duration, spec.config.warmup_s),
        sim,
        checks,
    })
}

/// Runs `sim` to `deadline` with a streamed span log of at most `events`
/// events, folding the chunks into the audit (and with `replay` the
/// critical-path replay) on a second thread as they fill.
fn run_checked(
    sim: Simulator,
    deadline: SimTime,
    events: usize,
    replay: bool,
) -> (Simulator, SpanChecks) {
    let (sim, audit, replayed) = std::thread::scope(|scope| {
        // Owned by this closure, so that a panic in the run drops the
        // simulator, and with it the sending end of the stream, before the
        // scope waits for the consumer — which otherwise never returns.
        let mut sim = sim;
        let chunks = sim.stream_span_tracing(events);
        let consumer = scope.spawn(move || {
            let mut audit = AuditFold::new(TraceAuditor::new());
            let mut replayed = replay.then(ReplayFold::new);
            chunks.drain(|chunk| {
                audit.feed(chunk);
                if let Some(fold) = &mut replayed {
                    fold.feed(chunk);
                }
            });
            (audit, replayed)
        });
        sim.run_until(deadline);
        sim.close_span_stream();
        let (audit, replayed) = consumer.join().expect("the span-check thread panicked");
        (sim, audit, replayed)
    });
    let log = sim.span_log().expect("span tracing was just enabled");
    let (events, dropped) = (log.len(), log.dropped());
    let checks = SpanChecks {
        audit: audit.finish(&sim.audit_counts(), events, dropped),
        replay: replayed.map(|fold| fold.finish(&sim.trace_meta(), events, dropped)),
    };
    (sim, checks)
}

/// Runs `cfg` for `duration` under `seed` and merges the per-cell outputs
/// into cluster-level results — the one run pipeline.
///
/// The scenario is split into request-closed cells
/// ([`split_cells`](crate::partition::split_cells)), each cell runs as an
/// independent simulator under its [`cell_seed`], `opts.shards` workers
/// execute cells in parallel, and every output — run summary, Prometheus
/// text, CSV, JSON, Chrome trace, audit, chaos summary — is merged in cell
/// order. **The merged outputs are byte-identical at any `shards` value**,
/// faulted or not; see the module docs and DESIGN.md §11 for the argument.
///
/// A scenario whose entities are all connected is a single cell run under
/// `seed` itself (`cell_seed(seed, 0) == seed`), and every merge of one
/// cell is the identity: the result, and every export, equals what a bare
/// [`Simulator`] built from `cfg.with_seed(seed)` with the same observers
/// produces, byte for byte.
///
/// # Errors
///
/// Propagates cell-construction failures and fault-plan references to
/// unknown entities (checked against the whole scenario before any cell
/// runs, so a typo errors rather than silently filtering away). When
/// several cells fail, the lowest-numbered cell's error wins,
/// deterministically.
///
/// # Examples
///
/// ```
/// use uqsim_core::config::ScenarioConfig;
/// use uqsim_core::partition::{run_partitioned, PartitionOptions};
/// use uqsim_core::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
/// let run = run_partitioned(
///     &cfg,
///     None,
///     7,
///     SimDuration::from_millis(400),
///     &PartitionOptions::with_shards(2),
/// )?;
/// assert!(run.result.completed > 0);
/// assert_eq!(run.cells.len(), 1); // the example scenario is one cell
/// # Ok(())
/// # }
/// ```
pub fn run_partitioned(
    cfg: &ScenarioConfig,
    faults: Option<&FaultPlan>,
    seed: u64,
    duration: SimDuration,
    opts: &PartitionOptions,
) -> SimResult<PartitionedRun> {
    if let Some(plan) = faults {
        validate_fault_plan(cfg, plan)?;
    }
    let plan = PartitionPlan::new(cfg, opts.shards)?;
    let plan_ref = &plan;
    let tasks: Vec<_> = (0..plan.shards)
        .map(|s| {
            move || -> Vec<(usize, SimResult<CellOutput>)> {
                plan_ref
                    .shard_cells(s)
                    .into_iter()
                    .map(|cell| {
                        let out = run_cell(&plan_ref.cells[cell], s, faults, seed, duration, opts);
                        (cell, out)
                    })
                    .collect()
            }
        })
        .collect();
    let pool = Pool::new(plan.shards.min(plan.cells.len().max(1)));
    let mut outputs: Vec<(usize, SimResult<CellOutput>)> =
        pool.run(tasks).into_iter().flatten().collect();
    outputs.sort_by_key(|&(cell, _)| cell);
    let cells = outputs
        .into_iter()
        .map(|(_, out)| out)
        .collect::<SimResult<Vec<CellOutput>>>()?;
    let result = merge_results(seed, &cells);
    Ok(PartitionedRun {
        result,
        cells,
        shards: plan.shards,
        assignment: plan.assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::EXAMPLE_SCENARIO;

    #[test]
    fn unknown_fault_entities_error_before_any_cell_runs() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let plan = FaultPlan::from_json(
            r#"{ "faults": [ { "kind": "instance_crash",
                 "instance": "nope", "at_s": 0.1 } ] }"#,
        )
        .unwrap();
        let err = run_partitioned(
            &cfg,
            Some(&plan),
            1,
            SimDuration::from_millis(100),
            &PartitionOptions::with_shards(2),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::UnknownEntity {
                kind: "instance",
                ..
            }
        ));
    }

    #[test]
    fn shard_count_never_changes_the_merged_result() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let d = SimDuration::from_millis(300);
        let one = run_partitioned(&cfg, None, 5, d, &PartitionOptions::with_shards(1)).unwrap();
        let four = run_partitioned(&cfg, None, 5, d, &PartitionOptions::with_shards(4)).unwrap();
        assert_eq!(one.result, four.result);
        assert_eq!(one.prometheus(), four.prometheus());
    }
}
