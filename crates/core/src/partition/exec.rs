//! The run pipeline: cells on shards, merged.
//!
//! Spec: DESIGN.md §11.1 ("Execution"). [`run_partitioned`] is the one
//! build → run → summarize path every entry point shares
//! ([`run_one`](crate::run::run_one), the sweep runner, and the CLI's
//! `run`/`chaos`/`why`/`trace --config`/`sweep`): it splits the scenario
//! into cells, lets the shard workers claim them costliest first, runs
//! every cell as a whole [`Simulator`] to the deadline, and merges the
//! per-cell outputs deterministically. A scenario that cannot be split is
//! one cell under the master seed, and the merge of one cell is the
//! identity, so the classic single-simulator run is the one-cell case of
//! this function. The shard count (and the worker scheduling under it)
//! affects wall-clock time only — never a single output byte.

use std::collections::HashSet;

use minipool::Pool;
use serde::Value;

use crate::config::ScenarioConfig;
use crate::critpath::ReplayFold;
use crate::error::{SimError, SimResult};
use crate::fault::{FaultPlan, FaultSpec};
use crate::metrics::LatencyRecorder;
use crate::run::RunResult;
use crate::sim::Simulator;
use crate::telemetry::{
    LatencyComponent, MetricsRegistry, SeriesSet, StreamingHistogram, TelemetryConfig,
    TelemetryWindow,
};
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    AuditCounts, AuditFold, AuditReport, ChromeTrace, TraceAuditor, TraceLog, TraceMeta,
};

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
        /// Also replay the events into a
        /// [`CpcProfile`](crate::critpath::CpcProfile) and compare it with
        /// the cell's streaming one.
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

/// One finished cell: its run summary and its *remains* — what the merges
/// read, moved out of the cell's [`Simulator`] on the worker thread the
/// moment the cell's run ended. The simulator itself (event queue, arenas,
/// per-instance runtime, connection pools) is dropped right there, in
/// parallel with the cells still running, so a run holds one live simulator
/// per shard plus these small remains per cell — not one simulator per cell
/// until the last export (DESIGN.md §11.1 has the table: field, who reads
/// it, when present).
///
/// The always-present remains are cheap: two finished latency recorders
/// (moved, not copied; about a byte per measured request), three scalars,
/// and the metrics-registry snapshot with its two mergeable histogram
/// sets. The heavy ones exist only when the caller's options asked for
/// what needs them: [`trace`](Self::trace) under [`SpanTracing::Retain`],
/// [`series`](Self::series) when the telemetry sampler ran.
#[derive(Debug)]
pub struct CellOutput {
    /// Cell index (position in [`PartitionPlan::cells`]).
    pub cell: usize,
    /// The cell's run summary, under its [`cell_seed`].
    pub result: RunResult,
    /// What the checks of a streamed span log found; `None` unless the run
    /// asked for [`SpanTracing::Check`].
    pub checks: Option<SpanChecks>,
    /// The cell's post-warmup end-to-end latency samples: its simulator's
    /// recorder, finished (its open buffer sealed and freed) — sorted runs
    /// of delta-coded nanoseconds, exact, about a byte per measured request
    /// and the only thing a cell keeps per request.
    /// [`LatencyRecorder::ascending`] lists what a bare simulator's
    /// [`Simulator::latency_samples`] does; [`merge_results`] merges every
    /// cell's runs into one summary.
    pub latency_samples: LatencyRecorder,
    /// Deadline-pinned latency samples of timed-out requests, recorded
    /// likewise.
    pub timeout_latency_samples: LatencyRecorder,
    /// Degraded (early-fire) completions inside the measurement window —
    /// counted in the latency summary, excluded from merged goodput.
    pub degraded_measured: u64,
    /// Instances the cell simulated: the weight of its mean instance
    /// utilization in the merged snapshot.
    pub instances: usize,
    /// Machines with irq cores: the weight of its mean network utilization.
    pub irq_machines: usize,
    /// The cell's metrics registry at the deadline
    /// ([`Simulator::metrics_registry`]); [`merge_registries`] folds these.
    pub registry: MetricsRegistry,
    /// The histogram behind the registry's `uqsim_e2e_latency_seconds`
    /// summary (quantiles merge through histograms, not through
    /// quantiles); `None` when telemetry was off.
    pub e2e_histogram: Option<StreamingHistogram>,
    /// The histograms behind `uqsim_latency_component_seconds`, indexed by
    /// [`LatencyComponent`] discriminant; `None` when telemetry was off.
    pub component_histograms: Option<[StreamingHistogram; LatencyComponent::COUNT]>,
    /// Span events the cell recorded (`0` when tracing was off).
    pub span_events: usize,
    /// Span events the cell dropped because its log filled up. A nonzero
    /// value means the audit and Chrome trace are incomplete — raise the
    /// per-cell capacity.
    pub span_dropped: u64,
    /// The retained span log and what rendering and auditing it need;
    /// `None` unless the run asked for [`SpanTracing::Retain`].
    pub trace: Option<RetainedTrace>,
    /// What the telemetry sampler recorded; `None` unless
    /// [`TelemetryConfig::sample_interval`] was set.
    pub series: Option<CellSeries>,
}

/// A cell's retained span log ([`SpanTracing::Retain`]) with the entity
/// names and final counters its views are rendered from —
/// [`chrome_trace`](crate::trace::chrome_trace),
/// [`sampled_traces`](crate::trace::sampled_traces), and the
/// [`TraceAuditor`].
#[derive(Debug)]
pub struct RetainedTrace {
    /// The span events, in record order.
    pub log: TraceLog,
    /// Machine, instance, stage, request-type, pool and client names.
    pub meta: TraceMeta,
    /// The simulator's final counters, which the audit reconciles against.
    pub counts: AuditCounts,
}

/// A cell's sampler output, moved out of its simulator's telemetry state:
/// what [`merge_csv`] and [`merge_json`] render the cell's
/// [`Simulator::metrics_csv`] and [`Simulator::metrics_json`] from. The
/// series carry their own entity names; the compact columns (one `f64` per
/// gauge per tick) are kept rather than a rendering of them, which is
/// several times their size.
#[derive(Debug)]
pub struct CellSeries {
    /// The closed latency windows, one per sampler tick.
    pub windows: Vec<TelemetryWindow>,
    /// The gauge series, sampled at the same ticks.
    pub series: SeriesSet,
    /// The rest of the cell's JSON dump — run counters, latency summary,
    /// snapshot, decomposition, per-entity utilization — which only the
    /// live simulator could render.
    pub(crate) json_head: Value,
}

/// The finished checks of one cell's streamed span log
/// ([`SpanTracing::Check`]).
#[derive(Debug)]
pub struct SpanChecks {
    /// The trace audit against the cell's final counters.
    pub audit: AuditReport,
    /// Whether the critical-path profile replayed from the events equals
    /// the cell's streaming one ([`RunResult::critpath`]), if the run asked
    /// for the replay. Only the verdict is kept — the comparison is made on
    /// the worker and the replayed profile dropped there. `Err` is the
    /// replay's own error, or says that the two disagree.
    pub replay: Option<Result<(), String>>,
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
}

impl PartitionedRun {
    /// The merged Prometheus exposition (byte-identical at any shard
    /// count).
    pub fn prometheus(&self) -> String {
        merge_registries(&self.cells).to_prometheus()
    }

    /// The merged time-series CSV, or `None` when the sampler was off
    /// ([`TelemetryConfig::sample_interval`] unset).
    pub fn csv(&self) -> Option<String> {
        merge_csv(&self.cells)
    }

    /// The merged JSON metrics dump (one cell: that cell's own dump; more:
    /// a cluster header over the per-cell dumps), or `None` when the
    /// sampler was off — like [`csv`](Self::csv), it is rendered from the
    /// series each cell [kept](CellOutput::series), and a run that did
    /// not ask for the sampler does not pay for keeping any.
    pub fn json(&self) -> Option<Value> {
        merge_json(&self.result, &self.cells)
    }

    /// The merged Chrome trace (a view to serialize, see [`ChromeTrace`]),
    /// or `None` unless the span logs were [retained](SpanTracing::Retain).
    pub fn chrome_trace(&self) -> Option<ChromeTrace<'_>> {
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

/// Builds, runs, and summarizes one cell (see [`run_partitioned`]), then
/// takes its remains and drops its simulator — here, on the worker.
fn run_cell(
    spec: &CellSpec,
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
    let (mut sim, folds) = match opts.span_tracing {
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
            let (sim, folds) = run_checked(sim, deadline, events, replay);
            (sim, Some(folds))
        }
    };
    let result = crate::run::summarize(&mut sim, seed, duration, spec.config.warmup_s);
    let checks = folds.map(|folds| finish_checks(folds, &sim, &result, spec.id));
    Ok(take_remains(sim, spec.id, result, checks, opts))
}

/// Finishes a checked cell's folds against its final state. The replayed
/// profile is compared with the streaming one (`result.critpath`) and
/// dropped: only the verdict outlives the cell.
fn finish_checks(
    (audit, replayed): (AuditFold, Option<ReplayFold>),
    sim: &Simulator,
    result: &RunResult,
    cell: usize,
) -> SpanChecks {
    let log = sim.span_log().expect("the cell streamed its span log");
    let (events, dropped) = (log.len(), log.dropped());
    SpanChecks {
        audit: audit.finish(&sim.audit_counts(), events, dropped),
        replay: replayed.map(|fold| {
            let replayed = fold.finish(&sim.trace_meta(), events, dropped)?;
            if result.critpath.as_ref() == Some(&replayed) {
                Ok(())
            } else {
                Err(format!(
                    "cell {cell}: streaming and trace-replayed attribution disagree; \
                     this is an engine bug — please report it"
                ))
            }
        }),
    }
}

/// Moves out of a finished cell's simulator what the merges read — always
/// the samples, counters and registry snapshot; the span log and the
/// sampler's series only if `opts` asked for what needs them — and drops
/// the rest of it.
fn take_remains(
    mut sim: Simulator,
    cell: usize,
    result: RunResult,
    checks: Option<SpanChecks>,
    opts: &PartitionOptions,
) -> CellOutput {
    let (span_events, span_dropped) = sim
        .span_log()
        .map_or((0, 0), |log| (log.len(), log.dropped()));
    let trace = match opts.span_tracing {
        SpanTracing::Retain(_) => Some(RetainedTrace {
            meta: sim.trace_meta(),
            counts: sim.audit_counts(),
            log: sim.take_span_log().expect("span tracing was enabled"),
        }),
        SpanTracing::Off | SpanTracing::Check { .. } => None,
    };
    // These two read the telemetry state: render them before taking it.
    let registry = sim.metrics_registry();
    let sampler_on = opts.telemetry.is_some_and(|t| t.sample_interval.is_some());
    let json_head = sampler_on.then(|| sim.metrics_json_head(result.latency));
    let (e2e_histogram, component_histograms, series) = match sim.telemetry.take() {
        Some(tel) => {
            let tel = *tel;
            let series = json_head.map(|json_head| CellSeries {
                windows: tel.windows,
                series: tel.series,
                json_head,
            });
            (Some(tel.e2e_hist), Some(tel.comp_hist), series)
        }
        None => (None, None, None),
    };
    let irq_machines = sim.machines.iter().filter(|m| !m.irq_cores.is_empty());
    CellOutput {
        cell,
        result,
        checks,
        degraded_measured: sim.degraded_measured(),
        instances: sim.instance_count(),
        irq_machines: irq_machines.count(),
        registry,
        e2e_histogram,
        component_histograms,
        span_events,
        span_dropped,
        trace,
        series,
        latency_samples: sim.e2e,
        timeout_latency_samples: sim.e2e_timeout,
    }
}

/// Runs `sim` to `deadline` with a streamed span log of at most `events`
/// events, folding the chunks into the audit (and with `replay` the
/// critical-path replay) on a second thread as they fill. Returns the
/// folds unfinished: what they are finished against is the caller's.
fn run_checked(
    sim: Simulator,
    deadline: SimTime,
    events: usize,
    replay: bool,
) -> (Simulator, (AuditFold, Option<ReplayFold>)) {
    std::thread::scope(|scope| {
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
        let folds = consumer.join().expect("the span-check thread panicked");
        (sim, folds)
    })
}

/// Runs `cfg` for `duration` under `seed` and merges the per-cell outputs
/// into cluster-level results — the one run pipeline.
///
/// The scenario is split into request-closed cells
/// ([`split_cells`](crate::partition::split_cells)), each cell runs as an
/// independent simulator under its [`cell_seed`], `opts.shards` workers
/// each claim the next unstarted cell of the plan's
/// [`claim_order`](PartitionPlan::claim_order) whenever they are free (one
/// live simulator per worker), and every output — run summary, Prometheus
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
    let pool = Pool::new(plan.shards.min(plan.cells.len().max(1)));
    let cells = pool
        .map_claimed(&plan.claim_order(), |cell| {
            run_cell(&plan.cells[cell], faults, seed, duration, opts)
        })
        .into_iter()
        .collect::<SimResult<Vec<CellOutput>>>()?;
    let result = merge_results(seed, &cells);
    Ok(PartitionedRun {
        result,
        cells,
        shards: plan.shards,
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
