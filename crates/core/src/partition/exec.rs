//! The run pipeline: cells on shards, merged.
//!
//! Spec: DESIGN.md §11.1 ("Execution"). [`run_batch`] is the one build →
//! run → summarize path every entry point shares
//! ([`run_one`](crate::run::run_one), the sweep runner, and the CLI's
//! `run`/`chaos`/`why`/`trace --config`/`sweep`), most of them through its
//! one-run cases [`run_groups`] and [`run_partitioned`]: it splits each
//! run's scenario — a group at a time — into cells, lets the workers claim
//! the cells of every run from one queue, costliest first within a group,
//! runs every cell as a whole [`Simulator`] to the deadline, and merges
//! each run's per-cell outputs deterministically. A scenario that cannot
//! be split is one cell under the master seed, and the merge of one cell
//! is the identity, so the classic single-simulator run is the one-cell
//! case of this function. The worker count (and the scheduling under it)
//! affects wall-clock time only — never a single output byte.

use std::sync::{Mutex, PoisonError};

use minipool::Pool;
use serde::Value;

use crate::config::ScenarioConfig;
use crate::critpath::ReplayFold;
use crate::error::SimResult;
use crate::fault::FaultPlan;
use crate::metrics::LatencyRecorder;
use crate::run::RunResult;
use crate::sim::Simulator;
use crate::telemetry::{MetricsRegistry, SeriesSet, TelemetryConfig, TelemetryWindow};
use crate::time::{SimDuration, SimTime};
use crate::trace::{AuditFold, AuditReport, ChromeTrace, TraceAuditor, TraceLog, TraceMeta};

use super::graph::{split_groups, CellSpec};
use super::merge::{
    merge_audits, merge_chrome_traces, merge_csv, merge_json, merge_registries, merge_results,
};
use super::plan::{cell_seed, claim_order};

/// What a run does with its per-request span events (see [`crate::trace`]).
/// The capacities are per cell, in events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTracing {
    /// Record nothing: every hot-path hook stays a single branch.
    Off,
    /// Keep each cell's log in memory, up to this many events, for the
    /// views that read a finished log (the merged Chrome trace, sampled
    /// request traces); the cell's worker audits it once the run ends.
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
    /// branch).
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
/// (moved, not copied; about a byte per measured request) and three
/// scalars. The rest exist only when the caller's options asked for what
/// needs them: the metrics-registry snapshot when telemetry was on,
/// [`trace`](Self::trace) under [`SpanTracing::Retain`],
/// [`series`](Self::series) when the telemetry sampler ran.
#[derive(Debug)]
pub struct CellOutput {
    /// Cell index: its position in
    /// [`PartitionPlan::cells`](super::PartitionPlan::cells), or across
    /// the groups of a [`run_groups`] run.
    pub cell: usize,
    /// The cell's run summary, under its [`cell_seed`].
    pub result: RunResult,
    /// What the checks of the cell's span log found, made on its worker
    /// while the log streamed ([`SpanTracing::Check`]) or once the run
    /// ended ([`SpanTracing::Retain`], an audit only); `None` when span
    /// tracing was off.
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
    /// ([`Simulator::metrics_registry`]): what [`merge_registries`] folds
    /// and [`merge_json`] renders the cell's JSON dump from. Its adding
    /// summaries keep their histograms, since quantiles merge through
    /// histograms, not through quantiles. `None` when telemetry was off:
    /// nothing of a run without telemetry reads a registry, and a
    /// cluster's is a labelled gauge or two per instance, machine and pool.
    pub registry: Option<MetricsRegistry>,
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
/// names its views are rendered from —
/// [`chrome_trace`](crate::trace::chrome_trace) and
/// [`sampled_traces`](crate::trace::sampled_traces). Its audit was made on
/// the cell's worker ([`CellOutput::checks`]).
#[derive(Debug)]
pub struct RetainedTrace {
    /// The span events, in record order.
    pub log: TraceLog,
    /// Machine, instance, stage, request-type, pool and client names.
    pub meta: TraceMeta,
}

/// A cell's sampler output, moved out of its simulator's telemetry state:
/// with the cell's registry, what [`merge_csv`] and [`merge_json`] render
/// the cell's [`Simulator::metrics_csv`] and [`Simulator::metrics_json`]
/// from. The series carry their own entity names; the compact columns (one
/// `f64` per gauge per tick) are kept rather than a rendering of them,
/// which is several times their size.
#[derive(Debug)]
pub struct CellSeries {
    /// The closed latency windows, one per sampler tick.
    pub windows: Vec<TelemetryWindow>,
    /// The gauge series, sampled at the same ticks.
    pub series: SeriesSet,
}

/// The finished checks of one cell's span log.
#[derive(Debug)]
pub struct SpanChecks {
    /// The trace audit against the cell's final counters.
    pub audit: AuditReport,
    /// Whether the critical-path profile replayed from the events equals
    /// the cell's streaming one ([`RunResult::critpath`]), if the run asked
    /// for the replay ([`SpanTracing::Check`]). Only the verdict is kept —
    /// the comparison is made on the worker and the replayed profile
    /// dropped there. `Err` is the replay's own error, or says that the two
    /// disagree.
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
    /// count), or `None` when telemetry was off
    /// ([`PartitionOptions::telemetry`] unset) and no cell kept a registry.
    pub fn prometheus(&self) -> Option<String> {
        merge_registries(&self.cells).map(|reg| reg.to_prometheus())
    }

    /// The merged time-series CSV, or `None` when the sampler was off
    /// ([`TelemetryConfig::sample_interval`] unset).
    pub fn csv(&self) -> Option<String> {
        merge_csv(&self.cells)
    }

    /// The merged JSON metrics dump (one cell: that cell's own dump; more:
    /// a cluster header over the per-cell dumps), or `None` when the
    /// sampler was off — like [`csv`](Self::csv), it is rendered from the
    /// series each cell [kept](CellOutput::series), with the cell's
    /// [registry](CellOutput::registry), and a run that did not ask for the
    /// sampler does not pay for keeping any series.
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

/// Builds, runs, and summarizes one cell (see [`run_partitioned`]), then
/// takes its remains and drops its simulator — here, on the worker. The
/// cell's configuration goes into the simulator the build makes.
fn run_cell(
    spec: CellSpec,
    faults: Option<&FaultPlan>,
    master_seed: u64,
    duration: SimDuration,
    opts: &PartitionOptions,
) -> SimResult<CellOutput> {
    let seed = cell_seed(master_seed, spec.id as u64);
    let (id, warmup_s) = (spec.id, spec.config.warmup_s);
    let mut sim = ScenarioConfig {
        seed,
        ..spec.config
    }
    .into_simulator()?;
    if let Some(plan) = faults {
        // The cell installs the faults and policies it owns, even none:
        // the presence of a plan changes which metric families the
        // registry emits, and every cell must stay structurally congruent
        // for the merge.
        sim.install_plan(plan, true)?;
    }
    if let Some(tcfg) = opts.telemetry {
        sim.enable_telemetry(tcfg);
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
    let result = crate::run::summarize(&mut sim, seed, duration, warmup_s);
    let checks = match folds {
        Some(folds) => Some(finish_checks(folds, &sim, &result, id)),
        // A retained log is audited here, on the worker, as a checked one
        // is while it streams.
        None => sim.span_log().map(|log| SpanChecks {
            audit: TraceAuditor::new().audit(log, &sim.audit_counts()),
            replay: None,
        }),
    };
    Ok(take_remains(sim, id, result, checks, opts))
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
/// the samples and counters; the registry snapshot, the span log and the
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
            log: sim.take_span_log().expect("span tracing was enabled"),
        }),
        SpanTracing::Off | SpanTracing::Check { .. } => None,
    };
    // The registry reads the telemetry state: render it before taking it.
    let registry = opts.telemetry.is_some().then(|| sim.metrics_registry());
    let sampler_on = opts.telemetry.is_some_and(|t| t.sample_interval.is_some());
    let series = (sim.take_telemetry())
        .filter(|_| sampler_on)
        .map(|tel| CellSeries {
            windows: tel.windows,
            series: tel.series,
        });
    let (degraded_measured, instances) = (sim.degraded_measured(), sim.instance_count());
    let irq_machines = sim.irq_machine_count();
    let (latency_samples, timeout_latency_samples) = sim.into_recorders();
    CellOutput {
        cell,
        result,
        checks,
        degraded_measured,
        instances,
        irq_machines,
        registry,
        span_events,
        span_dropped,
        trace,
        series,
        latency_samples,
        timeout_latency_samples,
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
            let mut audit = AuditFold::new();
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
/// into cluster-level results: [`run_groups`] with `cfg` as its one group.
///
/// The scenario is split into request-closed cells
/// ([`split_cells`](crate::partition::split_cells)), each cell runs as an
/// independent simulator under its [`cell_seed`], `opts.shards` workers
/// each claim the next unstarted cell of the plan's
/// [`claim_order`](super::PartitionPlan::claim_order) whenever they are
/// free (one live simulator per worker), and every output — run summary,
/// Prometheus text, CSV, JSON, Chrome trace, audit, chaos summary — is
/// merged in cell order. **The merged outputs are byte-identical at any
/// `shards` value**, faulted or not; see the module docs and DESIGN.md §11
/// for the argument.
///
/// A scenario whose entities are all connected is a single cell run under
/// `seed` itself (`cell_seed(seed, 0) == seed`), and every merge of one
/// cell is the identity: the result, and every export, equals what a bare
/// [`Simulator`] built from `cfg.with_seed(seed)` with the same observers
/// produces, byte for byte.
///
/// The run holds the scenario once. Handed over by value, `cfg` is carved
/// into the cells without a copy (a borrowed one is copied once, as
/// [`PartitionPlan::new`](super::PartitionPlan::new) says), and each cell's
/// configuration goes into its simulator when its worker claims and builds
/// it. Without telemetry a finished cell keeps no metrics registry either
/// ([`CellOutput::registry`]).
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
    cfg: impl Into<ScenarioConfig>,
    faults: Option<&FaultPlan>,
    seed: u64,
    duration: SimDuration,
    opts: &PartitionOptions,
) -> SimResult<PartitionedRun> {
    run_groups(std::iter::once(cfg.into()), faults, seed, duration, opts)
}

/// Runs a scenario handed over as request-closed *groups* — scenarios
/// that together are the whole one and that share nothing, no name and no
/// request — pulling each group only when a worker needs it: the one-run
/// case of [`run_batch`], the one run pipeline.
///
/// A worker that has no cell left to claim takes the next group, under the
/// lock every claim goes through, and splits it into cells numbered after
/// the previous groups' ([`split_groups`](crate::partition::split_groups));
/// the group's cells are then claimed costliest first
/// ([`PartitionPlan::claim_order`](super::PartitionPlan::claim_order)).
/// Because a cell never spans two groups, the cells, their numbers, their
/// [`cell_seed`]s and every merge are those of [`run_partitioned`] on the
/// concatenated scenario — as long as every service, client and request
/// type of a group touches a machine of it (see
/// [`split_groups`](crate::partition::split_groups)). One group is exactly
/// [`run_partitioned`]'s plan.
///
/// So a run holds the groups its workers are splitting or running, not
/// the scenario: a generator can yield one group at a time
/// (`uqsim_synth::GenSpec::replicas`) and the run's memory follows the
/// shard count, not the group count. A run with a fault plan collects its
/// groups first, so that a fault naming an entity of no group errors
/// before any cell runs.
///
/// # Errors
///
/// As [`run_partitioned`]: the lowest-numbered cell's error wins. A group
/// that fails to split stops the pulling, and its error counts as the
/// group's first cell's.
///
/// # Examples
///
/// ```
/// use uqsim_core::config::ScenarioConfig;
/// use uqsim_core::partition::{run_groups, run_partitioned, PartitionOptions};
/// use uqsim_core::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
/// let (d, opts) = (SimDuration::from_millis(200), PartitionOptions::with_shards(2));
/// let streamed = run_groups(vec![cfg.clone()], None, 7, d, &opts)?;
/// assert_eq!(streamed.result, run_partitioned(cfg, None, 7, d, &opts)?.result);
/// # Ok(())
/// # }
/// ```
pub fn run_groups<'a, G>(
    groups: G,
    faults: Option<&'a FaultPlan>,
    seed: u64,
    duration: SimDuration,
    opts: &PartitionOptions,
) -> SimResult<PartitionedRun>
where
    G: IntoIterator<Item = ScenarioConfig>,
    G::IntoIter: Send + 'a,
{
    let once = std::iter::once((groups.into_iter(), seed));
    // One run in, one result out.
    run_batch(once, faults, duration, opts, |_, run| run).remove(0)
}

/// Runs a batch of independent runs — each a scenario handed over as
/// request-closed groups, pulled lazily as [`run_groups`] pulls them, and
/// its master seed — under one fault plan, duration and set of options,
/// and returns `finish(k, run)` for run `k` as element `k`.
///
/// Every cell of every run is claimed from one queue by `opts.shards`
/// workers: a worker with nothing left to claim pulls the next group of
/// the current run, or the next run once the current one's groups are all
/// pulled, and claims its cells costliest first
/// ([`PartitionPlan::claim_order`](super::PartitionPlan::claim_order)).
/// The worker that finishes a run's last cell merges the run in cell order
/// and hands it to `finish` right there, so what `finish` does not keep of
/// a run — a sweep keeps its [`RunResult`] — is freed as soon as the run
/// is done, while the other workers go on with the rest of the batch.
///
/// **Each run is what [`run_groups`] makes of it alone**: a cell's
/// trajectory, its seed and its place in its run's merge never depend on
/// which worker claimed it, nor on the runs beside it (spec invariants
/// **P4**, **P7**, and the batch relation of DESIGN.md §11).
///
/// `finish` gets a run's error — its lowest-numbered failing cell's, or
/// the fault plan's — in place of the run; the other runs are unaffected.
///
/// # Examples
///
/// ```
/// use uqsim_core::config::ScenarioConfig;
/// use uqsim_core::partition::{run_batch, run_partitioned, PartitionOptions};
/// use uqsim_core::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
/// let (d, opts) = (SimDuration::from_millis(200), PartitionOptions::with_shards(2));
/// let runs = [1000.0, 2000.0].map(|qps| (vec![cfg.with_offered_qps(qps)], 7));
/// let results = run_batch(runs, None, d, &opts, |_, run| run.map(|run| run.result));
/// let alone = run_partitioned(cfg.with_offered_qps(2000.0), None, 7, d, &opts)?;
/// assert_eq!(results[1].as_ref().ok(), Some(&alone.result));
/// # Ok(())
/// # }
/// ```
pub fn run_batch<'a, R, G, T, F>(
    runs: R,
    faults: Option<&'a FaultPlan>,
    duration: SimDuration,
    opts: &PartitionOptions,
    finish: F,
) -> Vec<T>
where
    R: IntoIterator<Item = (G, u64)>,
    R::IntoIter: Send,
    G: IntoIterator<Item = ScenarioConfig>,
    G::IntoIter: Send + 'a,
    T: Send,
    F: Fn(usize, SimResult<PartitionedRun>) -> T + Sync,
{
    let shards = opts.shards.max(1);
    let work = (runs.into_iter().enumerate()).flat_map(move |(run, (groups, seed))| {
        let groups = groups.into_iter();
        // A run with a fault plan collects its groups first and lowers
        // the plan against all of them, so that a fault no cell could
        // install errors before any of its cells runs.
        let split: Box<dyn Iterator<Item = _> + Send + 'a> = match faults {
            None => Box::new(split_groups(groups)),
            Some(plan) => {
                let groups: Vec<ScenarioConfig> = groups.collect();
                match plan.check_against(&groups) {
                    Ok(()) => Box::new(split_groups(groups)),
                    Err(e) => Box::new(std::iter::once(Err(e))),
                }
            }
        };
        RunWork {
            run,
            seed,
            split: Some(split),
            cells: 0,
        }
    });
    let gathering = Mutex::new(Vec::new());
    let finished = Pool::new(shards).map_pulled(work, |(run, seed, piece)| {
        let gathered = match piece {
            Piece::Cell(cell, spec) => {
                let output = spec.and_then(|spec| run_cell(spec, faults, seed, duration, opts));
                gather(&gathering, run, |g| {
                    if g.cells.len() <= cell {
                        g.cells.resize_with(cell + 1, || None);
                    }
                    g.cells[cell] = Some(output);
                    g.finished += 1;
                })
            }
            Piece::Sealed(cells) => gather(&gathering, run, |g| g.cells_in_all = Some(cells)),
        };
        // Every cell is in, so the first error in cell order is the
        // lowest-numbered cell's.
        let cells = gathered?.cells.into_iter().flatten();
        let merged = cells
            .collect::<SimResult<Vec<_>>>()
            .map(|cells| PartitionedRun {
                result: merge_results(seed, &cells),
                cells,
                shards,
            });
        Some(finish(run, merged))
    });
    // Results come back by item, and every item of a run is pulled before
    // any of the next run's: the piece that finished each run is in run
    // order.
    finished.into_iter().flatten().collect()
}

/// What an item of a [`run_batch`] queue — `(run, its seed, piece)` — is
/// to its run. A seal is one item per run, so its unused bytes cost
/// nothing worth a box per cell.
#[allow(clippy::large_enum_variant)]
enum Piece {
    /// Cell `.0`, or the error that stopped the run's splitting, numbered
    /// after every cell before it.
    Cell(usize, SimResult<CellSpec>),
    /// The run has no cells left to pull: `.0` in all.
    Sealed(usize),
}

/// The queue batches of one run, in pull order: its cells a group at a
/// time — each group split when it is pulled — then its seal.
struct RunWork<'a> {
    run: usize,
    seed: u64,
    /// The run's groups, split as they are pulled; `None` once it is sealed.
    split: Option<Box<dyn Iterator<Item = SimResult<Vec<CellSpec>>> + Send + 'a>>,
    /// Cells pulled so far.
    cells: usize,
}

impl Iterator for RunWork<'_> {
    type Item = (Vec<(usize, u64, Piece)>, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let item = |piece| (self.run, self.seed, piece);
        Some(match self.split.as_mut()?.next() {
            Some(Ok(cells)) => {
                let order = claim_order(&cells);
                self.cells += cells.len();
                let work = cells.into_iter().map(|spec| Piece::Cell(spec.id, Ok(spec)));
                (work.map(item).collect(), order)
            }
            // The splitting stops after a group that fails to split.
            Some(Err(e)) => {
                self.cells += 1;
                (vec![item(Piece::Cell(self.cells - 1, Err(e)))], vec![0])
            }
            None => {
                self.split = None;
                (vec![item(Piece::Sealed(self.cells))], vec![0])
            }
        })
    }
}

/// What the finished cells of a run gather until its last one finishes.
#[derive(Default)]
struct Gathered {
    /// Each finished cell's output, by cell number.
    cells: Vec<Option<SimResult<CellOutput>>>,
    finished: usize,
    /// The run's cell count, once its seal is claimed.
    cells_in_all: Option<usize>,
}

/// Records a finished cell or the seal of run `run` with `record`, and
/// takes what the run gathered if that was its last piece.
fn gather(
    gathering: &Mutex<Vec<Gathered>>,
    run: usize,
    record: impl FnOnce(&mut Gathered),
) -> Option<Gathered> {
    let mut runs = gathering.lock().unwrap_or_else(PoisonError::into_inner);
    if runs.len() <= run {
        runs.resize_with(run + 1, Gathered::default);
    }
    let gathered = &mut runs[run];
    record(gathered);
    (gathered.cells_in_all == Some(gathered.finished)).then(|| std::mem::take(gathered))
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
        assert_eq!(
            err.to_string(),
            "invalid configuration in faults.json: faults[0].instance: unknown instance `nope`"
        );
    }

    #[test]
    fn shard_count_never_changes_the_merged_result() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let d = SimDuration::from_millis(300);
        let one = run_partitioned(&cfg, None, 5, d, &PartitionOptions::with_shards(1)).unwrap();
        let four = run_partitioned(&cfg, None, 5, d, &PartitionOptions::with_shards(4)).unwrap();
        assert_eq!(one.result, four.result);
        assert_eq!(one.prometheus(), four.prometheus());
        assert!(one.prometheus().is_some(), "with_shards turns telemetry on");
    }

    #[test]
    fn a_scenario_handed_over_runs_as_a_borrowed_one_does() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let d = SimDuration::from_millis(300);
        let opts = PartitionOptions {
            telemetry: None,
            ..PartitionOptions::with_shards(2)
        };
        let borrowed = run_partitioned(&cfg, None, 5, d, &opts).unwrap();
        let owned = run_partitioned(cfg, None, 5, d, &opts).unwrap();
        assert_eq!(borrowed.result, owned.result);
        assert!(
            owned.cells.iter().all(|c| c.registry.is_none()),
            "no telemetry, no registry"
        );
        assert_eq!(owned.prometheus(), None);
    }
}
