//! Scenario-level sweep execution: QPS grid × seed replications, fanned
//! across the run pipeline's one queue, aggregated into a stable table.
//!
//! The unit of work is one run of [`run_batch`] — the run pipeline
//! [`uqsim_core::run_one`] and the CLI share; a sweep of `Q` QPS points
//! with `R` replications submits `Q·R` independent runs, and the workers
//! claim the cells of all of them from one queue. Aggregation
//! folds replications in seed order and points in grid order, so a
//! [`SweepTable`] — and its CSV/JSON serializations — is byte-identical
//! for a fixed `(scenario, qps grid, reps, base_seed, duration)` at *any*
//! worker count.

use crate::stats::{mean_ci95, MeanCi};
use std::sync::atomic::{AtomicUsize, Ordering};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::partition::run_batch;
use uqsim_core::run::RunResult;
use uqsim_core::time::SimDuration;
use uqsim_core::{FaultPlan, PartitionOptions, SimResult};

/// SplitMix64 finalizer (same mixing the core's RNG factory uses).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The master seed of replication `rep` under `base_seed`.
///
/// Replication 0 runs `base_seed` itself (so a 1-rep sweep cross-checks
/// against `uqsim run --seed`); later replications get decorrelated seeds
/// through a SplitMix64 finalizer.
pub fn seed_for(base_seed: u64, rep: usize) -> u64 {
    if rep == 0 {
        base_seed
    } else {
        splitmix64(base_seed ^ (rep as u64).wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// Most points a QPS grid may have ([`parse_qps_spec`]).
pub const MAX_QPS_POINTS: usize = 10_000;

/// The offered loads a QPS grid may name, per client: the rates any
/// arrival process may reach (defined with the arrival processes).
pub use uqsim_core::client::QPS_RANGE;

/// Parses a QPS grid argument: either a range `lo:hi:step` (inclusive of
/// `hi` up to float tolerance) or an explicit comma list `a,b,c`. Every
/// point must lie in [`QPS_RANGE`], and there may be at most
/// [`MAX_QPS_POINTS`] of them.
///
/// # Errors
///
/// A human-readable message naming `--qps` for malformed, out-of-range
/// (NaN and infinity included), empty or oversized specs.
///
/// # Examples
///
/// ```
/// use uqsim_runner::sweep::parse_qps_spec;
///
/// assert_eq!(parse_qps_spec("1000:3000:1000").unwrap(), vec![1000.0, 2000.0, 3000.0]);
/// assert_eq!(parse_qps_spec("500,2500").unwrap(), vec![500.0, 2500.0]);
/// assert!(parse_qps_spec("3000:1000:500").is_err());
/// assert!(parse_qps_spec("1:1e12:1").is_err()); // 10^12 points
/// ```
pub fn parse_qps_spec(spec: &str) -> Result<Vec<f64>, String> {
    let bad = |what: &str| format!("invalid --qps `{spec}`: {what}");
    let (lo, hi) = QPS_RANGE.into_inner();
    let loads: Vec<f64> = if spec.contains(':') {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(bad("expected lo:hi:step"));
        }
        let nums: Vec<f64> = parts
            .iter()
            .map(|p| p.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad("non-numeric bound"))?;
        let (first, last, step) = (nums[0], nums[1], nums[2]);
        if !(QPS_RANGE.contains(&first) && QPS_RANGE.contains(&last) && first <= last) {
            return Err(bad(&format!("need {lo} <= lo <= hi <= {hi}")));
        }
        if !(step > 0.0 && step.is_finite()) {
            return Err(bad("need a finite step > 0"));
        }
        let n = ((last - first) / step + 1.0 + 1e-9).floor();
        if n > MAX_QPS_POINTS as f64 {
            return Err(bad(&format!("{n} points, more than {MAX_QPS_POINTS}")));
        }
        (0..n as usize).map(|i| first + step * i as f64).collect()
    } else {
        let loads: Vec<f64> = spec
            .split(',')
            .map(|p| p.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad("non-numeric entry"))?;
        if loads.iter().any(|q| !QPS_RANGE.contains(q)) {
            return Err(bad(&format!("loads must be between {lo} and {hi}")));
        }
        loads
    };
    if loads.len() > MAX_QPS_POINTS {
        return Err(bad(&format!("more than {MAX_QPS_POINTS} points")));
    }
    Ok(loads)
}

/// What to sweep: the QPS grid, the replication count, and how to run.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Offered loads to visit, in output order.
    pub qps: Vec<f64>,
    /// Seed replications per load (≥ 1).
    pub reps: usize,
    /// Base seed; replication seeds derive via [`seed_for`].
    pub base_seed: u64,
    /// Simulated duration per run (warmup included; the scenario's
    /// `warmup_s` is excluded from statistics as usual).
    pub duration: SimDuration,
    /// Workers on the sweep's one queue (0 or 1 = serial; the queue gets
    /// `max(jobs, shards)`). Affects wall-clock only, never results.
    pub jobs: usize,
    /// Fault plan installed into every run before its clock starts;
    /// `None` sweeps the healthy system. The plan is part of the
    /// determinism key: a fixed `(scenario, plan, grid, reps, base_seed,
    /// duration)` is byte-identical at any `jobs`.
    pub faults: Option<FaultPlan>,
    /// Workers on the same queue, as `uqsim run --shards` names them: the
    /// queue gets `max(jobs, shards)`, and every cell of every run — a
    /// scenario made of several request-closed cells has more than one —
    /// is claimed from it. Affects wall-clock only, never results (spec
    /// invariant **P7**).
    pub shards: usize,
}

/// A progress tick, emitted once per finished run from whichever worker
/// merged it. `finished` counts completions, so ticks arrive with
/// `finished` strictly increasing but runs in arbitrary order.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Runs finished so far (including this one).
    pub finished: usize,
    /// Total runs in the sweep (`qps.len() × reps`).
    pub total: usize,
    /// The finished run's offered load.
    pub offered_qps: f64,
    /// The finished run's master seed.
    pub seed: u64,
}

/// One aggregated row: all replications of one QPS point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Offered load.
    pub offered_qps: f64,
    /// Replications aggregated.
    pub reps: usize,
    /// Achieved post-warmup throughput across replications.
    pub achieved_qps: MeanCi,
    /// Mean latency (seconds) across replications.
    pub mean: MeanCi,
    /// Median latency across replications.
    pub p50: MeanCi,
    /// 95th-percentile latency across replications.
    pub p95: MeanCi,
    /// 99th-percentile latency across replications.
    pub p99: MeanCi,
    /// Worst single latency over all replications, seconds.
    pub max_s: f64,
    /// Post-warmup goodput (within-deadline, full-fidelity completions per
    /// second) across replications; equals `achieved_qps` when unfaulted.
    pub goodput_qps: MeanCi,
    /// Completed requests summed over replications.
    pub completed: u64,
    /// Timed-out requests summed over replications.
    pub timeouts: u64,
    /// Requests dropped by injected faults, summed over replications.
    pub dropped: u64,
    /// Requests shed by open circuit breakers, summed over replications.
    pub shed: u64,
    /// Retry emissions, summed over replications.
    pub retried: u64,
    /// Degraded responses (sheds + quorum early-fires), summed over
    /// replications.
    pub degraded: u64,
    /// Mean post-warmup instance utilization across replications.
    pub instance_util: MeanCi,
    /// Mean post-warmup network (irq-core) utilization across replications.
    pub network_util: MeanCi,
    /// Mean milliseconds per request spent in each latency component (the
    /// first [`uqsim_core::EdgeKind::COMPONENTS`] kinds, in discriminant
    /// order), averaged over replications.
    pub components_ms: [f64; uqsim_core::EdgeKind::COMPONENTS],
    /// The p99+-cohort's top critical-path contributor as `site kind`
    /// (e.g. `backend/handler queue_wait`), from the replications' merged
    /// attribution profile; empty when no replication carried a profile.
    pub critpath_top: String,
    /// That contributor's share of the p99+ cohort's critical-path time.
    pub critpath_top_share: f64,
}

/// The aggregated result of one sweep, plus the parameters that produced
/// it (so the serialized table is self-describing).
#[derive(Debug, Clone)]
pub struct SweepTable {
    /// Simulated duration per run, seconds.
    pub duration_s: f64,
    /// Replications per point.
    pub reps: usize,
    /// Base seed.
    pub base_seed: u64,
    /// One row per QPS point, in grid order.
    pub rows: Vec<SweepRow>,
}

impl SweepTable {
    /// Serializes the table as CSV: one header line, one row per QPS
    /// point, latencies in milliseconds, fixed-width float formatting
    /// (byte-stable for identical inputs).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "offered_qps,reps,achieved_qps,achieved_qps_ci95,mean_ms,mean_ms_ci95,\
             p50_ms,p50_ms_ci95,p95_ms,p95_ms_ci95,p99_ms,p99_ms_ci95,max_ms,completed,timeouts,\
             instance_util,network_util,client_wait_ms,network_ms,queue_wait_ms,service_ms,\
             blocking_ms,fan_in_sync_ms,goodput_qps,goodput_qps_ci95,dropped,shed,retried,\
             degraded,critpath_top,critpath_top_share\n",
        );
        for r in &self.rows {
            let ms = |c: &MeanCi| format!("{:.6},{:.6}", c.mean * 1e3, c.half_width * 1e3);
            out.push_str(&format!(
                "{:.3},{},{:.3},{:.3},{},{},{},{},{:.6},{},{},{:.4},{:.4}",
                r.offered_qps,
                r.reps,
                r.achieved_qps.mean,
                r.achieved_qps.half_width,
                ms(&r.mean),
                ms(&r.p50),
                ms(&r.p95),
                ms(&r.p99),
                r.max_s * 1e3,
                r.completed,
                r.timeouts,
                r.instance_util.mean,
                r.network_util.mean,
            ));
            for c in r.components_ms {
                out.push_str(&format!(",{c:.6}"));
            }
            out.push_str(&format!(
                ",{:.3},{:.3},{},{},{},{},{},{:.4}\n",
                r.goodput_qps.mean,
                r.goodput_qps.half_width,
                r.dropped,
                r.shed,
                r.retried,
                r.degraded,
                r.critpath_top,
                r.critpath_top_share,
            ));
        }
        out
    }

    /// Serializes the table as pretty JSON (schema documented in
    /// EXPERIMENTS.md; key order and float formatting are deterministic).
    pub fn to_json(&self) -> String {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|r| {
                let ci = |c: &MeanCi| {
                    serde_json::json!({
                        "mean": c.mean,
                        "ci95": c.half_width,
                    })
                };
                let components: serde_json::Value = serde_json::Value::Object({
                    let mut m = serde_json::Map::new();
                    let components = &uqsim_core::EdgeKind::ALL[..uqsim_core::EdgeKind::COMPONENTS];
                    for (c, ms) in components.iter().zip(r.components_ms) {
                        m.insert(c.name(), serde_json::json!(ms / 1e3));
                    }
                    m
                });
                serde_json::json!({
                    "offered_qps": r.offered_qps,
                    "reps": r.reps,
                    "achieved_qps": ci(&r.achieved_qps),
                    "latency_s": {
                        "mean": ci(&r.mean),
                        "p50": ci(&r.p50),
                        "p95": ci(&r.p95),
                        "p99": ci(&r.p99),
                        "max": r.max_s,
                    },
                    "completed": r.completed,
                    "timeouts": r.timeouts,
                    "goodput_qps": ci(&r.goodput_qps),
                    "faults": {
                        "dropped": r.dropped,
                        "shed": r.shed,
                        "retried": r.retried,
                        "degraded": r.degraded,
                    },
                    "utilization": {
                        "instance": ci(&r.instance_util),
                        "network": ci(&r.network_util),
                    },
                    "latency_components_s": components,
                    "critpath": {
                        "top": r.critpath_top,
                        "top_p99_share": r.critpath_top_share,
                    },
                })
            })
            .collect();
        let table = serde_json::json!({
            "duration_s": self.duration_s,
            "reps": self.reps,
            "base_seed": self.base_seed,
            "rows": serde_json::Value::Array(rows),
        });
        serde_json::to_string_pretty(&table).expect("sweep table serializes")
    }
}

/// Aggregates the replications of one QPS point into a row. Folds in
/// replication order — deterministic regardless of completion order.
fn aggregate(offered_qps: f64, reps: &[RunResult]) -> SweepRow {
    let pick = |f: &dyn Fn(&RunResult) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    // Merge the replications' attribution profiles (rep order; the merge
    // is commutative, so the order only matters for determinism) and name
    // the p99-cohort's dominant contributor.
    let mut merged: Option<uqsim_core::CpcProfile> = None;
    for r in reps {
        if let Some(p) = &r.critpath {
            merged
                .get_or_insert_with(uqsim_core::CpcProfile::new)
                .merge(p);
        }
    }
    let mut critpath_top = String::new();
    let mut critpath_top_share = 0.0;
    if let Some(report) = merged.map(|p| p.report()) {
        if let Some(row) = report.top_p99() {
            critpath_top = format!("{} {}", row.site, row.kind.name());
            critpath_top_share = row.p99_share;
        }
    }
    SweepRow {
        offered_qps,
        reps: reps.len(),
        achieved_qps: mean_ci95(&pick(&|r| r.achieved_qps)),
        mean: mean_ci95(&pick(&|r| r.latency.mean)),
        p50: mean_ci95(&pick(&|r| r.latency.p50)),
        p95: mean_ci95(&pick(&|r| r.latency.p95)),
        p99: mean_ci95(&pick(&|r| r.latency.p99)),
        max_s: reps.iter().map(|r| r.latency.max).fold(0.0, f64::max),
        goodput_qps: mean_ci95(&pick(&|r| r.goodput_qps)),
        completed: reps.iter().map(|r| r.completed).sum(),
        timeouts: reps.iter().map(|r| r.timeouts).sum(),
        dropped: reps.iter().map(|r| r.dropped).sum(),
        shed: reps.iter().map(|r| r.shed).sum(),
        retried: reps.iter().map(|r| r.retried).sum(),
        degraded: reps.iter().map(|r| r.degraded).sum(),
        instance_util: mean_ci95(&pick(&|r| r.metrics.instance_utilization)),
        network_util: mean_ci95(&pick(&|r| r.metrics.network_utilization)),
        components_ms: {
            let mut ms = [0.0; uqsim_core::EdgeKind::COMPONENTS];
            if !reps.is_empty() {
                for (i, slot) in ms.iter_mut().enumerate() {
                    *slot = reps
                        .iter()
                        .map(|r| r.metrics.component_mean_s[i] * 1e3)
                        .sum::<f64>()
                        / reps.len() as f64;
                }
            }
            ms
        },
        critpath_top,
        critpath_top_share,
    }
}

/// What a scenario costs to run, for the claim order only: the path-node
/// visits its clients offer per second (offered rate × mean nodes per
/// request; a rate schedule counts at its peak, a trace as nothing).
fn offered_visits_per_s(cfg: &ScenarioConfig) -> f64 {
    let nodes_of = |ty: &str| {
        let found = cfg.request_types.iter().find(|t| *t.name == *ty);
        found.map_or(0, |t| t.nodes.len()) as f64
    };
    cfg.clients
        .iter()
        .map(|c| {
            let a = &c.arrivals;
            let rate = a.mean_rate_qps().or(a.schedule().map(|s| s.peak()));
            let weight: f64 = c.mix.iter().map(|(_, w)| w).sum();
            let nodes: f64 = c.mix.iter().map(|(ty, w)| w * nodes_of(ty)).sum();
            rate.unwrap_or(0.0) * nodes / weight
        })
        .sum()
}

/// Runs every `(scenario, seed)` run for `duration` and returns the
/// summaries in `cells` order — the one fan-out behind the paper figures
/// (`uqsim-bench`), and [`run_sweep`]'s for a scenario in hand.
///
/// The runs go to [`run_batch`] costliest first (offered path-node visits
/// per second; ties: `cells` order), so the batch does not end on one
/// worker running the heaviest run alone; its one queue gets
/// `max(jobs, opts.shards)` workers. The order decides only *when* a run's
/// cells run: each result is a pure function of its `(scenario, faults,
/// seed, duration)`. `finished` is called with a run's index once it is
/// merged, possibly from a worker thread.
///
/// # Errors
///
/// Every run still runs, then the error of the lowest-indexed failing run
/// is returned.
pub fn run_cells(
    cells: &[(&ScenarioConfig, u64)],
    faults: Option<&FaultPlan>,
    duration: SimDuration,
    opts: &PartitionOptions,
    jobs: usize,
    finished: &(dyn Fn(usize) + Sync),
) -> SimResult<Vec<RunResult>> {
    let cost: Vec<f64> = cells
        .iter()
        .map(|(cfg, _)| offered_visits_per_s(cfg))
        .collect();
    let run = |i: usize| (std::iter::once(cells[i].0.clone()), cells[i].1);
    run_costliest_first(&cost, run, faults, duration, opts, jobs, finished)
}

/// Submits run `i` — `run(i)`, its groups and seed — to [`run_batch`] by
/// descending `cost[i]` (ties: index order) and returns the summaries by
/// index; see [`run_cells`].
fn run_costliest_first<G>(
    cost: &[f64],
    run: impl Fn(usize) -> (G, u64) + Sync,
    faults: Option<&FaultPlan>,
    duration: SimDuration,
    opts: &PartitionOptions,
    jobs: usize,
    finished: &(dyn Fn(usize) + Sync),
) -> SimResult<Vec<RunResult>>
where
    G: IntoIterator<Item = ScenarioConfig>,
    G::IntoIter: Send,
{
    let mut order: Vec<usize> = (0..cost.len()).collect();
    order.sort_by(|&a, &b| cost[b].total_cmp(&cost[a]).then(a.cmp(&b)));
    let opts = PartitionOptions {
        shards: jobs.max(opts.shards),
        ..opts.clone()
    };
    let runs = order.iter().map(|&i| run(i));
    let merged = run_batch(runs, faults, duration, &opts, |k, run| {
        // The run's cells are dropped here, on the worker that merged it.
        let result = run.map(|run| run.result);
        finished(order[k]);
        result
    });
    let mut by_index: Vec<_> = (0..cost.len()).map(|_| None).collect();
    for (&i, result) in order.iter().zip(merged) {
        by_index[i] = Some(result);
    }
    by_index.into_iter().flatten().collect()
}

/// Runs the full `qps × reps` grid of `spec` over `cfg` and aggregates:
/// [`run_sweep`] with each point's run handed over as `cfg` re-scaled to
/// its offered load ([`ScenarioConfig::with_offered_qps`]).
///
/// # Errors
///
/// If any run's scenario fails to build, every run still runs, then the
/// error of the lowest-indexed failing run is returned.
pub fn run_scenario_sweep(
    cfg: &ScenarioConfig,
    spec: &SweepSpec,
    progress: &(dyn Fn(Progress) + Sync),
) -> SimResult<SweepTable> {
    run_sweep(
        &|qps| std::iter::once(cfg.with_offered_qps(qps)),
        spec,
        progress,
    )
}

/// Runs the full `qps × reps` grid of `spec` and aggregates. The scenario
/// of QPS point `q` is handed over as the request-closed groups
/// `groups_at(q)` yields ([`run_groups`](uqsim_core::partition::run_groups)
/// has the rule), pulled only when a worker needs them — a generated
/// cluster's replicas, each re-scaled to the point, are never held whole.
///
/// Replication `r` of a point runs under [`seed_for`]`(spec.base_seed, r)`,
/// with the spec's fault plan (if any). Runs are submitted heaviest point
/// first, a point priced by its first group's offered path-node visits per
/// second (the whole scenario when it is one group), all on [`run_batch`]'s
/// one queue with `max(spec.jobs, spec.shards)` workers (see
/// [`run_cells`]). `progress` is invoked once per finished run, possibly
/// from worker threads (hence `Sync`).
///
/// # Errors
///
/// If any run fails, every run still runs, then the error of the
/// lowest-indexed failing run is returned.
pub fn run_sweep<G>(
    groups_at: &(dyn Fn(f64) -> G + Sync),
    spec: &SweepSpec,
    progress: &(dyn Fn(Progress) + Sync),
) -> SimResult<SweepTable>
where
    G: IntoIterator<Item = ScenarioConfig>,
    G::IntoIter: Send,
{
    let reps = spec.reps.max(1);
    let total = spec.qps.len() * reps;
    let (qps, seed) = (
        |i: usize| spec.qps[i / reps],
        |i: usize| seed_for(spec.base_seed, i % reps),
    );
    let price = |q| {
        let first = groups_at(q).into_iter().next();
        first.map_or(0.0, |g| offered_visits_per_s(&g))
    };
    let point_cost: Vec<f64> = spec.qps.iter().map(|&q| price(q)).collect();
    let cost: Vec<f64> = (0..total).map(|i| point_cost[i / reps]).collect();
    let finished = AtomicUsize::new(0);
    let tick = |i: usize| {
        progress(Progress {
            finished: finished.fetch_add(1, Ordering::Relaxed) + 1,
            total,
            offered_qps: qps(i),
            seed: seed(i),
        })
    };
    let run = |i: usize| (groups_at(qps(i)), seed(i));
    let opts = PartitionOptions::with_shards(spec.shards);
    let faults = spec.faults.as_ref();
    let results = run_costliest_first(&cost, run, faults, spec.duration, &opts, spec.jobs, &tick)?;
    let rows = spec
        .qps
        .iter()
        .enumerate()
        .map(|(qi, &q)| aggregate(q, &results[qi * reps..(qi + 1) * reps]))
        .collect();
    Ok(SweepTable {
        duration_s: spec.duration.as_secs_f64(),
        reps,
        base_seed: spec.base_seed,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qps_range_is_inclusive_and_tolerant() {
        assert_eq!(
            parse_qps_spec("1000:2000:250").unwrap(),
            vec![1000.0, 1250.0, 1500.0, 1750.0, 2000.0]
        );
        // hi not on the grid: stop below it.
        assert_eq!(parse_qps_spec("100:250:100").unwrap(), vec![100.0, 200.0]);
        // single-point range and single-value list both work.
        assert_eq!(parse_qps_spec("500:500:1").unwrap(), vec![500.0]);
        assert_eq!(parse_qps_spec("500").unwrap(), vec![500.0]);
        // The grid cap is inclusive.
        assert_eq!(parse_qps_spec("1:10000:1").unwrap().len(), MAX_QPS_POINTS);
        assert!(parse_qps_spec("1:10001:1").is_err());
    }

    #[test]
    fn qps_spec_rejects_nonsense() {
        for bad in [
            "",
            "a:b:c",
            "10:5:1",
            "0:10:1",
            "10:20:0",
            "1,-2",
            "x,y",
            "nan",
            "1,inf",
            "100:inf:100",
            "100:200:nan",
            "5:5:inf",
            "nan:200:1",
            "1:1e12:1",
            "1e-300",
            "2e9",
        ] {
            assert!(parse_qps_spec(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn seeds_are_stable_and_decorrelated() {
        assert_eq!(seed_for(42, 0), 42);
        assert_eq!(seed_for(42, 3), seed_for(42, 3));
        let seeds: Vec<u64> = (0..16).map(|r| seed_for(42, r)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "collision in {seeds:?}");
    }

    fn tiny_spec(jobs: usize) -> SweepSpec {
        SweepSpec {
            qps: vec![500.0, 1500.0],
            reps: 3,
            base_seed: 42,
            duration: SimDuration::from_millis(300),
            jobs,
            faults: None,
            shards: 0,
        }
    }

    #[test]
    fn cells_are_claimed_costliest_first_and_returned_by_index() {
        let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).unwrap();
        let loads = [900.0, 2400.0, 400.0, 2400.0];
        let scaled: Vec<ScenarioConfig> = loads.iter().map(|&q| cfg.with_offered_qps(q)).collect();
        let cells: Vec<(&ScenarioConfig, u64)> = scaled.iter().map(|c| (c, 7)).collect();
        let opts = PartitionOptions::default();
        let d = SimDuration::from_millis(300);
        // One worker claims serially, so the claim order is observable.
        let claimed = std::sync::Mutex::new(Vec::new());
        let seen = |i| claimed.lock().unwrap().push(i);
        let serial = run_cells(&cells, None, d, &opts, 1, &seen).unwrap();
        assert_eq!(claimed.into_inner().unwrap(), [1, 3, 0, 2]);
        // Results sit at their cell's index: equal cells agree, and the
        // achieved rate follows the offered one.
        assert_eq!(serial[1], serial[3]);
        assert!(serial[1].achieved_qps > serial[0].achieved_qps);
        assert!(serial[0].achieved_qps > serial[2].achieved_qps);
        assert_eq!(
            run_cells(&cells, None, d, &opts, 4, &|_| {}).unwrap(),
            serial
        );
    }

    #[test]
    fn cells_surface_the_lowest_indexed_error() {
        let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).unwrap();
        let broken = |service: &str| {
            let mut bad = cfg.clone();
            bad.instances[0].service = service.into();
            bad
        };
        let (first, second) = (broken("ghost-a"), broken("ghost-b"));
        let cells = [(&cfg, 1), (&first, 1), (&second, 1)];
        let opts = PartitionOptions::default();
        for jobs in [1, 4] {
            let finished = AtomicUsize::new(0);
            let tick = |_| {
                finished.fetch_add(1, Ordering::Relaxed);
            };
            let err = run_cells(
                &cells,
                None,
                SimDuration::from_millis(200),
                &opts,
                jobs,
                &tick,
            );
            let err = err.unwrap_err().to_string();
            assert!(err.contains("ghost-a"), "jobs={jobs}: {err}");
            assert_eq!(finished.into_inner(), 3, "every cell still runs");
        }
    }

    #[test]
    fn sweep_output_is_jobs_invariant() {
        let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).unwrap();
        let serial = run_scenario_sweep(&cfg, &tiny_spec(1), &|_| {}).unwrap();
        for jobs in [2, 4, 8] {
            let parallel = run_scenario_sweep(&cfg, &tiny_spec(jobs), &|_| {}).unwrap();
            assert_eq!(serial.to_csv(), parallel.to_csv(), "jobs={jobs} CSV drift");
            assert_eq!(
                serial.to_json(),
                parallel.to_json(),
                "jobs={jobs} JSON drift"
            );
        }
    }

    #[test]
    fn faulted_sweep_is_jobs_invariant_and_counts_fault_activity() {
        let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).unwrap();
        let plan = FaultPlan::from_json(uqsim_core::run::EXAMPLE_FAULTS).unwrap();
        let spec = |jobs| SweepSpec {
            qps: vec![1000.0, 2000.0],
            reps: 2,
            base_seed: 42,
            duration: SimDuration::from_millis(500),
            jobs,
            faults: Some(plan.clone()),
            shards: 0,
        };
        let serial = run_scenario_sweep(&cfg, &spec(1), &|_| {}).unwrap();
        let parallel = run_scenario_sweep(&cfg, &spec(4), &|_| {}).unwrap();
        assert_eq!(serial.to_csv(), parallel.to_csv(), "faulted CSV drift");
        assert_eq!(serial.to_json(), parallel.to_json(), "faulted JSON drift");
        let r = &serial.rows[0];
        assert!(r.dropped > 0, "crash window should drop requests");
        assert!(r.retried > 0, "drops should trigger retries");
        assert!(
            r.goodput_qps.mean <= r.achieved_qps.mean,
            "goodput can never exceed achieved throughput"
        );
    }

    #[test]
    fn partitioned_sweep_is_shard_and_jobs_invariant() {
        let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).unwrap();
        let spec = |jobs, shards| SweepSpec {
            shards,
            ..tiny_spec(jobs)
        };
        // `shards: 0` (the field's default in every literal) is one shard.
        let base = run_scenario_sweep(&cfg, &spec(1, 0), &|_| {}).unwrap();
        for (jobs, shards) in [(1, 1), (1, 2), (4, 2), (2, 4), (4, 0)] {
            let other = run_scenario_sweep(&cfg, &spec(jobs, shards), &|_| {}).unwrap();
            assert_eq!(
                base.to_csv(),
                other.to_csv(),
                "jobs={jobs} shards={shards} CSV drift"
            );
            assert_eq!(base.to_json(), other.to_json());
        }
    }

    #[test]
    fn sweep_reports_every_cell_once() {
        let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).unwrap();
        let ticks = AtomicUsize::new(0);
        let table = run_scenario_sweep(&cfg, &tiny_spec(4), &|p| {
            assert!(p.finished <= p.total && p.total == 6);
            ticks.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ticks.load(Ordering::Relaxed), 6);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0].reps, 3);
        assert!(table.rows[1].achieved_qps.mean > table.rows[0].achieved_qps.mean);
    }

    #[test]
    fn replications_disagree_enough_to_give_a_width() {
        let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).unwrap();
        let table = run_scenario_sweep(&cfg, &tiny_spec(2), &|_| {}).unwrap();
        // Stochastic replications of a queueing sim at distinct seeds
        // essentially never agree to the last bit.
        assert!(table.rows[0].mean.half_width > 0.0);
    }
}
