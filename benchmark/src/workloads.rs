//! The four workloads: the `uqsim` command line each one times, the
//! in-process set-up it measures, and the traced replay of its pipeline
//! through the crates' public functions.
//!
//! A replay mirrors the matching `uqsim` subcommand call for call (see
//! `crates/cli/src/main.rs`: `run`, `run_sharded`, `why`, `sweep_grid`),
//! with a span around each call. Spans named `probe.*` are not part of a
//! pipeline: they time a layer the pipeline only reaches through another
//! public function (the partition merge inside `run_partitioned`, one
//! cell inside `run_scenario_sweep`) or the same run with one observer
//! switched off, which is the base of an overhead ratio.

use crate::alloc;
use crate::spans::Recorder;
use crate::stats::Samples;
use serde_json::json;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::metrics::LatencySummary;
use uqsim_core::partition::{cell_seed, merge_registries, merge_results};
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::{
    run_one, run_partitioned, CpcProfile, PartitionOptions, PartitionPlan, SimDuration, SimTime,
    Simulator,
};
use uqsim_runner::sweep::{parse_qps_spec, run_scenario_sweep, seed_for, SweepSpec};
use uqsim_synth::GenSpec;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const TWO_TIER: &str = "crates/cli/configs/two_tier.json";
const SOCIAL: &str = "crates/cli/configs/social_network.json";
const GEN_DSB: &str = "crates/cli/configs/gen_dsb.json";
const SWEEP_QPS: &str = "4000:20000:4000";
const SWEEP_REPS: usize = 4;
/// The default 4 M span-event cap truncates `social_why` (exit ≠ 0) from
/// about 4.5 simulated seconds on.
const WHY_EVENTS: usize = 50_000_000;

/// What every workload needs to know about this run.
#[derive(Debug)]
pub struct Ctx {
    /// The repository checkout; children run from here so that config
    /// paths — which `uqsim why` echoes into its output — stay relative.
    pub root: PathBuf,
    /// `TMPDIR` of every child and home of generated scenario directories.
    pub tmp: PathBuf,
    pub seed: u64,
    /// `--shards` / `--jobs`: `min(2, nproc)`.
    pub threads: usize,
    /// Simulated durations are divided by this (1, or 5 for `--smoke`).
    pub shrink: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TwoTierRun,
    GenDsbSharded,
    SocialWhy,
    TwoTierSweep,
}

/// What a traced replay hands back for reconciliation with the child.
pub struct Replay {
    /// Duration of the pipeline's root span.
    pub pipeline_s: f64,
    /// What the pipeline would have printed (same schema as the child).
    pub rendered: String,
}

/// A built simulator after one timed run.
struct Simulated {
    sim: Simulator,
    build_s: f64,
    run_s: f64,
    /// Events and heap allocations after the scenario's own warm-up.
    steady_events: u64,
    steady_allocs: u64,
}

/// Builds `cfg`, applies `observe` (part of "ready to run"), and runs it
/// for `duration` under `builder.build` / `sim.run_for` spans. The run is
/// paused once at the warm-up boundary to read the allocation counter;
/// pausing injects no event, so the trajectory is the uninterrupted one
/// (DESIGN.md §11, invariant P4).
fn simulate(
    rec: &mut Recorder,
    cfg: &ScenarioConfig,
    duration: SimDuration,
    observe: impl FnOnce(&mut Simulator),
) -> Res<Simulated> {
    let (sim, build_s) = rec.timed("builder.build", |_| {
        cfg.build().map(|mut sim| {
            observe(&mut sim);
            sim
        })
    });
    let mut sim = sim?;
    let warm = SimTime::ZERO + SimDuration::from_secs_f64(cfg.warmup_s);
    let ((steady_events, steady_allocs), run_s) = rec.timed("sim.run_for", |_| {
        sim.run_until_paused(warm);
        let (e0, a0) = (sim.events_processed(), alloc::count());
        sim.run_until(SimTime::ZERO + duration);
        (sim.events_processed() - e0, alloc::count() - a0)
    });
    Ok(Simulated {
        sim,
        build_s,
        run_s,
        steady_events,
        steady_allocs,
    })
}

/// [`simulate`] with every observer off, recorded as the `sim.*` and
/// `metrics.summary_s` rows.
fn simulate_plain(
    rec: &mut Recorder,
    out: &mut Samples,
    cfg: &ScenarioConfig,
    duration: SimDuration,
) -> Res<(Simulated, LatencySummary)> {
    let run = simulate(rec, cfg, duration, |_| {})?;
    let (summary, summary_s) = rec.timed("metrics.summary", |_| run.sim.latency_summary());
    let events = run.sim.events_processed() as f64;
    out.push("sim.run_s", run.run_s);
    out.push("sim.events", events);
    out.push("sim.events_per_sec", events / run.run_s);
    out.push("sim.ns_per_event", run.run_s * 1e9 / events);
    out.push(
        "sim.allocs_per_event",
        run.steady_allocs as f64 / run.steady_events.max(1) as f64,
    );
    out.push("metrics.summary_s", summary_s);
    Ok((run, summary))
}

/// The `uqsim run --json` document.
fn render_run(
    duration_s: f64,
    warmup_s: f64,
    generated: u64,
    completed: u64,
    throughput_qps: f64,
    s: &LatencySummary,
    events_processed: u64,
) -> String {
    let doc = json!({
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "generated": generated,
        "completed": completed,
        "throughput_qps": throughput_qps,
        "latency_s": {
            "count": s.count, "mean": s.mean, "p50": s.p50,
            "p95": s.p95, "p99": s.p99, "max": s.max,
        },
        "events_processed": events_processed,
    });
    serde_json::to_string_pretty(&doc).expect("summary serializes")
}

/// What `uqsim why`, `run_one` and every partition cell switch on.
fn critpath_on() -> TelemetryConfig {
    TelemetryConfig {
        critpath: true,
        ..TelemetryConfig::default()
    }
}

/// Builds every cell's simulator, as `run_partitioned` does before it
/// runs them.
fn build_cells(plan: &PartitionPlan, seed: u64) -> Res<()> {
    for (i, cell) in plan.cells.iter().enumerate() {
        let sub = cell.config.with_seed(cell_seed(seed, i as u64));
        black_box(sub.build()?);
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TwoTierRun,
        Workload::GenDsbSharded,
        Workload::SocialWhy,
        Workload::TwoTierSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TwoTierRun => "two_tier_run",
            Workload::GenDsbSharded => "gen_dsb_sharded",
            Workload::SocialWhy => "social_why",
            Workload::TwoTierSweep => "two_tier_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds per run, sized for about 1–1.5 s of host time.
    fn duration_s(self, ctx: &Ctx) -> f64 {
        let full = match self {
            Workload::TwoTierRun => 30.0,
            Workload::GenDsbSharded => 4.0,
            Workload::SocialWhy | Workload::TwoTierSweep => 3.0,
        };
        full / ctx.shrink
    }

    fn duration(self, ctx: &Ctx) -> SimDuration {
        SimDuration::from_secs_f64(self.duration_s(ctx))
    }

    /// Whether `--shards` / `--jobs` applies, i.e. whether the child can
    /// be re-run on one thread to check its output does not change.
    pub fn is_threaded(self) -> bool {
        matches!(self, Workload::GenDsbSharded | Workload::TwoTierSweep)
    }

    /// The `uqsim` arguments of one rep, on `threads` shards or jobs.
    pub fn child_args(self, ctx: &Ctx, threads: usize) -> Vec<String> {
        let duration = self.duration_s(ctx).to_string();
        let threads = threads.to_string();
        let seed = ctx.seed.to_string();
        let events = WHY_EVENTS.to_string();
        let mut args: Vec<&str> = match self {
            Workload::TwoTierRun => vec!["run", TWO_TIER],
            Workload::GenDsbSharded => vec!["run", "--gen", GEN_DSB, "--shards", &threads],
            Workload::SocialWhy => vec!["why", "--config", SOCIAL, "--events", &events],
            Workload::TwoTierSweep => vec![
                "sweep", "--config", TWO_TIER, "--qps", SWEEP_QPS, "--reps", "4", "--jobs",
                &threads,
            ],
        };
        args.extend(["--duration", &duration, "--seed", &seed, "--json"]);
        args.into_iter().map(String::from).collect()
    }

    fn sweep_spec(self, ctx: &Ctx, jobs: usize) -> Res<SweepSpec> {
        Ok(SweepSpec {
            qps: parse_qps_spec(SWEEP_QPS)?,
            reps: SWEEP_REPS,
            base_seed: ctx.seed,
            duration: self.duration(ctx),
            jobs,
            faults: None,
            shards: 0,
        })
    }

    /// On-disk inputs → every `Simulator` the workload needs, ready to
    /// run.
    pub fn setup(self, ctx: &Ctx) -> Res<()> {
        match self {
            Workload::TwoTierRun => {
                let mut cfg = ScenarioConfig::from_file(&ctx.root.join(TWO_TIER))?;
                cfg.seed = ctx.seed;
                black_box(cfg.build()?);
            }
            Workload::GenDsbSharded => {
                let dir = ctx.tmp.join("setup-gen");
                GenSpec::from_file(&ctx.root.join(GEN_DSB))?
                    .generate(ctx.seed)?
                    .write_dir(&dir)?;
                let cfg = ScenarioConfig::from_dir(&dir)?;
                build_cells(&PartitionPlan::new(&cfg, ctx.threads)?, ctx.seed)?;
            }
            Workload::SocialWhy => {
                let mut cfg = ScenarioConfig::from_file(&ctx.root.join(SOCIAL))?;
                cfg.seed = ctx.seed;
                let mut sim = cfg.build()?;
                sim.enable_span_tracing(WHY_EVENTS);
                sim.enable_telemetry(critpath_on());
                black_box(sim);
            }
            Workload::TwoTierSweep => {
                let cfg = ScenarioConfig::from_file(&ctx.root.join(TWO_TIER))?;
                for q in parse_qps_spec(SWEEP_QPS)? {
                    let scaled = cfg.with_offered_qps(q);
                    for rep in 0..SWEEP_REPS {
                        black_box(scaled.with_seed(seed_for(ctx.seed, rep)).build()?);
                    }
                }
            }
        }
        Ok(())
    }

    /// One traced rep: the pipeline replay plus this workload's layer
    /// probes. Pushes one sample per per-layer metric it owns into `out`.
    pub fn traced(self, ctx: &Ctx, rec: &mut Recorder, out: &mut Samples) -> Res<Replay> {
        match self {
            Workload::TwoTierRun => self.traced_two_tier_run(ctx, rec, out),
            Workload::GenDsbSharded => self.traced_gen_dsb_sharded(ctx, rec, out),
            Workload::SocialWhy => self.traced_social_why(ctx, rec, out),
            Workload::TwoTierSweep => self.traced_two_tier_sweep(ctx, rec, out),
        }
    }

    /// `cli.run ⊃ {config.load, builder.build, sim.run_for,
    /// metrics.summary, cli.render}`. The pipeline has no observer on, so
    /// it is its own `sim.*` measurement.
    fn traced_two_tier_run(self, ctx: &Ctx, rec: &mut Recorder, out: &mut Samples) -> Res<Replay> {
        let path = ctx.root.join(TWO_TIER);
        let duration_s = self.duration_s(ctx);
        let (rendered, pipeline_s) = rec.timed("cli.run", |rec| -> Res<String> {
            let (cfg, load_s) = rec.timed("config.load", |_| ScenarioConfig::from_file(&path));
            let mut cfg = cfg?;
            cfg.seed = ctx.seed;
            let (run, s) = simulate_plain(rec, out, &cfg, self.duration(ctx))?;
            out.push("config.load_s", load_s);
            out.push("builder.build_s", run.build_s);
            out.push("builder.builds", 1.0);
            Ok(rec.span("cli.render", |_| {
                render_run(
                    duration_s,
                    cfg.warmup_s,
                    run.sim.generated(),
                    run.sim.completed(),
                    s.count as f64 / (duration_s - cfg.warmup_s).max(f64::EPSILON),
                    &s,
                    run.sim.events_processed(),
                )
            }))
        });
        out.push("config.bytes", std::fs::metadata(&path)?.len() as f64);
        Ok(Replay {
            pipeline_s,
            rendered: rendered?,
        })
    }

    /// `cli.run ⊃ {synth.generate, config.write_dir, config.load,
    /// partition.run, partition.export}`, then the same scenario on one
    /// shard and on the classic engine.
    fn traced_gen_dsb_sharded(
        self,
        ctx: &Ctx,
        rec: &mut Recorder,
        out: &mut Samples,
    ) -> Res<Replay> {
        let dir = ctx.tmp.join("traced-gen");
        let duration = self.duration(ctx);
        let duration_s = self.duration_s(ctx);
        let (pipeline, pipeline_s) = rec.timed("cli.run", |rec| -> Res<_> {
            let (generated, generate_s) = rec.timed("synth.generate", |_| {
                GenSpec::from_file(&ctx.root.join(GEN_DSB))?.generate(ctx.seed)
            });
            let generated = generated?;
            let (written, write_s) = rec.timed("config.write_dir", |_| generated.write_dir(&dir));
            written?;
            let (cfg, load_s) = rec.timed("config.load", |_| ScenarioConfig::from_dir(&dir));
            let cfg = cfg?;
            let opts = PartitionOptions::with_shards(ctx.threads);
            let (run, run_s) = rec.timed("partition.run", |_| {
                run_partitioned(&cfg, None, ctx.seed, duration, &opts)
            });
            let run = run?;
            let rendered = rec.span("partition.export", |_| {
                let r = &run.result;
                render_run(
                    duration_s,
                    cfg.warmup_s,
                    r.generated,
                    r.completed,
                    r.achieved_qps,
                    &r.latency,
                    r.events_processed,
                )
            });
            out.push("synth.generate_s", generate_s);
            out.push(
                "synth.instances",
                uqsim_synth::summarize(&generated).instances as f64,
            );
            out.push("config.write_dir_s", write_s);
            out.push("config.load_s", load_s);
            out.push("partition.run_s_shards2", run_s);
            Ok((rendered, cfg, run, run_s))
        });
        let (rendered, cfg, sharded, sharded_s) = pipeline?;
        out.push("config.bytes", dir_bytes(&dir)? as f64);

        let serial_s = rec.span("probe.partition", |rec| -> Res<f64> {
            let (plan, plan_s) =
                rec.timed("partition.plan", |_| PartitionPlan::new(&cfg, ctx.threads));
            let plan = plan?;
            let (built, build_s) = rec.timed("builder.build", |_| build_cells(&plan, ctx.seed));
            built?;
            let one = PartitionOptions::with_shards(1);
            let (serial, serial_s) = rec.timed("partition.run", |_| {
                run_partitioned(&cfg, None, ctx.seed, duration, &one)
            });
            if serial?.result != sharded.result {
                return Err("partitioned result differs between 1 shard and 2".into());
            }
            let ((), merge_s) = rec.timed("partition.merge", |_| {
                black_box(merge_results(ctx.seed, &sharded.cells));
                black_box(merge_registries(&sharded.cells));
            });
            out.push("partition.plan_s", plan_s);
            out.push("partition.cells", plan.cells.len() as f64);
            out.push("builder.build_s", build_s);
            out.push("builder.builds", plan.cells.len() as f64);
            out.push("partition.run_s_shards1", serial_s);
            out.push("partition.merge_s", merge_s);
            Ok(serial_s)
        })?;
        out.push("partition.speedup", serial_s / sharded_s);

        let classic = rec.span("probe.classic", |rec| {
            simulate_plain(rec, out, &cfg.with_seed(ctx.seed), duration)
        })?;
        out.push("partition.classic_run_s", classic.0.run_s);
        Ok(Replay {
            pipeline_s,
            rendered,
        })
    }

    /// `cli.why ⊃ {config.load, builder.build, sim.run_for, trace.audit,
    /// critpath.replay, critpath.report}`, then the same run with no
    /// observer, with only the critical-path fold, and with only the span
    /// log — the three bases of the overhead ratios.
    fn traced_social_why(self, ctx: &Ctx, rec: &mut Recorder, out: &mut Samples) -> Res<Replay> {
        let path = ctx.root.join(SOCIAL);
        let duration = self.duration(ctx);
        let (pipeline, pipeline_s) = rec.timed("cli.why", |rec| -> Res<_> {
            let (cfg, load_s) = rec.timed("config.load", |_| ScenarioConfig::from_file(&path));
            let mut cfg = cfg?;
            cfg.seed = ctx.seed;
            let run = simulate(rec, &cfg, duration, |sim| {
                sim.enable_span_tracing(WHY_EVENTS);
                sim.enable_telemetry(critpath_on());
            })?;
            let sim = &run.sim;
            let log = sim.span_log().expect("span tracing is enabled");
            if log.dropped() > 0 {
                return Err(format!("span log truncated by {} events", log.dropped()).into());
            }
            let (audit, audit_s) = rec.timed("trace.audit", |_| {
                sim.audit_trace().expect("span tracing is enabled")
            });
            if !audit.is_clean() {
                return Err(format!("{} trace audit violations", audit.violations.len()).into());
            }
            let (replayed, replay_s) = rec.timed("critpath.replay", |_| {
                CpcProfile::from_trace(log, &sim.trace_meta())
            });
            let ((streaming, rendered), report_s) = rec.timed("critpath.report", |_| {
                let streaming = sim
                    .critpath_profile()
                    .expect("critpath telemetry is enabled");
                let text = serde_json::to_string_pretty(&streaming.report().to_json())
                    .expect("report serializes");
                (streaming, text)
            });
            if replayed? != streaming {
                return Err("streaming and replayed attribution disagree".into());
            }
            out.push("config.load_s", load_s);
            out.push("builder.build_s", run.build_s);
            out.push("builder.builds", 1.0);
            out.push("trace.span_events", log.len() as f64);
            out.push("trace.audit_s", audit_s);
            out.push("critpath.replay_s", replay_s);
            out.push("critpath.report_s", report_s);
            Ok((rendered, cfg))
        });
        let (rendered, cfg) = pipeline?;
        out.push("config.bytes", std::fs::metadata(&path)?.len() as f64);

        let plain_s = rec
            .span("probe.plain", |rec| {
                simulate_plain(rec, out, &cfg, duration)
            })?
            .0
            .run_s;
        let critpath_s = rec
            .span("probe.critpath", |rec| {
                simulate(rec, &cfg, duration, |sim| {
                    sim.enable_telemetry(critpath_on())
                })
            })?
            .run_s;
        let traced_s = rec
            .span("probe.trace", |rec| {
                simulate(rec, &cfg, duration, |sim| {
                    sim.enable_span_tracing(WHY_EVENTS)
                })
            })?
            .run_s;
        out.push("critpath.stream_overhead", critpath_s / plain_s - 1.0);
        out.push("trace.record_overhead", traced_s / plain_s - 1.0);
        Ok(Replay {
            pipeline_s,
            rendered,
        })
    }

    /// `cli.sweep ⊃ {config.load, runner.sweep, runner.render}`, then the
    /// same grid on one job, one cell alone, and that cell's simulation
    /// under each observer `run_one` switches on.
    fn traced_two_tier_sweep(
        self,
        ctx: &Ctx,
        rec: &mut Recorder,
        out: &mut Samples,
    ) -> Res<Replay> {
        let path = ctx.root.join(TWO_TIER);
        let duration = self.duration(ctx);
        let parallel = self.sweep_spec(ctx, ctx.threads)?;
        let (pipeline, pipeline_s) = rec.timed("cli.sweep", |rec| -> Res<_> {
            let (cfg, load_s) = rec.timed("config.load", |_| ScenarioConfig::from_file(&path));
            let cfg = cfg?;
            let (table, sweep_s) = rec.timed("runner.sweep", |_| {
                run_scenario_sweep(&cfg, &parallel, &|_| {})
            });
            let table = table?;
            let (rendered, render_s) = rec.timed("runner.render", |_| table.to_json());
            out.push("config.load_s", load_s);
            out.push("runner.sweep_s_jobs2", sweep_s);
            out.push("runner.render_s", render_s);
            Ok((rendered, cfg, sweep_s))
        });
        let (rendered, cfg, parallel_s) = pipeline?;
        let cells = parallel.qps.len() * parallel.reps;
        out.push("config.bytes", std::fs::metadata(&path)?.len() as f64);
        out.push("runner.cells", cells as f64);

        let serial = self.sweep_spec(ctx, 1)?;
        let (table, serial_s) = rec.timed("probe.sweep_jobs1", |_| {
            run_scenario_sweep(&cfg, &serial, &|_| {})
        });
        if table?.to_json() != rendered {
            return Err("sweep table differs between 1 job and 2".into());
        }
        out.push("runner.sweep_s_jobs1", serial_s);
        out.push("runner.speedup", serial_s / parallel_s);

        // The middle of the grid, under the base seed.
        let cell = cfg.with_offered_qps(12_000.0).with_seed(ctx.seed);
        let (result, cell_s) = rec.timed("probe.cell", |_| run_one(&cell, ctx.seed, duration));
        black_box(result?);
        out.push("runner.cell_s", cell_s);
        let ((), build_s) = rec.timed("probe.builds", |_| {
            for _ in 0..cells {
                black_box(cell.build().expect("the cell built a moment ago"));
            }
        });
        out.push("builder.build_s", build_s);
        out.push("builder.builds", cells as f64);

        let plain_s = rec
            .span("probe.plain", |rec| {
                simulate_plain(rec, out, &cell, duration)
            })?
            .0
            .run_s;
        let decomp_s = rec
            .span("probe.decomposition", |rec| {
                simulate(rec, &cell, duration, |sim| {
                    sim.enable_telemetry(TelemetryConfig::default())
                })
            })?
            .run_s;
        let critpath_s = rec
            .span("probe.critpath", |rec| {
                simulate(rec, &cell, duration, |sim| {
                    sim.enable_telemetry(critpath_on())
                })
            })?
            .run_s;
        let (sampled, export_s) = rec.span("probe.sampler", |rec| -> Res<(f64, f64)> {
            let run = simulate(rec, &cell, duration, |sim| {
                sim.enable_telemetry(TelemetryConfig {
                    sample_interval: Some(SimDuration::from_millis(10)),
                    ..TelemetryConfig::default()
                })
            })?;
            let ((), export_s) = rec.timed("telemetry.export", |_| {
                black_box(run.sim.metrics_prometheus());
                black_box(run.sim.metrics_csv());
                black_box(run.sim.metrics_json());
            });
            Ok((run.run_s, export_s))
        })?;
        out.push("telemetry.decomp_overhead", decomp_s / plain_s - 1.0);
        out.push("telemetry.sampler_overhead", sampled / plain_s - 1.0);
        out.push("telemetry.export_s", export_s);
        out.push("critpath.stream_overhead", critpath_s / plain_s - 1.0);
        Ok(Replay {
            pipeline_s,
            rendered,
        })
    }
}
