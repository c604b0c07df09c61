//! `uqsim` — run a simulation scenario described entirely in JSON.
//!
//! ```text
//! uqsim run <scenario.json> [--duration <secs>] [--seed <n>] [--json]
//!           [--metrics-out <dir>] [--sample-interval <secs>] [--faults <faults.json>]
//!           [--shards <n>]
//! uqsim chaos <scenario.json> --faults <faults.json> [--duration <secs>]
//!             [--seed <n>] [--json] [--events <n>] [--shards <n>]
//! uqsim why --config <scenario.json> [--faults <faults.json>] [--duration <secs>]
//!           [--seed <n>] [--json] [--events <n>] [--shards <n>] [--out <dir>]
//! uqsim top --config <scenario.json> [--duration <secs>] [--interval <secs>]
//!           [--seed <n>] [--no-ansi]
//! uqsim sweep --config <scenario.json> --qps <lo:hi:step|a,b,..> [--reps <k>]
//!             [--jobs <n>] [--duration <secs>] [--seed <n>] [--json] [--out <file>]
//!             [--faults <faults.json>] [--shards <n>]
//! uqsim trace <scenario.json> [--duration <secs>] [--every <n>] [--max <n>] [--events <n>]
//!             [--shards <n>]
//! uqsim trace --config <scenario.json> [--out <trace.json>] [--duration <secs>] [--events <n>]
//!             [--shards <n>]
//! uqsim gen --spec <gen.json> [--seed <n>] [--out <dir>] [--json]
//! uqsim validate <scenario.json>
//! uqsim split <scenario.json> <dir>
//! uqsim example
//! ```
//!
//! Every command accepting `<scenario.json>` also accepts a *directory* in
//! the paper's Table I layout (`machines.json`, `services.json`,
//! `graph.json`, `path.json`, `client.json`, optional `sim.json`); `split`
//! converts a single-file scenario into that layout.
//!
//! `run` executes the scenario and prints a latency/throughput summary
//! (machine-readable with `--json`). With `--metrics-out <dir>` it enables
//! the telemetry sampler and writes `metrics.prom` (Prometheus text),
//! `metrics.csv` (long-form `t_s,metric,label,value` time series), and
//! `metrics.json` (full telemetry dump) into the directory; all three are
//! byte-stable per `(scenario, seed)`. `top` is a live terminal view: it
//! steps the simulation one sampler interval at a time and redraws a
//! per-instance utilization / queue-depth / thread-occupancy table plus
//! the latest windowed latency percentiles, like `top(1)` for the
//! simulated cluster. `sweep --config` runs the scenario across a QPS
//! grid × seed replications on the [`uqsim_runner`] thread pool and emits
//! an aggregated CSV (or `--json`) table with 95% confidence intervals;
//! its output is byte-identical at any `--jobs` value. `trace` records
//! the full per-request span log and renders one of two views of it: with
//! a positional path, every `--every`-th completed request (up to `--max`)
//! as a distributed-tracing-style JSON line; with `--config`, the whole log
//! as Chrome `trace_event` JSON (open the file in `about:tracing` or
//! <https://ui.perfetto.dev>), audited against the simulator's invariants,
//! exiting non-zero on any violation. Both exit non-zero when `--events`
//! was too small for the view to be complete.
//! `validate` parses and builds without running, and prints the scenario's
//! machine, instance and client counts. `example` prints a
//! complete scenario file to start from; more elaborate ones ship under
//! `crates/cli/configs/`.
//!
//! `run`, `chaos`, `why` and `sweep` accept `--faults <faults.json>`
//! (`chaos` requires it): a fault plan ([`uqsim_core::FaultPlan`]) of
//! scheduled fault windows (instance crashes, machine slowdowns, network
//! degradation, pool leaks) plus per-client resilience policies (retries
//! with backoff and jitter, hedging, retry budgets, circuit breakers). The
//! plan is checked against the whole scenario before any cell runs: a name
//! that names nothing or a time the clock cannot hold is one error naming
//! `faults.json` and the key (`invalid configuration in faults.json:
//! faults[0].instance: unknown instance …`), exit 1, from each of them.
//! `chaos` runs one faulted scenario with full span tracing, audits
//! request-outcome conservation, and prints a failure-mode report
//! (timeline, terminal-outcome counters, resilience activity, goodput vs.
//! achieved throughput); it exits non-zero if the audit finds violations. Faulted runs stay
//! deterministic: the same scenario + plan + seed reproduces the same
//! report byte-for-byte at any `--jobs` value.
//!
//! Every simulating subcommand is one [`RunPlan`] — scenario source
//! (file, directory, or `--gen`), fault plan, seed, duration, shard count
//! — and `run`, `chaos`, `why`, `trace`, and `sweep --config` execute it
//! through the one run pipeline, [`uqsim_core::partition::run_groups`]:
//! the loaded scenario is handed over, not copied (a sweep re-scales one
//! copy per load point), and a `--gen` cluster a replica at a time, each
//! generated when a worker pulls it; either is split into
//! request-closed *cells* (DESIGN.md §11), the cells run on `--shards <n>`
//! worker threads (one when the flag is absent), and their outputs are
//! merged in cell order. A scenario that does not split — each bundled
//! config — is a single cell under the master seed. Every output — the
//! printed summary, metrics files, Chrome trace, chaos report, sweep
//! table — is byte-identical at any `--shards` value *including none*, so
//! `--shards` is purely a wall-clock knob, like `--jobs` for sweeps.
//! Partition diagnostics (cell and shard counts) go to stderr, keeping
//! stdout shard-invariant. A `--duration` that does not exceed the
//! scenario's `warmup_s` is rejected up front: the measurement window
//! would be empty.
//!
//! `gen` synthesizes a DeathStarBench-class scenario from a compact
//! generation spec ([`uqsim_synth::GenSpec`]): layered service graphs with
//! sampled widths and fan-outs, instance placement, pools, request DAGs,
//! and clients. Generation is deterministic per `(spec, seed)` — `--json`
//! output is byte-identical across runs and machines. `run`, `chaos`,
//! `why`, and `sweep --config` accept `--gen <gen.json>` in place of a
//! scenario path: the spec is generated on the fly (the command's `--seed`
//! doubles as the generation seed) and then treated exactly like the
//! scenario directory `gen --out` would write for it — the same cells,
//! seeds and output bytes, though `run`, `chaos` and `why` never hold it
//! whole. An example spec
//! ships at `crates/cli/configs/gen_dsb.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use uqsim_core::config::ScenarioConfig;
use uqsim_core::partition::{CellOutput, SpanTracing};
use uqsim_core::run::RunResult;
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::time::SimDuration;
use uqsim_core::{FaultPlan, PartitionOptions, PartitionedRun, SimError};

const EXAMPLE: &str = include_str!("../configs/quickstart.json");

/// Heap allocations made by this process, for `uqsim top`'s engine line.
/// `uqsim-core` forbids `unsafe` and so cannot count allocations itself;
/// the binary installs this counting wrapper around the system allocator.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method delegates to `System` unchanged; the only addition
// is a relaxed atomic increment, which cannot violate allocator contracts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Prints `reason` (what was wrong with the command line, if known) and
/// the usage table; exit 2.
fn usage(reason: Option<&str>) -> ExitCode {
    if let Some(reason) = reason {
        eprintln!("error: {reason}");
    }
    eprintln!(
        "usage:\n  uqsim run <scenario.json> [--duration <secs>] [--seed <n>] [--json] \
         [--metrics-out <dir>] [--sample-interval <secs>] [--faults <faults.json>] \
         [--shards <n>]\n  \
         uqsim chaos <scenario.json> --faults <faults.json> [--duration <secs>] \
         [--seed <n>] [--json] [--events <n>] [--shards <n>]\n  \
         uqsim why --config <scenario.json> [--faults <faults.json>] [--duration <secs>] \
         [--seed <n>] [--json] [--events <n>] [--shards <n>] [--out <dir>]\n  \
         uqsim top --config <scenario.json> [--duration <secs>] [--interval <secs>] \
         [--seed <n>] [--no-ansi]\n  \
         uqsim sweep --config <scenario.json> --qps <lo:hi:step|a,b,..> [--reps <k>] \
         [--jobs <n>] [--duration <secs>] [--seed <n>] [--json] [--out <file>] \
         [--faults <faults.json>] [--shards <n>]\n  \
         uqsim trace <scenario.json> [--duration <secs>] [--every <n>] [--max <n>] \
         [--events <n>] [--shards <n>]\n  \
         uqsim trace --config <scenario.json> [--out <trace.json>] [--duration <secs>] \
         [--events <n>] [--shards <n>]\n  \
         uqsim gen --spec <gen.json> [--seed <n>] [--out <dir>] [--json]\n  \
         uqsim validate <scenario.json|dir>\n  uqsim split <scenario.json> <dir>\n  uqsim example\n\
         \nrun, chaos, why, and sweep --config also accept --gen <gen.json> in place of a\n\
         scenario path: the spec is generated (seed = --seed) and run like any scenario.\n\
         --duration must exceed the scenario's warmup_s."
    );
    ExitCode::from(2)
}

/// Why a subcommand did not run to an outcome.
enum Failure {
    /// Unknown flag, missing or unparsable value, missing required
    /// argument: print the one-line reason and the usage text, exit 2.
    Usage(String),
    /// A well-formed flag whose value cannot be used (a decreasing `--qps`
    /// range): print the message, exit 2.
    Invalid(String),
    /// Loading, building, running or writing failed: print the error,
    /// exit 1.
    Error(SimError),
}

impl From<SimError> for Failure {
    fn from(e: SimError) -> Self {
        Failure::Error(e)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Error(e.into())
    }
}

/// `Ok(true)`: success. `Ok(false)`: the command ran and one of its own
/// checks failed (unclean audit, truncated span log, invalid scenario) —
/// it has already said so on stderr; exit 1.
type Outcome = Result<bool, Failure>;

/// Flags that stand alone; every other flag is followed by one value.
const SWITCHES: &[&str] = &["--json", "--no-ansi"];

/// One subcommand's command line, split once into flags and bare words.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Splits `raw` into the flags `cmd` accepts and up to
    /// `cmd.positional` bare words. An unlisted flag, a flag without its
    /// value, or a surplus bare word is a usage error.
    fn parse(raw: &[String], cmd: &Command) -> Result<Args, Failure> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut words = raw.iter();
        while let Some(word) = words.next() {
            if word.starts_with("--") {
                if !cmd.flags.split(' ').any(|flag| flag == word) {
                    let reason = format!("`uqsim {}` does not take {word}", cmd.name);
                    return Err(Failure::Usage(reason));
                }
                let value = if SWITCHES.contains(&word.as_str()) {
                    String::new()
                } else {
                    let missing = || Failure::Usage(format!("{word} needs a value"));
                    words.next().ok_or_else(missing)?.clone()
                };
                args.flags.push((word.clone(), value));
            } else if args.positional.len() < cmd.positional {
                args.positional.push(word.clone());
            } else {
                let reason = format!("`uqsim {}`: unexpected argument `{word}`", cmd.name);
                return Err(Failure::Usage(reason));
            }
        }
        Ok(args)
    }

    /// The value of `flag` as written (the last one wins), if given.
    fn raw(&self, flag: &str) -> Option<&str> {
        let given = self.flags.iter().rev().find(|(name, _)| name == flag);
        given.map(|(_, value)| value.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.raw(flag).is_some()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.raw(flag).map(PathBuf::from)
    }

    /// The parsed value of `flag`; an unparsable value is a usage error.
    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Failure> {
        let Some(text) = self.raw(flag) else {
            return Ok(None);
        };
        let unparsable = |_| Failure::Usage(format!("{flag}: cannot parse `{text}`"));
        text.parse().map(Some).map_err(unparsable)
    }

    /// The value of a flag the subcommand cannot do without.
    fn required(&self, flag: &str, value: &str) -> Result<&str, Failure> {
        let missing = || Failure::Usage(format!("{flag} {value} is required"));
        self.raw(flag).ok_or_else(missing)
    }

    fn get_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, Failure> {
        Ok(self.get(flag)?.unwrap_or(default))
    }

    /// A span of simulated time in seconds, or `default` when absent. It
    /// must be a number the engine's nanosecond clock can hold: finite,
    /// positive, at least 1 ns once rounded, and at most `u64::MAX` ns
    /// (about 584 years) — anything else is a usage error here, not a
    /// panic in [`SimDuration::from_secs_f64`] or a warm-up message later.
    fn seconds(&self, flag: &str, default: f64) -> Result<f64, Failure> {
        let secs: f64 = self.get_or(flag, default)?;
        let in_range = secs.is_finite() && secs > 0.0 && secs * 1e9 <= u64::MAX as f64;
        if in_range && SimDuration::from_secs_f64(secs) >= SimDuration::from_nanos(1) {
            return Ok(secs);
        }
        Err(Failure::Usage(format!(
            "{flag} must be positive, at least 1e-9 s and at most {} s, got `{}`",
            u64::MAX / 1_000_000_000,
            self.raw(flag).unwrap_or_default()
        )))
    }
}

/// Loads a scenario from a single file or a Table I directory.
fn load(path: &Path) -> Result<ScenarioConfig, SimError> {
    if path.is_dir() {
        ScenarioConfig::from_dir(path)
    } else {
        ScenarioConfig::from_file(path)
    }
}

/// A scenario as a command names it: loaded from a path, or `--gen <spec>`
/// — generated in memory, never written: the Table I layout round-trips a
/// generated scenario exactly (pinned by the `gen_smoke` test), so a
/// generated run is the run of what `uqsim gen --out` writes. The
/// command's `--seed` doubles as the generation seed (falling back to the
/// spec's own default), keeping `(spec, seed) → scenario` reproducible
/// from any entry point.
enum Scenario {
    Loaded(ScenarioConfig),
    Generated {
        spec: uqsim_synth::GenSpec,
        seed: u64,
    },
}

impl Scenario {
    /// The whole scenario at once, for `top`, which watches one live
    /// simulator of all of it.
    fn into_config(self) -> Result<ScenarioConfig, SimError> {
        match self {
            Scenario::Loaded(cfg) => Ok(cfg),
            Scenario::Generated { spec, seed } => {
                let generated = spec.generate(seed)?;
                announce(&spec, seed, uqsim_synth::summarize(&generated));
                Ok(generated)
            }
        }
    }
}

/// The summary of a generated scenario, on stderr: stdout stays reserved
/// for the command's own (byte-stable) output.
fn announce(spec: &uqsim_synth::GenSpec, seed: u64, summary: uqsim_synth::GenSummary) {
    eprintln!("generated {} seed {seed}: {summary}", spec.name);
}

/// What every simulating subcommand shares, parsed, loaded and validated
/// in one place: the scenario's name, master seed and warm-up, the
/// optional fault plan, the simulated duration, the shard count, and where
/// the output goes. The scenario itself is handed out beside the plan
/// ([`RunPlan::from_args`]), to be given to the run that uses it up.
struct RunPlan {
    /// The scenario as named on the command line; reports echo it.
    scenario: String,
    /// The run's master seed: `--seed`, else the scenario's own.
    seed: u64,
    /// The scenario's warm-up, seconds.
    warmup_s: f64,
    /// The fault plan as named on the command line, and loaded.
    faults: Option<(String, FaultPlan)>,
    duration_s: f64,
    /// `--shards`; `0` (one shard) when the flag is absent.
    shards: usize,
    json: bool,
    out: Option<PathBuf>,
}

impl RunPlan {
    /// Builds the plan from the shared flags and loads the scenario it
    /// names: the bare word, `--config`, or `--gen` (exactly one), `--seed`
    /// overrides its seed, `--duration` defaults to `default_duration_s`.
    ///
    /// Rejects a duration that does not exceed the scenario's warm-up:
    /// every statistic would be taken over an empty window.
    fn from_args(args: &Args, default_duration_s: f64) -> Result<(RunPlan, Scenario), Failure> {
        let seed: Option<u64> = args.get("--seed")?;
        let duration_s = args.seconds("--duration", default_duration_s)?;
        let shards = match args.get::<usize>("--shards")? {
            Some(0) => return Err(Failure::Usage("--shards must be at least 1".into())),
            given => given.unwrap_or(0),
        };
        let path = args.positional.first().map(String::as_str);
        let (name, scenario) = match (path.xor(args.raw("--config")), args.raw("--gen")) {
            (Some(path), None) => {
                let mut cfg = load(Path::new(path))?;
                cfg.seed = seed.unwrap_or(cfg.seed);
                (path, Scenario::Loaded(cfg))
            }
            (None, Some(path)) => {
                let spec = uqsim_synth::GenSpec::from_file(Path::new(path))?;
                let seed = seed.unwrap_or(spec.seed);
                (path, Scenario::Generated { spec, seed })
            }
            _ => {
                let reason = "name exactly one scenario: a path, --config <scenario.json>, \
                              or --gen <gen.json>";
                return Err(Failure::Usage(reason.into()));
            }
        };
        let (seed, warmup_s) = match &scenario {
            Scenario::Loaded(cfg) => (cfg.seed, cfg.warmup_s),
            Scenario::Generated { spec, seed } => (*seed, spec.warmup_s),
        };
        if duration_s <= warmup_s {
            return Err(SimError::InvalidScenario(format!(
                "{name}: --duration {duration_s}s does not exceed warmup_s {warmup_s}s, \
                 so the measurement window would be empty"
            ))
            .into());
        }
        let faults = match args.raw("--faults") {
            Some(path) => Some((path.to_string(), FaultPlan::from_file(Path::new(path))?)),
            None => None,
        };
        let plan = RunPlan {
            scenario: name.to_string(),
            seed,
            warmup_s,
            faults,
            duration_s,
            shards,
            json: args.has("--json"),
            out: args.path("--out"),
        };
        Ok((plan, scenario))
    }

    fn duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.duration_s)
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|(_, plan)| plan)
    }

    fn faults_path(&self) -> Option<&str> {
        self.faults.as_ref().map(|(path, _)| path.as_str())
    }

    /// Executes the plan through the one run pipeline: cells on
    /// `--shards` workers, merged in cell order. The run takes the
    /// scenario, so it is held once, carved into cells and built into their
    /// simulators; a generated one is handed over a replica at a time,
    /// each generated when a worker pulls it, so the run holds the
    /// replicas its workers are running, not the cluster. Each cell
    /// records what `telemetry` and `span_tracing` ask for and nothing
    /// else. The cell and shard counts go to stderr so stdout stays
    /// shard-invariant.
    fn run(
        &self,
        scenario: Scenario,
        telemetry: Option<TelemetryConfig>,
        span_tracing: SpanTracing,
    ) -> Result<PartitionedRun, SimError> {
        let opts = PartitionOptions {
            shards: self.shards,
            telemetry,
            span_tracing,
        };
        let (faults, seed, duration) = (self.fault_plan(), self.seed, self.duration());
        let run = match scenario {
            Scenario::Loaded(cfg) => {
                uqsim_core::run_partitioned(cfg, faults, seed, duration, &opts)
            }
            // The plan's seed is the generation seed.
            Scenario::Generated { spec, .. } => {
                // The summary is counted replica by replica and announced
                // once the last one is generated.
                let replicas = spec.replicas(seed)?;
                let last = replicas.len();
                let mut summary = uqsim_synth::GenSummary::default();
                let replicas = replicas.enumerate().map(|(r, replica)| {
                    summary += uqsim_synth::summarize(&replica);
                    if r + 1 == last {
                        announce(&spec, seed, summary);
                    }
                    replica
                });
                uqsim_core::partition::run_groups(replicas, faults, seed, duration, &opts)
            }
        }?;
        eprintln!(
            "partition: {} cell(s) on {} shard(s)",
            run.cells.len(),
            run.shards
        );
        Ok(run)
    }
}

/// The telemetry `chaos`, `why`, and every sweep cell switch on:
/// latency decomposition plus the streaming critical-path profile.
fn critpath_telemetry() -> Option<TelemetryConfig> {
    PartitionOptions::default().telemetry
}

/// Span events lost to full logs, and the per-cell `--events` capacity
/// that holds the same run whole.
struct Truncation {
    dropped: u64,
    needed: u64,
}

/// Says which cells' span logs overflowed (`what` names the consequence);
/// `None` when every log is complete.
fn report_truncation(run: &PartitionedRun, events: usize, what: &str) -> Option<Truncation> {
    let produced = |c: &CellOutput| c.span_events as u64 + c.span_dropped;
    let needed = run.cells.iter().map(produced).max().unwrap_or(0);
    for c in run.cells.iter().filter(|c| c.span_dropped > 0) {
        eprintln!(
            "cell {} span log truncated ({} events dropped at capacity {events}); \
             {what} — raise --events to at least {needed}",
            c.cell, c.span_dropped
        );
    }
    let dropped: u64 = run.cells.iter().map(|c| c.span_dropped).sum();
    (dropped > 0).then_some(Truncation { dropped, needed })
}

fn print_violations(violations: &[String]) {
    for v in violations {
        eprintln!("  {v}");
    }
}

fn pretty(doc: &serde_json::Value) -> String {
    serde_json::to_string_pretty(doc).expect("a JSON value serializes")
}

fn latency_json(s: &uqsim_core::metrics::LatencySummary) -> serde_json::Value {
    serde_json::json!({
        "count": s.count, "mean": s.mean, "p50": s.p50,
        "p95": s.p95, "p99": s.p99, "max": s.max,
    })
}

/// `uqsim run`: one run, the latency/throughput summary on stdout, and
/// with `--metrics-out` the three metrics files.
fn cmd_run(args: &Args) -> Outcome {
    let metrics_out = args.path("--metrics-out");
    let sample_interval_s = args.seconds("--sample-interval", 0.1)?;
    let (plan, scenario) = RunPlan::from_args(args, 5.0)?;
    // No telemetry unless it is asked for: a plain run pays for the event
    // loop and nothing else.
    let telemetry = metrics_out.as_ref().map(|_| TelemetryConfig {
        sample_interval: Some(SimDuration::from_secs_f64(sample_interval_s)),
        ..TelemetryConfig::default()
    });
    let run = plan.run(scenario, telemetry, SpanTracing::Off)?;
    print_run_summary(&plan, &run.result);
    if let Some(dir) = metrics_out {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join("metrics.prom"),
            run.prometheus().expect("telemetry is enabled"),
        )?;
        std::fs::write(
            dir.join("metrics.csv"),
            run.csv().expect("sampler is enabled"),
        )?;
        let json = run.json().expect("sampler is enabled");
        std::fs::write(dir.join("metrics.json"), pretty(&json))?;
        eprintln!(
            "wrote metrics.prom, metrics.csv, metrics.json to {}",
            dir.display()
        );
    }
    Ok(true)
}

fn print_run_summary(plan: &RunPlan, r: &RunResult) {
    let (duration_s, warmup_s) = (plan.duration_s, plan.warmup_s);
    if plan.json {
        let mut out = serde_json::json!({
            "duration_s": duration_s,
            "warmup_s": warmup_s,
            "generated": r.generated,
            "completed": r.completed,
            "throughput_qps": r.achieved_qps,
            "latency_s": latency_json(&r.latency),
            "events_processed": r.events_processed,
        });
        if let (Some(f), serde_json::Value::Object(obj)) = (&r.fault, &mut out) {
            obj.insert("goodput_qps", serde_json::json!(r.goodput_qps));
            obj.insert(
                "faults",
                serde_json::to_value(f).expect("fault summary serializes"),
            );
        }
        println!("{}", pretty(&out));
        return;
    }
    println!("simulated {duration_s}s (warmup {warmup_s}s)");
    println!(
        "requests: generated {}, completed {}",
        r.generated, r.completed
    );
    println!(
        "throughput: {:.0} req/s over the measured window",
        r.achieved_qps
    );
    println!(
        "latency: mean {:.3}ms p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms max {:.3}ms ({} samples)",
        r.latency.mean * 1e3,
        r.latency.p50 * 1e3,
        r.latency.p95 * 1e3,
        r.latency.p99 * 1e3,
        r.latency.max * 1e3,
        r.latency.count
    );
    println!("engine: {} events processed", r.events_processed);
    if let Some(f) = &r.fault {
        println!(
            "faults: {} dropped, {} shed, {} timed out, {} retries, {} degraded \
             ({:.0} req/s goodput)",
            f.dropped, f.shed, f.timed_out, f.retried, f.degraded, r.goodput_qps
        );
    }
}

/// `uqsim chaos`: runs one faulted scenario with full span tracing, audits
/// request-outcome conservation, and prints a failure-mode report: the
/// fault timeline, terminal-outcome counters, resilience activity, and
/// goodput vs. achieved throughput. Succeeds iff the audit was clean.
///
/// The fault plan is validated against the whole scenario, split per
/// cell, and installed in every cell; per-cell timelines, counters,
/// audits, and latency samples are merged deterministically, so the same
/// scenario + plan + seed prints byte-identical text on every run, at any
/// `--shards` value.
fn cmd_chaos(args: &Args) -> Outcome {
    args.required("--faults", "<faults.json>")?;
    let events: usize = args.get_or("--events", 4_000_000)?;
    let (plan, scenario) = RunPlan::from_args(args, 5.0)?;
    let span_tracing = SpanTracing::Check {
        events,
        replay: false,
    };
    let run = plan.run(scenario, critpath_telemetry(), span_tracing)?;
    let audit = match report_truncation(&run, events, "audit skipped") {
        None => Ok(run.audit().expect("span tracing is enabled")),
        Some(truncation) => Err(truncation),
    };
    print_chaos_report(&plan, &run.result, audit.as_ref());
    Ok(audit.is_ok_and(|a| a.is_clean()))
}

/// Renders the chaos report; `audit` is the [`Truncation`] when span events
/// were lost and the audit was skipped.
fn print_chaos_report(
    plan: &RunPlan,
    r: &RunResult,
    audit: Result<&uqsim_core::AuditReport, &Truncation>,
) {
    let f = r.fault.as_ref().expect("fault plan is installed");
    let (s, ts) = (&r.latency, &r.timeout_latency);
    let (scenario, faults) = (&plan.scenario, plan.faults_path().unwrap_or_default());
    let (seed, duration_s, warmup_s) = (plan.seed, plan.duration_s, plan.warmup_s);
    // What conservation leaves: every generated request is completed,
    // dropped, shed, or still in the system when the run ends. A number
    // that grows with `--duration` is a backlog no other line shows.
    let in_flight = r.generated - r.completed - f.dropped - f.shed;
    let critpath = r
        .critpath
        .as_ref()
        .map(|p| p.report())
        .filter(|rep| rep.requests > 0);
    if plan.json {
        let out = serde_json::json!({
            "scenario": scenario,
            "faults": faults,
            "seed": seed,
            "duration_s": duration_s,
            "warmup_s": warmup_s,
            "generated": r.generated,
            "completed": r.completed,
            "outcomes": {
                "dropped": f.dropped,
                "shed": f.shed,
                "in_flight": in_flight,
                "timed_out": f.timed_out,
                "degraded": f.degraded,
            },
            "resilience": {
                "retried": f.retried,
                "hedged": f.hedged,
                "breaker_trips": f.breaker_trips,
                "jobs_killed": f.jobs_killed,
                "packets_dropped": f.packets_dropped,
                "retransmits": f.retransmits,
            },
            "throughput_qps": r.achieved_qps,
            "goodput_qps": r.goodput_qps,
            "latency_s": latency_json(s),
            "timeout_latency_s": { "count": ts.count, "p50": ts.p50, "p99": ts.p99 },
            "timeline": serde_json::to_value(&f.timeline).expect("timeline serializes"),
            "critpath": critpath.as_ref().map(|rep| rep.to_json()),
            "audit": match audit {
                Err(t) => serde_json::json!({
                    "skipped": format!(
                        "span log truncated; raise --events to at least {}",
                        t.needed
                    ),
                }),
                Ok(a) => serde_json::json!({
                    "clean": a.is_clean(),
                    "violations": a.violations,
                }),
            },
        });
        println!("{}", pretty(&out));
        return;
    }
    println!(
        "chaos report: {scenario} + {faults} (seed {seed}, {duration_s}s simulated, \
         warmup {warmup_s}s)"
    );
    println!();
    println!("timeline:");
    if f.timeline.is_empty() {
        println!("  (no fault windows fired)");
    }
    for entry in &f.timeline {
        println!("  t={:>8.3}s  {}", entry.t_s, entry.what);
    }
    println!();
    println!("outcomes:");
    println!(
        "  generated {}  completed {}  dropped {}  shed {}  in flight {}  timed out {}",
        r.generated, r.completed, f.dropped, f.shed, in_flight, f.timed_out
    );
    println!(
        "  degraded responses {} (breaker sheds + quorum early-fires)",
        f.degraded
    );
    println!();
    println!("resilience:");
    println!(
        "  retries {}  hedges {}  breaker trips {}",
        f.retried, f.hedged, f.breaker_trips
    );
    println!(
        "  jobs killed {}  packets dropped {}  retransmits {}",
        f.jobs_killed, f.packets_dropped, f.retransmits
    );
    println!();
    println!(
        "latency (within-deadline completions): mean {:.3}ms p50 {:.3}ms p95 {:.3}ms \
         p99 {:.3}ms ({} samples)",
        s.mean * 1e3,
        s.p50 * 1e3,
        s.p95 * 1e3,
        s.p99 * 1e3,
        s.count
    );
    if ts.count > 0 {
        println!(
            "latency at timeout deadline: p50 {:.3}ms p99 {:.3}ms ({} requests)",
            ts.p50 * 1e3,
            ts.p99 * 1e3,
            ts.count
        );
    }
    println!(
        "goodput: {:.0} req/s of {:.0} req/s achieved ({:.1}% full fidelity)",
        r.goodput_qps,
        r.achieved_qps,
        100.0 * r.goodput_qps / r.achieved_qps.max(f64::EPSILON)
    );
    println!();
    if let Some(rep) = &critpath {
        print_tail_attribution(rep);
    }
    match audit {
        Err(t) => println!(
            "audit: skipped ({} span events dropped; raise --events to at least {})",
            t.dropped, t.needed
        ),
        Ok(a) if a.is_clean() => println!(
            "audit: clean — every request reached exactly one terminal state \
             ({} spans checked)",
            a.spans_checked
        ),
        Ok(a) => {
            println!("audit: {} violations", a.violations.len());
            for v in &a.violations {
                println!("  {v}");
            }
        }
    }
}

/// Prints the chaos report's tail-attribution section: where the
/// p99+-band requests spent their critical path, and which `(site, kind)`
/// components grew the most from the median cohort to the tail — the
/// direct answer to "which fault inflated the tail, and through what
/// mechanism". Deterministic: share-ranked with `(site, kind)` tie-breaks.
fn print_tail_attribution(rep: &uqsim_core::CpcReport) {
    println!("tail attribution (critical path):");
    if let Some(top) = rep.top_p99() {
        println!(
            "  p99+ cohort spends {:.1}% of its critical path in {} {}",
            top.p99_share * 100.0,
            top.site,
            top.kind.name()
        );
    }
    let mut any = false;
    for row in rep.ranked_by_diff().into_iter().take(3) {
        // Half a percentage point keeps sub-noise rows out of the report.
        if row.diff_share < 0.005 {
            break;
        }
        any = true;
        println!(
            "  {} {}: {:.1}% of the median cohort's path -> {:.1}% of the tail's \
             (+{:.1} pts)",
            row.site,
            row.kind.name(),
            row.p50_share * 100.0,
            row.p99_share * 100.0,
            row.diff_share * 100.0
        );
    }
    if !any {
        println!("  (no component grows from the median cohort to the tail)");
    }
    println!();
}

/// `why`'s default cap on span events per cell. A limit on events, not on
/// memory — the log is streamed to the checks, not stored: it lets the
/// largest bundled config through at the default duration
/// (`social_network`, 5 s: 4,550,942 events) with room to spare.
const WHY_EVENTS: usize = 8_000_000;

/// `uqsim why`: critical-path extraction and tail-latency attribution.
///
/// Runs the scenario (optionally faulted) with both streaming critical-path
/// accumulation and full span tracing, audits the trace, cross-checks each
/// cell's streaming profile against an independent replay of that cell's
/// span events (the audit and the replay fold the events chunk by chunk on
/// a second thread while the cell runs; the log is never stored), and
/// prints the cohort/differential attribution report of the merged
/// profile. Fails (non-zero exit) when a span log truncated
/// — a truncated stream would silently under-attribute — when the audit
/// finds violations, or when streaming and replayed attribution disagree.
/// Cell decomposition depends on the scenario, not the worker count, so
/// every rendered output is byte-identical at any `--shards` value.
fn cmd_why(args: &Args) -> Outcome {
    let events: usize = args.get_or("--events", WHY_EVENTS)?;
    let (plan, scenario) = RunPlan::from_args(args, 5.0)?;
    let span_tracing = SpanTracing::Check {
        events,
        replay: true,
    };
    let run = plan.run(scenario, critpath_telemetry(), span_tracing)?;
    if report_truncation(&run, events, "attribution would be incomplete").is_some() {
        return Ok(false);
    }
    let audit = run.audit().expect("span tracing is enabled");
    if !audit.is_clean() {
        eprintln!(
            "error: trace audit found {} violation(s); refusing to attribute",
            audit.violations.len()
        );
        print_violations(&audit.violations);
        return Ok(false);
    }
    let mut replayed_events = 0;
    for c in &run.cells {
        let checks = c.checks.as_ref().expect("the span log was checked");
        if let Err(msg) = checks.replay.as_ref().expect("replay was asked for") {
            eprintln!("error: {msg}");
            return Ok(false);
        }
        replayed_events += c.span_events;
    }
    eprintln!(
        "why: {replayed_events} span events replayed, {} spans audited, streaming == replay",
        audit.spans_checked
    );
    let profile = run.result.critpath.as_ref();
    emit_why(&plan, profile.expect("critpath telemetry is enabled"))?;
    Ok(true)
}

/// Renders an attribution profile to stdout (text, or the full report JSON
/// with `--json`) and, with `--out <dir>`, writes the machine-readable
/// artifact set: `critpath.txt`, `critpath.csv`, `critpath.json`,
/// `critpath.folded` (flame-graph folded stacks), and `critpath.prom`
/// (Prometheus `uqsim_critpath_*` exposition). All renderings are
/// deterministic functions of the profile.
fn emit_why(plan: &RunPlan, profile: &uqsim_core::CpcProfile) -> Result<(), SimError> {
    let report = profile.report();
    let (seed, duration_s, warmup_s) = (plan.seed, plan.duration_s, plan.warmup_s);
    if plan.json {
        let mut doc = report.to_json();
        if let serde_json::Value::Object(obj) = &mut doc {
            obj.insert("scenario", serde_json::json!(plan.scenario));
            obj.insert("faults", serde_json::json!(plan.faults_path()));
            obj.insert("seed", serde_json::json!(seed));
            obj.insert("duration_s", serde_json::json!(duration_s));
            obj.insert("warmup_s", serde_json::json!(warmup_s));
        }
        println!("{}", pretty(&doc));
    } else {
        println!(
            "why: {}{} (seed {seed}, {duration_s}s simulated, warmup {warmup_s}s)",
            plan.scenario,
            plan.faults_path()
                .map(|f| format!(" + {f}"))
                .unwrap_or_default()
        );
        println!();
        print!("{}", report.to_text());
    }
    if let Some(dir) = &plan.out {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("critpath.txt"), report.to_text())?;
        std::fs::write(dir.join("critpath.csv"), report.to_csv())?;
        std::fs::write(dir.join("critpath.json"), pretty(&report.to_json()))?;
        std::fs::write(dir.join("critpath.folded"), profile.to_folded())?;
        std::fs::write(
            dir.join("critpath.prom"),
            profile.registry().to_prometheus(),
        )?;
        eprintln!(
            "wrote critpath.txt, critpath.csv, critpath.json, critpath.folded, \
             critpath.prom to {}",
            dir.display()
        );
    }
    Ok(())
}

/// `uqsim top`: `top(1)` for the simulated cluster. Steps one simulator
/// one sampler interval at a time and redraws per-instance utilization,
/// queue depth, and thread occupancy plus the latest windowed latency
/// percentiles. With ANSI enabled each frame overdraws the previous one;
/// `--no-ansi` appends frames instead (useful for piping to a file).
///
/// The engine line is the simulator's own speed over the frame's step:
/// timed here, around [`Simulator::run_for`](uqsim_core::sim::Simulator::run_for),
/// since the simulator itself reads no wall clock.
fn cmd_top(args: &Args) -> Outcome {
    let interval_s = args.seconds("--interval", 1.0)?;
    let ansi = !args.has("--no-ansi");
    let (plan, scenario) = RunPlan::from_args(args, 10.0)?;
    let mut sim = scenario.into_config()?.into_simulator()?;
    let interval = SimDuration::from_secs_f64(interval_s);
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(interval),
        ..TelemetryConfig::default()
    });
    let deadline = sim.now() + plan.duration();
    while sim.now() < deadline {
        let step = interval.min(deadline - sim.now());
        let (wall, events, allocs) = (
            Instant::now(),
            sim.events_processed(),
            ALLOCATIONS.load(Ordering::Relaxed),
        );
        sim.run_for(step);
        let heap = sim
            .telemetry_series()
            .and_then(|s| s.latest("event_heap", None))
            .unwrap_or(0.0);
        let engine = format!(
            "engine: {} events total, {:.0} events/wall-s, heap {heap}, {:.0} allocs/sim-s",
            sim.events_processed(),
            (sim.events_processed() - events) as f64 / wall.elapsed().as_secs_f64().max(1e-12),
            (ALLOCATIONS.load(Ordering::Relaxed) - allocs) as f64 / step.as_secs_f64(),
        );
        if ansi {
            // Clear the screen and home the cursor before each frame.
            print!("\x1b[2J\x1b[H");
        }
        print_top_frame(&sim, interval_s, &engine);
    }
    Ok(true)
}

/// Renders one `uqsim top` frame from the latest sampler tick, under the
/// `engine` line [`cmd_top`] measured for it.
fn print_top_frame(sim: &uqsim_core::sim::Simulator, interval_s: f64, engine: &str) {
    println!(
        "uqsim top — t={:.3}s  (sampler interval {interval_s}s)",
        sim.now().as_secs_f64()
    );
    println!("{engine}");
    println!(
        "in flight: {} requests, {} jobs;  completed {} / generated {} ({} timeouts)",
        sim.live_requests(),
        sim.live_jobs(),
        sim.completed(),
        sim.generated(),
        sim.timeouts()
    );
    if let Some(w) = sim.telemetry_windows().last() {
        println!(
            "window: {} done, {:.0} qps, p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms",
            w.count,
            w.throughput,
            w.p50_s * 1e3,
            w.p95_s * 1e3,
            w.p99_s * 1e3
        );
    }
    let Some(series) = sim.telemetry_series() else {
        return;
    };
    println!();
    println!(
        "{:<24} {:>6} {:>7} {:>5} {:>5}",
        "INSTANCE", "UTIL", "QDEPTH", "RUN", "BLK"
    );
    for def in series.defs() {
        if def.metric != "instance_queue_depth" {
            continue;
        }
        let Some((_, name)) = &def.label else {
            continue;
        };
        let get = |metric| series.latest(metric, Some(name.as_str())).unwrap_or(0.0);
        println!(
            "{name:<24} {:>5.1}% {:>7} {:>5} {:>5}",
            get("instance_utilization") * 100.0,
            get("instance_queue_depth") as u64,
            get("threads_running") as u64,
            get("threads_blocked") as u64
        );
    }
    println!();
    println!("{:<24} {:>8} {:>6}", "MACHINE", "NET-UTIL", "NETQ");
    for def in series.defs() {
        if def.metric != "network_utilization" {
            continue;
        }
        let Some((_, name)) = &def.label else {
            continue;
        };
        let get = |metric| series.latest(metric, Some(name.as_str())).unwrap_or(0.0);
        println!(
            "{name:<24} {:>7.1}% {:>6}",
            get("network_utilization") * 100.0,
            get("net_queue_depth") as u64
        );
    }
    let pools: Vec<&String> = series
        .defs()
        .iter()
        .filter(|d| d.metric == "pool_free")
        .filter_map(|d| d.label.as_ref().map(|(_, v)| v))
        .collect();
    if !pools.is_empty() {
        println!();
        println!("{:<32} {:>6} {:>8}", "POOL", "FREE", "WAITERS");
        for name in pools {
            let get = |metric| series.latest(metric, Some(name.as_str())).unwrap_or(0.0);
            println!(
                "{name:<32} {:>6} {:>8}",
                get("pool_free") as u64,
                get("pool_waiters") as u64
            );
        }
    }
}

/// Most seed replications `uqsim sweep` takes per point (the grid itself is
/// capped at [`uqsim_runner::sweep::MAX_QPS_POINTS`]).
const MAX_REPS: usize = 10_000;

/// `uqsim sweep`: `Q` QPS points × `K` seed replications, every cell of
/// every run claimed from the run pipeline's one queue by `max(--jobs,
/// --shards)` workers, aggregated into a CSV/JSON table with
/// across-replication 95% confidence intervals. Progress goes to stderr;
/// the table goes to stdout (or `--out`), and its bytes do not depend on
/// `--jobs` or `--shards`.
fn cmd_sweep(args: &Args) -> Outcome {
    let qps_spec = args.required("--qps", "<lo:hi:step|a,b,..>")?;
    let qps = uqsim_runner::sweep::parse_qps_spec(qps_spec).map_err(Failure::Invalid)?;
    let reps: usize = args.get_or("--reps", 3)?;
    if reps > MAX_REPS {
        return Err(Failure::Usage(format!("--reps must be at most {MAX_REPS}")));
    }
    let jobs: usize = args.get_or("--jobs", uqsim_runner::available_jobs())?;
    let (plan, scenario) = RunPlan::from_args(args, 5.0)?;
    let spec = uqsim_runner::sweep::SweepSpec {
        qps,
        reps: reps.max(1),
        base_seed: plan.seed,
        duration: plan.duration(),
        jobs: jobs.max(1),
        faults: plan.fault_plan().cloned(),
        shards: plan.shards,
    };
    eprintln!(
        "sweep: {} qps points x {} reps = {} runs on {} worker(s)",
        spec.qps.len(),
        spec.reps,
        spec.qps.len() * spec.reps,
        spec.jobs.max(spec.shards)
    );
    let progress = |p: uqsim_runner::sweep::Progress| {
        eprintln!(
            "  [{}/{}] qps={:.0} seed={}",
            p.finished, p.total, p.offered_qps, p.seed
        );
    };
    let table = match scenario {
        Scenario::Loaded(cfg) => uqsim_runner::sweep::run_scenario_sweep(&cfg, &spec, &progress),
        // Each run pulls the replicas, generated under the plan's seed and
        // re-scaled to its point one at a time: the cluster is never held.
        Scenario::Generated { spec: gen, seed } => {
            let mut summary = uqsim_synth::GenSummary::default();
            for replica in gen.replicas(seed)? {
                summary += uqsim_synth::summarize(&replica);
            }
            announce(&gen, seed, summary);
            let replicas_at = |qps: f64| {
                // The spec was checked by the count above: never an error.
                let replicas = gen.replicas(seed).into_iter().flatten();
                replicas.map(move |replica| replica.with_offered_qps(qps))
            };
            uqsim_runner::sweep::run_sweep(&replicas_at, &spec, &progress)
        }
    }?;
    let mut text = if plan.json {
        table.to_json()
    } else {
        table.to_csv()
    };
    if !text.ends_with('\n') {
        text.push('\n');
    }
    match &plan.out {
        Some(file) => {
            std::fs::write(file, &text)?;
            eprintln!("wrote {}", file.display());
        }
        None => print!("{text}"),
    }
    Ok(true)
}

/// `uqsim trace`: one run with the span log on, rendered one of two ways —
/// with `--config`, the Chrome `trace_event` export and audit; with a bare
/// scenario path, sampled request traces as JSON lines.
fn cmd_trace(args: &Args) -> Outcome {
    let events: usize = args.get_or("--events", 1_000_000)?;
    let every: u64 = args.get_or("--every", 100)?;
    let max: usize = args.get_or("--max", 20)?;
    let (plan, scenario) = RunPlan::from_args(args, 2.0)?;
    let run = plan.run(scenario, None, SpanTracing::Retain(events))?;
    if args.has("--config") {
        chrome_export(&plan, &run, events)
    } else {
        print_sampled_traces(&run, events, every.max(1), max)
    }
}

/// Prints every `every`-th completed request of each cell's span log (cells
/// in order, `max` traces in all) as one JSON line per request. Fails if a
/// log was cut short before `max` traces were found: some may be missing.
fn print_sampled_traces(run: &PartitionedRun, events: usize, every: u64, max: usize) -> Outcome {
    let mut traces = Vec::new();
    for c in &run.cells {
        let trace = c.trace.as_ref().expect("the span log is retained");
        let room = max - traces.len();
        traces.extend(uqsim_core::trace::sampled_traces(
            &trace.log,
            &trace.meta,
            every,
            room,
        ));
    }
    for t in &traces {
        println!("{}", serde_json::to_string(t).expect("trace serializes"));
    }
    eprintln!(
        "{} traces over {} completed requests",
        traces.len(),
        run.result.completed
    );
    if traces.len() < max
        && report_truncation(run, events, "sampled traces may be missing").is_some()
    {
        return Ok(false);
    }
    Ok(true)
}

/// Writes the run's span log as a Chrome `trace_event` JSON file (viewable
/// in `about:tracing` or Perfetto) and audits it against the simulator's
/// invariants. Succeeds iff the log is complete and the audit clean. The
/// trace of a scenario with more than one cell gives each cell its own pid
/// range and `c<i>:`-prefixed scope ids; the written JSON and the audit
/// verdict are byte-identical at any `--shards` value.
fn chrome_export(plan: &RunPlan, run: &PartitionedRun, events: usize) -> Outcome {
    // Streamed an event at a time: the JSON is 2.5 times the size of the
    // log it is written from and is never held.
    let trace = run.chrome_trace().expect("span tracing is enabled");
    let mut out: Box<dyn Write> = match &plan.out {
        Some(file) => Box::new(std::fs::File::create(file)?),
        None => Box::new(std::io::stdout().lock()),
    };
    serde_json::to_writer_pretty(&mut out, &trace)?;
    if plan.out.is_none() {
        writeln!(out)?;
        out.flush()?;
    }
    if let Some(file) = &plan.out {
        eprintln!("wrote {}", file.display());
    }
    let recorded: usize = run.cells.iter().map(|c| c.span_events).sum();
    let audit = run.audit().expect("span tracing is enabled");
    let dropped =
        report_truncation(run, events, "the trace is incomplete").map_or(0, |t| t.dropped);
    eprintln!(
        "trace: {recorded} events ({dropped} dropped), {} spans audited, {} completed requests",
        audit.spans_checked, run.result.completed
    );
    if audit.is_clean() {
        eprintln!("audit: clean");
    } else {
        eprintln!("audit: {} violations", audit.violations.len());
        print_violations(&audit.violations);
    }
    Ok(dropped == 0 && audit.is_clean())
}

/// `uqsim gen`: generate a scenario from a spec, deterministically per
/// `(spec, seed)`. `--out <dir>` writes the Table I layout the other
/// commands load; `--json` prints the single-file scenario to stdout
/// (byte-identical across runs — CI regenerates and `cmp`s it); with
/// neither, the spec is validated, generated, and built, and only the
/// summary line is printed.
fn cmd_gen(args: &Args) -> Outcome {
    let spec_path = PathBuf::from(args.required("--spec", "<gen.json>")?);
    let seed: Option<u64> = args.get("--seed")?;
    let (out, json) = (args.path("--out"), args.has("--json"));
    let spec = uqsim_synth::GenSpec::from_file(&spec_path)?;
    let seed = seed.unwrap_or(spec.seed);
    let cfg = spec.generate(seed)?;
    if let Some(dir) = &out {
        cfg.write_dir(dir)?;
        eprintln!("wrote Table I layout to {}", dir.display());
    }
    if json {
        // Streamed: the scenario's bytes never sit in one string.
        let mut out = std::io::stdout().lock();
        serde_json::to_writer_pretty(&mut out, &cfg)?;
        writeln!(out)?;
    }
    let summary = uqsim_synth::summarize(&cfg);
    if out.is_none() && !json {
        // Dry run: prove the generated scenario actually builds.
        cfg.into_simulator()?;
    }
    eprintln!("generated {} seed {seed}: {summary}", spec.name);
    Ok(true)
}

fn cmd_validate(args: &Args) -> Outcome {
    let missing = || Failure::Usage("validate needs a scenario path".into());
    let path = args.positional.first().ok_or_else(missing)?;
    let built = load(Path::new(path)).and_then(|cfg| {
        let counts = (cfg.machines.len(), cfg.instances.len(), cfg.clients.len());
        cfg.into_simulator().map(|_| counts)
    });
    match built {
        Ok((machines, instances, clients)) => {
            let count = |n: usize, what: &str| match n {
                1 => format!("1 {what}"),
                _ => format!("{n} {what}s"),
            };
            println!(
                "ok: {}, {}, {}",
                count(machines, "machine"),
                count(instances, "instance"),
                count(clients, "client")
            );
        }
        Err(e) => {
            eprintln!("invalid: {e}");
            return Ok(false);
        }
    }
    Ok(true)
}

fn cmd_split(args: &Args) -> Outcome {
    let [src, dst] = args.positional.as_slice() else {
        return Err(Failure::Usage("split needs <scenario.json> <dir>".into()));
    };
    load(Path::new(src))?.write_dir(Path::new(dst))?;
    println!("wrote Table I layout to {dst}");
    Ok(true)
}

fn cmd_example(_: &Args) -> Outcome {
    println!("{EXAMPLE}");
    Ok(true)
}

/// One subcommand: the flags (space-separated) and bare words it accepts,
/// and what it does with them.
struct Command {
    name: &'static str,
    flags: &'static str,
    positional: usize,
    run: fn(&Args) -> Outcome,
}

/// The subcommand table. A flag is parsed where it is read ([`RunPlan`]
/// for the shared ones); this table only says which subcommand takes it.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "run", positional: 1, run: cmd_run,
        flags: "--gen --faults --seed --duration --shards --json --metrics-out --sample-interval" },
    Command { name: "chaos", positional: 1, run: cmd_chaos,
        flags: "--gen --faults --seed --duration --shards --json --events" },
    Command { name: "why", positional: 0, run: cmd_why,
        flags: "--config --gen --faults --seed --duration --shards --json --events --out" },
    Command { name: "sweep", positional: 0, run: cmd_sweep,
        flags: "--config --gen --faults --seed --duration --shards --json --out --qps --reps --jobs" },
    Command { name: "top", positional: 0, run: cmd_top,
        flags: "--config --seed --duration --interval --no-ansi" },
    Command { name: "trace", positional: 1, run: cmd_trace,
        flags: "--config --duration --shards --out --events --every --max" },
    Command { name: "gen", positional: 0, run: cmd_gen,
        flags: "--spec --seed --out --json" },
    Command { name: "validate", positional: 1, run: cmd_validate, flags: "" },
    Command { name: "split", positional: 2, run: cmd_split, flags: "" },
    Command { name: "example", positional: 0, run: cmd_example, flags: "" },
];

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = raw.first() else {
        return usage(None);
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return usage(Some(&format!("unknown subcommand `{name}`")));
    };
    let outcome = Args::parse(&raw[1..], cmd).and_then(|a| (cmd.run)(&a));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Failure::Usage(reason)) => usage(Some(&reason)),
        Err(Failure::Invalid(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(Failure::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_quickstart_builds_and_runs() {
        let cfg = ScenarioConfig::from_json(EXAMPLE).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.completed() > 100);
    }

    #[test]
    fn bundled_social_network_builds_and_runs() {
        // Exercises block_thread_until / pin_thread_of / reply_via purely
        // from JSON.
        let text = include_str!("../configs/social_network.json");
        let cfg = ScenarioConfig::from_json(text).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim.completed() > 10_000, "completed {}", sim.completed());
        let s = sim.latency_summary();
        assert!(s.p99 < 20e-3, "p99 {}", s.p99);
        assert_eq!(
            sim.generated(),
            sim.completed() + sim.live_requests() as u64
        );
    }

    #[test]
    fn bundled_two_tier_builds_and_runs() {
        let text = include_str!("../configs/two_tier.json");
        let cfg = ScenarioConfig::from_json(text).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.completed() > 1_000, "completed {}", sim.completed());
        let s = sim.latency_summary();
        assert!(s.p99 < 10e-3, "p99 {}", s.p99);
    }

    /// Runs one bundled config with span tracing on and asserts the trace
    /// audit comes back with zero violations and the Chrome export is
    /// well-formed.
    fn audit_config(text: &str, secs: u64) {
        let cfg = ScenarioConfig::from_json(text).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.enable_span_tracing(2_000_000);
        sim.run_for(SimDuration::from_secs(secs));
        let log = sim.span_log().expect("tracing enabled");
        assert_eq!(log.dropped(), 0, "event capacity too small for this test");
        let report = sim.audit_trace().expect("tracing enabled");
        assert!(report.is_clean(), "violations: {:#?}", report.violations);
        assert!(report.spans_checked > 0, "no spans correlated");
        let chrome = serde_json::to_value(sim.chrome_trace().expect("tracing enabled")).unwrap();
        let events = chrome["traceEvents"].as_array().expect("traceEvents array");
        assert!(events.len() > 100, "only {} chrome events", events.len());
        // Every event carries the mandatory Chrome trace_event keys.
        for ev in events {
            assert!(ev["ph"].as_str().is_some(), "event without ph: {ev}");
            assert!(ev["pid"].as_u64().is_some(), "event without pid: {ev}");
        }
    }

    /// The PR's acceptance scenario: under the bundled retry-storm fault
    /// plan, the p99-cohort's top critical-path contributor must be the
    /// faulted backend tier's queueing (or retry) component — attribution
    /// points at the fault, not at healthy services.
    #[test]
    fn social_network_retry_storm_attributes_tail_to_faulted_tier() {
        let cfg =
            ScenarioConfig::from_json(include_str!("../configs/social_network.json")).unwrap();
        let plan =
            uqsim_core::FaultPlan::from_json(include_str!("../configs/social_network_faults.json"))
                .unwrap();
        let result = uqsim_core::run::run_one_faulted(
            &cfg,
            Some(&plan),
            cfg.seed,
            SimDuration::from_secs(3),
        )
        .unwrap();
        assert!(result.retried > 0, "retry storm produced no retries");
        let report = result
            .critpath
            .expect("run_one_faulted streams a critpath profile")
            .report();
        let top = report.top_p99().expect("profile is non-empty");
        assert!(
            matches!(
                top.kind,
                uqsim_core::EdgeKind::QueueWait | uqsim_core::EdgeKind::RetryBackoff
            ),
            "top p99 contributor is {} {}, expected queue_wait/retry_backoff",
            top.site,
            top.kind.name()
        );
        assert!(
            ["user", "post", "media"]
                .iter()
                .any(|b| top.site.starts_with(b)),
            "top p99 contributor {} is not on the faulted backend tier",
            top.site
        );
    }

    #[test]
    fn quickstart_trace_audits_clean() {
        audit_config(EXAMPLE, 1);
    }

    #[test]
    fn two_tier_trace_audits_clean() {
        audit_config(include_str!("../configs/two_tier.json"), 1);
    }

    #[test]
    fn social_network_trace_audits_clean() {
        audit_config(include_str!("../configs/social_network.json"), 1);
    }
}
