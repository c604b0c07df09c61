//! The perf ledger for `uqsim`: four CLI workloads timed end to end as
//! child processes with tracing off, then one traced in-process pass that
//! replays each workload's pipeline through the crates' public functions
//! with a span around every call. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--seed <n>]
//!     [--workload <name>] [--trace <0|1>] [--seconds <n>] [--smoke]
//! ```
//!
//! With no flags: all four workloads, both passes, 21 + 5 reps. With
//! `--workload`, only that workload, and the last line of stdout is one
//! JSON object `{correct, attempted, failed, metrics}`; `--trace 0` keeps
//! only the end-to-end pass, `--trace 1` only the traced one; `--seconds`
//! measures for that long instead of a fixed rep count.
//!
//! Every number is *host* time or memory. The simulator is deterministic
//! per `(config, seed)`, so simulated statistics are not metrics: they
//! are folded into a per-workload `sim_fingerprint` that must not move.
//! The model is unvalidated against hardware — the repository holds no
//! reference measurements — and its accuracy is guarded by the tier-1
//! `queueing_theory` and validation-shape tests, not by this benchmark.

mod alloc;
mod catalogue;
mod child;
mod probes;
mod spans;
mod stats;
mod workloads;

use catalogue::{Metric, END_TO_END, PER_LAYER};
use serde_json::{json, Map, Value};
use spans::Recorder;
use stats::Samples;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Ctx, Res, Workload};

/// Fixed rep counts, used when `--seconds` is absent. Reps are interleaved
/// round-robin so that a slow stretch of host time (README, noise study)
/// falls on all four workloads alike.
const E2E_REPS: usize = 21;
const TRACED_REPS: usize = 5;
/// Reps of the `--smoke` pass, and the least a `--seconds` budget runs.
const MIN_REPS: usize = 3;
const SETUP_SAMPLE_SECS: f64 = 0.05;

const USAGE: &str = "usage: uqsim-benchmark [--seed <n>] [--workload <name>] [--trace <0|1>] \
                     [--seconds <n>] [--smoke]";

struct Opts {
    seed: u64,
    workloads: Vec<Workload>,
    /// Print the one-line JSON result (a single `--workload` was named).
    json_line: bool,
    end_to_end: bool,
    traced: bool,
    seconds: Option<f64>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 1,
        workloads: Workload::ALL.to_vec(),
        json_line: false,
        end_to_end: true,
        traced: true,
        seconds: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                opts.seconds = Some(s);
            }
            "--workload" => {
                opts.workloads = vec![Workload::from_name(value).ok_or_else(bad)?];
                opts.json_line = true;
            }
            "--trace" => match value.as_str() {
                "0" => opts.traced = false,
                "1" => opts.end_to_end = false,
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// Everything measured for one workload.
#[derive(Default)]
struct Ledger {
    e2e: Samples,
    layers: Samples,
    /// FNV-1a of the child's stdout; must not move between reps.
    fingerprint: Option<u64>,
    /// Set-up iterations per `setup_s` sample; 0 until first timed.
    setup_batch: usize,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Counts one operation (a child rep or a traced-pass check).
    fn op(&mut self, workload: Workload, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("FAILED {} {what}: {why}", workload.name());
        }
    }
}

struct Harness {
    ctx: Ctx,
    uqsim: PathBuf,
    out_dir: PathBuf,
    child_log: PathBuf,
}

impl Harness {
    /// One untraced `uqsim` child of `workload` on `threads` threads.
    fn child(&self, workload: Workload, threads: usize) -> Res<child::ChildRun> {
        let args = workload.child_args(&self.ctx, threads);
        Ok(child::run(
            &self.uqsim,
            &args,
            &self.ctx.root,
            &self.ctx.tmp,
            &self.child_log,
        )?)
    }

    /// Runs one child rep, checks its output, and returns it with its
    /// request count (0 if the check failed).
    fn checked_child(
        &self,
        workload: Workload,
        ledger: &mut Ledger,
    ) -> Res<(child::ChildRun, u64)> {
        let run = self.child(workload, self.ctx.threads)?;
        let checked = child::check(&run);
        let requests = *checked.as_ref().unwrap_or(&0);
        ledger.op(workload, "child output", checked.map(drop));
        let print = child::fnv1a(&run.stdout);
        let first = *ledger.fingerprint.get_or_insert(print);
        let same = if print == first {
            Ok(())
        } else {
            Err(format!("{print:016x} != first rep's {first:016x}"))
        };
        ledger.op(workload, "sim_fingerprint", same);
        Ok((run, requests))
    }

    /// One `setup_s` sample: the workload's set-up, repeated until the
    /// sample lasts [`SETUP_SAMPLE_SECS`] (`two_tier` set-up is ~70 µs).
    fn setup_sample(&self, workload: Workload, ledger: &mut Ledger) -> Res<()> {
        if ledger.setup_batch == 0 {
            let once = Instant::now();
            workload.setup(&self.ctx)?;
            let batch = (SETUP_SAMPLE_SECS / once.elapsed().as_secs_f64()).ceil();
            ledger.setup_batch = batch.max(1.0) as usize;
        }
        let start = Instant::now();
        for _ in 0..ledger.setup_batch {
            workload.setup(&self.ctx)?;
        }
        let secs = start.elapsed().as_secs_f64() / ledger.setup_batch as f64;
        ledger.e2e.push("setup_s", secs);
        Ok(())
    }

    /// One end-to-end rep: a set-up sample, then an untraced child timed
    /// from outside. Sampling set-up between the children, not in one
    /// burst, spreads its samples over the same stretch of host time.
    fn end_to_end_rep(&self, workload: Workload, ledger: &mut Ledger) -> Res<()> {
        self.setup_sample(workload, ledger)?;
        let (run, requests) = self.checked_child(workload, ledger)?;
        ledger.e2e.push("wall_s", run.wall_s);
        ledger.e2e.push("req_per_s", requests as f64 / run.wall_s);
        ledger.e2e.push("peak_rss_mb", run.peak_rss_mb);
        Ok(())
    }

    /// One traced rep: the scenario-free probes, the pipeline replay with
    /// this workload's layer probes, and an untraced child to reconcile
    /// the replay against (`cli.overhead_s`).
    fn traced_rep(
        &self,
        workload: Workload,
        first: bool,
        rec: &mut Recorder,
        ledger: &mut Ledger,
    ) -> Res<()> {
        rec.set_workload(workload.name());
        probes::run(rec, &mut ledger.layers, self.ctx.seed);
        let replay = workload.traced(&self.ctx, rec, &mut ledger.layers)?;
        let (run, requests) = self.checked_child(workload, ledger)?;
        ledger
            .layers
            .push("cli.overhead_s", run.wall_s - replay.pipeline_s);
        ledger.layers.push("cli.cpu_s", run.cpu_s);

        let replayed: Value = serde_json::from_str(&replay.rendered)?;
        let same_work = if child::request_count(&replayed) != Some(requests) {
            Err(format!(
                "replay counted {:?} requests, child {requests}",
                child::request_count(&replayed)
            ))
        } else if workload == Workload::TwoTierRun {
            let child_doc: Value = serde_json::from_str(&String::from_utf8_lossy(&run.stdout))?;
            let fields = ["generated", "completed", "events_processed"];
            match fields.iter().find(|&&k| replayed[k] != child_doc[k]) {
                Some(k) => Err(format!(
                    "replay {k} {:?}, child {:?}",
                    replayed[*k], child_doc[*k]
                )),
                None => Ok(()),
            }
        } else {
            Ok(())
        };
        ledger.op(workload, "replay matches child", same_work);

        // P7 and the sweep's `--jobs` contract: thread count is a
        // wall-clock knob, never an output one.
        if first && workload.is_threaded() && self.ctx.threads > 1 {
            let serial = self.child(workload, 1)?;
            let same = if serial.success && serial.stdout == run.stdout {
                Ok(())
            } else {
                Err("stdout differs from the 2-thread child's".to_string())
            };
            ledger.op(workload, "1-thread child", same);
        }
        Ok(())
    }
}

/// Round-robins `rep` over `workloads` — rep *i* of every workload before
/// rep *i + 1* of any — until `seconds` have passed (and at least
/// [`MIN_REPS`] reps ran), or for exactly `reps` reps without a budget.
fn interleave(
    workloads: &[Workload],
    seconds: Option<f64>,
    reps: usize,
    mut rep: impl FnMut(Workload, usize) -> Res<()>,
) -> Res<usize> {
    let start = Instant::now();
    let mut done = 0;
    loop {
        for &w in workloads {
            rep(w, done)?;
        }
        done += 1;
        let enough = match seconds {
            Some(s) => done >= MIN_REPS && start.elapsed().as_secs_f64() >= s,
            None => done >= reps,
        };
        if enough {
            return Ok(done);
        }
    }
}

/// Builds the real `uqsim` binary from the root workspace and returns its
/// path. `--locked`: the root `Cargo.lock` is not this package's to touch.
fn build_uqsim(root: &Path) -> Res<PathBuf> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--locked", "--quiet"])
        .args(["-p", "uqsim-cli", "--bin", "uqsim"])
        .current_dir(root)
        .status()?;
    if !status.success() {
        return Err("building uqsim failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let bin = root.join(target).join("release/uqsim");
    if !bin.is_file() {
        return Err(format!("no uqsim binary at {}", bin.display()).into());
    }
    Ok(bin)
}

/// `cmd`'s stdout, or `None` if it cannot run here (the driver's
/// checkout is not a git repository).
fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what a result was taken.
fn provenance(root: &Path) -> Map {
    let git = |args: &[&str]| stdout_of(Command::new("git").args(args).current_dir(root));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut p = Map::new();
    p.insert("git_rev", json!(git(&["rev-parse", "HEAD"])));
    p.insert(
        "git_dirty",
        json!(git(&["status", "--porcelain"]).map(|s| !s.is_empty())),
    );
    p.insert("nproc", json!(nproc));
    p.insert("cpu", json!(cpu));
    p.insert("rustc", json!(stdout_of(Command::new("rustc").arg("-V"))));
    p
}

fn summary_json(metric: &Metric, samples: &[f64]) -> Value {
    let s = stats::summarize(samples);
    json!({
        "unit": metric.unit,
        "better": metric.better,
        "median": s.median,
        "q1": s.q1,
        "q3": s.q3,
        "n": s.n,
        "samples": samples,
    })
}

fn print_table(
    title: &str,
    metrics: &[Metric],
    ledgers: &[(Workload, Ledger)],
    pick: fn(&Ledger) -> &Samples,
) {
    println!("\n== {title} ==");
    println!(
        "{:<16} {:<28} {:<6} {:>14} {:>14} {:>14} {:>4} {:>7}",
        "workload", "metric", "unit", "median", "q1", "q3", "n", "spread"
    );
    for (w, ledger) in ledgers {
        for m in metrics {
            let s = pick(ledger).summary(m.name);
            println!(
                "{:<16} {:<28} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>6.1}%",
                w.name(),
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0
            );
        }
    }
}

/// Median self time of each span name under each root, per workload, and
/// its share of that root. Returns the table for `results.json`.
fn print_self_times(rec: &Recorder) -> Value {
    let spans = rec.spans();
    let selfs = spans::self_times_ns(spans);
    // (workload, root name, span name) → one self-time sum per rep.
    let mut rows: BTreeMap<(&str, &str, &str), Vec<f64>> = BTreeMap::new();
    let mut root_of = vec![0usize; spans.len()];
    let mut rep_sums: BTreeMap<(usize, &str), f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
        *rep_sums.entry((root_of[i], s.name)).or_default() += selfs[i] as f64 * 1e-9;
    }
    for ((root, name), secs) in rep_sums {
        rows.entry((spans[root].workload, spans[root].name, name))
            .or_default()
            .push(secs);
    }
    println!("\n== span self time (traced pass; duration minus covered children) ==");
    println!(
        "{:<16} {:<20} {:<22} {:>12} {:>7} {:>4}",
        "workload", "root", "span", "self_s", "share", "n"
    );
    let mut table = Vec::new();
    for (&(workload, root, name), secs) in &rows {
        let own = stats::summarize(secs).median;
        let total: f64 = rows
            .iter()
            .filter(|(k, _)| (k.0, k.1) == (workload, root))
            .map(|(_, v)| stats::summarize(v).median)
            .sum();
        let share = if total > 0.0 { own / total } else { 0.0 };
        println!(
            "{workload:<16} {root:<20} {name:<22} {own:>12.6} {:>6.1}% {:>4}",
            share * 100.0,
            secs.len()
        );
        table.push(json!({
            "workload": workload, "root": root, "span": name,
            "self_s": own, "share": share, "n": secs.len(),
        }));
    }
    Value::Array(table)
}

/// The children's `TMPDIR`, deleted when the run ends, however it ends.
/// `uqsim run --gen` leaves a 2.2 MB generated scenario directory behind
/// in `TMPDIR` on every invocation.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

type Ledgers = Vec<(Workload, Ledger)>;

fn ledger_of(ledgers: &mut Ledgers, workload: Workload) -> &mut Ledger {
    let found = ledgers.iter_mut().find(|l| l.0 == workload);
    &mut found.expect("every selected workload has a ledger").1
}

/// Prints the tables, writes `results.json` (and `trace.json` after a
/// traced pass) into `benchmark/out/`, and returns whether every
/// operation succeeded.
fn report(
    opts: &Opts,
    harness: &Harness,
    ledgers: &Ledgers,
    rec: &Recorder,
    reps: Map,
    started: Instant,
) -> Res<bool> {
    println!("uqsim perf ledger — host time and memory; model unvalidated against hardware");
    println!("(accuracy is guarded by the tier-1 queueing_theory and validation-shape tests)");
    let mut self_times = Value::Null;
    if opts.end_to_end {
        print_table("end to end (tracing off)", END_TO_END, ledgers, |l| &l.e2e);
    }
    if opts.traced {
        print_table("per layer (traced pass)", PER_LAYER, ledgers, |l| &l.layers);
        self_times = print_self_times(rec);
        std::fs::write(
            harness.out_dir.join("trace.json"),
            serde_json::to_string(&rec.to_json())?,
        )?;
    }
    println!();
    let mut results = Map::new();
    for (w, ledger) in ledgers {
        let fingerprint = format!("{:016x}", ledger.fingerprint.unwrap_or(0));
        println!(
            "{:<16} sim_fingerprint {fingerprint}  ops_attempted {}  ops_failed {}",
            w.name(),
            ledger.attempted,
            ledger.failed
        );
        let mut e2e = Map::new();
        for m in END_TO_END.iter().filter(|_| opts.end_to_end) {
            e2e.insert(m.name, summary_json(m, ledger.e2e.get(m.name)));
        }
        let mut layers = Map::new();
        for m in PER_LAYER.iter().filter(|_| opts.traced) {
            layers.insert(m.name, summary_json(m, ledger.layers.get(m.name)));
        }
        let args = w.child_args(&harness.ctx, harness.ctx.threads);
        results.insert(
            w.name(),
            json!({
                "command": format!("uqsim {}", args.join(" ")),
                "sim_fingerprint": fingerprint,
                "ops_attempted": ledger.attempted,
                "ops_failed": ledger.failed,
                "end_to_end": Value::Object(e2e),
                "per_layer": Value::Object(layers),
            }),
        );
    }

    let mut doc = provenance(&harness.ctx.root);
    doc.insert("seed", json!(opts.seed));
    doc.insert("threads", json!(harness.ctx.threads));
    doc.insert("reps", Value::Object(reps));
    doc.insert("comparable", json!(!opts.smoke));
    doc.insert(
        "load",
        json!("closed: one uqsim child at a time, at most 2 threads; generator lateness 0"),
    );
    doc.insert("harness_wall_s", json!(started.elapsed().as_secs_f64()));
    doc.insert("workloads", Value::Object(results));
    doc.insert("span_self_times", self_times);
    std::fs::write(
        harness.out_dir.join("results.json"),
        serde_json::to_string_pretty(&Value::Object(doc))?,
    )?;

    let failed: u64 = ledgers.iter().map(|l| l.1.failed).sum();
    if opts.json_line {
        let (_, ledger) = &ledgers[0];
        let mut metrics = Map::new();
        let passes = [
            (opts.end_to_end, END_TO_END, &ledger.e2e),
            (opts.traced, PER_LAYER, &ledger.layers),
        ];
        for (_, list, samples) in passes.iter().filter(|p| p.0) {
            for m in list.iter() {
                let value = samples.summary(m.name).median;
                metrics.insert(m.name, json!({ "value": value, "unit": m.unit }));
            }
        }
        let line = json!({
            "correct": failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": Value::Object(metrics),
        });
        println!("{}", serde_json::to_string(&line)?);
    }
    Ok(failed == 0)
}

fn run(opts: &Opts) -> Res<bool> {
    let started = Instant::now();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf();
    let out_dir = root.join("benchmark/out");
    let tmp = TmpDir(out_dir.join("tmp"));
    let _ = std::fs::remove_dir_all(&tmp.0);
    std::fs::create_dir_all(&tmp.0)?;
    let child_log = out_dir.join("child_stderr.log");
    let _ = std::fs::remove_file(&child_log);

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let harness = Harness {
        uqsim: build_uqsim(&root)?,
        ctx: Ctx {
            root,
            tmp: tmp.0.clone(),
            seed: opts.seed,
            threads: nproc.min(2),
            shrink: if opts.smoke { 5.0 } else { 1.0 },
        },
        out_dir,
        child_log,
    };
    let mut ledgers: Ledgers = opts
        .workloads
        .iter()
        .map(|&w| (w, Ledger::default()))
        .collect();
    let seconds = opts.seconds.filter(|_| !opts.smoke);
    let fixed = |full: usize| if opts.smoke { MIN_REPS } else { full };
    let mut reps = Map::new();
    let mut rec = Recorder::new();
    if opts.end_to_end {
        let done = interleave(&opts.workloads, seconds, fixed(E2E_REPS), |w, _| {
            harness.end_to_end_rep(w, ledger_of(&mut ledgers, w))
        })?;
        reps.insert("end_to_end", json!(done));
    }
    if opts.traced {
        let done = interleave(&opts.workloads, seconds, fixed(TRACED_REPS), |w, rep| {
            harness.traced_rep(w, rep == 0, &mut rec, ledger_of(&mut ledgers, w))
        })?;
        reps.insert("traced", json!(done));
    }
    report(opts, &harness, &ledgers, &rec, reps, started)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(child::REAP_FLAG) {
        return match child::reap(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: reaper: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
