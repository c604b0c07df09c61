//! Gates on what every simulating subcommand shares through `RunPlan`:
//! a `--duration` that does not exceed the scenario's `warmup_s` is
//! rejected once, before anything runs, by every subcommand — exit 1 and
//! an error naming the scenario and both values, never a table of zeros —
//! and the flag table turns a flag a subcommand does not take into a usage
//! error (exit 2) that says, on one line before the usage table, what was
//! wrong. So does a numeric flag whose value the engine cannot run: a time
//! span that is not finite, not positive, under a nanosecond or past the
//! simulated clock's range, and a QPS grid with a point outside its range
//! or more points than it may have.

use std::path::Path;
use std::process::{Command, Output};

fn config(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("configs")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn uqsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .args(args)
        .output()
        .expect("uqsim binary runs")
}

/// Asserts `out` is the empty-window rejection for quickstart (warm-up
/// 0.5 s) at `--duration 0.5`.
fn assert_rejected(what: &str, out: &Output) {
    assert_eq!(out.status.code(), Some(1), "{what}: {out:?}");
    assert!(out.stdout.is_empty(), "{what} printed rows: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: invalid scenario: ")
            && stderr.contains("quickstart.json")
            && stderr.contains("--duration 0.5s")
            && stderr.contains("warmup_s 0.5s"),
        "{what}: unhelpful message:\n{stderr}"
    );
}

#[test]
fn run_rejects_an_empty_measurement_window() {
    let cfg = config("quickstart.json");
    assert_rejected("run", &uqsim(&["run", &cfg, "--duration", "0.5"]));
    let sharded = uqsim(&["run", &cfg, "--duration", "0.5", "--shards", "2", "--json"]);
    assert_rejected("run --shards", &sharded);
    // Just past the warm-up is a real (if short) window.
    let ok = uqsim(&["run", &cfg, "--duration", "0.6"]);
    assert!(ok.status.success(), "{ok:?}");
}

#[test]
fn chaos_rejects_an_empty_measurement_window() {
    let (cfg, faults) = (config("quickstart.json"), config("quickstart_faults.json"));
    let out = uqsim(&["chaos", &cfg, "--faults", &faults, "--duration", "0.5"]);
    assert_rejected("chaos", &out);
}

#[test]
fn why_rejects_an_empty_measurement_window() {
    let cfg = config("quickstart.json");
    let out = uqsim(&["why", "--config", &cfg, "--duration", "0.5"]);
    assert_rejected("why", &out);
}

#[test]
fn trace_rejects_an_empty_measurement_window() {
    let cfg = config("quickstart.json");
    let chrome = uqsim(&["trace", "--config", &cfg, "--duration", "0.5"]);
    assert_rejected("trace --config", &chrome);
    assert_rejected("trace", &uqsim(&["trace", &cfg, "--duration", "0.5"]));
}

#[test]
fn sweep_rejects_an_empty_measurement_window() {
    let cfg = config("quickstart.json");
    let out = uqsim(&[
        "sweep",
        "--config",
        &cfg,
        "--qps",
        "1000,2000",
        "--duration",
        "0.5",
    ]);
    assert_rejected("sweep", &out);
}

#[test]
fn top_rejects_an_empty_measurement_window() {
    let cfg = config("quickstart.json");
    let out = uqsim(&["top", "--config", &cfg, "--duration", "0.5", "--no-ansi"]);
    assert_rejected("top", &out);
}

#[test]
fn flags_a_subcommand_does_not_take_are_usage_errors() {
    let cfg = config("quickstart.json");
    let gen = config("gen_dsb.json");
    for (args, reason) in [
        // `--seed` belongs to run/chaos/why/sweep/top, not to trace.
        (
            vec!["trace", "--config", &cfg, "--seed", "3"],
            "`uqsim trace` does not take --seed",
        ),
        // `--metrics-out` is run's alone.
        (
            vec!["why", "--config", &cfg, "--metrics-out", "/tmp/x"],
            "`uqsim why` does not take --metrics-out",
        ),
        // `run` takes its scenario as a bare word.
        (
            vec!["run", "--config", &cfg],
            "`uqsim run` does not take --config",
        ),
        // The serial `sweep <path> --loads` form is gone.
        (
            vec!["sweep", &cfg, "--loads", "1000,2000"],
            "`uqsim sweep`: unexpected argument",
        ),
        (
            vec!["run", &cfg, "--shards", "0"],
            "--shards must be at least 1",
        ),
        (vec!["run", &cfg, "--duration"], "--duration needs a value"),
        (
            vec!["run", &cfg, "--duration", "soon"],
            "--duration: cannot parse `soon`",
        ),
        (
            vec!["run", &cfg, "--sample-interval", "0"],
            "--sample-interval must be positive",
        ),
        (vec!["frobnicate"], "unknown subcommand `frobnicate`"),
        // A required flag is named, not left for the reader to spot in the
        // usage table.
        (
            vec!["chaos", "--gen", &gen],
            "--faults <faults.json> is required",
        ),
        (vec!["sweep", "--config", &cfg], "--qps"),
        (vec!["gen"], "--spec <gen.json> is required"),
        // No scenario, or two of them.
        (vec!["run"], "name exactly one scenario"),
        (
            vec!["run", &cfg, "--gen", &gen],
            "name exactly one scenario",
        ),
        (
            vec!["why", "--config", &cfg, "--gen", &gen],
            "name exactly one scenario",
        ),
        (vec!["validate"], "validate needs a scenario path"),
        (vec!["split", &cfg], "split needs <scenario.json> <dir>"),
    ] {
        let out = uqsim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (first, rest) = stderr.split_once('\n').expect("reason, then usage");
        assert!(
            first.starts_with("error: ") && first.contains(reason),
            "{args:?}: expected {reason:?} in {first:?}"
        );
        assert!(rest.starts_with("usage:"), "{args:?}:\n{stderr}");
    }
    // No subcommand at all: there is nothing to say but the usage table.
    let out = uqsim(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
    // A well-formed flag with an unusable value says which, still exit 2.
    let out = uqsim(&["sweep", "--config", &cfg, "--qps", "3000:1000:500"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --qps"));
}

/// Every numeric value that used to panic (exit 101), abort (134), or run
/// before failing: exit 2, nothing on stdout, and a first stderr line that
/// names the flag.
#[test]
fn numeric_flags_the_engine_cannot_run_are_usage_errors_naming_the_flag() {
    let cfg = config("quickstart.json");
    let out_dir = std::env::temp_dir().join("uqsim-run-plan-metrics");
    let out_dir = out_dir.to_string_lossy();
    let run = |flag: &'static str, value: &'static str| vec!["run", &cfg, flag, value];
    let metrics = |value: &'static str| {
        let head = ["run", &cfg, "--metrics-out", &out_dir];
        [&head[..], &["--sample-interval", value]].concat()
    };
    let sweep = |qps: &'static str| vec!["sweep", "--config", &cfg, "--qps", qps];
    let duration = "--duration must be positive, at least 1e-9 s and at most 18446744073 s";
    let interval = "--sample-interval must be positive, at least 1e-9 s";
    for (args, reason) in [
        (run("--duration", "inf"), duration),
        (run("--duration", "1e300"), duration),
        (run("--duration", "18446744073.8"), duration),
        (run("--duration", "nan"), duration),
        (run("--duration", "-1"), duration),
        (run("--duration", "1e-12"), duration),
        (metrics("1e-12"), interval),
        (metrics("inf"), interval),
        (
            vec!["top", "--config", &cfg, "--interval", "inf", "--no-ansi"],
            "--interval must be positive",
        ),
        (sweep("100:inf:100"), "invalid --qps `100:inf:100`"),
        (sweep("1:1e12:1"), "invalid --qps `1:1e12:1`"),
        (
            sweep("1:100000:1"),
            "invalid --qps `1:100000:1`: 100000 points, more than 10000",
        ),
        (sweep("nan"), "invalid --qps `nan`: loads must be between"),
        (sweep("1000,inf"), "invalid --qps `1000,inf`"),
        (
            [&sweep("1000")[..], &["--reps", "100000000000"]].concat(),
            "--reps must be at most 10000",
        ),
    ] {
        let out = uqsim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(reason),
            "{args:?}: expected {reason:?} in {first:?}"
        );
    }
    // The edges that are runnable still run.
    let sampled = uqsim(&metrics("0.05"));
    assert!(sampled.status.success(), "{sampled:?}");
    let one_point = uqsim(&[
        "sweep",
        "--config",
        &cfg,
        "--qps",
        "1000",
        "--reps",
        "1",
        "--duration",
        "0.6",
    ]);
    assert!(one_point.status.success(), "{one_point:?}");
}
