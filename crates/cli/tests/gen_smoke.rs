//! End-to-end gates for the workload-synthesis surface (`uqsim gen`):
//! the bundled DeathStarBench-class spec must hit the headline scale
//! (≥300 services, ≥1000 instances), regenerate byte-identically per
//! (spec, seed), run TraceAuditor-clean, produce byte-identical output
//! with no `--shards`, at `--shards 1` and at `--shards 4`, survive the
//! Table I directory round trip unchanged, and leave nothing behind in the
//! temp dir.

use std::path::Path;
use std::process::{Command, Output};
use uqsim_core::partition::{run_partitioned, PartitionOptions, SpanTracing};
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::time::SimDuration;
use uqsim_synth::{summarize, GenSpec};

fn spec_path() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("configs")
        .join("gen_dsb.json")
        .to_string_lossy()
        .into_owned()
}

fn gen(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .args(["gen", "--spec", &spec_path()])
        .args(extra)
        .output()
        .expect("uqsim binary runs")
}

/// `uqsim gen --json` is byte-identical across invocations at one seed
/// and diverges across seeds.
#[test]
fn gen_json_is_deterministic_per_seed() {
    let a = gen(&["--seed", "5", "--json"]);
    let b = gen(&["--seed", "5", "--json"]);
    assert!(a.status.success(), "gen failed: {a:?}");
    assert_eq!(
        a.stdout, b.stdout,
        "same (spec, seed) must be byte-identical"
    );
    let c = gen(&["--seed", "6", "--json"]);
    assert_ne!(a.stdout, c.stdout, "different seeds must differ");
}

/// The bundled spec reaches the paper-scale cluster the subsystem exists
/// for: ≥300 services and ≥1000 instances, split into one cell per
/// replica.
#[test]
fn bundled_spec_hits_headline_scale() {
    let spec = GenSpec::from_file(Path::new(&spec_path())).unwrap();
    let cfg = spec.generate(spec.seed).unwrap();
    let s = summarize(&cfg);
    assert!(s.services >= 300, "only {} services", s.services);
    assert!(s.instances >= 1000, "only {} instances", s.instances);
    let cells = uqsim_core::partition::split_cells(&cfg).unwrap();
    assert_eq!(cells.len(), spec.replicas, "one cell per replica");
}

/// The generated cluster runs end-to-end: the merged trace audit is
/// clean, and every output is byte-identical at shards 0 (the field's
/// "flag absent" value), 1 and 4.
#[test]
fn generated_cluster_runs_audit_clean_and_shard_invariant() {
    let spec = GenSpec::from_file(Path::new(&spec_path())).unwrap();
    let cfg = spec.generate(11).unwrap();
    let opts = |shards: usize| PartitionOptions {
        shards,
        telemetry: Some(TelemetryConfig::default()),
        span_tracing: SpanTracing::Retain(1 << 16),
    };
    let d = SimDuration::from_millis(350);
    let one = run_partitioned(&cfg, None, 11, d, &opts(1)).unwrap();
    assert!(one.result.completed > 0, "requests must complete");
    let one_prom = one.prometheus();
    for shards in [0, 4] {
        let other = run_partitioned(&cfg, None, 11, d, &opts(shards)).unwrap();
        assert_eq!(one.result, other.result, "results at shards 1 vs {shards}");
        assert_eq!(
            one_prom,
            other.prometheus(),
            "prometheus at shards 1 vs {shards}"
        );
    }
    let audit = one.audit().expect("span tracing on");
    assert!(
        audit.violations.is_empty(),
        "audit must be clean: {:?}",
        audit.violations
    );
    assert!(audit.events_checked > 0);
}

/// `--gen` runs the generated scenario straight from memory; `gen --out`
/// then a load by path must be the same scenario, or the two entry points
/// would simulate different clusters for one `(spec, seed)`.
#[test]
fn generated_scenario_survives_the_table_i_round_trip() {
    let spec = GenSpec::from_file(Path::new(&spec_path())).unwrap();
    let dir = std::env::temp_dir().join(format!("uqsim-gen-roundtrip-{}", std::process::id()));
    for seed in [1, 2, 3, 11, 12345] {
        let cfg = spec.generate(seed).unwrap();
        cfg.write_dir(&dir).expect("write Table I layout");
        let loaded = uqsim_core::config::ScenarioConfig::from_dir(&dir).expect("read it back");
        assert_eq!(loaded, cfg, "seed {seed}");
    }
    std::fs::remove_dir_all(&dir).expect("remove the layout");
}

/// `uqsim run --gen` prints the same bytes with no flag and at `--shards
/// 2`, and writes nothing to the temp dir: the child's `TMPDIR` is empty
/// afterwards.
#[test]
fn run_gen_is_shard_invariant_and_leaves_tmpdir_empty() {
    let tmp = std::env::temp_dir().join(format!("uqsim-gen-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("tmpdir");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_uqsim"))
            .env("TMPDIR", &tmp)
            .args(["run", "--gen", &spec_path(), "--seed", "3"])
            .args(["--duration", "0.3", "--json"])
            .args(extra)
            .output()
            .expect("uqsim binary runs");
        assert!(out.status.success(), "run --gen {extra:?} failed: {out:?}");
        let left: Vec<_> = std::fs::read_dir(&tmp).expect("tmpdir").collect();
        assert!(left.is_empty(), "run --gen {extra:?} left {left:?}");
        out.stdout
    };
    let sharded = run(&["--shards", "2"]);
    assert!(!sharded.is_empty());
    assert_eq!(
        run(&[]),
        sharded,
        "stdout differs with and without --shards"
    );
    std::fs::remove_dir_all(&tmp).expect("remove tmpdir");
}

/// A fault plan over entities of the bundled spec's generated cluster:
/// a crash and a retry policy in replica 0, a slowdown in replica 3.
const GEN_FAULTS: &str = r#"{
  "faults": [
    { "kind": "instance_crash", "instance": "r0-l1-s0-i0", "at_s": 0.25, "restart_after_s": 0.1 },
    { "kind": "machine_slowdown", "machine": "r3-m0", "at_s": 0.3, "duration_s": 0.1, "factor": 4.0 }
  ],
  "policy": {
    "clients": [ { "client": "r0-c0", "max_retries": 2, "backoff_base_s": 0.005,
                   "backoff_cap_s": 0.05, "jitter": 0.5 } ]
  }
}"#;

/// `run`, `why` and `chaos --gen` take the cluster a replica at a time,
/// each generated by the worker that pulls it, and still print the same
/// bytes — stdout and stderr — at `--shards 1, 2, 4`.
#[test]
fn streamed_gen_runs_are_byte_identical_at_any_shard_count() {
    let dir = std::env::temp_dir().join(format!("uqsim-gen-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let faults = dir.join("faults.json");
    std::fs::write(&faults, GEN_FAULTS).expect("write the plan");
    let faults = faults.to_str().unwrap();
    let spec = spec_path();
    for cmd in [
        vec!["run", "--gen", &spec, "--json"],
        vec!["why", "--gen", &spec, "--json"],
        vec!["chaos", "--gen", &spec, "--faults", faults],
    ] {
        let run = |shards: &str| {
            let out = Command::new(env!("CARGO_BIN_EXE_uqsim"))
                .args(&cmd)
                .args(["--seed", "5", "--duration", "0.4", "--shards", shards])
                .output()
                .expect("uqsim binary runs");
            assert!(out.status.success(), "{cmd:?} --shards {shards}: {out:?}");
            let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
            // The shard count itself is the one line allowed to differ.
            let stderr = stderr.replace(&format!("on {shards} shard(s)"), "on K shard(s)");
            (out.stdout, stderr)
        };
        let one = run("1");
        assert!(
            one.1
                .starts_with("generated dsb_cluster seed 5: 344 services, 1122 instances"),
            "{cmd:?}: {}",
            one.1
        );
        for shards in ["2", "4"] {
            assert!(
                run(shards) == one,
                "{cmd:?}: --shards {shards} differs from 1"
            );
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove tmpdir");
}

/// `sweep --gen` hands each run the replicas one at a time, each
/// re-scaled to its point, and prints what `sweep --config` prints for
/// the cluster `gen --json` writes — CSV and `--json`, at `--jobs 1, 2` ×
/// `--shards 1, 2`.
#[test]
fn sweep_gen_is_sweep_config_of_the_generated_cluster() {
    let dir = std::env::temp_dir().join(format!("uqsim-gen-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let generated = gen(&["--seed", "5", "--json"]);
    assert!(generated.status.success(), "gen failed: {generated:?}");
    let cfg = dir.join("cluster.json");
    std::fs::write(&cfg, &generated.stdout).expect("write the cluster");
    let spec = spec_path();
    let sweep = |scenario: [&str; 2], extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_uqsim"))
            .arg("sweep")
            .args(scenario)
            .args([
                "--seed",
                "5",
                "--qps",
                "150,300",
                "--reps",
                "2",
                "--duration",
                "0.4",
            ])
            .args(extra)
            .output()
            .expect("uqsim binary runs");
        assert!(
            out.status.success(),
            "sweep {scenario:?} {extra:?}: {out:?}"
        );
        out.stdout
    };
    for format in [&[][..], &["--json"]] {
        let config = sweep(["--config", cfg.to_str().unwrap()], format);
        assert!(!config.is_empty());
        for (jobs, shards) in [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")] {
            let flags = [format, &["--jobs", jobs, "--shards", shards]].concat();
            assert!(
                sweep(["--gen", &spec], &flags) == config,
                "sweep --gen {flags:?} differs from sweep --config"
            );
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove tmpdir");
}
