//! End-to-end determinism gate for `--shards` (spec invariant **P7**,
//! DESIGN.md §11): on a 110-machine cluster, every byte the binary emits —
//! run summary, metrics files, Chrome trace, chaos report — must be
//! identical with no `--shards`, at `--shards 1`, and at `--shards 4`. The
//! shard count is a wall-clock knob, never a results knob.
//!
//! These tests drive the real binary (via `CARGO_BIN_EXE_uqsim`) against a
//! generated [`uqsim_apps::scenarios::pod_cluster`] scenario, so they pin
//! the output framing (results on stdout, partition diagnostics on stderr)
//! as well as the merged bytes.
//!
//! Comparing the shard arms with each other cannot see a merge that is
//! wrong in every arm alike (a pid base or a `c<i>:` id prefix shifted for
//! all of them), so the merged Chrome trace is also pinned against what
//! the commit before the streaming exporter wrote: the whole 110-machine
//! trace by length and FNV-1a hash, and the first events of a three-pod
//! cluster as a readable golden file. To regenerate the latter, run
//!
//! ```text
//! uqsim trace --config <three-pod cluster.json> --duration 0.3 --events 24 \
//!     --out crates/cli/tests/golden/pod_cluster_trace.json
//! ```
//!
//! on the `cluster.json` that `merged_trace_matches_golden` leaves under
//! the temp dir (the command exits 1: a 24-event log is truncated on
//! purpose).

use std::path::PathBuf;
use std::process::{Command, Output};

/// 55 pods × 2 machines = 110 machines, 55 independent cells.
const PODS: usize = 55;

/// Writes the generated pod-cluster scenario under a unique directory in
/// the target tmpdir and returns its path.
fn cluster_config(tag: &str) -> PathBuf {
    pods_config(tag, PODS)
}

fn pods_config(tag: &str, pods: usize) -> PathBuf {
    let cfg = uqsim_apps::scenarios::pod_cluster(pods, 600.0).expect("pod cluster builds");
    let dir = std::env::temp_dir().join(format!("uqsim-partition-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("cluster.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&cfg).expect("scenario serializes"),
    )
    .expect("write scenario");
    path
}

/// A fault plan that bites several distinct pods, plus a client retry
/// policy, exercising the per-cell plan split end to end.
fn faults_file(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("faults.json");
    std::fs::write(
        &path,
        r#"{
  "faults": [
    { "kind": "instance_crash", "instance": "p3-front",
      "at_s": 0.15, "restart_after_s": 0.1 },
    { "kind": "machine_slowdown", "machine": "p5-be",
      "at_s": 0.2, "duration_s": 0.15, "factor": 4.0 }
  ],
  "policy": {
    "clients": [
      { "client": "wrk1", "max_retries": 2,
        "backoff_base_s": 0.002, "backoff_cap_s": 0.05, "jitter": 0.5 }
    ]
  }
}"#,
    )
    .expect("write faults");
    path
}

fn uqsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .args(args)
        .output()
        .expect("uqsim binary runs")
}

/// The three ways to say how many shards: not at all, one, four.
const SHARD_ARMS: [&[&str]; 3] = [&[], &["--shards", "1"], &["--shards", "4"]];

#[test]
fn run_and_metrics_are_byte_identical_across_shards() {
    let cfg = cluster_config("run");
    let dir = cfg.parent().unwrap();
    let mut outs = Vec::new();
    for (i, shards) in SHARD_ARMS.iter().enumerate() {
        let metrics = dir.join(format!("metrics-{i}"));
        let mut args = vec!["run", cfg.to_str().unwrap(), "--duration", "0.4"];
        args.extend(["--metrics-out", metrics.to_str().unwrap()]);
        args.extend(*shards);
        let out = uqsim(&args);
        assert!(out.status.success(), "run {shards:?} failed: {out:?}");
        outs.push((out.stdout, metrics));
    }
    let (base_stdout, base_dir) = &outs[0];
    assert!(!base_stdout.is_empty());
    for (other_stdout, other_dir) in &outs[1..] {
        assert_eq!(base_stdout, other_stdout, "stdout drifted across shards");
        for file in ["metrics.prom", "metrics.csv", "metrics.json"] {
            let a = std::fs::read(base_dir.join(file)).expect(file);
            let b = std::fs::read(other_dir.join(file)).expect(file);
            assert_eq!(a, b, "{file} drifted across shards");
            assert!(!a.is_empty(), "{file} is empty");
        }
    }
}

#[test]
fn chrome_trace_is_byte_identical_across_shards() {
    let cfg = cluster_config("trace");
    let dir = cfg.parent().unwrap();
    let mut traces = Vec::new();
    for (i, shards) in SHARD_ARMS.iter().enumerate() {
        let out_file = dir.join(format!("trace-{i}.json"));
        let mut args = vec!["trace", "--config", cfg.to_str().unwrap()];
        args.extend(["--duration", "0.3", "--events", "2000000"]);
        args.extend(["--out", out_file.to_str().unwrap()]);
        args.extend(*shards);
        let out = uqsim(&args);
        assert!(
            out.status.success(),
            "trace {shards:?} failed (audit must be clean): {out:?}"
        );
        traces.push(std::fs::read(&out_file).expect("trace file"));
    }
    assert_eq!(traces[0], traces[1], "Chrome trace drifted across shards");
    assert_eq!(traces[0], traces[2], "Chrome trace drifted across shards");
    // ... and all three are the pinned bytes (see `PARENT_TRACE_FNV1A`).
    assert_eq!(
        (traces[0].len(), fnv1a(&traces[0])),
        (20_355_001, PARENT_TRACE_FNV1A),
        "the merged Chrome trace changed"
    );
    // The merged trace really covers the whole cluster: every pod's pid
    // block appears.
    let text = String::from_utf8(traces[0].clone()).expect("trace is UTF-8");
    for pod in [0, PODS / 2, PODS - 1] {
        assert!(
            text.contains(&format!("p{pod}-fe")),
            "pod {pod} missing from merged trace"
        );
    }
}

/// FNV-1a (64-bit) of the 55-pod merged trace, recorded at commit 921f759
/// and re-recorded when the exponential and normal samplers became
/// ziggurats (the trajectory moved; the exporter did not).
const PARENT_TRACE_FNV1A: u64 = 0x80a8_1f5b_1af5_25b2;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Three cells, two shards, the first 24 events of each: metadata for every
/// process, pids shifted by `machines + 1` per cell, span ids behind their
/// `c<i>:` prefix — against the file the parent commit wrote.
#[test]
fn merged_trace_matches_golden() {
    let cfg = pods_config("golden", 3);
    let out_file = cfg.with_file_name("trace.json");
    let mut args = vec!["trace", "--config", cfg.to_str().unwrap()];
    args.extend(["--duration", "0.3", "--events", "24", "--shards", "2"]);
    args.extend(["--out", out_file.to_str().unwrap()]);
    let out = uqsim(&args);
    // Exit 1: the log is cut short on purpose, and the command says so.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let produced = std::fs::read_to_string(&out_file).expect("trace file");
    let golden = include_str!("golden/pod_cluster_trace.json");
    assert_eq!(
        produced.trim(),
        golden.trim(),
        "merged Chrome trace drifted from the golden snapshot; if the change is \
         intentional, regenerate it (see the module docs)"
    );
    for needle in ["\"pid\": 8", "\"id\": \"c2:"] {
        assert!(golden.contains(needle), "golden lacks {needle}");
    }
}

#[test]
fn chaos_report_is_byte_identical_across_shards() {
    let cfg = cluster_config("chaos");
    let dir = cfg.parent().unwrap();
    let faults = faults_file(dir);
    let mut reports = Vec::new();
    for shards in SHARD_ARMS {
        let mut args = vec!["chaos", cfg.to_str().unwrap()];
        args.extend(["--faults", faults.to_str().unwrap()]);
        args.extend(["--duration", "0.5", "--events", "4000000", "--json"]);
        args.extend(shards);
        let out = uqsim(&args);
        assert!(
            out.status.success(),
            "chaos {shards:?} failed (audit must be clean): {out:?}"
        );
        // The cell count is a partition diagnostic: stderr only.
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(
            stderr.contains(&format!("partition: {PODS} cell(s)")),
            "no partition line for {shards:?}:\n{stderr}"
        );
        reports.push(out.stdout);
    }
    assert_eq!(reports[0], reports[1], "chaos report drifted across shards");
    assert_eq!(reports[0], reports[2], "chaos report drifted across shards");
    let text = String::from_utf8(reports[0].clone()).expect("report is UTF-8");
    let v: serde_json::Value = serde_json::from_str(&text).expect("chaos report is valid JSON");
    // The plan actually bit: the crash window fired and the audit is clean.
    assert!(!v["timeline"].as_array().unwrap().is_empty());
    assert_eq!(v["audit"]["clean"].as_bool(), Some(true));
    assert!(v.get("cells").is_none(), "stdout carries no cell count");
}
