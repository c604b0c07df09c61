//! End-to-end smoke and determinism gates for the fault-injection surface:
//! `uqsim chaos` must report real fault activity and a clean trace audit,
//! its JSON report must be byte-reproducible, and a faulted sweep must stay
//! byte-identical at any `--jobs` value.
//!
//! These tests drive the real binary (via `CARGO_BIN_EXE_uqsim`), so they
//! pin the report framing as well as the numbers.

use std::path::Path;
use std::process::{Command, Output};

fn config(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("configs")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Runs `uqsim chaos quickstart.json --faults quickstart_faults.json ...`.
fn chaos(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .args([
            "chaos",
            &config("quickstart.json"),
            "--faults",
            &config("quickstart_faults.json"),
            "--duration",
            "4",
        ])
        .args(extra)
        .output()
        .expect("uqsim binary runs")
}

#[test]
fn chaos_reports_fault_activity_and_audits_clean() {
    let out = chaos(&["--json"]);
    assert!(out.status.success(), "chaos run failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("report is UTF-8");
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");

    // The bundled plan must actually bite: sheds from the breaker, retries
    // from the client policy, kills from the crash window.
    assert!(v["outcomes"]["shed"].as_u64().unwrap() > 0, "no sheds");
    assert!(
        v["resilience"]["retried"].as_u64().unwrap() > 0,
        "no retries"
    );
    assert!(
        v["resilience"]["jobs_killed"].as_u64().unwrap() > 0,
        "no jobs killed"
    );
    assert!(
        !v["timeline"].as_array().unwrap().is_empty(),
        "no fault windows fired"
    );
    // What is neither completed, dropped nor shed is in flight, and the
    // report says how many: a backlog cannot pass for a clean recovery.
    let count = |v: &serde_json::Value| v.as_u64().expect("a count");
    let outcomes = &v["outcomes"];
    assert_eq!(
        count(&v["generated"]),
        count(&v["completed"])
            + count(&outcomes["dropped"])
            + count(&outcomes["shed"])
            + count(&outcomes["in_flight"])
    );
    // Goodput can only lose requests relative to raw throughput.
    assert!(
        v["goodput_qps"].as_f64().unwrap() <= v["throughput_qps"].as_f64().unwrap() + 1e-9,
        "goodput exceeds throughput"
    );
    // Every request reached exactly one terminal state.
    assert_eq!(
        v["audit"]["clean"],
        serde_json::Value::Bool(true),
        "audit violations: {}",
        v["audit"]["violations"]
    );
}

#[test]
fn chaos_text_report_mentions_audit_verdict() {
    let out = chaos(&[]);
    assert!(out.status.success(), "chaos run failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("report is UTF-8");
    assert!(
        text.contains("timeline:") && text.contains("  in flight "),
        "report framing drifted:\n{text}"
    );
    assert!(text.contains("audit: clean"), "audit not clean:\n{text}");
}

#[test]
fn chaos_json_is_byte_deterministic() {
    let a = chaos(&["--json"]);
    let b = chaos(&["--json"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "identical chaos invocations produced different bytes"
    );
}

/// Runs `uqsim sweep --faults ... --jobs <jobs>`. The 1.6 s duration
/// reaches past the plan's 1.0 s crash window so fault counters are live.
fn faulted_sweep(jobs: usize) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .args([
            "sweep",
            "--config",
            &config("quickstart.json"),
            "--faults",
            &config("quickstart_faults.json"),
            "--qps",
            "1000:2000:1000",
            "--reps",
            "2",
            "--duration",
            "1.6",
            "--jobs",
            &jobs.to_string(),
        ])
        .output()
        .expect("uqsim binary runs")
}

#[test]
fn faulted_sweep_is_byte_identical_across_jobs() {
    let serial = faulted_sweep(1);
    assert!(serial.status.success(), "serial sweep failed: {serial:?}");
    let parallel = faulted_sweep(4);
    assert!(
        parallel.status.success(),
        "parallel sweep failed: {parallel:?}"
    );
    assert_eq!(
        serial.stdout, parallel.stdout,
        "faulted sweep bytes drifted between --jobs 1 and --jobs 4"
    );

    let text = String::from_utf8(serial.stdout).expect("CSV is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].ends_with(
            "goodput_qps,goodput_qps_ci95,dropped,shed,retried,degraded,\
             critpath_top,critpath_top_share"
        ),
        "fault/attribution columns missing from header: {}",
        lines[0]
    );
    // The crash window inside the measurement interval must register in at
    // least one row's fault counters (the four columns before the two
    // attribution columns).
    let activity: u64 = lines[1..]
        .iter()
        .map(|row| {
            let cells: Vec<&str> = row.split(',').collect();
            cells[cells.len() - 6..cells.len() - 2]
                .iter()
                .map(|c| c.parse::<u64>().expect("fault counters are integers"))
                .sum::<u64>()
        })
        .sum();
    assert!(activity > 0, "no fault activity in any sweep row:\n{text}");
    // Every row names a top tail contributor with a sane share.
    for row in &lines[1..] {
        let cells: Vec<&str> = row.split(',').collect();
        let top = cells[cells.len() - 2];
        let share: f64 = cells[cells.len() - 1].parse().expect("share is numeric");
        assert!(!top.is_empty(), "row without a critpath_top: {row}");
        assert!((0.0..=1.0).contains(&share), "share out of range: {row}");
    }
}
