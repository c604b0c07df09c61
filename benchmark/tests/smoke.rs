//! Drives every code path of the harness once: `--smoke` runs all four
//! workloads through both passes at 3 reps and a fifth of the simulated
//! duration, building the real `uqsim` binary on the way.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_pass_measures_every_metric_and_fails_nothing() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run = Command::new(env!("CARGO_BIN_EXE_uqsim-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the harness binary runs");
    assert!(
        run.status.success(),
        "smoke pass failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let results = read_json(&bench.join("out/results.json"));
    assert_eq!(results["comparable"].as_bool(), Some(false));
    let contract = read_json(&bench.join("../BENCHMARK.json"));
    let workloads: Vec<&str> = contract["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    for w in &workloads {
        let ledger = &results["workloads"][*w];
        assert_eq!(ledger["ops_failed"].as_u64(), Some(0), "{w}");
        assert!(ledger["ops_attempted"].as_u64() >= Some(6), "{w}");
        for m in contract["end_to_end"].as_array().unwrap() {
            let name = m["name"].as_str().unwrap();
            let row = &ledger["end_to_end"][name];
            assert_eq!(row["n"].as_u64(), Some(3), "{w} {name}");
            assert!(row["median"].as_f64() > Some(0.0), "{w} {name}");
        }
    }
    // A layer may be foreign to a workload, but not to all of them.
    for m in contract["per_layer"].as_array().unwrap() {
        let name = m["name"].as_str().unwrap();
        let measured = workloads
            .iter()
            .any(|w| results["workloads"][*w]["per_layer"][name]["n"].as_u64() > Some(0));
        assert!(measured, "no workload measured {name}");
    }

    let roots: Vec<&str> = results["span_self_times"]
        .as_array()
        .unwrap()
        .iter()
        .map(|row| row["root"].as_str().unwrap())
        .collect();
    for pipeline in ["cli.run", "cli.why", "cli.sweep"] {
        assert!(roots.contains(&pipeline), "no {pipeline} root");
    }

    let trace = read_json(&bench.join("out/trace.json"));
    let spans = trace.as_array().unwrap();
    assert!(spans.iter().any(|s| s["parent"].as_u64().is_some()));
    assert!(spans
        .iter()
        .all(|s| s["end_ns"].as_u64() >= s["start_ns"].as_u64()));
    assert!(
        !bench.join("out/tmp").exists(),
        "the children's TMPDIR is deleted at exit"
    );
}
