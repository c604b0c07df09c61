//! Golden-file tests for the metrics exports.
//!
//! The snapshots pin the exact text `metrics_prometheus()` produces for
//! the quickstart scenario at a fixed seed and duration, and the merged
//! `metrics.prom` and `metrics.json` of a three-cell faulted run. The export is
//! built entirely from simulated state (no wall-clock channels), so the
//! bytes must be stable across machines and runs; any drift means either
//! the exporter's format or the simulation itself changed. Regenerate
//! after an intentional change with:
//!
//! ```text
//! UQSIM_BLESS=1 cargo test -p uqsim-cli --test metrics_golden
//! ```

use uqsim_core::config::ScenarioConfig;
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::time::SimDuration;

const QUICKSTART: &str = include_str!("../configs/quickstart.json");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/quickstart_metrics.prom"
);

fn quickstart_prometheus() -> String {
    let cfg = ScenarioConfig::from_json(QUICKSTART).expect("bundled config parses");
    let mut sim = cfg.build().expect("bundled config builds");
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(SimDuration::from_millis(10)),
        ..TelemetryConfig::default()
    });
    // Past the 0.5 s quickstart warmup, so the since-warmup utilization
    // gauges cover a non-empty measured window.
    sim.run_for(SimDuration::from_millis(1500));
    sim.metrics_prometheus()
}

#[test]
fn quickstart_prometheus_matches_golden() {
    let produced = quickstart_prometheus();
    if std::env::var_os("UQSIM_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &produced).expect("write golden");
        return;
    }
    let golden = include_str!("golden/quickstart_metrics.prom");
    assert_eq!(
        produced, golden,
        "Prometheus export drifted from the golden snapshot; if the \
         change is intentional, regenerate with UQSIM_BLESS=1 (see the \
         module docs)"
    );
}

/// The export is deterministic: two identical runs produce identical
/// bytes (the property the golden test depends on).
#[test]
fn prometheus_export_is_deterministic() {
    assert_eq!(quickstart_prometheus(), quickstart_prometheus());
}

const CSV_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/quickstart_metrics.csv"
);

fn quickstart_csv() -> String {
    let cfg = ScenarioConfig::from_json(QUICKSTART).expect("bundled config parses");
    let mut sim = cfg.build().expect("bundled config builds");
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(SimDuration::from_millis(10)),
        ..TelemetryConfig::default()
    });
    sim.run_for(SimDuration::from_millis(1500));
    sim.metrics_csv().expect("sampler is enabled")
}

/// Pins the `metrics_csv` row/label ordering contract (see the
/// `Simulator::metrics_csv` docs): per tick, the five unlabeled
/// `windowed_*` rows in fixed order, then every gauge series in
/// configuration order. Regenerate with `UQSIM_BLESS=1`.
#[test]
fn quickstart_metrics_csv_matches_golden() {
    let produced = quickstart_csv();
    if std::env::var_os("UQSIM_BLESS").is_some() {
        std::fs::write(CSV_GOLDEN_PATH, &produced).expect("write golden");
        return;
    }
    let golden = include_str!("golden/quickstart_metrics.csv");
    assert_eq!(
        produced, golden,
        "metrics CSV drifted from the golden snapshot; if the change is \
         intentional, regenerate with UQSIM_BLESS=1 (see the module docs)"
    );
}

/// The merge of a single-cell run must be the byte-identity — here, the
/// golden CSV itself: the run pipeline on the quickstart scenario (one
/// cell, under the scenario's own seed) is the bare simulator above.
#[test]
fn single_cell_partitioned_csv_is_passthrough() {
    let cfg = ScenarioConfig::from_json(QUICKSTART).expect("bundled config parses");
    let mut opts = uqsim_core::PartitionOptions::with_shards(1);
    opts.telemetry = Some(TelemetryConfig {
        sample_interval: Some(SimDuration::from_millis(10)),
        ..TelemetryConfig::default()
    });
    let run =
        uqsim_core::run_partitioned(&cfg, None, cfg.seed, SimDuration::from_millis(1500), &opts)
            .expect("run succeeds");
    assert_eq!(
        run.cells.len(),
        1,
        "quickstart is a single request-closed cell"
    );
    assert_eq!(
        run.csv().expect("sampler on"),
        include_str!("golden/quickstart_metrics.csv"),
        "single-cell merge_csv is not a pass-through"
    );
    assert_eq!(
        run.prometheus().expect("telemetry on"),
        include_str!("golden/quickstart_metrics.prom"),
        "single-cell merge_registries is not a pass-through"
    );
}

/// A three-cell faulted run, exported through `uqsim run --metrics-out`:
/// cell 0 has no connection pool and cell 1 has one, so a merge that
/// ordered families by where it first met them would move the pool
/// families; the fault plan adds the fault families, summed across cells.
/// Pins the merged `metrics.prom` and `metrics.json` byte for byte.
/// Regenerate with `UQSIM_BLESS=1`.
#[test]
fn multi_cell_faulted_metrics_match_golden() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pods_metrics");
    let _ = std::fs::remove_dir_all(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["run", "tests/golden/pods.json"])
        .args(["--faults", "tests/golden/pods_faults.json"])
        .args(["--duration", "0.4", "--shards", "2"])
        .args(["--sample-interval", "0.05"])
        .arg("--metrics-out")
        .arg(&dir)
        .output()
        .expect("uqsim binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run failed: {stderr}");
    assert!(stderr.contains("partition: 3 cell(s)"), "{stderr}");
    for file in ["metrics.prom", "metrics.json"] {
        let golden = format!("{}/tests/golden/pods_{file}", env!("CARGO_MANIFEST_DIR"));
        let produced = std::fs::read_to_string(dir.join(file)).expect("metrics file written");
        if std::env::var_os("UQSIM_BLESS").is_some() {
            std::fs::write(&golden, &produced).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&golden).expect("golden exists");
        assert!(
            produced == expected,
            "merged {file} drifted from tests/golden/pods_{file}; if the change \
             is intentional, regenerate with UQSIM_BLESS=1 (see the module docs)"
        );
    }
}
