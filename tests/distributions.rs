//! The distribution-equivalence gate: a change may move every trajectory,
//! but not the distribution of what the model measures.
//!
//! Each row is one scenario — a bundled configuration, a bundled fault plan
//! on its configuration, four replicas of the bundled `gen_dsb` spec, or a
//! Fig. 5 / Fig. 8 cell as `validation_shapes.rs` builds it — run through
//! `run_cells` under seeds 1..=32. Per seed it keeps four statistics: mean,
//! p50 and p99 latency, and achieved QPS. `DISTRIBUTIONS.json` (repository
//! root) holds them as blessed; the test re-runs every row and fails any
//! (row, statistic) whose Welch two-sample |t| against the blessed seeds
//! exceeds the file's `bound_abs_welch_t`.
//!
//! Bless only at the parent of a change that is *meant* to keep the model's
//! distribution while moving its trajectory, never after it:
//!
//! ```text
//! UQSIM_BLESS=1 cargo test -p uqsim-bench --test distributions -- every_row
//! ```
//!
//! The two negative controls show the gate can fail: every service-time
//! mean ×1.05, and every lognormal σ ×1.2 at an unchanged mean, must each be
//! rejected on the `two_tier` row.

use std::path::{Path, PathBuf};
use uqsim_apps::scenarios::{load_balanced, two_tier, LoadBalancedConfig, TwoTierConfig};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::dist::Distribution;
use uqsim_core::time::SimDuration;
use uqsim_core::{FaultPlan, PartitionOptions};

/// Seeds `1..=SEEDS` per row.
const SEEDS: u64 = 32;
/// Welch |t| a (row, statistic) may reach before the gate rejects it.
/// With ≈ 62 degrees of freedom, P(|t| > 4.5) ≈ 3e-5 per statistic, so the
/// 48 statistics of an unchanged distribution raise a false alarm about
/// once in 700 re-blesses.
const BOUND: f64 = 4.5;
const STATS: [&str; 4] = ["mean", "p50", "p99", "qps"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn bundled(file: &str) -> ScenarioConfig {
    ScenarioConfig::from_file(&root().join("crates/cli/configs").join(file)).expect(file)
}

/// One gate row: a scenario, the fault plan it runs under, and how long.
struct Row {
    name: &'static str,
    duration_s: f64,
    faults: Option<&'static str>,
    scenario: fn() -> ScenarioConfig,
}

fn fig05(nginx_procs: usize, memcached_threads: usize) -> ScenarioConfig {
    let mut c = TwoTierConfig::at_qps(50_000.0);
    c.nginx_procs = nginx_procs;
    c.memcached_threads = memcached_threads;
    c.common.warmup = SimDuration::from_millis(200);
    two_tier(&c).expect("fig05 cell")
}

fn fig08(scale_out: usize, qps: f64) -> ScenarioConfig {
    let mut c = LoadBalancedConfig::new(scale_out, qps);
    c.common.warmup = SimDuration::from_millis(200);
    load_balanced(&c).expect("fig08 cell")
}

/// A bundled configuration with a shorter warm-up, so 32 seeds stay cheap.
fn quick(file: &str) -> ScenarioConfig {
    let mut cfg = bundled(file);
    cfg.warmup_s = 0.2;
    cfg
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            name: "quickstart",
            duration_s: 0.6,
            faults: None,
            scenario: || quick("quickstart.json"),
        },
        Row {
            name: "two_tier",
            duration_s: 0.6,
            faults: None,
            scenario: || quick("two_tier.json"),
        },
        Row {
            name: "social_network",
            duration_s: 0.6,
            faults: None,
            scenario: || quick("social_network.json"),
        },
        Row {
            name: "quickstart+quickstart_faults",
            duration_s: 3.6,
            faults: Some("quickstart_faults.json"),
            scenario: || bundled("quickstart.json"),
        },
        Row {
            name: "social_network+social_network_faults",
            duration_s: 2.6,
            faults: Some("social_network_faults.json"),
            scenario: || bundled("social_network.json"),
        },
        Row {
            name: "gen_dsb@4",
            duration_s: 0.5,
            faults: None,
            scenario: || {
                let path = root().join("crates/cli/configs/gen_dsb.json");
                let mut spec = uqsim_synth::GenSpec::from_file(&path).expect("gen_dsb spec");
                spec.replicas = 4;
                spec.generate(spec.seed).expect("gen_dsb generates")
            },
        },
        Row {
            name: "fig05{4p,2t}@50k",
            duration_s: 0.6,
            faults: None,
            scenario: || fig05(4, 2),
        },
        Row {
            name: "fig05{8p,4t}@50k",
            duration_s: 0.6,
            faults: None,
            scenario: || fig05(8, 4),
        },
        Row {
            name: "fig05{4p,4t}@50k",
            duration_s: 0.6,
            faults: None,
            scenario: || fig05(4, 4),
        },
        Row {
            name: "fig08x4@45k",
            duration_s: 0.6,
            faults: None,
            scenario: || fig08(4, 45_000.0),
        },
        Row {
            name: "fig08x8@65k",
            duration_s: 0.6,
            faults: None,
            scenario: || fig08(8, 65_000.0),
        },
        Row {
            name: "fig08x16@140k",
            duration_s: 0.5,
            faults: None,
            scenario: || fig08(16, 140_000.0),
        },
    ]
}

/// Per-seed `[mean, p50, p99, qps]` of `row` under seeds `1..=SEEDS`, with
/// `perturb` applied to its scenario first.
fn measure(row: &Row, perturb: &dyn Fn(&mut ScenarioConfig)) -> [Vec<f64>; 4] {
    let mut cfg = (row.scenario)();
    perturb(&mut cfg);
    let faults = row.faults.map(|f| {
        FaultPlan::from_file(&root().join("crates/cli/configs").join(f)).expect("fault plan")
    });
    let cells: Vec<(&ScenarioConfig, u64)> = (1..=SEEDS).map(|s| (&cfg, s)).collect();
    let record_nothing = PartitionOptions {
        telemetry: None,
        ..PartitionOptions::default()
    };
    let runs = uqsim_runner::sweep::run_cells(
        &cells,
        faults.as_ref(),
        SimDuration::from_secs_f64(row.duration_s),
        &record_nothing,
        2,
        &|_| {},
    )
    .expect(row.name);
    let stat = |f: fn(&uqsim_core::run::RunResult) -> f64| runs.iter().map(f).collect();
    [
        stat(|r| r.latency.mean),
        stat(|r| r.latency.p50),
        stat(|r| r.latency.p99),
        stat(|r| r.achieved_qps),
    ]
}

fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0);
    (m, v)
}

/// Welch's two-sample t statistic; 0 for two identical constant samples.
fn welch_t(a: &[f64], b: &[f64]) -> f64 {
    let ((ma, va), (mb, vb)) = (mean_var(a), mean_var(b));
    let se = (va / a.len() as f64 + vb / b.len() as f64).sqrt();
    if se == 0.0 {
        if ma == mb {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (ma - mb) / se
    }
}

/// The smallest relative shift of `xs`' mean that a sample of the same
/// spread reaches the bound against.
fn detectable_shift(xs: &[f64]) -> f64 {
    let (m, v) = mean_var(xs);
    BOUND * (2.0 * v / xs.len() as f64).sqrt() / m
}

/// The blessed file: per row, its duration and per-statistic seeds.
struct Blessed {
    bound: f64,
    rows: Vec<(String, f64, [Vec<f64>; 4])>,
}

fn load() -> Blessed {
    let path = root().join("DISTRIBUTIONS.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; bless it (see module docs)", path.display()));
    let doc: serde_json::Value = serde_json::from_str(&text).expect("DISTRIBUTIONS.json parses");
    let nums = |v: &serde_json::Value| -> Vec<f64> {
        v.as_array()
            .expect("array")
            .iter()
            .map(|x| x.as_f64().expect("number"))
            .collect()
    };
    let rows = doc["rows"]
        .as_array()
        .expect("rows")
        .iter()
        .map(|r| {
            (
                r["name"].as_str().expect("name").to_string(),
                r["duration_s"].as_f64().expect("duration_s"),
                STATS.map(|s| nums(&r[s])),
            )
        })
        .collect();
    Blessed {
        bound: doc["bound_abs_welch_t"].as_f64().expect("bound"),
        rows,
    }
}

fn blessed_row<'a>(blessed: &'a Blessed, row: &Row) -> &'a [Vec<f64>; 4] {
    let (_, duration_s, stats) = blessed
        .rows
        .iter()
        .find(|(name, _, _)| name == row.name)
        .unwrap_or_else(|| panic!("row {} is not blessed; bless it (module docs)", row.name));
    assert_eq!(
        *duration_s, row.duration_s,
        "row {}: duration differs from the blessed one",
        row.name
    );
    stats
}

/// `(statistic, |t|)` of every statistic of `now` against `blessed` whose
/// |t| exceeds `bound`.
fn rejected(blessed: &[Vec<f64>; 4], now: &[Vec<f64>; 4], bound: f64) -> Vec<(&'static str, f64)> {
    STATS
        .iter()
        .zip(blessed.iter().zip(now))
        .map(|(s, (b, n))| (*s, welch_t(n, b).abs()))
        .filter(|(_, t)| t.is_nan() || *t > bound)
        .collect()
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(", "))
}

fn bless(measured: &[(&Row, [Vec<f64>; 4])]) {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let two_tier = &measured
        .iter()
        .find(|(r, _)| r.name == "two_tier")
        .expect("two_tier row")
        .1;
    let mut out = String::from("{\n");
    out += &format!("  \"bound_abs_welch_t\": {BOUND:?},\n");
    out += &format!("  \"seeds\": \"1..={SEEDS}\",\n");
    out += &format!("  \"statistics\": {:?},\n", STATS.join(", "));
    out += &format!("  \"blessed_at\": {rev:?},\n");
    out += &format!(
        "  \"two_tier_detectable_mean_shift\": {:.4},\n",
        detectable_shift(&two_tier[0])
    );
    out += "  \"command\": \"UQSIM_BLESS=1 cargo test -p uqsim-bench --test distributions -- every_row\",\n";
    out += "  \"rows\": [\n";
    let rows: Vec<String> = measured
        .iter()
        .map(|(row, stats)| {
            let mut r = format!("    {{\n      \"name\": {:?},\n", row.name);
            r += &format!("      \"duration_s\": {:?},\n", row.duration_s);
            r += &format!("      \"faults\": {:?},\n", row.faults.unwrap_or(""));
            let cols: Vec<String> = STATS
                .iter()
                .zip(stats)
                .map(|(s, xs)| format!("      {s:?}: {}", json_list(xs)))
                .collect();
            r + &cols.join(",\n") + "\n    }"
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    std::fs::write(root().join("DISTRIBUTIONS.json"), out).expect("write DISTRIBUTIONS.json");
}

#[test]
fn every_row_keeps_its_distribution() {
    let rows = rows();
    let measured: Vec<(&Row, [Vec<f64>; 4])> =
        rows.iter().map(|r| (r, measure(r, &|_| {}))).collect();
    if std::env::var_os("UQSIM_BLESS").is_some() {
        bless(&measured);
        return;
    }
    let blessed = load();
    assert_eq!(
        blessed.rows.len(),
        rows.len(),
        "the blessed rows are not the gate's rows; bless them (module docs)"
    );
    let failures: Vec<String> = measured
        .iter()
        .flat_map(|(row, now)| {
            rejected(blessed_row(&blessed, row), now, blessed.bound)
                .into_iter()
                .map(|(s, t)| format!("{} {s}: |t| = {t:.2}", row.name))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "distribution moved past |t| <= {}: {failures:#?}",
        blessed.bound
    );
}

/// Applies `f` to every distribution of every stage's service-time model.
fn every_service_time(cfg: &mut ScenarioConfig, f: &dyn Fn(&Distribution) -> Distribution) {
    for svc in &mut cfg.services {
        for stage in &mut svc.stages {
            let m = &mut stage.service;
            m.base = f(&m.base);
            m.per_job = f(&m.per_job);
            for (_, base, per_job) in &mut m.freq_table {
                *base = f(base);
                *per_job = f(per_job);
            }
        }
    }
}

/// `d` with every lognormal's σ scaled by `k` and its μ moved so the mean
/// stays put: a change of shape alone.
fn widen_lognormals(d: &Distribution, k: f64) -> Distribution {
    match d {
        Distribution::LogNormal { mu, sigma } => Distribution::LogNormal {
            mu: mu + sigma * sigma / 2.0 - (k * sigma) * (k * sigma) / 2.0,
            sigma: k * sigma,
        },
        Distribution::Shifted { offset, inner } => Distribution::Shifted {
            offset: *offset,
            inner: Box::new(widen_lognormals(inner, k)),
        },
        Distribution::Mixture { components } => Distribution::Mixture {
            components: components
                .iter()
                .map(|(w, d)| (*w, widen_lognormals(d, k)))
                .collect(),
        },
        other => other.clone(),
    }
}

fn assert_two_tier_rejects(what: &str, perturb: &dyn Fn(&mut ScenarioConfig)) {
    let rows = rows();
    let row = rows.iter().find(|r| r.name == "two_tier").expect("row");
    let blessed = load();
    let now = measure(row, perturb);
    let rejected = rejected(blessed_row(&blessed, row), &now, blessed.bound);
    assert!(
        !rejected.is_empty(),
        "{what}: the gate accepted it (every |t| <= {})",
        blessed.bound
    );
}

#[test]
fn the_gate_rejects_service_times_five_percent_slower() {
    assert_two_tier_rejects("service-time means x1.05", &|cfg| {
        every_service_time(cfg, &|d| d.scaled(1.05));
    });
}

#[test]
fn the_gate_rejects_a_wider_lognormal_at_the_same_mean() {
    assert_two_tier_rejects("lognormal sigma x1.2", &|cfg| {
        every_service_time(cfg, &|d| widen_lognormals(d, 1.2));
    });
}
