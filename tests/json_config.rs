//! The declarative JSON front end end-to-end: the shipped configuration
//! files build, run, and agree with the equivalent programmatic scenario.

use uqsim_core::config::ScenarioConfig;
use uqsim_core::time::SimDuration;

const QUICKSTART: &str = include_str!("../crates/cli/configs/quickstart.json");
const TWO_TIER: &str = include_str!("../crates/cli/configs/two_tier.json");

#[test]
fn quickstart_config_runs() {
    let cfg = ScenarioConfig::from_json(QUICKSTART).unwrap();
    let mut sim = cfg.build().unwrap();
    sim.run_for(SimDuration::from_secs(2));
    let s = sim.latency_summary();
    assert!(s.count as f64 > 5_000.0 * 1.2, "completed {}", s.count);
    assert!(s.p99 < 5e-3);
}

#[test]
fn two_tier_config_matches_programmatic_scenario_shape() {
    let cfg = ScenarioConfig::from_json(TWO_TIER).unwrap();
    let mut from_json = cfg.build().unwrap();
    from_json.run_for(SimDuration::from_secs(3));
    let json_stats = from_json.latency_summary();

    let mut prog_cfg = uqsim_apps::scenarios::TwoTierConfig::at_qps(20_000.0);
    prog_cfg.common.warmup = SimDuration::from_millis(500);
    let mut programmatic = uqsim_apps::scenarios::two_tier(&prog_cfg).unwrap();
    programmatic.run_for(SimDuration::from_secs(3));
    let prog_stats = programmatic.latency_summary();

    // Same topology and calibration: the two should land in the same
    // latency regime (not identical — the JSON file is an independent
    // hand-authored description).
    assert!(
        (json_stats.mean - prog_stats.mean).abs() / prog_stats.mean < 0.5,
        "json mean {} vs programmatic mean {}",
        json_stats.mean,
        prog_stats.mean
    );
    assert!(json_stats.p99 < 5e-3 && prog_stats.p99 < 5e-3);
}

#[test]
fn roundtrip_preserves_behavior_exactly() {
    // Serialize → deserialize → build must reproduce the identical run.
    let cfg = ScenarioConfig::from_json(TWO_TIER).unwrap();
    let round: ScenarioConfig = ScenarioConfig::from_json(&cfg.to_json()).unwrap();
    assert_eq!(cfg, round);

    let mut a = cfg.build().unwrap();
    let mut b = round.build().unwrap();
    a.run_for(SimDuration::from_secs(2));
    b.run_for(SimDuration::from_secs(2));
    assert_eq!(a.generated(), b.generated());
    assert_eq!(a.latency_summary(), b.latency_summary());
}

#[test]
fn config_errors_are_descriptive() {
    let mut cfg = ScenarioConfig::from_json(QUICKSTART).unwrap();
    cfg.request_types[0].nodes[0].children = vec!["nope".into()];
    let err = cfg.build().unwrap_err().to_string();
    assert!(
        err.contains("nope"),
        "error should name the missing node: {err}"
    );
}

#[test]
fn listing1_shape_is_loadable_as_service() {
    // The memcached model exported in Listing 1's shape stays in sync with
    // the uqsim-apps model it was generated from.
    let json = uqsim_apps::memcached::listing1_json();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    let model = uqsim_apps::memcached::service_model();
    assert_eq!(v["stages"].as_array().unwrap().len(), model.stages.len());
    assert_eq!(v["paths"].as_array().unwrap().len(), model.paths.len());
}

#[test]
fn retired_window_s_key_is_ignored_like_any_unknown_key() {
    // `window_s` once switched on a windowed recorder. The loaders ignore
    // keys they do not know, so files that still carry it load to the same
    // scenario — from a single file and from a Table I `sim.json`.
    let plain = ScenarioConfig::from_json(QUICKSTART).unwrap();
    let with_key = QUICKSTART.replacen('{', "{\"window_s\": 0.1,", 1);
    assert_eq!(ScenarioConfig::from_json(&with_key).unwrap(), plain);

    let dir = std::env::temp_dir().join(format!("uqsim-window-s-{}", std::process::id()));
    plain.write_dir(&dir).unwrap();
    let sim_json = format!(
        "{{\"seed\": {}, \"warmup_s\": {}, \"window_s\": 0.1}}",
        plain.seed, plain.warmup_s
    );
    std::fs::write(dir.join("sim.json"), sim_json).unwrap();
    let from_dir = ScenarioConfig::from_dir(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(from_dir.unwrap(), plain);
}
