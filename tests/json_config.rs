//! The declarative JSON front end end-to-end: the shipped configuration
//! files build, run, and describe the equivalent programmatic scenario.

use uqsim_core::config::{NodeTargetConfig, ScenarioConfig};
use uqsim_core::ids::StageId;
use uqsim_core::service::ServiceModel;
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
    let bundled = ScenarioConfig::from_json(TWO_TIER).unwrap();
    let mut opts = uqsim_apps::scenarios::TwoTierConfig::at_qps(20_000.0);
    opts.common.warmup = SimDuration::from_millis(500);
    let programmatic = uqsim_apps::scenarios::two_tier(&opts).unwrap();

    // The bundled file is a hand-authored description of the same
    // application. Each block below states one known difference, checks it
    // is still there, and takes the file's side; what is left must be equal
    // field for field. The list is the to-do of the PR that regenerates the
    // bundled files from `uqsim_apps::scenarios` (they are the perf
    // ledger's workloads, so that PR re-measures the baseline).
    let mut expected = programmatic.clone();

    // 1. Machines: the file steps DVFS by 0.2 GHz (the model by 0.1) and
    //    leaves the NIC unlimited (the model has Table II's 1 Gbps).
    for (m, file) in expected.machines.iter_mut().zip(&bundled.machines) {
        assert_ne!(m.dvfs, file.dvfs);
        assert_ne!(m.network.bandwidth_gbps, file.network.bandwidth_gbps);
        m.dvfs = file.dvfs.clone();
        m.network.bandwidth_gbps = file.network.bandwidth_gbps;
    }

    // 2. Service models: the file keeps only the stages this request type
    //    visits (its unvisited `memcached_write` path reuses the GET
    //    stage), rounds the log-normal parameters to four digits, and
    //    charges `socket_send` a constant with no per-byte term (so
    //    memcached's `socket_read` carries no per-byte cost either). Same
    //    services, and every path the request type visits is the model's
    //    path of that name: the same stages under the same disciplines.
    let stages_of = |models: &[ServiceModel], service: &str, path: &str| {
        let model = models.iter().find(|m| *m.name == *service).unwrap();
        let path = &model.paths[model.path_index(path).unwrap()];
        let stage = |id: &StageId| {
            let stage = &model.stages[id.index()];
            (stage.name.clone(), stage.queue)
        };
        path.stages.iter().map(stage).collect::<Vec<_>>()
    };
    for node in &bundled.request_types[0].nodes {
        if let NodeTargetConfig::Service {
            service,
            exec_path: Some(path),
            ..
        } = &node.target
        {
            assert_eq!(
                stages_of(&expected.services, service, path),
                stages_of(&bundled.services, service, path),
                "{service}.{path}"
            );
        }
    }
    for (model, file) in expected.services.iter_mut().zip(&bundled.services) {
        assert_eq!(model.name, file.name);
        assert!(model.stages.len() > file.stages.len());
        *model = file.clone();
    }

    // 3. The client sink is called `sink` in the file.
    let nodes = &mut expected.request_types[0].nodes;
    assert_eq!(&*nodes[3].name, "client_sink");
    nodes[3].name = "sink".into();
    nodes[2].children = vec!["sink".into()];

    // 4. Request sizes: constant 512 B in the file, exponential with that
    //    mean in the model (the validation's value-size distribution).
    let size = &mut expected.clients[0].request_size;
    assert_ne!(*size, bundled.clients[0].request_size);
    assert_eq!(size.mean(), bundled.clients[0].request_size.mean());
    *size = bundled.clients[0].request_size.clone();

    assert_eq!(expected.machines, bundled.machines);
    assert_eq!(expected.instances, bundled.instances);
    assert_eq!(expected.pools, bundled.pools);
    assert_eq!(expected.request_types, bundled.request_types);
    assert_eq!(expected.clients, bundled.clients);
    assert_eq!(expected, bundled);
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
    // `window_s` once switched on a windowed recorder. The loaders reject
    // keys they do not know, except this one retired key, which they
    // accept and ignore: files that still carry it load to the same
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
