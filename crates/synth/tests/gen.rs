//! Generator contract tests: determinism, validity of the emitted
//! scenarios, replica isolation, and spec validation.

use proptest::prelude::*;
use uqsim_apps::roles::Role;
use uqsim_core::config::ScenarioConfig;
use uqsim_core::partition::{
    run_groups, run_partitioned, split_cells, split_groups, PartitionOptions,
};
use uqsim_core::time::SimDuration;
use uqsim_synth::{summarize, ClientGen, CountDist, GenSpec, LayerSpec};

fn small_spec() -> GenSpec {
    GenSpec::example()
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// Identical (spec, seed) pairs produce byte-identical scenario JSON —
/// the property `uqsim gen` and the CI byte-compare rely on.
#[test]
fn same_spec_and_seed_is_byte_identical() {
    let spec = small_spec();
    let a = spec.generate(7).unwrap().to_json();
    let b = spec.generate(7).unwrap().to_json();
    assert_eq!(a, b);
}

/// Different seeds reshape the sampled topology.
#[test]
fn different_seeds_diverge() {
    let spec = small_spec();
    let a = spec.generate(1).unwrap().to_json();
    let b = spec.generate(2).unwrap().to_json();
    assert_ne!(a, b, "seeds 1 and 2 should sample different shapes");
}

/// Replicas draw from per-replica rng streams: replica r's shape in an
/// N-replica scenario matches replica r's shape in an (N+1)-replica
/// scenario (adding replicas never reshapes existing ones).
#[test]
fn replicas_are_stream_independent() {
    let mut spec = small_spec();
    spec.replicas = 2;
    let two = spec.generate(5).unwrap();
    spec.replicas = 3;
    let three = spec.generate(5).unwrap();
    let prefix = |cfg: &uqsim_core::config::ScenarioConfig, r: &str| {
        cfg.services
            .iter()
            .filter(|s| s.name.starts_with(r))
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(prefix(&two, "r0-"), prefix(&three, "r0-"));
    assert_eq!(prefix(&two, "r1-"), prefix(&three, "r1-"));
}

// ---------------------------------------------------------------------
// Streaming: replicas one at a time are the cluster
// ---------------------------------------------------------------------

fn gen_dsb() -> GenSpec {
    GenSpec::from_json(include_str!("../../cli/configs/gen_dsb.json")).unwrap()
}

/// `generate` is the concatenation of `replicas`, each replica under the
/// generation seed and the spec's warm-up.
fn assert_generate_concatenates_replicas(spec: &GenSpec, seed: u64) {
    let whole = spec.generate(seed).unwrap();
    let mut joined = ScenarioConfig {
        machines: Vec::new(),
        services: Vec::new(),
        instances: Vec::new(),
        pools: Vec::new(),
        request_types: Vec::new(),
        clients: Vec::new(),
        ..whole.clone()
    };
    let replicas = spec.replicas(seed).unwrap();
    assert_eq!(replicas.len(), spec.replicas);
    for r in replicas {
        assert_eq!((r.seed, r.warmup_s), (whole.seed, whole.warmup_s));
        joined.machines.extend(r.machines);
        joined.services.extend(r.services);
        joined.instances.extend(r.instances);
        joined.pools.extend(r.pools);
        joined.request_types.extend(r.request_types);
        joined.clients.extend(r.clients);
    }
    assert_eq!(joined, whole, "seed {seed}");
}

/// The cells a streamed run pulls, replica by replica, are the cells of
/// the whole cluster: the same ids, the same owned index lists into the
/// whole cluster's entity lists, and equal configurations.
fn assert_streamed_cells_are_the_clusters(spec: &GenSpec, seed: u64) {
    let whole = split_cells(spec.generate(seed).unwrap()).unwrap();
    let streamed: Vec<_> = split_groups(spec.replicas(seed).unwrap())
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(streamed.len(), whole.len(), "seed {seed}");
    for (s, w) in streamed.iter().zip(&whole) {
        assert_eq!(s.id, w.id);
        assert_eq!(s.machines, w.machines, "cell {}", w.id);
        assert_eq!(s.clients, w.clients, "cell {}", w.id);
        assert_eq!(s.instances, w.instances, "cell {}", w.id);
        assert_eq!(s.pools, w.pools, "cell {}", w.id);
        assert_eq!(s.request_types, w.request_types, "cell {}", w.id);
        assert!(s.config == w.config, "cell {} config differs", w.id);
    }
}

#[test]
fn generate_is_the_concatenation_of_the_replicas() {
    assert_generate_concatenates_replicas(&gen_dsb(), 1);
    assert_generate_concatenates_replicas(&small_spec(), 7);
}

#[test]
fn a_streamed_run_pulls_exactly_the_cells_of_the_whole_cluster() {
    assert_streamed_cells_are_the_clusters(&gen_dsb(), 1);
    assert_streamed_cells_are_the_clusters(&gen_dsb(), 12345);
}

/// Running the replicas as groups is running the generated cluster: the
/// merged result (counts, latency summary, events processed) is the same
/// at every shard count.
#[test]
fn a_streamed_run_is_the_materialized_run() {
    let spec = gen_dsb();
    let d = SimDuration::from_millis(300);
    let whole = spec.generate(3).unwrap();
    let opts = PartitionOptions::with_shards(2);
    let materialized = run_partitioned(whole, None, 3, d, &opts).unwrap();
    for shards in [1, 2, 4] {
        let opts = PartitionOptions::with_shards(shards);
        let streamed = run_groups(spec.replicas(3).unwrap(), None, 3, d, &opts).unwrap();
        assert_eq!(streamed.result, materialized.result, "shards {shards}");
        assert_eq!(streamed.prometheus(), materialized.prometheus());
        assert_eq!(streamed.cells.len(), 30);
    }
}

// ---------------------------------------------------------------------
// Validity of emitted scenarios
// ---------------------------------------------------------------------

/// The example spec builds into a runnable simulator that completes
/// requests.
#[test]
fn generated_scenario_builds_and_runs() {
    let cfg = small_spec().generate(3).unwrap();
    let mut sim = cfg.build().expect("generated scenario must build");
    sim.run_for(SimDuration::from_millis(100));
    assert!(sim.completed() > 0, "requests must flow end to end");
    let stats = sim.latency_summary();
    assert!(stats.count > 0 && stats.p99 > 0.0);
}

/// Orphan repair keeps every generated service reachable: each service
/// appears in at least one request-type node, so `split_cells`' request
/// closure covers the whole replica.
#[test]
fn every_service_is_reachable_from_a_request_type() {
    let cfg = small_spec().generate(11).unwrap();
    for svc in &cfg.services {
        let visited = cfg.request_types.iter().any(|t| {
            t.nodes.iter().any(|n| match &n.target {
                uqsim_core::config::NodeTargetConfig::Service { service, .. } => {
                    service == &svc.name
                }
                _ => false,
            })
        });
        assert!(visited, "service {} is unreachable", svc.name);
    }
}

/// Replicas share nothing, so the partitioner finds exactly one cell per
/// replica.
#[test]
fn split_cells_yields_one_cell_per_replica() {
    let mut spec = small_spec();
    spec.replicas = 4;
    let cfg = spec.generate(9).unwrap();
    let cells = split_cells(&cfg).unwrap();
    assert_eq!(cells.len(), 4, "one cell per replica");
    for cell in &cells {
        assert!(!cell.config.clients.is_empty());
        cell.config
            .build()
            .expect("each cell must be self-contained");
    }
}

/// The Table I directory round-trip (`write_dir` → `from_dir`) preserves
/// the generated scenario exactly — what `uqsim gen --out` writes is what
/// `uqsim run --config-dir` will simulate.
#[test]
fn write_dir_round_trips() {
    let cfg = small_spec().generate(13).unwrap();
    let dir = std::env::temp_dir().join(format!("uqsim-synth-roundtrip-{}", std::process::id()));
    cfg.write_dir(&dir).unwrap();
    let back = uqsim_core::config::ScenarioConfig::from_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(cfg.to_json(), back.to_json());
}

/// Instance placement respects machine capacity: per machine, the summed
/// instance cores never exceed total cores minus the 4 IRQ cores.
#[test]
fn placement_respects_machine_capacity() {
    let spec = small_spec();
    let cfg = spec.generate(17).unwrap();
    for m in &cfg.machines {
        let used: usize = cfg
            .instances
            .iter()
            .filter(|i| i.machine == m.name)
            .map(|i| i.cores)
            .sum();
        assert!(
            used + 4 <= m.cores,
            "machine {} overcommitted: {used} instance cores on {} total",
            m.name,
            m.cores
        );
    }
    let s = summarize(&cfg);
    assert_eq!(s.clients, s.request_types, "one client per front service");
}

// ---------------------------------------------------------------------
// Spec validation
// ---------------------------------------------------------------------

#[test]
fn spec_validation_catches_bad_inputs() {
    let mut spec = small_spec();
    spec.machine_cores = 6; // front layer wants 4 cores + 4 IRQ cores
    let err = spec.validate().unwrap_err().to_string();
    assert!(err.contains("machine_cores"), "{err}");

    let mut spec = small_spec();
    spec.layers[1].threads_per_instance = 65;
    let err = spec.validate().unwrap_err().to_string();
    assert!(err.contains("64-thread"), "{err}");

    let mut spec = small_spec();
    spec.replicas = 0;
    assert!(spec.validate().is_err());

    let mut spec = small_spec();
    spec.layers[0].services = CountDist::range(3, 2);
    let err = spec.validate().unwrap_err().to_string();
    assert!(err.contains("min 3 > max 2"), "{err}");

    // Compounding fan-outs are rejected before they generate a
    // million-node path.json.
    let mut spec = small_spec();
    for l in &mut spec.layers {
        l.fanout = CountDist::fixed(16);
    }
    let err = spec.validate().unwrap_err().to_string();
    assert!(err.contains("2048"), "{err}");

    // Every rate a generated client runs at fits the nanosecond clock.
    let mut spec = small_spec();
    spec.client.qps_per_front = 3e9;
    let err = spec.validate().unwrap_err().to_string();
    assert!(
        err.contains("client.qps_per_front: 3000000000.0 qps"),
        "{err}"
    );
    let mut spec = small_spec();
    spec.client.arrivals = Some(uqsim_core::client::ArrivalProcess::poisson(1e300));
    let err = spec.validate().unwrap_err().to_string();
    assert!(
        err.contains("client.arrivals.schedule.segments[0]: 1e300 qps"),
        "{err}"
    );
}

/// The largest cluster a spec can generate must number its instances,
/// clients and pools within `u32` ids — checked before anything is
/// allocated, naming the key to lower.
#[test]
fn oversized_counts_are_rejected_naming_the_key() {
    let last = "would number past the last id, 4294967295";
    let mut spec = small_spec();
    spec.replicas = 1_000_000_000_000;
    let err = spec.validate().unwrap_err().to_string();
    assert!(
        err.contains(&format!("replicas: up to 14000000000000 instances {last}")),
        "{err}"
    );
    let mut spec = small_spec();
    spec.layers[1].services = CountDist::range(1, 1_000_000_000_000);
    let err = spec.validate().unwrap_err().to_string();
    let key = "layers[1].services: up to 2000000000008 instances per replica";
    assert!(err.contains(&format!("{key} {last}")), "{err}");
    let mut spec = small_spec();
    spec.layers[0].services = CountDist::fixed(5_000_000_000);
    spec.layers[0].instances_per_service = CountDist::fixed(1);
    spec.pool_size = 0;
    let err = spec.validate().unwrap_err().to_string();
    assert!(
        err.contains("layers[0].services: up to 5000000012 instances per replica"),
        "{err}"
    );
    // Layers that fit one by one but not together: the largest is named.
    let mut spec = small_spec();
    spec.replicas = 1;
    spec.layers[0].services = CountDist::fixed(3_000_000_000);
    spec.layers[0].instances_per_service = CountDist::fixed(1);
    spec.layers[1].services = CountDist::fixed(2_000_000_000);
    let err = spec.validate().unwrap_err().to_string();
    let key = "layers[1].services: up to 7000000006 instances per replica";
    assert!(err.contains(key), "{err}");
    // The bound is the worst case, not the sampled one: the bundled
    // 30-replica spec has room for 100,000 replicas of it.
    let mut spec = gen_dsb();
    spec.replicas = 100_000;
    spec.validate().unwrap();
}

#[test]
fn spec_json_round_trips() {
    let spec = small_spec();
    let json = serde_json::to_string_pretty(&serde_json::to_value(&spec).unwrap()).unwrap();
    let back = GenSpec::from_json(&json).unwrap();
    assert_eq!(spec, back);
}

// ---------------------------------------------------------------------
// Randomized: arbitrary small specs stay valid and deterministic
// ---------------------------------------------------------------------

fn arb_spec(
    replicas: usize,
    depth: usize,
    svc_max: usize,
    inst_max: usize,
    fan_max: usize,
) -> GenSpec {
    let roles = [Role::Front, Role::Logic, Role::Cache, Role::Db];
    let layers = (0..depth)
        .map(|l| LayerSpec {
            role: roles[l.min(roles.len() - 1)],
            services: CountDist::range(1, svc_max),
            instances_per_service: CountDist::range(1, inst_max),
            cores_per_instance: 2,
            threads_per_instance: if l % 2 == 0 { 0 } else { 4 },
            fanout: CountDist::range(1, fan_max),
        })
        .collect();
    GenSpec {
        name: "prop".into(),
        seed: 1,
        replicas,
        machine_cores: 8,
        pool_size: 4,
        warmup_s: 0.0,
        layers,
        client: ClientGen {
            connections: 8,
            qps_per_front: 500.0,
            arrivals: None,
            timeout_s: None,
        },
    }
}

proptest! {
    /// Any sampled spec generates deterministically, builds, and splits
    /// into one cell per replica.
    #[test]
    fn random_specs_generate_valid_scenarios(
        replicas in 1usize..3,
        depth in 1usize..4,
        svc_max in 1usize..4,
        inst_max in 1usize..3,
        fan_max in 1usize..3,
        seed in any::<u64>(),
    ) {
        let spec = arb_spec(replicas, depth, svc_max, inst_max, fan_max);
        let cfg = spec.generate(seed).unwrap();
        prop_assert_eq!(cfg.to_json(), spec.generate(seed).unwrap().to_json());
        assert_generate_concatenates_replicas(&spec, seed);
        assert_streamed_cells_are_the_clusters(&spec, seed);
        cfg.build().expect("generated scenario must build");
        // Replicas never merge into one cell (a replica whose sampled
        // graph happens to be disconnected may split further — that only
        // adds parallelism).
        let cells = split_cells(&cfg).unwrap();
        prop_assert!(cells.len() >= spec.replicas, "{} cells for {} replicas", cells.len(), spec.replicas);
        for cell in &cells {
            let mut reps: Vec<&str> = cell
                .machines
                .iter()
                .map(|&m| cfg.machines[m].name.split('-').next().unwrap())
                .collect();
            reps.dedup();
            prop_assert_eq!(reps.len(), 1, "cell spans replicas: {:?}", reps);
        }
    }
}
