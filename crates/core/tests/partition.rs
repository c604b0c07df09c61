//! Differential tests of the partitioned execution engine against the
//! DESIGN.md §11 execution-model spec. Each test names the spec invariant
//! it checks (**P1**–**P7**); together they enforce the module's headline
//! guarantee: merged outputs are byte-identical at any shard count.

use proptest::prelude::*;
use uqsim_core::client::ArrivalProcess;
use uqsim_core::config::{InstanceSelectConfig, NodeTargetConfig, ScenarioConfig};
use uqsim_core::dist::Distribution;
use uqsim_core::fault::FaultPlan;
use uqsim_core::metrics::LatencySummary;
use uqsim_core::partition::{
    cell_seed, run_batch, run_partitioned, split_cells, PartitionOptions, PartitionPlan,
    SpanTracing,
};
use uqsim_core::rng::RngFactory;
use uqsim_core::run::EXAMPLE_SCENARIO;
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::time::{SimDuration, SimTime};

/// A cluster of `pods` independent single-machine pods. Pod 1 (when
/// present) additionally hosts a second instance and a connection pool on
/// its machine, so one middle cell has the `uqsim_pool_*` metrics that
/// every other cell lacks — the case where a registry merge that met the
/// families in any other order than their emission order would move them.
fn cluster_json(pods: usize) -> String {
    let mut machines = Vec::new();
    let mut instances = Vec::new();
    let mut pools = Vec::new();
    let mut request_types = Vec::new();
    let mut clients = Vec::new();
    for i in 0..pods {
        // Pod 1's machine needs a third core for its aux instance.
        let cores = if i == 1 { 3 } else { 2 };
        machines.push(format!(
            r#"{{ "name": "m{i}", "cores": {cores},
      "dvfs": {{ "levels_ghz": [2.6] }},
      "network": {{ "irq_cores": 1,
        "rx_time": {{ "type": "exponential", "mean": 0.0000166 }},
        "wire_latency": {{ "type": "constant", "value": 0.00002 }} }} }}"#
        ));
        instances.push(format!(
            r#"{{ "name": "api{i}", "service": "api", "machine": "m{i}",
      "cores": 1, "exec": {{ "type": "simple" }} }}"#
        ));
        request_types.push(format!(
            r#"{{ "name": "get{i}",
      "nodes": [
        {{ "name": "front",
          "target": {{ "type": "service", "service": "api",
            "instance": {{ "type": "fixed", "name": "api{i}" }},
            "exec_path": "default" }},
          "children": ["sink"] }},
        {{ "name": "sink", "target": {{ "type": "client_sink" }},
          "link": {{ "reply": {{ "of": "front" }} }} }}
      ] }}"#
        ));
        clients.push(format!(
            r#"{{ "name": "wrk{i}", "connections": 32,
      "arrivals": {{ "type": "poisson",
        "schedule": {{ "segments": [[0.0, 1500.0]] }} }},
      "mix": [["get{i}", 1.0]], "roots": ["api{i}"] }}"#
        ));
        if i == 1 {
            instances.push(format!(
                r#"{{ "name": "aux{i}", "service": "api", "machine": "m{i}",
      "cores": 1, "exec": {{ "type": "simple" }} }}"#
            ));
            pools.push(format!(
                r#"{{ "up": "api{i}", "down": "aux{i}", "size": 4 }}"#
            ));
        }
    }
    format!(
        r#"{{
  "seed": 42,
  "warmup_s": 0.1,
  "machines": [{}],
  "services": [
    {{ "name": "api",
      "stages": [
        {{ "name": "handler", "queue": {{ "type": "single" }},
          "service": {{ "base": {{ "type": "constant", "value": 0.0 }},
            "per_job": {{ "type": "exponential", "mean": 0.00008 }},
            "ref_freq_ghz": 2.6, "freq_alpha": 1.0 }} }}
      ],
      "paths": [{{ "name": "default", "stages": [0] }}] }}
  ],
  "instances": [{}],
  "pools": [{}],
  "request_types": [{}],
  "clients": [{}]
}}"#,
        machines.join(",\n"),
        instances.join(",\n"),
        pools.join(",\n"),
        request_types.join(",\n"),
        clients.join(",\n"),
    )
}

fn cluster(pods: usize) -> ScenarioConfig {
    ScenarioConfig::from_json(&cluster_json(pods)).expect("cluster json parses")
}

/// A fault plan spanning three different pods of [`cluster`]: a crash in
/// pod 0, a machine slowdown in pod 2, and a retry/breaker policy on pod
/// 1's client — so the per-cell plan split routes every spec kind.
fn cluster_faults() -> FaultPlan {
    FaultPlan::from_json(
        r#"{
  "faults": [
    { "kind": "instance_crash", "instance": "api0",
      "at_s": 0.15, "restart_after_s": 0.1 },
    { "kind": "machine_slowdown", "machine": "m2",
      "at_s": 0.2, "duration_s": 0.08, "factor": 4.0 }
  ],
  "policy": {
    "clients": [
      { "client": "wrk1", "max_retries": 2,
        "backoff_base_s": 0.002, "backoff_cap_s": 0.05, "jitter": 0.5 }
    ]
  }
}"#,
    )
    .expect("fault json parses")
}

/// Options that turn on every output channel, so the differential tests
/// compare everything the engine can export.
fn full_options(shards: usize) -> PartitionOptions {
    PartitionOptions {
        shards,
        telemetry: Some(TelemetryConfig {
            sample_interval: Some(SimDuration::from_millis(50)),
            ..TelemetryConfig::default()
        }),
        span_tracing: SpanTracing::Retain(1 << 16),
    }
}

// ---------------------------------------------------------------------
// P1: ownership and request closure
// ---------------------------------------------------------------------

/// **P1** — independent pods split into one cell each, and colocation
/// edges (here: a connection pool) keep entities together.
#[test]
fn cells_split_by_colocation_edges() {
    let cfg = cluster(4);
    let cells = split_cells(&cfg).unwrap();
    assert_eq!(cells.len(), 4, "one cell per pod");
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(cell.machines, vec![i], "cells number by machine index");
        assert_eq!(cell.config.machines.len(), 1);
        assert_eq!(cell.config.clients.len(), 1);
    }
    // Pod 1 owns the aux instance and the pool; nobody else has any.
    assert_eq!(cells[1].config.instances.len(), 2);
    assert_eq!(cells[1].config.pools.len(), 1);
    assert!(cells[0].config.pools.is_empty());
}

/// **P1** — a machine is atomic: a zero-latency intra-machine hop (two
/// instances of one request chain on the same machine, loopback latency
/// zero) can never cross a cell boundary, because both endpoints live on
/// one machine and machines never split.
#[test]
fn zero_latency_intra_machine_hop_stays_in_one_cell() {
    let cfg = ScenarioConfig::from_json(
        r#"{
  "seed": 1, "warmup_s": 0.05,
  "machines": [
    { "name": "solo", "cores": 2,
      "dvfs": { "levels_ghz": [2.6] },
      "network": { "irq_cores": 1,
        "rx_time": { "type": "constant", "value": 0.0 },
        "wire_latency": { "type": "constant", "value": 0.0 },
        "loopback_latency": { "type": "constant", "value": 0.0 } } },
    { "name": "other", "cores": 2,
      "dvfs": { "levels_ghz": [2.6] },
      "network": { "irq_cores": 1,
        "rx_time": { "type": "constant", "value": 0.0 },
        "wire_latency": { "type": "constant", "value": 0.00002 } } }
  ],
  "services": [
    { "name": "api",
      "stages": [
        { "name": "handler", "queue": { "type": "single" },
          "service": { "base": { "type": "constant", "value": 0.0 },
            "per_job": { "type": "exponential", "mean": 0.00005 },
            "ref_freq_ghz": 2.6, "freq_alpha": 1.0 } }
      ],
      "paths": [{ "name": "default", "stages": [0] }] }
  ],
  "instances": [
    { "name": "a", "service": "api", "machine": "solo",
      "cores": 1, "exec": { "type": "simple" } },
    { "name": "b", "service": "api", "machine": "solo",
      "cores": 1, "exec": { "type": "simple" } },
    { "name": "c", "service": "api", "machine": "other",
      "cores": 1, "exec": { "type": "simple" } }
  ],
  "pools": [],
  "request_types": [
    { "name": "chain",
      "nodes": [
        { "name": "first",
          "target": { "type": "service", "service": "api",
            "instance": { "type": "fixed", "name": "a" },
            "exec_path": "default" },
          "children": ["second"] },
        { "name": "second",
          "target": { "type": "service", "service": "api",
            "instance": { "type": "fixed", "name": "b" },
            "exec_path": "default" },
          "children": ["sink"] },
        { "name": "sink", "target": { "type": "client_sink" },
          "link": { "reply": { "of": "first" } } }
      ] },
    { "name": "lone",
      "nodes": [
        { "name": "front",
          "target": { "type": "service", "service": "api",
            "instance": { "type": "fixed", "name": "c" },
            "exec_path": "default" },
          "children": ["sink"] },
        { "name": "sink", "target": { "type": "client_sink" },
          "link": { "reply": { "of": "front" } } }
      ] }
  ],
  "clients": [
    { "name": "w1", "connections": 8,
      "arrivals": { "type": "poisson",
        "schedule": { "segments": [[0.0, 500.0]] } },
      "mix": [["chain", 1.0]], "roots": ["a"] },
    { "name": "w2", "connections": 8,
      "arrivals": { "type": "poisson",
        "schedule": { "segments": [[0.0, 500.0]] } },
      "mix": [["lone", 1.0]], "roots": ["c"] }
  ]
}"#,
    )
    .unwrap();
    let cells = split_cells(&cfg).unwrap();
    assert_eq!(cells.len(), 2, "\"solo\" and \"other\" are separate cells");
    let solo = &cells[0];
    // Both endpoints of the zero-latency hop — and the request type that
    // contains it — belong to the single cell owning machine "solo".
    assert_eq!(solo.config.instances.len(), 2);
    assert_eq!(solo.config.request_types.len(), 1);
    assert_eq!(&*solo.config.request_types[0].name, "chain");
}

// ---------------------------------------------------------------------
// A cell's config carries the services it references
// ---------------------------------------------------------------------

/// `cluster(3)` over a service table with some shape to it: pod `i`'s
/// `api{i}` instance and its request type's node use `svc{i}`, pod 1's aux
/// instance shares `svc0`, nothing uses `unused`, and the table's order is
/// neither the pods' nor alphabetical.
fn cluster_with_service_table() -> ScenarioConfig {
    let mut cfg = cluster(3);
    let named = |name: &str| {
        let mut service = cfg.services[0].clone();
        service.name = name.into();
        service
    };
    cfg.services = vec![named("svc2"), named("unused"), named("svc0"), named("svc1")];
    let service_of = |instance: &str| -> uqsim_core::config::Name {
        match instance {
            "aux1" => "svc0".into(),
            api => api.replace("api", "svc").into(),
        }
    };
    for inst in &mut cfg.instances {
        inst.service = service_of(&inst.name);
    }
    for node in cfg.request_types.iter_mut().flat_map(|t| &mut t.nodes) {
        if let NodeTargetConfig::Service {
            service,
            instance: InstanceSelectConfig::Fixed { name },
            ..
        } = &mut node.target
        {
            *service = service_of(name);
        }
    }
    cfg
}

fn service_names(cfg: &ScenarioConfig) -> Vec<&str> {
    cfg.services.iter().map(|s| &*s.name).collect()
}

/// Each cell's service table is exactly what its instances and path nodes
/// name, in the scenario's order; a service nothing names rides with cell
/// 0; and the cells still build and run to the result a bare simulator of
/// the whole scenario's pods would — `ServiceId`s are cell-local and never
/// printed.
#[test]
fn cell_configs_carry_the_services_they_reference() {
    let cfg = cluster_with_service_table();
    let cells = split_cells(&cfg).unwrap();
    assert_eq!(cells.len(), 3);
    assert_eq!(service_names(&cells[0].config), ["unused", "svc0"]);
    assert_eq!(service_names(&cells[1].config), ["svc0", "svc1"]);
    assert_eq!(service_names(&cells[2].config), ["svc2"]);
    for cell in &cells {
        cell.config.build().expect("cells build standalone");
    }
    // Same models under other names: nothing an output shows has moved.
    let d = SimDuration::from_millis(200);
    let renamed = run_partitioned(&cfg, None, 9, d, &full_options(2)).unwrap();
    let plain = run_partitioned(cluster(3), None, 9, d, &full_options(2)).unwrap();
    assert_eq!(renamed.result, plain.result);
    assert_eq!(renamed.prometheus(), plain.prometheus());
}

/// A scenario that is one cell keeps its whole service table, in order.
#[test]
fn one_cell_scenarios_keep_their_full_service_table() {
    for text in [
        include_str!("../../cli/configs/quickstart.json"),
        include_str!("../../cli/configs/two_tier.json"),
        include_str!("../../cli/configs/social_network.json"),
        EXAMPLE_SCENARIO,
    ] {
        let mut cfg = ScenarioConfig::from_json(text).unwrap();
        // With a service nothing references, too.
        let mut spare = cfg.services[0].clone();
        spare.name = "spare".into();
        cfg.services.insert(1, spare);
        let cells = split_cells(&cfg).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].config, cfg);
    }
}

/// A service nothing references is still validated — once, by cell 0 —
/// and an invalid one fails the run with the error a build of the whole
/// scenario reports (which is what every cell's build, carrying the whole
/// table, used to report).
#[test]
fn an_unreferenced_invalid_service_still_fails_the_run() {
    let mut cfg = cluster_with_service_table();
    cfg.services[1].paths.clear();
    let whole = cfg.build().expect_err("`unused` has no execution path");
    assert_eq!(
        whole.to_string(),
        "invalid scenario: service unused: no execution paths"
    );
    let cells = split_cells(&cfg).unwrap();
    assert_eq!(service_names(&cells[0].config), ["unused", "svc0"]);
    let run = run_partitioned(
        &cfg,
        None,
        9,
        SimDuration::from_millis(200),
        &full_options(2),
    );
    assert_eq!(run.unwrap_err().to_string(), whole.to_string());
}

// ---------------------------------------------------------------------
// P2/P3: claim-order determinism and K-independent numbering/seeding
// ---------------------------------------------------------------------

/// `cluster(8)` with uneven pods: the clients offer 1×, 4×, 2×, 1×, … the
/// base load, so the cells' run times differ by up to 4× and workers
/// claim unequal numbers of them.
fn uneven_cluster() -> ScenarioConfig {
    let mut cfg = cluster(8);
    for (i, client) in cfg.clients.iter_mut().enumerate() {
        let ArrivalProcess::Poisson { schedule } = &mut client.arrivals else {
            panic!("cluster clients are poisson");
        };
        for seg in &mut schedule.segments {
            seg.1 *= [1.0, 4.0, 2.0, 1.0][i % 4];
        }
    }
    cfg
}

/// **P2** — the order in which workers claim cells is a pure function of
/// the scenario (costliest first, ties by cell id; the shard count does
/// not enter), and which worker ends up running which cell never shows:
/// every merged output is the same at 1, 2, 3 and 8 shards though the
/// cells differ 4× in cost.
#[test]
fn claim_order_is_pure_and_never_shows() {
    let cfg = uneven_cluster();
    let plan = PartitionPlan::new(&cfg, 3).unwrap();
    let order = plan.claim_order();
    assert_eq!(order, PartitionPlan::new(&cfg, 3).unwrap().claim_order());
    assert_eq!(order, PartitionPlan::new(&cfg, 8).unwrap().claim_order());
    // Pod 1 owns a third core and a second instance; the rest tie.
    assert_eq!(order, [1, 0, 2, 3, 4, 5, 6, 7]);
    let weights = plan.weights();
    assert!(order.windows(2).all(|w| weights[w[0]] >= weights[w[1]]));

    let d = SimDuration::from_millis(300);
    let render = |shards: usize| {
        let run = run_partitioned(&cfg, None, 9, d, &full_options(shards)).unwrap();
        let json = serde_json::to_string_pretty(&run.json().expect("sampler on")).unwrap();
        let (prom, csv) = (run.prometheus(), run.csv().expect("sampler on"));
        let completed: Vec<u64> = run.cells.iter().map(|c| c.result.completed).collect();
        (run.result, prom, csv, json, completed)
    };
    let base = render(1);
    assert!(base.4[1] > 3 * base.4[0], "pod 1 serves 4x pod 0's load");
    for shards in [2, 3, 8] {
        assert_eq!(render(shards), base, "merged outputs at shards={shards}");
    }
}

/// **P3** — the cell list (and hence numbering) is identical at any shard
/// count.
#[test]
fn cell_numbering_is_shard_independent() {
    let cfg = cluster(5);
    let one = PartitionPlan::new(&cfg, 1).unwrap();
    let eight = PartitionPlan::new(&cfg, 8).unwrap();
    let machines = |p: &PartitionPlan| {
        p.cells
            .iter()
            .map(|c| c.machines.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(machines(&one), machines(&eight));
    assert_eq!(one.cells.len(), 5);
}

/// **P3** — the master-seed → cell-seed mapping is frozen. These literals
/// are load-bearing: changing the derivation re-seeds every multi-cell
/// golden, so it must be deliberate and show up here.
#[test]
fn cell_seed_derivation_is_pinned() {
    use rand::Rng;
    for master in [0u64, 7, 42, u64::MAX] {
        // Cell 0 is the master seed itself: a one-cell scenario is the
        // bare simulator under that seed.
        assert_eq!(cell_seed(master, 0), master);
        // Every later cell: first draw of the factory's ("cell", i) stream.
        for cell in [1u64, 2, 3, 29] {
            let expected: u64 = RngFactory::new(master).stream("cell", cell).gen();
            assert_eq!(cell_seed(master, cell), expected);
        }
    }
    // And the frozen values themselves:
    assert_eq!(cell_seed(42, 1), 13026359202090660146);
    assert_eq!(cell_seed(7, 3), 14399742206398174224);
}

// ---------------------------------------------------------------------
// P4: chunked advancement ≡ single-shot
// ---------------------------------------------------------------------

/// **P4** — advancing through paused horizons and finishing with
/// `run_until` reproduces a single-shot `run_until` exactly: however a
/// caller steps a cell, its trajectory is the uninterrupted one. (Horizons
/// are odd nanosecond counts so no event collides with a chunk boundary.)
#[test]
fn chunked_advance_matches_single_shot() {
    let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    let deadline = SimTime::from_nanos(400_000_001);

    let mut single = cfg.build().unwrap();
    single.run_until(deadline);

    let mut chunked = cfg.build().unwrap();
    for boundary in [50_000_003u64, 133_333_337, 250_000_001, 399_999_999] {
        chunked.run_until_paused(SimTime::from_nanos(boundary));
    }
    chunked.run_until(deadline);

    assert_eq!(single.generated(), chunked.generated());
    assert_eq!(single.completed(), chunked.completed());
    assert_eq!(single.timeouts(), chunked.timeouts());
    assert_eq!(single.latency_summary(), chunked.latency_summary());
    assert_eq!(single.events_processed(), chunked.events_processed());
}

// ---------------------------------------------------------------------
// Design note (DESIGN.md §11 appendix): the floor a cross-cell link needs
// ---------------------------------------------------------------------

/// Cells never link today, but the number a link's lookahead would be is
/// still computable: the wire-latency floor, `Distribution::lower_bound`
/// of the destination's wire-latency distribution, which samples can
/// never undercut.
#[test]
fn lookahead_floor_is_wire_latency_lower_bound() {
    let cfg = cluster(2);
    let wire = &cfg.machines[0].network.wire_latency;
    assert_eq!(wire.lower_bound(), 0.00002);
    // The shifted form keeps a positive floor too:
    let shifted = Distribution::Shifted {
        offset: 15e-6,
        inner: Box::new(Distribution::exponential(5e-6)),
    };
    assert!(shifted.lower_bound() >= 15e-6);
}

// ---------------------------------------------------------------------
// P5/P7: deterministic merges, byte-identical at any shard count
// ---------------------------------------------------------------------

/// **P7** — the headline guarantee, unfaulted: every merged output is
/// byte-identical at shard counts 1, 2, 4, and 8.
#[test]
fn shards_never_change_results_unfaulted() {
    let cfg = cluster(6);
    let d = SimDuration::from_millis(300);
    let base = run_partitioned(&cfg, None, 9, d, &full_options(1)).unwrap();
    let base_prom = base.prometheus();
    let base_csv = base.csv().expect("sampler on");
    let base_json = serde_json::to_string_pretty(&base.json().expect("sampler on")).unwrap();
    let base_trace =
        serde_json::to_string_pretty(&base.chrome_trace().expect("tracing on")).unwrap();
    assert!(base.result.completed > 0);
    for shards in [2, 4, 8] {
        let run = run_partitioned(&cfg, None, 9, d, &full_options(shards)).unwrap();
        assert_eq!(run.result, base.result, "RunResult at shards={shards}");
        assert_eq!(run.prometheus(), base_prom, "prometheus at shards={shards}");
        assert_eq!(run.csv().unwrap(), base_csv, "csv at shards={shards}");
        assert_eq!(
            serde_json::to_string_pretty(&run.json().unwrap()).unwrap(),
            base_json,
            "json at shards={shards}"
        );
        assert_eq!(
            serde_json::to_string_pretty(&run.chrome_trace().unwrap()).unwrap(),
            base_trace,
            "chrome trace at shards={shards}"
        );
    }
}

/// **P7** — the headline guarantee under fault injection: chaos counters,
/// timelines, and all exports stay byte-identical at any shard count.
#[test]
fn shards_never_change_results_faulted() {
    let cfg = cluster(4);
    let plan = cluster_faults();
    let d = SimDuration::from_millis(400);
    let base = run_partitioned(&cfg, Some(&plan), 3, d, &full_options(1)).unwrap();
    let fault = base.result.fault.clone().expect("plan installed");
    assert!(fault.dropped > 0, "the crash window must drop requests");
    let base_prom = base.prometheus();
    for shards in [2, 4] {
        let run = run_partitioned(&cfg, Some(&plan), 3, d, &full_options(shards)).unwrap();
        assert_eq!(run.result, base.result, "faulted result at shards={shards}");
        assert_eq!(
            run.result.fault.as_ref().unwrap().timeline,
            fault.timeline,
            "fault timeline at shards={shards}"
        );
        assert_eq!(
            run.prometheus(),
            base_prom,
            "faulted prom at shards={shards}"
        );
    }
}

/// **P5** — merging a single cell is the identity for the registry: the
/// merged exposition is the cell's own, byte for byte.
#[test]
fn merge_of_one_cell_is_registry_identity() {
    let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    let run = run_partitioned(
        &cfg,
        None,
        7,
        SimDuration::from_millis(300),
        &full_options(2),
    )
    .unwrap();
    assert_eq!(run.cells.len(), 1);
    let registry = run.cells[0].registry.as_ref().expect("telemetry is on");
    assert_eq!(run.prometheus(), Some(registry.to_prometheus()));
}

/// **P5** — a cell hands over its exact latency samples as a finished
/// recorder (sorted, sealed runs): ascending, they are the samples a bare
/// simulator of the same cell holds. The merged summary is the summary of
/// all of them, whatever their order.
#[test]
fn cells_keep_their_samples_sorted_and_the_merge_summarizes_them_all() {
    let cfg = cluster(3);
    let d = SimDuration::from_millis(300);
    let run = run_partitioned(&cfg, None, 9, d, &PartitionOptions::with_shards(2)).unwrap();
    let mut all = Vec::new();
    for (cell, out) in split_cells(&cfg).unwrap().iter().zip(&run.cells) {
        let seed = cell_seed(9, cell.id as u64);
        let mut bare = cell.config.with_seed(seed).build().unwrap();
        bare.run_until(SimTime::ZERO + d);
        assert!(out.latency_samples.len() > 100, "cell {}", cell.id);
        let kept: Vec<f64> = out.latency_samples.ascending().collect();
        let bare_samples: Vec<f64> = bare.latency_samples().collect();
        assert_eq!(kept, bare_samples, "cell {}", cell.id);
        assert_eq!(out.result.latency, bare.latency_summary());
        all.extend(bare_samples);
    }
    // Reversed: the summary must not depend on the order it is given.
    all.reverse();
    assert_eq!(run.result.latency, LatencySummary::from_samples(&all));
}

/// **P5** — the merged CSV and JSON are the cells' own renders, put
/// together by the documented rule: the CSV interleaves the cells' CSVs
/// tick by tick (each tick's block starts at its `windowed_count` row) and
/// labels the unlabeled `windowed_*` rows `cell<i>`; the JSON lists the
/// cells' dumps under `"cells"`. The cells' renders come from bare
/// simulators of the same cells, so this also pins that the series a
/// finished cell keeps lose nothing the simulator would have rendered.
#[test]
fn merged_csv_and_json_are_the_cells_own_renders() {
    let cfg = cluster(3);
    let d = SimDuration::from_millis(300);
    let opts = full_options(2);
    let run = run_partitioned(&cfg, None, 9, d, &opts).unwrap();
    let bare: Vec<_> = split_cells(&cfg)
        .unwrap()
        .iter()
        .map(|cell| {
            let seed = cell_seed(9, cell.id as u64);
            let mut sim = cell.config.with_seed(seed).build().unwrap();
            sim.enable_telemetry(opts.telemetry.expect("full options"));
            sim.run_until(SimTime::ZERO + d);
            sim
        })
        .collect();

    let csvs: Vec<String> = bare.iter().map(|sim| sim.metrics_csv().unwrap()).collect();
    let ticks = |csv: &str| csv.matches(",windowed_count,").count();
    assert!(ticks(&csvs[0]) >= 5 && csvs.iter().all(|csv| ticks(csv) == ticks(&csvs[0])));
    let mut rows: Vec<_> = csvs
        .iter()
        .map(|csv| csv.lines().skip(1).peekable())
        .collect();
    let mut expected = String::from("t_s,metric,label,value\n");
    for _ in 0..ticks(&csvs[0]) {
        for (i, rows) in rows.iter_mut().enumerate() {
            let mut first = true;
            while let Some(line) = rows.next_if(|l| first || !l.contains(",windowed_count,")) {
                first = false;
                let parts: Vec<&str> = line.splitn(4, ',').collect();
                if parts[1].starts_with("windowed_") && parts[2].is_empty() {
                    expected += &format!("{},{},cell{i},{}\n", parts[0], parts[1], parts[3]);
                } else {
                    expected += line;
                    expected.push('\n');
                }
            }
        }
    }
    assert_eq!(run.csv().expect("sampler on"), expected);

    let json = run.json().expect("sampler on");
    let dumps = json["cells"].as_array().expect("one dump per cell");
    assert_eq!(dumps.len(), bare.len());
    for (dump, sim) in dumps.iter().zip(&bare) {
        assert!(dump == &sim.metrics_json(), "a cell's JSON dump moved");
    }
}

/// **P5** — the merged audit is clean whenever every per-cell audit is
/// clean, faulted or not.
#[test]
fn partitioned_audit_stays_clean() {
    let cfg = cluster(3);
    let plan = cluster_faults();
    let run = run_partitioned(
        &cfg,
        Some(&plan),
        11,
        SimDuration::from_millis(300),
        &full_options(3),
    )
    .unwrap();
    let audit = run.audit().expect("span tracing on");
    assert!(
        audit.violations.is_empty(),
        "merged audit must be clean: {:?}",
        audit.violations
    );
    assert!(audit.events_checked > 0);
}

proptest! {
    /// **P7**, randomized — random pod counts and master seeds, shard
    /// counts {1, 2, 4, 8}: the merged result and Prometheus exposition
    /// never depend on the shard count.
    #[test]
    fn random_topologies_are_shard_invariant(pods in 1usize..5, seed in any::<u64>()) {
        let cfg = cluster(pods);
        let d = SimDuration::from_millis(150);
        let base = run_partitioned(&cfg, None, seed, d, &full_options(1)).unwrap();
        let base_prom = base.prometheus();
        for shards in [2usize, 4, 8] {
            let run = run_partitioned(&cfg, None, seed, d, &full_options(shards)).unwrap();
            prop_assert_eq!(&run.result, &base.result, "shards={}", shards);
            prop_assert_eq!(run.prometheus(), base_prom.clone(), "shards={}", shards);
        }
    }

    /// **P1 + P7** over machine-generated topologies: for random
    /// `uqsim-synth` specs, every cell of `split_cells` is request-closed
    /// (each referenced instance, pool endpoint, and client root lives in
    /// the cell's own sub-scenario), and the merged result and Prometheus
    /// exposition are byte-identical at shards 1 vs 4.
    #[test]
    fn generated_topologies_are_closed_and_shard_invariant(
        replicas in 1usize..3,
        fan_max in 1usize..3,
        seed in any::<u64>(),
    ) {
        let mut spec = uqsim_synth::GenSpec::example();
        spec.replicas = replicas;
        for layer in &mut spec.layers {
            layer.fanout = uqsim_synth::CountDist::range(1, fan_max);
        }
        let cfg = spec.generate(seed).unwrap();

        // Request closure: the per-cell sub-scenario must resolve every
        // name it references, i.e. build standalone.
        let cells = split_cells(&cfg).unwrap();
        prop_assert!(cells.len() >= replicas);
        for cell in &cells {
            let names: std::collections::HashSet<&str> =
                cell.config.instances.iter().map(|i| &*i.name).collect();
            for t in &cell.config.request_types {
                for node in &t.nodes {
                    if let uqsim_core::config::NodeTargetConfig::Service {
                        instance: uqsim_core::config::InstanceSelectConfig::RoundRobin { names: rr },
                        ..
                    } = &node.target
                    {
                        for n in rr {
                            prop_assert!(names.contains(&**n),
                                "cell {} references foreign instance {}", cell.id, n);
                        }
                    }
                }
            }
            for p in &cell.config.pools {
                prop_assert!(names.contains(&*p.up) && names.contains(&*p.down));
            }
            for c in &cell.config.clients {
                for r in &c.roots {
                    prop_assert!(names.contains(&**r));
                }
            }
            cell.config.build().expect("cells build standalone");
        }

        // Byte-identity at shards 1 vs 4.
        let d = SimDuration::from_millis(100);
        let one = run_partitioned(&cfg, None, seed, d, &full_options(1)).unwrap();
        let four = run_partitioned(&cfg, None, seed, d, &full_options(4)).unwrap();
        prop_assert_eq!(&one.result, &four.result);
        prop_assert_eq!(one.prometheus(), four.prometheus());
    }
}

// ---------------------------------------------------------------------
// Streamed span logs: checked while the cell runs, in bounded memory
// ---------------------------------------------------------------------

/// A cell that checks its span log instead of keeping it owns a handful
/// of chunks however long it runs, and the checks still see every event:
/// the report is the one a retained log of the same run gets.
#[test]
fn checked_span_log_stays_within_a_few_chunks_for_any_run_length() {
    use uqsim_core::trace::{CHUNK_EVENTS, STREAM_DEPTH};
    let cfg = ScenarioConfig::from_json(include_str!("../../cli/configs/two_tier.json")).unwrap();
    let run = |secs: u64, span_tracing| {
        let opts = PartitionOptions {
            span_tracing,
            ..PartitionOptions::with_shards(1)
        };
        run_partitioned(&cfg, None, 3, SimDuration::from_secs(secs), &opts).unwrap()
    };
    let check = SpanTracing::Check {
        events: usize::MAX,
        replay: true,
    };
    let mut events = Vec::new();
    for secs in [1, 3] {
        let checked = run(secs, check);
        let cell = &checked.cells[0];
        // The cell's log went with its simulator; stream the same cell by
        // hand to look at the log such a run leaves behind.
        let mut sim = cfg.with_seed(3).build().unwrap();
        let chunks = sim.stream_span_tracing(usize::MAX);
        let (sim, streamed) = std::thread::scope(|scope| {
            // Owned here, so a panicking run drops the sender before the
            // scope joins the consumer.
            let mut sim = sim;
            let consumer = scope.spawn(move || {
                let mut streamed = 0;
                chunks.drain(|chunk| streamed += chunk.events().len());
                streamed
            });
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
            sim.close_span_stream();
            let streamed = consumer.join().unwrap();
            (sim, streamed)
        });
        let log = sim.span_log().expect("span tracing is on");
        assert_eq!(log.len(), cell.span_events, "the pipeline's stream");
        assert_eq!(streamed, log.len(), "every event was handed over");
        assert!(
            log.chunks_allocated() <= STREAM_DEPTH + 2,
            "{secs} s: {} chunks",
            log.chunks_allocated()
        );
        assert!(log.events().is_empty(), "nothing is retained");
        assert!(
            log.len() > 10 * CHUNK_EVENTS,
            "{secs} s: chunks were reused"
        );
        events.push(log.len());

        let checks = cell.checks.as_ref().expect("the log was checked");
        assert_eq!(checks.audit.events_checked, log.len());
        assert!(checks.audit.is_clean(), "{:?}", checks.audit.violations);
        let replayed = checks.replay.as_ref().expect("replay was asked for");
        assert_eq!(replayed, &Ok(()), "streaming == replay");
        assert!(cell.result.critpath.is_some());
        if secs == 1 {
            let retained = run(secs, SpanTracing::Retain(usize::MAX));
            assert_eq!(checked.audit(), retained.audit());
            assert_eq!(checked.result, retained.result);
        }
    }
    assert!(events[1] > 2 * events[0], "the longer run recorded more");
}

// ---------------------------------------------------------------------
// A batch is its runs
// ---------------------------------------------------------------------

/// A run of a batch, its groups type-erased so that one batch can mix a
/// scenario in hand with a generated cluster pulled a replica at a time.
type Groups<'a> = Box<dyn Iterator<Item = ScenarioConfig> + Send + 'a>;

/// Asserts that each run of `batch` — run by [`run_batch`] for `d` at 1, 2
/// and 4 workers — is exactly what `alone(k)` makes of run `k` by itself: the
/// same result, Prometheus text, JSON dump and audit, or the same error.
fn assert_batch_is_its_runs<'a>(
    batch: &dyn Fn() -> Vec<(Groups<'a>, u64)>,
    faults: Option<&FaultPlan>,
    d: SimDuration,
    alone: &dyn Fn(usize) -> uqsim_core::SimResult<uqsim_core::PartitionedRun>,
) {
    let alone: Vec<_> = (0..batch().len()).map(alone).collect();
    for workers in [1, 2, 4] {
        let finished = std::sync::Mutex::new(Vec::new());
        let runs = run_batch(batch(), faults, d, &full_options(workers), |k, run| {
            finished.lock().unwrap().push(k);
            run
        });
        let mut finished = finished.into_inner().unwrap();
        finished.sort_unstable();
        assert_eq!(finished, (0..alone.len()).collect::<Vec<_>>(), "once each");
        for (k, (run, alone)) in runs.iter().zip(&alone).enumerate() {
            let at = format!("run {k} at {workers} worker(s)");
            match (run, alone) {
                (Ok(run), Ok(alone)) => {
                    assert_eq!(run.result, alone.result, "{at}: result");
                    assert_eq!(run.prometheus(), alone.prometheus(), "{at}: prometheus");
                    assert_eq!(run.json(), alone.json(), "{at}: json");
                    assert_eq!(run.audit(), alone.audit(), "{at}: audit");
                    assert!(run.prometheus().is_some() && run.json().is_some());
                }
                (Err(run), Err(alone)) => {
                    assert_eq!(run.to_string(), alone.to_string(), "{at}: error")
                }
                _ => panic!(
                    "{at}: {:?} alone, {:?} in the batch",
                    alone.is_ok(),
                    run.is_ok()
                ),
            }
        }
    }
}

/// **Batch relation** (DESIGN.md §11, beside **P7**) — every run of a
/// batch gets exactly what [`run_partitioned`] gives it alone, at any
/// worker count, whatever runs beside it: three loads × two seeds of the
/// example scenario, a generated cluster streamed a replica at a time, and
/// a run naming a ghost service, which gets its own config error while
/// every other run is still `Ok`.
#[test]
fn a_batch_is_its_runs() {
    let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    let spec = uqsim_synth::GenSpec::from_json(include_str!("../../cli/configs/gen_dsb.json"))
        .expect("bundled gen spec");
    let mut ghost = cfg.clone();
    ghost.instances[0].service = "ghost".into();
    let example: Vec<(ScenarioConfig, u64)> = [500.0, 1500.0, 3000.0]
        .iter()
        .flat_map(|&qps| [1, 2].map(|seed| (cfg.with_offered_qps(qps), seed)))
        .collect();
    let batch = || {
        let mut runs: Vec<(Groups, u64)> = (example.iter())
            .map(|(cfg, seed)| (Box::new(std::iter::once(cfg.clone())) as Groups, *seed))
            .collect();
        runs.insert(3, (Box::new(spec.replicas(4).unwrap()), 4));
        runs.push((Box::new(std::iter::once(ghost.clone())), 9));
        runs
    };
    let d = SimDuration::from_millis(300);
    let alone = |k: usize| match k {
        3 => run_partitioned(spec.generate(4).unwrap(), None, 4, d, &full_options(1)),
        7 => run_partitioned(&ghost, None, 9, d, &full_options(1)),
        _ => {
            let (cfg, seed) = &example[if k < 3 { k } else { k - 1 }];
            run_partitioned(cfg, None, *seed, d, &full_options(1))
        }
    };
    assert_batch_is_its_runs(&batch, None, d, &alone);
    let err = alone(7).unwrap_err().to_string();
    assert!(err.contains("ghost"), "{err}");
    assert!((0..7).all(|k| alone(k).is_ok()));
}

/// The batch relation under a fault plan: quickstart runs at two loads ×
/// two seeds, each with the bundled plan (a crash at 1 s), are what each
/// is alone.
#[test]
fn a_faulted_batch_is_its_runs() {
    let cfg = ScenarioConfig::from_json(include_str!("../../cli/configs/quickstart.json")).unwrap();
    let plan =
        FaultPlan::from_json(include_str!("../../cli/configs/quickstart_faults.json")).unwrap();
    let runs: Vec<(ScenarioConfig, u64)> = [1000.0, 2500.0]
        .iter()
        .flat_map(|&qps| [1, 2].map(|seed| (cfg.with_offered_qps(qps), seed)))
        .collect();
    let batch = || {
        (runs.iter())
            .map(|(cfg, seed)| (Box::new(std::iter::once(cfg.clone())) as Groups, *seed))
            .collect()
    };
    let d = SimDuration::from_millis(1500);
    let alone = |k: usize| run_partitioned(&runs[k].0, Some(&plan), runs[k].1, d, &full_options(1));
    assert_batch_is_its_runs(&batch, Some(&plan), d, &alone);
    assert!(
        alone(0).unwrap().result.dropped > 0,
        "the crash drops requests"
    );
}
