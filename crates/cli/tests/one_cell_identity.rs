//! The run pipeline's base case (spec invariant **P7**, "any shard count
//! *including none*"): a scenario that does not split is one cell under
//! the master seed, and the merge of one cell is the identity — so
//! `run_partitioned` on each bundled config, healthy and faulted, equals a
//! bare [`Simulator`](uqsim_core::Simulator) built from the same config
//! with the same observers, for every artifact: run summary, Prometheus,
//! CSV, JSON, Chrome trace, and audit. No cell label, `c0:` id prefix,
//! `[cell 0]` tag or `"cells"` wrapper appears.

use uqsim_core::config::ScenarioConfig;
use uqsim_core::partition::SpanTracing;
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::time::SimDuration;
use uqsim_core::{run_partitioned, FaultPlan, PartitionOptions};

const SEED: u64 = 11;
const SPAN_EVENTS: usize = 4_000_000;

/// A crash + slowdown + retry policy that bites inside the first simulated
/// second (the bundled plans start at 1 s, too late for a debug-build
/// test).
fn early_faults(instance: &str, machine: &str, client: &str) -> FaultPlan {
    FaultPlan::from_json(&format!(
        r#"{{
  "faults": [
    {{ "kind": "instance_crash", "instance": "{instance}",
      "at_s": 0.52, "restart_after_s": 0.05 }},
    {{ "kind": "machine_slowdown", "machine": "{machine}",
      "at_s": 0.58, "duration_s": 0.05, "factor": 3.0 }}
  ],
  "policy": {{
    "clients": [
      {{ "client": "{client}", "max_retries": 2,
        "backoff_base_s": 0.002, "backoff_cap_s": 0.05, "jitter": 0.5 }}
    ]
  }}
}}"#
    ))
    .expect("fault json parses")
}

fn pretty(v: &serde_json::Value) -> String {
    serde_json::to_string_pretty(v).expect("a JSON value serializes")
}

/// Runs `cfg` both ways with every observer on and compares every
/// artifact. (More shards than cells: the spare workers must not matter.)
fn assert_identity(name: &str, cfg: &ScenarioConfig, faults: Option<&FaultPlan>) {
    // Just past the bundled configs' 0.5 s warm-up: debug builds render
    // the whole Chrome trace twice.
    let duration = SimDuration::from_millis(650);
    let telemetry = TelemetryConfig {
        sample_interval: Some(SimDuration::from_millis(50)),
        critpath: true,
        ..TelemetryConfig::default()
    };

    let mut bare = cfg.with_seed(SEED).build().expect("bundled config builds");
    if let Some(plan) = faults {
        bare.install_faults(plan).expect("plan names real entities");
    }
    bare.enable_telemetry(telemetry);
    bare.enable_span_tracing(SPAN_EVENTS);
    bare.run_for(duration);

    let opts = PartitionOptions {
        shards: 2,
        telemetry: Some(telemetry),
        span_tracing: SpanTracing::Retain(SPAN_EVENTS),
    };
    let run = run_partitioned(cfg, faults, SEED, duration, &opts).expect("run succeeds");
    let what = format!("{name}, faulted={}", faults.is_some());
    assert_eq!(run.cells.len(), 1, "{what}: bundled configs are one cell");
    assert_eq!(run.cells[0].span_dropped, 0, "{what}: raise SPAN_EVENTS");

    let r = &run.result;
    assert_eq!(r, &run.cells[0].result, "{what}: merged summary");
    assert_eq!(r.seed, SEED, "{what}");
    assert!(r.latency.count > 0, "{what}: empty measurement window");
    assert_eq!(r.generated, bare.generated(), "{what}");
    assert_eq!(r.completed, bare.completed(), "{what}");
    assert_eq!(r.events_processed, bare.events_processed(), "{what}");
    assert_eq!(r.latency, bare.latency_summary(), "{what}");
    assert_eq!(r.timeout_latency, bare.timeout_latency_summary(), "{what}");
    // The cell keeps the bare simulator's samples: the same ascending
    // sequence, bit for bit.
    let cell = &run.cells[0];
    let bits = |ascending: uqsim_core::metrics::Ascending| -> Vec<u64> {
        ascending.map(f64::to_bits).collect()
    };
    for (kept, bare_samples) in [
        (&cell.latency_samples, bare.latency_samples()),
        (
            &cell.timeout_latency_samples,
            bare.timeout_latency_samples(),
        ),
    ] {
        assert_eq!(kept.len(), bare_samples.len(), "{what}: sample count");
        assert!(
            bits(kept.ascending()) == bits(bare_samples),
            "{what}: not the bare run's samples"
        );
    }
    assert_eq!(r.metrics, bare.metrics_snapshot(), "{what}");
    assert_eq!(r.fault, bare.fault_summary(), "{what}");
    assert_eq!(r.critpath, bare.critpath_profile(), "{what}");
    if faults.is_some() {
        assert!(r.dropped + r.retried > 0, "{what}: the plan never bit");
    }

    assert_eq!(run.prometheus(), bare.metrics_prometheus(), "{what}");
    assert_eq!(run.csv(), bare.metrics_csv(), "{what}");
    assert_eq!(
        pretty(&run.json().expect("sampler on")),
        pretty(&bare.metrics_json()),
        "{what}: metrics JSON"
    );
    let chrome = serde_json::to_value(run.chrome_trace().expect("span tracing on")).unwrap();
    assert!(
        Some(&chrome) == serde_json::to_value(bare.chrome_trace()).ok().as_ref(),
        "{what}: Chrome trace differs"
    );
    let ids = chrome["traceEvents"].as_array().expect("traceEvents");
    assert!(
        !ids.iter()
            .filter_map(|ev| ev["id"].as_str())
            .any(|id| id.starts_with("c0:")),
        "{what}: cell-prefixed span id"
    );
    let audit = run.audit().expect("span tracing on");
    assert_eq!(Some(&audit), bare.audit_trace().as_ref(), "{what}");
    assert!(audit.is_clean(), "{what}: {:?}", audit.violations);
}

#[test]
fn quickstart_one_cell_run_is_the_bare_simulator() {
    let cfg = ScenarioConfig::from_json(include_str!("../configs/quickstart.json")).unwrap();
    assert_identity("quickstart", &cfg, None);
    let plan = early_faults("api0", "server0", "wrk2");
    assert_identity("quickstart", &cfg, Some(&plan));
}

#[test]
fn two_tier_one_cell_run_is_the_bare_simulator() {
    let cfg = ScenarioConfig::from_json(include_str!("../configs/two_tier.json")).unwrap();
    assert_identity("two_tier", &cfg, None);
    let plan = early_faults("memcached", "cache-host", "wrk2");
    assert_identity("two_tier", &cfg, Some(&plan));
}

#[test]
fn social_network_one_cell_run_is_the_bare_simulator() {
    let cfg = ScenarioConfig::from_json(include_str!("../configs/social_network.json")).unwrap();
    assert_identity("social_network", &cfg, None);
    let plan = early_faults("post", "backend-host", "clients");
    assert_identity("social_network", &cfg, Some(&plan));
}
