//! Integration tests of critical-path attribution: the streaming
//! (in-sim) fold and the post-hoc trace replay must produce *identical*
//! CPC profiles — the correspondence that lets `uqsim why` validate its
//! own bookkeeping on every run — both on a clean run and under a fault
//! plan with retries, crashes, and slowdowns in play. The latency
//! decomposition must be the same attribution, summed by kind instead of
//! folded by site.

use std::collections::BTreeMap;
use uqsim_core::config::ScenarioConfig;
use uqsim_core::critpath::{CpcProfile, EdgeKind};
use uqsim_core::fault::FaultPlan;
use uqsim_core::run::{EXAMPLE_FAULTS, EXAMPLE_SCENARIO};
use uqsim_core::telemetry::{Metric, MetricValue, StreamingHistogram, TelemetryConfig};
use uqsim_core::time::SimDuration;
use uqsim_core::Simulator;

const SPAN_CAPACITY: usize = 4_000_000;

fn streaming_and_replayed(faults: Option<&str>) -> (CpcProfile, CpcProfile) {
    let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    let mut sim = cfg.build().unwrap();
    if let Some(text) = faults {
        let plan = FaultPlan::from_json(text).unwrap();
        sim.install_faults(&plan).unwrap();
    }
    sim.enable_span_tracing(SPAN_CAPACITY);
    sim.enable_telemetry(TelemetryConfig {
        critpath: true,
        ..TelemetryConfig::default()
    });
    sim.run_for(SimDuration::from_secs(2));

    let log = sim.span_log().expect("span tracing is on");
    assert_eq!(log.dropped(), 0, "span log truncated; raise SPAN_CAPACITY");
    let replayed = CpcProfile::from_trace(log, &sim.trace_meta())
        .expect("replay telescopes on a complete trace");
    let streaming = sim.critpath_profile().expect("critpath telemetry is on");
    (streaming, replayed)
}

/// Clean run: the bounded-memory streaming fold and the full trace replay
/// agree bit-for-bit, and both saw real traffic.
#[test]
fn streaming_equals_replay_on_clean_run() {
    let (streaming, replayed) = streaming_and_replayed(None);
    assert!(streaming.requests() > 0, "no requests measured");
    assert_eq!(
        streaming, replayed,
        "streaming and trace-replayed CPC profiles disagree"
    );
}

/// Faulted run: crashes, a machine slowdown, and client retries exercise
/// the retry_backoff / blocking edge kinds; the two folds must still
/// agree exactly.
#[test]
fn streaming_equals_replay_under_faults() {
    let (streaming, replayed) = streaming_and_replayed(Some(EXAMPLE_FAULTS));
    assert!(streaming.requests() > 0, "no requests measured");
    assert_eq!(
        streaming, replayed,
        "streaming and trace-replayed CPC profiles disagree under faults"
    );
}

/// The decomposition component a CPC entry of `kind` counts under: a
/// retry's wait for a client connection is client wait there.
fn component_of(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::RetryBackoff => EdgeKind::ClientWait.name(),
        kind => kind.name(),
    }
}

/// `scenario` (under `faults`) run for `secs` simulated seconds with
/// decomposition telemetry on, and the streaming fold by site as `critpath`
/// says.
fn decomposed_run(scenario: &str, faults: Option<&str>, critpath: bool, secs: f64) -> Simulator {
    let mut sim = ScenarioConfig::from_json(scenario)
        .unwrap()
        .build()
        .unwrap();
    if let Some(text) = faults {
        sim.install_faults(&FaultPlan::from_json(text).unwrap())
            .unwrap();
    }
    sim.enable_telemetry(TelemetryConfig {
        critpath,
        ..TelemetryConfig::default()
    });
    sim.run_for(SimDuration::from_secs_f64(secs));
    sim
}

/// The histogram of an adding summary.
fn histogram(m: &Metric) -> &StreamingHistogram {
    match &m.value {
        MetricValue::Histogram(h) => h,
        other => panic!("not an adding summary: {other:?}"),
    }
}

/// The Prometheus lines of the two decomposition families.
fn decomposition_lines(prometheus: &str) -> Vec<&str> {
    prometheus
        .lines()
        .filter(|l| {
            let name = l
                .trim_start_matches("# HELP ")
                .trim_start_matches("# TYPE ");
            name.starts_with("uqsim_e2e_latency_seconds")
                || name.starts_with("uqsim_latency_component_seconds")
        })
        .collect()
}

/// The latency decomposition and the CPC profile are one attribution:
/// each component's nanoseconds in `uqsim_latency_component_seconds` are
/// the profile's nanoseconds of that kind, summed over sites, and the e2e
/// summary counts and sums what the profile folded. The decomposition
/// renders the same bytes whether the fold by site is on or off. Returns
/// the profile.
fn assert_one_attribution(scenario: &str, faults: Option<&str>, secs: f64) -> CpcProfile {
    let sim = decomposed_run(scenario, faults, true, secs);
    let profile = sim.critpath_profile().expect("critpath telemetry is on");
    assert!(profile.requests() > 0, "no requests measured");
    let mut by_component: BTreeMap<&'static str, u128> = BTreeMap::new();
    for e in profile.entries() {
        *by_component.entry(component_of(e.kind)).or_default() += u128::from(e.total_ns());
    }
    let registry = sim.metrics_registry();
    let components = registry.metrics_of("uqsim_latency_component_seconds");
    assert_eq!(components.len(), 6, "six decomposition components");
    for m in components {
        let name = m.labels[0].1.as_str();
        let h = histogram(m);
        assert_eq!(
            h.sum_ns(),
            by_component.get(name).copied().unwrap_or(0),
            "component {name}: decomposition and CPC profile disagree"
        );
        assert_eq!(h.count(), profile.requests(), "component {name} count");
    }
    for name in by_component.keys() {
        assert!(
            components.iter().any(|m| m.labels[0].1 == *name),
            "CPC kind {name} has no decomposition column"
        );
    }
    let [e2e] = registry.metrics_of("uqsim_e2e_latency_seconds") else {
        panic!("one e2e summary");
    };
    let e2e = histogram(e2e);
    assert_eq!(e2e.count(), profile.e2e().count(), "e2e count");
    assert_eq!(e2e.sum_ns(), profile.e2e().sum_ns(), "e2e sum");

    let plain = decomposed_run(scenario, faults, false, secs);
    assert!(plain.critpath_profile().is_none());
    let (on, off) = (sim.metrics_prometheus(), plain.metrics_prometheus());
    let (on, off) = (decomposition_lines(&on), decomposition_lines(&off));
    assert_eq!(
        on.len(),
        2 * 2 + 7 * 5,
        "HELP and TYPE, five lines a summary"
    );
    assert_eq!(on, off, "the fold by site changed the decomposition");
    profile
}

/// Nanoseconds of `kind` on the critical paths of `profile`.
fn kind_ns(profile: &CpcProfile, kind: EdgeKind) -> u64 {
    (profile.entries().iter())
        .filter(|e| e.kind == kind)
        .map(|e| e.total_ns())
        .sum()
}

#[test]
fn decomposition_is_the_critical_path_by_kind_on_clean_run() {
    assert_one_attribution(EXAMPLE_SCENARIO, None, 2.0);
}

/// Three 2 ms crashes of the example's instance with a client that
/// retries: the retries land after each restart and complete.
const SHORT_CRASHES: &str = r#"{
  "faults": [
    { "kind": "instance_crash", "instance": "api0", "at_s": 0.2, "restart_after_s": 0.002 },
    { "kind": "instance_crash", "instance": "api0", "at_s": 0.6, "restart_after_s": 0.002 },
    { "kind": "instance_crash", "instance": "api0", "at_s": 1.0, "restart_after_s": 0.002 }
  ],
  "policy": { "clients": [
    { "client": "wrk", "max_retries": 3, "backoff_base_s": 0.002, "backoff_cap_s": 0.01 }
  ] }
}"#;

/// Retries' `retry_backoff` segments count as client wait in the
/// decomposition.
/// Under `EXAMPLE_FAULTS` every retry falls inside the crash window and
/// fails again, so none is measured; the short crashes on a one-connection
/// client get retries that complete after queueing for the connection,
/// which is the wait charged as `retry_backoff`.
#[test]
fn decomposition_is_the_critical_path_by_kind_under_faults() {
    assert_one_attribution(EXAMPLE_SCENARIO, Some(EXAMPLE_FAULTS), 2.0);
    let one_conn = EXAMPLE_SCENARIO.replace(r#""connections": 64"#, r#""connections": 1"#);
    assert_ne!(
        one_conn, EXAMPLE_SCENARIO,
        "the example client has 64 connections"
    );
    let profile = assert_one_attribution(&one_conn, Some(SHORT_CRASHES), 2.0);
    assert!(
        kind_ns(&profile, EdgeKind::RetryBackoff) > 0,
        "the plan's retries left no retry_backoff segment on the critical path"
    );
}

/// A multi-tier topology: pools, fan-out and fan-in put blocking and
/// synchronization time on the critical path too.
#[test]
fn decomposition_is_the_critical_path_by_kind_on_social_network() {
    let scenario = include_str!("../../cli/configs/social_network.json");
    let profile = assert_one_attribution(scenario, None, 1.5);
    for kind in [
        EdgeKind::Network,
        EdgeKind::QueueWait,
        EdgeKind::Service,
        EdgeKind::FanInSync,
    ] {
        assert!(kind_ns(&profile, kind) > 0, "no {} time", kind.name());
    }
}
