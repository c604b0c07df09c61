//! Telemetry overhead regression tests.
//!
//! Telemetry and the span log must *observe without perturbing* — the
//! simulation trajectory (completions, latency percentiles) is
//! bit-identical with either on and off — and the disabled telemetry path
//! must not cost more than the enabled one. What observation costs in
//! wall-clock is a ratio on the
//! `benchmark/` ledger (`telemetry.sampler_overhead`,
//! `telemetry.decomp_overhead`, `critpath.stream_overhead`).

use std::time::Instant;
use uqsim_apps::scenarios::{two_tier, TwoTierConfig};
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::time::SimDuration;
use uqsim_core::Simulator;

const QPS: f64 = 20_000.0;
const SIM_SECS: f64 = 1.0;

fn build() -> Simulator {
    two_tier(&TwoTierConfig::at_qps(QPS))
        .and_then(|cfg| cfg.build())
        .expect("scenario builds")
}

/// Telemetry must be a pure observer: enabling the full stack (sampler,
/// self-profiling, critical-path attribution) must not change
/// a single completion or latency sample. Sampler ticks are extra
/// *events*, but they only read state, so the trajectory every other event
/// takes is unchanged.
#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let mut plain = build();
    plain.run_for(SimDuration::from_secs_f64(SIM_SECS));

    let mut instrumented = build();
    instrumented.enable_telemetry(TelemetryConfig {
        sample_interval: Some(SimDuration::from_millis(10)),
        self_profile: true,
        critpath: true,
    });
    instrumented.run_for(SimDuration::from_secs_f64(SIM_SECS));

    assert_eq!(plain.generated(), instrumented.generated());
    assert_eq!(plain.completed(), instrumented.completed());
    assert_eq!(plain.timeouts(), instrumented.timeouts());
    assert_eq!(
        plain.latency_summary(),
        instrumented.latency_summary(),
        "latency distribution drifted under telemetry"
    );
    // The only event-count difference is the sampler's own ticks.
    let extra = instrumented.events_processed() - plain.events_processed();
    let expected_ticks = (SIM_SECS / 0.010) as u64;
    assert!(
        extra <= expected_ticks + 2,
        "telemetry added {extra} events, expected at most {} sampler ticks",
        expected_ticks + 2
    );
}

/// The span log is where per-type and per-tier numbers come from, so
/// recording it must not move the run it describes: not one request, event
/// or latency sample. Unlike the sampler it schedules nothing, so even the
/// event count is the plain run's.
#[test]
fn span_tracing_does_not_perturb_the_simulation() {
    let mut plain = build();
    plain.run_for(SimDuration::from_secs_f64(SIM_SECS));

    let mut traced = build();
    traced.enable_span_tracing(2_000_000);
    traced.run_for(SimDuration::from_secs_f64(SIM_SECS));
    let log = traced.span_log().expect("span tracing is on");
    assert_eq!(log.dropped(), 0, "the log holds the whole run");
    assert!(!log.is_empty());

    assert_eq!(plain.generated(), traced.generated());
    assert_eq!(plain.completed(), traced.completed());
    assert_eq!(plain.events_processed(), traced.events_processed());
    assert_eq!(
        plain.latency_summary(),
        traced.latency_summary(),
        "latency distribution drifted under span tracing"
    );
}

/// Loose, noise-proof sanity bound that runs everywhere: the decomposition
/// hooks on the disabled path are `Option::is_none` checks, so a run with
/// telemetry disabled must not be dramatically slower than one with the
/// full stack enabled (they do the same simulation work).
#[test]
fn disabled_telemetry_is_not_slower_than_enabled() {
    // Warm both paths once so neither measurement pays first-touch costs.
    let mut warm = build();
    warm.run_for(SimDuration::from_millis(100));

    let start = Instant::now();
    let mut off = build();
    off.run_for(SimDuration::from_secs_f64(SIM_SECS));
    let off_wall = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut on = build();
    on.enable_telemetry(TelemetryConfig {
        sample_interval: Some(SimDuration::from_millis(10)),
        self_profile: true,
        ..TelemetryConfig::default()
    });
    on.run_for(SimDuration::from_secs_f64(SIM_SECS));
    let on_wall = start.elapsed().as_secs_f64();

    // 3x headroom: this guards against pathological regressions (e.g. a
    // hook doing real work on the disabled path), not percentage points.
    assert!(
        off_wall < on_wall * 3.0,
        "telemetry-disabled run ({off_wall:.3}s) is much slower than enabled ({on_wall:.3}s)"
    );
}
