//! Telemetry overhead regression tests.
//!
//! Telemetry and the span log must *observe without perturbing* — the
//! simulation trajectory (completions, latency percentiles) is
//! bit-identical with either on and off, and so is the utilization since
//! warm-up with the sampler on and off — and the disabled telemetry path
//! must not cost more than the enabled one. What observation costs in
//! wall-clock is a ratio on the
//! `benchmark/` ledger (`telemetry.sampler_overhead`,
//! `telemetry.decomp_overhead`, `critpath.stream_overhead`).

use std::time::Instant;
use uqsim_apps::scenarios::{
    social_network, two_tier, CommonOpts, SocialNetworkConfig, TwoTierConfig,
};
use uqsim_core::ids::{InstanceId, MachineId};
use uqsim_core::telemetry::{MetricsSnapshot, TelemetryConfig};
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::Simulator;

const QPS: f64 = 20_000.0;
const SIM_SECS: f64 = 1.0;

fn build() -> Simulator {
    two_tier(&TwoTierConfig::at_qps(QPS))
        .and_then(|cfg| cfg.build())
        .expect("scenario builds")
}

/// Telemetry must be a pure observer: enabling the full stack (sampler,
/// critical-path attribution) must not change
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

/// The snapshot's bits, field by field.
fn snapshot_bits(s: &MetricsSnapshot) -> Vec<u64> {
    let mut bits = vec![
        s.instance_utilization.to_bits(),
        s.network_utilization.to_bits(),
        s.decomposed_requests,
    ];
    bits.extend(s.component_mean_s.iter().map(|m| m.to_bits()));
    bits
}

/// Utilization since warm-up is measured from the busy counters the
/// builder's one-shot sample records at the warm-up boundary, whether the
/// sampler runs or not. At a 10 ms interval a sampler tick lands on that
/// very instant, and still the snapshot and every instance's and machine's
/// utilization since warm-up are bit-identical to a run without it.
#[test]
fn sampler_does_not_move_utilization_since_warmup() {
    let common = CommonOpts {
        warmup: SimDuration::from_millis(250),
        ..CommonOpts::default()
    };
    let scenarios = [
        (
            "two_tier",
            two_tier(&TwoTierConfig {
                common: common.clone(),
                ..TwoTierConfig::at_qps(QPS)
            }),
        ),
        (
            "social_network",
            social_network(&SocialNetworkConfig {
                common,
                ..SocialNetworkConfig::at_qps(2_000.0)
            }),
        ),
    ];
    for (name, cfg) in scenarios {
        let cfg = cfg.expect("scenario builds");
        let warmup_at = SimTime::ZERO + SimDuration::from_secs_f64(cfg.warmup_s);
        let run = |sample_interval| {
            let mut sim = cfg.clone().build().expect("scenario builds");
            sim.enable_telemetry(TelemetryConfig {
                sample_interval,
                ..TelemetryConfig::default()
            });
            sim.run_for(SimDuration::from_millis(500));
            sim
        };
        let off = run(None);
        let on = run(Some(SimDuration::from_millis(10)));
        let ticks = on.telemetry_series().expect("the sampler is on").times_ns();
        assert!(
            ticks.contains(&warmup_at.as_nanos()),
            "{name}: a tick lands on the warm-up instant"
        );

        assert_eq!(
            snapshot_bits(&off.metrics_snapshot()),
            snapshot_bits(&on.metrics_snapshot()),
            "{name}: metrics snapshot"
        );
        assert!(off.metrics_snapshot().instance_utilization > 0.0, "{name}");
        for id in (0..off.instance_count()).map(|i| InstanceId::from_raw(i as u32)) {
            assert_eq!(
                off.instance_utilization(id).to_bits(),
                on.instance_utilization(id).to_bits(),
                "{name}: instance {id:?}"
            );
        }
        for m in (0..cfg.machines.len()).map(|m| MachineId::from_raw(m as u32)) {
            assert_eq!(
                off.network_utilization(m).to_bits(),
                on.network_utilization(m).to_bits(),
                "{name}: machine {m:?}"
            );
        }
    }
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
