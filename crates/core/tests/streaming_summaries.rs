//! Differential test: the streaming per-instance and per-type summaries
//! against the exact samples they replaced.
//!
//! [`Simulator::instance_residency`] and [`Simulator::type_latency_summary`]
//! read bounded histograms, so that a run keeps nothing per node visit and
//! only one sample per request. The span log still carries every value
//! that went into them — a `NodeDone` event's `t − entered` is the residence
//! time, and a measured request's `RequestEmitted.t` → `RequestCompleted.t`
//! is its end-to-end latency, of the type the completion names — so the
//! exact sample vectors can be rebuilt beside the run and summarized the
//! old way. Together the per-type vectors are exactly the samples the
//! run's exact recorder holds ([`Simulator::latency_samples`], ascending).
//! The contract: `count` and `max` equal, `mean` equal to `f64` rounding,
//! and every percentile `q̂` within `q ≤ q̂ ≤ q · (1 + 1/32)` of the exact
//! nearest-rank `q`.

use std::collections::HashMap;

use uqsim_core::config::ScenarioConfig;
use uqsim_core::ids::{InstanceId, RequestTypeId};
use uqsim_core::metrics::LatencySummary;
use uqsim_core::run::EXAMPLE_SCENARIO;
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::trace::TraceEvent;

const TWO_TIER: &str = include_str!("../../cli/configs/two_tier.json");

/// [`EXAMPLE_SCENARIO`] with a second request type: `put`, the path of
/// `get` under another name, taking 30 % of the mix.
fn two_type_scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).expect("example parses");
    let mut put = cfg.request_types[0].clone();
    put.name = "put".into();
    cfg.request_types.push(put);
    cfg.clients[0].mix = vec![("get".into(), 0.7), ("put".into(), 0.3)];
    cfg
}

fn assert_streams(what: &str, streaming: LatencySummary, exact_samples: &[f64]) {
    let exact = LatencySummary::from_samples(exact_samples);
    assert_eq!(streaming.count, exact.count, "{what}: count");
    assert_eq!(streaming.max, exact.max, "{what}: max");
    assert!(
        (streaming.mean - exact.mean).abs() <= 1e-9 * exact.mean,
        "{what}: mean {} vs exact {}",
        streaming.mean,
        exact.mean
    );
    for (name, got, q) in [
        ("p50", streaming.p50, exact.p50),
        ("p95", streaming.p95, exact.p95),
        ("p99", streaming.p99, exact.p99),
    ] {
        assert!(
            q <= got && got <= q * (1.0 + 1.0 / 32.0),
            "{what}: {name} {got} outside [{q}, {}]",
            q * (1.0 + 1.0 / 32.0)
        );
    }
}

fn check(name: &str, cfg: &ScenarioConfig, secs: f64, min_measured: usize) {
    let mut sim = cfg.build().expect("scenario builds");
    sim.enable_span_tracing(8_000_000);
    sim.run_for(SimDuration::from_secs_f64(secs));
    let log = sim.span_log().expect("span tracing is on");
    assert_eq!(log.dropped(), 0, "{name}: capacity too small for this test");

    let warmup_at = SimTime::ZERO + SimDuration::from_secs_f64(cfg.warmup_s);
    let mut residency = vec![Vec::new(); sim.instance_count()];
    let mut per_type = vec![Vec::new(); cfg.request_types.len()];
    let mut emitted = HashMap::new();
    for ev in log.events() {
        match *ev {
            TraceEvent::RequestEmitted { request, t, .. } => {
                emitted.insert(request, t);
            }
            TraceEvent::NodeDone {
                instance,
                entered,
                t,
                ..
            } if t >= warmup_at => {
                residency[instance.index()].push((t - entered).as_secs_f64());
            }
            TraceEvent::RequestCompleted {
                request,
                request_type,
                measured: true,
                t,
                ..
            } => {
                let latency = t - emitted[&request];
                per_type[request_type.index()].push(latency.as_secs_f64());
            }
            _ => {}
        }
    }
    // The span log's latencies are the recorder's samples, bit for bit.
    let mut from_log = per_type.concat();
    from_log.sort_unstable_by(f64::total_cmp);
    let recorded: Vec<f64> = sim.latency_samples().collect();
    assert!(
        from_log == recorded,
        "{name}: a sample per measured completion"
    );
    assert!(recorded.len() >= min_measured, "{name}: a trivial run");

    for (i, exact) in residency.iter().enumerate() {
        assert!(!exact.is_empty(), "{name}: instance {i} was never visited");
        let streaming = sim.instance_residency(InstanceId::from_raw(i as u32));
        assert_streams(&format!("{name}, instance {i}"), streaming, exact);
    }
    let mut typed = 0;
    for (i, exact) in per_type.iter().enumerate() {
        assert!(!exact.is_empty(), "{name}: type {i} never completed");
        let streaming = sim.type_latency_summary(RequestTypeId::from_raw(i as u32));
        assert_streams(&format!("{name}, type {i}"), streaming, exact);
        typed += streaming.count;
    }
    assert_eq!(
        typed,
        sim.latency_summary().count,
        "{name}: types partition"
    );
}

#[test]
fn streaming_summaries_track_the_exact_samples() {
    let example = ScenarioConfig::from_json(EXAMPLE_SCENARIO).expect("example parses");
    check("example", &example, 1.0, 1_500);
    let two_tier = ScenarioConfig::from_json(TWO_TIER).expect("two_tier parses");
    check("two_tier", &two_tier, 0.8, 5_000);
    check("two types", &two_type_scenario(), 1.0, 1_500);
}
