//! Differential test: the span log against the exact latency recorder.
//!
//! A run keeps one exact sample per measured request
//! ([`Simulator::latency_samples`], ascending) and nothing per node visit
//! or per request type; those are views of the span log. A measured
//! request's `RequestEmitted.t` → `RequestCompleted.t` is its end-to-end
//! latency, of the type the completion names, and a `NodeDone` event's
//! `t − entered` is a residence time. The contract: the log's latencies
//! are the recorder's samples bit for bit, the request types partition
//! them, and every instance has measured node visits.
//!
//! [`Simulator::latency_samples`]: uqsim_core::Simulator::latency_samples

use std::collections::HashMap;

use uqsim_core::config::ScenarioConfig;
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

fn check(name: &str, cfg: &ScenarioConfig, secs: f64, min_measured: usize) {
    let mut sim = cfg.build().expect("scenario builds");
    sim.enable_span_tracing(8_000_000);
    sim.run_for(SimDuration::from_secs_f64(secs));
    let log = sim.span_log().expect("span tracing is on");
    assert_eq!(log.dropped(), 0, "{name}: capacity too small for this test");

    let warmup_at = SimTime::ZERO + SimDuration::from_secs_f64(cfg.warmup_s);
    let mut visits = vec![0usize; sim.instance_count()];
    let mut per_type = vec![Vec::new(); cfg.request_types.len()];
    let mut emitted = HashMap::new();
    for ev in log.events() {
        match *ev {
            TraceEvent::RequestEmitted { request, t, .. } => {
                emitted.insert(request, t);
            }
            TraceEvent::NodeDone { instance, t, .. } if t >= warmup_at => {
                visits[instance.index()] += 1;
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

    for (i, &n) in visits.iter().enumerate() {
        assert!(n > 0, "{name}: instance {i} was never visited");
    }
    let mut typed = 0;
    for (i, samples) in per_type.iter().enumerate() {
        assert!(!samples.is_empty(), "{name}: type {i} never completed");
        typed += samples.len();
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
