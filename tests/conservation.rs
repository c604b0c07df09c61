//! Conservation and leak-freedom: requests and jobs are never lost or
//! duplicated, connection pools never leak, and in-flight work is bounded
//! by the configured concurrency limits — across every scenario topology.

use uqsim_apps::scenarios::{
    fanout, social_network, three_tier, two_tier, FanoutConfig, SocialNetworkConfig,
    ThreeTierConfig, TwoTierConfig,
};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::time::SimDuration;
use uqsim_core::{SimResult, Simulator};

fn built(cfg: SimResult<ScenarioConfig>) -> Simulator {
    cfg.and_then(|cfg| cfg.build()).expect("scenario builds")
}

fn check_conservation(mut sim: Simulator, name: &str, max_inflight: usize) {
    sim.run_for(SimDuration::from_secs(3));
    let generated = sim.generated();
    let completed = sim.completed();
    let live = sim.live_requests() as u64;
    assert_eq!(
        generated,
        completed + live,
        "{name}: generated = completed + live violated ({generated} != {completed} + {live})"
    );
    assert!(
        sim.live_requests() <= max_inflight,
        "{name}: in-flight {} exceeds client concurrency bound {max_inflight}",
        sim.live_requests()
    );
    assert!(completed > 0, "{name}: nothing completed");
}

#[test]
fn two_tier_conserves_below_saturation() {
    check_conservation(
        built(two_tier(&TwoTierConfig::at_qps(30_000.0))),
        "two_tier",
        320,
    );
}

#[test]
fn two_tier_conserves_in_overload() {
    // Overload: the client conns bound the launched in-flight work; the
    // remainder queues on connections, still accounted as live.
    let mut sim = built(two_tier(&TwoTierConfig::at_qps(120_000.0)));
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        sim.generated(),
        sim.completed() + sim.live_requests() as u64
    );
}

#[test]
fn three_tier_conserves_with_probabilistic_paths() {
    check_conservation(
        built(three_tier(&ThreeTierConfig::at_qps(2_500.0))),
        "three_tier",
        320,
    );
}

#[test]
fn fanout_conserves_with_fan_in_joins() {
    check_conservation(
        built(fanout(&FanoutConfig::new(16, 3_000.0))),
        "fanout16",
        320,
    );
}

#[test]
fn social_network_conserves_with_blocking_threads() {
    check_conservation(
        built(social_network(&SocialNetworkConfig::at_qps(8_000.0))),
        "social",
        320,
    );
}

#[test]
fn trace_auditor_is_clean_across_topologies() {
    // The span-trace auditor re-derives conservation, causality, core/thread
    // non-overlap, fan-in accounting, and pool discipline from the raw event
    // stream — run it over every scenario topology. Sequential (one log live
    // at a time) to bound memory.
    let scenarios: Vec<(&str, Simulator)> = vec![
        (
            "two_tier",
            built(two_tier(&TwoTierConfig::at_qps(30_000.0))),
        ),
        (
            "three_tier",
            built(three_tier(&ThreeTierConfig::at_qps(2_500.0))),
        ),
        ("fanout16", built(fanout(&FanoutConfig::new(16, 3_000.0)))),
        (
            "social",
            built(social_network(&SocialNetworkConfig::at_qps(8_000.0))),
        ),
    ];
    for (name, mut sim) in scenarios {
        sim.enable_span_tracing(4_000_000);
        sim.run_for(SimDuration::from_secs_f64(0.5));
        let log = sim.span_log().unwrap();
        assert_eq!(log.dropped(), 0, "{name}: trace log overflowed");
        assert!(!log.is_empty(), "{name}: no trace events recorded");
        let report = sim.audit_trace().unwrap();
        assert!(
            report.is_clean(),
            "{name}: audit violations: {:#?}",
            report.violations
        );
        assert!(report.spans_checked > 0, "{name}: no spans audited");
    }
}

#[test]
fn jobs_do_not_leak_over_time() {
    // Live jobs should stay bounded over a long run (no slow leak).
    let mut sim = built(two_tier(&TwoTierConfig::at_qps(30_000.0)));
    sim.run_for(SimDuration::from_secs(1));
    let early = sim.live_jobs();
    sim.run_for(SimDuration::from_secs(5));
    let late = sim.live_jobs();
    assert!(
        late <= early.max(50) * 4,
        "live jobs grew from {early} to {late} — likely a leak"
    );
}

#[test]
fn queue_depths_stable_below_saturation() {
    let mut sim = built(two_tier(&TwoTierConfig::at_qps(40_000.0)));
    sim.run_for(SimDuration::from_secs(4));
    let nginx = sim.instance_by_name("nginx").unwrap();
    let mc = sim.instance_by_name("memcached").unwrap();
    assert!(sim.instance_queue_depth(nginx) < 1_000);
    assert!(sim.instance_queue_depth(mc) < 1_000);
}

#[test]
fn utilizations_are_physical() {
    let mut sim = built(two_tier(&TwoTierConfig::at_qps(40_000.0)));
    sim.run_for(SimDuration::from_secs(3));
    for name in ["nginx", "memcached"] {
        let id = sim.instance_by_name(name).unwrap();
        let u = sim.instance_utilization(id);
        assert!(
            (0.0..=1.0).contains(&u),
            "{name} utilization {u} out of [0,1]"
        );
        assert!(u > 0.01, "{name} should be doing work");
    }
    for m in 0..2u32 {
        let m = uqsim_core::ids::MachineId::from_raw(m);
        let u = sim.network_utilization(m);
        assert!(
            (0.0..=1.0).contains(&u),
            "network utilization {u} out of [0,1]"
        );
    }
}
