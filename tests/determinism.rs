//! Reproducibility: for any scenario, the same seed must produce
//! bit-identical metrics, and different seeds must differ. This is what
//! makes simulation studies auditable.

use uqsim_apps::noise::NoiseProfile;
use uqsim_apps::scenarios::{
    fanout, load_balanced, single_memcached, single_nginx, social_network, social_network_full,
    tail_at_scale, three_tier, thrift_hello, two_tier, CommonOpts, FanoutConfig,
    LoadBalancedConfig, SocialNetworkConfig, SocialNetworkFullConfig, TailAtScaleConfig,
    ThreeTierConfig, ThriftHelloConfig, TwoTierConfig,
};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::metrics::LatencySummary;
use uqsim_core::partition::SpanTracing;
use uqsim_core::run::run_one;
use uqsim_core::time::SimDuration;
use uqsim_core::{run_partitioned, PartitionOptions, SimResult};

fn print(generated: u64, completed: u64, s: LatencySummary, events: u64) -> String {
    format!(
        "{generated}/{completed}/{:.12e}/{:.12e}/{:.12e}/{events}",
        s.mean, s.p99, s.max
    )
}

fn fingerprint(cfg: &ScenarioConfig) -> String {
    let mut sim = cfg.build().expect("scenario builds");
    sim.run_for(SimDuration::from_secs(2));
    print(
        sim.generated(),
        sim.completed(),
        sim.latency_summary(),
        sim.events_processed(),
    )
}

fn assert_deterministic(scenario: impl Fn(u64) -> SimResult<ScenarioConfig>, name: &str) {
    let at = |seed| fingerprint(&scenario(seed).expect("scenario assembles"));
    let a = at(42);
    assert_eq!(a, at(42), "{name}: same seed must reproduce exactly");
    assert_ne!(a, at(43), "{name}: different seeds must differ");
}

#[test]
fn two_tier_is_deterministic() {
    assert_deterministic(
        |seed| {
            let mut cfg = TwoTierConfig::at_qps(20_000.0);
            cfg.common.seed = seed;
            two_tier(&cfg)
        },
        "two_tier",
    );
}

#[test]
fn three_tier_is_deterministic() {
    assert_deterministic(
        |seed| {
            let mut cfg = ThreeTierConfig::at_qps(2_000.0);
            cfg.common.seed = seed;
            three_tier(&cfg)
        },
        "three_tier",
    );
}

#[test]
fn fanout_is_deterministic() {
    assert_deterministic(
        |seed| {
            let mut cfg = FanoutConfig::new(8, 3_000.0);
            cfg.common.seed = seed;
            fanout(&cfg)
        },
        "fanout",
    );
}

#[test]
fn social_network_is_deterministic() {
    assert_deterministic(
        |seed| {
            let mut cfg = SocialNetworkConfig::at_qps(5_000.0);
            cfg.common.seed = seed;
            social_network(&cfg)
        },
        "social_network",
    );
}

#[test]
fn determinism_survives_run_segmentation() {
    // Running 2s in one call equals running 4 x 0.5s.
    let cfg = two_tier(&TwoTierConfig::at_qps(15_000.0)).unwrap();
    let mut whole = cfg.build().unwrap();
    whole.run_for(SimDuration::from_secs(2));

    let mut parts = cfg.build().unwrap();
    for _ in 0..4 {
        parts.run_for(SimDuration::from_millis(500));
    }
    assert_eq!(whole.generated(), parts.generated());
    assert_eq!(whole.completed(), parts.completed());
    assert_eq!(whole.latency_summary(), parts.latency_summary());
}

/// Every paper scenario at its default deployment, with the fingerprint the
/// hand-written, id-typed builder version of it produced before the
/// scenarios became data (recorded at commit e7a9e8d). A scenario function
/// whose description drifts — a reordered instance, a renamed path, another
/// request size — moves these.
fn pinned_scenarios() -> Vec<(&'static str, SimResult<ScenarioConfig>, &'static str)> {
    let common = CommonOpts::default();
    let mut noisy = TwoTierConfig::at_qps(20_000.0);
    noisy.common.noise = Some(NoiseProfile::default());
    vec![
        (
            "two_tier",
            two_tier(&TwoTierConfig::at_qps(20_000.0)),
            "40071/40066/2.849895208960e-4/4.488950000000e-4/7.720290000000e-4/720892",
        ),
        (
            "two_tier, noisy reference",
            two_tier(&noisy),
            "40071/40066/3.120175515859e-4/1.249728000000e-3/2.368656000000e-3/720402",
        ),
        (
            "three_tier",
            three_tier(&ThreeTierConfig::at_qps(2_000.0)),
            "4011/4011/1.048985782716e-3/7.594321000000e-3/1.452483800000e-2/94715",
        ),
        (
            "load_balanced",
            load_balanced(&LoadBalancedConfig::new(4, 20_000.0)),
            "40071/40065/3.458662723993e-4/7.316700000000e-4/1.346060000000e-3/679315",
        ),
        (
            "fanout",
            fanout(&FanoutConfig::new(8, 3_000.0)),
            "6064/6064/5.158318721854e-4/1.028544000000e-3/1.480273000000e-3/396930",
        ),
        (
            "thrift_hello",
            thrift_hello(&ThriftHelloConfig::at_qps(20_000.0)),
            "40071/40068/8.461747111000e-5/1.590320000000e-4/2.923750000000e-4/280488",
        ),
        (
            "single_nginx",
            single_nginx(5_000.0, &common),
            "10136/10136/2.808069175942e-4/9.482010000000e-4/1.631521000000e-3/68860",
        ),
        (
            "single_memcached",
            single_memcached(20_000.0, 4, &common),
            "40071/40067/8.622862250063e-5/1.468920000000e-4/2.514050000000e-4/320553",
        ),
        (
            "social_network",
            social_network(&SocialNetworkConfig::at_qps(5_000.0)),
            "10136/10135/5.027383950810e-4/6.363810000000e-4/7.489650000000e-4/618168",
        ),
        (
            "social_network_full",
            social_network_full(&SocialNetworkFullConfig::at_qps(3_000.0)),
            "6064/6064/1.386977899471e-3/1.152407600000e-2/2.354075200000e-2/338512",
        ),
        (
            "tail_at_scale",
            tail_at_scale(&TailAtScaleConfig::new(20, 0.05, 60.0)),
            "132/131/2.543655195946e-2/9.054889700000e-2/9.054889700000e-2/8518",
        ),
    ]
}

#[test]
fn scenarios_as_data_reproduce_the_builder_trajectories() {
    // Three 2-second runs per row: spread the rows over the cores.
    let rows = pinned_scenarios();
    minipool::Pool::with_available_jobs().map_indexed(rows.len(), |i| {
        let (name, cfg, pinned) = &rows[i];
        let cfg = cfg.as_ref().expect("scenario assembles");
        assert_eq!(fingerprint(cfg), *pinned, "{name}: cfg.build()");

        // The JSON a figure cell is printed as is the same scenario.
        let parsed = ScenarioConfig::from_json(&cfg.to_json()).expect("its JSON parses");
        assert_eq!(parsed, *cfg, "{name}: to_json → from_json");
        assert_eq!(fingerprint(&parsed), *pinned, "{name}: from_json(to_json)");

        // And the one run pipeline takes it down the same trajectory.
        let run = run_one(cfg, cfg.seed, SimDuration::from_secs(2)).expect("runs");
        let piped = print(
            run.generated,
            run.completed,
            run.latency,
            run.events_processed,
        );
        assert_eq!(piped, *pinned, "{name}: run_one");
    });
}

/// `uqsim why` reaches a figure's cell: Fig. 10's fan-out 16 at 8 kQPS,
/// run as the figure runs it but with its span events streamed to the
/// auditor and replayed into a second critical-path profile.
#[test]
fn a_figure_cell_is_audit_clean_under_why() {
    let mut cell = FanoutConfig::new(16, 8_000.0);
    cell.common.warmup = SimDuration::from_millis(500);
    let cfg = fanout(&cell).unwrap();
    let checked = PartitionOptions {
        span_tracing: SpanTracing::Check {
            events: 8_000_000,
            replay: true,
        },
        ..PartitionOptions::default()
    };
    let run = run_partitioned(&cfg, None, cfg.seed, SimDuration::from_secs(1), &checked).unwrap();
    assert_eq!(
        run.cells.len(),
        1,
        "a figure cell is one connected scenario"
    );
    let cell = &run.cells[0];
    assert_eq!(cell.span_dropped, 0, "span log truncated");
    let checks = cell.checks.as_ref().expect("the run asked for checks");
    assert!(
        checks.audit.is_clean(),
        "audit violations: {:#?}",
        checks.audit.violations
    );
    assert!(checks.audit.spans_checked > 0, "no spans audited");
    assert_eq!(checks.replay, Some(Ok(())), "streaming == replay");
}
