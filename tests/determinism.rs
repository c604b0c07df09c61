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
            "39932/39926/2.843467908596e-4/4.493010000000e-4/7.433380000000e-4/718360",
        ),
        (
            "two_tier, noisy reference",
            two_tier(&noisy),
            "39932/39926/3.081968252119e-4/1.229319000000e-3/1.507312000000e-3/717835",
        ),
        (
            "three_tier",
            three_tier(&ThreeTierConfig::at_qps(2_000.0)),
            "3966/3966/9.596119208270e-4/6.681060000000e-3/1.244145900000e-2/93338",
        ),
        (
            "load_balanced",
            load_balanced(&LoadBalancedConfig::new(4, 20_000.0)),
            "39932/39925/3.430292445902e-4/7.096240000000e-4/1.344234000000e-3/676963",
        ),
        (
            "fanout",
            fanout(&FanoutConfig::new(8, 3_000.0)),
            "6042/6041/5.174115771242e-4/1.048464000000e-3/1.345379000000e-3/395491",
        ),
        (
            "thrift_hello",
            thrift_hello(&ThriftHelloConfig::at_qps(20_000.0)),
            "39932/39931/8.435088449511e-5/1.572850000000e-4/2.378950000000e-4/279520",
        ),
        (
            "single_nginx",
            single_nginx(5_000.0, &common),
            "10082/10081/2.811308839076e-4/9.421110000000e-4/1.800274000000e-3/68491",
        ),
        (
            "single_memcached",
            single_memcached(20_000.0, 4, &common),
            "39932/39931/8.617500282457e-5/1.498250000000e-4/2.297930000000e-4/319450",
        ),
        (
            "social_network",
            social_network(&SocialNetworkConfig::at_qps(5_000.0)),
            "10082/10080/5.029136731259e-4/6.490610000000e-4/7.195530000000e-4/614829",
        ),
        (
            "social_network_full",
            social_network_full(&SocialNetworkFullConfig::at_qps(3_000.0)),
            "6042/6039/1.598147683660e-3/1.423154400000e-2/3.336558000000e-2/338572",
        ),
        (
            "tail_at_scale",
            tail_at_scale(&TailAtScaleConfig::new(20, 0.05, 60.0)),
            "113/113/2.120613612903e-2/5.177213800000e-2/5.177213800000e-2/7347",
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
