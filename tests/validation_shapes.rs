//! Paper-shape integration tests: the qualitative results each evaluation
//! figure reports must hold in the reproduction. These are the cheap,
//! always-on versions of the full regenerators in `uqsim-bench`.

use uqsim_apps::scenarios::{
    fanout, load_balanced, single_memcached, single_nginx, tail_at_scale, three_tier, two_tier,
    CommonOpts, FanoutConfig, LoadBalancedConfig, TailAtScaleConfig, ThreeTierConfig,
    TwoTierConfig,
};
use uqsim_bighouse::{service_distribution_for, BigHouse, BigHouseConfig};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::dist::Distribution;
use uqsim_core::time::SimDuration;
use uqsim_core::SimResult;

fn throughput_of(cfg: SimResult<ScenarioConfig>, secs: u64) -> (f64, f64) {
    let mut sim = cfg.and_then(|cfg| cfg.build()).expect("scenario builds");
    sim.run_for(SimDuration::from_secs(secs));
    let s = sim.latency_summary();
    let warm = sim.config().warmup.as_secs_f64();
    (s.count as f64 / (secs as f64 - warm), s.p99)
}

/// Fig. 5 shape: saturation tracks the NGINX worker count, and extra
/// memcached threads do not help.
#[test]
fn fig05_shape_nginx_binds_two_tier() {
    // 4p NGINX cannot do 50k; 8p can.
    let mut c4 = TwoTierConfig::at_qps(50_000.0);
    c4.nginx_procs = 4;
    c4.memcached_threads = 2;
    let (t4, _) = throughput_of(two_tier(&c4), 3);
    assert!(t4 < 45_000.0, "4p should saturate below 50k, got {t4}");

    let c8 = TwoTierConfig::at_qps(50_000.0);
    let (t8, _) = throughput_of(two_tier(&c8), 3);
    assert!(t8 > 47_500.0, "8p should sustain 50k, got {t8}");

    // More memcached threads at 4p: no improvement (front end binds).
    let mut c4big = c4.clone();
    c4big.memcached_threads = 4;
    let (t4b, _) = throughput_of(two_tier(&c4big), 3);
    assert!(
        (t4b - t4).abs() / t4 < 0.05,
        "extra memcached threads must not change throughput: {t4} vs {t4b}"
    );
}

/// Fig. 6 shape: the 3-tier app saturates at a tiny fraction of the 2-tier
/// app's load (disk-bound), with a millisecond-scale latency floor.
#[test]
fn fig06_shape_three_tier_disk_bound() {
    let cfg = ThreeTierConfig::at_qps(2_000.0);
    let mut sim = three_tier(&cfg).unwrap().build().unwrap();
    sim.run_for(SimDuration::from_secs(3));
    let s = sim.latency_summary();
    assert!(
        s.mean > 0.4e-3,
        "disk misses should push mean latency up: {}",
        s.mean
    );
    // Overload far below the 2-tier saturation point.
    let over = ThreeTierConfig::at_qps(8_000.0);
    let (t, _) = throughput_of(three_tier(&over), 3);
    assert!(t < 7_000.0, "3-tier must be disk-bound well below 70k: {t}");
}

/// Fig. 8 shape: linear scaling 4→8, sub-linear at 16 (irq ceiling).
#[test]
fn fig08_shape_lb_scaling() {
    let (t4, _) = throughput_of(load_balanced(&LoadBalancedConfig::new(4, 45_000.0)), 3);
    assert!(t4 < 40_000.0, "x4 saturates near 35k, got {t4}");
    let (t8, _) = throughput_of(load_balanced(&LoadBalancedConfig::new(8, 65_000.0)), 3);
    assert!(t8 > 61_000.0, "x8 sustains 65k, got {t8}");
    // x16 is capped by the irq cores near 120k, far below 2x the x8 limit.
    let (t16, _) = throughput_of(load_balanced(&LoadBalancedConfig::new(16, 140_000.0)), 3);
    assert!(
        t16 < 132_000.0,
        "x16 must be irq-capped below 140k, got {t16}"
    );
    assert!(t16 > 95_000.0, "x16 should still exceed 95k, got {t16}");
}

/// Fig. 10 shape: tail grows with the fanout factor at fixed load.
#[test]
fn fig10_shape_fanout_tail_grows() {
    let p99_of = |factor: usize| {
        let (_, p99) = throughput_of(fanout(&FanoutConfig::new(factor, 3_000.0)), 3);
        p99
    };
    let p4 = p99_of(4);
    let p16 = p99_of(16);
    assert!(
        p16 > p4,
        "fanout 16 p99 ({p16}) must exceed fanout 4 p99 ({p4})"
    );
}

/// Fig. 13 shape: BigHouse (unamortized epoll) saturates earlier than
/// µqSim on both single-tier applications.
#[test]
fn fig13_shape_bighouse_saturates_earlier() {
    let opts = CommonOpts::default();
    // µqSim nginx keeps up at 8 kQPS.
    let (t, _) = throughput_of(single_nginx(8_000.0, &opts), 3);
    assert!(t > 7_600.0, "uqsim nginx sustains 8k: {t}");
    // BigHouse with profiled-under-load service does not.
    let bh = BigHouse::new(BigHouseConfig {
        interarrival: Distribution::exponential(1.0 / 8_000.0),
        service: service_distribution_for(
            &uqsim_apps::nginx::service_model(),
            uqsim_apps::nginx::paths::SERVE,
            16,
        ),
        servers: 1,
        seed: 42,
        warmup_s: 1.0,
    })
    .run(4.0);
    assert!(
        bh.throughput < 7_600.0,
        "bighouse must saturate below uqsim: {}",
        bh.throughput
    );

    // Same story for 4-thread memcached at 150 kQPS.
    let (tm, _) = throughput_of(single_memcached(150_000.0, 4, &opts), 3);
    assert!(tm > 142_000.0, "uqsim memcached sustains 150k: {tm}");
    let bh_mc = BigHouse::new(BigHouseConfig {
        interarrival: Distribution::exponential(1.0 / 150_000.0),
        service: service_distribution_for(
            &uqsim_apps::memcached::service_model(),
            uqsim_apps::memcached::paths::READ,
            16,
        ),
        servers: 4,
        seed: 42,
        warmup_s: 1.0,
    })
    .run(4.0);
    assert!(
        bh_mc.throughput < 142_000.0,
        "bighouse memcached must saturate below uqsim: {}",
        bh_mc.throughput
    );
}

/// Fig. 14 shape: beyond ~100 servers, 1% slow machines pin the tail near
/// the slow-server regime; small clusters barely notice.
#[test]
fn fig14_shape_tail_at_scale() {
    let p99_of = |n: usize, frac: f64| {
        let mut cfg = TailAtScaleConfig::new(n, frac, 60.0);
        cfg.common.warmup = SimDuration::from_secs(1);
        let mut sim = tail_at_scale(&cfg).unwrap().build().unwrap();
        sim.run_for(SimDuration::from_secs(6));
        sim.latency_summary().p99
    };
    let small_clean = p99_of(10, 0.0);
    let big_slow = p99_of(200, 0.01);
    // 10x slow leaves have ~10ms mean service; their presence in every
    // request of the big cluster pins p99 deep into that regime.
    assert!(
        big_slow > 20e-3,
        "200-server cluster with 1% slow must have p99 in the slow regime: {big_slow}"
    );
    assert!(
        big_slow > 3.0 * small_clean,
        "tail amplification with scale"
    );
    // And the clean big cluster is much better than the contaminated one.
    let big_clean = p99_of(200, 0.0);
    assert!(big_slow > 2.0 * big_clean);
}
