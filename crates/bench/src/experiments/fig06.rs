//! Fig. 6 — validation of the 3-tier NGINX→memcached→MongoDB application.
//!
//! The 3-tier service is disk-I/O bound (§IV-A), so the curve saturates at
//! a small fraction of the front end's capacity and the latency floor sits
//! in the milliseconds (misses pay a disk read). Paper anchors: simulated
//! means within 1.55 ms and tails within 2.32 ms of the real system.

use crate::reference::{THREE_TIER_MEAN_DEV_MS, THREE_TIER_TAIL_DEV_MS};
use crate::{
    deviation_ms, format_deviation, linear_loads, print_series, saturation_qps, LoadPoint, RunOpts,
};
use uqsim_apps::noise::NoiseProfile;
use uqsim_apps::scenarios::{three_tier, ThreeTierConfig};
use uqsim_core::SimResult;

/// Measured curves.
#[derive(Debug, Clone)]
pub struct Result {
    /// Simulated curve.
    pub sim: Vec<LoadPoint>,
    /// Noisy-reference curve.
    pub reference: Vec<LoadPoint>,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Result> {
    println!("# Fig. 6 — three-tier (NGINX-memcached-MongoDB) validation");
    let loads = linear_loads(
        500.0,
        5_500.0,
        if opts.duration.as_secs_f64() < 2.0 {
            5
        } else {
            9
        },
    );
    let mut curves = Vec::new();
    for noise in [None, Some(NoiseProfile::default())] {
        let mut cfg = ThreeTierConfig::at_qps(loads[0]);
        cfg.common.warmup = opts.warmup;
        cfg.common.noise = noise;
        curves.push((three_tier(&cfg)?, loads.clone()));
    }
    let mut curves = super::run_curves(opts, &curves)?.into_iter();
    let sim = curves.next().expect("one curve per submission");
    let reference = curves.next().expect("one curve per submission");
    print_series("nginx=8p mc=2t mongod+disk [simulated]", &sim);
    print_series(
        "nginx=8p mc=2t mongod+disk [real-proxy: noisy reference]",
        &reference,
    );
    println!(
        "saturation: sim {:.0} qps, ref {:.0} qps | pre-saturation deviation: {}",
        saturation_qps(&sim, 100e-3),
        saturation_qps(&reference, 100e-3),
        format_deviation(
            deviation_ms(&sim, &reference),
            Some((THREE_TIER_MEAN_DEV_MS, THREE_TIER_TAIL_DEV_MS))
        ),
    );
    println!("paper shape check: disk-bound saturation far below the 2-tier app; millisecond latency floor.");
    Ok(Result { sim, reference })
}
