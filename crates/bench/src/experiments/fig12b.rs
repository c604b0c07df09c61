//! Fig. 12b — validation of the end-to-end social network (Fig. 11):
//! Thrift frontend, User/Post/Media services, each fronting memcached,
//! with fanout, synchronization, and thread-blocking RPC semantics.
//!
//! Paper anchor (§IV-D): the simulation closely matches low-load latency
//! and saturates at a similar throughput as the real service.

use crate::{
    deviation_ms, format_deviation, linear_loads, print_series, saturation_qps, LoadPoint, RunOpts,
};
use uqsim_apps::noise::NoiseProfile;
use uqsim_apps::scenarios::{social_network, SocialNetworkConfig};
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
    println!("# Fig. 12b — social network validation");
    let loads = linear_loads(
        2_000.0,
        30_000.0,
        if opts.duration.as_secs_f64() < 2.0 {
            5
        } else {
            9
        },
    );
    let mut curves = Vec::new();
    for noise in [None, Some(NoiseProfile::default())] {
        let mut cfg = SocialNetworkConfig::at_qps(loads[0]);
        cfg.common.warmup = opts.warmup;
        cfg.common.noise = noise;
        curves.push((social_network(&cfg)?, loads.clone()));
    }
    let mut curves = super::run_curves(opts, &curves)?.into_iter();
    let sim = curves.next().expect("one curve per submission");
    let reference = curves.next().expect("one curve per submission");
    print_series("social network [simulated]", &sim);
    print_series("social network [real-proxy: noisy reference]", &reference);
    println!(
        "saturation: sim {:.0} qps, ref {:.0} qps | pre-saturation deviation: {}",
        saturation_qps(&sim, 50e-3),
        saturation_qps(&reference, 50e-3),
        format_deviation(deviation_ms(&sim, &reference), None),
    );
    println!("paper shape check: low-load latency matches closely; similar saturation throughput.");
    Ok(Result { sim, reference })
}
