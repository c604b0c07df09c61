//! Fig. 5 — validation of the 2-tier NGINX→memcached application across
//! thread/process configurations: {8p,4t}, {8p,2t}, {4p,2t}, {4p,1t}.
//!
//! The paper compares simulated load–latency curves against the real
//! system; here the "real" rows come from the noisy reference mode (see
//! DESIGN.md's substitution table). The prose anchors: simulated means
//! within 0.17 ms and tails within 0.83 ms of real before saturation, and
//! the front end (not memcached) is the bottleneck at every configuration.

use crate::reference::{TWO_TIER_MEAN_DEV_MS, TWO_TIER_TAIL_DEV_MS};
use crate::{
    deviation_ms, format_deviation, linear_loads, print_series, saturation_qps, LoadPoint, RunOpts,
};
use uqsim_apps::noise::NoiseProfile;
use uqsim_apps::scenarios::{two_tier, TwoTierConfig};
use uqsim_core::SimResult;

/// One configuration's measured curves.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// NGINX worker processes.
    pub nginx_procs: usize,
    /// memcached threads.
    pub memcached_threads: usize,
    /// Simulated curve.
    pub sim: Vec<LoadPoint>,
    /// Noisy-reference ("real") curve.
    pub reference: Vec<LoadPoint>,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Vec<ConfigResult>> {
    println!("# Fig. 5 — two-tier (NGINX-memcached) validation");
    let configs = [(8usize, 4usize), (8, 2), (4, 2), (4, 1)];
    // Submit all 8 curves (4 configurations × {simulated, noisy reference})
    // as one batch so every (curve, load) cell runs in parallel; print once
    // everything is back, in configuration order.
    let mut curves = Vec::new();
    for &(np, mt) in &configs {
        let hi = if np == 8 { 85_000.0 } else { 45_000.0 };
        let loads = linear_loads(
            5_000.0,
            hi,
            if opts.duration.as_secs_f64() < 2.0 {
                5
            } else {
                9
            },
        );
        for noise in [None, Some(NoiseProfile::default())] {
            let mut cfg = TwoTierConfig::at_qps(loads[0]);
            cfg.nginx_procs = np;
            cfg.memcached_threads = mt;
            cfg.common.warmup = opts.warmup;
            cfg.common.noise = noise;
            curves.push((two_tier(&cfg)?, loads.clone()));
        }
    }
    let mut curves = super::run_curves(opts, &curves)?.into_iter();
    let mut out = Vec::new();
    for (np, mt) in configs {
        let sim = curves.next().expect("one curve per submission");
        let reference = curves.next().expect("one curve per submission");
        print_series(&format!("nginx={np}p memcached={mt}t [simulated]"), &sim);
        print_series(
            &format!("nginx={np}p memcached={mt}t [real-proxy: noisy reference]"),
            &reference,
        );
        println!(
            "saturation: sim {:.0} qps, ref {:.0} qps | pre-saturation deviation: {}\n",
            saturation_qps(&sim, 50e-3),
            saturation_qps(&reference, 50e-3),
            format_deviation(
                deviation_ms(&sim, &reference),
                Some((TWO_TIER_MEAN_DEV_MS, TWO_TIER_TAIL_DEV_MS))
            ),
        );
        out.push(ConfigResult {
            nginx_procs: np,
            memcached_threads: mt,
            sim,
            reference,
        });
    }
    println!(
        "paper shape check: saturation tracks the NGINX process count (8p ≈ 2x 4p);\n\
         extra memcached threads do not raise throughput (front end is the bottleneck)."
    );
    Ok(out)
}
