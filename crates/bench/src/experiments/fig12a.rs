//! Fig. 12a — validation of Apache Thrift RPC (hello-world server).
//!
//! Paper anchors (§IV-C): saturation just beyond 50 kQPS, low-load latency
//! under 100 µs, and — past saturation — the *real* system's latency grows
//! faster than the simulator's because timeouts and reconnections are not
//! modeled (our noisy reference injects exactly those, so the same gap
//! appears between the two rows).

use crate::{linear_loads, print_series, saturation_qps, LoadPoint, RunOpts};
use uqsim_apps::noise::NoiseProfile;
use uqsim_apps::scenarios::{thrift_hello, ThriftHelloConfig};
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
    println!("# Fig. 12a — Thrift hello-world RPC validation");
    let loads = linear_loads(
        5_000.0,
        60_000.0,
        if opts.duration.as_secs_f64() < 2.0 {
            5
        } else {
            10
        },
    );
    let mut curves = Vec::new();
    for noise in [None, Some(NoiseProfile::default())] {
        let mut cfg = ThriftHelloConfig::at_qps(loads[0]);
        cfg.common.warmup = opts.warmup;
        cfg.common.noise = noise;
        curves.push((thrift_hello(&cfg)?, loads.clone()));
    }
    let mut curves = super::run_curves(opts, &curves)?.into_iter();
    let sim = curves.next().expect("one curve per submission");
    let reference = curves.next().expect("one curve per submission");
    print_series("thrift 1 worker [simulated]", &sim);
    print_series("thrift 1 worker [real-proxy: noisy reference]", &reference);
    println!(
        "saturation: sim {:.0} qps (paper: >{:.0}); low-load mean: sim {:.1}us (paper: <{:.0}us)",
        saturation_qps(&sim, 20e-3),
        crate::reference::THRIFT_SATURATION_QPS,
        sim[0].latency.mean * 1e6,
        crate::reference::THRIFT_LOW_LOAD_LATENCY_S * 1e6,
    );
    println!(
        "paper shape check: beyond saturation the reference (timeouts modeled) grows faster than the clean simulation."
    );
    Ok(Result { sim, reference })
}
