//! Fig. 8 — validation of NGINX load balancing at scale-out 4, 8, 16.
//!
//! Paper anchors (§IV-B): saturation at 35 kQPS (×4), 70 kQPS (×8) —
//! linear — and 120 kQPS (×16) — sub-linear, because the four soft-irq
//! cores handling interrupts saturate before the NGINX instances do.

use crate::{linear_loads, print_series, saturation_qps, LoadPoint, RunOpts};
use uqsim_apps::scenarios::{load_balanced, LoadBalancedConfig};
use uqsim_core::SimResult;

/// Per-scale-out measured curve and detected saturation.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Scale-out factor.
    pub scale_out: usize,
    /// Measured curve (p99 focus).
    pub points: Vec<LoadPoint>,
    /// Detected saturation load.
    pub saturation_qps: f64,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Vec<ScaleResult>> {
    println!("# Fig. 8 — load balancing validation (p99 vs load)");
    let n_points = if opts.duration.as_secs_f64() < 2.0 {
        5
    } else {
        9
    };
    // One batch over all three scale-out curves; print in scale order after.
    let mut curves = Vec::new();
    for &(scale, reference) in &crate::reference::LB_SATURATION {
        let loads = linear_loads(0.2 * reference, 1.25 * reference, n_points);
        let mut cfg = LoadBalancedConfig::new(scale, loads[0]);
        cfg.common.warmup = opts.warmup;
        curves.push((load_balanced(&cfg)?, loads));
    }
    let curves = super::run_curves(opts, &curves)?;
    let mut out = Vec::new();
    for ((scale, reference), points) in crate::reference::LB_SATURATION.iter().copied().zip(curves)
    {
        let sat = saturation_qps(&points, 50e-3);
        print_series(&format!("scale-out {scale} [simulated]"), &points);
        println!(
            "saturation: {:.0} qps (paper real system: {:.0} qps)\n",
            sat, reference
        );
        out.push(ScaleResult {
            scale_out: scale,
            points,
            saturation_qps: sat,
        });
    }
    println!(
        "paper shape check: 4→8 scales linearly; 16 is sub-linear (irq cores saturate first)."
    );
    Ok(out)
}
