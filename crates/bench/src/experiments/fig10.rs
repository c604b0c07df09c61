//! Fig. 10 — validation of request fanout at factors 4, 8, 16.
//!
//! Every request must hear back from *all* leaves before returning, so the
//! tail of the max-of-N dominates. Paper anchor (§IV-B): as fanout grows
//! there is a small decrease in saturation load, since the probability
//! that one slow leaf degrades the end-to-end tail increases.

use crate::{linear_loads, print_series, saturation_qps, LoadPoint, RunOpts};
use uqsim_apps::scenarios::{fanout, FanoutConfig};
use uqsim_core::SimResult;

/// Per-fanout measured curve and detected saturation.
#[derive(Debug, Clone)]
pub struct FanoutResult {
    /// Fanout factor.
    pub fanout: usize,
    /// Measured curve.
    pub points: Vec<LoadPoint>,
    /// Detected saturation load.
    pub saturation_qps: f64,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Vec<FanoutResult>> {
    println!("# Fig. 10 — request fanout validation (p99 vs load)");
    let factors = [4usize, 8, 16];
    // A fine grid around the ~8.8 kQPS leaf limit resolves the small
    // decrease in saturation load with the fanout factor.
    let loads: Vec<f64> = if opts.duration.as_secs_f64() < 2.0 {
        linear_loads(2_000.0, 10_000.0, 5)
    } else {
        let mut l = linear_loads(1_000.0, 7_000.0, 4);
        l.extend(linear_loads(7_500.0, 10_000.0, 6));
        l
    };
    let mut curves = Vec::new();
    for factor in factors {
        let mut cfg = FanoutConfig::new(factor, loads[0]);
        cfg.common.warmup = opts.warmup;
        curves.push((fanout(&cfg)?, loads.clone()));
    }
    let curves = super::run_curves(opts, &curves)?;
    let mut out = Vec::new();
    for (factor, points) in factors.iter().copied().zip(curves) {
        // Interactive saturation: the knee where p99 exceeds 10 ms.
        let sat = saturation_qps(&points, 10e-3);
        print_series(&format!("fanout {factor} [simulated]"), &points);
        let knee = points
            .iter()
            .find(|p| (p.offered_qps - 8_500.0).abs() < 1.0);
        if let Some(k) = knee {
            println!(
                "saturation: {:.0} qps | p99 near the knee (8.5 kQPS): {:.2} ms\n",
                sat,
                k.latency.p99 * 1e3
            );
        } else {
            println!("saturation: {:.0} qps\n", sat);
        }
        out.push(FanoutResult {
            fanout: factor,
            points,
            saturation_qps: sat,
        });
    }
    println!(
        "paper shape check: p99 at fixed load increases with the fanout factor, so the\n\
         effective (tail-bounded) saturation decreases slightly as fanout grows."
    );
    Ok(out)
}
