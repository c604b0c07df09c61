//! Fig. 16 — tail latency and per-tier frequency over time under the
//! Algorithm 1 power manager, at decision intervals 0.1 s, 0.5 s and 1 s,
//! for both the clean simulation and the noisy reference ("real system").
//!
//! Paper anchors (§V-B): the real system is noisier (more frequent
//! decision changes), both converge to similar tails, and the converged
//! tail sits around 2 ms despite the 5 ms QoS target because DVFS's
//! discrete frequency steps quantize the achievable latency.

use crate::power_experiment::{run as power_run, PowerRunConfig, PowerRunResult};
use crate::RunOpts;
use uqsim_core::telemetry::TelemetryWindow;
use uqsim_core::time::SimDuration;
use uqsim_core::SimResult;

/// Results per decision interval: `(interval_s, simulated, noisy)`.
pub type Result = Vec<(f64, PowerRunResult, PowerRunResult)>;

/// Prints the trace on the telemetry sampler's time axis (`r.tail`),
/// joining each window with the power manager's decision at the same
/// instant for the frequency and violation columns.
fn print_trace(label: &str, r: &PowerRunResult, stride: usize) {
    println!("## {label}");
    println!(
        "{:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "time_s", "p99_ms", "qps", "f_nginx", "f_mc", "violated"
    );
    for w in r.tail.iter().step_by(stride.max(1)) {
        if w.count == 0 {
            continue;
        }
        let decision = r.trace.iter().find(|e| e.time == w.end);
        let (f_nginx, f_mc, violated) = match decision {
            Some(e) => (
                e.freqs_ghz.first().copied().unwrap_or(0.0),
                e.freqs_ghz.get(1).copied().unwrap_or(0.0),
                e.violated,
            ),
            None => (0.0, 0.0, false),
        };
        println!(
            "{:>9.1} {:>9.3} {:>9.0} {:>10.1} {:>10.1} {:>9}",
            w.end.as_secs_f64(),
            w.p99_s * 1e3,
            w.throughput,
            f_nginx,
            f_mc,
            if violated { "YES" } else { "" }
        );
    }
    println!(
        "mean frequencies: {:?} GHz | violation rate {:.1}%",
        r.mean_freqs_ghz
            .iter()
            .map(|f| (f * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        r.violation_rate * 100.0
    );
}

/// Converged p99 tail over the second half of the run's non-empty sampler
/// windows, seconds.
pub fn converged_tail(r: &PowerRunResult) -> f64 {
    let active: Vec<&TelemetryWindow> = r.tail.iter().filter(|w| w.count > 0).collect();
    if active.is_empty() {
        return 0.0;
    }
    let half = &active[active.len() / 2..];
    half.iter().map(|w| w.p99_s).sum::<f64>() / half.len() as f64
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Result> {
    println!("# Fig. 16 — power management traces (Algorithm 1)");
    let quick = opts.duration.as_secs_f64() < 2.0;
    let duration = if quick {
        SimDuration::from_secs(30)
    } else {
        SimDuration::from_secs(120)
    };
    let period = if quick { 15.0 } else { 60.0 };
    // Each decision interval is an independent (sim, noisy, baseline)
    // triple; run the three intervals in parallel and print in order.
    let intervals = [0.1, 0.5, 1.0];
    let runs = minipool::Pool::new(opts.jobs).map_indexed(intervals.len(), |i| {
        let base = PowerRunConfig {
            interval: SimDuration::from_secs_f64(intervals[i]),
            duration,
            period_s: period,
            ..PowerRunConfig::default()
        };
        let sim = power_run(&base)?;
        let noisy = power_run(&PowerRunConfig {
            noisy: true,
            ..base.clone()
        })?;
        let baseline_energy = crate::power_experiment::run_baseline(&base)?;
        Ok::<_, uqsim_core::SimError>((sim, noisy, baseline_energy))
    });
    let runs = runs.into_iter().collect::<SimResult<Vec<_>>>()?;
    let mut out = Vec::new();
    for (interval_s, (sim, noisy, baseline_energy)) in intervals.iter().copied().zip(runs) {
        let stride = (4.0 / interval_s) as usize;
        print_trace(&format!("interval {interval_s}s [simulated]"), &sim, stride);
        print_trace(
            &format!("interval {interval_s}s [real-proxy: noisy reference]"),
            &noisy,
            stride,
        );
        println!(
            "converged tail: sim {:.2}ms, ref {:.2}ms (paper: ~2ms against a 5ms target)",
            converged_tail(&sim) * 1e3,
            converged_tail(&noisy) * 1e3
        );
        println!(
            "energy: {:.0} J vs {:.0} J at max frequency ({:.1}% saved)\n",
            sim.energy_j,
            baseline_energy,
            (1.0 - sim.energy_j / baseline_energy) * 100.0
        );
        out.push((interval_s, sim, noisy));
    }
    println!(
        "paper shape check: both systems converge to similar tails well under the 5ms target;\n\
         the noisy reference changes decisions more often."
    );
    Ok(out)
}
