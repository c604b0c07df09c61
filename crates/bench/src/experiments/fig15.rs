//! Fig. 15 — the diurnal input load driving the power-management study:
//! offered rate over time, and the 2-tier application's achieved
//! throughput tracking it (no power management in this run; frequencies
//! stay at maximum).

use crate::RunOpts;
use uqsim_apps::scenarios::{two_tier, TwoTierConfig};
use uqsim_core::client::{ArrivalProcess, RateSchedule};
use uqsim_core::telemetry::{TelemetryConfig, TelemetryWindow};
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::SimResult;

/// The generated series.
#[derive(Debug, Clone)]
pub struct Result {
    /// The piecewise-constant offered-rate schedule: `(start_s, qps)`.
    pub schedule: Vec<(f64, f64)>,
    /// Achieved throughput and latency per `period / 24` sampler window.
    pub windows: Vec<TelemetryWindow>,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Result> {
    println!("# Fig. 15 — diurnal load fluctuation");
    let quick = opts.duration.as_secs_f64() < 2.0;
    let (min_qps, max_qps, period) = (8_000.0, 40_000.0, if quick { 10.0 } else { 60.0 });
    let schedule = RateSchedule::diurnal(min_qps, max_qps, period, 12);
    let mut cfg = TwoTierConfig::at_qps(max_qps);
    cfg.arrivals = ArrivalProcess::Poisson {
        schedule: schedule.clone(),
    };
    cfg.common.warmup = SimDuration::from_millis(0);
    let window = SimDuration::from_secs_f64(period / 24.0);
    let mut sim = two_tier(&cfg)?.build()?;
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(window),
        ..TelemetryConfig::default()
    });
    // The series is the windows closed by `2 * period`. A sampler tick
    // landing on the run deadline loses to the stop event, so the run goes
    // one window further.
    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(2.0 * period);
    sim.run_until(horizon + window);
    let closed = sim.telemetry_windows().iter().filter(|w| w.end <= horizon);
    let windows: Vec<TelemetryWindow> = closed.copied().collect();
    println!(
        "{:>9} {:>12} {:>14} {:>9}",
        "time_s", "offered_qps", "achieved_qps", "p99_ms"
    );
    for (i, w) in windows.iter().enumerate() {
        let start = SimTime::ZERO + window * i as u64;
        println!(
            "{:>9.1} {:>12.0} {:>14.0} {:>9.3}",
            start.as_secs_f64(),
            schedule.rate_at(start),
            w.throughput,
            w.p99_s * 1e3
        );
    }
    println!(
        "paper shape check: achieved throughput tracks the diurnal swing between trough and peak."
    );
    Ok(Result {
        schedule: schedule.segments,
        windows,
    })
}
