//! Table III — QoS violation rates of the power manager at decision
//! intervals 0.1 s, 0.5 s, 1 s, simulated vs. real.
//!
//! Paper values: simulated {0.6%, 2.2%, 5.0%}, real {1.5%, 2.7%, 6.0%}.
//! Two shapes must hold: the rate grows with the decision interval (slower
//! reactions let violations persist longer), and the real system (noisy
//! reference here) violates more than the clean simulation at every
//! interval.

use crate::power_experiment::{run as power_run, PowerRunConfig};
use crate::RunOpts;
use uqsim_core::time::SimDuration;
use uqsim_core::SimResult;

/// One row: `(interval_s, simulated_rate, reference_rate)`.
pub type Row = (f64, f64, f64);

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Vec<Row>> {
    println!("# Table III — power management QoS violation rates");
    let quick = opts.duration.as_secs_f64() < 2.0;
    let duration = if quick {
        SimDuration::from_secs(30)
    } else {
        SimDuration::from_secs(150)
    };
    let period = if quick { 15.0 } else { 60.0 };
    let seeds: &[u64] = if quick { &[42] } else { &[42, 43, 44] };
    let intervals = [0.1, 0.5, 1.0];
    // Flatten (interval × seed × {clean, noisy}) into independent parallel
    // replications; average per interval in seed order afterwards.
    let grid: Vec<(f64, u64, bool)> = intervals
        .iter()
        .flat_map(|&interval_s| {
            seeds
                .iter()
                .flat_map(move |&seed| [(interval_s, seed, false), (interval_s, seed, true)])
        })
        .collect();
    let rates = minipool::Pool::new(opts.jobs).map_indexed(grid.len(), |i| {
        let (interval_s, seed, noisy) = grid[i];
        let cfg = PowerRunConfig {
            interval: SimDuration::from_secs_f64(interval_s),
            duration,
            period_s: period,
            seed,
            noisy,
            ..PowerRunConfig::default()
        };
        power_run(&cfg).map(|r| r.violation_rate)
    });
    let rates = rates.into_iter().collect::<SimResult<Vec<f64>>>()?;
    let mut rows = Vec::new();
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>12}",
        "interval_s", "sim_rate", "ref_rate", "paper_sim", "paper_real"
    );
    let per_interval = 2 * seeds.len();
    for (i, interval_s) in intervals.into_iter().enumerate() {
        let chunk = &rates[i * per_interval..(i + 1) * per_interval];
        let sim_rate = chunk.iter().step_by(2).sum::<f64>() / seeds.len() as f64;
        let ref_rate = chunk.iter().skip(1).step_by(2).sum::<f64>() / seeds.len() as f64;
        let (_, paper_sim, paper_real) = crate::reference::TABLE3_VIOLATION_RATES[i];
        println!(
            "{:>12} {:>11.1}% {:>11.1}% {:>13.1}% {:>11.1}%",
            interval_s,
            sim_rate * 100.0,
            ref_rate * 100.0,
            paper_sim * 100.0,
            paper_real * 100.0
        );
        rows.push((interval_s, sim_rate, ref_rate));
    }
    println!(
        "paper shape check: violation rate grows with the decision interval;\n\
         the (noisy) real system violates at least as often as the simulation."
    );
    Ok(rows)
}
