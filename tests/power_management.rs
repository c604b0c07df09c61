//! End-to-end tests of the Algorithm 1 power manager driving the 2-tier
//! application (the §V-B experiment, Fig. 16 / Table III shapes).

use std::sync::OnceLock;
use uqsim_bench::power_experiment::{run, PowerRunConfig, PowerRunResult};
use uqsim_core::time::SimDuration;

/// Every `(interval_ms, noisy, seed)` run the tests below read, each 30 s
/// of simulated time. They are independent, so the first test to ask fans
/// all of them over the runner pool at once; results are keyed by index,
/// so what a test sees does not depend on the worker count.
const RUNS: [(u64, bool, u64); 14] = [
    (100, false, 42),
    (100, false, 43),
    (100, false, 44),
    (1000, false, 42),
    (1000, false, 43),
    (1000, false, 44),
    (500, false, 7),
    (500, false, 8),
    (500, false, 9),
    (500, true, 7),
    (500, true, 8),
    (500, true, 9),
    (100, false, 11),
    (500, false, 3),
];

fn quick(interval_ms: u64, noisy: bool, seed: u64) -> &'static PowerRunResult {
    static RESULTS: OnceLock<Vec<PowerRunResult>> = OnceLock::new();
    let results = RESULTS.get_or_init(|| {
        minipool::Pool::with_available_jobs().map_indexed(RUNS.len(), |i| {
            let (interval_ms, noisy, seed) = RUNS[i];
            run(&PowerRunConfig {
                interval: SimDuration::from_millis(interval_ms),
                duration: SimDuration::from_secs(30),
                period_s: 15.0,
                noisy,
                seed,
                ..PowerRunConfig::default()
            })
            .expect("power experiment builds")
        })
    });
    let wanted = (interval_ms, noisy, seed);
    let i = RUNS.iter().position(|&r| r == wanted);
    &results[i.expect("the run is listed in RUNS")]
}

#[test]
fn manager_lowers_frequencies_while_meeting_qos() {
    let r = quick(100, false, 42);
    // Most intervals meet the 5ms target.
    assert!(
        r.violation_rate < 0.15,
        "violation rate {}",
        r.violation_rate
    );
    // Energy was actually saved: mean frequency well below the 2.6 max.
    assert!(
        r.mean_freqs_ghz.iter().any(|&f| f < 2.45),
        "some tier must run below max: {:?}",
        r.mean_freqs_ghz
    );
}

#[test]
fn violation_rate_grows_with_decision_interval() {
    // Table III shape: slower decisions → more violating intervals.
    // Average over seeds to damp run-to-run noise.
    let avg = |ms: u64| -> f64 {
        (0..3)
            .map(|s| quick(ms, false, 42 + s).violation_rate)
            .sum::<f64>()
            / 3.0
    };
    let fast = avg(100);
    let slow = avg(1000);
    assert!(
        slow >= fast,
        "1s interval ({slow}) must violate at least as often as 0.1s ({fast})"
    );
}

#[test]
fn noisy_reference_violates_at_least_as_often() {
    // Table III shape: the real system is noisier than the simulation.
    let avg = |noisy: bool| -> f64 {
        (0..3)
            .map(|s| quick(500, noisy, 7 + s).violation_rate)
            .sum::<f64>()
            / 3.0
    };
    let sim = avg(false);
    let real = avg(true);
    assert!(
        real >= sim - 0.02,
        "noisy reference ({real}) should not violate much less than sim ({sim})"
    );
}

#[test]
fn converged_tail_sits_below_target() {
    // Fig. 16 shape: the converged tail is comfortably below the 5ms QoS
    // (the paper converges around 2ms due to DVFS granularity).
    let r = quick(100, false, 11);
    let active: Vec<&uqsim_power::PowerTraceEntry> =
        r.trace.iter().filter(|e| e.samples > 0).collect();
    let half = &active[active.len() / 2..];
    let tail = half.iter().map(|e| e.e2e_p99).sum::<f64>() / half.len() as f64;
    assert!(
        tail < 5e-3,
        "converged tail {tail} must sit below the 5ms target"
    );
    assert!(tail > 0.1e-3, "tail implausibly low: {tail}");
}

#[test]
fn trace_records_every_interval() {
    let r = quick(500, false, 3);
    // 30s at 0.5s interval → about 60 entries (first fires at t=interval).
    assert!(
        (55..=62).contains(&r.trace.len()),
        "expected ~60 trace entries, got {}",
        r.trace.len()
    );
    // Frequencies stay within the DVFS range at all times.
    for e in &r.trace {
        for &f in &e.freqs_ghz {
            assert!((1.2..=2.6).contains(&f), "frequency {f} out of range");
        }
    }
}
