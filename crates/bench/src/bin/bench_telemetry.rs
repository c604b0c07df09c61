//! Telemetry overhead benchmark: engine events/second on the mid-size
//! two-tier scenario with telemetry fully disabled, with the sampler at a
//! 10 ms interval, with the sampler at a 1 ms interval, and with the
//! sampler plus streaming critical-path attribution (the `uqsim why`
//! configuration). Emits the JSON recorded as `BENCH_telemetry.json` at
//! the repository root.
//!
//! ```text
//! cargo run --release -p uqsim-bench --bin bench_telemetry > BENCH_telemetry.json
//! ```
//!
//! The "off" mode is the zero-cost-when-disabled reference: the telemetry
//! hooks are `Option` checks on a `None`, so its events/second must stay
//! within noise of the pre-telemetry engine (enforced, against the
//! recorded number, by `crates/bench/tests/telemetry_overhead.rs` under
//! `UQSIM_ENFORCE_BENCH=1`).

use std::time::Instant;
use uqsim_apps::scenarios::{two_tier, TwoTierConfig};
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::time::SimDuration;

const QPS: f64 = 20_000.0;
const SIM_SECS: f64 = 2.0;
// Single-vCPU CI containers show 30-50% wall-clock noise; best-of-9 gets
// the minimum close to the true cost floor where best-of-3 often misses it.
const REPS: usize = 9;

struct Measurement {
    events_per_sec: f64,
    events: u64,
    completed: u64,
    wall_s: f64,
}

/// Runs the scenario once per rep and keeps the fastest rep (the usual
/// microbenchmark convention: the minimum is the least noise-polluted).
fn measure(telemetry: Option<TelemetryConfig>) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..REPS {
        let mut sim = two_tier(&TwoTierConfig::at_qps(QPS))
            .and_then(|cfg| cfg.build())
            .expect("scenario builds");
        if let Some(cfg) = telemetry {
            sim.enable_telemetry(cfg);
        }
        let start = Instant::now();
        sim.run_for(SimDuration::from_secs_f64(SIM_SECS));
        let wall_s = start.elapsed().as_secs_f64().max(1e-9);
        let m = Measurement {
            events_per_sec: sim.events_processed() as f64 / wall_s,
            events: sim.events_processed(),
            completed: sim.completed(),
            wall_s,
        };
        if best.as_ref().is_none_or(|b| m.wall_s < b.wall_s) {
            best = Some(m);
        }
    }
    best.expect("at least one rep ran")
}

fn sampler(interval: SimDuration) -> TelemetryConfig {
    TelemetryConfig {
        sample_interval: Some(interval),
        self_profile: true,
        ..TelemetryConfig::default()
    }
}

fn entry(name: &str, m: &Measurement) -> String {
    format!(
        "    {{ \"mode\": \"{name}\", \"events_per_sec\": {:.0}, \"events\": {}, \
         \"completed\": {}, \"wall_s\": {:.4} }}",
        m.events_per_sec, m.events, m.completed, m.wall_s
    )
}

fn main() {
    let off = measure(None);
    let ms10 = measure(Some(sampler(SimDuration::from_millis(10))));
    let ms1 = measure(Some(sampler(SimDuration::from_millis(1))));
    let crit = measure(Some(TelemetryConfig {
        critpath: true,
        ..sampler(SimDuration::from_millis(10))
    }));
    println!("{{");
    println!(
        "  \"benchmark\": \"telemetry overhead, two_tier at {QPS:.0} qps, {SIM_SECS}s simulated, best of {REPS}\","
    );
    println!("  \"command\": \"cargo run --release -p uqsim-bench --bin bench_telemetry\",");
    println!("  \"modes\": [");
    println!("{},", entry("telemetry_off", &off));
    println!("{},", entry("sampler_10ms", &ms10));
    println!("{},", entry("sampler_1ms", &ms1));
    println!("{}", entry("sampler_10ms_critpath", &crit));
    println!("  ],");
    println!(
        "  \"overhead_10ms_vs_off\": {:.4},",
        1.0 - ms10.events_per_sec / off.events_per_sec
    );
    println!(
        "  \"overhead_1ms_vs_off\": {:.4},",
        1.0 - ms1.events_per_sec / off.events_per_sec
    );
    println!(
        "  \"overhead_critpath_vs_off\": {:.4}",
        1.0 - crit.events_per_sec / off.events_per_sec
    );
    println!("}}");
}
