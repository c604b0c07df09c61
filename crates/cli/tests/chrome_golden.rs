//! Golden-file and determinism tests for the Chrome `trace_event` export.
//!
//! The golden snapshot pins the exact JSON the quickstart scenario produces
//! for its first 64 trace events — regenerate it with (the command exits 1
//! after writing the file: a 64-event log is truncated on purpose):
//!
//! ```text
//! cargo run --release -p uqsim-cli -- trace \
//!     --config crates/cli/configs/quickstart.json \
//!     --out crates/cli/tests/golden/quickstart_trace.json \
//!     --duration 0.6 --events 64
//! ```

use uqsim_core::config::ScenarioConfig;
use uqsim_core::time::SimDuration;

const QUICKSTART: &str = include_str!("../configs/quickstart.json");

/// Builds the quickstart scenario, runs it for `secs` with span tracing
/// capped at `events`, and returns the pretty-printed Chrome trace.
fn quickstart_chrome(secs: f64, events: usize) -> String {
    let cfg = ScenarioConfig::from_json(QUICKSTART).expect("bundled config parses");
    let mut sim = cfg.build().expect("bundled config builds");
    sim.enable_span_tracing(events);
    sim.run_for(SimDuration::from_secs_f64(secs));
    let chrome = sim.chrome_trace().expect("span tracing is enabled");
    serde_json::to_string_pretty(&chrome).expect("trace serializes")
}

#[test]
fn quickstart_chrome_trace_matches_golden() {
    let produced = quickstart_chrome(0.05, 64);
    let golden = include_str!("golden/quickstart_trace.json");
    assert_eq!(
        produced.trim(),
        golden.trim(),
        "Chrome trace drifted from the golden snapshot; if the change is \
         intentional, regenerate it (see the module docs)"
    );
}

#[test]
fn identical_seeds_produce_identical_traces() {
    let a = quickstart_chrome(0.1, 1_000_000);
    let b = quickstart_chrome(0.1, 1_000_000);
    assert_eq!(a, b, "same seed must replay to a byte-identical trace");
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = quickstart_chrome(0.1, 1_000_000);
    let mut cfg = ScenarioConfig::from_json(QUICKSTART).expect("bundled config parses");
    cfg.seed ^= 0xDEAD_BEEF;
    let mut sim = cfg.build().expect("bundled config builds");
    sim.enable_span_tracing(1_000_000);
    sim.run_for(SimDuration::from_secs_f64(0.1));
    let chrome = sim.chrome_trace().expect("span tracing is enabled");
    let b = serde_json::to_string_pretty(&chrome).expect("trace serializes");
    assert_ne!(a, b, "different seeds should diverge");
}
