//! `uqsim top` times its own frames: the simulator reads no wall clock, so
//! the dashboard's engine line (events, events per wall-clock second, the
//! event heap, allocations per simulated second) is measured by the CLI
//! around each step and must head every frame.

use std::path::Path;
use std::process::Command;

#[test]
fn every_top_frame_has_an_engine_line() {
    let cfg = Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/quickstart.json");
    let out = Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .arg("top")
        .arg("--config")
        .arg(&cfg)
        .args(["--duration", "3", "--interval", "1", "--no-ansi"])
        .output()
        .expect("uqsim binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let frames: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("uqsim top — t="))
        .collect();
    assert_eq!(frames.len(), 3, "one frame per simulated second:\n{stdout}");
    for i in frames {
        let engine = lines.get(i + 1).copied().unwrap_or_default();
        assert!(
            engine.starts_with("engine: ")
                && engine.contains(" events total, ")
                && engine.contains(" events/wall-s, heap ")
                && engine.ends_with(" allocs/sim-s"),
            "frame without an engine line: {engine:?}\n{stdout}"
        );
    }
}
