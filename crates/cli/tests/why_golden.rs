//! End-to-end gates for `uqsim why`, the critical-path attribution
//! report.
//!
//! Three properties are pinned, driving the real binary (via
//! `CARGO_BIN_EXE_uqsim`) so the report framing is covered too:
//!
//! 1. **Golden report** — the full text report for the faulted quickstart
//!    scenario at a fixed seed is byte-stable. Regenerate after an
//!    intentional change with:
//!
//!    ```text
//!    UQSIM_BLESS=1 cargo test -p uqsim-cli --test why_golden
//!    ```
//!
//! 2. **Shard invariance** — `why`, `why --shards 1` and `why --shards 4`
//!    print byte-identical stdout (spec invariant P7 extended to
//!    attribution), so the golden report is also the sharded one.
//!
//! 3. **Truncation refusal** — when the span log overflows, `why` exits
//!    non-zero with a stderr message that names the `--events` value that
//!    would have sufficed, instead of attributing from an incomplete
//!    stream; with no `--events` at all, every bundled config fits.
//!
//! 4. **Thread-order independence** — audit and replay run on two threads;
//!    stdout *and* stderr are byte-identical across invocations, and the
//!    auditor sees exactly the spans it always did.

use std::path::Path;
use std::process::{Command, Output};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/quickstart_why.txt"
);

/// Runs from the crate root with *relative* config paths so the report
/// header — which echoes them — is byte-identical on any checkout.
fn why(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
        .args([
            "why",
            "--config",
            "configs/quickstart.json",
            "--faults",
            "configs/quickstart_faults.json",
            "--duration",
            "4",
        ])
        .args(extra)
        .output()
        .expect("uqsim binary runs")
}

#[test]
fn why_report_matches_golden() {
    let out = why(&[]);
    assert!(
        out.status.success(),
        "why failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let produced = String::from_utf8(out.stdout).expect("report is UTF-8");
    if std::env::var_os("UQSIM_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &produced).expect("write golden");
        return;
    }
    let golden = include_str!("golden/quickstart_why.txt");
    assert_eq!(
        produced, golden,
        "why report drifted from the golden snapshot; if the change is \
         intentional, regenerate with UQSIM_BLESS=1 (see the module docs)"
    );
}

#[test]
fn why_json_is_byte_deterministic() {
    let first = why(&["--json"]);
    assert!(first.status.success());
    for _ in 0..4 {
        let again = why(&["--json"]);
        assert!(again.status.success());
        assert_eq!(
            first.stdout, again.stdout,
            "identical why invocations produced different bytes"
        );
        assert_eq!(
            String::from_utf8_lossy(&first.stderr),
            String::from_utf8_lossy(&again.stderr),
            "identical why invocations produced different diagnostics"
        );
    }
}

/// `why --config <bundled config>` and nothing else: the default duration
/// under the default span-log capacity.
fn why_at_defaults(config: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
        .args(["why", "--config", config])
        .output()
        .expect("uqsim binary runs")
}

#[test]
fn why_accepts_every_bundled_config_at_its_defaults() {
    for config in ["quickstart", "two_tier", "social_network"] {
        let out = why_at_defaults(&format!("configs/{config}.json"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{config}: {stderr}");
        if config == "quickstart" {
            // The counts of the six-scan auditor: the one-pass auditor
            // sees the same events and correlates the same spans.
            assert!(
                stderr.contains(
                    "why: 225681 span events replayed, 50228 spans audited, streaming == replay"
                ),
                "{stderr}"
            );
        }
    }
}

#[test]
fn why_attribution_is_shard_invariant() {
    let none = why(&[]);
    assert!(
        none.status.success(),
        "why failed: {}",
        String::from_utf8_lossy(&none.stderr)
    );
    for shards in ["1", "4"] {
        let sharded = why(&["--shards", shards]);
        assert!(
            sharded.status.success(),
            "why --shards {shards} failed: {}",
            String::from_utf8_lossy(&sharded.stderr)
        );
        assert_eq!(
            none.stdout, sharded.stdout,
            "attribution bytes drifted between no flag and --shards {shards}"
        );
        // Every arm keeps the streaming == replay self-check.
        let stderr = String::from_utf8_lossy(&sharded.stderr);
        assert!(stderr.contains("streaming == replay"), "{stderr}");
    }
}

#[test]
fn why_refuses_truncated_span_stream() {
    let out = why(&["--events", "100"]);
    assert!(
        !out.status.success(),
        "why must exit non-zero when the span log truncates"
    );
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(
        stderr.contains("truncated") && stderr.contains("--events"),
        "truncation message missing or unclear:\n{stderr}"
    );
    // The message names the capacity that would have sufficed: one retry
    // at exactly that value passes, one below it does not.
    let needed: usize = stderr
        .split("raise --events to at least ")
        .nth(1)
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("no sufficient --events value named:\n{stderr}"));
    assert!(why(&["--events", &needed.to_string()]).status.success());
    assert!(!why(&["--events", &(needed - 1).to_string()])
        .status
        .success());
}
