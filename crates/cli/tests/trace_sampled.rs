//! Gates on `uqsim trace <path>`, the sampled-request view of the span
//! log. The fixtures under `golden/*_trace_sampled.jsonl` were first the
//! stdout of the seed-era in-simulator tracer (default `--every 100 --max
//! 20`), captured before it was deleted; the span-log filter reproduced
//! them byte-for-byte. Since the exponential and normal samplers became
//! ziggurats they are `uqsim trace crates/cli/configs/<name>.json`'s
//! stdout. The filter must reproduce them at any `--shards`, and must say
//! so — and fail — when `--events` cut the log short of `--max` traces.

use std::path::Path;
use std::process::{Command, Output};

fn config(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("configs")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn uqsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .args(args)
        .output()
        .expect("uqsim binary runs")
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}_trace_sampled.jsonl"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn span_log_filter_reproduces_the_legacy_tracer_at_any_shard_count() {
    for name in ["quickstart", "two_tier", "social_network"] {
        let cfg = config(&format!("{name}.json"));
        let want = golden(name);
        for shards in [None, Some("1"), Some("4")] {
            let mut args = vec!["trace", cfg.as_str()];
            if let Some(n) = shards {
                args.extend(["--shards", n]);
            }
            let out = uqsim(&args);
            assert!(out.status.success(), "{name} {shards:?}: {out:?}");
            assert!(
                out.stdout == want,
                "{name} {shards:?}: stdout differs from the fixture:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}

#[test]
fn a_log_too_small_for_max_traces_fails_loudly() {
    let cfg = config("two_tier.json");
    // 5,000 events hold about 160 two_tier requests: one trace at
    // `--every 100`, far short of 20.
    let short = uqsim(&["trace", &cfg, "--events", "5000"]);
    assert_eq!(short.status.code(), Some(1), "{short:?}");
    let stderr = String::from_utf8_lossy(&short.stderr);
    assert!(
        stderr.contains("span log truncated") && stderr.contains("raise --events"),
        "no truncation warning:\n{stderr}"
    );
    // What was printed is still a prefix of the full answer.
    assert!(golden("two_tier").starts_with(&short.stdout));

    // A log that overflows only after `--max` traces were found is fine:
    // the default capacity does not hold two_tier's full 2 s either.
    let enough = uqsim(&["trace", &cfg, "--events", "100000"]);
    assert!(enough.status.success(), "{enough:?}");
    assert!(enough.stdout == golden("two_tier"));
}
