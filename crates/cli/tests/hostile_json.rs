//! Hostile JSON reaches the binary as an error, not as an abort: a
//! document nested past the parser's depth limit used to overflow the
//! stack (SIGABRT, exit 134) through every door JSON comes in by —
//! scenario, fault plan, gen spec — a repeated key used to keep its last
//! value without a word, and a misspelt key was read as if it were not
//! there. An input every subcommand rejects must be rejected by each of
//! them with the same reason.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn uqsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .args(args)
        .output()
        .expect("uqsim binary runs")
}

fn scratch(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uqsim-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write input");
    path
}

fn quickstart() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("configs/quickstart.json")
        .to_string_lossy()
        .into_owned()
}

/// Exit 1 and one `invalid configuration` line carrying `detail`.
fn assert_config_error(what: &str, out: &Output, detail: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{what}: {stdout}{stderr}");
    assert!(
        format!("{stdout}{stderr}").contains("invalid configuration in ")
            && format!("{stdout}{stderr}").contains(detail),
        "{what}: {stdout}{stderr}"
    );
}

#[test]
fn deep_nesting_is_a_config_error_through_every_door() {
    let deep = scratch("deep.json", &"[".repeat(200_000));
    let deep = deep.to_str().unwrap();
    let detail = "nesting deeper than 128 at line 1 column 129";
    assert_config_error("validate", &uqsim(&["validate", deep]), detail);
    assert_config_error("run", &uqsim(&["run", deep]), detail);
    let faulted = uqsim(&["run", &quickstart(), "--faults", deep]);
    assert_config_error("--faults", &faulted, detail);
    assert_config_error("--gen", &uqsim(&["run", "--gen", deep]), detail);
    assert_config_error("gen --spec", &uqsim(&["gen", "--spec", deep]), detail);
}

#[test]
fn a_repeated_key_is_a_config_error_naming_it() {
    let text = std::fs::read_to_string(quickstart()).expect("bundled config");
    // The bundled scenario with a second `seed` in front of its own, which
    // used to win without a word.
    assert!(text.starts_with("{\n  \"seed\": 42,"), "quickstart changed");
    let twice = text.replacen('{', "{\n  \"seed\": 7,", 1);
    let path = scratch("twice.json", &twice);
    let out = uqsim(&["validate", path.to_str().unwrap()]);
    assert_config_error("validate", &out, "duplicate key `seed` at line 3 column 3");
}

#[test]
fn a_misspelt_key_is_a_config_error_naming_the_right_one_through_every_door() {
    let bundled = |name: &str| {
        std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("configs")
                .join(name),
        )
        .expect("bundled config")
    };
    // Each used to be read as if the key were absent: a default, or a
    // missing-field error about the key that was meant.
    let misspell = |name: &str, from: &str, to: &str| {
        let text = bundled(name);
        assert!(text.contains(from), "{name} changed");
        scratch(&format!("typo_{name}"), &text.replacen(from, to, 1))
    };
    let scenario = misspell(
        "quickstart.json",
        r#""exec": { "type": "simple" }"#,
        r#""exec": { "type": "multi_threaded", "treads": 8 }"#,
    );
    let scenario = scenario.to_str().unwrap();
    let detail = "unknown key `treads` in ExecConfig::MultiThreaded, did you mean `threads`? \
                  at line 50 column 43";
    assert_config_error("validate", &uqsim(&["validate", scenario]), detail);
    assert_config_error("run", &uqsim(&["run", scenario]), detail);

    let faults = misspell(
        "quickstart_faults.json",
        "\"max_retries\"",
        "\"max_retires\"",
    );
    let faulted = uqsim(&["run", &quickstart(), "--faults", faults.to_str().unwrap()]);
    let detail = "unknown key `max_retires` in ClientPolicySpec, did you mean `max_retries`? \
                  at line 11 column 9";
    assert_config_error("--faults", &faulted, detail);

    let spec = misspell(
        "gen_dsb.json",
        "\"threads_per_instance\"",
        "\"treads_per_instance\"",
    );
    let detail = "unknown key `treads_per_instance` in LayerSpec, did you mean \
                  `threads_per_instance`? at line 14 column 7";
    let generated = uqsim(&["run", "--gen", spec.to_str().unwrap()]);
    assert_config_error("--gen", &generated, detail);
}

#[test]
fn a_zero_rate_mmpp_is_the_same_error_through_every_door() {
    let text = std::fs::read_to_string(quickstart()).expect("bundled config");
    let poisson = r#"{ "type": "poisson", "schedule": { "segments": [[0.0, 5000.0]] } }"#;
    assert!(text.contains(poisson), "quickstart changed");
    let silent = r#"{"type":"mmpp","states":[{"rate_qps":0,"mean_dwell_s":0.05},{"rate_qps":0,"mean_dwell_s":0.1}]}"#;
    let path = scratch("silent.json", &text.replace(poisson, silent));
    let path = path.to_str().unwrap();
    // `sweep` re-scales the chain to each `--qps` point first; with a mean
    // of 0 that used to make every rate NaN and report that instead.
    for args in [
        vec!["validate", path],
        vec!["run", path],
        vec!["sweep", "--config", path, "--qps", "1000:2000:1000"],
    ] {
        let out = uqsim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("positive rate"), "{args:?}: {stderr}");
    }
}
