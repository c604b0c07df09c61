//! `uqsim validate` reports what it loaded: the machine, instance and
//! client counts of the scenario, read from the config it built. (It used
//! to print the requests in flight of a simulator that had not run, which
//! is 0 for every scenario.)

use std::path::Path;
use std::process::Command;

fn validate(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("configs")
        .join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .arg("validate")
        .arg(&path)
        .output()
        .expect("uqsim binary runs");
    assert!(out.status.success(), "{name}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn validate_prints_the_bundled_configs_counts() {
    assert_eq!(
        validate("quickstart.json"),
        "ok: 1 machine, 1 instance, 1 client\n"
    );
    assert_eq!(
        validate("two_tier.json"),
        "ok: 2 machines, 2 instances, 1 client\n"
    );
    assert_eq!(
        validate("social_network.json"),
        "ok: 2 machines, 7 instances, 1 client\n"
    );
}
