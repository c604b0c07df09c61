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

/// The bundled quickstart with `from` (which must be there) replaced by
/// `to`, once.
fn quickstart_with(name: &str, from: &str, to: &str) -> PathBuf {
    let text = std::fs::read_to_string(quickstart()).expect("bundled config");
    assert!(text.contains(from), "quickstart changed: no {from}");
    scratch(name, &text.replacen(from, to, 1))
}

/// A count that sizes an allocation is checked against the `u32` ids it
/// is numbered with before anything is allocated (each of the first
/// four aborted out of memory, exit 134), and a duration the build
/// converts is checked before it is converted (each of the rest panicked,
/// exit 101 — `timeout_s` only once `run` reached it).
#[test]
fn oversized_counts_and_bad_durations_are_config_errors_naming_the_key() {
    let simple = r#""exec": { "type": "simple" }"#;
    let threads = |ctx: &str| format!(r#""exec": {{"type":"multi_threaded","threads":2{ctx}}}"#);
    let never = "is not a duration (finite, at least 0 and at most 18446744073 s)";
    let cases = [
        (
            simple,
            r#""exec": {"type":"multi_threaded","threads":1e12}"#.to_string(),
            "graph.json: instances[0].exec.threads: 1000000000000 threads would number \
             past the last id, 4294967295"
                .to_string(),
        ),
        (
            r#""cores": 6,"#,
            r#""cores": 1e12,"#.to_string(),
            "machines.json: machines[0].cores: 1000000000000 cores would number past the \
             last id, 4294967295"
                .to_string(),
        ),
        (
            r#""connections": 128,"#,
            r#""connections": 1e12,"#.to_string(),
            "client.json: clients[0].connections: 1000000000000 connections would number \
             past the last id, 4294967295"
                .to_string(),
        ),
        (
            r#""pools": []"#,
            r#""pools": [{ "up": "api0", "down": "api0", "size": 1e12 }]"#.to_string(),
            "graph.json: pools[0].size: 1000000000000 connections would number past the \
             last id, 4294967295"
                .to_string(),
        ),
        (
            r#""warmup_s": 0.5,"#,
            r#""warmup_s": -1,"#.to_string(),
            format!("sim.json: warmup_s: -1.0 s {never}"),
        ),
        (
            r#""warmup_s": 0.5,"#,
            r#""warmup_s": 1e300,"#.to_string(),
            format!("sim.json: warmup_s: 1e300 s {never}"),
        ),
        (
            simple,
            threads(r#","ctx_switch_s":-1"#),
            format!("graph.json: instances[0].exec.ctx_switch_s: -1.0 s {never}"),
        ),
        (
            simple,
            threads(r#","ctx_switch_s":1e300"#),
            format!("graph.json: instances[0].exec.ctx_switch_s: 1e300 s {never}"),
        ),
        (
            r#""roots": ["api0"]"#,
            r#""roots": ["api0"], "timeout_s": 1e300"#.to_string(),
            format!("client.json: clients[0].timeout_s: 1e300 s {never}"),
        ),
    ];
    for (k, (from, to, detail)) in cases.iter().enumerate() {
        let path = quickstart_with(&format!("oversized{k}.json"), from, to);
        let path = path.to_str().unwrap();
        assert_config_error(to, &uqsim(&["validate", path]), detail);
        // `run` rejects a warm-up past its `--duration` before building.
        if !to.contains("\"warmup_s\": 1e300") {
            assert_config_error(to, &uqsim(&["run", path, "--duration", "1"]), detail);
        }
    }
}

/// Every name is resolved in one place, which the partitioner that
/// `run`, `why` and `sweep` go through shares with the build `validate`
/// runs: a name that names nothing is one error line, naming the Table I
/// file and the key, whichever subcommand reads it. (`run` used to print
/// `unknown machine: ghost` where `validate` named file and key.)
#[test]
fn a_dangling_name_is_the_same_error_from_every_subcommand() {
    use uqsim_core::config::{
        InstanceSelectConfig, LinkConfig, NodeTargetConfig, PoolConfig, ScenarioConfig,
    };
    type Edit = fn(&mut ScenarioConfig);
    fn target(cfg: &mut ScenarioConfig) -> &mut NodeTargetConfig {
        &mut cfg.request_types[0].nodes[0].target
    }
    fn pool(up: &str, down: &str) -> PoolConfig {
        PoolConfig {
            up: up.into(),
            down: down.into(),
            size: 1,
        }
    }
    let cases: [(Edit, &str); 11] = [
        (
            |c| c.instances[0].service = "ghost".into(),
            "graph.json: instances[0].service: unknown service `ghost`",
        ),
        (
            |c| c.instances[0].machine = "ghost".into(),
            "graph.json: instances[0].machine: unknown machine `ghost`",
        ),
        (
            |c| c.pools = vec![pool("ghost", "api0")],
            "graph.json: pools[0].up: unknown instance `ghost`",
        ),
        (
            |c| c.pools = vec![pool("api0", "ghost")],
            "graph.json: pools[0].down: unknown instance `ghost`",
        ),
        (
            |c| {
                if let NodeTargetConfig::Service { service, .. } = target(c) {
                    *service = "ghost".into();
                }
            },
            "path.json: request_types[0].nodes[0].target.service: unknown service `ghost`",
        ),
        (
            |c| {
                if let NodeTargetConfig::Service { instance, .. } = target(c) {
                    *instance = InstanceSelectConfig::Fixed {
                        name: "ghost".into(),
                    };
                }
            },
            "path.json: request_types[0].nodes[0].target.instance.name: unknown instance \
             `ghost`",
        ),
        (
            |c| {
                if let NodeTargetConfig::Service { exec_path, .. } = target(c) {
                    *exec_path = Some("ghost".into());
                }
            },
            "path.json: request_types[0].nodes[0].target.exec_path: unknown execution path \
             `ghost` of service `api`",
        ),
        (
            |c| {
                c.request_types[0].nodes[1].link = LinkConfig::Reply { of: "ghost".into() };
            },
            "path.json: request_types[0].nodes[1].link.reply.of: unknown path node `ghost`",
        ),
        (
            |c| c.request_types[0].nodes[0].children = vec!["ghost".into()],
            "path.json: request_types[0].nodes[0].children[0]: unknown path node `ghost`",
        ),
        (
            |c| c.clients[0].mix = vec![("ghost".into(), 1.0)],
            "client.json: clients[0].mix[0]: unknown request type `ghost`",
        ),
        (
            |c| c.clients[0].roots = vec!["ghost".into()],
            "client.json: clients[0].roots[0]: unknown instance `ghost`",
        ),
    ];
    let base = ScenarioConfig::from_file(Path::new(&quickstart())).expect("bundled config");
    for (k, (edit, detail)) in cases.iter().enumerate() {
        let mut cfg = base.clone();
        edit(&mut cfg);
        let path = scratch(&format!("dangling{k}.json"), &cfg.to_json());
        let path = path.to_str().unwrap();
        let expected = format!("invalid configuration in {detail}");
        for args in [
            vec!["validate", path],
            vec!["run", path, "--duration", "1"],
            vec!["why", "--config", path, "--duration", "1"],
            vec![
                "sweep",
                "--config",
                path,
                "--qps",
                "1000",
                "--duration",
                "1",
            ],
        ] {
            let out = uqsim(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            let lines: Vec<&str> = (stderr.lines())
                .filter_map(|line| line.find("invalid configuration in ").map(|at| &line[at..]))
                .collect();
            assert_eq!(lines, [expected.as_str()], "{args:?}: {stderr}");
        }
    }
}

/// A fault plan is lowered against the scenario before any cell runs, its
/// names looked up as the scenario's own are and its times checked as
/// durations and as windows on the clock: each mistake is one error
/// naming `faults.json` and the key, from every subcommand that takes
/// `--faults`. A misspelt name used to print `unknown instance: nosuch`
/// with no file and no key, a time past the clock panicked (exit 101), and
/// a negative `at_s` on a slowdown was blamed on `duration_s`.
#[test]
fn a_bad_fault_plan_is_the_same_error_naming_the_key_through_every_door() {
    let never = "s is not a duration (finite, at least 0 and at most 18446744073 s)";
    let crash = r#""at_s": 1.0, "restart_after_s": 0.4"#;
    let slow = r#""machine": "server0", "at_s": 2.0"#;
    let cases = [
        (
            r#""instance": "api0""#,
            r#""instance": "nosuch""#,
            "faults[0].instance: unknown instance `nosuch`".to_string(),
        ),
        (
            slow,
            r#""machine": "nosuch", "at_s": 2.0"#,
            "faults[1].machine: unknown machine `nosuch`".to_string(),
        ),
        (
            r#""client": "wrk2""#,
            r#""client": "nosuch""#,
            "policy.clients[0].client: unknown client `nosuch`".to_string(),
        ),
        (
            crash,
            r#""at_s": 1e300, "restart_after_s": 0.4"#,
            format!("faults[0].at_s: 1e300 {never}"),
        ),
        (
            r#""duration_s": 0.5, "factor": 6.0"#,
            r#""duration_s": 1e300, "factor": 6.0"#,
            format!("faults[1].duration_s: 1e300 {never}"),
        ),
        (
            crash,
            r#""at_s": 1.8e10, "restart_after_s": 1e9"#,
            "faults[0].restart_after_s: 1000000000.0 s after at_s 18000000000.0 s ends past \
             18446744073 s, the last instant the clock holds"
                .to_string(),
        ),
        (
            r#""backoff_base_s": 0.005"#,
            r#""backoff_base_s": 1e300"#,
            format!("policy.clients[0].backoff_base_s: 1e300 {never}"),
        ),
        (
            slow,
            r#""machine": "server0", "at_s": -1.0"#,
            format!("faults[1].at_s: -1.0 {never}"),
        ),
    ];
    let scenario = quickstart();
    for (k, (from, to, detail)) in cases.iter().enumerate() {
        let plan = bundled_with(
            "quickstart_faults.json",
            &format!("faults{k}.json"),
            from,
            to,
        );
        let plan = plan.to_str().unwrap();
        let expected = format!("invalid configuration in faults.json: {detail}");
        for args in [
            vec!["run", &scenario, "--faults", plan, "--duration", "1"],
            vec!["chaos", &scenario, "--faults", plan, "--duration", "1"],
            vec![
                "why",
                "--config",
                &scenario,
                "--faults",
                plan,
                "--duration",
                "1",
            ],
            vec![
                "sweep",
                "--config",
                &scenario,
                "--faults",
                plan,
                "--qps",
                "1000",
                "--duration",
                "1",
            ],
        ] {
            let out = uqsim_within(20, &args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            let lines: Vec<&str> = (stderr.lines())
                .filter_map(|line| line.find("invalid configuration in ").map(|at| &line[at..]))
                .collect();
            assert_eq!(lines, [expected.as_str()], "{args:?}: {stderr}");
        }
    }
}

/// A partitioned run installs in each cell the faults that cell owns; the
/// plan is lowered against the whole scenario first, so a key names its
/// place in the plan, not in a cell's share of it. A pool leak from one
/// generated replica to another used to be reported by the cell holding
/// its `up`, with its index in that cell's share: `faults[1].down:
/// unknown instance "r29-l3-s2-i2"`.
#[test]
fn a_fault_across_cells_is_an_error_naming_its_place_in_the_plan() {
    let plan = scratch(
        "across.json",
        r#"{ "faults": [
            { "kind": "instance_crash", "instance": "r29-l3-s2-i2", "at_s": 0.3 },
            { "kind": "instance_crash", "instance": "r0-l1-s0-i2", "at_s": 0.3 },
            { "kind": "pool_leak", "up": "r0-l0-s0-i0", "down": "r29-l3-s2-i2",
              "at_s": 0.3, "leak": 1 } ] }"#,
    );
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/gen_dsb.json");
    let (spec, plan) = (spec.to_str().unwrap(), plan.to_str().unwrap());
    let detail =
        r#"faults.json: faults[2].up: no connection pool from "r0-l0-s0-i0" to "r29-l3-s2-i2""#;
    for args in [
        vec!["run", "--gen", spec, "--faults", plan, "--shards", "2"],
        vec!["chaos", "--gen", spec, "--faults", plan, "--shards", "2"],
    ] {
        assert_config_error(&args.join(" "), &uqsim_within(20, &args), detail);
    }
}

/// A bundled file with `from` (which must be there) replaced by `to`,
/// once.
fn bundled_with(bundled: &str, name: &str, from: &str, to: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("configs")
        .join(bundled);
    let text = std::fs::read_to_string(path).expect("bundled file");
    assert!(text.contains(from), "{bundled} changed: no {from}");
    scratch(name, &text.replacen(from, to, 1))
}

/// `uqsim args…`, killed if it is still running after `secs` seconds.
fn uqsim_within(secs: u64, args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("uqsim binary runs");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    while child.try_wait().expect("child status").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().expect("kill a hung child");
            panic!("{args:?} still running after {secs} s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

/// A rate finer than the nanosecond clock rounds every arrival gap to 0
/// ns, and the client issued requests forever without the clock moving:
/// `validate` passed such a scenario and `run` never returned. Every rate
/// an arrival process can reach, and a gen spec's `qps_per_front`, is
/// held to the range a `--qps` point is.
#[test]
fn a_rate_finer_than_the_clock_is_a_config_error_naming_the_key() {
    let poisson = "[[0.0, 20000.0]]";
    for (k, qps) in ["3e9", "1e300"].iter().enumerate() {
        let path = bundled_with("two_tier.json", &format!("fast{k}.json"), poisson, &{
            format!("[[0.0, {qps}]]")
        });
        let path = path.to_str().unwrap();
        let detail = "client.json: clients[0].arrivals.schedule.segments[0]: ";
        assert_config_error(qps, &uqsim_within(20, &["validate", path]), detail);
        let run = uqsim_within(20, &["run", path, "--duration", "0.6"]);
        assert_config_error(qps, &run, detail);
    }
    let burst = r#"{ "type": "mmpp", "states": [ { "rate_qps": 3e9, "mean_dwell_s": 0.05 } ] }"#;
    let path = bundled_with(
        "two_tier.json",
        "fast_mmpp.json",
        r#"{ "type": "poisson", "schedule": { "segments": [[0.0, 20000.0]] } }"#,
        burst,
    );
    let out = uqsim_within(20, &["run", path.to_str().unwrap(), "--duration", "0.6"]);
    assert_config_error(
        "mmpp",
        &out,
        "clients[0].arrivals.states[0].rate_qps: 3000000000.0 qps",
    );

    let spec = bundled_with(
        "gen_dsb.json",
        "fast_gen.json",
        r#""qps_per_front": 300.0"#,
        r#""qps_per_front": 1e300"#,
    );
    let out = uqsim_within(
        20,
        &["run", "--gen", spec.to_str().unwrap(), "--duration", "0.6"],
    );
    assert_config_error("--gen", &out, "client.qps_per_front: 1e300 qps");
}

/// A gen spec whose largest cluster would number instances past the
/// `u32` ids the builder gives them is a config error naming the key, from
/// every command that reads a spec: `"replicas": 1e12` used to generate
/// forever, and `"max": 1e12` services in a layer aborted on a 59 TB
/// allocation (exit 134).
#[test]
fn an_oversized_gen_spec_is_a_config_error_naming_the_key() {
    let replicas = bundled_with(
        "gen_dsb.json",
        "many_replicas.json",
        r#""replicas": 30"#,
        r#""replicas": 1e12"#,
    );
    let services = bundled_with(
        "gen_dsb.json",
        "many_services.json",
        r#""services": { "type": "range", "min": 4, "max": 5 }"#,
        r#""services": { "type": "range", "min": 4, "max": 1e12 }"#,
    );
    let last = "would number past the last id, 4294967295";
    for (spec, detail) in [
        (
            replicas,
            format!("replicas: up to 39000000000000 instances {last}"),
        ),
        (
            services,
            format!("layers[1].services: up to 3000000000024 instances per replica {last}"),
        ),
    ] {
        let spec = spec.to_str().unwrap();
        for args in [
            vec!["gen", "--spec", spec],
            vec!["run", "--gen", spec, "--duration", "0.6"],
            vec!["why", "--gen", spec, "--duration", "0.6"],
        ] {
            assert_config_error(spec, &uqsim_within(20, &args), &detail);
        }
    }
}

/// A worker count far past the work starts no more workers than there is
/// work: `--shards 2000000` on the bundled 30-cell cluster started two
/// million threads (66.5 s on a 2-vCPU box, against 0.26 s at `--shards
/// 2`), and `sweep --jobs` over lazily pulled runs would have done the
/// same. Workers start with an item each, so these are a handful of
/// threads, and print what two workers print.
#[test]
fn a_worker_count_past_the_work_starts_no_more_workers_than_items() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/gen_dsb.json");
    let spec = spec.to_str().unwrap();
    let run = |shards: &str| {
        let args = [
            "run",
            "--gen",
            spec,
            "--duration",
            "0.5",
            "--shards",
            shards,
        ];
        let out = uqsim_within(20, &args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        out.stdout
    };
    assert!(
        run("2000000") == run("2"),
        "--shards 2000000 differs from 2"
    );
    let sweep = |jobs: &str| {
        let args = ["sweep", "--config", &quickstart(), "--qps", "1000,2000"];
        let out = uqsim_within(
            20,
            &[&args[..], &["--duration", "1", "--jobs", jobs]].concat(),
        );
        assert!(out.status.success(), "sweep --jobs {jobs}: {out:?}");
        out.stdout
    };
    assert!(
        sweep("2000000") == sweep("2"),
        "--jobs 2000000 differs from 2"
    );
}

/// Exit 1 and one `i/o error` line naming `path`.
fn assert_io_error_names(what: &str, out: &Output, path: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let said = format!("{stdout}{stderr}");
    assert_eq!(out.status.code(), Some(1), "{what}: {said}");
    let named = format!("i/o error: {}: ", path.display());
    assert!(said.contains(&named), "{what}: `{named}` not in {said}");
}

#[test]
fn an_io_error_names_its_file_through_every_door() {
    let dir = std::env::temp_dir().join(format!("uqsim-io-{}", std::process::id()));
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).expect("tmpdir");
    let missing = dir.join("missing.json");
    let arg = |p: &Path| p.to_str().expect("utf-8 path").to_string();

    let validate = uqsim(&["validate", &arg(&empty)]);
    assert_io_error_names("validate", &validate, &empty.join("machines.json"));
    let run = uqsim(&["run", &arg(&missing)]);
    assert_io_error_names("run", &run, &missing);
    let faulted = uqsim(&["run", &quickstart(), "--faults", &arg(&missing)]);
    assert_io_error_names("--faults", &faulted, &missing);
    let generated = uqsim(&["run", "--gen", &arg(&missing)]);
    assert_io_error_names("--gen", &generated, &missing);

    // An output directory inside a file cannot be made.
    let file = scratch("not-a-dir", "");
    let out = file.join("out");
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/gen_dsb.json");
    let written = uqsim(&["gen", "--spec", &arg(&spec), "--out", &arg(&out)]);
    assert_io_error_names("gen --out", &written, &out);

    // A `sim.json` that exists and cannot be read is an error, not absent.
    let layout = dir.join("layout");
    let split = uqsim(&["split", &quickstart(), &arg(&layout)]);
    assert_eq!(split.status.code(), Some(0), "split: {split:?}");
    let sim = layout.join("sim.json");
    std::fs::remove_file(&sim).expect("sim.json written");
    assert_eq!(uqsim(&["validate", &arg(&layout)]).status.code(), Some(0));
    std::fs::create_dir(&sim).expect("sim.json as a directory");
    assert_io_error_names("sim.json", &uqsim(&["validate", &arg(&layout)]), &sim);
    std::fs::remove_dir_all(&dir).ok();
}
