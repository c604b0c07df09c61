//! Quickstart: describe a one-service scenario from scratch — as the same
//! data a JSON file would hold — run it at a few loads, and print the
//! load–latency curve.
//!
//! ```text
//! cargo run --release -p uqsim-bench --example quickstart
//! ```

use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, PathNodeConfig,
    RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::ids::StageId;
use uqsim_core::machine::MachineSpec;
use uqsim_core::run::run_one;
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::SimDuration;

/// An epoll-fronted "api" service on two dedicated cores.
fn scenario() -> ScenarioConfig {
    // Two stages: epoll (batched event harvesting) + the request handler.
    let api = ServiceModel::new(
        "api",
        vec![
            StageSpec::new(
                "epoll",
                QueueDiscipline::Epoll { batch_per_conn: 16 },
                ServiceTimeModel::batched(
                    Distribution::constant(5e-6),
                    Distribution::exponential(2e-6),
                    2.6,
                ),
            ),
            StageSpec::new(
                "handler",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::exponential(80e-6), 2.6),
            ),
        ],
        vec![ExecPath::new(
            "default",
            vec![StageId::from_raw(0), StageId::from_raw(1)],
        )],
    );
    // Request path: client → api → client.
    let on_api0 = InstanceSelectConfig::Fixed {
        name: "api0".into(),
    };
    let mut front = PathNodeConfig::service("api", "api", on_api0, "default");
    front.children = vec!["client_sink".into()];
    ScenarioConfig {
        seed: 42,
        warmup_s: 0.5,
        // A Xeon-like machine: DVFS 1.2-2.6 GHz, 4 irq cores (Table II).
        machines: vec![MachineSpec::xeon("server0", 6)],
        services: vec![api],
        instances: vec![InstanceConfig {
            name: "api0".into(),
            service: "api".into(),
            machine: "server0".into(),
            cores: 2,
            exec: ExecConfig::Simple,
        }],
        pools: Vec::new(),
        request_types: vec![RequestTypeConfig {
            name: "get".into(),
            nodes: vec![front, PathNodeConfig::client_sink("api")],
        }],
        // An open-loop client like wrk2; each run below sets its rate.
        clients: vec![ClientConfig::open_loop("wrk2", 2_000.0, 128, "get", "api0")],
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = scenario();
    println!(
        "{:>12} {:>13} {:>9} {:>9} {:>9}",
        "offered_qps", "achieved_qps", "mean_us", "p95_us", "p99_us"
    );
    for qps in [2_000.0, 8_000.0, 14_000.0, 20_000.0, 23_000.0] {
        let run = run_one(
            &cfg.with_offered_qps(qps),
            cfg.seed,
            SimDuration::from_secs(4),
        )?;
        println!(
            "{:>12.0} {:>13.0} {:>9.1} {:>9.1} {:>9.1}",
            qps,
            run.achieved_qps,
            run.latency.mean * 1e6,
            run.latency.p95 * 1e6,
            run.latency.p99 * 1e6
        );
    }
    println!("\nTwo cores at ~85us/request saturate near 23 kQPS; watch the tail blow up there.");
    Ok(())
}
