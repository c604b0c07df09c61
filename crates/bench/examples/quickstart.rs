//! Quickstart: build a one-service scenario from scratch with the
//! programmatic API, run it at a few loads, and print the load–latency
//! curve.
//!
//! ```text
//! cargo run --release -p uqsim-bench --example quickstart
//! ```

use uqsim_core::builder::{ExecSpec, ScenarioBuilder};
use uqsim_core::client::ClientSpec;
use uqsim_core::dist::Distribution;
use uqsim_core::ids::{PathNodeId, StageId};
use uqsim_core::machine::MachineSpec;
use uqsim_core::path::{PathNodeSpec, RequestType};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::SimDuration;
use uqsim_core::{SimResult, Simulator};

/// Builds an epoll-fronted "api" service on two dedicated cores.
fn build(qps: f64) -> SimResult<Simulator> {
    let mut b = ScenarioBuilder::new(42);
    b.warmup(SimDuration::from_millis(500));

    // A Xeon-like machine: DVFS 1.2-2.6 GHz, 4 irq cores (Table II).
    let machine = b.add_machine(MachineSpec::xeon("server0", 6));

    // Two stages: epoll (batched event harvesting) + the request handler.
    let api = b.add_service(ServiceModel::new(
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
    ));
    let inst = b.add_instance("api0", api, machine, 2, ExecSpec::Simple)?;

    // Request path: client → api → client.
    let mut front = PathNodeSpec::request("api", api, inst);
    front.children = vec![PathNodeId::from_raw(1)];
    let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
    let ty = b.add_request_type(RequestType::new(
        "get",
        vec![front, sink],
        PathNodeId::from_raw(0),
    ))?;

    // An open-loop client like wrk2.
    b.add_client(ClientSpec::open_loop("wrk2", qps, 128, ty), vec![inst]);
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>12} {:>13} {:>9} {:>9} {:>9}",
        "offered_qps", "achieved_qps", "mean_us", "p95_us", "p99_us"
    );
    for qps in [2_000.0, 8_000.0, 14_000.0, 20_000.0, 23_000.0] {
        let mut sim = build(qps)?;
        sim.run_for(SimDuration::from_secs(4));
        let s = sim.latency_summary();
        let achieved = s.count as f64 / 3.5; // 4s minus 0.5s warmup
        println!(
            "{:>12.0} {:>13.0} {:>9.1} {:>9.1} {:>9.1}",
            qps,
            achieved,
            s.mean * 1e6,
            s.p95 * 1e6,
            s.p99 * 1e6
        );
    }
    println!("\nTwo cores at ~85us/request saturate near 23 kQPS; watch the tail blow up there.");
    Ok(())
}
