//! Declarative configuration: run the same scenario the `uqsim` CLI runs,
//! entirely from JSON (the paper's Table I inputs), from inside a program.
//!
//! ```text
//! cargo run --release -p uqsim-bench --example json_scenario
//! ```

use uqsim_core::config::ScenarioConfig;
use uqsim_core::time::{SimDuration, SimTime};

/// The 2-tier NGINX→memcached scenario shipped with the CLI.
const TWO_TIER: &str = include_str!("../../cli/configs/two_tier.json");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ScenarioConfig::from_json(TWO_TIER)?;
    println!(
        "loaded scenario: {} machines, {} services, {} instances, {} request types",
        cfg.machines.len(),
        cfg.services.len(),
        cfg.instances.len(),
        cfg.request_types.len()
    );

    let mut sim = cfg.build()?;
    sim.run_for(SimDuration::from_secs(5));

    let s = sim.latency_summary();
    println!("\nafter 5 simulated seconds at 20 kQPS:");
    println!("  completed: {}", sim.completed());
    println!(
        "  latency: mean {:.3}ms p50 {:.3}ms p99 {:.3}ms",
        s.mean * 1e3,
        s.p50 * 1e3,
        s.p99 * 1e3
    );
    let nginx = sim.instance_by_name("nginx").expect("deployed");
    let mc = sim.instance_by_name("memcached").expect("deployed");
    println!(
        "  utilization: nginx {:.0}%, memcached {:.0}%",
        sim.instance_utilization_since(nginx, SimTime::ZERO) * 100.0,
        sim.instance_utilization_since(mc, SimTime::ZERO) * 100.0
    );
    println!(
        "\nEdit crates/cli/configs/two_tier.json and re-run — no recompilation of models needed."
    );
    Ok(())
}
