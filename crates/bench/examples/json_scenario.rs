//! A figure's cell, from the shell: prints Fig. 5's `{8p, 4t}` 20 kQPS cell
//! — the scenario `fig05_two_tier --quick` measures at that load — as the
//! JSON every `uqsim` subcommand takes (the paper's Table I inputs).
//!
//! ```text
//! cargo run --release -p uqsim-bench --example json_scenario > cell.json
//! uqsim validate cell.json
//! uqsim why --config cell.json --duration 1
//! ```

use uqsim_apps::scenarios::{two_tier, TwoTierConfig};
use uqsim_core::time::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 NGINX processes and 4 memcached threads are the defaults.
    let mut cell = TwoTierConfig::at_qps(20_000.0);
    cell.common.warmup = SimDuration::from_millis(500);
    println!("{}", two_tier(&cell)?.to_json());
    Ok(())
}
