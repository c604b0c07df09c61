//! Tail at scale (the paper's §V-A): fan one request out to every server
//! of a growing cluster where a small fraction of servers is 10× slower,
//! and watch the p99 get pinned by the stragglers.
//!
//! ```text
//! cargo run --release -p uqsim-bench --example fanout_tail
//! ```

use uqsim_apps::scenarios::{tail_at_scale, TailAtScaleConfig};
use uqsim_core::time::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("one-stage leaves, exp(1ms) service; slow leaves are 10x; request waits for ALL\n");
    println!(
        "{:>9} {:>11} {:>9} {:>9}",
        "cluster", "slow_frac", "mean_ms", "p99_ms"
    );
    for &n in &[10usize, 50, 200] {
        for &frac in &[0.0, 0.01, 0.05] {
            let cfg = TailAtScaleConfig::new(n, frac, 60.0);
            let mut sim = tail_at_scale(&cfg)?.build()?;
            sim.run_for(SimDuration::from_secs(6));
            let s = sim.latency_summary();
            println!(
                "{:>9} {:>11.2} {:>9.2} {:>9.2}",
                n,
                frac,
                s.mean * 1e3,
                s.p99 * 1e3
            );
        }
        println!();
    }
    println!("At 200 servers even 1% slow machines dominate the tail — Dean & Barroso's effect.");
    Ok(())
}
