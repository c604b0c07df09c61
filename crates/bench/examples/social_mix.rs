//! The full social network with the paper's complete action set: reads
//! (cache hit and miss), composes (writes), and profile browses — plus the
//! observability features: per-request-type latency breakdowns and
//! distributed-style request traces sampled from the span log.
//!
//! ```text
//! cargo run --release -p uqsim-bench --example social_mix
//! ```

use uqsim_apps::scenarios::{social_network_full, SocialNetworkFullConfig};
use uqsim_core::time::SimDuration;
use uqsim_core::trace::sampled_traces;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SocialNetworkFullConfig::at_qps(3_500.0);
    let mut sim = social_network_full(&cfg)?.build()?;
    // Enough span-log room for the first 2,000 requests; the four traces
    // below are every 500th of them.
    sim.enable_span_tracing(400_000);
    sim.run_for(SimDuration::from_secs(5));

    println!("mix: 65% read, 15% read-miss, 15% compose, 5% browse @ 3.5 kQPS\n");
    println!(
        "{:>16} {:>8} {:>9} {:>9} {:>9}",
        "request type", "count", "mean_us", "p50_us", "p99_us"
    );
    for name in ["read_post", "read_post_miss", "compose_post", "browse_user"] {
        let ty = sim.request_type_by_name(name).expect("type registered");
        let s = sim.type_latency_summary(ty);
        println!(
            "{:>16} {:>8} {:>9.0} {:>9.0} {:>9.0}",
            name,
            s.count,
            s.mean * 1e6,
            s.p50 * 1e6,
            s.p99 * 1e6
        );
    }

    println!(
        "\n(per-type and per-tier percentiles are streaming-histogram reads: exact, up to +3.1 %)"
    );
    println!("\nper-tier p99 residency (us):");
    for name in ["frontend", "user", "post", "media", "mongod", "disk"] {
        let id = sim.instance_by_name(name).expect("tier deployed");
        println!(
            "  {:>9}: {:>8.0}",
            name,
            sim.instance_residency(id).p99 * 1e6
        );
    }

    println!("\nsampled traces (one span per path node):");
    let log = sim.span_log().expect("span tracing is enabled");
    for t in sampled_traces(log, &sim.trace_meta(), 500, 4) {
        println!(
            "  {} [{:.0}us total]",
            t.request_type,
            (t.completed - t.submitted).as_micros_f64()
        );
        for span in &t.spans {
            println!(
                "    {:>10} @ {:<10} {:>7.0}us",
                span.node,
                span.instance,
                (span.exit - span.enter).as_micros_f64()
            );
        }
    }
    println!("\nCache misses pay a ~2.5ms disk read inside the post service's blocked worker;");
    println!("watch read_post_miss's p50 sit milliseconds above read_post's.");
    Ok(())
}
