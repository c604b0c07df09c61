//! The full social network with the paper's complete action set: reads
//! (cache hit and miss), composes (writes), and profile browses — plus the
//! observability features: per-request-type latency and per-tier residency
//! tables and distributed-style request traces, all read off the span log.
//!
//! ```text
//! cargo run --release -p uqsim-bench --example social_mix
//! ```

use std::collections::HashMap;
use uqsim_apps::scenarios::{social_network_full, SocialNetworkFullConfig};
use uqsim_core::metrics::LatencySummary;
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::trace::{sampled_traces, TraceEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SocialNetworkFullConfig::at_qps(3_500.0);
    let mut sim = social_network_full(&cfg)?.build()?;
    // Room for every event of the run: the tables below are views of the
    // log, exact only if it holds the whole run.
    sim.enable_span_tracing(4_000_000);
    sim.run_for(SimDuration::from_secs(5));
    let log = sim.span_log().expect("span tracing is enabled");
    assert_eq!(log.dropped(), 0, "the span log must hold the whole run");
    let meta = sim.trace_meta();
    let warmup_at = SimTime::ZERO + sim.config().warmup;

    // Measured end-to-end latency per request type; post-warmup residence
    // per instance, one sample per node visit.
    let mut emitted = HashMap::new();
    let mut per_type = vec![Vec::new(); meta.request_types.len()];
    let mut per_tier = vec![Vec::new(); meta.instances.len()];
    for ev in log.events() {
        match *ev {
            TraceEvent::RequestEmitted { request, t, .. } => {
                emitted.insert(request, t);
            }
            TraceEvent::RequestCompleted {
                request,
                request_type,
                measured,
                t,
                ..
            } => {
                let submitted = emitted.remove(&request).expect("emitted before completing");
                if measured {
                    per_type[request_type.index()].push((t - submitted).as_secs_f64());
                }
            }
            TraceEvent::NodeDone {
                instance,
                entered,
                t,
                ..
            } if t >= warmup_at => {
                per_tier[instance.index()].push((t - entered).as_secs_f64());
            }
            _ => {}
        }
    }

    println!("mix: 65% read, 15% read-miss, 15% compose, 5% browse @ 3.5 kQPS\n");
    println!(
        "{:>16} {:>8} {:>9} {:>9} {:>9}",
        "request type", "count", "mean_us", "p50_us", "p99_us"
    );
    for name in ["read_post", "read_post_miss", "compose_post", "browse_user"] {
        let ty = meta
            .request_types
            .iter()
            .position(|t| *t.name == *name)
            .expect("type registered");
        let s = LatencySummary::from_samples(&per_type[ty]);
        println!(
            "{:>16} {:>8} {:>9.0} {:>9.0} {:>9.0}",
            name,
            s.count,
            s.mean * 1e6,
            s.p50 * 1e6,
            s.p99 * 1e6
        );
    }

    println!("\nper-tier p99 residency (us):");
    for name in ["frontend", "user", "post", "media", "mongod", "disk"] {
        let id = sim.instance_by_name(name).expect("tier deployed");
        let s = LatencySummary::from_samples(&per_tier[id.index()]);
        println!("  {:>9}: {:>8.0}", name, s.p99 * 1e6);
    }

    println!("\nsampled traces (one span per path node):");
    for t in sampled_traces(log, &meta, 500, 4) {
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
