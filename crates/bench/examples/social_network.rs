//! The end-to-end social network of the paper's Fig. 11: a Thrift frontend
//! fans out to User and Post services (each fronting memcached),
//! synchronizes their replies, consults the Media service, and responds.
//!
//! Demonstrates fan-out, fan-in synchronization, connection pools, and
//! synchronous-RPC thread blocking — all at once. The per-tier residency
//! column is read off the span log, streamed to a second thread while each
//! run goes (the log of a 32 kQPS run is never held whole).
//!
//! ```text
//! cargo run --release -p uqsim-bench --example social_network
//! ```

use uqsim_apps::scenarios::{social_network, SocialNetworkConfig};
use uqsim_core::metrics::LatencySummary;
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::trace::TraceEvent;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("read-post flow: client -> frontend -> {{user, post}} -> join -> media -> reply\n");
    println!(
        "{:>12} {:>13} {:>9} {:>9} {:>9}  per-tier p99 (us)",
        "offered_qps", "achieved_qps", "mean_us", "p50_us", "p99_us"
    );
    for qps in [2_000.0, 8_000.0, 16_000.0, 24_000.0, 32_000.0] {
        let cfg = SocialNetworkConfig::at_qps(qps);
        let mut sim = social_network(&cfg)?.build()?;
        let warmup_at = SimTime::ZERO + sim.config().warmup;
        let mut per_tier = vec![Vec::new(); sim.instance_count()];
        // Room for every event of the run; the fold keeps only the
        // post-warmup residence of each node visit.
        let chunks = sim.stream_span_tracing(50_000_000);
        std::thread::scope(|s| {
            s.spawn(|| {
                chunks.drain(|chunk| {
                    for ev in chunk.events() {
                        if let TraceEvent::NodeDone {
                            instance,
                            entered,
                            t,
                            ..
                        } = *ev
                        {
                            if t >= warmup_at {
                                per_tier[instance.index()].push((t - entered).as_secs_f64());
                            }
                        }
                    }
                });
            });
            sim.run_for(SimDuration::from_secs(4));
            sim.close_span_stream();
        });
        let log = sim.span_log().expect("span tracing is enabled");
        assert_eq!(log.dropped(), 0, "the span log must hold the whole run");
        let s = sim.latency_summary();
        let achieved = s.count as f64 / 3.0;
        let tier_p99: Vec<String> = ["frontend", "user", "post", "media"]
            .iter()
            .map(|name| {
                let id = sim.instance_by_name(name).expect("tier deployed");
                let p99 = LatencySummary::from_samples(&per_tier[id.index()]).p99;
                format!("{}={:.0}", name, p99 * 1e6)
            })
            .collect();
        println!(
            "{:>12.0} {:>13.0} {:>9.1} {:>9.1} {:>9.1}  {}",
            qps,
            achieved,
            s.mean * 1e6,
            s.p50 * 1e6,
            s.p99 * 1e6,
            tier_p99.join(" ")
        );
    }
    println!(
        "\nThe frontend runs two sequential synchronous phases per request, so its\n\
         blocked worker threads cap throughput well before its cores saturate."
    );
    Ok(())
}
