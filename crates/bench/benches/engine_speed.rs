//! Simulator-performance benchmarks: how fast the DES core processes
//! events on the paper's scenario mix. µqSim's headline property is being
//! *scalable*; these benches track simulated-seconds-per-wall-second and
//! events/second on representative topologies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use uqsim_apps::scenarios::{
    fanout, social_network, two_tier, FanoutConfig, SocialNetworkConfig, TwoTierConfig,
};
use uqsim_core::time::SimDuration;

fn bench_two_tier(c: &mut Criterion) {
    let mut g = c.benchmark_group("two_tier");
    g.sample_size(10);
    for qps in [10_000.0, 50_000.0] {
        // Count events for throughput reporting.
        let mut probe = two_tier(&TwoTierConfig::at_qps(qps))
            .and_then(|cfg| cfg.build())
            .expect("scenario builds");
        probe.run_for(SimDuration::from_millis(500));
        g.throughput(Throughput::Elements(probe.events_processed()));
        g.bench_with_input(
            BenchmarkId::new("sim_500ms", qps as u64),
            &qps,
            |b, &qps| {
                b.iter(|| {
                    let mut sim = two_tier(&TwoTierConfig::at_qps(qps))
                        .and_then(|cfg| cfg.build())
                        .expect("scenario builds");
                    sim.run_for(SimDuration::from_millis(500));
                    sim.completed()
                })
            },
        );
    }
    g.finish();
}

fn bench_social(c: &mut Criterion) {
    let mut g = c.benchmark_group("social_network");
    g.sample_size(10);
    let qps = 10_000.0;
    let mut probe = social_network(&SocialNetworkConfig::at_qps(qps))
        .and_then(|cfg| cfg.build())
        .expect("scenario builds");
    probe.run_for(SimDuration::from_millis(500));
    g.throughput(Throughput::Elements(probe.events_processed()));
    g.bench_function("sim_500ms_10kqps", |b| {
        b.iter(|| {
            let mut sim = social_network(&SocialNetworkConfig::at_qps(qps))
                .and_then(|cfg| cfg.build())
                .expect("scenario builds");
            sim.run_for(SimDuration::from_millis(500));
            sim.completed()
        })
    });
    g.finish();
}

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("fanout16");
    g.sample_size(10);
    let qps = 4_000.0;
    let mut probe = fanout(&FanoutConfig::new(16, qps))
        .and_then(|cfg| cfg.build())
        .expect("scenario builds");
    probe.run_for(SimDuration::from_millis(500));
    g.throughput(Throughput::Elements(probe.events_processed()));
    g.bench_function("sim_500ms_4kqps", |b| {
        b.iter(|| {
            let mut sim = fanout(&FanoutConfig::new(16, qps))
                .and_then(|cfg| cfg.build())
                .expect("scenario builds");
            sim.run_for(SimDuration::from_millis(500));
            sim.completed()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_two_tier, bench_social, bench_fanout);
criterion_main!(benches);
