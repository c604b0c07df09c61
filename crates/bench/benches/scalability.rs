//! Scalability benchmark: wall-clock cost of simulating clusters of
//! growing size (the tail-at-scale topology, 10 → 500 leaves). µqSim's
//! claim is that simulation makes >100-server studies tractable; this
//! tracks how the engine's cost grows with cluster size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use uqsim_apps::scenarios::{tail_at_scale, TailAtScaleConfig};
use uqsim_core::time::SimDuration;

fn bench_cluster_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("tail_at_scale_cluster");
    g.sample_size(10);
    for n in [10usize, 50, 100, 500] {
        let cfg = TailAtScaleConfig::new(n, 0.01, 60.0);
        let mut probe = tail_at_scale(&cfg)
            .and_then(|cfg| cfg.build())
            .expect("scenario builds");
        probe.run_for(SimDuration::from_millis(500));
        g.throughput(Throughput::Elements(probe.events_processed()));
        g.bench_with_input(BenchmarkId::new("sim_500ms", n), &n, |b, &n| {
            b.iter(|| {
                let cfg = TailAtScaleConfig::new(n, 0.01, 60.0);
                let mut sim = tail_at_scale(&cfg)
                    .and_then(|cfg| cfg.build())
                    .expect("scenario builds");
                sim.run_for(SimDuration::from_millis(500));
                sim.completed()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_cluster_sizes);
criterion_main!(benches);
