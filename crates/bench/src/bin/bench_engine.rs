//! Raw engine-speed benchmark: events/second and steady-state allocation
//! rate on the mid-size two-tier scenario with everything optional turned
//! off (no telemetry, no tracing, no faults) — the purest measure of the
//! event core. Emits the JSON recorded as `BENCH_engine.json` at the
//! repository root.
//!
//! ```text
//! cargo run --release -p uqsim-bench --bin bench_engine > BENCH_engine.json
//! ```
//!
//! The binary installs a counting allocator so the per-event allocation
//! rate of the dispatch hot path is measured directly (the same probe the
//! CLI hands to the telemetry self-profiler). `allocs_per_event` is the
//! number enforced by `crates/bench/tests/alloc_regression.rs`.
//!
//! A second section (`shard_scaling`) times the partitioned engine
//! ([`uqsim_core::run_partitioned`]) on a 32-pod / 64-machine
//! [`pod_cluster`] at 1, 2, and 4 shards, cross-checking that the merged
//! results are identical at every shard count before reporting speedups.
//! The recorded `nproc` qualifies the numbers: on a single-core runner the
//! speedup is honestly ~1.0 and the measurement documents the overhead of
//! sharding, not its benefit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use uqsim_apps::scenarios::{pod_cluster, two_tier, TwoTierConfig};
use uqsim_core::time::SimDuration;
use uqsim_core::PartitionOptions;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method delegates to `System` unchanged; the only addition
// is a relaxed atomic increment, which cannot violate allocator contracts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const QPS: f64 = 20_000.0;
const SIM_SECS: f64 = 2.0;
const REPS: usize = 3;

/// Shard-scaling workload: 32 pods (64 machines, 32 independent cells).
const PODS: usize = 32;
const POD_QPS: f64 = 1_500.0;
const SHARD_SIM_SECS: f64 = 1.0;

/// Times one partitioned run of the pod cluster; returns
/// `(wall_s, events, completed)`. Best of `REPS`.
fn time_shards(shards: usize) -> (f64, u64, u64) {
    let cfg = pod_cluster(PODS, POD_QPS).expect("pod cluster builds");
    let opts = PartitionOptions::with_shards(shards);
    let duration = SimDuration::from_secs_f64(SHARD_SIM_SECS);
    let mut best = (f64::MAX, 0u64, 0u64);
    for _ in 0..REPS {
        let start = Instant::now();
        let run = uqsim_core::run_partitioned(&cfg, None, cfg.seed, duration, &opts)
            .expect("partitioned run succeeds");
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        if wall < best.0 {
            best = (wall, run.result.events_processed, run.result.completed);
        }
    }
    best
}

fn main() {
    let mut best_wall = f64::MAX;
    let mut best = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..REPS {
        let mut sim = two_tier(&TwoTierConfig::at_qps(QPS))
            .and_then(|cfg| cfg.build())
            .expect("scenario builds");
        // Warm the arenas/queues so steady-state allocations are measured,
        // not first-touch growth.
        sim.run_for(SimDuration::from_secs_f64(0.5));
        let ev0 = sim.events_processed();
        let a0 = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        sim.run_for(SimDuration::from_secs_f64(SIM_SECS));
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        let a1 = ALLOCATIONS.load(Ordering::Relaxed);
        let events = sim.events_processed() - ev0;
        if wall < best_wall {
            best_wall = wall;
            best = (events, a1 - a0, sim.completed(), sim.events_processed());
        }
    }
    let (events, allocs, completed, events_total) = best;
    println!("{{");
    println!(
        "  \"benchmark\": \"raw engine speed, two_tier at {QPS:.0} qps, {SIM_SECS}s simulated after 0.5s warmup, best of {REPS}\","
    );
    println!("  \"command\": \"cargo run --release -p uqsim-bench --bin bench_engine\",");
    println!("  \"events_per_sec\": {:.0},", events as f64 / best_wall);
    println!("  \"events\": {events},");
    println!("  \"events_total\": {events_total},");
    println!("  \"completed\": {completed},");
    println!("  \"wall_s\": {best_wall:.4},");
    println!("  \"steady_state_allocs\": {allocs},");
    println!(
        "  \"allocs_per_event\": {:.4},",
        allocs as f64 / events as f64
    );

    // Shard scaling: the partitioned engine on the pod cluster. Results
    // must be shard-invariant (P7) — the bench itself enforces that before
    // trusting the timings.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let shard_counts = [1usize, 2, 4];
    let timed: Vec<(usize, f64, u64, u64)> = shard_counts
        .iter()
        .map(|&k| {
            let (wall, ev, done) = time_shards(k);
            (k, wall, ev, done)
        })
        .collect();
    let (_, base_wall, base_ev, base_done) = timed[0];
    for &(k, _, ev, done) in &timed {
        assert_eq!(
            (ev, done),
            (base_ev, base_done),
            "shards={k} changed results — P7 violated"
        );
    }
    println!(
        "  \"shard_scaling\": {{\n    \"workload\": \"pod_cluster({PODS} pods, {} machines) at \
         {POD_QPS:.0} qps/pod, {SHARD_SIM_SECS}s simulated, best of {REPS}\",",
        PODS * 2
    );
    println!("    \"nproc\": {nproc},");
    println!("    \"events\": {base_ev},");
    println!("    \"completed\": {base_done},");
    println!("    \"shards\": [");
    for (i, &(k, wall, ev, _)) in timed.iter().enumerate() {
        let comma = if i + 1 < timed.len() { "," } else { "" };
        println!(
            "      {{ \"shards\": {k}, \"wall_s\": {wall:.4}, \"events_per_sec\": {:.0}, \
             \"speedup\": {:.2} }}{comma}",
            ev as f64 / wall,
            base_wall / wall
        );
    }
    println!("    ]");
    println!("  }}");
    println!("}}");
}
