//! Live-bytes ratchet for the run pipeline.
//!
//! A partitioned run holds one live simulator per shard plus the small
//! remains of each finished cell ([`uqsim_core::partition::CellOutput`]);
//! it used to hold every cell's finished simulator until the last export,
//! and every cell's copy of the whole service table, so its peak grew with
//! cells × cluster. This test pins the property: on one shard, four times
//! the cells must cost well under four times the memory — the simulator
//! that is running dominates, not the ones that are done. Bytes asked of
//! the allocator, not RSS, so the test is noise-immune and runs
//! unconditionally, like its neighbour `alloc_regression.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use uqsim_apps::scenarios::pod_cluster;
use uqsim_core::partition::{run_partitioned, PartitionOptions, SpanTracing};
use uqsim_core::time::SimDuration;

/// Bytes currently allocated, and the most they have been since
/// [`peak_above_baseline`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct LiveBytesAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` unchanged; the only addition
// is relaxed atomic arithmetic on two counters, which cannot violate
// allocator contracts.
unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAlloc = LiveBytesAlloc;

/// The most bytes a `uqsim run`-style pipeline run over `pods` pods holds
/// at once, above what was live when it was called (the scenario itself is
/// the caller's), and the cells it ran.
fn peak_above_baseline(pods: usize) -> (usize, usize) {
    let cfg = pod_cluster(pods, 20_000.0).expect("pod cluster builds");
    let opts = PartitionOptions {
        shards: 1,
        telemetry: None,
        span_tracing: SpanTracing::Off,
    };
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let run = run_partitioned(&cfg, None, 1, SimDuration::from_millis(300), &opts)
        .expect("pod cluster runs");
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert!(run.result.completed > 0);
    (peak, run.cells.len())
}

/// The bound on `peak(32 pods) / peak(8 pods)`. With every finished
/// simulator kept the ratio was 4.0 (14.0 → 55.8 MB); with remains it is
/// 1.3 (1.9 → 2.5 MB) — what still grows is the plan's per-cell configs
/// and the per-cell latency samples and registry snapshots.
const MAX_PEAK_GROWTH: f64 = 1.5;

#[test]
fn peak_live_bytes_follow_the_running_cell_not_the_cell_count() {
    let (small, small_cells) = peak_above_baseline(8);
    let (large, large_cells) = peak_above_baseline(32);
    assert_eq!((small_cells, large_cells), (8, 32), "one cell per pod");
    let growth = large as f64 / small as f64;
    assert!(
        growth < MAX_PEAK_GROWTH,
        "4x the cells cost {growth:.2}x the peak live bytes ({small} -> {large} B); \
         the ratchet is {MAX_PEAK_GROWTH} — finished cells are holding on to \
         something that grows with the cluster"
    );
}
