//! Live-bytes ratchets for the run pipeline: memory must follow neither
//! the cell count nor — beyond one exact sample per request — the run
//! length.
//!
//! A partitioned run holds one live simulator per shard plus the small
//! remains of each finished cell ([`uqsim_core::partition::CellOutput`]);
//! it used to hold every cell's finished simulator until the last export,
//! and every cell's copy of the whole service table, so its peak grew with
//! cells × cluster. This test pins the property: on one shard, four times
//! the cells must cost well under four times the memory — the simulator
//! that is running dominates, not the ones that are done.
//!
//! And a run keeps exactly one thing per measured request: its exact
//! end-to-end latency in nanoseconds, sorted into runs of 32 Ki and
//! delta-coded as varints — about a byte each (the percentiles every golden
//! file pins are read off those). Per-instance residence times and
//! per-type latencies are bounded histograms, and the end-of-run summary
//! merges the runs without decoding them into memory. The second test
//! pins that as bytes per additional measured request.
//!
//! Observing a run must not change that. `uqsim why` records every span
//! event, audits the log and replays it into a second critical-path
//! profile; the log is streamed through a few reused chunks, the auditor
//! forgets a request where the log says its slot was released, and a
//! profile keeps only the latency buckets it touched. Two tests pin
//! both: a checked run under the same per-request bound as a plain
//! one, and a checked 30-cell cluster under a recorded peak.
//!
//! Exporting a retained log must not change it either: the Chrome trace is
//! two and a half times the size of the log it is rendered from, and is
//! written an event at a time, never held. The last test pins the bytes an
//! export holds beyond the log.
//!
//! Bytes asked of the allocator, not RSS, so the tests are noise-immune and
//! run unconditionally, like their neighbour `alloc_regression.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use uqsim_apps::scenarios::pod_cluster;
use uqsim_core::config::ScenarioConfig;
use uqsim_core::partition::{run_partitioned, PartitionOptions, PartitionedRun, SpanTracing};
use uqsim_core::time::SimDuration;

/// Bytes currently allocated, and the most they have been since
/// [`peak_of`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The two counters are the process's, and count what every thread
/// allocates: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A test that failed holding the lock has left nothing half-done in it.
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Runs `cfg` through the pipeline on this thread and returns the most
/// bytes the run held at once, above what was live when it was called (the
/// scenario itself is the caller's), with the run.
fn peak_of(cfg: &ScenarioConfig, secs: f64, opts: &PartitionOptions) -> (usize, PartitionedRun) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let run = run_partitioned(cfg, None, 1, SimDuration::from_secs_f64(secs), opts)
        .expect("scenario runs");
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert!(run.result.completed > 0);
    (peak, run)
}

/// The peak of a `uqsim run`-style run over `pods` pods, and the cells it
/// ran.
fn peak_above_baseline(pods: usize) -> (usize, usize) {
    let cfg = pod_cluster(pods, 20_000.0).expect("pod cluster builds");
    let opts = PartitionOptions {
        shards: 1,
        telemetry: None,
        span_tracing: SpanTracing::Off,
    };
    let (peak, run) = peak_of(&cfg, 0.3, &opts);
    (peak, run.cells.len())
}

/// The bound on `peak(32 pods) / peak(8 pods)`. With every finished
/// simulator kept the ratio was 4.0 (14.0 → 55.8 MB); with remains it is
/// 1.3 (1.9 → 2.5 MB) — what still grows is the plan's per-cell configs
/// and the per-cell latency samples and registry snapshots.
const MAX_PEAK_GROWTH: f64 = 1.5;

#[test]
fn peak_live_bytes_follow_the_running_cell_not_the_cell_count() {
    let _alone = one_at_a_time();
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

/// The bound on peak live bytes per additional measured request. What a
/// run measures is its sealed runs — about a byte a sample, the varint of
/// its distance from its neighbour — plus the last few buckets the bounded
/// histograms touch: 1.11 B on `two_tier` (50 k → 170 k requests) and
/// 1.26 B on `social_network` (20 k → 68 k), with the open buffer at its
/// full 256 KB in both runs of each pair. The bound is 1.5 × the larger.
/// While every sample was an 8-byte `f64` in a `Vec` the same pairs over
/// 2 s → 6 s read 10.1 B and 14.0 B (bound 21), and before that — every
/// instance visit and a second, per-type copy of every latency kept as
/// samples, and the summary sorting a copy of them — 57.4 B and 186.4 B.
const MAX_BYTES_PER_MEASURED_REQUEST: f64 = 1.9;

#[test]
fn a_measured_request_costs_one_exact_sample() {
    let _alone = one_at_a_time();
    for (name, json) in [
        ("two_tier", include_str!("../../cli/configs/two_tier.json")),
        (
            "social_network",
            include_str!("../../cli/configs/social_network.json"),
        ),
    ] {
        let cfg = ScenarioConfig::from_json(json).expect("bundled scenario parses");
        // What `uqsim run` installs: decomposition telemetry and the
        // streaming critical-path profile, all of it bounded.
        let opts = PartitionOptions::default();
        let (short_peak, short) = peak_of(&cfg, 3.0, &opts);
        let (long_peak, long) = peak_of(&cfg, 9.0, &opts);
        let requests = (long.result.latency.count - short.result.latency.count) as f64;
        assert!(requests > 40_000.0, "{name}: {requests} more requests");
        let per_request = (long_peak as f64 - short_peak as f64) / requests;
        assert!(
            per_request < MAX_BYTES_PER_MEASURED_REQUEST,
            "{name}: {per_request:.1} B of peak live memory per additional measured request \
             ({short_peak} -> {long_peak} B over {requests} requests); the ratchet is \
             {MAX_BYTES_PER_MEASURED_REQUEST} — something besides the exact end-to-end \
             sample is being kept per request, or the summary copies the samples again"
        );
    }
}

/// What `uqsim why` asks of the pipeline: the default telemetry with the
/// streaming critical-path profile, and every span event audited and
/// replayed as it streams past.
fn why_options() -> PartitionOptions {
    PartitionOptions {
        span_tracing: SpanTracing::Check {
            events: 50_000_000,
            replay: true,
        },
        ..PartitionOptions::default()
    }
}

/// The bound on peak live bytes per additional measured request under
/// `uqsim why`'s observers: the streamed log is two to four 240 KB chunks
/// however long the run, and which of those a run's peak catches depends
/// on how far the consumer thread lags — up to 10 B per request of the
/// pair below on its own, above what the samples cost.
const MAX_BYTES_PER_OBSERVED_REQUEST: f64 = 21.0;

/// `uqsim why` on `social_network` for 2 s and for 8 s: the 48 k more
/// measured requests may cost what they cost a plain run — their exact
/// samples — and the observers nothing: not the audit (a record per
/// request *slot*, 15 of them here), not the replay, not the log. Measured:
/// 5.1 B (2.7 B of it the open sample buffer doubling to its full 256 KB
/// between the two runs); 9.9 B, or 15.1 B when the consumer once fell a
/// chunk further behind, while samples were 8-byte `f64`s. While the
/// auditor kept a record and a fan-in entry per request for the whole run,
/// and a chunk was 1.8 MB, this read 302 B.
#[test]
fn observation_memory_does_not_follow_run_length() {
    let _alone = one_at_a_time();
    let json = include_str!("../../cli/configs/social_network.json");
    let cfg = ScenarioConfig::from_json(json).expect("bundled scenario parses");
    let (short_peak, short) = peak_of(&cfg, 2.0, &why_options());
    let (long_peak, long) = peak_of(&cfg, 8.0, &why_options());
    for run in [&short, &long] {
        let checks = run.cells[0].checks.as_ref().expect("the log was checked");
        assert!(checks.audit.is_clean(), "{:?}", checks.audit.violations);
        assert_eq!(checks.replay, Some(Ok(())));
    }
    let requests = (long.result.latency.count - short.result.latency.count) as f64;
    assert!(requests > 40_000.0, "{requests} more requests");
    let per_request = (long_peak as f64 - short_peak as f64) / requests;
    assert!(
        per_request < MAX_BYTES_PER_OBSERVED_REQUEST,
        "{per_request:.1} B of peak live memory per additional measured request under \
         `why` ({short_peak} -> {long_peak} B over {requests} requests); the ratchet is \
         {MAX_BYTES_PER_OBSERVED_REQUEST} — a fold keeps something per request past its \
         retirement, or the log is being stored"
    );
}

/// The most a checked run of the bundled `gen_dsb` cluster (30 cells, one
/// shard, 0.6 s) may hold at once: 1.3 × the 14.9 MB measured — the plan,
/// one running cell with its chunk ring and two folds, and per finished
/// cell its samples, registry and one critical-path profile of the buckets
/// it touched. With profiles indexed from bucket 0 it was 110.7 MB (a
/// ≈ 3.6 MB table per cell, and their merge).
const MAX_CHECKED_CLUSTER_PEAK: usize = 20_000_000;

#[test]
fn a_checked_cluster_holds_touched_buckets_not_dense_profiles() {
    let _alone = one_at_a_time();
    let spec = uqsim_synth::GenSpec::from_json(include_str!("../../cli/configs/gen_dsb.json"))
        .expect("bundled spec parses");
    let cfg = spec.generate(1).expect("bundled spec generates");
    let (peak, run) = peak_of(&cfg, 0.6, &why_options());
    assert_eq!(run.cells.len(), 30);
    assert!(run.audit().expect("the logs were checked").is_clean());
    assert!(
        peak < MAX_CHECKED_CLUSTER_PEAK,
        "a checked 30-cell run peaked at {peak} B; the ratchet is \
         {MAX_CHECKED_CLUSTER_PEAK} — finished cells are keeping more than the \
         buckets their profiles touched"
    );
}

/// The most a Chrome export may hold beyond the retained log it reads:
/// the writer's 64 KB buffer and a few scratch strings (measured: 65,728 B
/// for 27.8 MB of JSON). While the export built the `Value` tree, copied it
/// and printed the copy into a `String`, the same 200 k-event log (11 MB)
/// cost 182.7 MB more.
const MAX_EXPORT_LIVE_BYTES: usize = 1_000_000;

#[test]
fn a_chrome_export_holds_no_more_than_the_log_it_reads() {
    let _alone = one_at_a_time();
    let json = include_str!("../../cli/configs/two_tier.json");
    let cfg = ScenarioConfig::from_json(json).expect("bundled scenario parses");
    let opts = PartitionOptions {
        span_tracing: SpanTracing::Retain(200_000),
        ..PartitionOptions::default()
    };
    let (_, run) = peak_of(&cfg, 1.0, &opts);
    assert_eq!(run.cells[0].span_events, 200_000, "the log is full");

    /// Counts the bytes it is given.
    struct Count(usize);
    impl std::io::Write for Count {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let mut out = std::io::BufWriter::with_capacity(1 << 16, Count(0));
    let trace = run.chrome_trace().expect("the log is retained");
    serde_json::to_writer_pretty(&mut out, &trace).expect("counting cannot fail");
    std::io::Write::flush(&mut out).expect("counting cannot fail");
    let written = out.get_ref().0;
    let held = PEAK.load(Ordering::Relaxed) - baseline;
    assert!(written > 20_000_000, "{written} B of JSON");
    assert!(
        held < MAX_EXPORT_LIVE_BYTES,
        "exporting {written} B of Chrome trace held {held} B beyond the log; the ratchet \
         is {MAX_EXPORT_LIVE_BYTES} — the export is building what it prints"
    );
}
