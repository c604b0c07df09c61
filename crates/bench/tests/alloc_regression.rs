//! Allocation ratchet for the dispatch hot path.
//!
//! Before the event-core rewrite the engine allocated ~0.94 times per
//! event at steady state (per-event heap boxes, cloned job vectors,
//! rebuilt batch buffers). The ladder queue + arena/pool recycling took
//! that to ~0.001, and the `benchmark/` ledger's `sim.allocs_per_event`
//! row now reads 8.9 × 10⁻⁵ on `two_tier_run`. This test pins the property
//! with two orders of magnitude of headroom: if steady-state dispatch
//! starts allocating per event again, it fails regardless of machine
//! speed (counts, not wall-clock, so it is noise-immune and runs
//! unconditionally).
//!
//! Two cases: the cache-resident `two_tier` the rewrite was measured on,
//! and one cell of the bundled `gen_dsb.json` cluster — fan-out, MMPP
//! bursts, ephemeral connections — where what is left is named below.
//! A third pins the read path of the configuration itself against what it
//! reads, and a fourth the whole set-up of a generated cluster.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uqsim_apps::scenarios::{two_tier, TwoTierConfig};
use uqsim_core::partition::split_cells;
use uqsim_core::sim::Simulator;
use uqsim_core::time::SimDuration;

thread_local! {
    /// Allocations made by this thread. A simulator runs on the thread of
    /// the test that built it, so the two cases, which the harness runs
    /// side by side, do not count each other's.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Not `with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method delegates to `System` unchanged; the only addition
// is an increment of a const-initialised thread-local (no lazy set-up, so
// it never allocates), which cannot violate allocator contracts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Pre-rewrite steady state was ~0.944 allocations/event; post-rewrite is
/// ~0.001. The ratchet sits well below the old number and well above the
/// new one, so real regressions trip it and arena-growth jitter does not.
const MAX_ALLOCS_PER_EVENT: f64 = 0.05;

/// Allocations per event of `sim` over `measure` of simulated time, after
/// `warm` of it has gone by.
fn allocs_per_event(sim: &mut Simulator, warm: SimDuration, measure: SimDuration) -> f64 {
    // Warm arenas, queues, and pools past first-touch growth.
    sim.run_for(warm);
    let ev0 = sim.events_processed();
    let a0 = ALLOCATIONS.get();
    sim.run_for(measure);
    let allocs = ALLOCATIONS.get() - a0;
    let events = sim.events_processed() - ev0;
    assert!(
        events > 10_000,
        "scenario too small to measure: {events} events"
    );
    allocs as f64 / events as f64
}

#[test]
fn steady_state_dispatch_does_not_allocate_per_event() {
    let mut sim = two_tier(&TwoTierConfig::at_qps(5_000.0))
        .and_then(|cfg| cfg.build())
        .expect("scenario builds");
    let per_event = allocs_per_event(
        &mut sim,
        SimDuration::from_secs_f64(0.5),
        SimDuration::from_secs_f64(1.0),
    );
    assert!(
        per_event < MAX_ALLOCS_PER_EVENT,
        "steady-state dispatch allocates {per_event:.4} times per event; the ratchet \
         is {MAX_ALLOCS_PER_EVENT} — the hot path has started heap-allocating again"
    );
}

/// One cell of `gen_dsb` (a replica of the generated cluster: 37 instances
/// behind one MMPP client) allocates 3.1 × 10⁻³ times per event after its
/// own warm-up (592 allocations in 189,175 events), 35× `two_tier`'s
/// 9 × 10⁻⁵; the bound is twice that. None of it is per event — all of it
/// is something growing that has not yet been as large:
///
/// * nineteen twentieths, a connection's subqueue taking its first job
///   (`StageQueue::push`): an MMPP burst runs more requests at once than
///   any before it, over ephemeral connections and stages that had not
///   held two jobs together until then;
/// * the rest: batch buffers and the request arena reaching a size they
///   had not, and the latency recorder's current run doubling.
///
/// What was recycled to get here from 9.2 × 10⁻³: the event queue's
/// sorted bottom keeps its storage across refills (it used to swap it for
/// a bucket's and regrow, 2.0 × 10⁻³/event), a connection whose jobs
/// never queue behind one another has no subqueue to create
/// (`StageQueue::PerConn`'s inline job, 2.2 × 10⁻³/event), per-instance
/// residency is a bounded histogram, not 37 sample vectors that keep every
/// node visit and double (1.3 × 10⁻³/event), and the event queue's
/// overflow is one heap that keeps its storage, not rungs of 256 buckets
/// each taking its first event (249 of the 841 allocations the same
/// window made before, 1.3 × 10⁻³/event).
const MAX_GEN_DSB_ALLOCS_PER_EVENT: f64 = 0.0063;

#[test]
fn a_gen_dsb_cell_does_not_allocate_per_event() {
    let spec = uqsim_synth::GenSpec::from_json(include_str!("../../cli/configs/gen_dsb.json"))
        .expect("bundled spec parses");
    let cluster = spec.generate(1).expect("bundled spec generates");
    let cell = &split_cells(&cluster).expect("cluster splits")[0].config;
    let mut sim = cell.build().expect("cell builds");
    let per_event = allocs_per_event(
        &mut sim,
        SimDuration::from_secs_f64(cell.warmup_s),
        SimDuration::from_secs_f64(3.5),
    );
    assert!(
        per_event < MAX_GEN_DSB_ALLOCS_PER_EVENT,
        "a gen_dsb cell allocates {per_event:.5} times per event after warm-up; the \
         ratchet is {MAX_GEN_DSB_ALLOCS_PER_EVENT} (2x what first-touch growth accounts for)"
    );
}

/// Reading a configuration may allocate what the configuration holds and
/// not much more: the vectors a `clone()` of it allocates, one string per
/// distinct name (names are shared, so a clone allocates none, and one
/// interner reads the whole directory), the file texts, and the vectors'
/// growth on the way. The generated `gen_dsb` cluster as a Table I
/// directory (2.28 MB, 1,107 instances, 5,025 pools) allocated 136,837
/// times to read while a `Value` tree was built on the way in, and 28,740
/// times read straight from the text when every name was its own `String`
/// (against a clone's 28,045, 89 % of it strings). With names shared it
/// holds 1,760 distinct names (1,774 distinct string values with its enum
/// tags), a clone allocates 3,740 times, and reading allocates 6,199 times
/// (1.12 × the two together). The bound, 8,271 allocations, sits well
/// below what either of those would make, so a tree on the read path
/// fails it, and so does a name read again per reference.
const MAX_READ_ALLOCS_PER_CLONE_ALLOC: f64 = 1.5;

/// What `cfg` holds that a clone does not copy: its distinct names, counted
/// as the distinct string values of its JSON (every name a field holds,
/// whatever the field, and the few tags of its enums on top).
fn distinct_names(cfg: &uqsim_core::config::ScenarioConfig) -> u64 {
    fn walk<'a>(value: &'a serde_json::Value, out: &mut std::collections::HashSet<&'a str>) {
        match value {
            serde_json::Value::String(s) => {
                out.insert(s.as_str());
            }
            serde_json::Value::Array(items) => items.iter().for_each(|v| walk(v, out)),
            serde_json::Value::Object(map) => map.iter().for_each(|(_, v)| walk(v, out)),
            _ => {}
        }
    }
    let tree = serde_json::to_value(cfg).expect("a scenario serializes");
    let mut strings = std::collections::HashSet::new();
    walk(&tree, &mut strings);
    strings.len() as u64
}

#[test]
fn reading_a_table_i_directory_allocates_about_what_a_clone_does() {
    use uqsim_core::config::ScenarioConfig;
    let spec = uqsim_synth::GenSpec::from_json(include_str!("../../cli/configs/gen_dsb.json"))
        .expect("bundled spec parses");
    let cluster = spec.generate(1).expect("bundled spec generates");
    let dir = std::env::temp_dir().join(format!("uqsim-alloc-read-{}", std::process::id()));
    cluster.write_dir(&dir).expect("directory written");
    let a0 = ALLOCATIONS.get();
    let read = ScenarioConfig::from_dir(&dir);
    let read_allocs = ALLOCATIONS.get() - a0;
    std::fs::remove_dir_all(&dir).expect("directory removed");
    let read = read.expect("directory reads");
    let a0 = ALLOCATIONS.get();
    let copy = read.clone();
    let clone_allocs = ALLOCATIONS.get() - a0;
    assert_eq!(copy, cluster);
    let held = clone_allocs + distinct_names(&read);
    let ratio = read_allocs as f64 / held as f64;
    assert!(
        ratio <= MAX_READ_ALLOCS_PER_CLONE_ALLOC,
        "from_dir allocates {read_allocs} times, {ratio:.2} x the {held} of a clone plus one \
         per distinct name; the ratchet is {MAX_READ_ALLOCS_PER_CLONE_ALLOC} — is a tree being \
         built on the way in, or a name allocated per reference?"
    );
}

/// Set-up of a generated cluster as `benchmark/`'s `setup_s` on
/// `gen_dsb_sharded` times it: generate the bundled `gen_dsb` spec, write
/// its Table I directory, read it back, plan it on two shards and build
/// each of its 30 cells under its own seed. It allocated 153,419 times
/// while every name and every reference to one was its own `String`
/// (generate 33.4 k, read 28.7 k, plan 32.5 k, 30 re-seeded builds
/// 58.7 k). With names shared, each distinct name is allocated once per
/// generation and once per read, and nothing after that copies one: 49.0 k
/// (generate 8.7 k, read 6.2 k, plan 7.1 k, builds 27.0 k). The bound is
/// half the old count.
const MAX_SETUP_ALLOCS: u64 = 153_419 / 2;

#[test]
fn setting_up_a_generated_cluster_allocates_at_most_half_of_what_it_did() {
    use uqsim_core::config::ScenarioConfig;
    use uqsim_core::partition::{cell_seed, PartitionPlan};
    let spec = uqsim_synth::GenSpec::from_json(include_str!("../../cli/configs/gen_dsb.json"))
        .expect("bundled spec parses");
    let dir = std::env::temp_dir().join(format!("uqsim-alloc-setup-{}", std::process::id()));
    let a0 = ALLOCATIONS.get();
    let cluster = spec.generate(1).expect("bundled spec generates");
    let generated = ALLOCATIONS.get();
    cluster.write_dir(&dir).expect("directory written");
    let written = ALLOCATIONS.get();
    let read = ScenarioConfig::from_dir(&dir).expect("directory reads");
    let loaded = ALLOCATIONS.get();
    let plan = PartitionPlan::new(&read, 2).expect("cluster plans");
    let planned = ALLOCATIONS.get();
    for (i, cell) in plan.cells.iter().enumerate() {
        let sim = cell.config.with_seed(cell_seed(1, i as u64)).build();
        drop(sim.expect("cell builds"));
    }
    let built = ALLOCATIONS.get();
    std::fs::remove_dir_all(&dir).expect("directory removed");
    assert_eq!(plan.cells.len(), 30);
    let total = built - a0;
    assert!(
        total <= MAX_SETUP_ALLOCS,
        "set-up allocates {total} times (generate {}, write {}, read {}, plan {}, 30 builds {}); \
         the ratchet is {MAX_SETUP_ALLOCS} — is a name being copied again?",
        generated - a0,
        written - generated,
        loaded - written,
        planned - loaded,
        built - planned,
    );
}
