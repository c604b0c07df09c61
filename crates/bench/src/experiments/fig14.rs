//! Fig. 14 — tail at scale: the impact of slow servers on tail latency as
//! the fanout (cluster size) grows from 5 to 1000.
//!
//! One-stage queueing system per leaf with exponentially distributed
//! ~1 ms processing; a configurable fraction of randomly-selected leaves
//! is 10× slower; a request returns only after the last leaf responds
//! (§V-A, following Dean & Barroso's "The Tail at Scale").
//!
//! Paper anchor: for clusters beyond ~100 servers, 1% slow servers is
//! sufficient to pin the tail at the slow-server regime.

use crate::RunOpts;
use uqsim_apps::scenarios::{tail_at_scale, TailAtScaleConfig};
use uqsim_core::SimResult;

/// One cell of the Fig. 14 grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Cluster size (fanout).
    pub cluster_size: usize,
    /// Fraction of slow leaves.
    pub slow_fraction: f64,
    /// Measured p99, seconds.
    pub p99: f64,
    /// Measured mean, seconds.
    pub mean: f64,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Vec<Cell>> {
    println!("# Fig. 14 — tail at scale (p99 vs cluster size, per slow-server fraction)");
    let quick = opts.duration.as_secs_f64() < 2.0;
    let sizes: &[usize] = if quick {
        &[5, 20, 100, 300]
    } else {
        &[5, 10, 20, 50, 100, 200, 500, 1000]
    };
    let fractions = [0.0, 0.001, 0.01, 0.05, 0.10];
    // Per-leaf utilization 0.06 on fast leaves and 0.6 on 10x-slow ones:
    // every leaf stays stable, but slow leaves dominate the fanout tail.
    let qps = 60.0;
    // Flatten the (cluster size × slow fraction) grid so every cell is an
    // independent parallel task; print the table once all cells are back.
    let grid: Vec<(usize, f64)> = sizes
        .iter()
        .flat_map(|&n| fractions.iter().map(move |&f| (n, f)))
        .collect();
    let mut cfgs = Vec::new();
    for &(n, f) in &grid {
        let mut cfg = TailAtScaleConfig::new(n, f, qps);
        cfg.common.warmup = opts.warmup;
        cfgs.push(tail_at_scale(&cfg)?);
    }
    let runs = super::run_cells(opts, &cfgs)?;
    let cells: Vec<Cell> = grid
        .iter()
        .zip(runs)
        .map(|(&(n, f), r)| Cell {
            cluster_size: n,
            slow_fraction: f,
            p99: r.latency.p99,
            mean: r.latency.mean,
        })
        .collect();
    println!(
        "{:>9} {:>10} {:>10} {:>10}",
        "cluster", "slow_frac", "mean_ms", "p99_ms"
    );
    for c in &cells {
        println!(
            "{:>9} {:>10.3} {:>10.3} {:>10.3}",
            c.cluster_size,
            c.slow_fraction,
            c.mean * 1e3,
            c.p99 * 1e3
        );
    }
    println!(
        "paper shape check: p99 rises with cluster size and slow fraction; beyond ~{} servers,\n\
         1% slow servers pins the tail in the 10x-slow regime.",
        crate::reference::TAIL_AT_SCALE_CRITICAL_CLUSTER
    );
    Ok(cells)
}
