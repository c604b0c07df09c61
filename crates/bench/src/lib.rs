//! # uqsim-bench
//!
//! The experiment harness: load sweeps, saturation detection, table
//! printing, the paper's reference anchors, and the power-management
//! experiment driver. Each `src/bin/figXX_*.rs` binary regenerates one
//! table or figure of the evaluation; see EXPERIMENTS.md at the repository
//! root for the full index and recorded outputs.
//!
//! Every load-sweep figure describes its curves as
//! [`ScenarioConfig`](uqsim_core::config::ScenarioConfig)s (one per curve,
//! from `uqsim_apps::scenarios`) and runs them through
//! [`uqsim_runner::sweep::run_cells`] — the fan-out `uqsim sweep` uses, each
//! cell one run of the run pipeline's one queue
//! ([`uqsim_core::partition::run_batch`]) — so any cell can be
//! printed (`cfg.to_json()`) and handed to `uqsim why`. Output is identical
//! at any worker count; only wall-clock changes. Experiments therefore
//! *compute first, print after*.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use uqsim_core::metrics::LatencySummary;
use uqsim_core::run::RunResult;
use uqsim_core::time::SimDuration;

pub mod experiments;
pub mod power_experiment;
pub mod reference;

/// One measured point of a load–latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load, requests/second.
    pub offered_qps: f64,
    /// Achieved post-warmup throughput, requests/second.
    pub achieved_qps: f64,
    /// End-to-end latency over post-warmup completions.
    pub latency: LatencySummary,
}

impl LoadPoint {
    /// The point a run at `offered_qps` measured.
    pub fn of(offered_qps: f64, run: &RunResult) -> Self {
        LoadPoint {
            offered_qps,
            achieved_qps: run.achieved_qps,
            latency: run.latency,
        }
    }

    /// True if the system kept up with the offered load (within 5%).
    pub fn kept_up(&self) -> bool {
        self.achieved_qps >= 0.95 * self.offered_qps
    }
}

/// Harness-wide run options.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Simulated measurement duration per point (after warmup).
    pub duration: SimDuration,
    /// Simulated warmup per point.
    pub warmup: SimDuration,
    /// Worker threads for sweep execution (0 or 1 = serial). Changes
    /// wall-clock only — results are identical at any value.
    pub jobs: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            duration: SimDuration::from_secs(4),
            warmup: SimDuration::from_secs(1),
            jobs: uqsim_runner::available_jobs(),
        }
    }
}

impl RunOpts {
    /// Reads options from the process arguments: `--quick` shortens runs,
    /// `--jobs N` sets the worker count (default: all cores). A `--jobs`
    /// without a usable value is a usage error: the message goes to stderr
    /// and the process exits 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: [--quick] [--jobs N]");
            std::process::exit(2)
        })
    }

    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = if args.iter().any(|a| a == "--quick") {
            RunOpts {
                duration: SimDuration::from_millis(1500),
                warmup: SimDuration::from_millis(500),
                ..Default::default()
            }
        } else {
            RunOpts::default()
        };
        if let Some(i) = args.iter().position(|a| a == "--jobs") {
            let value = args.get(i + 1).ok_or("--jobs needs a value")?;
            let jobs: usize = value
                .parse()
                .map_err(|_| format!("invalid --jobs `{value}`: expected a worker count"))?;
            opts.jobs = jobs.max(1);
        }
        Ok(opts)
    }

    /// Total simulated time per point.
    pub fn total(&self) -> SimDuration {
        self.warmup + self.duration
    }
}

/// The offered load at which the system stops keeping up (or the tail
/// exceeds `p99_limit_s`), linearly interpreted as "the previous point
/// still held". Returns the last offered load if no point saturated.
pub fn saturation_qps(points: &[LoadPoint], p99_limit_s: f64) -> f64 {
    for (i, p) in points.iter().enumerate() {
        if !p.kept_up() || p.latency.p99 > p99_limit_s {
            return if i == 0 {
                p.offered_qps
            } else {
                points[i - 1].offered_qps
            };
        }
    }
    points.last().map(|p| p.offered_qps).unwrap_or(0.0)
}

/// Renders a load–latency series as an aligned table (used by experiments
/// that compute in parallel first and print afterwards).
pub fn format_series(label: &str, points: &[LoadPoint]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "## {label}").unwrap();
    writeln!(
        out,
        "{:>12} {:>13} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "offered_qps", "achieved_qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "kept_up"
    )
    .unwrap();
    for p in points {
        writeln!(
            out,
            "{:>12.0} {:>13.0} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9}",
            p.offered_qps,
            p.achieved_qps,
            p.latency.mean * 1e3,
            p.latency.p50 * 1e3,
            p.latency.p95 * 1e3,
            p.latency.p99 * 1e3,
            if p.kept_up() { "yes" } else { "NO" },
        )
        .unwrap();
    }
    out
}

/// Prints a load–latency series as an aligned table.
pub fn print_series(label: &str, points: &[LoadPoint]) {
    print!("{}", format_series(label, points));
}

/// Mean absolute deviation between two series' means and p99s (the
/// sim-vs-real deviation statistic of §IV-A), over points where both kept
/// up *and* stayed out of the saturation knee (p99 under 20 ms) —
/// pre-saturation, as the paper measures. `None` when no pair qualifies:
/// nothing was compared, which is not agreement.
pub fn deviation_ms(a: &[LoadPoint], b: &[LoadPoint]) -> Option<(f64, f64)> {
    let pairs: Vec<(&LoadPoint, &LoadPoint)> = a
        .iter()
        .zip(b)
        .filter(|(x, y)| {
            x.kept_up() && y.kept_up() && x.latency.p99 < 20e-3 && y.latency.p99 < 20e-3
        })
        .collect();
    if pairs.is_empty() {
        return None;
    }
    let n = pairs.len() as f64;
    let mean_dev = pairs
        .iter()
        .map(|(x, y)| (x.latency.mean - y.latency.mean).abs())
        .sum::<f64>()
        / n;
    let tail_dev = pairs
        .iter()
        .map(|(x, y)| (x.latency.p99 - y.latency.p99).abs())
        .sum::<f64>()
        / n;
    Some((mean_dev * 1e3, tail_dev * 1e3))
}

/// Renders [`deviation_ms`] for a figure's summary line, with the paper's
/// own `(mean, p99)` deviation beside it where the text states one.
pub fn format_deviation(dev: Option<(f64, f64)>, paper: Option<(f64, f64)>) -> String {
    match (dev, paper) {
        (None, _) => "n/a (no pre-saturation pair)".to_string(),
        (Some((mean, p99)), None) => format!("mean {mean:.2}ms, p99 {p99:.2}ms"),
        (Some((mean, p99)), Some((paper_mean, paper_p99))) => format!(
            "mean {mean:.2}ms (paper: {paper_mean:.2}ms), p99 {p99:.2}ms (paper: {paper_p99:.2}ms)"
        ),
    }
}

/// Geometrically spaced loads from `lo` to `hi` (inclusive-ish).
pub fn geometric_loads(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi > lo);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// Linearly spaced loads from `lo` to `hi` inclusive.
pub fn linear_loads(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(offered: f64, achieved: f64, p99: f64) -> LoadPoint {
        LoadPoint {
            offered_qps: offered,
            achieved_qps: achieved,
            latency: LatencySummary {
                count: 100,
                mean: p99 / 2.0,
                p50: p99 / 2.0,
                p95: p99 * 0.9,
                p99,
                max: p99,
            },
        }
    }

    #[test]
    fn saturation_detects_throughput_collapse() {
        let pts = vec![
            point(10.0, 10.0, 1e-3),
            point(20.0, 19.9, 1e-3),
            point(30.0, 22.0, 1e-3),
        ];
        assert_eq!(saturation_qps(&pts, 1.0), 20.0);
    }

    #[test]
    fn saturation_detects_tail_blowup() {
        let pts = vec![point(10.0, 10.0, 1e-3), point(20.0, 20.0, 0.5)];
        assert_eq!(saturation_qps(&pts, 0.1), 10.0);
    }

    #[test]
    fn saturation_none_returns_last() {
        let pts = vec![point(10.0, 10.0, 1e-3), point(20.0, 20.0, 1e-3)];
        assert_eq!(saturation_qps(&pts, 1.0), 20.0);
    }

    #[test]
    fn deviation_ignores_saturated_points() {
        let a = vec![point(10.0, 10.0, 2e-3), point(20.0, 12.0, 50e-3)];
        let b = vec![point(10.0, 10.0, 3e-3), point(20.0, 20.0, 1e-3)];
        let (_, tail) = deviation_ms(&a, &b).expect("the first pair qualifies");
        assert!(
            (tail - 1.0).abs() < 1e-9,
            "only the first pair counts: {tail}"
        );
        // No qualifying pair is "nothing compared", never "0.00 ms apart".
        assert_eq!(deviation_ms(&a[1..], &b[1..]), None);
        assert_eq!(deviation_ms(&[], &[]), None);
        assert_eq!(
            format_deviation(None, Some((0.17, 0.83))),
            "n/a (no pre-saturation pair)"
        );
    }

    #[test]
    fn a_mistyped_jobs_value_is_an_error_not_all_cores() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            RunOpts::parse(&args)
        };
        assert_eq!(parse(&["--quick", "--jobs", "3"]).unwrap().jobs, 3);
        assert_eq!(parse(&["--jobs", "0"]).unwrap().jobs, 1);
        assert!(parse(&["--jobs", "abc"]).unwrap_err().contains("`abc`"));
        assert!(parse(&["--quick", "--jobs"]).is_err());
        assert!(parse(&["--quick"]).unwrap().duration < RunOpts::default().duration);
    }

    #[test]
    fn load_spacings() {
        let g = geometric_loads(1.0, 100.0, 3);
        assert!((g[1] - 10.0).abs() < 1e-9);
        let l = linear_loads(0.0, 10.0, 3);
        assert_eq!(l, vec![0.0, 5.0, 10.0]);
    }
}
