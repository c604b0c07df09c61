//! Regenerates every table and figure in sequence. Pass `--quick` for a
//! fast pass (shorter simulated durations, fewer sweep points) and
//! `--jobs N` to bound the worker threads each experiment's internal
//! sweeps fan out across (default: all available cores).
//!
//! Experiments run one after another — each parallelizes internally over
//! its (curve × load) cells — and a failing experiment no longer aborts
//! the batch: every failure is collected, reported at the end, and turns
//! the exit status non-zero.

use std::time::Instant;

use uqsim_bench::experiments as ex;
use uqsim_bench::RunOpts;

fn main() {
    let opts = RunOpts::from_args();
    println!(
        "run_all: {} worker thread(s) per experiment (override with --jobs N)",
        opts.jobs
    );
    type Step = Box<dyn Fn(&RunOpts) -> Result<(), uqsim_core::SimError>>;
    let steps: Vec<(&str, Step)> = vec![
        (
            "fig05",
            Box::new(|o: &RunOpts| ex::fig05::run(o).map(|_| ())),
        ),
        (
            "fig06",
            Box::new(|o: &RunOpts| ex::fig06::run(o).map(|_| ())),
        ),
        (
            "fig08",
            Box::new(|o: &RunOpts| ex::fig08::run(o).map(|_| ())),
        ),
        (
            "fig10",
            Box::new(|o: &RunOpts| ex::fig10::run(o).map(|_| ())),
        ),
        (
            "fig12a",
            Box::new(|o: &RunOpts| ex::fig12a::run(o).map(|_| ())),
        ),
        (
            "fig12b",
            Box::new(|o: &RunOpts| ex::fig12b::run(o).map(|_| ())),
        ),
        (
            "fig13",
            Box::new(|o: &RunOpts| ex::fig13::run(o).map(|_| ())),
        ),
        (
            "fig14",
            Box::new(|o: &RunOpts| ex::fig14::run(o).map(|_| ())),
        ),
        (
            "fig15",
            Box::new(|o: &RunOpts| ex::fig15::run(o).map(|_| ())),
        ),
        (
            "fig16",
            Box::new(|o: &RunOpts| ex::fig16::run(o).map(|_| ())),
        ),
        (
            "table3",
            Box::new(|o: &RunOpts| ex::table3::run(o).map(|_| ())),
        ),
        (
            "ablations",
            Box::new(|o: &RunOpts| ex::ablations::run(o).map(|_| ())),
        ),
    ];
    let total = steps.len();
    let batch_start = Instant::now();
    let mut failures: Vec<(&str, uqsim_core::SimError)> = Vec::new();
    for (i, (name, step)) in steps.into_iter().enumerate() {
        println!("\n========== {name} [{}/{total}] ==========", i + 1);
        let start = Instant::now();
        match step(&opts) {
            Ok(()) => println!("{name} done in {:.1}s", start.elapsed().as_secs_f64()),
            Err(e) => {
                eprintln!(
                    "{name} FAILED after {:.1}s: {e}",
                    start.elapsed().as_secs_f64()
                );
                failures.push((name, e));
            }
        }
    }
    println!(
        "\nrun_all finished in {:.1}s: {}/{total} experiments ok",
        batch_start.elapsed().as_secs_f64(),
        total - failures.len()
    );
    if !failures.is_empty() {
        eprintln!("failures:");
        for (name, e) in &failures {
            eprintln!("  {name}: {e}");
        }
        std::process::exit(1);
    }
}
