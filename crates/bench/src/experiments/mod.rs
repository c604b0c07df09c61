//! One module per regenerated table/figure. Each exposes a `run` returning
//! the measured data (so tests can assert shapes) and printing the
//! rows/series the paper reports.

pub mod ablations;
pub mod fig05;
pub mod fig06;
pub mod fig08;
pub mod fig10;
pub mod fig12a;
pub mod fig12b;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod retry_storm;
pub mod table3;

use crate::{LoadPoint, RunOpts};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::run::RunResult;
use uqsim_core::{PartitionOptions, SimResult};

/// Runs each scenario under its own seed for `opts.total()` through the
/// runner's cell fan-out; results in `cfgs` order at any `opts.jobs`.
///
/// Figure cells record nothing but their run summary. Telemetry and the
/// critical-path fold never perturb a trajectory, so leaving them off moves
/// no number and keeps a figure at the cost of its bare simulators; the
/// same cell printed with `to_json()` gets both back under `uqsim why`.
pub(crate) fn run_cells(opts: &RunOpts, cfgs: &[ScenarioConfig]) -> SimResult<Vec<RunResult>> {
    let cells: Vec<(&ScenarioConfig, u64)> = cfgs.iter().map(|c| (c, c.seed)).collect();
    let record_nothing = PartitionOptions {
        telemetry: None,
        ..PartitionOptions::default()
    };
    let (total, jobs) = (opts.total(), opts.jobs);
    uqsim_runner::sweep::run_cells(&cells, None, total, &record_nothing, jobs, &|_| {})
}

/// Measures load–latency curves as one batch of cells: curve `(cfg, loads)`
/// is `cfg` re-scaled to each of `loads`
/// ([`ScenarioConfig::with_offered_qps`]), so a whole figure's family of
/// configurations keeps every worker busy from the first cell to the last.
/// Returns one series per curve, in submission order.
pub(crate) fn run_curves(
    opts: &RunOpts,
    curves: &[(ScenarioConfig, Vec<f64>)],
) -> SimResult<Vec<Vec<LoadPoint>>> {
    let scaled: Vec<ScenarioConfig> = curves
        .iter()
        .flat_map(|(cfg, loads)| loads.iter().map(|&q| cfg.with_offered_qps(q)))
        .collect();
    let mut runs = run_cells(opts, &scaled)?.into_iter();
    Ok(curves
        .iter()
        .map(|(_, loads)| {
            let runs = runs.by_ref().take(loads.len());
            loads
                .iter()
                .zip(runs)
                .map(|(&q, r)| LoadPoint::of(q, &r))
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsim_core::time::SimDuration;

    #[test]
    fn curves_come_back_grouped_in_submission_order() {
        let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO).unwrap();
        let opts = |jobs| RunOpts {
            duration: SimDuration::from_millis(200),
            warmup: SimDuration::from_millis(100),
            jobs,
        };
        let curves = [
            (cfg.clone(), vec![400.0, 1600.0]),
            (cfg.with_seed(7), vec![900.0]),
        ];
        let grouped = run_curves(&opts(4), &curves).unwrap();
        assert_eq!(grouped.len(), 2);
        let offered = |curve: &[LoadPoint]| curve.iter().map(|p| p.offered_qps).collect::<Vec<_>>();
        assert_eq!(offered(&grouped[0]), [400.0, 1600.0]);
        assert_eq!(offered(&grouped[1]), [900.0]);
        assert!(grouped[0][1].achieved_qps > grouped[0][0].achieved_qps);
        // A curve measures what it measures alone, at any worker count.
        let alone = run_curves(&opts(1), &curves[..1]).unwrap();
        assert_eq!(alone[0], grouped[0]);
    }
}
