//! Fig. 13 — µqSim vs. BigHouse on a single-process NGINX and a 4-thread
//! memcached.
//!
//! BigHouse models each application as one queue whose service
//! distribution comes from profiling — which charges the full cost of a
//! batched `epoll` invocation to every request instead of amortizing it
//! across the harvested batch. µqSim models the stage explicitly. Paper
//! anchor (§IV-E): µqSim captures the real saturation point closely while
//! BigHouse saturates at much lower load.

use crate::{linear_loads, print_series, saturation_qps, LoadPoint, RunOpts};
use uqsim_apps::{memcached, nginx, scenarios};
use uqsim_bighouse::{service_distribution_for, BigHouse, BigHouseConfig};
use uqsim_core::dist::Distribution;
use uqsim_core::metrics::LatencySummary;
use uqsim_core::SimResult;

/// Batch size at which the hypothetical BigHouse profiling observed the
/// batching stages (a loaded server harvests many events per call).
pub const PROFILED_BATCH: usize = 16;

/// Curves for one application.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application name.
    pub app: &'static str,
    /// µqSim curve.
    pub uqsim: Vec<LoadPoint>,
    /// BigHouse curve.
    pub bighouse: Vec<LoadPoint>,
    /// µqSim saturation.
    pub uqsim_saturation: f64,
    /// BigHouse saturation.
    pub bighouse_saturation: f64,
}

fn bighouse_sweep(
    loads: &[f64],
    service: &Distribution,
    servers: usize,
    opts: &RunOpts,
) -> Vec<LoadPoint> {
    // BigHouse points are independent too, so they fan out across the same
    // worker budget as the µqSim sweeps (results come back in load order).
    minipool::Pool::new(opts.jobs).map_indexed(loads.len(), |i| {
        let qps = loads[i];
        let result = BigHouse::new(BigHouseConfig {
            interarrival: Distribution::exponential(1.0 / qps),
            service: service.clone(),
            servers,
            seed: 42,
            warmup_s: opts.warmup.as_secs_f64(),
        })
        .run(opts.total().as_secs_f64());
        LoadPoint {
            offered_qps: qps,
            achieved_qps: result.throughput,
            latency: result.latency,
        }
    })
}

fn empty_if_missing(points: Vec<LoadPoint>) -> Vec<LoadPoint> {
    points
        .into_iter()
        .map(|mut p| {
            if p.latency.count == 0 {
                p.latency = LatencySummary::empty();
            }
            p
        })
        .collect()
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Vec<AppResult>> {
    println!("# Fig. 13 — µqSim vs BigHouse");
    let n = if opts.duration.as_secs_f64() < 2.0 {
        5
    } else {
        9
    };
    let common = scenarios::CommonOpts {
        warmup: opts.warmup,
        ..Default::default()
    };
    // (app, label, loads, µqSim scenario, the path BigHouse profiles, servers)
    let nginx_loads = linear_loads(1_000.0, 11_000.0, n);
    let mc_loads = linear_loads(10_000.0, 240_000.0, n);
    let apps = [
        (
            "nginx",
            "nginx 1 process",
            scenarios::single_nginx(nginx_loads[0], &common)?,
            nginx_loads,
            service_distribution_for(&nginx::service_model(), nginx::paths::SERVE, PROFILED_BATCH),
            1,
        ),
        (
            "memcached",
            "memcached 4 threads",
            scenarios::single_memcached(mc_loads[0], 4, &common)?,
            mc_loads,
            service_distribution_for(
                &memcached::service_model(),
                memcached::paths::READ,
                PROFILED_BATCH,
            ),
            4,
        ),
    ];
    let curves: Vec<_> = apps
        .iter()
        .map(|(_, _, cfg, loads, ..)| (cfg.clone(), loads.clone()))
        .collect();
    let uqsim_curves = super::run_curves(opts, &curves)?;
    let mut out = Vec::new();
    for ((app, label, _, loads, bh_service, servers), uqsim) in apps.iter().zip(uqsim_curves) {
        let bighouse = empty_if_missing(bighouse_sweep(loads, bh_service, *servers, opts));
        print_series(&format!("{label} [uqsim]"), &uqsim);
        print_series(&format!("{label} [bighouse]"), &bighouse);
        let (su, sb) = (
            saturation_qps(&uqsim, 50e-3),
            saturation_qps(&bighouse, 50e-3),
        );
        println!(
            "saturation: uqsim {:.0} qps vs bighouse {:.0} qps\n",
            su, sb
        );
        out.push(AppResult {
            app,
            uqsim,
            bighouse,
            uqsim_saturation: su,
            bighouse_saturation: sb,
        });
    }

    println!(
        "paper shape check: BigHouse saturates at much lower load because each request\n\
         is charged the full (unamortized) cost of a batched epoll invocation."
    );
    Ok(out)
}
