//! Ablations of the design choices DESIGN.md calls out: what each µqSim
//! modeling feature contributes.
//!
//! * **Batching** — disable epoll amortization (batch = 1) and watch the
//!   single-tier NGINX saturate earlier: the BigHouse error mechanism
//!   reproduced *inside* µqSim.
//! * **Network service** — disable irq-core modeling in the 16-way load
//!   balancer: saturation moves up to the pure-webserver limit, erasing
//!   the sub-linear scaling of Fig. 8.
//! * **Connection-pool size** — sweep the 2-tier pool and watch tail
//!   latency fall as pool-exhaustion backpressure disappears.
//! * **Execution model** — memcached as Simple vs MultiThreaded at equal
//!   cores: the thread abstraction adds context-switch overhead.

use crate::{linear_loads, print_series, saturation_qps, LoadPoint, RunOpts};
use uqsim_apps::memcached;
use uqsim_apps::scenarios::{
    load_balanced, single_memcached, two_tier, CommonOpts, LoadBalancedConfig, TwoTierConfig,
};
use uqsim_core::config::{ExecConfig, ScenarioConfig};
use uqsim_core::dist::Distribution;
use uqsim_core::machine::{MachineSpec, NetworkSpec};
use uqsim_core::service::ServiceModel;
use uqsim_core::stage::QueueDiscipline;
use uqsim_core::SimResult;

/// Summary numbers of all ablations, for tests.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Saturation with epoll batching on / off (single NGINX).
    pub batching_on_sat: f64,
    /// See [`Summary::batching_on_sat`].
    pub batching_off_sat: f64,
    /// LB-16 saturation with / without irq-core network processing.
    pub network_on_sat: f64,
    /// See [`Summary::network_on_sat`].
    pub network_off_sat: f64,
    /// p99 at pool sizes 4 and 64 under load.
    pub pool4_p99: f64,
    /// See [`Summary::pool4_p99`].
    pub pool64_p99: f64,
}

/// Strips all batch amortization: every stage serves one job per
/// invocation and pays the full fixed cost each time. (Note that
/// `Epoll {{ batch_per_conn: 1 }}` would *not* do this — one epoll
/// invocation still harvests a job from every active connection.)
fn no_batching(mut model: ServiceModel) -> ServiceModel {
    for stage in &mut model.stages {
        stage.queue = QueueDiscipline::Single;
    }
    model
}

/// A machine with passthrough networking: no irq cores, 20 µs wire.
fn passthrough(name: &str, cores: usize) -> MachineSpec {
    MachineSpec {
        network: NetworkSpec::passthrough(20e-6),
        ..MachineSpec::xeon(name, cores)
    }
}

/// The single-tier memcached of the batching and execution-model
/// ablations: 4 cores, 1024 client connections so the client never binds,
/// constant 512-byte requests — on the given machine (named `host`), model
/// and execution model.
fn memcached_4core(
    opts: &RunOpts,
    machine: MachineSpec,
    model: ServiceModel,
    exec: ExecConfig,
) -> SimResult<ScenarioConfig> {
    let common = CommonOpts {
        warmup: opts.warmup,
        ..Default::default()
    };
    let mut cfg = single_memcached(1.0, 4, &common)?;
    cfg.machines = vec![machine];
    cfg.services = vec![model];
    cfg.instances[0].exec = exec;
    cfg.clients[0].connections = 1024;
    cfg.clients[0].request_size = Distribution::constant(512.0);
    Ok(cfg)
}

fn threads(threads: usize) -> ExecConfig {
    ExecConfig::MultiThreaded {
        threads,
        ctx_switch_s: 2e-6,
    }
}

/// Runs all ablations.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(opts: &RunOpts) -> SimResult<Summary> {
    println!("# Ablations — what each modeling feature contributes");
    let n = if opts.duration.as_secs_f64() < 2.0 {
        5
    } else {
        8
    };

    // --- 1+2. epoll/socket batching and network (irq) processing -----------
    // memcached's fixed per-invocation costs are ~25% of its tiny request
    // budget, so disabling batch amortization visibly moves its saturation
    // point (for NGINX the fixed share is only ~4%). The batching pair and
    // the three network curves are all independent, so all five sweeps go
    // into one parallel batch; printing happens afterwards, in order.
    let mc_loads = linear_loads(140_000.0, 280_000.0, n);
    let lb_loads = linear_loads(40_000.0, 150_000.0, n);
    // Passthrough networking isolates the batching effect: with irq cores
    // enabled, their own ~240 kQPS ceiling confounds the comparison.
    let mc = |model| memcached_4core(opts, passthrough("host", 4), model, threads(4));
    let mut lb = LoadBalancedConfig::new(16, lb_loads[0]);
    lb.common.warmup = opts.warmup;
    let lb_on = |proxy: MachineSpec, servers: MachineSpec| {
        let mut cfg = load_balanced(&lb)?;
        cfg.machines = vec![proxy, servers];
        Ok::<_, uqsim_core::SimError>(cfg)
    };
    let (procs, scale) = (lb.proxy_procs, lb.scale_out);
    let curves = [
        (mc(memcached::service_model())?, mc_loads.clone()),
        (mc(no_batching(memcached::service_model()))?, mc_loads),
        (load_balanced(&lb)?, lb_loads.clone()),
        // No irq modeling: passthrough networking on both machines.
        (
            lb_on(
                passthrough("proxy-host", procs),
                passthrough("ws-host", scale),
            )?,
            lb_loads.clone(),
        ),
        // Kernel-bypass (DPDK-style) networking — the paper's future work:
        // no irq cores, a small poll-mode cost folded into the wire latency.
        (
            lb_on(
                MachineSpec::xeon_dpdk("proxy-host", procs),
                MachineSpec::xeon_dpdk("ws-host", scale),
            )?,
            lb_loads,
        ),
    ];
    let mut curves = super::run_curves(opts, &curves)?.into_iter();
    let on = curves.next().expect("one curve per submission");
    let off = curves.next().expect("one curve per submission");
    let net_on = curves.next().expect("one curve per submission");
    let net_off = curves.next().expect("one curve per submission");
    let net_dpdk = curves.next().expect("one curve per submission");

    print_series("memcached 4t, batching ON", &on);
    print_series("memcached 4t, batching OFF (batch=1)", &off);
    let (batching_on_sat, batching_off_sat) =
        (saturation_qps(&on, 50e-3), saturation_qps(&off, 50e-3));
    println!("batching ablation: ON saturates at {batching_on_sat:.0} qps, OFF at {batching_off_sat:.0} qps\n");

    print_series("LB x16, network processing ON", &net_on);
    print_series("LB x16, network processing OFF", &net_off);
    print_series("LB x16, DPDK kernel-bypass", &net_dpdk);
    let (network_on_sat, network_off_sat) = (
        saturation_qps(&net_on, 50e-3),
        saturation_qps(&net_off, 50e-3),
    );
    println!(
        "network ablation: kernel saturates at {network_on_sat:.0} qps, ideal at {network_off_sat:.0} qps, dpdk at {:.0} qps\n",
        saturation_qps(&net_dpdk, 50e-3)
    );

    // --- 3. connection-pool size ------------------------------------------
    let pools = [4usize, 8, 16, 32, 64];
    let mut at_pool = Vec::new();
    for pool in pools {
        let mut cfg = TwoTierConfig::at_qps(50_000.0);
        cfg.pool_size = pool;
        cfg.common.warmup = opts.warmup;
        at_pool.push(two_tier(&cfg)?);
    }
    let pool_points = points(50_000.0, super::run_cells(opts, &at_pool)?);
    println!("## 2-tier at 50 kQPS vs pool size");
    println!("{:>10} {:>9} {:>9}", "pool", "mean_ms", "p99_ms");
    let mut pool4_p99 = 0.0;
    let mut pool64_p99 = 0.0;
    for (pool, p) in pools.iter().copied().zip(&pool_points) {
        println!(
            "{:>10} {:>9.3} {:>9.3}",
            pool,
            p.latency.mean * 1e3,
            p.latency.p99 * 1e3
        );
        if pool == 4 {
            pool4_p99 = p.latency.p99;
        }
        if pool == 64 {
            pool64_p99 = p.latency.p99;
        }
    }
    println!();

    // --- 4. execution model -------------------------------------------------
    let exec_variants = [
        ("simple", ExecConfig::Simple),
        ("multithreaded 4t", threads(4)),
        ("multithreaded 16t", threads(16)),
    ];
    let mut on_exec = Vec::new();
    for (_, exec) in &exec_variants {
        let host = MachineSpec::xeon("host", 8);
        let model = memcached::service_model();
        let cfg = memcached_4core(opts, host, model, exec.clone())?;
        on_exec.push(cfg.with_offered_qps(150_000.0));
    }
    let exec_points = points(150_000.0, super::run_cells(opts, &on_exec)?);
    println!("## memcached 4 cores: Simple vs MultiThreaded (single-tier, 150 kQPS)");
    for ((label, _), p) in exec_variants.iter().zip(&exec_points) {
        println!(
            "{label:>18}: mean {:.3}ms p99 {:.3}ms achieved {:.0}",
            p.latency.mean * 1e3,
            p.latency.p99 * 1e3,
            p.achieved_qps
        );
    }

    Ok(Summary {
        batching_on_sat,
        batching_off_sat,
        network_on_sat,
        network_off_sat,
        pool4_p99,
        pool64_p99,
    })
}

fn points(offered_qps: f64, runs: Vec<uqsim_core::RunResult>) -> Vec<LoadPoint> {
    runs.iter().map(|r| LoadPoint::of(offered_qps, r)).collect()
}
