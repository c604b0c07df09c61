//! Driver for the power-management experiment (§V-B): the 2-tier
//! application under a diurnal load, managed by Algorithm 1, in both the
//! clean simulation and the noisy reference ("real system") mode.

use uqsim_apps::noise::NoiseProfile;
use uqsim_apps::scenarios::{two_tier, TwoTierConfig};
use uqsim_core::client::{ArrivalProcess, RateSchedule};
use uqsim_core::telemetry::{TelemetryConfig, TelemetryWindow};
use uqsim_core::time::SimDuration;
use uqsim_core::{SimResult, Simulator};
use uqsim_power::{PowerManager, PowerManagerConfig, PowerTraceEntry, TraceHandle};

/// Configuration of one power-management run.
#[derive(Debug, Clone)]
pub struct PowerRunConfig {
    /// Decision interval.
    pub interval: SimDuration,
    /// End-to-end p99 QoS target, seconds.
    pub qos_target_s: f64,
    /// Diurnal load trough, QPS.
    pub min_qps: f64,
    /// Diurnal load peak, QPS.
    pub max_qps: f64,
    /// Diurnal period, seconds.
    pub period_s: f64,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Noisy reference mode (stands in for the real system).
    pub noisy: bool,
    /// Seed.
    pub seed: u64,
}

impl Default for PowerRunConfig {
    fn default() -> Self {
        PowerRunConfig {
            interval: SimDuration::from_millis(100),
            qos_target_s: crate::reference::POWER_QOS_TARGET_S,
            min_qps: 8_000.0,
            max_qps: 40_000.0,
            period_s: 60.0,
            duration: SimDuration::from_secs(120),
            noisy: false,
            seed: 42,
        }
    }
}

/// Outcome of one power-management run.
#[derive(Debug, Clone)]
pub struct PowerRunResult {
    /// The per-interval decision trace (Fig. 16).
    pub trace: Vec<PowerTraceEntry>,
    /// The telemetry sampler's windowed latency series at the decision
    /// interval — the time axis Fig. 16 is plotted on.
    pub tail: Vec<TelemetryWindow>,
    /// Fraction of non-empty intervals violating QoS (Table III).
    pub violation_rate: f64,
    /// Mean per-tier frequency over the run, GHz.
    pub mean_freqs_ghz: Vec<f64>,
    /// Cluster energy consumed over the run, joules.
    pub energy_j: f64,
}

/// The 2-tier application under the run's diurnal load, built: the
/// controller attaches to the live simulator, so these runs do not go
/// through the runner's cells.
fn diurnal_two_tier(cfg: &PowerRunConfig) -> SimResult<Simulator> {
    let mut tt = TwoTierConfig::at_qps(cfg.max_qps);
    tt.arrivals = ArrivalProcess::Poisson {
        schedule: RateSchedule::diurnal(cfg.min_qps, cfg.max_qps, cfg.period_s, 12),
    };
    tt.common.seed = cfg.seed;
    tt.common.warmup = SimDuration::from_millis(200);
    tt.common.noise = cfg.noisy.then(NoiseProfile::default);
    two_tier(&tt)?.build()
}

/// Runs the 2-tier power-management experiment.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(cfg: &PowerRunConfig) -> SimResult<PowerRunResult> {
    let mut sim = diurnal_two_tier(cfg)?;
    let nginx = sim
        .instance_by_name("nginx")
        .expect("two_tier deploys nginx");
    let mc = sim
        .instance_by_name("memcached")
        .expect("two_tier deploys memcached");
    let (manager, trace) = PowerManager::new(PowerManagerConfig {
        qos_target_s: cfg.qos_target_s,
        interval: cfg.interval,
        tiers: vec![nginx, mc],
        levels_ghz: (0..15).map(|i| 1.2 + 0.1 * i as f64).collect(),
        seed: cfg.seed,
        ..PowerManagerConfig::default()
    });
    sim.add_controller(Box::new(manager));
    // Sample windowed latency with the telemetry layer at the decision
    // interval; the exported trace's time axis comes from these windows.
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(cfg.interval),
        ..TelemetryConfig::default()
    });
    sim.run_for(cfg.duration);
    let energy = sim.cluster_energy_j();
    let tail = sim.telemetry_windows().to_vec();
    Ok(summarize(&trace, tail, energy))
}

/// Runs the same scenario with *no* power management (all cores at the
/// maximum frequency) and returns the cluster energy, joules — the
/// baseline against which the manager's savings are measured.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run_baseline(cfg: &PowerRunConfig) -> SimResult<f64> {
    let mut sim = diurnal_two_tier(cfg)?;
    sim.run_for(cfg.duration);
    Ok(sim.cluster_energy_j())
}

fn summarize(trace: &TraceHandle, tail: Vec<TelemetryWindow>, energy_j: f64) -> PowerRunResult {
    let entries = trace.entries();
    let counted: Vec<&PowerTraceEntry> = entries.iter().filter(|e| e.samples > 0).collect();
    let tiers = counted.first().map(|e| e.freqs_ghz.len()).unwrap_or(0);
    let mean_freqs_ghz = (0..tiers)
        .map(|t| counted.iter().map(|e| e.freqs_ghz[t]).sum::<f64>() / counted.len().max(1) as f64)
        .collect();
    PowerRunResult {
        violation_rate: trace.violation_rate(),
        trace: entries,
        tail,
        mean_freqs_ghz,
        energy_j,
    }
}
