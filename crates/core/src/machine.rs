//! Server machines: cores, DVFS levels, and network-processing resources.
//!
//! Mirrors `machines.json` (Table I) and the validation platform (Table II:
//! 2×10-core Xeon E5-2660 v3, DVFS 1.2–2.6 GHz).

use crate::config::Name;
use crate::dist::Distribution;
use serde::{Deserialize, Serialize};

/// Who a core is dedicated to. The paper pins every thread/process to a
/// dedicated physical core, and dedicates separate cores to network
/// interrupt processing (`soft_irq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CoreOwner {
    /// Not yet allocated.
    #[default]
    Free,
    /// Allocated to the instance with this arena index.
    Instance(u32),
    /// Allocated to the machine's network-processing service.
    Network,
}

/// Runtime state of one core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Current DVFS frequency, GHz.
    pub freq_ghz: f64,
    /// Owner of the core.
    pub owner: CoreOwner,
    /// Whether the core is currently executing work.
    pub busy: bool,
    /// Identity of the last (instance, thread) that ran here, for context
    /// switch accounting. Thread index is instance-local.
    pub last_thread: Option<(u32, u32)>,
    /// Accumulated busy nanoseconds (utilization accounting). It only ever
    /// grows, so utilization over `[t0, now]` is the growth since `t0` over
    /// `cores · (now - t0)`.
    pub busy_ns: u64,
    /// Accumulated dynamic energy, joules (cubic-in-frequency model).
    pub dyn_energy_j: f64,
}

/// DVFS capability of a machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsSpec {
    /// Allowed frequency levels in GHz, ascending.
    pub levels_ghz: Vec<f64>,
}

impl DvfsSpec {
    /// A fixed-frequency machine.
    pub fn fixed(freq_ghz: f64) -> Self {
        DvfsSpec {
            levels_ghz: vec![freq_ghz],
        }
    }

    /// Levels from `min` to `max` in steps of `step` (all GHz), like the
    /// validation platform's 1.2–2.6 GHz range.
    pub fn range(min: f64, max: f64, step: f64) -> Self {
        let mut levels = Vec::new();
        let mut f = min;
        while f <= max + 1e-9 {
            levels.push((f * 1000.0).round() / 1000.0);
            f += step;
        }
        DvfsSpec { levels_ghz: levels }
    }

    /// Highest level.
    pub fn max_ghz(&self) -> f64 {
        *self.levels_ghz.last().expect("dvfs has levels")
    }

    /// Snaps an arbitrary frequency to the nearest allowed level.
    pub fn snap(&self, freq_ghz: f64) -> f64 {
        self.levels_ghz
            .iter()
            .copied()
            .min_by(|a, b| {
                (a - freq_ghz)
                    .abs()
                    .partial_cmp(&(b - freq_ghz).abs())
                    .expect("frequencies are finite")
            })
            .expect("dvfs has levels")
    }

    /// The next level strictly below `freq_ghz`, if any.
    pub fn step_down(&self, freq_ghz: f64) -> Option<f64> {
        self.levels_ghz
            .iter()
            .copied()
            .rev()
            .find(|&f| f < freq_ghz - 1e-9)
    }

    /// The next level strictly above `freq_ghz`, if any.
    pub fn step_up(&self, freq_ghz: f64) -> Option<f64> {
        self.levels_ghz
            .iter()
            .copied()
            .find(|&f| f > freq_ghz + 1e-9)
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message if empty, non-ascending, or non-positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels_ghz.is_empty() {
            return Err("dvfs has no levels".into());
        }
        let mut prev = 0.0;
        for &f in &self.levels_ghz {
            if !(f.is_finite() && f > prev) {
                return Err(format!("dvfs levels must be positive ascending, got {f}"));
            }
            prev = f;
        }
        Ok(())
    }
}

/// Network-processing configuration of one machine.
///
/// Every machine runs a standalone network-processing service through which
/// inbound traffic passes before reaching colocated microservices (§III-B:
/// "each server is coupled with a network processing process ... all
/// microservices deployed on the same server share the processes handling
/// interrupts"). Saturating these cores is what caps the 16-way load
/// balancing experiment at 120 kQPS (§IV-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Cores dedicated to interrupt processing. Zero disables the network
    /// service: packets pass through with only wire latency.
    pub irq_cores: usize,
    /// Per-request receive-side interrupt-processing time, seconds. This is
    /// the *aggregate* soft-irq work one application-level message causes
    /// (several TCP segments, ACKs, socket wakeups).
    pub rx_time: Distribution,
    /// One-way wire latency to any other machine, seconds.
    pub wire_latency: Distribution,
    /// Latency of a same-machine (loopback) hop, which bypasses the irq
    /// cores entirely, seconds.
    #[serde(default = "default_loopback")]
    pub loopback_latency: Distribution,
    /// NIC bandwidth in Gbit/s; adds `bytes * 8 / bandwidth` of
    /// transmission time to cross-machine hops. `None` models an
    /// infinitely fast link (Table II's platform has a 1 Gbps NIC).
    #[serde(default)]
    pub bandwidth_gbps: Option<f64>,
}

fn default_loopback() -> Distribution {
    Distribution::constant(5e-6)
}

impl NetworkSpec {
    /// A passthrough network: no irq cores, a constant wire latency.
    pub fn passthrough(wire_latency_s: f64) -> Self {
        NetworkSpec {
            irq_cores: 0,
            rx_time: Distribution::constant(0.0),
            wire_latency: Distribution::constant(wire_latency_s),
            loopback_latency: default_loopback(),
            bandwidth_gbps: None,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns the first invalid distribution's description.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(bw) = self.bandwidth_gbps {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(format!("bandwidth_gbps must be positive, got {bw}"));
            }
        }
        self.rx_time.validate()?;
        self.wire_latency.validate()?;
        self.loopback_latency.validate()
    }
}

/// Per-core power model: `P(f) = idle_w + dyn_w · (f / f_max)³` while
/// active, `idle_w` otherwise. The cubic dynamic term is the classic
/// CMOS `P ∝ C·V²·f` with voltage tracking frequency — the reason DVFS
/// saves energy at all (§V-B's motivation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static (leakage + uncore share) power per core, watts.
    pub idle_w: f64,
    /// Dynamic power per core at the maximum frequency, watts.
    pub dyn_w: f64,
}

impl Default for PowerModel {
    /// Roughly an E5-2660 v3: ≈105 W TDP over 10 cores, one-third static.
    fn default() -> Self {
        PowerModel {
            idle_w: 2.5,
            dyn_w: 7.5,
        }
    }
}

impl PowerModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns a message on negative or non-finite terms.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [("idle_w", self.idle_w), ("dyn_w", self.dyn_w)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        Ok(())
    }

    /// Dynamic power at `freq_ghz` given the machine's `max_ghz`, watts.
    pub fn dynamic_power_w(&self, freq_ghz: f64, max_ghz: f64) -> f64 {
        self.dyn_w * (freq_ghz / max_ghz).powi(3)
    }
}

/// Static description of a machine (one record of `machines.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Machine name.
    pub name: Name,
    /// Number of usable physical cores.
    pub cores: usize,
    /// DVFS capability.
    pub dvfs: DvfsSpec,
    /// Network processing configuration.
    pub network: NetworkSpec,
    /// Per-core power model.
    #[serde(default)]
    pub power: PowerModel,
}

impl MachineSpec {
    /// A machine like the paper's validation platform (Table II), with the
    /// given usable core count: DVFS 1.2–2.6 GHz in 0.1 GHz steps, 4 irq
    /// cores, ~20 µs one-way wire latency, and ~16.6 µs of aggregate
    /// receive-side interrupt work per application message (calibrated so
    /// four irq cores saturate near 120 kQPS of combined inbound traffic,
    /// the soft-irq ceiling §IV-B reports for 16-way load balancing).
    pub fn xeon(name: impl Into<Name>, cores: usize) -> Self {
        MachineSpec {
            name: name.into(),
            cores,
            dvfs: DvfsSpec::range(1.2, 2.6, 0.1),
            network: NetworkSpec {
                irq_cores: 4,
                rx_time: Distribution::exponential(16.6e-6),
                wire_latency: Distribution::constant(20e-6),
                loopback_latency: default_loopback(),
                bandwidth_gbps: Some(1.0),
            },
            power: PowerModel::default(),
        }
    }

    /// A machine with kernel-bypass (DPDK-style) networking — the paper's
    /// stated future work: no irq cores, a small constant per-message
    /// software cost folded into the wire latency, full bandwidth.
    pub fn xeon_dpdk(name: impl Into<Name>, cores: usize) -> Self {
        let mut m = Self::xeon(name, cores);
        m.network = NetworkSpec {
            irq_cores: 0,
            rx_time: Distribution::constant(0.0),
            // ~1.5us of poll-mode driver work replaces the interrupt path.
            wire_latency: Distribution::constant(20e-6 + 1.5e-6),
            loopback_latency: default_loopback(),
            bandwidth_gbps: Some(1.0),
        };
        m
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the machine and the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err(format!("machine {}: zero cores", self.name));
        }
        if self.network.irq_cores > self.cores {
            return Err(format!(
                "machine {}: {} irq cores exceed {} total cores",
                self.name, self.network.irq_cores, self.cores
            ));
        }
        self.dvfs
            .validate()
            .map_err(|e| format!("machine {}: {e}", self.name))?;
        self.power
            .validate()
            .map_err(|e| format!("machine {}: {e}", self.name))?;
        self.network
            .validate()
            .map_err(|e| format!("machine {}: {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_range_builds_levels() {
        let d = DvfsSpec::range(1.2, 2.6, 0.1);
        assert_eq!(d.levels_ghz.len(), 15);
        assert_eq!(d.max_ghz(), 2.6);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn dvfs_snap_picks_nearest() {
        let d = DvfsSpec::range(1.2, 2.6, 0.2);
        assert!((d.snap(1.29) - 1.2).abs() < 1e-9);
        assert!((d.snap(1.31) - 1.4).abs() < 1e-9);
        assert!((d.snap(99.0) - 2.6).abs() < 1e-9);
        assert!((d.snap(0.1) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn dvfs_step_up_down() {
        let d = DvfsSpec::range(1.2, 1.6, 0.2);
        assert_eq!(d.step_down(1.2), None);
        assert!((d.step_down(1.4).unwrap() - 1.2).abs() < 1e-9);
        assert!((d.step_up(1.4).unwrap() - 1.6).abs() < 1e-9);
        assert_eq!(d.step_up(1.6), None);
    }

    #[test]
    fn dvfs_validation() {
        assert!(DvfsSpec { levels_ghz: vec![] }.validate().is_err());
        assert!(DvfsSpec {
            levels_ghz: vec![2.0, 1.0]
        }
        .validate()
        .is_err());
        assert!(DvfsSpec {
            levels_ghz: vec![-1.0]
        }
        .validate()
        .is_err());
        assert!(DvfsSpec::fixed(2.6).validate().is_ok());
    }

    #[test]
    fn machine_validation() {
        let m = MachineSpec::xeon("m0", 20);
        assert!(m.validate().is_ok());
        let mut bad = m.clone();
        bad.cores = 0;
        assert!(bad.validate().is_err());
        let mut bad = m.clone();
        bad.network.irq_cores = 21;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn passthrough_network_is_valid() {
        assert!(NetworkSpec::passthrough(10e-6).validate().is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let m = MachineSpec::xeon("m0", 20);
        let json = serde_json::to_string(&m).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn power_model_is_cubic() {
        let p = PowerModel {
            idle_w: 2.0,
            dyn_w: 8.0,
        };
        assert!((p.dynamic_power_w(2.6, 2.6) - 8.0).abs() < 1e-12);
        assert!((p.dynamic_power_w(1.3, 2.6) - 1.0).abs() < 1e-12);
        assert!(p.validate().is_ok());
        assert!(PowerModel {
            idle_w: -1.0,
            dyn_w: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn dpdk_machine_has_no_irq_cores() {
        let m = MachineSpec::xeon_dpdk("m", 8);
        assert!(m.validate().is_ok());
        assert_eq!(m.network.irq_cores, 0);
    }
}
