//! The declarative generation spec (`gen.json`).

use serde::{Deserialize, Serialize};
use std::path::Path;
use uqsim_apps::roles::Role;
use uqsim_core::client::{ArrivalProcess, QPS_RANGE};
use uqsim_core::error::{SimError, SimResult};

/// A small integer distribution for topology shape parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum CountDist {
    /// Always `n`.
    Fixed {
        /// The count.
        n: usize,
    },
    /// Uniform over `min..=max` (inclusive).
    Range {
        /// Smallest value.
        min: usize,
        /// Largest value.
        max: usize,
    },
}

impl CountDist {
    /// Always `n`.
    pub fn fixed(n: usize) -> Self {
        CountDist::Fixed { n }
    }

    /// Uniform over `min..=max`.
    pub fn range(min: usize, max: usize) -> Self {
        CountDist::Range { min, max }
    }

    /// Smallest value this distribution can produce.
    pub fn min(&self) -> usize {
        match self {
            CountDist::Fixed { n } => *n,
            CountDist::Range { min, .. } => *min,
        }
    }

    /// Largest value this distribution can produce.
    pub fn max(&self) -> usize {
        match self {
            CountDist::Fixed { n } => *n,
            CountDist::Range { max, .. } => *max,
        }
    }

    /// Draws a value. The vendored `rand` exposes only uniform primitives,
    /// so the inclusive integer range is sampled by scaling a `f64` draw.
    pub(crate) fn sample(&self, rng: &mut rand::rngs::SmallRng) -> usize {
        match self {
            CountDist::Fixed { n } => *n,
            CountDist::Range { min, max } => {
                if min >= max {
                    return *min;
                }
                let span = (max - min + 1) as f64;
                (*min + (rand::Rng::gen::<f64>(rng) * span) as usize).min(*max)
            }
        }
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        match self {
            CountDist::Fixed { n } if *n == 0 => Err(format!("{what}: fixed count must be >= 1")),
            CountDist::Range { min, max } if *min == 0 => {
                let _ = max;
                Err(format!("{what}: range min must be >= 1"))
            }
            CountDist::Range { min, max } if min > max => {
                Err(format!("{what}: range min {min} > max {max}"))
            }
            _ => Ok(()),
        }
    }
}

/// One layer of the generated service graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Which calibrated model template the layer's services clone.
    pub role: Role,
    /// How many services this layer has (sampled per replica).
    pub services: CountDist,
    /// How many instances each service deploys (sampled per service).
    pub instances_per_service: CountDist,
    /// Dedicated cores per instance.
    pub cores_per_instance: usize,
    /// Worker threads per instance; `0` selects the simple
    /// one-worker-per-core execution model.
    #[serde(default)]
    pub threads_per_instance: usize,
    /// Downstream fan-out: how many distinct next-layer services each
    /// service calls (sampled per service; capped at the next layer's
    /// size; ignored on the last layer).
    pub fanout: CountDist,
}

/// Client-side load for each generated front-end service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientGen {
    /// Open connections per client.
    pub connections: usize,
    /// Offered load per front-end service, queries per second. Each
    /// front-end service gets one client driving its request type at
    /// this rate.
    pub qps_per_front: f64,
    /// Arrival process override. When set it is used verbatim for every
    /// client (e.g. an MMPP or flash-crowd process); when absent each
    /// client is Poisson at [`qps_per_front`](Self::qps_per_front).
    #[serde(default)]
    pub arrivals: Option<ArrivalProcess>,
    /// Client-side timeout, seconds.
    #[serde(default)]
    pub timeout_s: Option<f64>,
}

/// A complete generation spec: the input of `uqsim gen`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenSpec {
    /// Human-readable name (used in documentation and reports only).
    pub name: String,
    /// Default generation seed; `uqsim gen --seed` overrides it.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Independent copies of the sampled graph. Replicas share nothing —
    /// `split_cells` yields one cell per replica.
    pub replicas: usize,
    /// Total cores per generated machine (4 of which serve network IRQs,
    /// matching the paper's testbed Xeons).
    pub machine_cores: usize,
    /// Connection-pool size for each (caller instance, callee instance)
    /// pair along graph edges; `0` disables pools (unbounded ephemeral
    /// connections).
    #[serde(default)]
    pub pool_size: usize,
    /// Simulated warmup excluded from statistics, seconds.
    #[serde(default = "default_warmup")]
    pub warmup_s: f64,
    /// The layers, front ends first. Layer 0's services root the request
    /// types; the last layer's services are the leaves.
    pub layers: Vec<LayerSpec>,
    /// Client load.
    pub client: ClientGen,
}

fn default_seed() -> u64 {
    1
}
fn default_warmup() -> f64 {
    0.5
}

impl GenSpec {
    /// Parses and validates a spec from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] on parse or validation failure.
    pub fn from_json(json: &str) -> SimResult<Self> {
        let spec: GenSpec = serde_json::from_str(json).map_err(|e| SimError::Config {
            source_name: "gen spec".into(),
            detail: e.to_string(),
        })?;
        spec.validate()?;
        Ok(spec)
    }

    /// Loads and validates a spec from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns I/O, parse, or validation errors.
    pub fn from_file(path: &Path) -> SimResult<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| SimError::io_at(path, e))?;
        let spec: GenSpec = serde_json::from_str(&text).map_err(|e| SimError::Config {
            source_name: path.display().to_string(),
            detail: e.to_string(),
        })?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] naming the offending field.
    pub fn validate(&self) -> SimResult<()> {
        let fail = |detail: String| {
            Err(SimError::Config {
                source_name: format!("gen spec {}", self.name),
                detail,
            })
        };
        if self.replicas == 0 {
            return fail("replicas must be >= 1".into());
        }
        if self.layers.is_empty() {
            return fail("at least one layer is required".into());
        }
        if !QPS_RANGE.contains(&self.client.qps_per_front) {
            let (lo, hi) = QPS_RANGE.into_inner();
            return fail(format!(
                "client.qps_per_front: {:?} qps is outside the rates the clock can run, \
                 {lo} to {hi}",
                self.client.qps_per_front
            ));
        }
        if self.client.connections == 0 {
            return fail("client.connections must be >= 1".into());
        }
        if let Some(arr) = &self.client.arrivals {
            if let Err(e) = arr.validate() {
                return fail(format!("client.arrivals: {e}"));
            }
            if let Err(e) = arr.check_rates() {
                return fail(format!("client.arrivals.{e}"));
            }
        }
        if self.warmup_s.is_nan() || self.warmup_s < 0.0 {
            return fail("warmup_s must be >= 0".into());
        }
        for (l, layer) in self.layers.iter().enumerate() {
            layer
                .services
                .validate(&format!("layer {l} services"))
                .or_else(&fail)?;
            layer
                .instances_per_service
                .validate(&format!("layer {l} instances_per_service"))
                .or_else(&fail)?;
            if l + 1 < self.layers.len() {
                layer
                    .fanout
                    .validate(&format!("layer {l} fanout"))
                    .or_else(&fail)?;
            }
            if layer.cores_per_instance == 0 {
                return fail(format!("layer {l}: cores_per_instance must be >= 1"));
            }
            if layer.threads_per_instance > 64 {
                return fail(format!(
                    "layer {l}: threads_per_instance {} exceeds the engine's 64-thread limit",
                    layer.threads_per_instance
                ));
            }
            // Generated machines model the testbed Xeons: 4 cores serve IRQs.
            if self.machine_cores < layer.cores_per_instance + 4 {
                return fail(format!(
                    "machine_cores {} cannot host a layer-{l} instance of {} cores \
                     plus 4 IRQ cores",
                    self.machine_cores, layer.cores_per_instance
                ));
            }
        }
        // Worst-case request-tree size: product of maximum fan-outs. Keep it
        // bounded so a spec typo cannot generate a million-node path.json.
        let mut visits: u64 = 1;
        let mut total: u64 = 1;
        for layer in self.layers.iter().take(self.layers.len().saturating_sub(1)) {
            visits = visits.saturating_mul(layer.fanout.max() as u64);
            total = total.saturating_add(visits);
        }
        if total > 2048 {
            return fail(format!(
                "maximum fan-outs compound to {total} service visits per request \
                 (limit 2048); lower the fanout or depth"
            ));
        }
        self.check_cluster_size().or_else(fail)
    }

    /// Checks that the largest cluster the spec can generate numbers its
    /// instances, clients and pools (and so its machines, at most one per
    /// instance) within the `u32` ids the builder gives them — before
    /// anything is allocated. Blames `replicas` when one replica fits, else
    /// the layer that contributes the most to it.
    fn check_cluster_size(&self) -> Result<(), String> {
        let last_id = u128::from(u32::MAX);
        let too_many = |key: String, n: u128, what: &str| {
            Err(format!(
                "{key}: up to {n} {what} would number past the last id, {last_id}"
            ))
        };
        let max = |d: &CountDist| d.max() as u128;
        // Per replica, at most: services and instances per layer, pools
        // per pair of adjacent layers — each caller instance to each
        // callee instance along every edge, where orphan repair adds up to
        // one edge per callee to the sampled fan-outs.
        let services: Vec<u128> = self.layers.iter().map(|l| max(&l.services)).collect();
        let instances: Vec<u128> = (self.layers.iter().zip(&services))
            .map(|(l, &s)| s.saturating_mul(max(&l.instances_per_service)))
            .collect();
        let pools: Vec<u128> = (0..self.layers.len().saturating_sub(1))
            .map(|l| {
                let (up, down) = (services[l], services[l + 1]);
                let fanout = max(&self.layers[l].fanout).min(down);
                let edges =
                    (up.saturating_mul(fanout).saturating_add(down)).min(up.saturating_mul(down));
                let callers = max(&self.layers[l].instances_per_service);
                let callees = max(&self.layers[l + 1].instances_per_service);
                match self.pool_size {
                    0 => 0,
                    _ => edges.saturating_mul(callers).saturating_mul(callees),
                }
            })
            .collect();
        let sum = |counts: &[u128]| counts.iter().fold(0u128, |a, &b| a.saturating_add(b));
        let replicas = self.replicas as u128;
        for (what, per_layer) in [
            ("instances", &instances[..]),
            ("clients", &services[..1]),
            ("pools", &pools[..]),
        ] {
            let per_replica = sum(per_layer);
            let total = per_replica.saturating_mul(replicas);
            if total <= last_id {
                continue;
            }
            if per_replica <= last_id {
                return too_many("replicas".into(), total, what);
            }
            // One replica alone does not fit: blame the layer that
            // contributes the most.
            let (l, _) = (per_layer.iter().enumerate())
                .max_by_key(|&(l, &n)| (n, std::cmp::Reverse(l)))
                .expect("a count past the last id has a layer");
            let field = match what {
                "pools" => "fanout",
                "instances" if services[l] < max(&self.layers[l].instances_per_service) => {
                    "instances_per_service"
                }
                _ => "services",
            };
            let key = format!("layers[{l}].{field}");
            return too_many(key, per_replica, &format!("{what} per replica"));
        }
        Ok(())
    }

    /// A ready-to-run example spec: 2 replicas of a 4-layer
    /// front/logic/cache/db application. Used in documentation and tests.
    pub fn example() -> Self {
        GenSpec {
            name: "example".into(),
            seed: 1,
            replicas: 2,
            machine_cores: 16,
            pool_size: 8,
            warmup_s: 0.0,
            layers: vec![
                LayerSpec {
                    role: Role::Front,
                    services: CountDist::fixed(1),
                    instances_per_service: CountDist::fixed(2),
                    cores_per_instance: 4,
                    threads_per_instance: 0,
                    fanout: CountDist::range(1, 2),
                },
                LayerSpec {
                    role: Role::Logic,
                    services: CountDist::range(2, 3),
                    instances_per_service: CountDist::fixed(2),
                    cores_per_instance: 4,
                    threads_per_instance: 8,
                    fanout: CountDist::range(1, 2),
                },
                LayerSpec {
                    role: Role::Cache,
                    services: CountDist::fixed(2),
                    instances_per_service: CountDist::fixed(2),
                    cores_per_instance: 2,
                    threads_per_instance: 0,
                    fanout: CountDist::fixed(1),
                },
                LayerSpec {
                    role: Role::Db,
                    services: CountDist::fixed(1),
                    instances_per_service: CountDist::fixed(2),
                    cores_per_instance: 4,
                    threads_per_instance: 0,
                    fanout: CountDist::fixed(1),
                },
            ],
            client: ClientGen {
                connections: 32,
                qps_per_front: 2000.0,
                arrivals: None,
                timeout_s: None,
            },
        }
    }
}
