//! # uqsim-apps
//!
//! Calibrated microservice models and ready-made scenarios for the µqSim
//! reproduction (see `uqsim-core` for the simulator itself).
//!
//! * [`nginx`], [`memcached`], [`mongodb`], [`thrift`] — reusable
//!   [`ServiceModel`](uqsim_core::service::ServiceModel)s with stage
//!   parameters calibrated to the throughput/latency anchors the paper
//!   states in prose (see each module's docs).
//! * [`scenarios`] — every evaluated topology as a
//!   [`ScenarioConfig`](uqsim_core::config::ScenarioConfig): 2-/3-tier
//!   applications, load balancing, fanout, Thrift hello-world, the social
//!   network, single-tier services, and the tail-at-scale cluster.
//! * [`noise`] — the "noisy reference" mode that stands in for the paper's
//!   real-system measurements.
//!
//! ## Example: run the 2-tier application
//!
//! ```
//! use uqsim_apps::scenarios::{two_tier, TwoTierConfig};
//! use uqsim_core::run::run_one;
//! use uqsim_core::time::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = two_tier(&TwoTierConfig::at_qps(20_000.0))?;
//! let result = run_one(&cfg, cfg.seed, SimDuration::from_secs(2))?;
//! assert!(result.latency.p99 < 10e-3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod memcached;
pub mod mongodb;
pub mod nginx;
pub mod noise;
pub mod roles;
pub mod scenarios;
pub mod thrift;
