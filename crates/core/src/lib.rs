//! # uqsim-core
//!
//! A discrete-event queueing-network simulator for interactive
//! microservices — a from-scratch Rust reproduction of **µqSim** (Zhang,
//! Gan, Delimitrou; ISPASS 2019).
//!
//! µqSim models microservices at two levels:
//!
//! * **Intra-microservice**: each service is a pipeline of *stages*
//!   (queue–consumer pairs) with epoll/socket batching and
//!   batch-size/frequency-dependent service times ([`stage`], [`queue`],
//!   [`service`]).
//! * **Inter-microservice**: requests traverse a DAG of *path nodes* with
//!   fan-out, fan-in synchronization, HTTP/1.1 connection blocking,
//!   connection pools, and synchronous-RPC thread blocking ([`path`],
//!   [`connection`]).
//!
//! The platform model covers machines with dedicated cores, per-core DVFS,
//! and per-machine network (soft-irq) processing ([`machine`]). Periodic
//! controllers (e.g. a QoS-aware power manager) plug in via
//! [`controller::Controller`].
//!
//! ## Quick start
//!
//! A scenario is a [`config::ScenarioConfig`]: the paper's Table I inputs
//! (machines, service models, deployment, request paths, clients), read
//! from JSON or written as plain structs, cross-referencing each other by
//! name. Building it resolves the names and yields a runnable
//! [`Simulator`].
//!
//! ```
//! use uqsim_core::config::ScenarioConfig;
//! use uqsim_core::time::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One machine, one single-stage service instance, one open-loop client.
//! let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
//! let mut sim = cfg.into_simulator()?;
//! sim.run_for(SimDuration::from_secs(5));
//! let stats = sim.latency_summary();
//! println!("p99 = {:.1}us over {} requests", stats.p99 * 1e6, stats.count);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod builder;
pub mod client;
pub mod config;
pub mod connection;
pub mod controller;
pub mod critpath;
pub mod dist;
pub mod error;
pub mod event;
pub mod fasthash;
pub mod fault;
pub mod histogram;
pub mod ids;
pub mod job;
pub mod machine;
pub mod metrics;
pub mod partition;
pub mod path;
pub mod queue;
pub mod rng;
pub mod run;
pub mod service;
pub mod sim;
mod slot_table;
pub mod stage;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use critpath::{CpcProfile, CpcReport, EdgeKind};
pub use error::{SimError, SimResult};
pub use fault::{FaultPlan, FaultSpec, FaultSummary};
pub use partition::{run_partitioned, PartitionOptions, PartitionPlan, PartitionedRun};
pub use run::{run_one, RunResult};
pub use sim::Simulator;
pub use telemetry::{
    LatencyComponent, MetricsRegistry, MetricsSnapshot, StreamingHistogram, TelemetryConfig,
};
pub use time::{SimDuration, SimTime};
pub use trace::{AuditReport, TraceAuditor, TraceLog};
