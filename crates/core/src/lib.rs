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
//! ```
//! use uqsim_core::builder::{ExecSpec, ScenarioBuilder};
//! use uqsim_core::client::ClientSpec;
//! use uqsim_core::dist::Distribution;
//! use uqsim_core::ids::{PathNodeId, StageId};
//! use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
//! use uqsim_core::path::{PathNodeSpec, RequestType};
//! use uqsim_core::service::{ExecPath, ServiceModel};
//! use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
//! use uqsim_core::time::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ScenarioBuilder::new(42);
//! let m = b.add_machine(MachineSpec {
//!     name: "server".into(),
//!     cores: 4,
//!     dvfs: DvfsSpec::fixed(2.6),
//!     network: NetworkSpec::passthrough(10e-6),
//!     power: Default::default(),
//! });
//! let svc = b.add_service(ServiceModel::new(
//!     "api",
//!     vec![StageSpec::new(
//!         "handler",
//!         QueueDiscipline::Single,
//!         ServiceTimeModel::per_job(Distribution::exponential(50e-6), 2.6),
//!     )],
//!     vec![ExecPath::new("default", vec![StageId::from_raw(0)])],
//! ));
//! let inst = b.add_instance("api0", svc, m, 2, ExecSpec::Simple)?;
//! let mut front = PathNodeSpec::request("api", svc, inst);
//! front.children = vec![PathNodeId::from_raw(1)];
//! let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
//! let ty = b.add_request_type(RequestType::new(
//!     "get",
//!     vec![front, sink],
//!     PathNodeId::from_raw(0),
//! ))?;
//! b.add_client(ClientSpec::open_loop("wrk", 10_000.0, 320, ty), vec![inst]);
//!
//! let mut sim = b.build()?;
//! sim.run_for(SimDuration::from_secs(5));
//! let stats = sim.latency_summary();
//! println!("p99 = {:.1}us over {} requests", stats.p99 * 1e6, stats.count);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod builder;
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

pub use builder::{ExecSpec, ScenarioBuilder};
pub use critpath::{CpcProfile, CpcReport, EdgeKind, SpanDag};
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
