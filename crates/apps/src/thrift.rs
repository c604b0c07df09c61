//! Apache Thrift RPC server model.
//!
//! Thrift services run a blocking worker-thread model: a worker reads a
//! request off its socket, runs the handler, and writes the reply; a
//! synchronous downstream call holds the worker (releasing the core) until
//! the reply arrives. In path DAGs this maps to `block_thread_until` /
//! `pin_thread_of` on the caller's nodes.
//!
//! Calibration: the hello-world validation (§IV-C, Fig. 12a) saturates just
//! beyond 50 kQPS on one worker, with sub-100 µs latency at low load —
//! ≈20 µs of per-request work.

use uqsim_core::config::Name;
use uqsim_core::dist::Distribution;
use uqsim_core::ids::StageId;
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};

/// Execution-path indices of a Thrift service model.
pub mod paths {
    /// Receive, run the handler, reply.
    pub const HANDLE: usize = 0;
    /// Continuation after a synchronous call returns: compose and reply.
    pub const COMPOSE: usize = 1;
}

/// Reference DVFS frequency, GHz.
pub const REF_FREQ_GHZ: f64 = 2.6;

/// Builds a Thrift service model with the given handler and continuation
/// processing means (seconds).
///
/// # Examples
///
/// ```
/// let m = uqsim_apps::thrift::service_model("user_service", 20e-6, 12e-6);
/// assert!(m.validate().is_ok());
/// assert_eq!(&*m.name, "user_service");
/// ```
pub fn service_model(
    name: impl Into<Name>,
    handle_mean_s: f64,
    compose_mean_s: f64,
) -> ServiceModel {
    let single = |mean: f64, cv: f64| {
        ServiceTimeModel::per_job(Distribution::lognormal_mean_cv(mean, cv), REF_FREQ_GHZ)
    };
    let stages = vec![
        StageSpec::new("socket_read", QueueDiscipline::Single, single(4e-6, 0.3)),
        StageSpec::new(
            "handler",
            QueueDiscipline::Single,
            single(handle_mean_s, 0.6),
        ),
        StageSpec::new(
            "compose",
            QueueDiscipline::Single,
            single(compose_mean_s, 0.5),
        ),
        StageSpec::new("socket_send", QueueDiscipline::Single, single(4e-6, 0.3)),
    ];
    let s = |i: usize| StageId::from_raw(i as u32);
    let paths = vec![
        ExecPath::new("handle", vec![s(0), s(1), s(3)]),
        ExecPath::new("compose", vec![s(0), s(2), s(3)]),
    ];
    ServiceModel::new(name, stages, paths)
}

/// The hello-world server of the Fig. 12a validation: ≈20 µs per request.
pub fn hello_world_model() -> ServiceModel {
    service_model("thrift_hello", 12e-6, 8e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_are_valid() {
        assert!(hello_world_model().validate().is_ok());
        assert!(service_model("x", 1e-5, 1e-5).validate().is_ok());
    }

    #[test]
    fn path_constants_match_names() {
        let m = hello_world_model();
        assert_eq!(m.path_index("handle"), Some(paths::HANDLE));
        assert_eq!(m.path_index("compose"), Some(paths::COMPOSE));
    }

    #[test]
    fn hello_world_budget_is_20us() {
        // One worker must saturate just past 50 kQPS (Fig. 12a).
        let m = hello_world_model();
        let total: f64 = m.paths[paths::HANDLE]
            .stages
            .iter()
            .map(|&s| m.stages[s.index()].service.mean(1))
            .sum();
        assert!(
            (total - 20e-6).abs() < 3e-6,
            "budget {}us should be ~20us",
            total * 1e6
        );
    }
}
