//! # uqsim-bighouse
//!
//! An independent reimplementation of the *BigHouse* modeling approach
//! (Meisner, Wu, Wenisch — ISPASS 2012), the baseline µqSim is compared
//! against in Fig. 13 of the paper.
//!
//! BigHouse represents a datacenter application as a **single queue with k
//! servers**, characterized only by an inter-arrival distribution and a
//! service distribution obtained from profiling. That abstraction cannot
//! express intra-service stages: the profiled service time of an
//! event-driven application necessarily charges the *entire* cost of a
//! batched stage invocation (e.g. one `epoll` call that harvested many
//! events) to *every* request, instead of amortizing it across the batch.
//! µqSim's stage-level model amortizes it; this is precisely why BigHouse
//! saturates far below the real system in Fig. 13.
//!
//! [`service_distribution_for`] derives a BigHouse-style service
//! distribution from a µqSim [`ServiceModel`]
//! the same way profiling the real application would: batching stages
//! contribute their full invocation time at the load-time batch size.
//!
//! ```
//! use uqsim_bighouse::{BigHouse, BigHouseConfig};
//! use uqsim_core::dist::Distribution;
//!
//! let cfg = BigHouseConfig {
//!     interarrival: Distribution::exponential(1.0 / 5_000.0),
//!     service: Distribution::exponential(100e-6),
//!     servers: 1,
//!     seed: 42,
//!     warmup_s: 0.5,
//! };
//! let result = BigHouse::new(cfg).run(5.0);
//! assert!(result.latency.count > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use uqsim_core::dist::Distribution;
use uqsim_core::metrics::LatencySummary;
use uqsim_core::rng::RngFactory;
use uqsim_core::service::ServiceModel;
use uqsim_core::stage::QueueDiscipline;

/// Configuration of a BigHouse single-queue simulation.
#[derive(Debug, Clone)]
pub struct BigHouseConfig {
    /// Inter-arrival time distribution, seconds.
    pub interarrival: Distribution,
    /// Per-request service time distribution, seconds.
    pub service: Distribution,
    /// Number of servers draining the queue (threads/processes).
    pub servers: usize,
    /// Random seed.
    pub seed: u64,
    /// Completions before this time are discarded.
    pub warmup_s: f64,
}

/// Result of a BigHouse run.
#[derive(Debug, Clone)]
pub struct BigHouseResult {
    /// Latency summary over post-warmup completions (sojourn times).
    pub latency: LatencySummary,
    /// Requests completed after warmup.
    pub completed: u64,
    /// Requests generated in total.
    pub generated: u64,
    /// Achieved post-warmup throughput, requests/second.
    pub throughput: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival,
    Departure { server: usize, arrived: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Scheduled {
    time: f64,
    seq: u64,
    event: Event,
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("finite times")
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A G/G/k FCFS queueing simulation in the style of BigHouse.
#[derive(Debug)]
pub struct BigHouse {
    cfg: BigHouseConfig,
    rng: SmallRng,
    events: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    now: f64,
    queue: VecDeque<f64>,
    busy: Vec<bool>,
    samples: Vec<f64>,
    generated: u64,
    completed_after_warmup: u64,
}

impl BigHouse {
    /// Creates a simulation from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(cfg: BigHouseConfig) -> Self {
        assert!(cfg.servers > 0, "need at least one server");
        let rng = RngFactory::new(cfg.seed).stream("bighouse", 0);
        let busy = vec![false; cfg.servers];
        let mut sim = BigHouse {
            cfg,
            rng,
            events: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            queue: VecDeque::new(),
            busy,
            samples: Vec::new(),
            generated: 0,
            completed_after_warmup: 0,
        };
        let first = sim.cfg.interarrival.sample(&mut sim.rng);
        sim.schedule(first, Event::Arrival);
        sim
    }

    fn schedule(&mut self, at: f64, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Scheduled {
            time: at,
            seq,
            event,
        }));
    }

    fn start_service(&mut self, server: usize, arrived: f64) {
        self.busy[server] = true;
        let service = self.cfg.service.sample(&mut self.rng);
        let at = self.now + service;
        self.schedule(at, Event::Departure { server, arrived });
    }

    /// Runs until `horizon_s` simulated seconds and summarizes.
    pub fn run(mut self, horizon_s: f64) -> BigHouseResult {
        while let Some(Reverse(ev)) = self.events.pop() {
            if ev.time > horizon_s {
                break;
            }
            self.now = ev.time;
            match ev.event {
                Event::Arrival => {
                    self.generated += 1;
                    let gap = self.cfg.interarrival.sample(&mut self.rng);
                    let next = self.now + gap;
                    self.schedule(next, Event::Arrival);
                    match self.busy.iter().position(|&b| !b) {
                        Some(server) => {
                            let arrived = self.now;
                            self.start_service(server, arrived);
                        }
                        None => self.queue.push_back(self.now),
                    }
                }
                Event::Departure { server, arrived } => {
                    if self.now >= self.cfg.warmup_s {
                        self.samples.push(self.now - arrived);
                        self.completed_after_warmup += 1;
                    }
                    self.busy[server] = false;
                    if let Some(next_arrived) = self.queue.pop_front() {
                        self.start_service(server, next_arrived);
                    }
                }
            }
        }
        let span = (horizon_s - self.cfg.warmup_s).max(f64::EPSILON);
        BigHouseResult {
            latency: LatencySummary::from_samples(&self.samples),
            completed: self.completed_after_warmup,
            generated: self.generated,
            throughput: self.completed_after_warmup as f64 / span,
        }
    }
}

/// Result of a converged multi-instance BigHouse study.
#[derive(Debug, Clone)]
pub struct ConvergedResult {
    /// Mean of the per-instance p99s, seconds.
    pub p99_mean: f64,
    /// Half-width of the 95% confidence interval on the p99, seconds.
    pub p99_ci_half_width: f64,
    /// Mean of the per-instance mean sojourns, seconds.
    pub mean_mean: f64,
    /// Instances run before convergence (or the cap).
    pub instances: usize,
}

/// Runs independent instances of the same configuration (differing only in
/// seed) until the 95% confidence interval of the p99 is within
/// `rel_tolerance` of its mean, or `max_instances` is reached — BigHouse's
/// convergence methodology ("runs multiple instances in parallel until
/// performance metrics converge", §II).
///
/// # Panics
///
/// Panics if `max_instances < 2` or `rel_tolerance` is not positive.
pub fn run_converged(
    cfg: &BigHouseConfig,
    horizon_s: f64,
    rel_tolerance: f64,
    max_instances: usize,
) -> ConvergedResult {
    assert!(max_instances >= 2, "need at least two instances");
    assert!(rel_tolerance > 0.0, "tolerance must be positive");
    let mut p99s: Vec<f64> = Vec::new();
    let mut means: Vec<f64> = Vec::new();
    loop {
        let seed = cfg.seed.wrapping_add(p99s.len() as u64);
        let result = BigHouse::new(BigHouseConfig {
            seed,
            ..cfg.clone()
        })
        .run(horizon_s);
        p99s.push(result.latency.p99);
        means.push(result.latency.mean);
        if p99s.len() >= 2 {
            let n = p99s.len() as f64;
            let mean = p99s.iter().sum::<f64>() / n;
            let var = p99s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            // 1.96 ~ z for a 95% interval; fine for n >= ~10, conservative
            // enough below (BigHouse uses the same normal approximation).
            let half = 1.96 * (var / n).sqrt();
            if (half <= rel_tolerance * mean && p99s.len() >= 4) || p99s.len() >= max_instances {
                return ConvergedResult {
                    p99_mean: mean,
                    p99_ci_half_width: half,
                    mean_mean: means.iter().sum::<f64>() / n,
                    instances: p99s.len(),
                };
            }
        }
    }
}

/// Derives the BigHouse-style per-request service distribution for one
/// execution path of a µqSim service model, the way offline profiling of
/// the real application would see it: every stage contributes its full
/// invocation time, with batching stages observed at `profiled_batch`
/// events per invocation (their cost is *not* amortized across the batch —
/// the single-queue abstraction cannot express that).
///
/// The result is a [`Distribution::Shifted`] of the summed stage means with
/// the variability folded into an exponential component, matching
/// BigHouse's use of fitted parametric distributions.
pub fn service_distribution_for(
    model: &ServiceModel,
    path: usize,
    profiled_batch: usize,
) -> Distribution {
    let stages = &model.paths[path].stages;
    let mut fixed = 0.0;
    let mut variable_mean = 0.0;
    for &sid in stages {
        let stage = &model.stages[sid.index()];
        let invocation = match stage.queue {
            QueueDiscipline::Single => stage.service.mean(1),
            QueueDiscipline::Socket { .. } | QueueDiscipline::Epoll { .. } => {
                stage.service.mean(profiled_batch)
            }
        };
        // Split roughly half fixed / half variable so the fitted service
        // distribution has realistic (non-deterministic) dispersion.
        fixed += invocation * 0.5;
        variable_mean += invocation * 0.5;
    }
    Distribution::Shifted {
        offset: fixed,
        inner: Box::new(Distribution::exponential(variable_mean)),
    }
}

/// Erlang-C probability that an arrival waits in an M/M/k queue with
/// offered load `a = lambda / mu` and `k` servers — the closed form the
/// single-queue model (and µqSim's station tests) are checked against.
pub fn erlang_c(k: usize, a: f64) -> f64 {
    let mut term = 1.0; // a^0 / 0!
    let mut sum = term;
    for n in 1..k {
        term *= a / n as f64;
        sum += term;
    }
    let tail = term * a / k as f64 / (1.0 - a / k as f64);
    tail / (sum + tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_c_known_values() {
        // M/M/1: C = rho.
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-12);
        // M/M/2 at rho=0.5 (a=1): C = 1/3.
        assert!((erlang_c(2, 1.0) - 1.0 / 3.0).abs() < 1e-12);
    }

    fn mm1(lambda: f64, mu: f64, seed: u64) -> BigHouseResult {
        BigHouse::new(BigHouseConfig {
            interarrival: Distribution::exponential(1.0 / lambda),
            service: Distribution::exponential(1.0 / mu),
            servers: 1,
            seed,
            warmup_s: 1.0,
        })
        .run(60.0)
    }

    #[test]
    fn mm1_matches_theory() {
        // W = 1/(mu - lambda) = 1/(2000-1000) = 1ms.
        let r = mm1(1_000.0, 2_000.0, 7);
        assert!(
            (r.latency.mean - 1e-3).abs() / 1e-3 < 0.08,
            "mean {}",
            r.latency.mean
        );
        assert!((r.throughput - 1_000.0).abs() / 1_000.0 < 0.05);
    }

    #[test]
    fn mmk_beats_mm1_at_same_total_capacity() {
        // M/M/4 with per-server rate mu/4 has worse latency than M/M/1 at
        // rate mu at low load, but here we check the basic sanity that more
        // servers reduce waiting at fixed per-server utilization.
        let one = BigHouse::new(BigHouseConfig {
            interarrival: Distribution::exponential(1.0 / 1_500.0),
            service: Distribution::exponential(1.0 / 2_000.0),
            servers: 1,
            seed: 9,
            warmup_s: 1.0,
        })
        .run(40.0);
        let four = BigHouse::new(BigHouseConfig {
            interarrival: Distribution::exponential(1.0 / 6_000.0),
            service: Distribution::exponential(1.0 / 2_000.0),
            servers: 4,
            seed: 9,
            warmup_s: 1.0,
        })
        .run(40.0);
        // Same per-server rho = 0.75; M/M/4 queues less than M/M/1.
        assert!(four.latency.mean < one.latency.mean);
    }

    #[test]
    fn overload_grows_queue_unboundedly() {
        let r = mm1(3_000.0, 2_000.0, 11);
        // Throughput is capped at mu.
        assert!(r.throughput < 2_100.0, "throughput {}", r.throughput);
        assert!(r.latency.p99 > 10e-3, "p99 {}", r.latency.p99);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = mm1(1_000.0, 2_000.0, 5);
        let b = mm1(1_000.0, 2_000.0, 5);
        assert_eq!(a.latency, b.latency);
        let c = mm1(1_000.0, 2_000.0, 6);
        assert_ne!(a.latency, c.latency);
    }

    #[test]
    fn derived_service_charges_full_batch_cost() {
        let model = uqsim_apps_like_model();
        let d1 = service_distribution_for(&model, 0, 1);
        let d16 = service_distribution_for(&model, 0, 16);
        // Profiling under load (batch 16) inflates the fitted service time.
        assert!(d16.mean() > d1.mean());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = BigHouse::new(BigHouseConfig {
            interarrival: Distribution::exponential(1e-3),
            service: Distribution::exponential(1e-4),
            servers: 0,
            seed: 1,
            warmup_s: 0.0,
        });
    }

    #[test]
    fn convergence_tightens_the_interval() {
        let cfg = BigHouseConfig {
            interarrival: Distribution::exponential(1.0 / 1_000.0),
            service: Distribution::exponential(1.0 / 2_000.0),
            servers: 1,
            seed: 3,
            warmup_s: 0.5,
        };
        let loose = run_converged(&cfg, 4.0, 0.5, 32);
        let tight = run_converged(&cfg, 4.0, 0.02, 64);
        assert!(tight.instances >= loose.instances);
        assert!(tight.p99_ci_half_width <= 0.02 * tight.p99_mean * 1.0001 || tight.instances == 64);
        // Converged p99 sits near the analytic M/M/1 p99 = ln(100)/(mu-l).
        let analytic = (100.0f64).ln() / 1_000.0;
        assert!(
            (tight.p99_mean - analytic).abs() / analytic < 0.1,
            "converged p99 {} vs analytic {analytic}",
            tight.p99_mean
        );
    }

    #[test]
    fn convergence_respects_instance_cap() {
        let cfg = BigHouseConfig {
            interarrival: Distribution::exponential(1.0 / 1_000.0),
            service: Distribution::exponential(1.0 / 2_000.0),
            servers: 1,
            seed: 3,
            warmup_s: 0.2,
        };
        let r = run_converged(&cfg, 1.0, 1e-9, 5);
        assert_eq!(r.instances, 5);
    }

    /// A small epoll-fronted model for the derivation test.
    fn uqsim_apps_like_model() -> ServiceModel {
        use uqsim_core::ids::StageId;
        use uqsim_core::service::ExecPath;
        use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
        ServiceModel::new(
            "epoll_app",
            vec![
                StageSpec::new(
                    "epoll",
                    QueueDiscipline::Epoll { batch_per_conn: 16 },
                    ServiceTimeModel::batched(
                        Distribution::constant(5e-6),
                        Distribution::constant(2e-6),
                        2.6,
                    ),
                ),
                StageSpec::new(
                    "proc",
                    QueueDiscipline::Single,
                    ServiceTimeModel::per_job(Distribution::constant(20e-6), 2.6),
                ),
            ],
            vec![ExecPath::new(
                "p",
                vec![StageId::from_raw(0), StageId::from_raw(1)],
            )],
        )
    }
}
