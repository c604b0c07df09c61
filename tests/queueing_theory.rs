//! Ground-truth validation of the discrete-event core against
//! queueing-theory closed forms: M/M/1, M/M/k (Erlang C), and M/D/1
//! (Pollaczek–Khinchine). If these hold, the engine's queueing mechanics —
//! arrivals, FIFO service, multi-server dispatch, sojourn accounting — are
//! correct.

use uqsim_bighouse::erlang_c;
use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, LinkConfig, PathNodeConfig,
    RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::ids::StageId;
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::SimDuration;
use uqsim_core::{SimResult, Simulator};

/// One single-stage service per `(name, service time, servers)` station —
/// each with an instance of the same name on one shared machine — visited
/// in order, the last one replying to the client. Ideal (zero-cost)
/// networking and effectively unlimited client concurrency: the setup
/// queueing-theory closed forms apply to.
fn stations(qps: f64, stations: &[(&str, Distribution, usize)], seed: u64) -> ScenarioConfig {
    let names: Vec<&str> = stations.iter().map(|s| s.0).collect();
    let mut nodes: Vec<PathNodeConfig> = names
        .iter()
        .zip(names.iter().skip(1).chain(&["client_sink"]))
        .map(|(name, next)| PathNodeConfig {
            children: vec![(*next).into()],
            ..PathNodeConfig::service(
                *name,
                *name,
                InstanceSelectConfig::Fixed {
                    name: (*name).into(),
                },
                "serve",
            )
        })
        .collect();
    if let [_, .., last] = nodes.as_mut_slice() {
        last.link = LinkConfig::ReplyToParent;
    }
    nodes.push(PathNodeConfig::client_sink(names[0]));
    ScenarioConfig {
        seed,
        warmup_s: 2.0,
        machines: vec![MachineSpec {
            name: "m".into(),
            cores: stations.iter().map(|s| s.2).sum(),
            dvfs: DvfsSpec::fixed(2.6),
            network: NetworkSpec::passthrough(0.0),
            power: Default::default(),
        }],
        services: stations
            .iter()
            .map(|(name, service, _)| {
                ServiceModel::new(
                    *name,
                    vec![StageSpec::new(
                        "serve",
                        QueueDiscipline::Single,
                        ServiceTimeModel::per_job(service.clone(), 2.6),
                    )],
                    vec![ExecPath::new("serve", vec![StageId::from_raw(0)])],
                )
            })
            .collect(),
        instances: stations
            .iter()
            .map(|&(name, _, servers)| InstanceConfig {
                name: name.into(),
                service: name.into(),
                machine: "m".into(),
                cores: servers,
                exec: ExecConfig::Simple,
            })
            .collect(),
        pools: Vec::new(),
        request_types: vec![RequestTypeConfig {
            name: "r".into(),
            nodes,
        }],
        clients: vec![ClientConfig::open_loop("c", qps, 1_000_000, "r", names[0])],
    }
}

/// A bare G/G/k station.
fn station(qps: f64, service: Distribution, servers: usize, seed: u64) -> SimResult<Simulator> {
    stations(qps, &[("station", service, servers)], seed).build()
}

fn run_station(
    qps: f64,
    service: Distribution,
    servers: usize,
    secs: u64,
    seed: u64,
) -> (f64, f64) {
    let mut sim = station(qps, service, servers, seed).expect("station builds");
    sim.run_for(SimDuration::from_secs(secs));
    let s = sim.latency_summary();
    assert!(s.count > 1_000, "too few samples: {}", s.count);
    (s.mean, s.p99)
}

#[test]
fn mm1_mean_sojourn_across_utilizations() {
    // W = 1/(mu - lambda); mu = 10k.
    let mu = 10_000.0;
    for (rho, seed) in [(0.3, 1u64), (0.6, 2), (0.8, 3)] {
        let lambda = rho * mu;
        let (mean, _) = run_station(lambda, Distribution::exponential(1.0 / mu), 1, 30, seed);
        let expect = 1.0 / (mu - lambda);
        assert!(
            (mean - expect).abs() / expect < 0.08,
            "rho={rho}: mean {mean} vs theory {expect}"
        );
    }
}

#[test]
fn mm1_p99_matches_exponential_sojourn() {
    // Sojourn time of M/M/1 is exponential with rate (mu - lambda):
    // p99 = ln(100) / (mu - lambda).
    let mu = 10_000.0;
    let lambda = 6_000.0;
    let (_, p99) = run_station(lambda, Distribution::exponential(1.0 / mu), 1, 40, 4);
    let expect = (100.0f64).ln() / (mu - lambda);
    assert!(
        (p99 - expect).abs() / expect < 0.10,
        "p99 {p99} vs theory {expect}"
    );
}

#[test]
fn mmk_mean_sojourn_matches_erlang_c() {
    // W = C(k,a)/(k*mu - lambda) + 1/mu.
    let mu = 5_000.0; // per-server
    for (k, rho, seed) in [(2usize, 0.7, 5u64), (4, 0.8, 6), (8, 0.6, 7)] {
        let lambda = rho * k as f64 * mu;
        let (mean, _) = run_station(lambda, Distribution::exponential(1.0 / mu), k, 30, seed);
        let a = lambda / mu;
        let expect = erlang_c(k, a) / (k as f64 * mu - lambda) + 1.0 / mu;
        assert!(
            (mean - expect).abs() / expect < 0.08,
            "k={k} rho={rho}: mean {mean} vs theory {expect}"
        );
    }
}

#[test]
fn md1_mean_wait_is_half_of_mm1() {
    // Pollaczek–Khinchine: deterministic service halves the mean wait.
    let mu = 10_000.0;
    let lambda = 7_000.0;
    let rho: f64 = lambda / mu;
    let (mean, _) = run_station(lambda, Distribution::constant(1.0 / mu), 1, 30, 8);
    let expect = rho / (2.0 * mu * (1.0 - rho)) + 1.0 / mu;
    assert!(
        (mean - expect).abs() / expect < 0.08,
        "mean {mean} vs theory {expect}"
    );
}

#[test]
fn mg1_pollaczek_khinchine_lognormal() {
    // M/G/1 with lognormal service (cv = 1.5):
    // Wq = lambda * E[S^2] / (2 (1 - rho)), E[S^2] = mean^2 (1 + cv^2).
    let mean_s = 1.0 / 10_000.0;
    let cv: f64 = 1.5;
    let lambda = 5_000.0;
    let rho = lambda * mean_s;
    let es2 = mean_s * mean_s * (1.0 + cv * cv);
    let expect = lambda * es2 / (2.0 * (1.0 - rho)) + mean_s;
    let (mean, _) = run_station(
        lambda,
        Distribution::lognormal_mean_cv(mean_s, cv),
        1,
        40,
        9,
    );
    assert!(
        (mean - expect).abs() / expect < 0.10,
        "mean {mean} vs theory {expect}"
    );
}

#[test]
fn latency_monotone_in_load() {
    let mu = 10_000.0;
    let mut prev = 0.0;
    for (i, rho) in [0.2, 0.5, 0.8, 0.95].iter().enumerate() {
        let (mean, _) = run_station(
            rho * mu,
            Distribution::exponential(1.0 / mu),
            1,
            20,
            10 + i as u64,
        );
        assert!(
            mean > prev,
            "latency must grow with load: {mean} after {prev}"
        );
        prev = mean;
    }
}

#[test]
fn throughput_tracks_offered_below_saturation() {
    let mu = 10_000.0;
    let lambda = 4_000.0;
    let mut sim = station(lambda, Distribution::exponential(1.0 / mu), 1, 21).expect("builds");
    sim.run_for(SimDuration::from_secs(20));
    let measured = sim.latency_summary().count as f64 / 18.0;
    assert!(
        (measured - lambda).abs() / lambda < 0.03,
        "throughput {measured}"
    );
}

mod tandem {
    //! Jackson-network validation: a tandem of two single-server stations
    //! with Poisson input behaves as two independent M/M/1 queues
    //! (Burke's theorem), so the mean end-to-end sojourn is the sum of
    //! the per-station sojourns.

    use super::*;

    #[test]
    fn tandem_mm1_queues_sum_like_jackson() {
        let (mu1, mu2, lambda) = (10_000.0, 6_000.0, 4_000.0);
        let exp = |mu: f64| Distribution::exponential(1.0 / mu);
        // A free relay carries the response back to the client without adding
        // measurable service time or revisiting the tandem.
        let tandem = [
            ("st1", exp(mu1), 1),
            ("st2", exp(mu2), 1),
            ("relay", exp(1e9), 1),
        ];
        let mut sim = stations(lambda, &tandem, 33).build().unwrap();
        sim.run_for(SimDuration::from_secs(30));
        let mean = sim.latency_summary().mean;
        let expect = 1.0 / (mu1 - lambda) + 1.0 / (mu2 - lambda);
        assert!(
            (mean - expect).abs() / expect < 0.08,
            "tandem mean {mean} vs Jackson {expect}"
        );
    }
}
