//! Integration tests of the telemetry layer: streaming-histogram accuracy
//! against exact percentiles (proptest), merge algebra, the telescoping
//! latency-decomposition invariant on trace-audited runs, sampler windows
//! recomputed from the span log, and gap-free window series over trailing
//! idle time.

use proptest::prelude::*;
use std::collections::HashMap;
use uqsim_core::client::{ArrivalProcess, RateSchedule};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::metrics::LatencySummary;
use uqsim_core::run::EXAMPLE_SCENARIO;
use uqsim_core::telemetry::{StreamingHistogram, TelemetryConfig};
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::trace::TraceEvent;

/// Exact nearest-rank quantile over sorted integer samples — the reference
/// the streaming histogram is measured against.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

fn hist_of(samples: &[u64]) -> StreamingHistogram {
    let mut h = StreamingHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    /// The streaming estimate never under-reports a quantile and
    /// over-reports by at most one sub-bucket width (1/32 relative, +1 ns
    /// integer slack) — the histogram's documented resolution contract.
    #[test]
    fn streaming_quantiles_track_exact(
        samples in proptest::collection::vec(0u64..2_000_000_000, 1..400),
    ) {
        let h = hist_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min_ns(), sorted[0]);
        prop_assert_eq!(h.max_ns(), *sorted.last().unwrap());
        prop_assert_eq!(h.sum_ns(), sorted.iter().map(|&s| s as u128).sum::<u128>());
        for q in [0.5, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile_ns(q);
            prop_assert!(
                est >= exact,
                "q{q}: estimate {est} under exact {exact}"
            );
            prop_assert!(
                est <= exact + exact / 32 + 1,
                "q{q}: estimate {est} beyond resolution of exact {exact}"
            );
        }
    }

    /// Merging is commutative, associative, and identical to having
    /// recorded the concatenated sample streams into one histogram — the
    /// property that makes per-shard histograms aggregable in any order.
    #[test]
    fn streaming_merge_algebra(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..200),
        c in proptest::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge must be associative");

        let concatenated: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(
            &ab,
            &hist_of(&concatenated),
            "merge must equal recording the union"
        );
    }
}

/// Runs `cfg` for `secs` with telemetry and span tracing, asserts the
/// trace audit is clean, and checks the telescoping invariant. Per
/// request it is the `debug_assert!` every completion makes (test builds
/// keep debug assertions on): the component attributions sum to the
/// end-to-end latency exactly (the 1 ns acceptance bound, met with 0 ns
/// error by construction). Over the run, the decomposition covers exactly
/// the measured requests, and the six component means sum to the mean
/// end-to-end latency within 1 ns.
fn assert_decomposition_telescopes(cfg: &ScenarioConfig, secs: f64, min_requests: usize) {
    let mut sim = cfg.build().expect("config builds");
    sim.enable_telemetry(TelemetryConfig::default());
    sim.enable_span_tracing(4_000_000);
    sim.run_for(SimDuration::from_secs_f64(secs));
    let report = sim.audit_trace().expect("tracing enabled");
    assert!(report.is_clean(), "violations: {:#?}", report.violations);
    let latency = sim.latency_summary();
    let snapshot = sim.metrics_snapshot();
    assert!(
        latency.count >= min_requests,
        "only {} requests measured",
        latency.count
    );
    assert_eq!(
        snapshot.decomposed_requests, latency.count as u64,
        "the decomposition covers exactly the measured requests"
    );
    let components: f64 = snapshot.component_mean_s.iter().sum();
    assert!(
        (components - latency.mean).abs() <= 1e-9,
        "component means sum to {components} s, mean latency is {} s",
        latency.mean
    );
}

#[test]
fn decomposition_sums_to_e2e_on_audited_single_tier_run() {
    let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    assert_decomposition_telescopes(&cfg, 1.0, 500);
}

#[test]
fn decomposition_sums_to_e2e_on_audited_two_tier_run() {
    // The bundled two-tier scenario exercises connection pools (Blocking)
    // and multi-node request paths (per-hop Network charges).
    let text = include_str!("../../cli/configs/two_tier.json");
    let cfg = ScenarioConfig::from_json(text).unwrap();
    assert_decomposition_telescopes(&cfg, 1.0, 500);
}

#[test]
fn decomposition_sums_to_e2e_on_audited_social_network_run() {
    // The bundled social-network scenario adds fan-out/fan-in (FanInSync)
    // and blocking RPC threads.
    let text = include_str!("../../cli/configs/social_network.json");
    let cfg = ScenarioConfig::from_json(text).unwrap();
    assert_decomposition_telescopes(&cfg, 1.0, 1_000);
}

/// The sampler's windows are a view the span log can reproduce: every
/// non-timed-out `RequestCompleted`, with latency measured from its
/// `RequestEmitted`, bucketed into `[k, k+1) * sample_interval` (a
/// completion landing exactly on a tick belongs to the next window) and
/// summarized per window, must give bitwise-identical counts, percentiles
/// and throughput.
#[test]
fn telemetry_windows_match_span_log() {
    let interval = SimDuration::from_secs_f64(0.05);
    let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    let mut sim = cfg.build().unwrap();
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(interval),
        ..TelemetryConfig::default()
    });
    sim.enable_span_tracing(1_000_000);
    sim.run_for(SimDuration::from_secs(1));
    let tw = sim.telemetry_windows();
    assert!(tw.len() >= 15, "only {} windows", tw.len());

    let log = sim.span_log().unwrap();
    assert_eq!(log.dropped(), 0, "span log too small for this test");
    let mut emitted = HashMap::new();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); tw.len()];
    for ev in log.events() {
        match *ev {
            TraceEvent::RequestEmitted { request, t, .. } => {
                emitted.insert(request, t);
            }
            TraceEvent::RequestCompleted {
                request,
                timed_out,
                t,
                ..
            } => {
                let submitted = emitted.remove(&request).expect("completion was emitted");
                let k = (t.as_nanos() / interval.as_nanos()) as usize;
                if !timed_out && k < samples.len() {
                    samples[k].push((t - submitted).as_secs_f64());
                }
            }
            _ => {}
        }
    }
    assert!(samples.iter().all(|w| !w.is_empty()), "an empty window");
    for (k, (w, bucket)) in tw.iter().zip(&samples).enumerate() {
        let expect = LatencySummary::from_samples(bucket);
        assert_eq!(
            w.end,
            SimTime::ZERO + interval * (k as u64 + 1),
            "window {k} end"
        );
        assert_eq!(w.count as usize, expect.count, "window {k} count");
        assert_eq!(w.p50_s, expect.p50, "window {k} p50");
        assert_eq!(w.p95_s, expect.p95, "window {k} p95");
        assert_eq!(w.p99_s, expect.p99, "window {k} p99");
        let throughput = expect.count as f64 / interval.as_secs_f64();
        assert_eq!(w.throughput, throughput, "window {k} throughput");
    }
}

/// A run whose load stops well before the deadline must still produce a
/// gap-free window series up to the last sampler tick, with explicit
/// count-0 windows over the idle tail.
#[test]
fn idle_tail_emits_trailing_empty_windows() {
    let mut cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    // Deterministic arrivals that effectively stop at t=0.25s (the 0.01
    // qps tail means the next arrival lands 100 simulated seconds out).
    cfg.clients[0].arrivals = ArrivalProcess::Uniform {
        schedule: RateSchedule {
            segments: vec![(0.0, 2000.0), (0.25, 0.01)],
        },
    };
    let interval = SimDuration::from_secs_f64(0.1);
    let mut sim = cfg.build().unwrap();
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(interval),
        ..TelemetryConfig::default()
    });
    sim.run_for(SimDuration::from_secs(1));

    // The sampler ticks at 0.1s..0.9s (the 1.0s tick loses to the stop
    // event).
    let tw = sim.telemetry_windows();
    assert_eq!(tw.len(), 9);
    assert!(tw[0].count > 0, "load phase produced no completions");
    for w in &tw[5..] {
        assert_eq!(w.count, 0, "idle sampler window at {:?}", w.end);
    }
    // Windows tile the time axis: one per interval, none skipped.
    for (k, w) in tw.iter().enumerate() {
        assert_eq!(w.end, SimTime::ZERO + interval * (k as u64 + 1));
    }
}
