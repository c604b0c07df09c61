//! Directional gate on the retry-storm experiment: naive unbounded
//! retries must turn a transient slowdown into a persistent (metastable)
//! goodput collapse, while the same retries behind a budget + breaker —
//! and plain no-retry — must recover once the fault clears. The outcomes
//! at the scenario's seed (1913) are pinned count for count; EXPERIMENTS.md
//! tabulates them.

use uqsim_bench::experiments::retry_storm;

#[test]
fn naive_retries_collapse_where_budget_and_breaker_recover() {
    let s = retry_storm::run().expect("experiment runs");

    // Pre-fault, all three policies are healthy and equivalent (no
    // failures yet, so no policy has acted): near the offered load.
    for o in [&s.no_retry, &s.naive, &s.guarded] {
        assert!(
            o.pre_goodput > 0.9 * retry_storm::OFFERED_QPS,
            "{} unhealthy before the fault: {:.0} qps",
            o.name,
            o.pre_goodput
        );
    }

    // The storm phase hurts everyone: the 4x slowdown caps capacity well
    // under the offered load.
    for o in [&s.no_retry, &s.naive, &s.guarded] {
        assert!(
            o.storm_goodput < 0.8 * o.pre_goodput,
            "{} unaffected by the fault: {:.0} qps",
            o.name,
            o.storm_goodput
        );
    }

    // The metastable cliff: with the trigger long gone, naive retries keep
    // the system collapsed ...
    assert!(
        s.naive.recovery_goodput < 0.3 * s.naive.pre_goodput,
        "naive retries recovered ({:.0} of {:.0} qps) — no metastable regime",
        s.naive.recovery_goodput,
        s.naive.pre_goodput
    );
    assert!(
        s.naive.retried > 10_000,
        "naive policy barely retried: {}",
        s.naive.retried
    );
    // ... while the guarded policy (and no-retry) return to health.
    for o in [&s.no_retry, &s.guarded] {
        assert!(
            o.recovery_goodput > 0.8 * o.pre_goodput,
            "{} failed to recover: {:.0} of {:.0} qps",
            o.name,
            o.recovery_goodput,
            o.pre_goodput
        );
    }
    // The guard rails actually engaged.
    assert!(s.guarded.breaker_trips > 0, "breaker never tripped");
    assert!(
        s.guarded.retried < s.naive.retried / 10,
        "budget failed to bound retries: {} vs naive {}",
        s.guarded.retried,
        s.naive.retried
    );

    // The record itself: phase goodputs (pre, storm, recovery; whole qps)
    // and generated / timeouts / retried / shed / breaker trips. The run is
    // deterministic, so any move here is a change in what it simulates.
    let outcome = |o: &retry_storm::PolicyOutcome| {
        (
            [o.pre_goodput, o.storm_goodput, o.recovery_goodput].map(|g| g.round() as u64),
            [o.generated, o.timeouts, o.retried, o.shed, o.breaker_trips],
        )
    };
    let no_retry = ([15964, 2231, 15917], [79886, 27582, 0, 0, 0]);
    let naive = ([15964, 74, 0], [568262, 549345, 488376, 0, 0]);
    let guarded = ([15964, 10650, 15914], [80009, 1085, 123, 9787, 3]);
    assert_eq!(outcome(&s.no_retry), no_retry, "no-retry");
    assert_eq!(outcome(&s.naive), naive, "naive");
    assert_eq!(outcome(&s.guarded), guarded, "guarded");
}
