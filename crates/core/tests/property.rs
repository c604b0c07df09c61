//! Property-based tests (proptest) of the core data structures and
//! invariants: event ordering, queue conservation, distribution support,
//! histogram construction, percentile monotonicity, DVFS snapping, and
//! time arithmetic.

use proptest::prelude::*;
use uqsim_core::critpath::{CpcProfile, EdgeKind};
use uqsim_core::dist::Distribution;
use uqsim_core::event::{EventKind, EventQueue};
use uqsim_core::histogram::Histogram;
use uqsim_core::ids::{ClientId, ConnectionId, JobId};
use uqsim_core::machine::DvfsSpec;
use uqsim_core::metrics::{percentile_sorted, LatencySummary};
use uqsim_core::queue::StageQueue;
use uqsim_core::rng::RngFactory;
use uqsim_core::stage::QueueDiscipline;
use uqsim_core::time::{SimDuration, SimTime};

proptest! {
    /// Events pop in (time, seq) order regardless of insertion order.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(
                SimTime::from_nanos(t),
                EventKind::ClientArrival { client: ClientId::from_raw(i as u32) },
            );
        }
        let mut prev_time = SimTime::ZERO;
        let mut prev_seq = 0u64;
        let mut count = 0;
        while let Some(e) = q.pop() {
            prop_assert!(e.time >= prev_time);
            if e.time == prev_time {
                prop_assert!(e.seq > prev_seq || count == 0);
            }
            prev_time = e.time;
            prev_seq = e.seq;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// No job is lost or duplicated by any stage queue under arbitrary
    /// push/batch interleavings.
    #[test]
    fn stage_queue_conserves_jobs(
        ops in proptest::collection::vec((any::<bool>(), 0u32..6), 1..500),
        mode in 0usize..3,
        batch in 1usize..5,
    ) {
        let discipline = match mode {
            0 => QueueDiscipline::Single,
            1 => QueueDiscipline::Socket { batch },
            _ => QueueDiscipline::Epoll { batch_per_conn: batch },
        };
        let mut q = StageQueue::new(discipline);
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        let mut next = 0u32;
        for (push, conn) in ops {
            if push {
                let j = JobId::new(next, 0);
                next += 1;
                q.push(j, ConnectionId::from_raw(conn));
                pushed.push(j);
            } else {
                popped.extend(q.assemble_batch());
            }
        }
        while !q.is_empty() {
            let b = q.assemble_batch();
            prop_assert!(!b.is_empty(), "non-empty queue must yield batches");
            popped.extend(b);
        }
        pushed.sort();
        popped.sort();
        prop_assert_eq!(pushed, popped);
    }

    /// Epoll batches never take more than the per-connection cap from any
    /// single connection.
    #[test]
    fn epoll_batch_respects_per_conn_cap(
        jobs_per_conn in proptest::collection::vec(1usize..12, 1..8),
        cap in 1usize..6,
    ) {
        let mut q = StageQueue::new(QueueDiscipline::Epoll { batch_per_conn: cap });
        let mut next = 0u32;
        for (c, &n) in jobs_per_conn.iter().enumerate() {
            for _ in 0..n {
                q.push(JobId::new(next, 0), ConnectionId::from_raw(c as u32));
                next += 1;
            }
        }
        let batch = q.assemble_batch();
        let expected: usize = jobs_per_conn.iter().map(|&n| n.min(cap)).sum();
        prop_assert_eq!(batch.len(), expected);
    }

    /// Valid distributions produce only non-negative, finite samples, and
    /// scaling by k multiplies the analytic mean by k.
    #[test]
    fn distributions_nonnegative_and_scale(
        mean in 1e-7f64..1e-2,
        cv in 0.1f64..2.0,
        factor in 0.1f64..10.0,
        seed in any::<u64>(),
    ) {
        let dists = [
            Distribution::exponential(mean),
            Distribution::lognormal_mean_cv(mean, cv),
            Distribution::uniform(mean * 0.5, mean * 1.5),
            Distribution::constant(mean),
        ];
        let mut rng = RngFactory::new(seed).stream("prop", 0);
        for d in &dists {
            prop_assert!(d.validate().is_ok());
            for _ in 0..32 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0, "bad sample {x} from {d:?}");
            }
            let scaled = d.scaled(factor);
            let rel = (scaled.mean() - d.mean() * factor).abs() / (d.mean() * factor);
            prop_assert!(rel < 1e-9, "scaling broke the mean for {d:?}");
        }
    }

    /// Histograms built from samples cover their sample range, and their
    /// draws stay within it.
    #[test]
    fn histogram_support_covers_samples(
        samples in proptest::collection::vec(1e-6f64..1e-2, 2..200),
        bins in 1usize..50,
        seed in any::<u64>(),
    ) {
        let h = Histogram::from_samples(&samples, bins).unwrap();
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(h.min_value() <= lo + 1e-12);
        prop_assert!(h.max_value() >= hi - 1e-12);
        let mut rng = RngFactory::new(seed).stream("hist-prop", 0);
        for _ in 0..64 {
            let x = h.sample(&mut rng);
            prop_assert!(x >= h.min_value() - 1e-12 && x <= h.max_value() + 1e-12);
        }
    }

    /// Percentiles are monotone in q and bounded by min/max.
    #[test]
    fn percentiles_monotone(mut xs in proptest::collection::vec(0.0f64..1e3, 1..300)) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let p = percentile_sorted(&xs, q);
            prop_assert!(p >= prev);
            prop_assert!(p >= xs[0] && p <= xs[xs.len() - 1]);
            prev = p;
        }
        let s = LatencySummary::from_sorted(&xs);
        prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        prop_assert!(s.mean >= xs[0] && s.mean <= xs[xs.len() - 1]);
    }

    /// DVFS snapping always returns an allowed level, and it is the
    /// nearest one.
    #[test]
    fn dvfs_snap_returns_nearest_level(
        levels in proptest::collection::btree_set(1u32..40, 1..10),
        target in 0.1f64..5.0,
    ) {
        let levels: Vec<f64> = levels.into_iter().map(|l| l as f64 / 10.0).collect();
        let spec = DvfsSpec { levels_ghz: levels.clone() };
        prop_assert!(spec.validate().is_ok());
        let snapped = spec.snap(target);
        prop_assert!(levels.contains(&snapped));
        for &l in &levels {
            prop_assert!((snapped - target).abs() <= (l - target).abs() + 1e-12);
        }
    }

    /// Time arithmetic: (t + a) + b == (t + b) + a, and subtraction
    /// inverts addition.
    #[test]
    fn time_arithmetic_commutes(t in 0u64..1u64 << 40, a in 0u64..1u64 << 30, b in 0u64..1u64 << 30) {
        let t0 = SimTime::from_nanos(t);
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((t0 + da) + db, (t0 + db) + da);
        prop_assert_eq!((t0 + da) - t0, da);
        prop_assert_eq!(t0.saturating_since(t0 + da), SimDuration::ZERO);
    }

    /// Duration float conversions round-trip within a nanosecond.
    #[test]
    fn duration_float_roundtrip(ns in 0u64..1u64 << 50) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let diff = back.as_nanos().abs_diff(d.as_nanos());
        // f64 has 52 bits of mantissa; allow tiny rounding.
        prop_assert!(diff <= 1 + (ns >> 50));
    }

    /// CPC profile merge is commutative and associative, the property the
    /// partition layer relies on for shard-count-invariant attribution.
    #[test]
    fn cpc_merge_commutes_and_associates(
        obs in proptest::collection::vec(
            (0usize..3, proptest::collection::vec((0usize..4, 0usize..7, 1u64..1_000_000), 1..6)),
            0..12,
        ),
    ) {
        const SITES: [&str; 4] = ["client:a", "tier0/net", "tier1/cpu", "pool:db"];
        let mut profiles = [CpcProfile::new(), CpcProfile::new(), CpcProfile::new()];
        for (which, segs) in &obs {
            let segs: Vec<(&str, EdgeKind, u64)> = segs
                .iter()
                .map(|&(s, k, ns)| (SITES[s], EdgeKind::ALL[k], ns))
                .collect();
            let e2e: u64 = segs.iter().map(|s| s.2).sum();
            profiles[*which].observe(e2e, &segs);
        }
        let [a, b, c] = profiles;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge is not commutative");

        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc_a = b.clone();
        bc_a.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc_a);
        prop_assert_eq!(&ab_c, &a_bc, "merge is not associative");
    }
}
