//! Layer probes that need no scenario: the event queue under the hold
//! model, and service-time sampling. Every workload runs them, since
//! every workload's inner loop is made of these calls.

use crate::spans::Recorder;
use crate::stats::Samples;
use std::hint::black_box;
use uqsim_core::dist::Distribution;
use uqsim_core::event::{EventKind, EventQueue};
use uqsim_core::histogram::Histogram;
use uqsim_core::ids::ClientId;
use uqsim_core::rng::RngFactory;
use uqsim_core::SimTime;

const HOLD_OPS: usize = 400_000;
const DRAWS: usize = 400_000;

/// ns per `pop` + `schedule` pair with `pending` events queued: the
/// classic hold model, each popped event rescheduled an exponential
/// increment (mean 1 µs per pending event, so the queue's time span stays
/// put) into the future.
fn hold_ns(rec: &mut Recorder, name: &'static str, pending: usize, seed: u64) -> f64 {
    let mut rng = RngFactory::new(seed).stream("hold", pending as u64);
    let step = Distribution::exponential(pending as f64 * 1e-6);
    // Drawn up front so the timed loop holds queue work only.
    let steps: Vec<u64> = (0..4096)
        .map(|_| (step.sample(&mut rng) * 1e9) as u64 + 1)
        .collect();
    let kind = || EventKind::ClientArrival {
        client: ClientId::from_raw(0),
    };
    let mut queue = EventQueue::new();
    // The earliest event first: an empty queue takes its first event as
    // the sorted bottom's upper edge, and a prefill that starts mid-range
    // insertion-sorts half of itself below that edge.
    queue.schedule(SimTime::ZERO, kind());
    for i in 1..pending {
        queue.schedule(SimTime::from_nanos(steps[i % steps.len()]), kind());
    }
    let mut hold = |ops: usize| {
        for i in 0..ops {
            let ev = queue.pop().expect("the queue never drains");
            let at = ev.time.as_nanos() + steps[i % steps.len()];
            queue.schedule(SimTime::from_nanos(at), kind());
        }
    };
    // One full turnover first, so the timed loop sees the ladder's
    // steady state and not the initial re-bucketing of the prefill.
    hold(pending);
    let ((), secs) = rec.timed(name, |_| hold(HOLD_OPS));
    black_box(queue.len());
    secs * 1e9 / HOLD_OPS as f64
}

/// ns per draw of `draw`.
fn draw_ns(rec: &mut Recorder, name: &'static str, mut draw: impl FnMut() -> f64) -> f64 {
    let (sum, secs) = rec.timed(name, |_| (0..DRAWS).map(|_| draw()).sum::<f64>());
    black_box(sum);
    secs * 1e9 / DRAWS as f64
}

/// One rep of every scenario-free probe.
pub fn run(rec: &mut Recorder, out: &mut Samples, seed: u64) {
    rec.span("probe.event", |rec| {
        out.push(
            "event.hold_ns_small",
            hold_ns(rec, "event.hold_small", 100, seed),
        );
        out.push(
            "event.hold_ns_large",
            hold_ns(rec, "event.hold_large", 100_000, seed),
        );
    });
    rec.span("probe.dist", |rec| {
        let mut rng = RngFactory::new(seed).stream("dist", 0);
        let exp = Distribution::exponential(50e-6);
        let lognormal = Distribution::lognormal_mean_cv(50e-6, 0.5);
        out.push(
            "dist.exp_sample_ns",
            draw_ns(rec, "dist.exp_sample", || exp.sample(&mut rng)),
        );
        out.push(
            "dist.lognormal_sample_ns",
            draw_ns(rec, "dist.lognormal_sample", || lognormal.sample(&mut rng)),
        );
        let profiled: Vec<f64> = (0..10_000).map(|_| lognormal.sample(&mut rng)).collect();
        let histogram = Histogram::from_samples(&profiled, 64).expect("samples are finite");
        out.push(
            "histogram.sample_ns",
            draw_ns(rec, "histogram.sample", || histogram.sample(&mut rng)),
        );
    });
}
