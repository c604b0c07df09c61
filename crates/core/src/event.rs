//! The discrete-event core: event kinds, deterministic ordering, and the
//! pending-event queue.
//!
//! Every state change in the simulator is driven by popping the earliest
//! event from a priority queue (Fig. 2 of the paper). Ties in time are broken
//! by a monotonically increasing sequence number, which makes runs with the
//! same seed bit-for-bit reproducible.
//!
//! # The queue
//!
//! [`EventQueue`] is a small sorted vector over a binary heap. Queueing
//! simulations schedule near-monotonic timestamps: handlers schedule a
//! few microseconds ahead of a live set of a few dozen events, so nearly
//! every insert lands among the nearest events, and a short sorted vector
//! takes it with a binary search and a short memmove where a heap of the
//! whole pending set would sift through all of it. Two parts:
//!
//! 1. **bottom** — a `Vec` sorted *descending* by `(time, seq)`; `pop()`
//!    is `Vec::pop` from the back. It holds at most `BOTTOM_LIMIT` (256)
//!    events: an insert that finds it full first moves all but the
//!    nearest `REFILL` (64) of them onto the heap.
//! 2. **later** — a `BinaryHeap` of everything else (far-future faults,
//!    timeouts, the `Stop` sentinel, what bottom shed). When bottom
//!    drains, the heap's nearest `REFILL` events refill it.
//!
//! One invariant makes it a priority queue: `bot_end` is the earliest time
//! in `later` (`SimTime::MAX` when it is empty), and every event in bottom
//! precedes every event in `later` in `(time, seq)` order. An event before
//! `bot_end` is sorted into bottom; any other goes onto the heap, behind
//! everything queued at its time since its `seq` is the largest. The heap
//! pops in `(time, seq)` order too, so the total order is exactly
//! `(time, seq)` — what a plain `BinaryHeap` of the events would give —
//! and equal times at a boundary need no special case. Both parts keep
//! their storage, so a steady-state schedule/pop cycle allocates nothing.

use crate::ids::{
    ClientId, ControllerId, InstanceId, JobId, MachineId, RequestId, RequestTypeId, ThreadId,
};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Where a network packet is headed once processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketDest {
    /// Deliver the job to a microservice instance (enters its stage queues).
    Instance(InstanceId),
    /// Deliver a finished response back to the issuing client.
    Client(ClientId),
}

/// A unit of network traffic: one job moving between machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The job being carried.
    pub job: JobId,
    /// Destination endpoint.
    pub dest: PacketDest,
    /// True for same-machine (loopback) traffic, which bypasses the
    /// interrupt-processing cores.
    pub local: bool,
}

/// Payload of [`EventKind::RetryEmit`], boxed to keep the hot event
/// variants cache-dense (retries only fire under fault plans).
#[derive(Debug, Clone, PartialEq)]
pub struct RetrySpec {
    /// The retrying client.
    pub client: ClientId,
    /// Request type of the failed attempt.
    pub request_type: RequestTypeId,
    /// Retry generation of the new emission (1 = first retry).
    pub attempt: u32,
    /// Payload size carried over from the failed attempt.
    pub size_bytes: f64,
}

/// Payload of [`EventKind::NetRetransmit`], boxed to keep the hot event
/// variants cache-dense (retransmits only fire on faulted links).
#[derive(Debug, Clone, PartialEq)]
pub struct RetransmitSpec {
    /// The job to re-send.
    pub job: JobId,
    /// Sending instance (`None` for a client hop).
    pub from: Option<InstanceId>,
    /// Destination instance.
    pub dest: InstanceId,
}

/// All event kinds the simulator understands.
///
/// The hot variants (`NetDeliver*`, `StageDone`) are kept to a 12-byte
/// payload so [`ScheduledEvent`] stays compact; rare control-plane variants
/// box their payload. A compile-time test pins the size.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An open-loop client emits its next request.
    ClientArrival {
        /// The client that fires.
        client: ClientId,
    },
    /// A packet finished its wire flight and arrives directly at the
    /// destination instance (loopback traffic, or a machine without
    /// interrupt-processing cores).
    NetDeliver {
        /// The job being carried.
        job: JobId,
        /// The instance it enters.
        instance: InstanceId,
    },
    /// A packet finished its wire flight and arrives at the destination
    /// machine's network-processing service (cross-machine traffic on a
    /// machine with interrupt-processing cores).
    NetEnqueue {
        /// The job being carried.
        job: JobId,
        /// The instance it is ultimately headed for.
        instance: InstanceId,
    },
    /// An interrupt-handling core on `machine` finished processing a packet.
    NetDone {
        /// Machine whose network service completed work.
        machine: MachineId,
        /// Index into the network service's in-service slots.
        slot: u32,
    },
    /// A worker thread finished the service time of its current stage batch.
    StageDone {
        /// Instance owning the thread.
        instance: InstanceId,
        /// The thread that finished.
        thread: ThreadId,
    },
    /// A completed response reaches the client (records end-to-end latency).
    DeliverToClient {
        /// The finished request.
        request: RequestId,
    },
    /// A client-side timeout deadline for a request.
    RequestTimeout {
        /// The possibly-still-running request.
        request: RequestId,
    },
    /// A registered controller (e.g. the power manager) takes a decision.
    ControllerTick {
        /// Which controller.
        controller: ControllerId,
    },
    /// A telemetry sampling point. The one-shot form (`recurring: false`)
    /// only records the busy-counter baseline of the since-warm-up `*_utilization`
    /// queries (the builder schedules one at the warmup boundary); the
    /// recurring form is the periodic sampler tick that closes a latency
    /// window, snapshots the gauge series, and reschedules itself (see
    /// [`crate::telemetry`]).
    TelemetrySample {
        /// Whether this tick reschedules itself.
        recurring: bool,
    },
    /// A scheduled fault transition begins (instance crash, machine
    /// slowdown, network degradation, or pool leak). Only scheduled when a
    /// fault plan is installed (see [`crate::fault`]).
    FaultStart {
        /// Index into the installed fault plan's fault list.
        fault: u32,
    },
    /// A scheduled fault transition ends (restart / window close / restore).
    FaultEnd {
        /// Index into the installed fault plan's fault list.
        fault: u32,
    },
    /// A client retry attempt fires after its backoff delay (fault plans
    /// with a retry policy only). Re-emits a fresh request of the same type
    /// on the same client.
    RetryEmit(Box<RetrySpec>),
    /// A hedging deadline: if `request` is still unresolved, emit a
    /// duplicate attempt alongside it.
    HedgeFire {
        /// The possibly-still-running original.
        request: RequestId,
    },
    /// A dropped packet's bounded retransmission fires after backoff.
    NetRetransmit(Box<RetransmitSpec>),
    /// Stop the simulation when popped.
    Stop,
}

/// An event with its scheduled time and tie-breaking sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone insertion counter; breaks ties deterministically.
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl Eq for ScheduledEvent {}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, and the queue's overflow
        // heap (like the tests' reference heap) pops earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Events a refill moves from the heap into bottom, and events a split
/// leaves in bottom.
const REFILL: usize = 64;

/// The most events bottom holds: events scheduled below `bot_end` are
/// insertion-sorted into it however many there are, and a queue whose
/// first event is its latest leaves the heap empty (`bot_end` at
/// `SimTime::MAX`) while everything that follows is headed for bottom.
/// An insert that finds bottom at this size first moves all but its
/// nearest [`REFILL`] events onto the heap ([`EventQueue::split_bottom`]).
const BOTTOM_LIMIT: usize = 4 * REFILL;

/// The pending-event priority queue (a sorted bottom over a heap; see the
/// module docs for the structure and the ordering argument).
///
/// # Examples
///
/// ```
/// use uqsim_core::event::{EventKind, EventQueue};
/// use uqsim_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), EventKind::Stop);
/// q.schedule(SimTime::from_nanos(10), EventKind::Stop);
/// assert_eq!(q.pop().unwrap().time, SimTime::from_nanos(10));
/// ```
#[derive(Debug)]
pub struct EventQueue {
    /// Sorted descending by `(time, seq)`; `pop` takes from the back.
    bottom: Vec<ScheduledEvent>,
    /// The earliest time in `later`, or `SimTime::MAX` if it is empty:
    /// new events strictly below it are insertion-sorted into bottom.
    bot_end: SimTime,
    /// Every pending event not in bottom, all of them after bottom's.
    later: BinaryHeap<ScheduledEvent>,
    /// Next sequence number; doubles as the total-scheduled counter.
    seq: u64,
    /// The most events bottom has held at once.
    #[cfg(test)]
    bottom_peak: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            bottom: Vec::new(),
            bot_end: SimTime::MAX,
            later: BinaryHeap::new(),
            seq: 0,
            #[cfg(test)]
            bottom_peak: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time`. Events at equal times fire in the order
    /// they were scheduled.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        let ev = ScheduledEvent { time, seq, kind };
        if time < self.bot_end && self.bottom.len() >= BOTTOM_LIMIT {
            self.split_bottom();
        }
        if time < self.bot_end {
            // Descending order: equal-time events keep insertion order
            // because the new event (largest seq) goes in front of them.
            let pos = self.bottom.partition_point(|e| e.time > time);
            self.bottom.insert(pos, ev);
            #[cfg(test)]
            {
                self.bottom_peak = self.bottom_peak.max(self.bottom.len());
            }
        } else {
            self.later.push(ev);
        }
    }

    /// Moves all but the nearest [`REFILL`] events of a full bottom onto
    /// the heap, and lowers `bot_end` to the earliest of them: what stays
    /// in bottom still precedes everything on the heap.
    #[cold]
    fn split_bottom(&mut self) {
        let moved = self.bottom.len() - REFILL;
        self.bot_end = self.bottom[moved - 1].time;
        self.later.extend(self.bottom.drain(..moved));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `horizon`; later events stay queued.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent> {
        if self.bottom.is_empty() {
            self.refill();
        }
        if self.bottom.last()?.time > horizon {
            return None;
        }
        self.bottom.pop()
    }

    /// Moves the heap's nearest [`REFILL`] events into the empty bottom
    /// and sets `bot_end` to the earliest time left on the heap.
    #[cold]
    fn refill(&mut self) {
        debug_assert!(self.bottom.is_empty());
        let later = &mut self.later;
        self.bottom
            .extend(std::iter::from_fn(|| later.pop()).take(REFILL));
        self.bottom.reverse();
        self.bot_end = self.later.peek().map_or(SimTime::MAX, |e| e.time);
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.bottom
            .last()
            .or_else(|| self.later.peek())
            .map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bottom.len() + self.later.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (a simulator throughput statistic).
    /// Identical to the next sequence number, since every scheduled event
    /// consumes exactly one.
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stop_at(q: &mut EventQueue, ns: u64) {
        q.schedule(SimTime::from_nanos(ns), EventKind::Stop);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        stop_at(&mut q, 30);
        stop_at(&mut q, 10);
        stop_at(&mut q, 20);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(
            SimTime::from_nanos(5),
            EventKind::ClientArrival {
                client: ClientId::from_raw(0),
            },
        );
        q.schedule(
            SimTime::from_nanos(5),
            EventKind::ClientArrival {
                client: ClientId::from_raw(1),
            },
        );
        q.schedule(
            SimTime::from_nanos(5),
            EventKind::ClientArrival {
                client: ClientId::from_raw(2),
            },
        );
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::ClientArrival { client } => client.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        stop_at(&mut q, 42);
        stop_at(&mut q, 7);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.pop().unwrap().time.as_nanos(), 7);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// A queue whose bottom is empty and whose heap holds the events at
    /// `REFILL..=BOTTOM_LIMIT` ns: a split left the nearest `REFILL` of
    /// `0..=BOTTOM_LIMIT` in bottom, and they have been popped.
    fn overflowed() -> EventQueue {
        let mut q = EventQueue::new();
        for ns in 0..=BOTTOM_LIMIT as u64 {
            stop_at(&mut q, ns);
        }
        for _ in 0..REFILL {
            q.pop();
        }
        assert!(q.bottom.is_empty());
        q
    }

    #[test]
    fn peek_reaches_into_the_overflow() {
        let mut q = overflowed();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(REFILL as u64)));
        assert_eq!(q.pop().unwrap().time.as_nanos(), REFILL as u64);
    }

    #[test]
    fn bounded_pop_stops_at_the_horizon_and_reaches_into_the_overflow() {
        let mut q = overflowed();
        let (first, pending) = (REFILL as u64, BOTTOM_LIMIT + 1 - REFILL);
        // Bottom is empty: the bounded pop has to refill from the heap
        // before it can compare.
        assert!(q.pop_at_or_before(SimTime::from_nanos(first - 1)).is_none());
        assert_eq!(q.len(), pending, "a refused pop removes nothing");
        let ev = q.pop_at_or_before(SimTime::from_nanos(first)).unwrap();
        assert_eq!(ev.time.as_nanos(), first);
        assert!(q.pop_at_or_before(SimTime::from_nanos(first)).is_none());
        // An event at `SimTime::MAX` is never below `bot_end`, and pops last.
        q.schedule(SimTime::MAX, EventKind::Stop);
        let mut last = None;
        while let Some(ev) = q.pop_at_or_before(SimTime::MAX) {
            last = Some(ev.time);
        }
        assert_eq!(last, Some(SimTime::MAX));
        assert!(q.is_empty());
    }

    #[test]
    fn counts_scheduled_events() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            stop_at(&mut q, i);
        }
        q.pop();
        assert_eq!(q.scheduled_total(), 5);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn hot_variants_stay_compact() {
        // The whole point of boxing the rare variants: a scheduled event is
        // two cache lines' worth of bottom entries, not three.
        assert!(
            std::mem::size_of::<EventKind>() <= 16,
            "EventKind grew to {} bytes",
            std::mem::size_of::<EventKind>()
        );
        assert!(
            std::mem::size_of::<ScheduledEvent>() <= 32,
            "ScheduledEvent grew to {} bytes",
            std::mem::size_of::<ScheduledEvent>()
        );
    }

    // Property: for any interleaving of schedule times, pops are sorted by
    // (time, seq).
    #[test]
    fn pops_sorted_property() {
        use rand::Rng;
        let mut rng = crate::rng::RngFactory::new(3).stream("evq", 0);
        let mut q = EventQueue::new();
        for _ in 0..1000 {
            stop_at(&mut q, rng.gen_range(0..100));
        }
        let mut prev = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!((e.time, e.seq) >= prev, "out of order pop");
            prev = (e.time, e.seq);
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    /// The queue next to a min-ordered `BinaryHeap` of [`ScheduledEvent`]
    /// alone as the ordering oracle: both are given the same events, and
    /// every pop must agree.
    #[derive(Default)]
    struct Differential {
        queue: EventQueue,
        heap: BinaryHeap<ScheduledEvent>,
    }

    impl Differential {
        /// Schedules the same event in both (its `seq` tells it from the
        /// others at its time, so a swapped tie shows).
        fn schedule(&mut self, ns: u64) {
            let (time, kind) = (SimTime::from_nanos(ns), EventKind::Stop);
            let seq = self.queue.scheduled_total();
            self.queue.schedule(time, kind.clone());
            self.heap.push(ScheduledEvent { time, seq, kind });
            assert_eq!(self.queue.len(), self.heap.len());
        }

        /// Pops both; the time popped, or `None` once drained.
        fn pop(&mut self, what: &str) -> Option<u64> {
            let got = self.queue.pop();
            assert_eq!(got, self.heap.pop(), "{what}: diverged");
            assert_eq!(self.queue.len(), self.heap.len());
            got.map(|e| e.time.as_nanos())
        }

        fn drain(&mut self, what: &str) {
            while self.pop(what).is_some() {}
        }
    }

    // Differential property: the queue and the reference heap see
    // identical schedule/pop interleavings and must produce identical pop
    // sequences. Two regimes: *spread* — near-monotonic bursts on a coarse
    // grid, equal-time ties, and far-future outliers (faults/timeouts/
    // Stop), which sends many events to the heap and refills from it;
    // *bottom-heavy* — delays of a few ns and many exact ties, so nearly
    // every insert is sorted into bottom, which is where a run's go
    // (DESIGN.md §4.1).
    #[test]
    fn matches_reference_heap_on_random_interleavings() {
        use rand::Rng;
        for trial in 0..60u64 {
            let bottom_heavy = trial >= 40;
            let what = format!("trial {trial}");
            let mut rng = crate::rng::RngFactory::new(trial).stream("evq-diff", 0);
            let mut q = Differential::default();
            let mut now: u64 = 0;
            for _step in 0..2000 {
                let roll: f64 = rng.gen();
                if roll < 0.55 {
                    let delay = if bottom_heavy {
                        // A few ns, often zero: inside bottom's window.
                        rng.gen_range(0u64..6) * rng.gen_range(0u64..3)
                    } else {
                        // Near future, coarse grid to force time ties.
                        rng.gen_range(0u64..50) * 10
                    };
                    q.schedule(now + delay);
                } else if roll < 0.65 {
                    // Far-future outlier (timeout / fault / Stop territory);
                    // the bottom-heavy regime keeps it within a few buckets.
                    let far: u64 = if bottom_heavy { 20_000 } else { 2_000_000_000 };
                    q.schedule(now + rng.gen_range(far / 2..far));
                } else {
                    // Pop a burst, advancing "now" like the run loop does.
                    for _ in 0..rng.gen_range(1..8) {
                        if let Some(t) = q.pop(&what) {
                            assert!(t >= now, "time went backwards");
                            now = t;
                        }
                    }
                }
            }
            q.drain(&what);
        }
    }

    // The late-first-event trap: the first event scheduled is the latest,
    // so the heap is empty and everything that follows is headed for
    // bottom. Bottom must shed its far end onto the heap instead of
    // insertion-sorting 10^5 events (a count, not a clock: its high-water
    // mark stays at the limit), and the order must not notice.
    #[test]
    fn a_late_first_event_does_not_grow_bottom() {
        use rand::Rng;
        let mut rng = crate::rng::RngFactory::new(11).stream("evq-late", 0);
        let mut q = Differential::default();
        q.schedule(2_000_000_000);
        for i in 0..100_000u64 {
            // Mostly spread out; every tenth on a coarse grid, for ties.
            let t = rng.gen_range(0u64..1_000_000_000);
            q.schedule(if i % 10 == 0 {
                t / 1_000_000 * 1_000_000
            } else {
                t
            });
        }
        assert_eq!(q.queue.bottom_peak, BOTTOM_LIMIT);
        // Pops interleaved with near-future inserts, as a run would.
        for _ in 0..20_000 {
            let now = q.pop("late first").expect("events remain");
            q.schedule(now + rng.gen_range(0u64..5_000));
        }
        q.drain("late first");
        assert_eq!(q.queue.bottom_peak, BOTTOM_LIMIT);
    }

    // More events at one instant than bottom's limit split like any
    // others: a split goes by `(time, seq)`, not by time, so the nearest
    // stay in bottom and the rest wait on the heap in insertion order.
    #[test]
    fn an_oversized_bottom_at_one_instant_splits_like_any_other() {
        let mut q = Differential::default();
        q.schedule(500);
        for _ in 0..2 * BOTTOM_LIMIT {
            q.schedule(100);
        }
        assert!(q.queue.bottom_peak <= BOTTOM_LIMIT);
        q.drain("one instant");
    }

    // Ties across a boundary: 300 events at one instant (split once, then
    // refilled several times) with more at that instant and
    // before it scheduled between pops. A new event at exactly `bot_end`
    // must go behind everything queued at its time, in bottom and on the
    // heap alike; an event before it, ahead of all of them.
    #[test]
    fn ties_across_a_split_or_refill_keep_insertion_order() {
        let mut q = Differential::default();
        for _ in 0..300 {
            q.schedule(1_000);
        }
        assert!(!q.queue.later.is_empty(), "the pile split");
        for i in 0..600u64 {
            assert_eq!(q.pop("ties"), Some(1_000));
            q.schedule(1_000);
            if i % 7 == 0 {
                q.schedule(999);
                assert_eq!(q.pop("ties"), Some(999));
            }
        }
        assert!(q.queue.bottom_peak <= BOTTOM_LIMIT);
        q.drain("ties");
    }

    // A hundred events in a narrow window under a far one, and events just
    // past the window scheduled after a pop.
    #[test]
    fn a_refined_rung_ends_with_its_bucket() {
        let mut q = Differential::default();
        q.schedule(0);
        q.schedule(1);
        assert_eq!(q.pop("refine"), Some(0));
        q.schedule(256_000);
        for i in 0..100u64 {
            q.schedule(2 + i);
        }
        q.schedule(1_006);
        assert_eq!(q.pop("refine"), Some(1));
        q.schedule(1_010);
        q.schedule(1_001);
        q.drain("refine");
    }

    // Thousands of events packed under a span with a single far outlier.
    #[test]
    fn refines_dense_buckets_under_wide_spans() {
        use rand::Rng;
        let mut rng = crate::rng::RngFactory::new(7).stream("evq-dense", 0);
        let mut q = Differential::default();
        // One early event, popped after the outlier is in.
        q.schedule(0);
        q.schedule(2_000_000_000);
        assert_eq!(q.pop("dense"), Some(0));
        for _ in 0..5000 {
            q.schedule(rng.gen_range(1..1_000_000));
        }
        q.drain("dense");
    }

    // A 70-event pile at one instant between a near and a far event, then
    // an insert between the pile and the near one after a pop.
    #[test]
    fn refined_rung_overlap_ordering() {
        let mut q = Differential::default();
        q.schedule(5);
        assert_eq!(q.pop("overlap"), Some(5));
        for _ in 0..70 {
            q.schedule(1_000);
        }
        q.schedule(1_150);
        q.schedule(1_000 + 25_650);
        assert_eq!(q.pop("overlap"), Some(1_000));
        q.schedule(1_210);
        q.drain("overlap");
    }
}
