//! The discrete-event core: event kinds, deterministic ordering, and the
//! pending-event queue.
//!
//! Every state change in the simulator is driven by popping the earliest
//! event from a priority queue (Fig. 2 of the paper). Ties in time are broken
//! by a monotonically increasing sequence number, which makes runs with the
//! same seed bit-for-bit reproducible.
//!
//! # The ladder queue
//!
//! [`EventQueue`] is a calendar/ladder queue (Tang et al.) rather than a
//! binary heap: queueing simulations schedule near-monotonic timestamps, so
//! almost every operation is an O(1) bucket push or a `Vec::pop`, versus the
//! O(log n) sift (and its cache misses) a heap pays per event. The structure
//! has three tiers, earliest first:
//!
//! 1. **bottom** — a small `Vec` sorted *descending* by `(time, seq)`;
//!    `pop()` is `Vec::pop` from the back. New events that land inside
//!    bottom's time window are insertion-sorted (binary search + short
//!    memmove — bottom stays small by construction).
//! 2. **rungs** — a stack of bucket arrays. Each rung splits a time span
//!    into `RUNG_BUCKETS` fixed-width buckets; scheduling into a rung is
//!    an O(1) push into `bucket[(t - start) / width]`. When bottom drains,
//!    the next non-empty bucket of the finest rung is sorted and becomes
//!    the new bottom. A bucket holding more than `REFINE_LIMIT` events is
//!    not sorted wholesale: it is re-split into a finer rung (width divided
//!    by the bucket count), which keeps bottom — and therefore the cost of
//!    insertion-sorting into it — bounded regardless of how many events
//!    share a window.
//! 3. **top** — an unsorted overflow `Vec` for events beyond every rung
//!    (far-future faults, timeouts, the `Stop` sentinel). When the rest of
//!    the structure drains, top is re-bucketed into a fresh rung whose
//!    width adapts to the observed `[min, max]` span.
//!
//! The total order is exactly `(time, seq)` — identical to the old
//! `BinaryHeap` ordering — so replacing the container cannot move goldens:
//! routing between tiers looks only at `time`, every tier orders equal
//! times by `seq`, and the tier boundaries (`bot_end`, rung frontiers) are
//! maintained so that every event in an earlier tier precedes every event
//! in a later one. Bucket storage is recycled through spare pools, so a
//! steady-state schedule/pop cycle performs no heap allocation.

use crate::ids::{
    ClientId, ControllerId, CoreId, InstanceId, JobId, MachineId, RequestId, RequestTypeId,
    ThreadId,
};
use crate::time::SimTime;
use std::cmp::Ordering;

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

/// Payload of [`EventKind::DvfsSet`], boxed to keep the hot event variants
/// cache-dense (frequency changes are rare control-plane events).
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsChange {
    /// Target machine.
    pub machine: MachineId,
    /// Target core; `None` applies to every core of the machine.
    pub core: Option<CoreId>,
    /// New frequency in GHz (snapped to the machine's allowed levels).
    pub freq_ghz: f64,
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
    /// Set the DVFS frequency of one core or a whole machine.
    DvfsSet(Box<DvfsChange>),
    /// A registered controller (e.g. the power manager) takes a decision.
    ControllerTick {
        /// Which controller.
        controller: ControllerId,
    },
    /// A telemetry sampling point. The one-shot form (`recurring: false`)
    /// only records a utilization checkpoint (the builder schedules one at
    /// the warmup boundary); the recurring form is the periodic sampler
    /// tick that closes a latency window, snapshots the gauge series, and
    /// reschedules itself (see [`crate::telemetry`]).
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
        // Reversed: `BinaryHeap` is a max-heap; the reference-queue tests
        // (and any heap-based consumer) want earliest first.
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

/// Buckets per rung. A power of two keeps the index math cheap; 256 gives
/// each refinement step a 256x width reduction, so even a nanosecond-dense
/// cluster under a multi-second span is fully refined in a few steps.
const RUNG_BUCKETS: usize = 256;

/// A bucket moved into bottom with more events than this is re-split into
/// a finer rung instead of sorted, bounding the size of bottom and hence
/// the memmove cost of insertion-sorting into it.
const REFINE_LIMIT: usize = 64;

/// Bottom may outgrow what a refill gives it: events scheduled below
/// `bot_end` are insertion-sorted into it however many there are, and a
/// queue whose first event is its latest puts `bot_end` past everything
/// that follows. An insert that finds bottom at this size first moves
/// all but its nearest [`REFINE_LIMIT`] events up into a rung
/// ([`EventQueue::split_bottom`]).
const BOTTOM_LIMIT: usize = 4 * REFINE_LIMIT;

/// One rung of the ladder: a fixed span split into equal-width buckets.
/// Buckets `[cur..]` are still pending; earlier ones have been drained.
#[derive(Debug)]
struct Rung {
    /// Time (ns) of the start of bucket 0.
    start: u64,
    /// Bucket width in ns (>= 1).
    width: u64,
    /// Exclusive end of the rung's span: never past the span the rung
    /// was made for, though the buckets' widths may add up to more.
    end: u64,
    /// Next bucket to drain.
    cur: usize,
    buckets: Vec<Vec<ScheduledEvent>>,
}

/// The pending-event priority queue (a ladder queue; see the module docs
/// for the structure and the ordering argument).
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
    /// Exclusive upper bound (ns) of bottom's time window: new events
    /// strictly below it are insertion-sorted into bottom.
    bot_end: u64,
    /// Coarsest rung first; `rungs.last()` is the finest (earliest) span.
    rungs: Vec<Rung>,
    /// Unsorted far-future overflow (beyond every rung).
    top: Vec<ScheduledEvent>,
    top_min: u64,
    top_max: u64,
    len: usize,
    /// Next sequence number; doubles as the total-scheduled counter.
    seq: u64,
    /// Recycled bucket storage, so steady state allocates nothing.
    spare_buckets: Vec<Vec<ScheduledEvent>>,
    /// Recycled rung bucket arrays.
    spare_rungs: Vec<Vec<Vec<ScheduledEvent>>>,
    /// The most events bottom has held at once.
    #[cfg(test)]
    bottom_peak: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            bottom: Vec::new(),
            bot_end: 0,
            rungs: Vec::new(),
            top: Vec::new(),
            top_min: u64::MAX,
            top_max: 0,
            len: 0,
            seq: 0,
            spare_buckets: Vec::new(),
            spare_rungs: Vec::new(),
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
        self.len += 1;
        let ev = ScheduledEvent { time, seq, kind };
        let t = time.as_nanos();
        if self.len == 1 {
            // Empty-queue fast path: the event can only go to bottom.
            // `bot_end` may only grow — the (event-empty) rungs above it
            // keep their frontiers, and routing below a frontier would
            // strand events in already-drained buckets.
            if t >= self.bot_end {
                self.bot_end = t.saturating_add(1);
            }
            self.bottom.push(ev);
            return;
        }
        if t < self.bot_end && self.bottom.len() >= BOTTOM_LIMIT {
            self.split_bottom();
        }
        if t < self.bot_end {
            // Descending order: equal-time events keep insertion order
            // because the new event (largest seq) goes in front of them.
            let pos = self.bottom.partition_point(|e| e.time > time);
            self.bottom.insert(pos, ev);
            #[cfg(test)]
            {
                self.bottom_peak = self.bottom_peak.max(self.bottom.len());
            }
            return;
        }
        for r in self.rungs.iter_mut().rev() {
            if t < r.end {
                let idx = ((t - r.start) / r.width) as usize;
                debug_assert!(
                    idx >= r.cur && idx < RUNG_BUCKETS,
                    "bucket routing invariant"
                );
                r.buckets[idx].push(ev);
                return;
            }
        }
        self.top_min = self.top_min.min(t);
        self.top_max = self.top_max.max(t);
        self.top.push(ev);
    }

    /// Moves the far end of an oversized bottom — every event from the
    /// time of its [`REFINE_LIMIT`]-th nearest on — into a fresh finest
    /// rung over `[that time, bot_end)`, and lowers `bot_end` to it: what
    /// stays in bottom still precedes everything above it. Bottom stays as
    /// it is if that would empty it (so many events at one instant cannot
    /// be told apart by time, and would only come back on the next refill).
    #[cold]
    fn split_bottom(&mut self) {
        let split = self.bottom[self.bottom.len() - REFINE_LIMIT - 1].time;
        let moved = self.bottom.partition_point(|e| e.time >= split);
        if moved == self.bottom.len() {
            return;
        }
        let start = split.as_nanos();
        let width = (self.bot_end - start).div_ceil(RUNG_BUCKETS as u64);
        let mut rung = self.new_rung(start, width, self.bot_end);
        for ev in self.bottom.drain(..moved) {
            let idx = ((ev.time.as_nanos() - start) / width) as usize;
            rung.buckets[idx].push(ev);
        }
        self.bot_end = start;
        self.rungs.push(rung);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.bottom.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        let ev = self.bottom.pop()?;
        self.len -= 1;
        Some(ev)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `horizon`; later events stay queued. Goes through the same refill
    /// path as [`EventQueue::pop`], so a bounded drain costs what an
    /// unbounded one does.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent> {
        if self.bottom.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        if self.bottom.last()?.time > horizon {
            return None;
        }
        self.len -= 1;
        self.bottom.pop()
    }

    /// Refills bottom from the finest rung (refining oversized buckets),
    /// anchoring a fresh rung from top when the ladder is empty. On return
    /// bottom is non-empty (callers check `len > 0` first).
    #[cold]
    fn refill(&mut self) {
        debug_assert!(self.bottom.is_empty());
        loop {
            let Some(r) = self.rungs.last_mut() else {
                // Ladder empty: re-bucket top into a rung sized to the
                // observed span. `top_min >= bot_end` because everything
                // routed to top was at/above every boundary below it.
                debug_assert!(!self.top.is_empty(), "refill called on drained queue");
                let start = self.top_min;
                let width = (self.top_max - self.top_min) / RUNG_BUCKETS as u64 + 1;
                let mut rung = self.new_rung(start, width, u64::MAX);
                for ev in self.top.drain(..) {
                    let idx = ((ev.time.as_nanos() - start) / width) as usize;
                    rung.buckets[idx].push(ev);
                }
                self.top_min = u64::MAX;
                self.top_max = 0;
                self.bot_end = start;
                self.rungs.push(rung);
                continue;
            };
            while r.cur < RUNG_BUCKETS && r.buckets[r.cur].is_empty() {
                r.cur += 1;
            }
            if r.cur == RUNG_BUCKETS {
                let dead = self.rungs.pop().expect("rung exists");
                self.spare_rungs.push(dead.buckets);
                continue;
            }
            let bucket_start = r.start + r.cur as u64 * r.width;
            // The last bucket may reach past the rung's span; its events
            // do not, and neither may what is built from it.
            let bucket_end = bucket_start.saturating_add(r.width).min(r.end);
            let spare = self.spare_buckets.pop().unwrap_or_default();
            let mut b = std::mem::replace(&mut r.buckets[r.cur], spare);
            r.cur += 1;
            let width = r.width;
            if b.len() > REFINE_LIMIT && width > 1 {
                // Too dense to sort into bottom: split this bucket into a
                // finer rung (its frontier equals `bot_end`, so routing
                // stays consistent).
                let fine = width.div_ceil(RUNG_BUCKETS as u64);
                let mut rung = self.new_rung(bucket_start, fine, bucket_end);
                for ev in b.drain(..) {
                    let idx = (((ev.time.as_nanos() - bucket_start) / fine) as usize)
                        .min(RUNG_BUCKETS - 1);
                    rung.buckets[idx].push(ev);
                }
                self.spare_buckets.push(b);
                self.rungs.push(rung);
                continue;
            }
            // Bottom keeps its own storage, grown once to the most it has
            // held: nearly every event a run schedules is inserted here,
            // and taking over the bucket's few slots instead would have
            // it regrow from them after every refill.
            self.bottom.append(&mut b);
            self.bottom
                .sort_unstable_by(|a, z| z.time.cmp(&a.time).then_with(|| z.seq.cmp(&a.seq)));
            self.spare_buckets.push(b);
            self.bot_end = bucket_end;
            return;
        }
    }

    /// An empty rung of `width`-wide buckets from `start`, for events
    /// before `end`: a rung made from part of another tier must not
    /// accept what belongs to the rest of that tier.
    fn new_rung(&mut self, start: u64, width: u64, end: u64) -> Rung {
        let buckets = self
            .spare_rungs
            .pop()
            .unwrap_or_else(|| (0..RUNG_BUCKETS).map(|_| Vec::new()).collect());
        debug_assert!(buckets.iter().all(Vec::is_empty));
        Rung {
            start,
            width,
            end: end.min(start.saturating_add(width.saturating_mul(RUNG_BUCKETS as u64))),
            cur: 0,
            buckets,
        }
    }

    /// Time of the earliest pending event. Scans the whole structure when
    /// bottom is empty — a cold diagnostic accessor, not a hot-path one.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.bottom.last() {
            return Some(e.time);
        }
        let mut best: Option<SimTime> = None;
        let events = self
            .rungs
            .iter()
            .flat_map(|r| r.buckets[r.cur..].iter().flatten())
            .chain(self.top.iter());
        for e in events {
            best = Some(match best {
                Some(b) if b <= e.time => b,
                _ => e.time,
            });
        }
        best
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    use std::collections::BinaryHeap;

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

    #[test]
    fn peek_reaches_into_rungs_and_top() {
        let mut q = EventQueue::new();
        // Drain once so later schedules route into rungs/top rather than
        // the bottom fast path.
        stop_at(&mut q, 5);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 5);
        stop_at(&mut q, 1_000_000);
        stop_at(&mut q, 2_000_000_000);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_000_000)));
    }

    #[test]
    fn bounded_pop_stops_at_the_horizon_and_reaches_into_rungs() {
        let mut q = EventQueue::new();
        stop_at(&mut q, 5);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 5);
        // Bottom is empty now: both events route into top, so the bounded
        // pop has to refill before it can compare.
        stop_at(&mut q, 1_000_000);
        stop_at(&mut q, 2_000_000_000);
        assert!(q.pop_at_or_before(SimTime::from_nanos(999_999)).is_none());
        assert_eq!(q.len(), 2, "a refused pop removes nothing");
        let ev = q.pop_at_or_before(SimTime::from_nanos(1_000_000)).unwrap();
        assert_eq!(ev.time.as_nanos(), 1_000_000);
        assert!(q.pop_at_or_before(SimTime::from_nanos(1_000_000)).is_none());
        assert_eq!(q.pop().unwrap().time.as_nanos(), 2_000_000_000);
        assert!(q.pop_at_or_before(SimTime::MAX).is_none());
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

    /// The ladder queue next to a min-ordered `BinaryHeap` of
    /// [`ScheduledEvent`] — the exact structure it replaced — as the
    /// ordering oracle: both are given the same events, and every pop must
    /// agree.
    #[derive(Default)]
    struct Differential {
        ladder: EventQueue,
        heap: BinaryHeap<ScheduledEvent>,
    }

    impl Differential {
        /// Schedules the same event in both (its `seq` tells it from the
        /// others at its time, so a swapped tie shows).
        fn schedule(&mut self, ns: u64) {
            let (time, kind) = (SimTime::from_nanos(ns), EventKind::Stop);
            let seq = self.ladder.scheduled_total();
            self.ladder.schedule(time, kind.clone());
            self.heap.push(ScheduledEvent { time, seq, kind });
            assert_eq!(self.ladder.len(), self.heap.len());
        }

        /// Pops both; the time popped, or `None` once drained.
        fn pop(&mut self, what: &str) -> Option<u64> {
            let got = self.ladder.pop();
            assert_eq!(got, self.heap.pop(), "{what}: diverged");
            assert_eq!(self.ladder.len(), self.heap.len());
            got.map(|e| e.time.as_nanos())
        }

        fn drain(&mut self, what: &str) {
            while self.pop(what).is_some() {}
        }
    }

    // Differential property: the ladder queue and the reference heap see
    // identical schedule/pop interleavings and must produce identical pop
    // sequences. Two regimes: *spread* — near-monotonic bursts on a coarse
    // grid, equal-time ties, and far-future outliers (faults/timeouts/
    // Stop), which exercises buckets, rungs and top; *bottom-heavy* —
    // delays shorter than a bucket is wide and many exact ties, so nearly
    // every insert is sorted into bottom, which is where a run's go
    // (all but 0.2 % of them on `gen_dsb`, DESIGN.md §8).
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
    // so `bot_end` lies past everything that follows and all of it is
    // headed for bottom. Bottom must shed its far end into rungs instead
    // of insertion-sorting 10^5 events (a count, not a clock: its
    // high-water mark stays at the limit), and the order must not notice.
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
        assert_eq!(q.ladder.bottom_peak, BOTTOM_LIMIT);
        // Pops interleaved with near-future inserts, as a run would.
        for _ in 0..20_000 {
            let now = q.pop("late first").expect("events remain");
            q.schedule(now + rng.gen_range(0u64..5_000));
        }
        q.drain("late first");
        assert_eq!(q.ladder.bottom_peak, BOTTOM_LIMIT);
    }

    // More events at one instant than bottom's limit cannot be split by
    // time: bottom keeps them (and keeps taking inserts) rather than
    // bouncing them through a rung on every insert.
    #[test]
    fn an_oversized_bottom_at_one_instant_is_left_alone() {
        let mut q = Differential::default();
        q.schedule(500);
        for _ in 0..2 * BOTTOM_LIMIT {
            q.schedule(100);
        }
        assert!(q.ladder.rungs.is_empty());
        assert_eq!(q.ladder.bottom.len(), 2 * BOTTOM_LIMIT + 1);
        q.drain("one instant");
    }

    // A rung refined from one bucket ends where that bucket ends, even
    // when 256 of its finer buckets add up to more (1000 ns → 256 × 4 ns):
    // an event in the overhang belongs to the *next* coarse bucket, behind
    // whatever that bucket already holds.
    #[test]
    fn a_refined_rung_ends_with_its_bucket() {
        let mut q = Differential::default();
        q.schedule(0);
        q.schedule(1);
        assert_eq!(q.pop("refine"), Some(0));
        // Top spans [1, 256_000]: anchored as 256 buckets of 1000 ns.
        q.schedule(256_000);
        for i in 0..100u64 {
            q.schedule(2 + i); // over REFINE_LIMIT events in bucket 0
        }
        q.schedule(1_006); // bucket 1
        assert_eq!(q.pop("refine"), Some(1)); // bucket 0 → rung of 4 ns buckets
        assert_eq!(q.ladder.rungs.len(), 2);
        assert_eq!(q.ladder.rungs[1].end, 1_001);
        q.schedule(1_010); // past bucket 0's end, within 256 × 4 ns of its start
        q.schedule(1_001);
        q.drain("refine");
    }

    // The refinement path: thousands of events packed under a span with a
    // single far outlier forces wide buckets that must re-split.
    #[test]
    fn refines_dense_buckets_under_wide_spans() {
        use rand::Rng;
        let mut rng = crate::rng::RngFactory::new(7).stream("evq-dense", 0);
        let mut q = Differential::default();
        // One early event, popped after the outlier is in, so that the
        // outlier lands in top and the anchored rung spans ~2s.
        q.schedule(0);
        q.schedule(2_000_000_000);
        assert_eq!(q.pop("dense"), Some(0));
        for _ in 0..5000 {
            q.schedule(rng.gen_range(1..1_000_000));
        }
        q.drain("dense");
    }
}
