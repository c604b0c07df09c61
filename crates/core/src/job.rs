//! Live request/job state and recycling arenas.
//!
//! A **request** is one end-user operation traversing a request-type DAG. A
//! **job** is a request's visit to one path node (fan-out creates one job
//! per child). Both live in generation-checked arenas so that long
//! experiments (hundreds of millions of requests) run in bounded memory.

use crate::ids::{
    ClientId, ConnectionId, InstanceId, JobId, PathNodeId, RequestId, RequestTypeId, ThreadId,
};
use crate::time::SimTime;

/// Per-path-node bookkeeping within a live request.
#[derive(Debug, Clone, Default)]
pub struct NodeRuntime {
    /// Fan-in copies that have arrived so far.
    pub arrivals: u32,
    /// Connection that carried the request into this node (for replies).
    pub entry_conn: Option<ConnectionId>,
    /// Instance that executed the node.
    pub instance: Option<InstanceId>,
    /// Worker thread that executed the node.
    pub thread: Option<ThreadId>,
    /// When the (merged) job entered the node's instance.
    pub enter: Option<SimTime>,
}

/// A live request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request's id (slot + generation).
    pub id: RequestId,
    /// Its request type.
    pub ty: RequestTypeId,
    /// Issuing client.
    pub client: ClientId,
    /// The client connection carrying it (fixed at launch).
    pub client_conn: Option<ConnectionId>,
    /// When the client generated the request (latency is measured from
    /// here, including any wait for a free client connection — the
    /// open-loop, coordinated-omission-free convention of wrk2).
    pub submitted: SimTime,
    /// Payload size in bytes (drives byte-proportional stage costs and
    /// wire transmission time).
    pub size_bytes: f64,
    /// When the request was actually written to its client connection.
    pub launched: Option<SimTime>,
    /// Per-node runtime state, one entry per DAG node.
    pub nodes: Vec<NodeRuntime>,
    /// Outstanding job copies (leak detection).
    pub live_jobs: u32,
    /// Set when the client-side timeout fired before completion.
    pub timed_out: bool,
    /// Retry generation: 0 for an original emission, `n` for the n-th retry.
    pub attempt: u32,
    /// Set when a fault killed at least one of the request's jobs.
    pub failed: bool,
    /// Set once the client-sink fan-in fired (the response is on its way or
    /// already delivered); a failed request with a fired sink still counts
    /// as completed.
    pub sink_fired: bool,
    /// Set once the request reached a terminal outcome (completed, dropped,
    /// or shed). A resolved request with live straggler jobs stays in the
    /// arena until they drain.
    pub resolved: bool,
    /// Set when the client connection was already released early (at the
    /// timeout deadline), so late delivery must not release it again.
    pub conn_released: bool,
    /// Set when a quorum/best-effort fan-in node fired before every parent
    /// copy arrived (straggler jobs may outlive sink delivery).
    pub early_fire: bool,
    /// The hedged duplicate (or original) paired with this request, if any.
    pub hedge_twin: Option<RequestId>,
    /// Set when the hedge twin completed first; this completion is counted
    /// but not measured.
    pub superseded: bool,
    /// Latency-decomposition frontier: everything before `mark` has already
    /// been attributed to a component. Advanced by
    /// `charge_latency` in `sim.rs`; starts at `submitted`.
    pub mark: SimTime,
    /// Nanoseconds attributed to each [`crate::telemetry::LatencyComponent`]
    /// so far. Because every charge advances `mark` to "now", the entries
    /// telescope: on completion they sum exactly to `completed - submitted`.
    pub components_ns: [u64; crate::telemetry::LatencyComponent::COUNT],
    /// Critical-path segments, one per non-zero telescoping charge, in
    /// charge order. Only populated while the streaming critical-path mode
    /// ([`crate::telemetry::TelemetryConfig::critpath`]) is on; empty
    /// otherwise.
    pub crit: Vec<crate::critpath::CritSeg>,
}

/// A live job: one request visiting one path node.
#[derive(Debug, Clone)]
pub struct Job {
    /// The job's id (slot + generation).
    pub id: JobId,
    /// Owning request.
    pub request: RequestId,
    /// The path node being visited.
    pub node: PathNodeId,
    /// Connection the job is traveling / arrived on.
    pub conn: Option<ConnectionId>,
    /// Chosen intra-service execution path index.
    pub exec_path: usize,
    /// Position within the execution path's stage list.
    pub stage_cursor: usize,
    /// Instance executing this job (set on delivery).
    pub instance: Option<InstanceId>,
    /// Thread executing this job (set on dispatch routing).
    pub thread: Option<ThreadId>,
    /// When the job entered its current wait/service state: set on enqueue
    /// (read at dispatch for per-stage queue-wait telemetry) and on dispatch
    /// (read at `StageDone` for per-stage service-time telemetry).
    pub state_since: SimTime,
    /// Network retransmissions already spent on this hop (fault-injection
    /// runs only; bounded by the network resilience policy).
    pub net_attempts: u8,
}

/// A generation-checked recycling arena.
///
/// Slots are reused after [`Arena::free`]; stale ids (older generation) are
/// detected on access in debug builds and by [`Arena::get`] returning
/// `None`.
#[derive(Debug)]
pub struct Arena<T> {
    // Generation and value share a slot so a lookup touches one cache line,
    // not two parallel vectors.
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot, returning `(slot, generation)`.
    pub fn alloc_with(&mut self, make: impl FnOnce(u32, u32) -> T) -> (u32, u32) {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let generation = self.slots[slot as usize].generation;
            self.slots[slot as usize].value = Some(make(slot, generation));
            (slot, generation)
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                value: Some(make(slot, 0)),
            });
            (slot, 0)
        }
    }

    /// Returns the live value at `(slot, generation)`, or `None` if freed or
    /// recycled.
    #[inline]
    pub fn get(&self, slot: u32, generation: u32) -> Option<&T> {
        match self.slots.get(slot as usize) {
            Some(s) if s.generation == generation => s.value.as_ref(),
            _ => None,
        }
    }

    /// Mutable variant of [`Arena::get`].
    #[inline]
    pub fn get_mut(&mut self, slot: u32, generation: u32) -> Option<&mut T> {
        match self.slots.get_mut(slot as usize) {
            Some(s) if s.generation == generation => s.value.as_mut(),
            _ => None,
        }
    }

    /// Frees the slot, bumping its generation. Returns the value.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale or the slot already free.
    pub fn free(&mut self, slot: u32, generation: u32) -> T {
        let s = &mut self.slots[slot as usize];
        assert_eq!(s.generation, generation, "freeing with stale generation");
        let v = s.value.take().expect("double free");
        s.generation = generation.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        v
    }

    /// Number of live entries.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Request arena with typed ids.
///
/// Freed requests donate their `nodes` vector to a pool so steady-state
/// allocation reuses capacity instead of hitting the heap once per request.
#[derive(Debug, Default)]
pub struct RequestArena {
    arena: Arena<Request>,
    node_pool: Vec<Vec<NodeRuntime>>,
    crit_pool: Vec<Vec<crate::critpath::CritSeg>>,
}

impl RequestArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a request with `node_count` DAG nodes.
    pub fn alloc(
        &mut self,
        ty: RequestTypeId,
        client: ClientId,
        submitted: SimTime,
        node_count: usize,
    ) -> RequestId {
        let mut nodes = self.node_pool.pop().unwrap_or_default();
        nodes.clear();
        nodes.resize_with(node_count, NodeRuntime::default);
        let mut crit = self.crit_pool.pop().unwrap_or_default();
        crit.clear();
        let (slot, generation) = self.arena.alloc_with(|slot, generation| Request {
            id: RequestId::new(slot, generation),
            ty,
            client,
            client_conn: None,
            submitted,
            size_bytes: 0.0,
            launched: None,
            nodes,
            live_jobs: 0,
            timed_out: false,
            attempt: 0,
            failed: false,
            sink_fired: false,
            resolved: false,
            conn_released: false,
            early_fire: false,
            hedge_twin: None,
            superseded: false,
            mark: submitted,
            components_ns: [0; crate::telemetry::LatencyComponent::COUNT],
            crit,
        });
        RequestId::new(slot, generation)
    }

    /// Returns the request, or `None` if completed/recycled.
    pub fn get(&self, id: RequestId) -> Option<&Request> {
        self.arena.get(id.slot, id.generation)
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut Request> {
        self.arena.get_mut(id.slot, id.generation)
    }

    /// Frees a completed request, reclaiming its node and critical-path
    /// segment vectors for reuse.
    ///
    /// # Panics
    ///
    /// Panics on stale ids or double free.
    pub fn free(&mut self, id: RequestId) -> Request {
        let mut req = self.arena.free(id.slot, id.generation);
        let mut nodes = std::mem::take(&mut req.nodes);
        nodes.clear();
        self.node_pool.push(nodes);
        let mut crit = std::mem::take(&mut req.crit);
        crit.clear();
        self.crit_pool.push(crit);
        req
    }

    /// Live request count.
    pub fn live(&self) -> usize {
        self.arena.live()
    }
}

/// Job arena with typed ids.
#[derive(Debug, Default)]
pub struct JobArena(Arena<Job>);

impl JobArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a job for `request` visiting `node`.
    pub fn alloc(&mut self, request: RequestId, node: PathNodeId) -> JobId {
        let (slot, generation) = self.0.alloc_with(|slot, generation| Job {
            id: JobId::new(slot, generation),
            request,
            node,
            conn: None,
            exec_path: 0,
            stage_cursor: 0,
            instance: None,
            thread: None,
            state_since: SimTime::ZERO,
            net_attempts: 0,
        });
        JobId::new(slot, generation)
    }

    /// Returns the job, or `None` if freed/recycled.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.0.get(id.slot, id.generation)
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.0.get_mut(id.slot, id.generation)
    }

    /// Frees a finished job.
    ///
    /// # Panics
    ///
    /// Panics on stale ids or double free.
    pub fn free(&mut self, id: JobId) -> Job {
        self.0.free(id.slot, id.generation)
    }

    /// Live job count.
    pub fn live(&self) -> usize {
        self.0.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_alloc_get_free() {
        let mut a: Arena<u32> = Arena::new();
        let (s, g) = a.alloc_with(|_, _| 42);
        assert_eq!(a.get(s, g), Some(&42));
        assert_eq!(a.live(), 1);
        assert_eq!(a.free(s, g), 42);
        assert_eq!(a.live(), 0);
        assert_eq!(a.get(s, g), None, "freed slot is unreachable via old id");
    }

    #[test]
    fn arena_recycles_with_new_generation() {
        let mut a: Arena<u32> = Arena::new();
        let (s0, g0) = a.alloc_with(|_, _| 1);
        a.free(s0, g0);
        let (s1, g1) = a.alloc_with(|_, _| 2);
        assert_eq!(s1, s0, "slot reused");
        assert_ne!(g1, g0, "generation bumped");
        assert_eq!(a.get(s0, g0), None);
        assert_eq!(a.get(s1, g1), Some(&2));
        assert_eq!(a.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn arena_double_free_panics() {
        let mut a: Arena<u32> = Arena::new();
        let (s, g) = a.alloc_with(|_, _| 1);
        a.free(s, g);
        a.free(s, g);
    }

    #[test]
    fn request_arena_typed_ids() {
        let mut reqs = RequestArena::new();
        let id = reqs.alloc(
            RequestTypeId::from_raw(0),
            ClientId::from_raw(1),
            SimTime::from_nanos(5),
            3,
        );
        let r = reqs.get(id).unwrap();
        assert_eq!(r.nodes.len(), 3);
        assert_eq!(r.submitted.as_nanos(), 5);
        assert_eq!(r.id, id);
        reqs.free(id);
        assert!(reqs.get(id).is_none());
    }

    #[test]
    fn job_arena_typed_ids() {
        let mut reqs = RequestArena::new();
        let rid = reqs.alloc(
            RequestTypeId::from_raw(0),
            ClientId::from_raw(0),
            SimTime::ZERO,
            1,
        );
        let mut jobs = JobArena::new();
        let jid = jobs.alloc(rid, PathNodeId::from_raw(0));
        assert_eq!(jobs.get(jid).unwrap().request, rid);
        assert_eq!(jobs.live(), 1);
        jobs.free(jid);
        assert_eq!(jobs.live(), 0);
    }

    #[test]
    fn many_alloc_free_cycles_bound_capacity() {
        let mut jobs = JobArena::new();
        let mut reqs = RequestArena::new();
        let rid = reqs.alloc(
            RequestTypeId::from_raw(0),
            ClientId::from_raw(0),
            SimTime::ZERO,
            1,
        );
        for _ in 0..10_000 {
            let a = jobs.alloc(rid, PathNodeId::from_raw(0));
            let b = jobs.alloc(rid, PathNodeId::from_raw(0));
            jobs.free(a);
            jobs.free(b);
        }
        assert!(
            jobs.0.capacity() <= 2,
            "capacity grew: {}",
            jobs.0.capacity()
        );
    }
}
