//! Per-request span tracing and trace-driven invariant auditing.
//!
//! When enabled with [`Simulator::enable_span_tracing`](crate::Simulator::enable_span_tracing),
//! the simulator appends one [`TraceEvent`] to an in-memory [`TraceLog`] at
//! every interesting point of a request's life: client emission and launch,
//! network (soft-irq) processing, stage enqueue and batch service,
//! connection-pool acquire/block/grant/release, fan-in synchronization,
//! node completion, and end-to-end completion or timeout. Tracing is
//! strictly opt-in — when disabled (the default) every hot-path hook is a
//! single branch on a `None`, so the simulator's speed is unaffected.
//!
//! Three views are built on the log:
//!
//! * [`chrome_trace`] renders the log as Chrome `trace_event` JSON —
//!   machines become processes, cores become threads, batch services and
//!   irq processing become complete (`"ph": "X"`) spans, and requests
//!   become async (`"b"`/`"e"`) spans — viewable directly in
//!   `about:tracing` or [Perfetto](https://ui.perfetto.dev).
//! * [`sampled_traces`] filters it down to every N-th completed request as
//!   a distributed-tracing-style [`RequestTrace`] — one span per path node
//!   — which `uqsim trace <path>` prints as JSON lines.
//! * [`TraceAuditor`] replays the log against the simulator's conservation
//!   laws (every emitted request is completed or still in flight), span
//!   causality (enqueue ≤ start ≤ end, spans inside the request's
//!   lifetime, fan-in fires only after all parents arrived), per-core and
//!   per-thread non-overlap (a core services at most one batch at a time),
//!   connection-pool discipline (no double acquire/release), warmup
//!   accounting (measured completions match the latency recorder), and
//!   retirement (a request's slot is released once, at or after its
//!   terminal outcome, and no event names the request afterwards — which
//!   is what lets the audit forget it there, see [`AuditFold`]).
//!
//! Events are fixed-size `Copy` records with no heap payload: a
//! [`TraceEvent::BatchStart`] names its jobs through a [`BatchJobs`] handle
//! into the side arena of the [`SpanChunk`] that holds the event
//! ([`SpanChunk::batch_jobs`]). A retained log is one chunk that keeps
//! growing; a *streamed* log ([`TraceLog::streaming`]) hands each full
//! chunk to a consumer thread and reuses it once the consumer is done, so
//! its memory does not grow with the run. Every consumer is one forward
//! scan: the three views above read a retained log, and the two checks —
//! [`AuditFold`] and [`ReplayFold`](crate::critpath::ReplayFold) — are
//! incremental folds fed chunk by chunk, with [`TraceAuditor::audit`] and
//! [`CpcProfile::from_trace`](crate::critpath::CpcProfile::from_trace) the
//! "feed the one chunk, finish" case of the same code.
//!
//! # Example
//!
//! ```
//! # use uqsim_core::config::ScenarioConfig;
//! # use uqsim_core::time::SimDuration;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
//! let mut sim = cfg.into_simulator()?;
//! sim.enable_span_tracing(100_000);
//! sim.run_for(SimDuration::from_secs(2));
//!
//! // Invariant audit: zero violations on a healthy run.
//! let report = sim.audit_trace().expect("tracing is enabled");
//! assert!(report.is_clean(), "{:?}", report.violations);
//!
//! // Chrome trace_event JSON for about:tracing / Perfetto, streamed out an
//! // event at a time into any `io::Write`, through one 64 KiB buffer.
//! let chrome = sim.chrome_trace().expect("tracing is enabled");
//! let mut json = Vec::new();
//! serde_json::to_writer_pretty(&mut json, &chrome)?;
//! assert!(json.len() > 1_000);
//! # Ok(())
//! # }
//! ```

use crate::config::Name;
use crate::ids::{
    ClientId, ConnectionId, InstanceId, JobId, MachineId, PathNodeId, PoolId, RequestId,
    RequestTypeId, StageId, ThreadId,
};
use crate::slot_table::SlotTable;
use crate::time::SimTime;
use serde::{Serialize, Sink};
use std::borrow::Cow;
use std::fmt;
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One recorded event in a [`TraceLog`]. Events appear in execution order;
/// events with equal timestamps keep the order the simulator produced them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A client generated a new request.
    RequestEmitted {
        /// The request.
        request: RequestId,
        /// Its request type.
        request_type: RequestTypeId,
        /// The issuing client.
        client: ClientId,
        /// Emission time.
        t: SimTime,
    },
    /// The request was written onto a free client connection (this can be
    /// later than emission when the connection was busy).
    RequestLaunched {
        /// The request.
        request: RequestId,
        /// The client connection carrying it.
        conn: ConnectionId,
        /// Launch time.
        t: SimTime,
    },
    /// An irq core processed one inbound packet (§III-A network model).
    NetRx {
        /// The receiving machine.
        machine: MachineId,
        /// Machine-local irq core index.
        core: u32,
        /// The job carried by the packet.
        job: JobId,
        /// Processing start.
        start: SimTime,
        /// Processing end.
        end: SimTime,
    },
    /// A job entered a stage queue.
    Enqueue {
        /// The job.
        job: JobId,
        /// Its owning request.
        request: RequestId,
        /// The path node the job is visiting.
        node: PathNodeId,
        /// The instance whose queue it entered.
        instance: InstanceId,
        /// The stage queue.
        stage: StageId,
        /// Enqueue time.
        t: SimTime,
    },
    /// A worker thread started servicing a batch through one stage.
    BatchStart {
        /// The instance.
        instance: InstanceId,
        /// The machine hosting it.
        machine: MachineId,
        /// The stage being serviced.
        stage: StageId,
        /// The worker thread.
        thread: ThreadId,
        /// Machine-local core index the batch runs on.
        core: u32,
        /// Core frequency during service, GHz.
        freq_ghz: f64,
        /// Service start (includes any context-switch penalty).
        start: SimTime,
        /// Service end.
        end: SimTime,
        /// The batched jobs, in batch order
        /// ([`SpanChunk::batch_jobs`] resolves the handle).
        jobs: BatchJobs,
    },
    /// A job acquired a pooled connection.
    PoolAcquire {
        /// The pool.
        pool: PoolId,
        /// The acquired connection.
        conn: ConnectionId,
        /// The acquiring job.
        job: JobId,
        /// Acquire time.
        t: SimTime,
    },
    /// A job found the pool exhausted and joined its wait queue.
    PoolBlock {
        /// The pool.
        pool: PoolId,
        /// The blocked job.
        job: JobId,
        /// Block time.
        t: SimTime,
    },
    /// A released connection was handed directly to a waiting job.
    PoolGrant {
        /// The pool.
        pool: PoolId,
        /// The handed-over connection.
        conn: ConnectionId,
        /// The job that had been waiting.
        job: JobId,
        /// The waiting job's owning request.
        request: RequestId,
        /// Grant time.
        t: SimTime,
    },
    /// A pooled connection was released (its reply was delivered).
    PoolRelease {
        /// The pool.
        pool: PoolId,
        /// The released connection.
        conn: ConnectionId,
        /// Release time.
        t: SimTime,
    },
    /// A fan-in copy arrived at a join node (only recorded for nodes with
    /// more than one parent).
    FanIn {
        /// The request.
        request: RequestId,
        /// The join node.
        node: PathNodeId,
        /// The instance the copy arrived at, or `None` when the join is the
        /// client sink (the response leaves the service mesh there).
        instance: Option<InstanceId>,
        /// Copies arrived so far, including this one.
        arrivals: u32,
        /// Parents the node waits for.
        fan_in: u32,
        /// Arrivals needed to fire — equals `fan_in` under the default
        /// `all` policy, fewer under `quorum(k)` / `best_effort`.
        required: u32,
        /// True when this arrival reached `required` and the node fired.
        fired: bool,
        /// Arrival time.
        t: SimTime,
    },
    /// A job finished the last stage of its path node.
    NodeDone {
        /// The request.
        request: RequestId,
        /// The finishing job.
        job: JobId,
        /// The completed node.
        node: PathNodeId,
        /// The executing instance.
        instance: InstanceId,
        /// The executing thread.
        thread: ThreadId,
        /// When the (fan-in merged) job entered the instance.
        entered: SimTime,
        /// Completion time.
        t: SimTime,
    },
    /// The response reached the issuing client.
    RequestCompleted {
        /// The request.
        request: RequestId,
        /// Its request type.
        request_type: RequestTypeId,
        /// True if the client-side timeout fired first.
        timed_out: bool,
        /// True if this completion was counted by the latency recorder
        /// (post-warmup and not timed out).
        measured: bool,
        /// True if the request's slot was released with the completion —
        /// always, unless a fan-in fired early (`quorum` / `best_effort`)
        /// and straggler jobs are still in flight; then the release is a
        /// [`TraceEvent::RequestRetired`] of its own, after the last one.
        retired: bool,
        /// Completion time.
        t: SimTime,
    },
    /// A client-side timeout fired before the response arrived.
    RequestTimeout {
        /// The request.
        request: RequestId,
        /// Timeout time.
        t: SimTime,
    },
    /// A fault killed the request's last in-flight branch; no response ever
    /// reached the client (a terminal outcome, like `RequestCompleted`).
    /// Nothing of the request is left, so its slot is released with it.
    RequestDropped {
        /// The request.
        request: RequestId,
        /// Drop time.
        t: SimTime,
    },
    /// An open circuit breaker shed the request at emission; the client got
    /// an instant degraded response (a terminal outcome). The request never
    /// had a job, so its slot is released with it.
    RequestShed {
        /// The request.
        request: RequestId,
        /// Shed time.
        t: SimTime,
    },
    /// A resilience policy re-emitted a failed operation as this fresh
    /// request (always directly preceded by its `RequestEmitted`).
    RequestRetry {
        /// The new request carrying the retry.
        request: RequestId,
        /// Attempt number (1 = first retry).
        attempt: u32,
        /// Emission time.
        t: SimTime,
    },
    /// A fault killed one in-flight job (crash drain, crash arrival, dead
    /// batch, or exhausted retransmissions).
    JobKilled {
        /// The killed job.
        job: JobId,
        /// Its owning request.
        request: RequestId,
        /// Kill time.
        t: SimTime,
    },
    /// The simulator released the request's slot some time *after* its
    /// terminal event: the last straggler job of a request that completed
    /// on an early-fired fan-in has drained. From here on no event names
    /// the request, and its slot may be emitted again under the next
    /// generation — which is what lets a log consumer forget the request.
    /// A release that coincides with the terminal event is not logged
    /// separately (`RequestCompleted::retired`, and every `RequestDropped`
    /// and `RequestShed`), so a run without stragglers records no event of
    /// this kind.
    RequestRetired {
        /// The request.
        request: RequestId,
        /// Release time.
        t: SimTime,
    },
}

impl TraceEvent {
    /// The event's timestamp (the start time for interval events).
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::RequestEmitted { t, .. }
            | TraceEvent::RequestLaunched { t, .. }
            | TraceEvent::Enqueue { t, .. }
            | TraceEvent::PoolAcquire { t, .. }
            | TraceEvent::PoolBlock { t, .. }
            | TraceEvent::PoolGrant { t, .. }
            | TraceEvent::PoolRelease { t, .. }
            | TraceEvent::FanIn { t, .. }
            | TraceEvent::NodeDone { t, .. }
            | TraceEvent::RequestCompleted { t, .. }
            | TraceEvent::RequestTimeout { t, .. }
            | TraceEvent::RequestDropped { t, .. }
            | TraceEvent::RequestShed { t, .. }
            | TraceEvent::RequestRetry { t, .. }
            | TraceEvent::JobKilled { t, .. }
            | TraceEvent::RequestRetired { t, .. } => t,
            TraceEvent::NetRx { start, .. } | TraceEvent::BatchStart { start, .. } => start,
        }
    }
}

// The whole log is a flat array of these: an event owns no heap memory,
// and a variant that grows past 56 bytes grows every one of the millions
// of events a traced run records.
const _: () = {
    const fn is_copy<T: Copy>() {}
    is_copy::<TraceEvent>();
    assert!(std::mem::size_of::<TraceEvent>() <= 56);
};

/// The job list of one [`TraceEvent::BatchStart`]: a handle into the side
/// arena of the [`SpanChunk`] that holds the event, resolved by
/// [`SpanChunk::batch_jobs`] ([`TraceLog::batch_jobs`] for a retained log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchJobs {
    offset: u32,
    len: u32,
}

impl BatchJobs {
    /// Number of jobs in the batch.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for a batch of no jobs (the simulator never dispatches one).
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A run of consecutive span events together with the job lists of its own
/// [`TraceEvent::BatchStart`]s — self-contained, so a consumer needs
/// nothing but the chunk to read it. A retained [`TraceLog`] is one chunk;
/// a streamed one is a sequence of them.
#[derive(Debug, Clone, Default)]
pub struct SpanChunk {
    events: Vec<TraceEvent>,
    /// Side arena: the job lists of this chunk's `BatchStart` events, back
    /// to back.
    jobs: Vec<JobId>,
}

impl SpanChunk {
    /// The chunk's events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The jobs of one of this chunk's [`TraceEvent::BatchStart`] events,
    /// in batch order.
    ///
    /// # Panics
    ///
    /// Panics if the handle comes from another chunk and is out of range
    /// here.
    pub fn batch_jobs(&self, jobs: BatchJobs) -> &[JobId] {
        &self.jobs[jobs.offset as usize..][..jobs.len()]
    }

    /// An empty chunk of a streamed log, sized once for its whole life.
    fn with_room() -> Self {
        SpanChunk {
            events: Vec::with_capacity(CHUNK_EVENTS),
            jobs: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.events.clear();
        self.jobs.clear();
    }
}

/// Events per chunk of a streamed log (224 KB of events). The producer
/// writes a chunk and the consumer reads it back on another core, so the
/// size that matters is the whole ring's — at most [`STREAM_DEPTH`]` + 2`
/// chunks, ≈ 0.9 MB — which stays inside one core's L2 instead of
/// streaming through it (32 Ki-event chunks: 7.3 MB). A hand-off every
/// 4 Ki events — one channel send, one lock — is still too rare to measure
/// (DESIGN.md §9.2 has the sizes tried).
pub const CHUNK_EVENTS: usize = 4 * 1024;

/// Full chunks that may wait for the consumer of a streamed log. With the
/// chunk being filled and the one being consumed, a streamed log never
/// owns more than [`STREAM_DEPTH`]` + 2` chunks.
pub const STREAM_DEPTH: usize = 2;

/// How long the consumer of a streamed log sleeps when no chunk is ready.
/// It polls instead of blocking in `recv` so that the producer never has
/// to wake it: a futex wake places the woken thread near its waker
/// (wake-affine scheduling), which can leave the two threads sharing one
/// core (DESIGN.md §9.2 has the measurements).
const STREAM_POLL: Duration = Duration::from_micros(200);

/// Chunks the consumer of a streamed log is done with, cleared, for the
/// producer to fill again. A lock around a push or a pop once per chunk is
/// never contended for long enough to park a thread.
type SpareChunks = Arc<Mutex<Vec<SpanChunk>>>;

/// The producer's end of a streamed log's chunk exchange.
#[derive(Debug)]
struct ChunkSender {
    full: SyncSender<SpanChunk>,
    spare: SpareChunks,
}

/// The consumer's end of a streamed log ([`TraceLog::streaming`]).
#[derive(Debug)]
pub struct ChunkReceiver {
    full: Receiver<SpanChunk>,
    spare: SpareChunks,
}

impl ChunkReceiver {
    /// Hands every chunk of the log to `consume`, in order, until the log
    /// is closed ([`TraceLog::close`]) or dropped; each chunk goes back to
    /// the producer for reuse afterwards. Run this on its own thread while
    /// the simulator runs.
    pub fn drain(self, mut consume: impl FnMut(&SpanChunk)) {
        loop {
            match self.full.try_recv() {
                Ok(mut chunk) => {
                    consume(&chunk);
                    chunk.clear();
                    let mut spare = self.spare.lock().expect("a push or pop cannot panic");
                    spare.push(chunk);
                }
                Err(TryRecvError::Empty) => std::thread::sleep(STREAM_POLL),
                Err(TryRecvError::Disconnected) => return,
            }
        }
    }
}

/// An append-only, bounded event log filled by the simulator while span
/// tracing is enabled. When the capacity is reached further events are
/// counted as dropped instead of recorded, so the recorded prefix is always
/// a complete record of the run up to the cutoff.
///
/// A log is either *retained* ([`TraceLog::new`]: every recorded event
/// stays readable through [`TraceLog::events`]) or *streamed*
/// ([`TraceLog::streaming`]: full chunks leave for the consumer, and only
/// the chunk being filled is still here). [`TraceLog::len`] and
/// [`TraceLog::dropped`] mean the same for both.
#[derive(Debug)]
pub struct TraceLog {
    /// The retained events: the whole log, or the chunk being filled.
    chunk: SpanChunk,
    /// Most events `chunk` may hold before it is handed off (streamed) or
    /// the log is full: the one comparison the record path makes.
    room: usize,
    capacity: usize,
    /// Events in chunks already handed to the consumer.
    handed_off: usize,
    dropped: u64,
    chunks_allocated: usize,
    stream: Option<ChunkSender>,
}

impl TraceLog {
    /// Creates an empty retained log holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            chunk: SpanChunk::default(),
            room: capacity,
            capacity,
            handed_off: 0,
            dropped: 0,
            chunks_allocated: 1,
            stream: None,
        }
    }

    /// Creates an empty streamed log recording at most `capacity` events in
    /// all, and the receiver its chunks arrive at. The log must be
    /// [closed](TraceLog::close) (or dropped) for [`ChunkReceiver::drain`]
    /// to return.
    pub fn streaming(capacity: usize) -> (Self, ChunkReceiver) {
        let (full_tx, full_rx) = mpsc::sync_channel(STREAM_DEPTH);
        let spare = SpareChunks::default();
        let log = TraceLog {
            chunk: SpanChunk::with_room(),
            room: capacity.min(CHUNK_EVENTS),
            stream: Some(ChunkSender {
                full: full_tx,
                spare: Arc::clone(&spare),
            }),
            ..TraceLog::new(capacity)
        };
        let receiver = ChunkReceiver {
            full: full_rx,
            spare,
        };
        (log, receiver)
    }

    /// Appends an event, or counts it as dropped once the log is full.
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.has_room() {
            self.chunk.events.push(ev);
        }
    }

    /// Appends the [`TraceEvent::BatchStart`] that `make` builds around the
    /// handle of `jobs`, copying the list into the arena — or counts a drop
    /// once the log is full.
    pub(crate) fn record_batch(
        &mut self,
        jobs: &[JobId],
        make: impl FnOnce(BatchJobs) -> TraceEvent,
    ) {
        // Handles are 32-bit; an arena that would outgrow them ends the
        // log, exactly as reaching the capacity does. Only a retained log
        // can get there: a streamed chunk's arena starts over every
        // `CHUNK_EVENTS` events.
        if u32::try_from(self.chunk.jobs.len() + jobs.len()).is_err() {
            self.capacity = self.len();
            self.room = self.chunk.events.len();
        }
        if self.has_room() {
            let handle = BatchJobs {
                offset: self.chunk.jobs.len() as u32,
                len: jobs.len() as u32,
            };
            self.chunk.jobs.extend_from_slice(jobs);
            self.chunk.events.push(make(handle));
        }
    }

    /// True if the next event fits, handing the full chunk of a streamed
    /// log off first; otherwise counts the event as dropped.
    #[inline]
    fn has_room(&mut self) -> bool {
        self.chunk.events.len() < self.room || self.make_room()
    }

    #[cold]
    fn make_room(&mut self) -> bool {
        if self.stream.is_some() && self.len() < self.capacity {
            self.hand_off();
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Sends the current chunk of a streamed log to the consumer — waiting
    /// while [`STREAM_DEPTH`] chunks are already queued, i.e. while the
    /// consumer is that far behind — and leaves an empty one in its place.
    fn send_chunk(&mut self) {
        let stream = self.stream.as_ref().expect("only a streamed log sends");
        let full = std::mem::take(&mut self.chunk);
        self.handed_off += full.events.len();
        // Fails only if the consumer is gone (it panicked; joining it says
        // so): the chunk is lost with it.
        let _ = stream.full.send(full);
    }

    /// Sends the full chunk and continues in one the consumer gave back, or
    /// a new one if none is waiting. Only `STREAM_DEPTH` queued chunks and
    /// the one being consumed can be out when a new one is made, so a log
    /// never owns more than `STREAM_DEPTH + 2`.
    fn hand_off(&mut self) {
        self.send_chunk();
        self.room = (self.capacity - self.handed_off).min(CHUNK_EVENTS);
        let stream = self.stream.as_ref().expect("the chunk was just sent");
        let spare = stream
            .spare
            .lock()
            .expect("a push or pop cannot panic")
            .pop();
        self.chunk = spare.unwrap_or_else(|| {
            self.chunks_allocated += 1;
            SpanChunk::with_room()
        });
    }

    /// Ends a streamed log: hands the last, partly filled chunk to the
    /// consumer and disconnects, which makes [`ChunkReceiver::drain`]
    /// return once it has consumed everything. Events arriving afterwards
    /// count as dropped. No effect on a retained log.
    pub fn close(&mut self) {
        if self.stream.is_some() {
            self.send_chunk();
            self.stream = None;
            self.capacity = self.handed_off;
            self.room = 0;
        }
    }

    /// The events still retained, in execution order: all of a retained
    /// log, only the chunk being filled of a streamed one.
    pub fn events(&self) -> &[TraceEvent] {
        &self.chunk.events
    }

    /// The retained events as a chunk (see [`TraceLog::events`]).
    pub fn retained(&self) -> &SpanChunk {
        &self.chunk
    }

    /// The jobs of one of this log's retained [`TraceEvent::BatchStart`]
    /// events, in batch order.
    ///
    /// # Panics
    ///
    /// Panics if the handle comes from another log and is out of range
    /// here.
    pub fn batch_jobs(&self, jobs: BatchJobs) -> &[JobId] {
        self.chunk.batch_jobs(jobs)
    }

    /// Number of events recorded, whether still retained or already handed
    /// to a streamed log's consumer.
    pub fn len(&self) -> usize {
        self.handed_off + self.chunk.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that arrived after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chunks this log ever allocated: 1 for a retained log, at most
    /// [`STREAM_DEPTH`]` + 2` for a streamed one however long the run.
    pub fn chunks_allocated(&self) -> usize {
        self.chunks_allocated
    }

    /// Correlates the retained [`TraceEvent::Enqueue`] and
    /// [`TraceEvent::BatchStart`] events into per-job stage spans, in
    /// service order. Jobs whose enqueue fell outside the log are omitted.
    pub fn spans(&self) -> Vec<StageSpan> {
        let mut correlator = SpanCorrelator::default();
        let mut out = Vec::new();
        for ev in &self.chunk.events {
            correlator.feed(&self.chunk, ev, |span| out.push(span));
        }
        out
    }
}

/// Pairs each [`TraceEvent::Enqueue`] with the [`TraceEvent::BatchStart`]
/// that services it. [`TraceLog::spans`] and [`AuditFold`] both get their
/// spans from here, so they see the same ones.
#[derive(Debug, Default)]
struct SpanCorrelator {
    /// Per job, its queue stay not yet serviced (a job waits in one stage
    /// queue at a time). Closed by the batch that services it, or dropped
    /// when the job is killed in the queue.
    pending: SlotTable<JobId, QueueStay>,
}

/// An open queue stay: where and since when a job waits, and for whom.
#[derive(Debug, Clone, Copy)]
struct QueueStay {
    instance: InstanceId,
    stage: StageId,
    enqueue_t: SimTime,
    request: RequestId,
    node: PathNodeId,
}

impl SpanCorrelator {
    /// Feeds the next event, one of `chunk`'s; `on_span` gets each span a
    /// `BatchStart` completes, in batch order.
    fn feed(&mut self, chunk: &SpanChunk, ev: &TraceEvent, mut on_span: impl FnMut(StageSpan)) {
        match *ev {
            TraceEvent::Enqueue {
                job,
                request,
                node,
                instance,
                stage,
                t,
            } => {
                let stay = QueueStay {
                    instance,
                    stage,
                    enqueue_t: t,
                    request,
                    node,
                };
                self.pending.insert(job, stay);
            }
            TraceEvent::BatchStart {
                instance,
                machine,
                stage,
                thread,
                core,
                freq_ghz,
                start,
                end,
                jobs,
            } => {
                for &job in chunk.batch_jobs(jobs) {
                    let here = |stay: &&QueueStay| (stay.instance, stay.stage) == (instance, stage);
                    let Some(&stay) = self.pending.get(&job).filter(here) else {
                        continue;
                    };
                    self.pending.remove(&job);
                    on_span(StageSpan {
                        request: stay.request,
                        job,
                        node: stay.node,
                        instance,
                        machine,
                        stage,
                        thread,
                        core,
                        enqueue_t: stay.enqueue_t,
                        start_t: start,
                        end_t: end,
                        batch_size: jobs.len,
                        freq_ghz,
                    });
                }
            }
            TraceEvent::JobKilled { job, .. } => {
                self.pending.remove(&job);
            }
            _ => {}
        }
    }
}

/// One fully-correlated stage span: a job's wait in a stage queue followed
/// by its batched service — the unit of analysis the paper's §III-B stage
/// model produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpan {
    /// The owning request.
    pub request: RequestId,
    /// The job (one request visit to one path node).
    pub job: JobId,
    /// The path node the job was visiting.
    pub node: PathNodeId,
    /// The executing instance.
    pub instance: InstanceId,
    /// The machine hosting the instance.
    pub machine: MachineId,
    /// The stage.
    pub stage: StageId,
    /// The worker thread that serviced the batch.
    pub thread: ThreadId,
    /// Machine-local core index the batch ran on.
    pub core: u32,
    /// When the job entered the stage queue.
    pub enqueue_t: SimTime,
    /// When batched service began.
    pub start_t: SimTime,
    /// When batched service finished.
    pub end_t: SimTime,
    /// Number of jobs in the batch.
    pub batch_size: u32,
    /// Core frequency during service, GHz.
    pub freq_ghz: f64,
}

impl StageSpan {
    /// Time spent waiting in the stage queue, seconds.
    pub fn queue_wait_s(&self) -> f64 {
        (self.start_t - self.enqueue_t).as_secs_f64()
    }

    /// Total enqueue-to-service-end time, seconds.
    pub fn total_s(&self) -> f64 {
        (self.end_t - self.enqueue_t).as_secs_f64()
    }
}

/// One span of a [`RequestTrace`]: a request's visit to one path node.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SpanRecord {
    /// Path-node name.
    pub node: Name,
    /// Name of the instance the node executed on.
    pub instance: Name,
    /// When the job entered the instance (for a fan-in node: when the
    /// firing copy arrived).
    pub enter: SimTime,
    /// When the node's execution finished.
    pub exit: SimTime,
}

/// One request's end-to-end trace, distributed-tracing style: a view of
/// the span log produced by [`sampled_traces`]. `uqsim trace <path>`
/// prints one per line as JSON.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RequestTrace {
    /// Request-type name.
    pub request_type: Name,
    /// When the client generated the request.
    pub submitted: SimTime,
    /// When the response reached the client.
    pub completed: SimTime,
    /// The nodes that had finished when the response was delivered, in
    /// node-id order (quorum stragglers finishing later are not part of
    /// the response and are left out).
    pub spans: Vec<SpanRecord>,
}

/// Filters a [`TraceLog`] down to sampled request traces: every
/// `every`-th [`TraceEvent::RequestCompleted`] in log order (timed-out and
/// superseded completions count too), up to `max` traces. The log is a
/// prefix of the run, so a truncated log yields a prefix of the traces the
/// complete log would.
///
/// # Panics
///
/// Panics if `every` is zero.
pub fn sampled_traces(
    log: &TraceLog,
    meta: &TraceMeta,
    every: u64,
    max: usize,
) -> Vec<RequestTrace> {
    assert!(every > 0, "every must be positive");
    // Per live request: emission time and the `(node, instance, entered,
    // done)` of each node finished so far.
    type Visit = (PathNodeId, InstanceId, SimTime, SimTime);
    let mut live: SlotTable<RequestId, (SimTime, Vec<Visit>)> = SlotTable::default();
    let mut completed = 0u64;
    let mut out = Vec::new();
    for ev in log.events() {
        if out.len() >= max {
            break;
        }
        match *ev {
            TraceEvent::RequestEmitted { request, t, .. } => {
                live.insert(request, (t, Vec::new()));
            }
            TraceEvent::NodeDone {
                request,
                node,
                instance,
                entered,
                t,
                ..
            } => {
                if let Some((_, visits)) = live.get_mut(&request) {
                    visits.push((node, instance, entered, t));
                }
            }
            TraceEvent::RequestCompleted {
                request,
                request_type,
                t,
                ..
            } => {
                completed += 1;
                let Some((submitted, mut visits)) = live.remove(&request) else {
                    continue;
                };
                if !completed.is_multiple_of(every) {
                    continue;
                }
                let ty = &meta.request_types[request_type.index()];
                visits.sort_by_key(|&(node, ..)| node);
                out.push(RequestTrace {
                    request_type: ty.name.clone(),
                    submitted,
                    completed: t,
                    spans: visits
                        .into_iter()
                        .map(|(node, instance, enter, exit)| SpanRecord {
                            node: ty.nodes[node.index()].clone(),
                            instance: meta.instances[instance.index()].name.clone(),
                            enter,
                            exit,
                        })
                        .collect(),
                });
            }
            TraceEvent::RequestDropped { request, .. }
            | TraceEvent::RequestShed { request, .. } => {
                live.remove(&request);
            }
            _ => {}
        }
    }
    out
}

/// Entity names needed to render a human-readable trace; obtained from
/// [`Simulator::trace_meta`](crate::Simulator::trace_meta).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMeta {
    /// One entry per machine.
    pub machines: Vec<MachineMeta>,
    /// One entry per deployed instance.
    pub instances: Vec<InstanceMeta>,
    /// One entry per request type.
    pub request_types: Vec<RequestTypeMeta>,
    /// One entry per connection pool.
    pub pools: Vec<PoolMeta>,
    /// One entry per client.
    pub clients: Vec<ClientMeta>,
}

/// Display metadata for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineMeta {
    /// Machine name.
    pub name: Name,
    /// Total cores (instance-owned plus irq).
    pub cores: usize,
}

/// Display metadata for one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceMeta {
    /// Instance name.
    pub name: Name,
    /// Hosting machine index.
    pub machine: u32,
    /// Stage names of the instance's service, in stage order.
    pub stages: Vec<Name>,
}

/// Display metadata for one request type.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTypeMeta {
    /// Request-type name.
    pub name: Name,
    /// Node names, in node-id order.
    pub nodes: Vec<Name>,
}

/// Display metadata for one connection pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMeta {
    /// Upstream (acquiring) instance name.
    pub up: Name,
    /// Downstream (target) instance name.
    pub down: Name,
}

/// Display metadata for one client.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientMeta {
    /// Client name.
    pub name: Name,
}

fn ts_us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e3
}

/// Span logs as Chrome `trace_event` JSON (the "JSON Array Format" with
/// metadata), directly loadable in `about:tracing` or
/// [Perfetto](https://ui.perfetto.dev). Machines map to processes, cores to
/// threads; batch services and irq processing are complete (`"X"`) spans;
/// requests are async (`"b"`/`"e"`) spans on a synthetic `requests`
/// process; pool blocking and timeouts appear as instant events.
///
/// This is a *view*: it borrows the logs and is the JSON only while it is
/// being serialized, one event at a time —
/// `serde_json::to_writer_pretty(file, &trace)` streams it and holds no more
/// than the log itself; `serde_json::to_value(&trace)` builds the tree, for
/// tests that look inside.
///
/// A trace of several cells keeps them apart: each cell's `pid` space
/// (machines `0..M`, plus the request-lanes pseudo-process `M`) is shifted
/// by a running base of `machines + 1` per cell, so processes stay distinct
/// and ordered by cell, and async-span `id`s gain a `c<cell>:` prefix so
/// span ids from different cells can never alias. Event order inside a cell
/// is the log's; cells follow each other in cell order. One cell's trace
/// has neither shift nor prefix.
#[derive(Debug, Clone)]
pub struct ChromeTrace<'a> {
    cells: Vec<(&'a TraceLog, Cow<'a, TraceMeta>)>,
}

impl<'a> ChromeTrace<'a> {
    /// The trace of one or more cells' retained logs, in cell order.
    pub fn of_cells(cells: impl IntoIterator<Item = (&'a TraceLog, &'a TraceMeta)>) -> Self {
        ChromeTrace {
            cells: cells
                .into_iter()
                .map(|(log, meta)| (log, Cow::Borrowed(meta)))
                .collect(),
        }
    }

    /// The trace of one log whose names were gathered for the occasion.
    pub(crate) fn of_log(log: &'a TraceLog, meta: TraceMeta) -> Self {
        ChromeTrace {
            cells: vec![(log, Cow::Owned(meta))],
        }
    }
}

/// Renders one [`TraceLog`] as Chrome `trace_event` JSON; see
/// [`ChromeTrace`].
pub fn chrome_trace<'a>(log: &'a TraceLog, meta: &'a TraceMeta) -> ChromeTrace<'a> {
    ChromeTrace::of_cells([(log, meta)])
}

impl Serialize for ChromeTrace<'_> {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_object();
        sink.key("traceEvents");
        sink.begin_array();
        let mut out = ChromeEvents {
            sink: &mut *sink,
            pid_base: 0,
            id_prefix: String::new(),
            text: String::new(),
        };
        for (i, (log, meta)) in self.cells.iter().enumerate() {
            if self.cells.len() > 1 {
                out.id_prefix = format!("c{i}:");
            }
            out.cell(log, meta);
            out.pid_base += meta.machines.len() as u64 + 1;
        }
        sink.end_array();
        sink.key("displayTimeUnit");
        sink.str("ms");
        sink.end_object();
    }
}

/// Writes one cell after another into the `traceEvents` array. Key order
/// inside an event is part of the byte-pinned format.
struct ChromeEvents<'s, S: Sink + ?Sized> {
    sink: &'s mut S,
    /// Added to every `pid`: the processes of the cells written so far.
    pid_base: u64,
    /// In front of every async-span `id`; empty for a one-cell trace.
    id_prefix: String,
    /// Where composed strings are put together, so none is allocated per
    /// event.
    text: String,
}

impl<S: Sink + ?Sized> ChromeEvents<'_, S> {
    fn kv<T: Serialize>(&mut self, key: &str, v: T) {
        self.sink.key(key);
        v.serialize(self.sink);
    }

    /// A string value composed from parts.
    fn text(&mut self, key: &str, v: fmt::Arguments<'_>) {
        self.text.clear();
        fmt::Write::write_fmt(&mut self.text, v).expect("a String takes any text");
        self.sink.key(key);
        self.sink.str(&self.text);
    }

    /// A job or request handle, as `slot.generation`.
    fn handle(&mut self, key: &str, slot: usize, generation: u32) {
        self.text(key, format_args!("{slot}.{generation}"));
    }

    /// A request's async-span id: its handle behind the cell prefix.
    fn span_id(&mut self, request: RequestId) {
        let prefix = std::mem::take(&mut self.id_prefix);
        self.text(
            "id",
            format_args!("{prefix}{}.{}", request.slot(), request.generation()),
        );
        self.id_prefix = prefix;
    }

    fn pid_tid(&mut self, pid: u64, tid: u64) {
        self.kv("pid", pid + self.pid_base);
        self.kv("tid", tid);
    }

    /// Opens an event with the three keys every payload event starts with.
    fn begin(&mut self, name: &str, cat: &str, ph: &str) {
        self.sink.begin_object();
        self.kv("name", name);
        self.kv("cat", cat);
        self.kv("ph", ph);
    }

    fn begin_args(&mut self) {
        self.sink.key("args");
        self.sink.begin_object();
    }

    /// Closes the `args` object and the event.
    fn end(&mut self) {
        self.sink.end_object();
        self.sink.end_object();
    }

    fn metadata(&mut self, what: &str, pid: u64, tid: u64, name: fmt::Arguments<'_>) {
        self.sink.begin_object();
        self.kv("ph", "M");
        self.kv("name", what);
        self.pid_tid(pid, tid);
        self.begin_args();
        self.text("name", name);
        self.end();
    }

    fn cell(&mut self, log: &TraceLog, meta: &TraceMeta) {
        let req_pid = meta.machines.len() as u64;
        for (m, mm) in meta.machines.iter().enumerate() {
            self.metadata("process_name", m as u64, 0, format_args!("{}", mm.name));
            for c in 0..mm.cores {
                self.metadata("thread_name", m as u64, c as u64, format_args!("core{c}"));
            }
        }
        self.metadata("process_name", req_pid, 0, format_args!("requests"));
        let type_name = |ty: RequestTypeId| -> Cow<'_, str> {
            match meta.request_types.get(ty.index()) {
                Some(ty) => Cow::Borrowed(&*ty.name),
                None => Cow::Owned(format!("type{}", ty.raw())),
            }
        };
        for ev in log.events() {
            match *ev {
                TraceEvent::BatchStart {
                    instance,
                    machine,
                    stage,
                    thread,
                    core,
                    freq_ghz,
                    start,
                    end,
                    jobs,
                } => {
                    let inst = &meta.instances[instance.index()];
                    let stage_name: Cow<'_, str> = match inst.stages.get(stage.index()) {
                        Some(name) => Cow::Borrowed(name),
                        None => Cow::Owned(format!("stage{}", stage.raw())),
                    };
                    self.sink.begin_object();
                    self.text("name", format_args!("{}/{}", inst.name, stage_name));
                    self.kv("cat", "stage");
                    self.kv("ph", "X");
                    self.kv("ts", ts_us(start));
                    self.kv("dur", ts_us(end) - ts_us(start));
                    self.pid_tid(machine.raw() as u64, core as u64);
                    self.begin_args();
                    self.kv("instance", &inst.name);
                    self.kv("stage", &*stage_name);
                    self.kv("thread", thread.raw() as u64);
                    self.kv("batch_size", jobs.len() as u64);
                    self.kv("freq_ghz", freq_ghz);
                    self.end();
                }
                TraceEvent::NetRx {
                    machine,
                    core,
                    job,
                    start,
                    end,
                } => {
                    self.begin("net_rx", "net", "X");
                    self.kv("ts", ts_us(start));
                    self.kv("dur", ts_us(end) - ts_us(start));
                    self.pid_tid(machine.raw() as u64, core as u64);
                    self.begin_args();
                    self.handle("job", job.slot(), job.generation());
                    self.end();
                }
                TraceEvent::RequestEmitted {
                    request,
                    request_type,
                    client,
                    t,
                } => {
                    self.begin(&type_name(request_type), "request", "b");
                    self.span_id(request);
                    self.kv("ts", ts_us(t));
                    self.pid_tid(req_pid, 0);
                    self.begin_args();
                    self.kv("client", client.raw() as u64);
                    self.end();
                }
                TraceEvent::RequestCompleted {
                    request,
                    request_type,
                    timed_out,
                    measured,
                    t,
                    ..
                } => {
                    self.begin(&type_name(request_type), "request", "e");
                    self.span_id(request);
                    self.kv("ts", ts_us(t));
                    self.pid_tid(req_pid, 0);
                    self.begin_args();
                    self.kv("timed_out", timed_out);
                    self.kv("measured", measured);
                    self.end();
                }
                TraceEvent::PoolBlock { pool, job, t } => {
                    self.begin("pool_block", "pool", "i");
                    self.kv("s", "g");
                    self.kv("ts", ts_us(t));
                    self.pid_tid(req_pid, 0);
                    self.begin_args();
                    self.kv("pool", pool.raw() as u64);
                    self.handle("job", job.slot(), job.generation());
                    self.end();
                }
                TraceEvent::RequestTimeout { request, t } => {
                    self.begin("timeout", "request", "i");
                    self.kv("s", "g");
                    self.kv("ts", ts_us(t));
                    self.pid_tid(req_pid, 0);
                    self.begin_args();
                    self.handle("request", request.slot(), request.generation());
                    self.end();
                }
                _ => {}
            }
        }
    }
}

/// Ground-truth counters from the simulator, cross-checked against the
/// event log by the auditor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditCounts {
    /// Requests generated ([`Simulator::generated`](crate::Simulator::generated)).
    pub generated: u64,
    /// Requests completed ([`Simulator::completed`](crate::Simulator::completed)).
    pub completed: u64,
    /// Requests that have not reached a terminal outcome yet.
    pub live_requests: u64,
    /// Requests still holding their slot
    /// ([`Simulator::live_requests`](crate::Simulator::live_requests)):
    /// `live_requests` plus those whose terminal event is behind them but
    /// whose straggler jobs are still draining.
    pub unretired: u64,
    /// Requests whose client-side timeout fired ([`Simulator::timeouts`](crate::Simulator::timeouts)).
    pub timeouts: u64,
    /// Completions retained by the end-to-end latency recorder (post-warmup
    /// and not timed out).
    pub measured: u64,
    /// Requests terminally dropped by a fault
    /// ([`Simulator::dropped`](crate::Simulator::dropped)).
    pub dropped: u64,
    /// Requests shed by an open circuit breaker
    /// ([`Simulator::shed`](crate::Simulator::shed)).
    pub shed: u64,
}

/// The auditor's findings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Invariant violations found; empty on a clean run.
    pub violations: Vec<String>,
    /// Non-fatal observations (e.g. checks skipped due to log truncation).
    pub notes: Vec<String>,
    /// Total events examined.
    pub events_checked: usize,
    /// Correlated stage spans examined.
    pub spans_checked: usize,
}

impl AuditReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays a [`TraceLog`] against the simulator's invariants. See the
/// [module docs](self) for the full list of checks.
///
/// The audit is one forward scan, kept as an incremental fold
/// ([`AuditFold`]) so that a streamed log is audited chunk by chunk while
/// the run goes on. What it remembers about a request or a job sits in a
/// slot-indexed table and goes where the log says the simulator let go of
/// it — a request at its retirement, a job's queue stay at its batch or
/// its kill — so the audit's memory follows the requests in flight, not
/// the length of the run ([`AuditFold`] has the rule).
/// Violations are listed in log order, then the end-of-log reconciliation
/// of the counters: the list is a function of the event sequence alone,
/// wherever the chunk boundaries fall.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceAuditor;

/// What the auditor remembers about one request, from the first event
/// that names it to its retirement. The record then stays in its slot as a
/// tombstone — `retired`, the fan-in state dropped — until the slot's next
/// emission replaces it, which tells a late event of this request from an
/// event of one that was never emitted.
#[derive(Debug)]
struct RequestAudit {
    emitted: Option<SimTime>,
    completed: Option<SimTime>,
    /// The terminal outcome reached, by name.
    terminal: Option<&'static str>,
    /// A fan-in of this request fired before all parents arrived (quorum /
    /// best-effort), so straggler branches legitimately outlive it.
    early_fired: bool,
    /// Earliest enqueue and latest service end over its stage spans so far.
    first_enqueue: SimTime,
    last_end: SimTime,
    /// The log said the simulator released the request's slot.
    retired: bool,
    /// Per join node reached so far: arrivals, and whether it fired.
    fans: Vec<(PathNodeId, u32, bool)>,
}

impl RequestAudit {
    fn new() -> Self {
        RequestAudit {
            emitted: None,
            completed: None,
            terminal: None,
            early_fired: false,
            first_enqueue: SimTime::MAX,
            last_end: SimTime::ZERO,
            retired: false,
            fans: Vec::new(),
        }
    }

    /// Marks the request retired and forgets its fan-in state; `false` if
    /// it had retired before.
    fn retire(&mut self) -> bool {
        self.fans.clear();
        !std::mem::replace(&mut self.retired, true)
    }
}

/// The record an event naming `request` is checked against: the one in the
/// request's slot, begun here if the slot is vacant or holds an earlier
/// generation (a tombstone, in any log the simulator records). `None` if
/// the slot has moved on to a later generation. That, or finding the
/// request's own record retired, puts the event behind its request's
/// retirement: `what` is reported as naming a retired request. So is an
/// occupant that had to make way without having retired.
fn record_of<'a>(
    requests: &'a mut SlotTable<RequestId, RequestAudit>,
    violations: &mut Violations,
    request: RequestId,
    what: &str,
) -> Option<&'a mut RequestAudit> {
    let later =
        |a: RequestId, b: RequestId| (a.generation().wrapping_sub(b.generation()) as i32) > 0;
    match requests
        .occupant(&request)
        .map(|(held, r)| (*held, r.retired))
    {
        Some((held, retired)) if held == request => {
            if retired {
                violations.push(false, || {
                    format!("{what} names request {request} after its retirement")
                });
            }
        }
        Some((held, _)) if later(held, request) => {
            violations.push(false, || {
                format!(
                    "{what} names request {request} after its retirement (its slot is {held}'s)"
                )
            });
            return None;
        }
        _ => {
            if let Some((held, mut old)) = requests.insert(request, RequestAudit::new()) {
                if !old.retired {
                    violations.push(false, || {
                        format!("{what} of request {request} takes the slot of {held}, which never retired")
                    });
                }
                // The next tenant inherits the (emptied) fan-in buffer.
                old.fans.clear();
                requests.get_mut(&request)?.fans = old.fans;
            }
        }
    }
    requests.get_mut(&request)
}

/// The latest service interval on each lane of a two-level index —
/// `(machine, core)` or `(instance, thread)`.
#[derive(Debug, Default)]
struct Lanes(Vec<Vec<Option<(SimTime, SimTime)>>>);

impl Lanes {
    /// Puts `[start, end)` on the lane and returns the interval before it
    /// there if that one had not ended by `start`. The log is in time
    /// order, so the interval before is the one an overlap would be with.
    fn occupy(
        &mut self,
        (outer, inner): (u32, u32),
        start: SimTime,
        end: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let (outer, inner) = (outer as usize, inner as usize);
        if outer >= self.0.len() {
            self.0.resize_with(outer + 1, Vec::new);
        }
        let lanes = &mut self.0[outer];
        if inner >= lanes.len() {
            lanes.resize(inner + 1, None);
        }
        lanes[inner]
            .replace((start, end))
            .filter(|&(_, prev_end)| start < prev_end)
    }
}

/// The violations found so far, in log order, capped. Whether the log was
/// truncated is only known when it ends, so a violation that only a
/// complete log can be held to (an event whose request was "never
/// emitted") is kept with a mark and dropped at the end if the log turns
/// out truncated — which must leave exactly the list an auditor that knew
/// from the start would have made, cap included.
#[derive(Debug, Default)]
struct Violations {
    /// `(needs a complete log, message)`: the first
    /// [`TraceAuditor::MAX_VIOLATIONS`] of all violations and the first as
    /// many of the unmarked ones.
    kept: Vec<(bool, String)>,
    unmarked: usize,
}

impl Violations {
    fn push(&mut self, needs_complete_log: bool, message: impl FnOnce() -> String) {
        const CAP: usize = TraceAuditor::MAX_VIOLATIONS;
        let unmarked = !needs_complete_log;
        if self.kept.len() < CAP || (unmarked && self.unmarked < CAP) {
            self.kept.push((needs_complete_log, message()));
        }
        self.unmarked += usize::from(unmarked);
    }

    fn finish(mut self, truncated: bool) -> Vec<String> {
        if truncated {
            self.kept
                .retain(|&(needs_complete_log, _)| !needs_complete_log);
        }
        self.kept.truncate(TraceAuditor::MAX_VIOLATIONS);
        self.kept.into_iter().map(|(_, message)| message).collect()
    }
}

/// The trace audit as an incremental fold: [`feed`](AuditFold::feed) it
/// the log's chunks in order, then [`finish`](AuditFold::finish) with the
/// simulator's counters. The report depends on the event sequence only,
/// not on how it was cut into chunks.
///
/// **What it forgets, and when.** The log says when the simulator releases
/// a request's slot — with the terminal event ([`TraceEvent::RequestCompleted`]
/// with `retired` set, every [`TraceEvent::RequestDropped`] and
/// [`TraceEvent::RequestShed`]) or, when stragglers of an early-fired
/// fan-in outlive it, with a later [`TraceEvent::RequestRetired`] — and the
/// simulator emits no event naming a request after that. So the fold keeps
/// one record per request *slot*: at retirement the record drops its
/// fan-in state and stays behind as a tombstone until the slot's next
/// emission replaces it. A job's open queue stay goes with the batch that
/// services it or the [`TraceEvent::JobKilled`] that ends it. What remains
/// is per connection, per core and per thread: the fold's memory follows
/// the requests in flight and the size of the cluster, not the run's
/// length. The rule is itself audited: an event naming a request after its
/// retirement, a slot emitted again before its occupant retired, a second
/// retirement, and `emitted = retired + still holding a slot` at the end
/// are violations.
#[derive(Debug, Default)]
pub struct AuditFold {
    requests: SlotTable<RequestId, RequestAudit>,
    spans: SpanCorrelator,
    cores: Lanes,
    threads: Lanes,
    /// Per connection: `Some(busy)` once an event named it.
    conn_busy: Vec<Option<bool>>,
    emitted_requests: u64,
    completed_requests: u64,
    retired_requests: u64,
    dropped_events: u64,
    shed_events: u64,
    measured_events: u64,
    timeout_events: u64,
    spans_checked: usize,
    violations: Violations,
}

impl AuditFold {
    /// An audit that has seen no event yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks the next chunk of the log.
    pub fn feed(&mut self, chunk: &SpanChunk) {
        let AuditFold {
            requests,
            spans,
            cores,
            threads,
            conn_busy,
            emitted_requests,
            completed_requests,
            retired_requests,
            dropped_events,
            shed_events,
            measured_events,
            timeout_events,
            spans_checked,
            violations,
        } = self;
        macro_rules! violation {
            ($($arg:tt)*) => {
                violations.push(false, || format!($($arg)*))
            };
        }
        // A violation only if the log is complete: a truncated one is
        // allowed events whose beginning it lost.
        macro_rules! incomplete {
            ($($arg:tt)*) => {
                violations.push(true, || format!($($arg)*))
            };
        }
        // The record of the request an event names (see `record_of`).
        macro_rules! record {
            ($request:expr, $what:expr) => {
                record_of(requests, violations, $request, $what)
            };
        }

        for ev in chunk.events() {
            match *ev {
                // ---- Request lifecycle ----------------------------------
                // Every emitted request must reach exactly one terminal
                // outcome: completed, dropped, or shed. Timeouts are an
                // orthogonal flag (a timed-out request may still complete
                // late or be dropped). Its slot is released with that
                // outcome or after it, once, and nothing names it later.
                TraceEvent::RequestEmitted { request, t, .. } => {
                    let Some(r) = record!(request, "emission") else {
                        continue;
                    };
                    if r.emitted.replace(t).is_some() {
                        violation!("request {request} emitted twice");
                    } else {
                        *emitted_requests += 1;
                    }
                    if r.first_enqueue < t {
                        violation!(
                            "causality: request {request} enqueued at {} before emission at {t}",
                            r.first_enqueue
                        );
                    }
                }
                TraceEvent::RequestLaunched { request, t, .. } => {
                    match record!(request, "launch").map(|r| r.emitted) {
                        Some(Some(e)) if t < e => {
                            violation!("request {request} launched at {t} before emission at {e}");
                        }
                        Some(None) => {
                            incomplete!("request {request} launched but never emitted");
                        }
                        _ => {}
                    }
                }
                TraceEvent::RequestCompleted {
                    request,
                    t,
                    measured,
                    retired,
                    ..
                } => {
                    if measured {
                        *measured_events += 1;
                    }
                    let Some(r) = record!(request, "completion") else {
                        continue;
                    };
                    if r.completed.replace(t).is_some() {
                        violation!("request {request} completed twice");
                    } else {
                        *completed_requests += 1;
                    }
                    if let Some(prev) = r.terminal.replace("completed") {
                        violation!("request {request} completed after terminal {prev}");
                    }
                    if r.emitted.is_none() {
                        incomplete!("request {request} completed but never emitted");
                    }
                    if r.last_end > t && !r.early_fired {
                        violation!(
                            "causality: request {request} span ends at {} after completion at {t}",
                            r.last_end
                        );
                    }
                    if retired {
                        *retired_requests += u64::from(r.retire());
                    }
                }
                TraceEvent::RequestDropped { request, .. } => {
                    *dropped_events += 1;
                    let Some(r) = record!(request, "drop") else {
                        continue;
                    };
                    if let Some(prev) = r.terminal.replace("dropped") {
                        violation!("request {request} dropped after terminal {prev}");
                    }
                    if r.emitted.is_none() {
                        incomplete!("request {request} dropped but never emitted");
                    }
                    *retired_requests += u64::from(r.retire());
                }
                TraceEvent::RequestShed { request, .. } => {
                    *shed_events += 1;
                    let Some(r) = record!(request, "shed") else {
                        continue;
                    };
                    if let Some(prev) = r.terminal.replace("shed") {
                        violation!("request {request} shed after terminal {prev}");
                    }
                    if r.emitted.is_none() {
                        incomplete!("request {request} shed but never emitted");
                    }
                    *retired_requests += u64::from(r.retire());
                }
                TraceEvent::RequestRetired { request, .. } => match requests.get_mut(&request) {
                    Some(r) => {
                        if r.terminal.is_none() {
                            violation!("request {request} retired before any terminal outcome");
                        }
                        if r.retire() {
                            *retired_requests += 1;
                        } else {
                            violation!("request {request} retired twice");
                        }
                    }
                    None => violation!("request {request} retired without holding its slot"),
                },
                TraceEvent::RequestRetry { request, .. } => {
                    if record!(request, "retry").is_some_and(|r| r.emitted.is_none()) {
                        incomplete!("retry request {request} has no emission");
                    }
                }
                TraceEvent::RequestTimeout { request, .. } => {
                    *timeout_events += 1;
                    record!(request, "timeout");
                }
                TraceEvent::NodeDone { request, .. } => {
                    record!(request, "node completion");
                }

                // ---- Non-overlap per core and per thread, span causality -
                TraceEvent::NetRx {
                    machine,
                    core,
                    start,
                    end,
                    ..
                } => {
                    let lane = (machine.raw(), core);
                    if let Some(before) = cores.occupy(lane, start, end) {
                        violation!("{}", overlap("core", lane, before, (start, end)));
                    }
                }
                TraceEvent::Enqueue { request, .. } => {
                    record!(request, "enqueue");
                    spans.feed(chunk, ev, |_| {});
                }
                TraceEvent::JobKilled { request, .. } => {
                    record!(request, "job kill");
                    spans.feed(chunk, ev, |_| {});
                }
                TraceEvent::BatchStart {
                    instance,
                    machine,
                    thread,
                    core,
                    start,
                    end,
                    ..
                } => {
                    for (kind, lanes, lane) in [
                        ("core", &mut *cores, (machine.raw(), core)),
                        ("thread", &mut *threads, (instance.raw(), thread.raw())),
                    ] {
                        if let Some(before) = lanes.occupy(lane, start, end) {
                            violation!("{}", overlap(kind, lane, before, (start, end)));
                        }
                    }
                    spans.feed(chunk, ev, |s| {
                        *spans_checked += 1;
                        if s.enqueue_t > s.start_t || s.start_t > s.end_t {
                            violation!(
                                "span ordering: job {} at {}/{} has enqueue {} start {} end {}",
                                s.job,
                                s.instance,
                                s.stage,
                                s.enqueue_t,
                                s.start_t,
                                s.end_t
                            );
                        }
                        let Some(r) = record!(s.request, "span") else {
                            return;
                        };
                        r.first_enqueue = r.first_enqueue.min(s.enqueue_t);
                        r.last_end = r.last_end.max(s.end_t);
                        if let Some(e) = r.emitted {
                            if s.enqueue_t < e {
                                violation!(
                                    "causality: request {} enqueued at {} before emission at {e}",
                                    s.request,
                                    s.enqueue_t
                                );
                            }
                        }
                        if let Some(c) = r.completed {
                            if s.end_t > c && !r.early_fired {
                                violation!(
                                    "causality: request {} span ends at {} after completion at {c}",
                                    s.request,
                                    s.end_t
                                );
                            }
                        }
                    });
                }

                // ---- Fan-in discipline ----------------------------------
                TraceEvent::FanIn {
                    request,
                    node,
                    arrivals,
                    fan_in,
                    required,
                    fired,
                    ..
                } => {
                    if arrivals > fan_in {
                        violation!(
                            "fan-in: request {request} node {node} saw arrival {arrivals} of {fan_in}"
                        );
                    }
                    if required == 0 || required > fan_in {
                        violation!(
                            "fan-in: request {request} node {node} requires {required} of {fan_in}"
                        );
                    }
                    if fired != (arrivals == required) {
                        violation!(
                            "fan-in: request {request} node {node} fired={fired} at arrival \
                             {arrivals} (requires {required} of {fan_in})"
                        );
                    }
                    // A retired request's arrival counts are forgotten.
                    let Some(r) = record!(request, "fan-in").filter(|r| !r.retired) else {
                        continue;
                    };
                    let state = match r.fans.iter().position(|&(n, ..)| n == node) {
                        Some(i) => &mut r.fans[i],
                        None => {
                            r.fans.push((node, 0, false));
                            r.fans.last_mut().expect("just pushed")
                        }
                    };
                    if arrivals != state.1 + 1 {
                        violation!(
                            "fan-in: request {request} node {node} arrivals jumped {} -> {arrivals}",
                            state.1
                        );
                    }
                    // Arrivals after the firing are only legitimate absorbed
                    // stragglers under an early-firing (quorum) policy.
                    if state.2 && required == fan_in {
                        violation!("fan-in: request {request} node {node} arrival after firing");
                    }
                    *state = (node, arrivals, state.2 || fired);
                    if fired && required < fan_in {
                        r.early_fired = true;
                    }
                }

                // ---- Connection-pool discipline -------------------------
                TraceEvent::PoolAcquire { conn, .. } | TraceEvent::PoolGrant { conn, .. } => {
                    if let TraceEvent::PoolGrant { request, .. } = *ev {
                        record!(request, "pool grant");
                    }
                    if conn_state(conn_busy, conn).replace(true) == Some(true) {
                        violation!("pool: connection {conn} acquired while busy");
                    }
                }
                TraceEvent::PoolRelease { conn, .. } => {
                    if conn_state(conn_busy, conn).replace(false) != Some(true) {
                        violation!("pool: connection {conn} released while free");
                    }
                }
                TraceEvent::PoolBlock { .. } => {}
            }
        }
    }

    /// Ends the audit of a log that recorded `events` events and dropped
    /// `dropped`: reconciles what was seen with `counts` (skipped, with a
    /// note, for a truncated log) and returns the report.
    pub fn finish(self, counts: &AuditCounts, events: usize, dropped: u64) -> AuditReport {
        let truncated = dropped > 0;
        let mut notes = Vec::new();
        if truncated {
            notes.push(format!(
                "log truncated ({dropped} events dropped): conservation and completeness checks skipped"
            ));
        }
        let mut violations = self.violations;
        macro_rules! violation {
            ($($arg:tt)*) => {
                violations.push(false, || format!($($arg)*))
            };
        }

        // ---- End-of-log reconciliation: conservation and the counters ---
        if !truncated {
            let (e, c) = (self.emitted_requests, self.completed_requests);
            let (dropped_events, shed_events) = (self.dropped_events, self.shed_events);
            let (timeout_events, measured_events) = (self.timeout_events, self.measured_events);
            if e != c + dropped_events + shed_events + counts.live_requests {
                violation!(
                    "conservation: {e} emitted != {c} completed + {dropped_events} dropped + \
                     {shed_events} shed + {} in flight",
                    counts.live_requests
                );
            }
            let retired = self.retired_requests;
            if e != retired + counts.unretired {
                violation!(
                    "retirement: {e} emitted != {retired} retired + {} still holding a slot",
                    counts.unretired
                );
            }
            if e != counts.generated {
                violation!(
                    "emitted events ({e}) disagree with generated counter ({})",
                    counts.generated
                );
            }
            if c != counts.completed {
                violation!(
                    "completion events ({c}) disagree with completed counter ({})",
                    counts.completed
                );
            }
            if dropped_events != counts.dropped {
                violation!(
                    "drop events ({dropped_events}) disagree with dropped counter ({})",
                    counts.dropped
                );
            }
            if shed_events != counts.shed {
                violation!(
                    "shed events ({shed_events}) disagree with shed counter ({})",
                    counts.shed
                );
            }
            if timeout_events != counts.timeouts {
                violation!(
                    "timeout events ({timeout_events}) disagree with timeout counter ({})",
                    counts.timeouts
                );
            }
            if measured_events != counts.measured {
                violation!(
                    "warmup accounting: {measured_events} measured completions \
                     vs {} recorder samples",
                    counts.measured
                );
            }
        }

        AuditReport {
            violations: violations.finish(truncated),
            notes,
            events_checked: events,
            spans_checked: self.spans_checked,
        }
    }
}

impl TraceAuditor {
    /// Cap on reported violations (the log can contain millions of events;
    /// a broken invariant usually breaks everywhere at once).
    pub const MAX_VIOLATIONS: usize = 100;

    /// Creates an auditor.
    pub fn new() -> Self {
        TraceAuditor
    }

    /// Audits the retained log against `counts`. The returned report lists
    /// every violation found (up to the cap) — an empty list means the run
    /// upheld all checked invariants.
    pub fn audit(&self, log: &TraceLog, counts: &AuditCounts) -> AuditReport {
        let mut fold = AuditFold::new();
        fold.feed(log.retained());
        fold.finish(counts, log.len(), log.dropped())
    }
}

/// The violation for `now` starting on `lane` before `before` ended.
fn overlap(
    kind: &str,
    lane: (u32, u32),
    before: (SimTime, SimTime),
    now: (SimTime, SimTime),
) -> String {
    format!(
        "non-overlap: {kind} {lane:?} services [{}, {}) and [{}, {}) concurrently",
        before.0.as_nanos(),
        before.1.as_nanos(),
        now.0.as_nanos(),
        now.1.as_nanos()
    )
}

/// `conn`'s entry in the dense busy table, grown on demand.
fn conn_state(busy: &mut Vec<Option<bool>>, conn: ConnectionId) -> &mut Option<bool> {
    if conn.index() >= busy.len() {
        busy.resize(conn.index() + 1, None);
    }
    &mut busy[conn.index()]
}

#[cfg(test)]
mod corruption;

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u32) -> RequestId {
        RequestId::new(n, 0)
    }
    fn jid(n: u32) -> JobId {
        JobId::new(n, 0)
    }
    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn log_of(events: Vec<TraceEvent>) -> TraceLog {
        let mut log = TraceLog::new(events.len() + 16);
        for e in events {
            log.record(e);
        }
        log
    }

    fn emit(n: u32, at: u64) -> TraceEvent {
        TraceEvent::RequestEmitted {
            request: rid(n),
            request_type: RequestTypeId::from_raw(0),
            client: ClientId::from_raw(0),
            t: t(at),
        }
    }

    /// A completion that releases the request's slot, as every one does
    /// unless stragglers are in flight.
    fn complete(n: u32, at: u64) -> TraceEvent {
        complete_with(rid(n), true, at)
    }

    fn complete_with(request: RequestId, retired: bool, at: u64) -> TraceEvent {
        TraceEvent::RequestCompleted {
            request,
            request_type: RequestTypeId::from_raw(0),
            timed_out: false,
            measured: true,
            retired,
            t: t(at),
        }
    }

    /// Records a batch on `(core, thread)` of instance 0 / machine 0,
    /// its job list going through the log's arena.
    fn batch(log: &mut TraceLog, core: u32, thread: u32, start: u64, end: u64, jobs: &[JobId]) {
        log.record_batch(jobs, |jobs| TraceEvent::BatchStart {
            instance: InstanceId::from_raw(0),
            machine: MachineId::from_raw(0),
            stage: StageId::from_raw(0),
            thread: ThreadId::from_raw(thread),
            core,
            freq_ghz: 2.6,
            start: t(start),
            end: t(end),
            jobs,
        });
    }

    fn enqueue(job: JobId, request: RequestId, at: u64) -> TraceEvent {
        TraceEvent::Enqueue {
            job,
            request,
            node: PathNodeId::from_raw(0),
            instance: InstanceId::from_raw(0),
            stage: StageId::from_raw(0),
            t: t(at),
        }
    }

    fn counts(generated: u64, completed: u64, live: u64, measured: u64) -> AuditCounts {
        AuditCounts {
            generated,
            completed,
            live_requests: live,
            unretired: live,
            timeouts: 0,
            measured,
            dropped: 0,
            shed: 0,
        }
    }

    fn fan_in(
        req: u32,
        arrivals: u32,
        fan_in: u32,
        required: u32,
        fired: bool,
        at: u64,
    ) -> TraceEvent {
        TraceEvent::FanIn {
            request: rid(req),
            node: PathNodeId::from_raw(2),
            instance: Some(InstanceId::from_raw(0)),
            arrivals,
            fan_in,
            required,
            fired,
            t: t(at),
        }
    }

    #[test]
    fn clean_log_passes() {
        let mut log = log_of(vec![emit(1, 0), enqueue(jid(1), rid(1), 10)]);
        batch(&mut log, 0, 0, 20, 30, &[jid(1)]);
        log.record(complete(1, 40));
        let report = TraceAuditor::new().audit(&log, &counts(1, 1, 0, 1));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.spans_checked, 1);
        let spans = log.spans();
        assert_eq!(spans[0].enqueue_t, t(10));
        assert_eq!(spans[0].start_t, t(20));
        assert_eq!(spans[0].end_t, t(30));
        assert_eq!(spans[0].batch_size, 1);
    }

    #[test]
    fn conservation_violation_detected() {
        let log = log_of(vec![emit(1, 0), emit(2, 5)]);
        // Claim both completed: emitted (2) != completed (0) + live (0).
        let report = TraceAuditor::new().audit(&log, &counts(2, 2, 0, 2));
        assert!(!report.is_clean());
        assert!(
            report.violations.iter().any(|v| v.contains("conservation")),
            "{report:?}"
        );
    }

    #[test]
    fn double_completion_detected() {
        let log = log_of(vec![emit(1, 0), complete(1, 10), complete(1, 20)]);
        let report = TraceAuditor::new().audit(&log, &counts(1, 2, 0, 2));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("completed twice")),
            "{report:?}"
        );
    }

    #[test]
    fn core_overlap_detected() {
        let mut log = TraceLog::new(16);
        batch(&mut log, 0, 0, 0, 100, &[jid(1)]);
        batch(&mut log, 0, 0, 50, 150, &[jid(2)]); // overlaps on core 0 and thread 0
        batch(&mut log, 1, 1, 50, 150, &[jid(3)]); // different core and thread: fine
        let report = TraceAuditor::new().audit(&log, &counts(0, 0, 0, 0));
        let overlaps: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.contains("non-overlap"))
            .collect();
        // One per-core and one per-thread overlap (same thread serviced both).
        assert_eq!(overlaps.len(), 2, "{report:?}");
    }

    #[test]
    fn span_ordering_violation_detected() {
        // Enqueued after service started.
        let mut log = log_of(vec![enqueue(jid(1), rid(1), 50)]);
        batch(&mut log, 0, 0, 20, 30, &[jid(1)]);
        let report = TraceAuditor::new().audit(&log, &counts(0, 0, 0, 0));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("span ordering")),
            "{report:?}"
        );
    }

    #[test]
    fn fan_in_over_arrival_detected() {
        let log = log_of(vec![
            fan_in(1, 1, 2, 2, false, 0),
            fan_in(1, 2, 2, 2, true, 5),
            fan_in(1, 3, 2, 2, false, 9),
        ]);
        let report = TraceAuditor::new().audit(&log, &counts(0, 0, 0, 0));
        assert!(
            report.violations.iter().any(|v| v.contains("fan-in")),
            "{report:?}"
        );
    }

    #[test]
    fn quorum_absorbs_stragglers_cleanly() {
        // required=2 of fan_in=3: firing at the 2nd arrival and absorbing
        // the 3rd is legitimate — no violation.
        let log = log_of(vec![
            fan_in(1, 1, 3, 2, false, 0),
            fan_in(1, 2, 3, 2, true, 5),
            fan_in(1, 3, 3, 2, false, 9),
        ]);
        let report = TraceAuditor::new().audit(&log, &counts(0, 0, 0, 0));
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn quorum_misfire_detected() {
        // required=2 but the node fired at the first arrival.
        let log = log_of(vec![fan_in(1, 1, 3, 2, true, 0)]);
        let report = TraceAuditor::new().audit(&log, &counts(0, 0, 0, 0));
        assert!(
            report.violations.iter().any(|v| v.contains("fired=true")),
            "{report:?}"
        );
    }

    #[test]
    fn terminal_outcomes_are_exclusive_and_conserved() {
        let log = log_of(vec![
            emit(1, 0),
            emit(2, 1),
            emit(3, 2),
            complete(1, 10),
            TraceEvent::RequestDropped {
                request: rid(2),
                t: t(11),
            },
            TraceEvent::RequestShed {
                request: rid(3),
                t: t(12),
            },
        ]);
        let mut c = counts(3, 1, 0, 1);
        c.dropped = 1;
        c.shed = 1;
        let report = TraceAuditor::new().audit(&log, &c);
        assert!(report.is_clean(), "{:?}", report.violations);

        // A request both dropped and completed is a violation.
        let log = log_of(vec![
            emit(1, 0),
            TraceEvent::RequestDropped {
                request: rid(1),
                t: t(5),
            },
            complete(1, 10),
        ]);
        let mut c = counts(1, 1, 0, 1);
        c.dropped = 1;
        let report = TraceAuditor::new().audit(&log, &c);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("after terminal")),
            "{report:?}"
        );
    }

    #[test]
    fn drop_count_mismatch_detected() {
        let log = log_of(vec![
            emit(1, 0),
            TraceEvent::RequestDropped {
                request: rid(1),
                t: t(5),
            },
        ]);
        // Counter claims zero drops but the log has one.
        let report = TraceAuditor::new().audit(&log, &counts(1, 0, 0, 0));
        assert!(
            report.violations.iter().any(|v| v.contains("drop events")),
            "{report:?}"
        );
    }

    #[test]
    fn pool_double_acquire_detected() {
        let c = ConnectionId::from_raw(7);
        let p = PoolId::from_raw(0);
        let log = log_of(vec![
            TraceEvent::PoolAcquire {
                pool: p,
                conn: c,
                job: jid(1),
                t: t(0),
            },
            TraceEvent::PoolAcquire {
                pool: p,
                conn: c,
                job: jid(2),
                t: t(5),
            },
            TraceEvent::PoolRelease {
                pool: p,
                conn: c,
                t: t(10),
            },
            TraceEvent::PoolRelease {
                pool: p,
                conn: c,
                t: t(15),
            },
        ]);
        let report = TraceAuditor::new().audit(&log, &counts(0, 0, 0, 0));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("acquired while busy")),
            "{report:?}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("released while free")),
            "{report:?}"
        );
    }

    #[test]
    fn warmup_accounting_mismatch_detected() {
        let log = log_of(vec![emit(1, 0), complete(1, 10)]);
        // The recorder claims 5 samples but only one measured completion.
        let report = TraceAuditor::new().audit(&log, &counts(1, 1, 0, 5));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("warmup accounting")),
            "{report:?}"
        );
    }

    #[test]
    fn violation_list_is_a_function_of_the_log() {
        // Overlaps on two cores and two threads: the list must come out in
        // log order, and the same on every audit of the same log.
        let mut log = TraceLog::new(16);
        batch(&mut log, 1, 1, 0, 100, &[jid(1)]);
        batch(&mut log, 0, 0, 10, 110, &[jid(2)]);
        batch(&mut log, 0, 0, 60, 160, &[jid(3)]);
        batch(&mut log, 1, 1, 50, 150, &[jid(4)]);
        let first = TraceAuditor::new().audit(&log, &counts(0, 0, 0, 0));
        let second = TraceAuditor::new().audit(&log, &counts(0, 0, 0, 0));
        assert_eq!(first.violations, second.violations);
        let lanes: Vec<&str> = first
            .violations
            .iter()
            .map(|v| v.split(" services").next().unwrap())
            .collect();
        assert_eq!(
            lanes,
            [
                "non-overlap: core (0, 0)",
                "non-overlap: thread (0, 0)",
                "non-overlap: core (0, 1)",
                "non-overlap: thread (0, 1)",
            ]
        );
        // Capped, it is still the same prefix: the same four batches, then
        // 60 more overlapping pairs, one core and one thread each, give 124
        // overlaps in log order, of which the first 100 are reported.
        let mut long = TraceLog::new(256);
        batch(&mut long, 1, 1, 0, 100, &[jid(1)]);
        batch(&mut long, 0, 0, 10, 110, &[jid(2)]);
        batch(&mut long, 0, 0, 60, 160, &[jid(3)]);
        batch(&mut long, 1, 1, 50, 150, &[jid(4)]);
        let mut expected: Vec<String> = lanes.iter().map(|l| l.to_string()).collect();
        for lane in 2..62u32 {
            let (at, job) = (200 * u64::from(lane), 2 * lane);
            batch(&mut long, lane, lane, at, at + 100, &[jid(job)]);
            batch(&mut long, lane, lane, at + 50, at + 150, &[jid(job + 1)]);
            expected.push(format!("non-overlap: core (0, {lane})"));
            expected.push(format!("non-overlap: thread (0, {lane})"));
        }
        assert!(expected.len() > TraceAuditor::MAX_VIOLATIONS);
        let capped = TraceAuditor::new().audit(&long, &counts(0, 0, 0, 0));
        assert_eq!(capped.violations.len(), TraceAuditor::MAX_VIOLATIONS);
        assert_eq!(capped.violations[..4], first.violations);
        let capped_lanes: Vec<&str> = capped
            .violations
            .iter()
            .map(|v| v.split(" services").next().unwrap())
            .collect();
        assert_eq!(capped_lanes, expected[..TraceAuditor::MAX_VIOLATIONS]);
    }

    fn emit_gen(request: RequestId, at: u64) -> TraceEvent {
        TraceEvent::RequestEmitted {
            request,
            request_type: RequestTypeId::from_raw(0),
            client: ClientId::from_raw(0),
            t: t(at),
        }
    }

    fn retire(request: RequestId, at: u64) -> TraceEvent {
        TraceEvent::RequestRetired { request, t: t(at) }
    }

    /// Generation 0 of request slot 1 completes on 2 of 3 parents while
    /// its third branch is still queued; the straggler's span ends after
    /// the completion. `retire_at` says where in the sequence the log
    /// releases the slot, after which generation 1 is emitted in it:
    ///
    /// 0 — with the completion (the straggler then runs behind it);
    /// 1 — after the straggler's enqueue, before its batch;
    /// 2 — after the straggler drained, where the simulator puts it;
    /// 3 — never.
    fn straggler_log(retire_at: usize) -> AuditReport {
        let (old, new) = (RequestId::new(1, 0), RequestId::new(1, 1));
        let mut log = log_of(vec![
            emit_gen(old, 0),
            fan_in(1, 1, 3, 2, false, 10),
            fan_in(1, 2, 3, 2, true, 20),
            complete_with(old, retire_at == 0, 30),
            enqueue(jid(7), old, 35),
        ]);
        if retire_at == 1 {
            log.record(retire(old, 40));
        }
        batch(&mut log, 0, 0, 50, 60, &[jid(7)]);
        log.record(fan_in(1, 3, 3, 2, false, 65));
        if retire_at == 2 {
            log.record(retire(old, 65));
        }
        log.record(emit_gen(new, 70));
        let mut counts = counts(2, 1, 1, 1);
        counts.unretired = if retire_at == 3 { 2 } else { 1 };
        TraceAuditor::new().audit(&log, &counts)
    }

    #[test]
    fn a_request_is_forgotten_at_its_retirement_and_not_before() {
        // Where the simulator retires it: clean, and the straggler's span
        // was checked against the request's early fire, not skipped.
        let report = straggler_log(2);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.spans_checked, 1);

        // Retired too early, every later event of the request is named.
        let named = |report: &AuditReport, what: &str| {
            let text = format!("{what} names request RequestId(1.0) after its retirement");
            report.violations.iter().filter(|v| **v == text).count()
        };
        let report = straggler_log(0);
        assert_eq!(named(&report, "enqueue"), 1, "{:?}", report.violations);
        assert_eq!(named(&report, "span"), 1, "{:?}", report.violations);
        assert_eq!(named(&report, "fan-in"), 1, "{:?}", report.violations);
        assert_eq!(report.violations.len(), 3, "{:?}", report.violations);
        let report = straggler_log(1);
        assert_eq!(named(&report, "span") + named(&report, "fan-in"), 2);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);

        // Never retired, the slot's next emission finds it occupied.
        let report = straggler_log(3);
        assert_eq!(
            report.violations,
            [
                "emission of request RequestId(1.1) takes the slot of RequestId(1.0), \
              which never retired"
            ]
        );
    }

    #[test]
    fn retirement_is_once_after_a_terminal_and_reconciled_at_the_end() {
        let (old, new) = (RequestId::new(1, 0), RequestId::new(1, 1));
        let audit = |events: Vec<TraceEvent>, counts: &AuditCounts| {
            TraceAuditor::new()
                .audit(&log_of(events), counts)
                .violations
        };
        let done = counts(1, 1, 0, 1);
        // Twice: riding on the completion, then again on its own.
        assert_eq!(
            audit(vec![emit(1, 0), complete(1, 10), retire(old, 11)], &done),
            ["request RequestId(1.0) retired twice"]
        );
        // Before any terminal outcome.
        let mut live = counts(1, 0, 1, 0);
        live.unretired = 0;
        assert_eq!(
            audit(vec![emit(1, 0), retire(old, 5)], &live),
            ["request RequestId(1.0) retired before any terminal outcome"]
        );
        // Of a request that does not hold the slot: never emitted, or an
        // earlier generation.
        assert_eq!(
            audit(vec![retire(old, 5)], &counts(0, 0, 0, 0)),
            ["request RequestId(1.0) retired without holding its slot"]
        );
        let mut two = counts(2, 1, 1, 1);
        two.unretired = 1;
        assert_eq!(
            audit(
                vec![
                    emit(1, 0),
                    complete(1, 10),
                    emit_gen(new, 20),
                    retire(old, 25)
                ],
                &two
            ),
            ["request RequestId(1.0) retired without holding its slot"]
        );
        // An event of a generation the slot has moved on from is named and
        // otherwise left out: no record is made for it.
        assert_eq!(
            audit(
                vec![
                    emit(1, 0),
                    complete(1, 10),
                    emit_gen(new, 20),
                    enqueue(jid(7), old, 25)
                ],
                &two
            ),
            ["enqueue names request RequestId(1.0) after its retirement \
              (its slot is RequestId(1.1)'s)"]
        );
        // A retirement the log lost: the counters notice at the end, even
        // if the slot is never emitted again.
        let lost = vec![emit(1, 0), complete_with(old, false, 10)];
        assert_eq!(
            audit(lost, &done),
            ["retirement: 1 emitted != 0 retired + 0 still holding a slot"]
        );
    }

    #[test]
    fn truncated_log_skips_conservation() {
        let mut log = TraceLog::new(1);
        log.record(emit(1, 0));
        log.record(emit(2, 5)); // dropped
        assert_eq!(log.dropped(), 1);
        let report = TraceAuditor::new().audit(&log, &counts(2, 0, 2, 0));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(!report.notes.is_empty());
    }

    #[test]
    fn held_back_violations_leave_the_list_a_knowing_auditor_makes() {
        // `m*` need a complete log, `u*` do not: u0 m0 u1 m1 u2 u3 … past
        // the cap.
        const CAP: usize = TraceAuditor::MAX_VIOLATIONS;
        let pushed: Vec<(bool, String)> = (0..=CAP)
            .flat_map(|i| {
                let marked = (i < 2).then(|| (true, format!("m{i}")));
                std::iter::once((false, format!("u{i}"))).chain(marked)
            })
            .collect();
        let list = |truncated: bool| {
            let mut v = Violations::default();
            for (marked, name) in &pushed {
                v.push(*marked, || name.clone());
            }
            v.finish(truncated)
        };
        // Complete log: the first CAP of all. Truncated: the marked ones
        // never counted, so the first CAP unmarked.
        let names = |marked: Option<bool>| -> Vec<String> {
            let kept = pushed
                .iter()
                .filter(|(m, _)| marked.is_none_or(|k| *m == k));
            kept.take(CAP).map(|(_, name)| name.clone()).collect()
        };
        assert_eq!(list(false), names(None));
        assert_eq!(list(false)[..4], ["u0", "m0", "u1", "m1"]);
        assert_eq!(list(true), names(Some(false)));
        assert_eq!(list(true)[..3], ["u0", "u1", "u2"]);
    }

    #[test]
    fn streamed_log_hands_over_every_event_once_in_order() {
        let capacity = 5 * CHUNK_EVENTS / 2;
        let offered = capacity + 1_000;
        let (mut log, chunks) = TraceLog::streaming(capacity);
        let seen = std::thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                // Emission times, and for a batch its first job.
                let mut seen = Vec::new();
                chunks.drain(|chunk| {
                    for ev in chunk.events() {
                        seen.push(match *ev {
                            TraceEvent::BatchStart { start, jobs, .. } => {
                                (start, Some(chunk.batch_jobs(jobs)[0]))
                            }
                            _ => (ev.time(), None),
                        });
                    }
                });
                seen
            });
            for i in 0..offered {
                if i % 3 == 0 {
                    batch(&mut log, 0, 0, i as u64, i as u64, &[jid(i as u32)]);
                } else {
                    log.record(emit(i as u32, i as u64));
                }
            }
            log.close();
            consumer.join().expect("consumer finishes")
        });
        assert_eq!(seen.len(), capacity);
        for (i, &(at, job)) in seen.iter().enumerate() {
            assert_eq!(at, t(i as u64));
            assert_eq!(job, (i % 3 == 0).then(|| jid(i as u32)));
        }
        // The totals outlive the events.
        assert_eq!(log.len(), capacity);
        assert_eq!(log.dropped(), 1_000);
        assert!(log.events().is_empty());
        assert!(log.chunks_allocated() <= STREAM_DEPTH + 2);
    }

    #[test]
    fn chrome_trace_shape() {
        let meta = TraceMeta {
            machines: vec![MachineMeta {
                name: "m0".into(),
                cores: 2,
            }],
            instances: vec![InstanceMeta {
                name: "svc0".into(),
                machine: 0,
                stages: vec!["proc".into()],
            }],
            request_types: vec![RequestTypeMeta {
                name: "get".into(),
                nodes: vec!["svc".into(), "client_sink".into()],
            }],
            pools: vec![],
            clients: vec![ClientMeta { name: "wrk".into() }],
        };
        let mut log = log_of(vec![emit(1, 1_000)]);
        batch(&mut log, 0, 0, 2_000, 3_500, &[jid(1)]);
        log.record(complete(1, 5_000));
        let v = serde_json::to_value(chrome_trace(&log, &meta)).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        // 1 process + 2 thread metadata + 1 requests process + 3 payload.
        assert_eq!(events.len(), 7);
        let span = events
            .iter()
            .find(|e| e["ph"] == "X")
            .expect("complete span present");
        assert_eq!(span["name"], "svc0/proc");
        assert_eq!(span["ts"].as_f64().unwrap(), 2.0);
        assert_eq!(span["dur"].as_f64().unwrap(), 1.5);
        let b = events.iter().find(|e| e["ph"] == "b").unwrap();
        let e = events.iter().find(|e| e["ph"] == "e").unwrap();
        assert_eq!(b["id"], e["id"]);
        assert_eq!(b["name"], "get");
    }
}
