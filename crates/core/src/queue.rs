//! Runtime stage queues.
//!
//! Each deployed stage owns a [`StageQueue`] matching its declared
//! [`QueueDiscipline`]: a plain FIFO, or
//! per-connection subqueues with socket- or epoll-style batching. Batch
//! assembly follows §III-B of the paper:
//!
//! * **epoll**: one invocation returns the first `N` jobs of *each* active
//!   subqueue;
//! * **socket**: one invocation returns the first `N` jobs of a *single*
//!   ready connection (connections served round-robin);
//! * **single**: one job per invocation.

use crate::fasthash::FastMap;
use crate::ids::{ConnectionId, JobId};
use crate::stage::QueueDiscipline;
use std::collections::VecDeque;

/// A runtime queue for one stage instance.
///
/// A job that arrives at an empty queue — the common case: a stage that
/// keeps up with its load holds at most one job at a time — is held
/// inline (`lone`) and costs neither a hash probe nor a ring-buffer round
/// trip, to park or to take out again. The discipline's own containers
/// (the backlog) come into play when a second job arrives: the first is
/// parked ahead of it, in arrival order, so from there on they hold
/// exactly what they would have held had both gone through them — same
/// rotation, same batches (`tests::inline_job_matches_map_only_reference`).
#[derive(Debug, Clone)]
pub struct StageQueue {
    /// The queue's only job and the connection it came on; `Some` implies
    /// `len == 1` and an empty backlog.
    lone: Option<(ConnectionId, JobId)>,
    /// Total queued jobs, `lone` included.
    len: usize,
    backlog: Backlog,
}

/// Where a stage's jobs wait once there is more than one of them.
#[derive(Debug, Clone)]
enum Backlog {
    /// Plain FIFO.
    Single(VecDeque<JobId>),
    /// Per-connection subqueues with a batching mode.
    PerConn {
        /// Jobs per connection. Never iterated for output, so hash order
        /// cannot show.
        subqueues: FastMap<ConnectionId, VecDeque<JobId>>,
        /// Ready (non-empty) connections in arrival/rotation order.
        active: VecDeque<ConnectionId>,
        /// Jobs one invocation takes from a connection (`Socket::batch` /
        /// `Epoll::batch_per_conn`).
        cap: usize,
        /// Whether one invocation visits every ready connection (epoll)
        /// or the first (socket).
        every_conn: bool,
    },
}

impl StageQueue {
    /// Creates the queue matching a discipline.
    pub fn new(discipline: QueueDiscipline) -> Self {
        let per_conn = |cap, every_conn| Backlog::PerConn {
            subqueues: FastMap::default(),
            active: VecDeque::new(),
            cap,
            every_conn,
        };
        StageQueue {
            lone: None,
            len: 0,
            backlog: match discipline {
                QueueDiscipline::Single => Backlog::Single(VecDeque::new()),
                QueueDiscipline::Socket { batch } => per_conn(batch, false),
                QueueDiscipline::Epoll { batch_per_conn } => per_conn(batch_per_conn, true),
            },
        }
    }

    /// Enqueues a job. `conn` selects the subqueue for per-connection
    /// disciplines and is ignored for `Single`.
    pub fn push(&mut self, job: JobId, conn: ConnectionId) {
        if self.len == 0 {
            self.lone = Some((conn, job));
        } else {
            if let Some((first_conn, first_job)) = self.lone.take() {
                self.backlog.push(first_job, first_conn);
            }
            self.backlog.push(job, conn);
        }
        self.len += 1;
    }

    /// Total queued jobs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Assembles the next batch according to the discipline, removing the
    /// jobs from the queue. Returns an empty vector if nothing is queued.
    /// Convenience wrapper around [`StageQueue::assemble_batch_into`].
    pub fn assemble_batch(&mut self) -> Vec<JobId> {
        let mut out = Vec::new();
        self.assemble_batch_into(&mut out);
        out
    }

    /// Assembles the next batch into `out` (cleared first), letting the
    /// dispatch hot path reuse one scratch vector instead of allocating a
    /// fresh one per batch.
    pub fn assemble_batch_into(&mut self, out: &mut Vec<JobId>) {
        out.clear();
        match self.lone {
            // One job on one connection is the whole batch under every
            // discipline (a cap of zero takes nothing, as the backlog's
            // harvest would).
            Some((_, job)) if self.backlog.cap() > 0 => {
                out.push(job);
                self.lone = None;
            }
            Some(_) => {}
            None => self.backlog.assemble_batch_into(out),
        }
        self.len -= out.len();
    }

    /// Removes and returns every queued job, in deterministic (FIFO /
    /// connection-id) order. Used when a fault drains a crashed instance's
    /// queues.
    pub fn drain_all(&mut self) -> Vec<JobId> {
        self.len = 0;
        match self.lone.take() {
            Some((_, job)) => vec![job],
            None => self.backlog.drain_all(),
        }
    }

    /// Drops any empty subqueues (housekeeping for long runs with ephemeral
    /// connections). No-op for `Single`.
    pub fn compact(&mut self) {
        if let Backlog::PerConn { subqueues, .. } = &mut self.backlog {
            subqueues.retain(|_, q| !q.is_empty());
        }
    }
}

impl Backlog {
    /// Most jobs one invocation takes from one connection.
    fn cap(&self) -> usize {
        match self {
            Backlog::Single(_) => 1,
            Backlog::PerConn { cap, .. } => *cap,
        }
    }

    fn push(&mut self, job: JobId, conn: ConnectionId) {
        match self {
            Backlog::Single(q) => q.push_back(job),
            Backlog::PerConn {
                subqueues, active, ..
            } => {
                let sub = subqueues.entry(conn).or_default();
                if sub.is_empty() {
                    active.push_back(conn);
                }
                sub.push_back(job);
            }
        }
    }

    /// Appends the next batch to `out`: one job (single), up to `cap` jobs
    /// of the first ready connection (socket), or of every ready
    /// connection (epoll). Connections with jobs left rotate to the back.
    fn assemble_batch_into(&mut self, out: &mut Vec<JobId>) {
        match self {
            Backlog::Single(q) => out.extend(q.pop_front()),
            Backlog::PerConn {
                subqueues,
                active,
                cap,
                every_conn,
            } => {
                let harvests = if *every_conn {
                    active.len()
                } else {
                    active.len().min(1)
                };
                for _ in 0..harvests {
                    let conn = active.pop_front().expect("counted active conn");
                    let sub = subqueues.get_mut(&conn).expect("active conn has subqueue");
                    for _ in 0..*cap {
                        match sub.pop_front() {
                            Some(j) => out.push(j),
                            None => break,
                        }
                    }
                    if !sub.is_empty() {
                        active.push_back(conn);
                    }
                }
            }
        }
    }

    fn drain_all(&mut self) -> Vec<JobId> {
        match self {
            Backlog::Single(q) => q.drain(..).collect(),
            Backlog::PerConn {
                subqueues, active, ..
            } => {
                // Hash-map iteration order is not deterministic; draining
                // active connections in ascending id order reproduces the
                // original BTreeMap key order byte for byte (a connection
                // is active exactly when its subqueue is non-empty).
                let mut out = Vec::new();
                let mut conns: Vec<ConnectionId> = active.drain(..).collect();
                conns.sort_unstable();
                for conn in conns {
                    let sub = subqueues.get_mut(&conn).expect("active conn has subqueue");
                    out.extend(sub.drain(..));
                }
                out
            }
        }
    }
}

/// One queue set: per-stage queues plus a non-empty bitmask so the
/// dispatcher finds the latest ready stage with one `leading_zeros`
/// instead of a linear scan (the scan dominated the dispatch hot path).
///
/// The mask is maintained by [`StageQueueSet::push`] /
/// [`StageQueueSet::assemble_batch_into`] / [`StageQueueSet::drain_all`];
/// all mutation goes through those methods so it cannot drift.
#[derive(Debug, Clone)]
pub struct StageQueueSet {
    stages: Vec<StageQueue>,
    /// Bit `s` set ⇔ `stages[s]` is non-empty.
    nonempty: u64,
}

impl StageQueueSet {
    /// Wraps per-stage queues. Stage count is capped at 64 by the mask
    /// width; real services have a handful of stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages.len() > 64`.
    pub fn new(stages: Vec<StageQueue>) -> Self {
        assert!(
            stages.len() <= 64,
            "a service is limited to 64 stages (got {})",
            stages.len()
        );
        StageQueueSet {
            stages,
            nonempty: 0,
        }
    }

    /// Enqueues a job into `stage`.
    pub fn push(&mut self, stage: usize, job: JobId, conn: ConnectionId) {
        self.stages[stage].push(job, conn);
        self.nonempty |= 1u64 << stage;
    }

    /// Assembles the next batch of `stage` into `out` (cleared first).
    pub fn assemble_batch_into(&mut self, stage: usize, out: &mut Vec<JobId>) {
        self.stages[stage].assemble_batch_into(out);
        if self.stages[stage].is_empty() {
            self.nonempty &= !(1u64 << stage);
        }
    }

    /// Index of the latest (highest-index) non-empty stage, if any.
    #[inline]
    pub fn highest_nonempty(&self) -> Option<usize> {
        if self.nonempty == 0 {
            None
        } else {
            Some(63 - self.nonempty.leading_zeros() as usize)
        }
    }

    /// Total queued jobs across all stages.
    pub fn len(&self) -> usize {
        self.stages.iter().map(StageQueue::len).sum()
    }

    /// True if no stage has queued jobs.
    pub fn is_empty(&self) -> bool {
        self.nonempty == 0
    }

    /// Removes and returns every queued job, stage by stage in index order
    /// (used when a fault drains a crashed instance).
    pub fn drain_all(&mut self) -> Vec<JobId> {
        let mut out = Vec::new();
        for q in &mut self.stages {
            out.extend(q.drain_all());
        }
        self.nonempty = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u32) -> JobId {
        JobId::new(n, 0)
    }
    fn c(n: u32) -> ConnectionId {
        ConnectionId::from_raw(n)
    }

    #[test]
    fn single_is_fifo_one_at_a_time() {
        let mut q = StageQueue::new(QueueDiscipline::Single);
        q.push(j(1), c(0));
        q.push(j(2), c(9));
        assert_eq!(q.len(), 2);
        assert_eq!(q.assemble_batch(), vec![j(1)]);
        assert_eq!(q.assemble_batch(), vec![j(2)]);
        assert!(q.assemble_batch().is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn epoll_harvests_every_active_connection() {
        let mut q = StageQueue::new(QueueDiscipline::Epoll { batch_per_conn: 2 });
        // conn0: 3 jobs, conn1: 1 job, conn2: 2 jobs
        q.push(j(1), c(0));
        q.push(j(2), c(0));
        q.push(j(3), c(0));
        q.push(j(4), c(1));
        q.push(j(5), c(2));
        q.push(j(6), c(2));
        let batch = q.assemble_batch();
        // Up to 2 per conn, in activation order: conn0 → (1,2), conn1 → (4), conn2 → (5,6)
        assert_eq!(batch, vec![j(1), j(2), j(4), j(5), j(6)]);
        assert_eq!(q.len(), 1);
        // Remaining job on conn0 comes in the next harvest.
        assert_eq!(q.assemble_batch(), vec![j(3)]);
    }

    #[test]
    fn socket_drains_one_connection_round_robin() {
        let mut q = StageQueue::new(QueueDiscipline::Socket { batch: 2 });
        q.push(j(1), c(0));
        q.push(j(2), c(0));
        q.push(j(3), c(0));
        q.push(j(4), c(1));
        // First call: 2 jobs from conn0; conn0 rotates behind conn1.
        assert_eq!(q.assemble_batch(), vec![j(1), j(2)]);
        assert_eq!(q.assemble_batch(), vec![j(4)]);
        assert_eq!(q.assemble_batch(), vec![j(3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn reactivation_after_drain() {
        let mut q = StageQueue::new(QueueDiscipline::Epoll { batch_per_conn: 4 });
        q.push(j(1), c(0));
        assert_eq!(q.assemble_batch(), vec![j(1)]);
        // Re-push on the same conn reactivates it.
        q.push(j(2), c(0));
        assert_eq!(q.assemble_batch(), vec![j(2)]);
    }

    #[test]
    fn len_tracks_across_operations() {
        let mut q = StageQueue::new(QueueDiscipline::Socket { batch: 3 });
        for i in 0..10 {
            q.push(j(i), c(i % 3));
        }
        assert_eq!(q.len(), 10);
        let mut popped = 0;
        while !q.is_empty() {
            popped += q.assemble_batch().len();
        }
        assert_eq!(popped, 10);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn compact_removes_empty_subqueues() {
        let mut q = StageQueue::new(QueueDiscipline::Epoll { batch_per_conn: 8 });
        for i in 0..100 {
            q.push(j(i), c(i));
        }
        while !q.is_empty() {
            q.assemble_batch();
        }
        q.compact();
        if let Backlog::PerConn { subqueues, .. } = &q.backlog {
            assert!(subqueues.is_empty());
        } else {
            panic!("expected PerConn");
        }
    }

    #[test]
    fn empty_batch_from_empty_queue() {
        let mut q = StageQueue::new(QueueDiscipline::Epoll { batch_per_conn: 2 });
        assert!(q.assemble_batch().is_empty());
        let mut q = StageQueue::new(QueueDiscipline::Socket { batch: 2 });
        assert!(q.assemble_batch().is_empty());
    }

    /// The queue before `lone` existed — every job goes through the
    /// discipline's containers, the two per-connection harvests written
    /// out one by one — kept as the oracle for what batches, in what
    /// order, the inline job must give.
    struct MapOnly {
        mode: QueueDiscipline,
        fifo: VecDeque<JobId>,
        subqueues: FastMap<ConnectionId, VecDeque<JobId>>,
        active: VecDeque<ConnectionId>,
    }

    impl MapOnly {
        fn new(mode: QueueDiscipline) -> Self {
            MapOnly {
                mode,
                fifo: VecDeque::new(),
                subqueues: FastMap::default(),
                active: VecDeque::new(),
            }
        }

        fn push(&mut self, job: JobId, conn: ConnectionId) {
            if self.mode == QueueDiscipline::Single {
                self.fifo.push_back(job);
            } else {
                let sub = self.subqueues.entry(conn).or_default();
                if sub.is_empty() {
                    self.active.push_back(conn);
                }
                sub.push_back(job);
            }
        }

        fn len(&self) -> usize {
            self.fifo.len() + self.subqueues.values().map(VecDeque::len).sum::<usize>()
        }

        fn assemble_batch(&mut self) -> Vec<JobId> {
            let mut out = Vec::new();
            match self.mode {
                QueueDiscipline::Single => out.extend(self.fifo.pop_front()),
                QueueDiscipline::Epoll { batch_per_conn } => {
                    for _ in 0..self.active.len() {
                        let conn = self.active.pop_front().unwrap();
                        let sub = self.subqueues.get_mut(&conn).unwrap();
                        for _ in 0..batch_per_conn {
                            match sub.pop_front() {
                                Some(j) => out.push(j),
                                None => break,
                            }
                        }
                        if !sub.is_empty() {
                            self.active.push_back(conn);
                        }
                    }
                }
                QueueDiscipline::Socket { batch } => {
                    if let Some(conn) = self.active.pop_front() {
                        let sub = self.subqueues.get_mut(&conn).unwrap();
                        for _ in 0..batch {
                            match sub.pop_front() {
                                Some(j) => out.push(j),
                                None => break,
                            }
                        }
                        if !sub.is_empty() {
                            self.active.push_back(conn);
                        }
                    }
                }
            }
            out
        }

        fn drain_all(&mut self) -> Vec<JobId> {
            let mut out: Vec<JobId> = self.fifo.drain(..).collect();
            let mut conns: Vec<ConnectionId> = self.active.drain(..).collect();
            conns.sort_unstable();
            for conn in conns {
                out.extend(self.subqueues.get_mut(&conn).unwrap().drain(..));
            }
            out
        }
    }

    // Differential property: a set of queues with the inline job gives, at
    // every step of a random interleaving of pushes, batches, drains and
    // compactions, what the same set of map-only queues gives. Few
    // connections and as many batches as pushes, so that each queue keeps
    // going empty → one job → several → empty, on one connection and on
    // more.
    #[test]
    fn inline_job_matches_map_only_reference() {
        use rand::Rng;
        let modes = [
            QueueDiscipline::Single,
            QueueDiscipline::Socket { batch: 1 },
            QueueDiscipline::Socket { batch: 3 },
            QueueDiscipline::Epoll { batch_per_conn: 1 },
            QueueDiscipline::Epoll { batch_per_conn: 2 },
            QueueDiscipline::Epoll { batch_per_conn: 8 },
        ];
        for trial in 0..20u64 {
            let mut rng = crate::rng::RngFactory::new(trial).stream("queue-diff", 0);
            let mut set = StageQueueSet::new(modes.iter().map(|&m| StageQueue::new(m)).collect());
            let mut reference: Vec<MapOnly> = modes.iter().map(|&m| MapOnly::new(m)).collect();
            let mut batch = Vec::new();
            let mut lone_batches = 0;
            for step in 0..4000u32 {
                let stage = rng.gen_range(0..modes.len());
                let what = format!("trial {trial} step {step} {:?}", modes[stage]);
                match rng.gen_range(0..100) {
                    0..=47 => {
                        let conn = c(rng.gen_range(0..4));
                        set.push(stage, j(step), conn);
                        reference[stage].push(j(step), conn);
                    }
                    48..=95 => {
                        let held_inline = set.stages[stage].lone.is_some();
                        set.assemble_batch_into(stage, &mut batch);
                        assert_eq!(batch, reference[stage].assemble_batch(), "{what}");
                        lone_batches += u32::from(held_inline);
                    }
                    96..=97 => {
                        let want: Vec<JobId> =
                            reference.iter_mut().flat_map(MapOnly::drain_all).collect();
                        assert_eq!(set.drain_all(), want, "{what}: drain");
                    }
                    _ => set.stages[stage].compact(),
                }
                let lens: Vec<usize> = reference.iter().map(MapOnly::len).collect();
                for (q, &len) in set.stages.iter().zip(&lens) {
                    assert_eq!((q.len(), q.is_empty()), (len, len == 0), "{what}");
                }
                assert_eq!(set.len(), lens.iter().sum::<usize>(), "{what}");
                assert_eq!(set.is_empty(), lens.iter().all(|&l| l == 0), "{what}");
                assert_eq!(
                    set.highest_nonempty(),
                    lens.iter().rposition(|&l| l > 0),
                    "{what}"
                );
            }
            assert!(lone_batches > 300, "the inline path was exercised");
        }
    }

    // Property test: no job is lost or duplicated under random operations.
    #[test]
    fn conservation_property() {
        use rand::Rng;
        let mut rng = crate::rng::RngFactory::new(8).stream("queue", 0);
        for mode in [
            QueueDiscipline::Single,
            QueueDiscipline::Socket { batch: 3 },
            QueueDiscipline::Epoll { batch_per_conn: 2 },
        ] {
            let mut q = StageQueue::new(mode);
            let mut pushed = Vec::new();
            let mut popped = Vec::new();
            let mut next = 0u32;
            for _ in 0..2000 {
                if rng.gen_bool(0.6) {
                    q.push(j(next), c(rng.gen_range(0..5)));
                    pushed.push(j(next));
                    next += 1;
                } else {
                    popped.extend(q.assemble_batch());
                }
            }
            while !q.is_empty() {
                popped.extend(q.assemble_batch());
            }
            pushed.sort();
            popped.sort();
            assert_eq!(pushed, popped, "conservation violated for {mode:?}");
        }
    }
}
