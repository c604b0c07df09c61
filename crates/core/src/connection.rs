//! Connections and connection pools.
//!
//! µqSim models HTTP/1.1-style blocking explicitly (§III-C): a connection
//! admits **one outstanding request at a time**; further sends queue behind
//! it. Tiers talk over fixed-size *connection pools*, whose exhaustion is a
//! first-class source of backpressure in microservice graphs.
//!
//! A connection is bound to a worker thread at each endpoint — requests
//! arriving at the server side enter that thread's queues, and replies
//! arriving back at the client side enter the original sender's queues —
//! matching how event-driven servers (NGINX, memcached) own sockets
//! per-worker.

use crate::ids::{ClientId, ConnectionId, InstanceId, JobId, PoolId, RequestId, ThreadId};
use std::collections::VecDeque;

/// The upstream (initiating) endpoint of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpEndpoint {
    /// An external workload client.
    Client(ClientId),
    /// A microservice instance (a worker thread within it).
    Instance {
        /// The upstream instance.
        instance: InstanceId,
        /// The worker thread owning this connection at the upstream.
        thread: ThreadId,
    },
}

/// Runtime state of one connection.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Upstream endpoint.
    pub up: UpEndpoint,
    /// Downstream (serving) instance.
    pub down_instance: InstanceId,
    /// Worker thread owning this connection at the downstream instance.
    pub down_thread: ThreadId,
    /// Whether a request is currently outstanding (HTTP/1.1 blocking).
    pub busy: bool,
    /// Requests queued on this connection waiting for the slot (client
    /// connections only; pools use a pool-level wait queue instead).
    pub pending: VecDeque<RequestId>,
    /// Owning pool, if this is a pooled inter-tier connection.
    pub pool: Option<PoolId>,
}

impl Connection {
    /// Creates an idle connection.
    pub fn new(up: UpEndpoint, down_instance: InstanceId, down_thread: ThreadId) -> Self {
        Connection {
            up,
            down_instance,
            down_thread,
            busy: false,
            pending: VecDeque::new(),
            pool: None,
        }
    }

    /// The worker thread bound to this connection at `instance`, if
    /// `instance` is one of its endpoints.
    pub fn thread_at(&self, instance: InstanceId) -> Option<ThreadId> {
        if self.down_instance == instance {
            return Some(self.down_thread);
        }
        if let UpEndpoint::Instance {
            instance: up,
            thread,
        } = self.up
        {
            if up == instance {
                return Some(thread);
            }
        }
        None
    }
}

/// A fixed-size pool of connections between an upstream instance and a
/// downstream instance.
#[derive(Debug, Clone)]
pub struct ConnectionPool {
    /// Upstream instance.
    pub up_instance: InstanceId,
    /// Downstream instance.
    pub down_instance: InstanceId,
    /// All member connections.
    pub conns: Vec<ConnectionId>,
    /// Currently free member connections, each paired with its (immutable)
    /// upstream thread binding so `acquire` can scan for a preferred thread
    /// without dereferencing the global connection table per element.
    free: VecDeque<(ConnectionId, ThreadId)>,
    /// Jobs waiting for a free connection, FIFO.
    waiters: VecDeque<JobId>,
    /// Connections removed from service by a fault (leaked / shrunk); they
    /// are neither free nor busy until restored.
    leaked: Vec<(ConnectionId, ThreadId)>,
}

/// Upstream thread binding of a pooled connection (pools only connect
/// instances, never clients).
fn up_thread(conn_table: &[Connection], c: ConnectionId) -> ThreadId {
    match conn_table[c.index()].up {
        UpEndpoint::Instance { thread, .. } => thread,
        UpEndpoint::Client(_) => unreachable!("pooled connections originate from instances"),
    }
}

impl ConnectionPool {
    /// Creates a pool over the given (already-created) connections, all free.
    pub fn new(
        up_instance: InstanceId,
        down_instance: InstanceId,
        conns: Vec<ConnectionId>,
        conn_table: &[Connection],
    ) -> Self {
        let free = conns
            .iter()
            .map(|&c| (c, up_thread(conn_table, c)))
            .collect();
        ConnectionPool {
            up_instance,
            down_instance,
            conns,
            free,
            waiters: VecDeque::new(),
            leaked: Vec::new(),
        }
    }

    /// Acquires a free connection, preferring one whose upstream endpoint is
    /// bound to `prefer_thread` (so the reply returns to the sending
    /// worker). Returns `None` when the pool is exhausted.
    pub fn acquire(&mut self, prefer_thread: ThreadId) -> Option<ConnectionId> {
        if self.free.is_empty() {
            return None;
        }
        let pos = self
            .free
            .iter()
            .position(|&(_, thread)| thread == prefer_thread)
            .unwrap_or(0);
        self.free.remove(pos).map(|(c, _)| c)
    }

    /// Returns a connection to the pool. If jobs are waiting, hands the
    /// connection to the first waiter instead and returns it.
    pub fn release(
        &mut self,
        conn: ConnectionId,
        up_thread: ThreadId,
    ) -> Option<(JobId, ConnectionId)> {
        if let Some(job) = self.waiters.pop_front() {
            Some((job, conn))
        } else {
            self.free.push_back((conn, up_thread));
            None
        }
    }

    /// Enqueues a job to wait for a free connection.
    pub fn enqueue_waiter(&mut self, job: JobId) {
        self.waiters.push_back(job);
    }

    /// Number of free connections.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of waiting jobs.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// Removes up to `n` currently-free connections from service (a
    /// connection-leak / pool-shrink fault). Returns how many were actually
    /// leaked (bounded by the free count — busy connections stay busy and
    /// return to service normally on release).
    pub fn leak(&mut self, n: usize) -> usize {
        let take = n.min(self.free.len());
        for _ in 0..take {
            let entry = self.free.pop_back().expect("checked free count");
            self.leaked.push(entry);
        }
        take
    }

    /// Returns every leaked connection to service. Waiting jobs are handed
    /// connections first (FIFO), mirroring [`ConnectionPool::release`]; the
    /// returned grants must be re-sent by the caller.
    pub fn restore_leaked(&mut self) -> Vec<(JobId, ConnectionId)> {
        let mut grants = Vec::new();
        while let Some((c, th)) = self.leaked.pop() {
            if let Some(grant) = self.release(c, th) {
                grants.push(grant);
            }
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(up_thread: u32, down_thread: u32) -> Connection {
        Connection::new(
            UpEndpoint::Instance {
                instance: InstanceId::from_raw(0),
                thread: ThreadId::from_raw(up_thread),
            },
            InstanceId::from_raw(1),
            ThreadId::from_raw(down_thread),
        )
    }

    fn cid(n: u32) -> ConnectionId {
        ConnectionId::from_raw(n)
    }
    fn jid(n: u32) -> JobId {
        JobId::new(n, 0)
    }

    #[test]
    fn thread_at_resolves_both_endpoints() {
        let c = conn(3, 7);
        assert_eq!(
            c.thread_at(InstanceId::from_raw(1)),
            Some(ThreadId::from_raw(7))
        );
        assert_eq!(
            c.thread_at(InstanceId::from_raw(0)),
            Some(ThreadId::from_raw(3))
        );
        assert_eq!(c.thread_at(InstanceId::from_raw(9)), None);
    }

    #[test]
    fn client_conn_has_no_upstream_thread() {
        let c = Connection::new(
            UpEndpoint::Client(ClientId::from_raw(0)),
            InstanceId::from_raw(1),
            ThreadId::from_raw(2),
        );
        assert_eq!(c.thread_at(InstanceId::from_raw(0)), None);
        assert_eq!(
            c.thread_at(InstanceId::from_raw(1)),
            Some(ThreadId::from_raw(2))
        );
    }

    #[test]
    fn pool_acquire_prefers_matching_thread() {
        let table = vec![conn(0, 0), conn(1, 1), conn(1, 2)];
        let mut pool = ConnectionPool::new(
            InstanceId::from_raw(0),
            InstanceId::from_raw(1),
            vec![cid(0), cid(1), cid(2)],
            &table,
        );
        // Prefer thread 1 → gets conn 1 even though conn 0 is first.
        let got = pool.acquire(ThreadId::from_raw(1)).unwrap();
        assert_eq!(got, cid(1));
        // Next prefer-1 gets conn 2 (also thread 1 upstream).
        assert_eq!(pool.acquire(ThreadId::from_raw(1)).unwrap(), cid(2));
        // Exhausted preference falls back to front of free list.
        assert_eq!(pool.acquire(ThreadId::from_raw(1)).unwrap(), cid(0));
        assert!(pool.acquire(ThreadId::from_raw(1)).is_none());
    }

    #[test]
    fn pool_release_hands_to_waiter_first() {
        let table = vec![conn(0, 0)];
        let mut pool = ConnectionPool::new(
            InstanceId::from_raw(0),
            InstanceId::from_raw(1),
            vec![cid(0)],
            &table,
        );
        let got = pool.acquire(ThreadId::from_raw(0)).unwrap();
        pool.enqueue_waiter(jid(42));
        pool.enqueue_waiter(jid(43));
        assert_eq!(pool.waiter_count(), 2);
        // Release: conn is handed to job 42, not returned to the free list.
        assert_eq!(
            pool.release(got, ThreadId::from_raw(0)),
            Some((jid(42), cid(0)))
        );
        assert_eq!(pool.free_count(), 0);
        assert_eq!(
            pool.release(got, ThreadId::from_raw(0)),
            Some((jid(43), cid(0)))
        );
        // No waiters left: goes back to the free list.
        assert_eq!(pool.release(got, ThreadId::from_raw(0)), None);
        assert_eq!(pool.free_count(), 1);
    }

    #[test]
    fn pool_counts() {
        let table = vec![conn(0, 0), conn(1, 1)];
        let mut pool = ConnectionPool::new(
            InstanceId::from_raw(0),
            InstanceId::from_raw(1),
            vec![cid(0), cid(1)],
            &table,
        );
        assert_eq!(pool.free_count(), 2);
        assert_eq!(pool.waiter_count(), 0);
        pool.enqueue_waiter(jid(1));
        assert_eq!(pool.waiter_count(), 1);
    }
}
