//! The request path: fan-out to child nodes, instance selection, and
//! pooled and ephemeral connections between instances.

use super::observe::{CritSiteRef, Observers};
use super::{Cx, Simulator};
use crate::connection::{Connection, ConnectionPool, UpEndpoint};
use crate::event::EventKind;
use crate::fasthash::FastMap;
use crate::ids::{
    ConnectionId, InstanceId, JobId, PathNodeId, PoolId, RequestId, RequestTypeId, ThreadId,
};
use crate::job::Request;
use crate::path::{InstanceSelect, LinkKind, NodeTarget, RequestType};
use crate::telemetry::LatencyComponent;
use crate::time::SimDuration;
use crate::trace::{RequestTypeMeta, TraceEvent};

/// The request paths: the request types with their per-node routing
/// state, and every connection — client, pooled and ephemeral — with the
/// pools that own some of them.
#[derive(Debug)]
pub(crate) struct Paths {
    request_types: Vec<RequestType>,
    /// Per type, per node: does a job arriving at this node unblock the
    /// thread pinned by some earlier node's `block_thread_until`?
    unblocks_thread: Vec<Vec<bool>>,
    /// Per type, per node: round-robin instance-selection counters.
    rr_instance: Vec<Vec<usize>>,
    conns: Vec<Connection>,
    pools: Vec<ConnectionPool>,
    /// `(up_instance, down_instance) → pool`.
    pool_lookup: FastMap<(u32, u32), PoolId>,
    /// Free ephemeral connections per `(up_instance, down_instance)`.
    eph_free: FastMap<(u32, u32), Vec<ConnectionId>>,
}

impl Paths {
    /// The paths of `request_types` over connections `conns`, some of them
    /// members of `pools` (found by their ends in `pool_lookup`).
    pub(crate) fn new(
        request_types: Vec<RequestType>,
        conns: Vec<Connection>,
        pools: Vec<ConnectionPool>,
        pool_lookup: FastMap<(u32, u32), PoolId>,
    ) -> Paths {
        let unblocks_thread = (request_types.iter())
            .map(|ty| {
                let mut v = vec![false; ty.nodes.len()];
                for node in &ty.nodes {
                    if let Some(u) = node.block_thread_until {
                        v[u.index()] = true;
                    }
                }
                v
            })
            .collect();
        let rr_instance = (request_types.iter())
            .map(|ty| vec![0; ty.nodes.len()])
            .collect();
        Paths {
            request_types,
            unblocks_thread,
            rr_instance,
            conns,
            pools,
            pool_lookup,
            eph_free: FastMap::default(),
        }
    }

    /// Request type `ty`.
    #[inline]
    pub(super) fn ty(&self, ty: RequestTypeId) -> &RequestType {
        &self.request_types[ty.index()]
    }

    /// Whether a job arriving at `node` of `ty` unblocks a pinned thread.
    pub(super) fn unblocks_thread(&self, ty: RequestTypeId, node: PathNodeId) -> bool {
        self.unblocks_thread[ty.index()][node.index()]
    }

    /// Connection `c`.
    #[inline]
    pub(super) fn conn(&self, c: ConnectionId) -> &Connection {
        &self.conns[c.index()]
    }

    /// The connection pools.
    pub(super) fn pools(&self) -> &[ConnectionPool] {
        &self.pools
    }

    /// The pool from instance `up` to `down`, if any.
    pub(super) fn pool_of(&self, up: InstanceId, down: InstanceId) -> Option<PoolId> {
        self.pool_lookup.get(&(up.raw(), down.raw())).copied()
    }

    /// Queues `rid` behind client connection `c` if it is busy; returns
    /// whether it did.
    pub(super) fn wait_for(&mut self, c: ConnectionId, rid: RequestId) -> bool {
        let conn = &mut self.conns[c.index()];
        if conn.busy {
            conn.pending.push_back(rid);
        }
        conn.busy
    }

    /// Marks connection `c` as carrying a request.
    pub(super) fn occupy(&mut self, c: ConnectionId) {
        self.conns[c.index()].busy = true;
    }

    /// Frees client connection `c`; returns the request queued behind it.
    pub(super) fn free_client_conn(&mut self, c: ConnectionId) -> Option<RequestId> {
        let conn = &mut self.conns[c.index()];
        conn.busy = false;
        conn.pending.pop_front()
    }

    /// Request types and their node names, for rendering traces.
    pub(super) fn request_type_meta(&self) -> Vec<RequestTypeMeta> {
        (self.request_types.iter())
            .map(|t| RequestTypeMeta {
                name: t.name.clone(),
                nodes: t.nodes.iter().map(|n| n.name.clone()).collect(),
            })
            .collect()
    }

    /// Leaks `leak` free connections of pool `p`; returns how many it
    /// took.
    pub(super) fn leak_pool(&mut self, p: PoolId, leak: usize) -> usize {
        self.pools[p.index()].leak(leak)
    }

    /// Restores pool `p`'s leaked connections: returns the waiting jobs
    /// they go to straight away, and how many connections are usable.
    pub(super) fn restore_pool(&mut self, p: PoolId) -> (Vec<(JobId, ConnectionId)>, usize) {
        let pool = &mut self.pools[p.index()];
        let grants = pool.restore_leaked();
        let usable = grants.len() + pool.free_count();
        (grants, usable)
    }

    /// Picks the instance that runs `node` of `rid` (of type `ty`).
    fn resolve_instance(
        &mut self,
        cx: &Cx,
        rid: RequestId,
        ty: RequestTypeId,
        node: PathNodeId,
    ) -> InstanceId {
        let select = match &self.request_types[ty.index()].nodes[node.index()].target {
            NodeTarget::Service { instance, .. } => instance,
            NodeTarget::ClientSink => unreachable!("sinks have no instance to resolve"),
        };
        match select {
            InstanceSelect::Fixed { instance } => *instance,
            InstanceSelect::RoundRobin { instances } => {
                let ctr = &mut self.rr_instance[ty.index()][node.index()];
                let inst = instances[*ctr % instances.len()];
                *ctr += 1;
                inst
            }
            InstanceSelect::SameAsNode { node: n } => {
                cx.requests.get(rid).expect("request exists").nodes[n.index()]
                    .instance
                    .expect("referenced node already executed")
            }
        }
    }
}

/// Counts one arrival at node `node` of request `rid` — at `instance`,
/// or at the client sink for `None` — and logs it when the node joins
/// `fan_in > 1` copies. Returns the request and whether this arrival
/// fires the node: it is the `required`-th, and a node that fires on
/// fewer than all its copies leaves the response degraded.
pub(super) fn fan_in_arrival<'a>(
    cx: &'a mut Cx,
    obs: &mut Observers,
    rid: RequestId,
    node: PathNodeId,
    instance: Option<InstanceId>,
    fan_in: usize,
    required: usize,
) -> (&'a mut Request, bool) {
    let req = cx.requests.get_mut(rid).expect("arriving request exists");
    let nr = &mut req.nodes[node.index()];
    nr.arrivals += 1;
    let arrivals = nr.arrivals;
    let fired = (arrivals as usize) == required;
    if fired && required < fan_in {
        req.early_fire = true;
    }
    if fan_in > 1 {
        obs.record(TraceEvent::FanIn {
            request: rid,
            node,
            instance,
            arrivals,
            fan_in: fan_in as u32,
            required: required as u32,
            fired,
            t: cx.now,
        });
    }
    (req, fired)
}

impl Simulator {
    /// Sends one fan-out copy from `parent` (just completed on
    /// `sender_inst`/`sender_thread`, having entered on `parent_conn`) to
    /// `child`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn fan_out(
        &mut self,
        rid: RequestId,
        ty: RequestTypeId,
        parent: PathNodeId,
        child: PathNodeId,
        sender_inst: InstanceId,
        sender_thread: ThreadId,
        parent_conn: Option<ConnectionId>,
    ) {
        let (fan_in, is_sink) = {
            let rt = &self.paths.request_types[ty.index()];
            (
                rt.fan_in[child.index()].max(1),
                matches!(rt.nodes[child.index()].target, NodeTarget::ClientSink),
            )
        };

        match is_sink {
            true => {
                let required = self.paths.request_types[ty.index()].nodes[child.index()]
                    .fan_in_policy
                    .required(fan_in);
                let (req, fire) = fan_in_arrival(
                    &mut self.cx,
                    &mut self.obs,
                    rid,
                    child,
                    None,
                    fan_in,
                    required,
                );
                req.sink_fired |= fire;
                if fire {
                    let m = self.instances.machine(sender_inst.index());
                    let wire = self.machines.wire_latency(&mut self.cx, m);
                    self.cx.events.schedule(
                        self.cx.now + SimDuration::from_secs_f64(wire),
                        EventKind::DeliverToClient { request: rid },
                    );
                }
            }
            false => {
                let dest = self.paths.resolve_instance(&self.cx, rid, ty, child);
                let job = self.cx.jobs.alloc(rid, child);
                self.cx
                    .requests
                    .get_mut(rid)
                    .expect("request exists")
                    .live_jobs += 1;
                // Reply links reuse the connection the referenced node
                // entered on; resolve it under shared borrows so the spec
                // never needs cloning.
                let reply_conn = {
                    let spec = &self.paths.request_types[ty.index()].nodes[child.index()];
                    match &spec.link {
                        LinkKind::Request => None,
                        LinkKind::ReplyToParent => Some(parent_conn.unwrap_or_else(|| {
                            panic!("reply_to_parent from node {parent} without an entry connection")
                        })),
                        LinkKind::Reply { of } => Some(
                            self.cx.requests.get(rid).expect("request exists").nodes[of.index()]
                                .entry_conn
                                .expect("reply references an entered node"),
                        ),
                        LinkKind::ReplyVia { entries } => {
                            let of = entries
                                .iter()
                                .find(|(p, _)| *p == parent)
                                .unwrap_or_else(|| {
                                    panic!("reply_via map has no entry for parent {parent}")
                                })
                                .1;
                            Some(
                                self.cx.requests.get(rid).expect("request exists").nodes
                                    [of.index()]
                                .entry_conn
                                .expect("reply_via references an entered node"),
                            )
                        }
                    }
                };
                match reply_conn {
                    None => self.send_request_edge(job, sender_inst, sender_thread, dest),
                    Some(conn) => {
                        self.cx.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
                        self.send_job(job, Some(sender_inst), dest);
                    }
                }
            }
        }
    }

    /// Sends a request-edge copy: acquire a pooled connection (waiting if
    /// exhausted) or an ephemeral connection if no pool is configured.
    fn send_request_edge(
        &mut self,
        job: JobId,
        sender_inst: InstanceId,
        sender_thread: ThreadId,
        dest: InstanceId,
    ) {
        let key = (sender_inst.raw(), dest.raw());
        if let Some(&pool_id) = self.paths.pool_lookup.get(&key) {
            let acquired = self.paths.pools[pool_id.index()].acquire(sender_thread);
            match acquired {
                Some(conn) => {
                    self.paths.conns[conn.index()].busy = true;
                    self.cx.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
                    self.obs.record(TraceEvent::PoolAcquire {
                        pool: pool_id,
                        conn,
                        job,
                        t: self.cx.now,
                    });
                    self.send_job(job, Some(sender_inst), dest);
                }
                None => {
                    self.paths.pools[pool_id.index()].enqueue_waiter(job);
                    self.obs.record(TraceEvent::PoolBlock {
                        pool: pool_id,
                        job,
                        t: self.cx.now,
                    });
                }
            }
        } else {
            // Ephemeral unbounded connection; prefer one bound to the
            // sending thread so the reply returns to the right worker.
            let conn = self.acquire_ephemeral(sender_inst, sender_thread, dest);
            self.paths.conns[conn.index()].busy = true;
            self.cx.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
            self.send_job(job, Some(sender_inst), dest);
        }
    }

    fn acquire_ephemeral(
        &mut self,
        sender_inst: InstanceId,
        sender_thread: ThreadId,
        dest: InstanceId,
    ) -> ConnectionId {
        let key = (sender_inst.raw(), dest.raw());
        if let Some(free) = self.paths.eph_free.get_mut(&key) {
            if let Some(pos) = free.iter().position(|&c| {
                matches!(
                    self.paths.conns[c.index()].up,
                    UpEndpoint::Instance { thread, .. } if thread == sender_thread
                )
            }) {
                return free.swap_remove(pos);
            }
            if let Some(c) = free.pop() {
                return c;
            }
        }
        // Create a new connection, binding the downstream thread round-robin.
        let dt = self.instances.next_thread(dest.index());
        let id = ConnectionId::from_raw(self.paths.conns.len() as u32);
        self.paths.conns.push(Connection::new(
            UpEndpoint::Instance {
                instance: sender_inst,
                thread: sender_thread,
            },
            dest,
            dt,
        ));
        id
    }

    /// Releases a pooled or ephemeral connection after its reply was
    /// delivered. Pool releases may immediately hand the connection to a
    /// waiting job.
    pub(super) fn release_conn(&mut self, conn_id: ConnectionId) {
        self.paths.conns[conn_id.index()].busy = false;
        let pool = self.paths.conns[conn_id.index()].pool;
        if let Some(pid) = pool {
            self.obs.record(TraceEvent::PoolRelease {
                pool: pid,
                conn: conn_id,
                t: self.cx.now,
            });
            let released_thread = match self.paths.conns[conn_id.index()].up {
                UpEndpoint::Instance { thread, .. } => thread,
                UpEndpoint::Client(_) => {
                    unreachable!("pooled connections originate from instances")
                }
            };
            if let Some((job, c)) = self.paths.pools[pid.index()].release(conn_id, released_thread)
            {
                self.grant_pooled(pid, job, c);
            }
        } else {
            match self.paths.conns[conn_id.index()].up {
                UpEndpoint::Instance { instance, .. } => {
                    let key = (
                        instance.raw(),
                        self.paths.conns[conn_id.index()].down_instance.raw(),
                    );
                    self.paths.eph_free.entry(key).or_default().push(conn_id);
                }
                UpEndpoint::Client(_) => {
                    // Client connections are released by release_client_conn.
                }
            }
        }
    }

    /// Hands pooled connection `c` of pool `pid` to `job`, which was
    /// waiting for one, and sends the job on its way.
    pub(super) fn grant_pooled(&mut self, pid: PoolId, job: JobId, c: ConnectionId) {
        self.paths.conns[c.index()].busy = true;
        let rid = {
            let j = self.cx.jobs.get_mut(job).expect("waiting job exists");
            j.conn = Some(c);
            j.request
        };
        // Time spent waiting for a pooled connection is blocking.
        self.obs.charge(
            &mut self.cx,
            rid,
            LatencyComponent::Blocking,
            CritSiteRef::Pool(pid),
        );
        self.obs.record(TraceEvent::PoolGrant {
            pool: pid,
            conn: c,
            job,
            request: rid,
            t: self.cx.now,
        });
        let dest = self.paths.pools[pid.index()].down_instance;
        let up = self.paths.pools[pid.index()].up_instance;
        self.send_job(job, Some(up), dest);
    }

    /// Number of client-owned connections currently holding an outstanding
    /// request. A timed-out call releases its slot at the deadline, so after
    /// a timeout burst this can never exceed the number of launched requests
    /// that are still inside their deadline.
    pub fn busy_client_connections(&self) -> usize {
        (self.paths.conns.iter())
            .filter(|c| c.busy && matches!(c.up, UpEndpoint::Client(_)))
            .count()
    }
}
