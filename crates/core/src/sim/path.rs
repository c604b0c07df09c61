//! The request path: fan-out to child nodes, instance selection, and
//! pooled and ephemeral connections between instances.

use super::{CritSiteRef, Simulator};
use crate::connection::{Connection, UpEndpoint};
use crate::event::EventKind;
use crate::ids::{
    ConnectionId, InstanceId, JobId, PathNodeId, PoolId, RequestId, RequestTypeId, ThreadId,
};
use crate::job::Request;
use crate::path::{InstanceSelect, LinkKind, NodeTarget};
use crate::time::SimDuration;
use crate::trace::TraceEvent;

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
            let rt = &self.request_types[ty.index()];
            (
                rt.fan_in[child.index()].max(1),
                matches!(rt.nodes[child.index()].target, NodeTarget::ClientSink),
            )
        };

        match is_sink {
            true => {
                let required = self.request_types[ty.index()].nodes[child.index()]
                    .fan_in_policy
                    .required(fan_in);
                let (req, fire) = self.fan_in_arrival(rid, child, None, fan_in, required);
                req.sink_fired |= fire;
                if fire {
                    let m = self.instances[sender_inst.index()].machine.index();
                    let wire = self.machines[m]
                        .spec
                        .network
                        .wire_latency
                        .sample(&mut self.rng_network);
                    self.events.schedule(
                        self.now + SimDuration::from_secs_f64(wire),
                        EventKind::DeliverToClient { request: rid },
                    );
                }
            }
            false => {
                let dest = self.resolve_instance(rid, ty, child);
                let job = self.jobs.alloc(rid, child);
                self.requests
                    .get_mut(rid)
                    .expect("request exists")
                    .live_jobs += 1;
                // Reply links reuse the connection the referenced node
                // entered on; resolve it under shared borrows so the spec
                // never needs cloning.
                let reply_conn = {
                    let spec = &self.request_types[ty.index()].nodes[child.index()];
                    match &spec.link {
                        LinkKind::Request => None,
                        LinkKind::ReplyToParent => Some(parent_conn.unwrap_or_else(|| {
                            panic!("reply_to_parent from node {parent} without an entry connection")
                        })),
                        LinkKind::Reply { of } => Some(
                            self.requests.get(rid).expect("request exists").nodes[of.index()]
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
                                self.requests.get(rid).expect("request exists").nodes[of.index()]
                                    .entry_conn
                                    .expect("reply_via references an entered node"),
                            )
                        }
                    }
                };
                match reply_conn {
                    None => self.send_request_edge(job, sender_inst, sender_thread, dest),
                    Some(conn) => {
                        self.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
                        self.send_job(job, Some(sender_inst), dest);
                    }
                }
            }
        }
    }

    /// Counts one arrival at node `node` of request `rid` — at `instance`,
    /// or at the client sink for `None` — and logs it when the node joins
    /// `fan_in > 1` copies. Returns the request and whether this arrival
    /// fires the node: it is the `required`-th, and a node that fires on
    /// fewer than all its copies leaves the response degraded.
    pub(super) fn fan_in_arrival(
        &mut self,
        rid: RequestId,
        node: PathNodeId,
        instance: Option<InstanceId>,
        fan_in: usize,
        required: usize,
    ) -> (&mut Request, bool) {
        let req = self.requests.get_mut(rid).expect("arriving request exists");
        let nr = &mut req.nodes[node.index()];
        nr.arrivals += 1;
        let arrivals = nr.arrivals;
        let fired = (arrivals as usize) == required;
        if fired && required < fan_in {
            req.early_fire = true;
        }
        if fan_in > 1 {
            if let Some(log) = self.span_log.as_deref_mut() {
                log.record(TraceEvent::FanIn {
                    request: rid,
                    node,
                    instance,
                    arrivals,
                    fan_in: fan_in as u32,
                    required: required as u32,
                    fired,
                    t: self.now,
                });
            }
        }
        (req, fired)
    }

    fn resolve_instance(
        &mut self,
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
                self.requests.get(rid).expect("request exists").nodes[n.index()]
                    .instance
                    .expect("referenced node already executed")
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
        if let Some(&pool_id) = self.pool_lookup.get(&key) {
            let acquired = self.pools[pool_id.index()].acquire(sender_thread);
            match acquired {
                Some(conn) => {
                    self.conns[conn.index()].busy = true;
                    self.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
                    if let Some(log) = self.span_log.as_deref_mut() {
                        log.record(TraceEvent::PoolAcquire {
                            pool: pool_id,
                            conn,
                            job,
                            t: self.now,
                        });
                    }
                    self.send_job(job, Some(sender_inst), dest);
                }
                None => {
                    self.pools[pool_id.index()].enqueue_waiter(job);
                    if let Some(log) = self.span_log.as_deref_mut() {
                        log.record(TraceEvent::PoolBlock {
                            pool: pool_id,
                            job,
                            t: self.now,
                        });
                    }
                }
            }
        } else {
            // Ephemeral unbounded connection; prefer one bound to the
            // sending thread so the reply returns to the right worker.
            let conn = self.acquire_ephemeral(sender_inst, sender_thread, dest);
            self.conns[conn.index()].busy = true;
            self.jobs.get_mut(job).expect("fresh job").conn = Some(conn);
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
        if let Some(free) = self.eph_free.get_mut(&key) {
            if let Some(pos) = free.iter().position(|&c| {
                matches!(
                    self.conns[c.index()].up,
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
        let down_inst = &mut self.instances[dest.index()];
        let n = down_inst.threads.len();
        let dt = down_inst.rr_thread;
        debug_assert!(dt < n, "rr_thread wraps in range");
        down_inst.rr_thread = if dt + 1 == n { 0 } else { dt + 1 };
        let id = ConnectionId::from_raw(self.conns.len() as u32);
        self.conns.push(Connection::new(
            UpEndpoint::Instance {
                instance: sender_inst,
                thread: sender_thread,
            },
            dest,
            ThreadId::from_raw(dt as u32),
        ));
        id
    }

    /// Releases a pooled or ephemeral connection after its reply was
    /// delivered. Pool releases may immediately hand the connection to a
    /// waiting job.
    pub(super) fn release_conn(&mut self, conn_id: ConnectionId) {
        self.conns[conn_id.index()].busy = false;
        let pool = self.conns[conn_id.index()].pool;
        if let Some(pid) = pool {
            if let Some(log) = self.span_log.as_deref_mut() {
                log.record(TraceEvent::PoolRelease {
                    pool: pid,
                    conn: conn_id,
                    t: self.now,
                });
            }
            let released_thread = match self.conns[conn_id.index()].up {
                UpEndpoint::Instance { thread, .. } => thread,
                UpEndpoint::Client(_) => {
                    unreachable!("pooled connections originate from instances")
                }
            };
            if let Some((job, c)) = self.pools[pid.index()].release(conn_id, released_thread) {
                self.grant_pooled(pid, job, c);
            }
        } else {
            match self.conns[conn_id.index()].up {
                UpEndpoint::Instance { instance, .. } => {
                    let key = (
                        instance.raw(),
                        self.conns[conn_id.index()].down_instance.raw(),
                    );
                    self.eph_free.entry(key).or_default().push(conn_id);
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
        self.conns[c.index()].busy = true;
        let rid = {
            let j = self.jobs.get_mut(job).expect("waiting job exists");
            j.conn = Some(c);
            j.request
        };
        // Time spent waiting for a pooled connection is blocking.
        self.attribute_latency(
            rid,
            crate::telemetry::LatencyComponent::Blocking,
            CritSiteRef::Pool(pid),
        );
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::PoolGrant {
                pool: pid,
                conn: c,
                job,
                request: rid,
                t: self.now,
            });
        }
        let dest = self.pools[pid.index()].down_instance;
        let up = self.pools[pid.index()].up_instance;
        self.send_job(job, Some(up), dest);
    }
}
