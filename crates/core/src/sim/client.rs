//! Clients: arrivals, request emission, launch onto a client connection,
//! delivery of the response, the client-side timeout, and the outcome
//! counters and latency recorders of every request emitted.

use super::observe::CritSiteRef;
use super::{Cx, Simulator};
use crate::client::{ArrivalRt, ClientSpec};
use crate::event::EventKind;
use crate::ids::{ClientId, ConnectionId, RequestId, RequestTypeId};
use crate::metrics::{Ascending, LatencyRecorder, LatencySummary};
use crate::telemetry::LatencyComponent;
use crate::time::{SimDuration, SimTime};
use crate::trace::{AuditCounts, ClientMeta, TraceEvent};

/// Runtime state of one client.
#[derive(Debug)]
struct ClientRt {
    spec: ClientSpec,
    conns: Vec<ConnectionId>,
    next_conn: usize,
    /// Arrivals generated so far (trace-replay cursor).
    issued: u64,
    /// Stateful arrival-process runtime (bursty processes, typed traces).
    arrival: ArrivalRt,
}

/// The clients: each one's arrival process and connections, and the
/// outcome of every request they emitted — the counters and the two
/// latency recorders.
#[derive(Debug)]
pub(super) struct Clients {
    rts: Vec<ClientRt>,
    /// The exact post-warmup end-to-end samples: with `e2e_timeout`, the
    /// only per-request state a run keeps (about a byte each, sorted and
    /// delta-coded; the golden-pinned percentiles are read off them).
    e2e: LatencyRecorder,
    /// Latencies of requests at their timeout deadline (the latency the
    /// client observed for failed calls); never mixed into `e2e`.
    e2e_timeout: LatencyRecorder,
    generated: u64,
    completed: u64,
    timeouts: u64,
    completed_after_timeout: u64,
    /// Retry emissions fired by client resilience policies.
    retried: u64,
    /// Degraded completions: shed responses plus quorum early-fires.
    degraded: u64,
    /// Quorum early-fire completions inside the measurement window; these
    /// sit in `e2e` but are excluded from goodput.
    degraded_measured: u64,
    /// Resolved requests still draining straggler jobs; excluded from the
    /// live count the trace auditor checks conservation against.
    resolved_pending: u64,
}

impl Clients {
    /// Clients of `specs`, each with its arrival runtime and connections,
    /// measuring from `warmup_at`.
    pub(super) fn new(
        warmup_at: SimTime,
        specs: Vec<(ClientSpec, ArrivalRt, Vec<ConnectionId>)>,
    ) -> Clients {
        Clients {
            rts: (specs.into_iter())
                .map(|(spec, arrival, conns)| ClientRt {
                    spec,
                    conns,
                    next_conn: 0,
                    issued: 0,
                    arrival,
                })
                .collect(),
            e2e: LatencyRecorder::new(warmup_at),
            e2e_timeout: LatencyRecorder::new(warmup_at),
            generated: 0,
            completed: 0,
            timeouts: 0,
            completed_after_timeout: 0,
            retried: 0,
            degraded: 0,
            degraded_measured: 0,
            resolved_pending: 0,
        }
    }

    /// Schedules the first arrivals: one per open-loop client, one per
    /// user of a closed-loop client.
    pub(super) fn start(&mut self, cx: &mut Cx) {
        for (ci, c) in self.rts.iter_mut().enumerate() {
            let client = ClientId::from_raw(ci as u32);
            match &c.spec.closed_loop {
                None => {
                    let first =
                        (c.spec.arrivals).first_arrival_rt(&mut c.arrival, &mut cx.rng_arrival);
                    if let Some(first) = first {
                        cx.events
                            .schedule(SimTime::ZERO + first, EventKind::ClientArrival { client });
                    }
                }
                Some(cl) => {
                    for _ in 0..cl.users {
                        let think = cl.think_time.sample(&mut cx.rng_arrival);
                        cx.events.schedule(
                            SimTime::ZERO + SimDuration::from_secs_f64(think),
                            EventKind::ClientArrival { client },
                        );
                    }
                }
            }
        }
    }

    /// Number of clients.
    pub(super) fn len(&self) -> usize {
        self.rts.len()
    }

    /// Name of client `c`.
    pub(super) fn name(&self, c: usize) -> &str {
        &self.rts[c].spec.name
    }

    /// Client names, for rendering traces.
    pub(super) fn meta(&self) -> Vec<ClientMeta> {
        (self.rts.iter())
            .map(|c| ClientMeta {
                name: c.spec.name.clone(),
            })
            .collect()
    }

    /// Counts a response delivered in degraded mode.
    pub(super) fn count_degraded(&mut self) {
        self.degraded += 1;
    }

    /// A resolved request's last straggler drained.
    pub(super) fn count_drained(&mut self) {
        self.resolved_pending -= 1;
    }

    /// Handles [`EventKind::ClientArrival`]: schedules an open-loop
    /// client's next arrival and draws the type and size of the request
    /// this one emits.
    pub(super) fn on_arrival(&mut self, cx: &mut Cx, client: ClientId) -> (RequestTypeId, f64) {
        let c = client.index();
        // Open-loop clients self-schedule the next arrival (unless a
        // replayed trace is exhausted); closed-loop users reissue from
        // on_deliver_to_client instead.
        let issued = self.rts[c].issued;
        self.rts[c].issued += 1;
        if self.rts[c].spec.closed_loop.is_none() {
            let gap = {
                let ClientRt { spec, arrival, .. } = &mut self.rts[c];
                spec.arrivals
                    .gap_rt(arrival, issued, cx.now, &mut cx.rng_arrival)
            };
            if let Some(gap) = gap {
                cx.events
                    .schedule(cx.now + gap, EventKind::ClientArrival { client });
            }
        }

        // Create the request: a typed trace dictates the type of arrival
        // `issued`; everything else draws from the client's mix.
        let ty = match self.rts[c].arrival.trace_type(issued) {
            Some(ty) => ty,
            None => self.rts[c].spec.mix.choose(&mut cx.rng_path),
        };
        let size = self.rts[c]
            .spec
            .request_size
            .sample(&mut cx.rng_path)
            .max(0.0);
        (ty, size)
    }

    /// Schedules a closed-loop user's next arrival after a think time;
    /// no-op for open-loop clients.
    pub(super) fn reissue(&self, cx: &mut Cx, client: ClientId) {
        let think = self.rts[client.index()]
            .spec
            .closed_loop
            .as_ref()
            .map(|cl| SimDuration::from_secs_f64(cl.think_time.sample(&mut cx.rng_arrival)));
        if let Some(think) = think {
            cx.events
                .schedule(cx.now + think, EventKind::ClientArrival { client });
        }
    }
}

impl Simulator {
    /// Emits one request of type `ty` from `client`: counts and logs it,
    /// then — unless an open breaker sheds it — arms its timeout and
    /// launches it on the client's next connection (round-robin), queued
    /// behind that connection while it is busy.
    ///
    /// `attempt > 0` re-emits a failed operation: a retry, logged as one.
    /// `hedge_of` names the outstanding original that this request
    /// duplicates: the two are linked both ways, and the twin is not put
    /// through admission again.
    pub(super) fn emit_request(
        &mut self,
        client: ClientId,
        ty: RequestTypeId,
        size_bytes: f64,
        attempt: u32,
        hedge_of: Option<RequestId>,
    ) {
        let c = client.index();
        let node_count = self.paths.ty(ty).nodes.len();
        let rid = self.cx.requests.alloc(ty, client, self.cx.now, node_count);
        {
            let req = self.cx.requests.get_mut(rid).expect("fresh request");
            req.size_bytes = size_bytes;
            req.attempt = attempt;
            req.hedge_twin = hedge_of;
        }
        if let Some(original) = hedge_of {
            self.cx
                .requests
                .get_mut(original)
                .expect("hedged request exists")
                .hedge_twin = Some(rid);
        }
        self.clients.generated += 1;
        let retry = attempt > 0 && hedge_of.is_none();
        if retry {
            self.clients.retried += 1;
        }
        self.obs.record(TraceEvent::RequestEmitted {
            request: rid,
            request_type: ty,
            client,
            t: self.cx.now,
        });
        if retry {
            self.obs.record(TraceEvent::RequestRetry {
                request: rid,
                attempt,
                t: self.cx.now,
            });
        }
        // Fault hooks: an open breaker sheds the request before it touches
        // any timer or connection (a retry's breaker may have opened since
        // the retry was scheduled); otherwise an optional hedge deadline is
        // armed. A single branch when no fault plan is installed.
        if hedge_of.is_none() && self.faults.installed() && self.fault_admission(rid, client) {
            return;
        }
        // The build checked the timeout converts; a deadline past the end
        // of simulated time never fires.
        if let Some(timeout_s) = self.clients.rts[c].spec.timeout_s {
            let timeout = SimDuration::from_secs_f64(timeout_s);
            if let Some(at) = self.cx.now.checked_add(timeout) {
                self.cx
                    .events
                    .schedule(at, EventKind::RequestTimeout { request: rid });
            }
        }

        // Assign a connection round-robin; queue behind it if busy.
        let n_conns = self.clients.rts[c].conns.len();
        let ci = self.clients.rts[c].next_conn;
        // Wrap without the integer divide; `next_conn` stays in range.
        self.clients.rts[c].next_conn = if ci + 1 == n_conns { 0 } else { ci + 1 };
        let conn_id = self.clients.rts[c].conns[ci];
        self.cx
            .requests
            .get_mut(rid)
            .expect("fresh request")
            .client_conn = Some(conn_id);
        if !self.paths.wait_for(conn_id, rid) {
            self.launch_request(rid, conn_id);
        }
    }

    /// Writes a request onto its (free) client connection: creates the root
    /// job and sends it over the network.
    fn launch_request(&mut self, rid: RequestId, conn_id: ConnectionId) {
        // Time between generation and hitting the wire is client-side
        // connection wait (coordinated-omission territory).
        self.obs.charge(
            &mut self.cx,
            rid,
            LatencyComponent::ClientWait,
            CritSiteRef::Client,
        );
        self.paths.occupy(conn_id);
        let ty = {
            let req = self.cx.requests.get_mut(rid).expect("request exists");
            req.launched = Some(self.cx.now);
            req.ty
        };
        self.obs.record(TraceEvent::RequestLaunched {
            request: rid,
            conn: conn_id,
            t: self.cx.now,
        });
        let root = self.paths.ty(ty).root;
        let job = self.cx.jobs.alloc(rid, root);
        self.cx
            .requests
            .get_mut(rid)
            .expect("request exists")
            .live_jobs += 1;
        self.cx.jobs.get_mut(job).expect("fresh job").conn = Some(conn_id);
        let dest = self.paths.conn(conn_id).down_instance;
        self.send_job(job, None, dest);
    }

    pub(super) fn on_deliver_to_client(&mut self, rid: RequestId) {
        // The final leg (last node exit → client) is network time.
        self.obs.charge(
            &mut self.cx,
            rid,
            LatencyComponent::Network,
            CritSiteRef::Client,
        );
        let (
            latency,
            conn_id,
            live_jobs,
            client,
            timed_out,
            ty,
            components,
            conn_released,
            early_fire,
            superseded,
            hedge_twin,
        ) = {
            let req = self
                .cx
                .requests
                .get(rid)
                .expect("completing request exists");
            (
                self.cx.now - req.submitted,
                req.client_conn.expect("launched request has a connection"),
                req.live_jobs,
                req.client,
                req.timed_out,
                req.ty,
                req.components_ns,
                req.conn_released,
                req.early_fire,
                req.superseded,
                req.hedge_twin,
            )
        };
        debug_assert!(
            live_jobs == 0 || early_fire,
            "request completed with live jobs"
        );
        if timed_out {
            // Already accounted as a timeout error; exclude from latency.
            self.clients.completed_after_timeout += 1;
        } else if superseded {
            // The hedge twin already delivered the logical response; this
            // late copy closes the books but is not measured.
        } else {
            self.clients.e2e.record(self.cx.now, latency);
            self.obs.on_response(latency);
            if early_fire {
                // A quorum/best-effort fan-in answered without every
                // branch: a degraded (but successful) response.
                self.clients.degraded += 1;
                if self.cx.now >= self.cx.warmup_at {
                    self.clients.degraded_measured += 1;
                }
            }
            if let Some(twin) = hedge_twin {
                // First delivery wins the hedge race.
                if let Some(tr) = self.cx.requests.get_mut(twin) {
                    tr.superseded = true;
                }
            }
            self.fault_on_success(client);
        }
        self.clients.completed += 1;
        let measured = !timed_out && !superseded && self.cx.now >= self.cx.warmup_at;
        self.obs.record(TraceEvent::RequestCompleted {
            request: rid,
            request_type: ty,
            timed_out,
            measured,
            retired: live_jobs == 0,
            t: self.cx.now,
        });
        let excluded = timed_out || superseded;
        (self.obs).on_completion(&self.cx, rid, components, latency, excluded, measured);
        if live_jobs == 0 {
            self.retire_request(rid, true);
        } else {
            // Quorum stragglers are still in flight: defer the release
            // until the last one drains (see `try_finalize`).
            self.cx
                .requests
                .get_mut(rid)
                .expect("completing request exists")
                .resolved = true;
            self.clients.resolved_pending += 1;
        }

        // Free the connection (unless the timeout already did). A
        // superseded copy does not reissue: its hedge twin's delivery did.
        if !conn_released {
            self.release_client_conn(conn_id, client, !superseded);
        }
    }

    /// Frees client connection `conn_id` and launches the request queued
    /// behind it, if any. With `reissue`, a closed-loop user of `client`
    /// thinks and then issues its next request.
    pub(super) fn release_client_conn(
        &mut self,
        conn_id: ConnectionId,
        client: ClientId,
        reissue: bool,
    ) {
        if let Some(next_rid) = self.paths.free_client_conn(conn_id) {
            self.launch_request(next_rid, conn_id);
        }
        if reissue {
            self.clients.reissue(&mut self.cx, client);
        }
    }

    pub(super) fn on_request_timeout(&mut self, rid: RequestId) {
        // The request may have completed long ago; its slot id is then
        // stale and the lookup simply misses.
        let (launched, client, conn_id, ty, attempt, size, submitted) = {
            let Some(req) = self.cx.requests.get_mut(rid) else {
                return;
            };
            if req.timed_out || req.resolved || req.superseded {
                return;
            }
            req.timed_out = true;
            let launched = req.launched.is_some();
            if launched {
                req.conn_released = true;
            }
            (
                launched,
                req.client,
                req.client_conn,
                req.ty,
                req.attempt,
                req.size_bytes,
                req.submitted,
            )
        };
        self.clients.timeouts += 1;
        // The client observed exactly the deadline for this failed call —
        // a distinct latency outcome, never mixed into the success summary.
        self.clients
            .e2e_timeout
            .record(self.cx.now, self.cx.now - submitted);
        self.obs.record(TraceEvent::RequestTimeout {
            request: rid,
            t: self.cx.now,
        });
        if launched {
            // The client abandons the call at the deadline: its connection
            // slot frees immediately even though the server-side work keeps
            // draining (the late response is discarded on arrival).
            let conn_id = conn_id.expect("launched request has a connection");
            self.release_client_conn(conn_id, client, true);
        }
        // Resilience policy: a timeout is a client-observed failure.
        self.fault_on_failure(client, ty, attempt, size);
    }
    /// End-to-end latency summary over post-warmup completions.
    pub fn latency_summary(&self) -> LatencySummary {
        self.clients.e2e.summary()
    }

    /// The exact post-warmup end-to-end latency samples (seconds),
    /// ascending — the data behind
    /// [`latency_summary`](Self::latency_summary). Completion order is not
    /// kept; the span log has it (`RequestEmitted` → `RequestCompleted`).
    pub fn latency_samples(&self) -> Ascending<'_> {
        self.clients.e2e.ascending()
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.clients.generated
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.clients.completed
    }

    /// Requests whose client-side timeout fired before completion.
    pub fn timeouts(&self) -> u64 {
        self.clients.timeouts
    }

    /// Timed-out requests that later completed anyway (excluded from the
    /// latency summary).
    pub fn completed_after_timeout(&self) -> u64 {
        self.clients.completed_after_timeout
    }

    /// Retry emissions fired by client resilience policies (each is also
    /// counted in [`Simulator::generated`]).
    pub fn retried(&self) -> u64 {
        self.clients.retried
    }

    /// Responses delivered in degraded mode: breaker sheds plus completions
    /// whose quorum/best-effort fan-in fired before every branch arrived.
    pub fn degraded(&self) -> u64 {
        self.clients.degraded
    }

    /// Degraded (early-fire) completions inside the measurement window.
    /// These are counted in the end-to-end latency summary but excluded
    /// from goodput, so `latency.count - degraded_measured` is the exact
    /// number of full-fidelity, within-deadline completions measured.
    pub fn degraded_measured(&self) -> u64 {
        self.clients.degraded_measured
    }

    /// Latency summary of requests at their timeout deadline — the latency
    /// the client actually observed for its failed calls. Kept strictly
    /// separate from the success-path summary so timeouts can never improve
    /// the reported tail.
    pub fn timeout_latency_summary(&self) -> LatencySummary {
        self.clients.e2e_timeout.summary()
    }

    /// The deadline-pinned latency samples of timed-out requests (seconds),
    /// ascending — the data behind [`Simulator::timeout_latency_summary`].
    /// The partitioned merge re-summarizes these across cells with one
    /// merge of every cell's runs.
    pub fn timeout_latency_samples(&self) -> Ascending<'_> {
        self.clients.e2e_timeout.ascending()
    }

    /// Ground-truth counters for trace auditing.
    pub fn audit_counts(&self) -> AuditCounts {
        AuditCounts {
            generated: self.clients.generated,
            completed: self.clients.completed,
            live_requests: self.cx.requests.live() as u64 - self.clients.resolved_pending,
            unretired: self.cx.requests.live() as u64,
            timeouts: self.clients.timeouts,
            measured: self.clients.e2e.len() as u64,
            dropped: self.dropped(),
            shed: self.shed(),
        }
    }

    /// Finishes both latency recorders: the simulator records nothing
    /// more (see [`LatencyRecorder::finish`]).
    pub(crate) fn finish_recorders(&mut self) {
        self.clients.e2e.finish();
        self.clients.e2e_timeout.finish();
    }

    /// The end-to-end and timeout latency recorders, taken out of the
    /// simulator.
    pub(crate) fn into_recorders(self) -> (LatencyRecorder, LatencyRecorder) {
        (self.clients.e2e, self.clients.e2e_timeout)
    }
}
