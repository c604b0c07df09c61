//! Client side: request emission, launch onto a client connection,
//! delivery of the response, and the client-side timeout.

use super::{ClientRt, CritSiteRef, Simulator};
use crate::event::EventKind;
use crate::ids::{ClientId, ConnectionId, RequestId, RequestTypeId};
use crate::time::SimDuration;
use crate::trace::TraceEvent;

impl Simulator {
    pub(super) fn on_client_arrival(&mut self, client: ClientId) {
        let c = client.index();
        // Open-loop clients self-schedule the next arrival (unless a
        // replayed trace is exhausted); closed-loop users reissue from
        // on_deliver_to_client instead.
        let issued = self.clients[c].issued;
        self.clients[c].issued += 1;
        if self.clients[c].spec.closed_loop.is_none() {
            let gap = {
                let ClientRt { spec, arrival, .. } = &mut self.clients[c];
                spec.arrivals
                    .gap_rt(arrival, issued, self.now, &mut self.rng_arrival)
            };
            if let Some(gap) = gap {
                self.events
                    .schedule(self.now + gap, EventKind::ClientArrival { client });
            }
        }

        // Create the request: a typed trace dictates the type of arrival
        // `issued`; everything else draws from the client's mix.
        let ty = match self.clients[c].arrival.trace_type(issued) {
            Some(ty) => ty,
            None => self.clients[c].spec.mix.choose(&mut self.rng_path),
        };
        let size = self.clients[c]
            .spec
            .request_size
            .sample(&mut self.rng_path)
            .max(0.0);
        self.emit_request(client, ty, size, 0, None);
    }

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
        let node_count = self.request_types[ty.index()].nodes.len();
        let rid = self.requests.alloc(ty, client, self.now, node_count);
        {
            let req = self.requests.get_mut(rid).expect("fresh request");
            req.size_bytes = size_bytes;
            req.attempt = attempt;
            req.hedge_twin = hedge_of;
        }
        if let Some(original) = hedge_of {
            self.requests
                .get_mut(original)
                .expect("hedged request exists")
                .hedge_twin = Some(rid);
        }
        self.generated += 1;
        let retry = attempt > 0 && hedge_of.is_none();
        if retry {
            self.retried += 1;
        }
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestEmitted {
                request: rid,
                request_type: ty,
                client,
                t: self.now,
            });
            if retry {
                log.record(TraceEvent::RequestRetry {
                    request: rid,
                    attempt,
                    t: self.now,
                });
            }
        }
        // Fault hooks: an open breaker sheds the request before it touches
        // any timer or connection (a retry's breaker may have opened since
        // the retry was scheduled); otherwise an optional hedge deadline is
        // armed. A single branch when no fault plan is installed.
        if hedge_of.is_none() && self.fault.is_some() && self.fault_admission(rid, client) {
            return;
        }
        // The build checked the timeout converts; a deadline past the end
        // of simulated time never fires.
        if let Some(timeout_s) = self.clients[c].spec.timeout_s {
            let timeout = SimDuration::from_secs_f64(timeout_s);
            if let Some(at) = self.now.checked_add(timeout) {
                self.events
                    .schedule(at, EventKind::RequestTimeout { request: rid });
            }
        }

        // Assign a connection round-robin; queue behind it if busy.
        let n_conns = self.clients[c].conns.len();
        let ci = self.clients[c].next_conn;
        // Wrap without the integer divide; `next_conn` stays in range.
        self.clients[c].next_conn = if ci + 1 == n_conns { 0 } else { ci + 1 };
        let conn_id = self.clients[c].conns[ci];
        self.requests
            .get_mut(rid)
            .expect("fresh request")
            .client_conn = Some(conn_id);
        if self.conns[conn_id.index()].busy {
            self.conns[conn_id.index()].pending.push_back(rid);
        } else {
            self.launch_request(rid, conn_id);
        }
    }

    /// Writes a request onto its (free) client connection: creates the root
    /// job and sends it over the network.
    fn launch_request(&mut self, rid: RequestId, conn_id: ConnectionId) {
        // Time between generation and hitting the wire is client-side
        // connection wait (coordinated-omission territory).
        self.attribute_latency(
            rid,
            crate::telemetry::LatencyComponent::ClientWait,
            CritSiteRef::Client,
        );
        self.conns[conn_id.index()].busy = true;
        let ty = {
            let req = self.requests.get_mut(rid).expect("request exists");
            req.launched = Some(self.now);
            req.ty
        };
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestLaunched {
                request: rid,
                conn: conn_id,
                t: self.now,
            });
        }
        let root = self.request_types[ty.index()].root;
        let job = self.jobs.alloc(rid, root);
        self.requests
            .get_mut(rid)
            .expect("request exists")
            .live_jobs += 1;
        self.jobs.get_mut(job).expect("fresh job").conn = Some(conn_id);
        let dest = self.conns[conn_id.index()].down_instance;
        self.send_job(job, None, dest);
    }

    pub(super) fn on_deliver_to_client(&mut self, rid: RequestId) {
        // The final leg (last node exit → client) is network time.
        self.attribute_latency(
            rid,
            crate::telemetry::LatencyComponent::Network,
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
            let req = self.requests.get(rid).expect("completing request exists");
            (
                self.now - req.submitted,
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
        debug_assert!(
            self.telemetry.is_none() || components.iter().sum::<u64>() == latency.as_nanos(),
            "latency decomposition does not telescope: {components:?} vs {} ns",
            latency.as_nanos()
        );
        if timed_out {
            // Already accounted as a timeout error; exclude from latency.
            self.completed_after_timeout += 1;
        } else if superseded {
            // The hedge twin already delivered the logical response; this
            // late copy closes the books but is not measured.
        } else {
            self.e2e.record(self.now, latency);
            if !self.controllers.is_empty() {
                self.interval_e2e.push(latency.as_secs_f64());
            }
            if early_fire {
                // A quorum/best-effort fan-in answered without every
                // branch: a degraded (but successful) response.
                self.degraded += 1;
                if self.past_warmup() {
                    self.degraded_measured += 1;
                }
            }
            if let Some(twin) = hedge_twin {
                // First delivery wins the hedge race.
                if let Some(tr) = self.requests.get_mut(twin) {
                    tr.superseded = true;
                }
            }
            self.fault_on_success(client);
        }
        self.completed += 1;
        let measured = !timed_out && !superseded && self.past_warmup();
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestCompleted {
                request: rid,
                request_type: ty,
                timed_out,
                measured,
                retired: live_jobs == 0,
                t: self.now,
            });
        }
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.on_completion(self.now, components, latency, timed_out || superseded);
            if tel.cfg.critpath && measured {
                // Fold the request's critical path into the CPC profile.
                // `telemetry` and `requests` are disjoint fields, so both
                // mutable borrows coexist.
                if let Some(req) = self.requests.get(rid) {
                    debug_assert_eq!(
                        req.crit.iter().map(|s| s.ns).sum::<u64>(),
                        latency.as_nanos(),
                        "critical-path segments do not telescope"
                    );
                    tel.crit.fold(latency.as_nanos(), &req.crit);
                }
            }
        }
        if live_jobs == 0 {
            self.retire_request(rid, true);
        } else {
            // Quorum stragglers are still in flight: defer the release
            // until the last one drains (see `try_finalize`).
            self.requests
                .get_mut(rid)
                .expect("completing request exists")
                .resolved = true;
            self.resolved_pending += 1;
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
        let next = {
            let conn = &mut self.conns[conn_id.index()];
            conn.busy = false;
            conn.pending.pop_front()
        };
        if let Some(next_rid) = next {
            self.launch_request(next_rid, conn_id);
        }
        if reissue {
            self.closed_loop_reissue(client);
        }
    }

    /// Schedules a closed-loop user's next arrival after a think time;
    /// no-op for open-loop clients.
    pub(super) fn closed_loop_reissue(&mut self, client: ClientId) {
        let think = self.clients[client.index()]
            .spec
            .closed_loop
            .as_ref()
            .map(|cl| SimDuration::from_secs_f64(cl.think_time.sample(&mut self.rng_arrival)));
        if let Some(think) = think {
            self.events
                .schedule(self.now + think, EventKind::ClientArrival { client });
        }
    }

    pub(super) fn on_request_timeout(&mut self, rid: RequestId) {
        // The request may have completed long ago; its slot id is then
        // stale and the lookup simply misses.
        let (launched, client, conn_id, ty, attempt, size, submitted) = {
            let Some(req) = self.requests.get_mut(rid) else {
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
        self.timeouts += 1;
        // The client observed exactly the deadline for this failed call —
        // a distinct latency outcome, never mixed into the success summary.
        self.e2e_timeout.record(self.now, self.now - submitted);
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestTimeout {
                request: rid,
                t: self.now,
            });
        }
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
}
