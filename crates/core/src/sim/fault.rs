//! Faults and outcomes: fault windows, killed jobs, the terminal
//! disposal of a request (dropped, shed, retired), and the client
//! resilience policy (breaker, retries, hedges).

use super::Simulator;
use crate::connection::UpEndpoint;
use crate::error::SimResult;
use crate::event::EventKind;
use crate::fault::{Entities, FaultPlan};
use crate::ids::{ClientId, InstanceId, JobId, RequestId, RequestTypeId};
use crate::path::LinkKind;
use crate::trace::TraceEvent;

impl Simulator {
    /// Installs a fault plan: lowers names to ids (errors name `faults.json`
    /// and the offending key), seeds the dedicated `"fault"` RNG stream, and
    /// schedules every fault window's start/end transition.
    ///
    /// Call before [`Simulator::run_for`]. Installing an empty plan is valid
    /// and changes nothing observable: no extra events, no extra RNG draws.
    ///
    /// # Panics
    ///
    /// Panics if [`Simulator::enable_telemetry`] was already called: the
    /// telemetry layer fixes its series columns (including the fault-gated
    /// ones) at enable time, so faults must be installed first.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> SimResult<()> {
        self.install_plan(plan, false)
    }

    /// [`install_faults`](Self::install_faults); with `only_owned`, the
    /// faults and client policies whose owner this simulator does not hold
    /// are left out — a cell of a partitioned run installs what it owns.
    pub(crate) fn install_plan(&mut self, plan: &FaultPlan, only_owned: bool) -> SimResult<()> {
        assert!(
            self.telemetry.is_none(),
            "install_faults must be called before enable_telemetry"
        );
        let names = Entities::new(
            self.instances.iter().map(|i| &*i.name),
            self.machines.iter().map(|m| &*m.spec.name),
            self.clients.iter().map(|c| &*c.spec.name),
        );
        let pool_lookup = &self.pool_lookup;
        let pool_of =
            |up: InstanceId, down: InstanceId| pool_lookup.get(&(up.raw(), down.raw())).copied();
        let (schedule, policies) = plan.lower(&names, pool_of, only_owned)?;
        for (idx, f) in schedule.iter().enumerate() {
            self.events
                .schedule(f.at, EventKind::FaultStart { fault: idx as u32 });
            if let Some(until) = f.until {
                self.events
                    .schedule(until, EventKind::FaultEnd { fault: idx as u32 });
            }
        }
        let mut client_policy = vec![None; self.clients.len()];
        for (client, policy) in policies {
            client_policy[client] = Some(policy);
        }
        let rng = crate::rng::RngFactory::new(self.cfg.seed).stream("fault", 0);
        self.fault = Some(Box::new(crate::fault::FaultState::new(
            rng,
            schedule,
            self.instances.len(),
            self.machines.len(),
            client_policy,
            plan.policy.network,
        )));
        Ok(())
    }

    pub(super) fn on_fault_start(&mut self, idx: usize) {
        let fault = match self.fault.as_deref() {
            Some(f) => f.schedule[idx].fault,
            None => return,
        };
        match fault {
            crate::fault::LoweredFault::Crash { instance } => {
                let i = instance.index();
                let name = self.instances[i].name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.instance_down[i] = true;
                    f.log(self.now, format!("instance {name} crashed"));
                }
                // Queued jobs die with the process. Batches already in
                // service die at their StageDone; arrivals die at the door.
                let mut doomed = Vec::new();
                for set in &mut self.instances[i].queue_sets {
                    doomed.extend(set.drain_all());
                }
                // Threads blocked on now-doomed replies restart unblocked.
                {
                    let inst = &mut self.instances[i];
                    for (t, th) in inst.threads.iter_mut().enumerate() {
                        th.block_depth = 0;
                        if th.running.is_none() {
                            inst.idle_mask |= 1u64 << t;
                        }
                    }
                }
                for job in doomed {
                    self.kill_job(job, None);
                }
            }
            crate::fault::LoweredFault::Slowdown { machine, factor } => {
                let m = machine.index();
                let name = self.machines[m].spec.name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.slow_factor[m] = factor;
                    f.log(self.now, format!("machine {name} slowed down x{factor}"));
                }
            }
            crate::fault::LoweredFault::NetDegrade {
                machine,
                added_s,
                drop_prob,
            } => {
                let m = machine.index();
                let name = self.machines[m].spec.name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.net_added_s[m] = added_s;
                    f.net_drop_p[m] = drop_prob;
                    f.log(
                        self.now,
                        format!("network to {name} degraded (+{added_s}s, drop p={drop_prob})"),
                    );
                }
            }
            crate::fault::LoweredFault::PoolLeak { pool, leak } => {
                let p = pool.index();
                let leaked = self.pools[p].leak(leak);
                let name = self.pool_name(p);
                if let Some(f) = self.fault.as_deref_mut() {
                    f.log(self.now, format!("pool {name} leaked {leaked} connections"));
                }
            }
        }
    }

    pub(super) fn on_fault_end(&mut self, idx: usize) {
        let fault = match self.fault.as_deref() {
            Some(f) => f.schedule[idx].fault,
            None => return,
        };
        match fault {
            crate::fault::LoweredFault::Crash { instance } => {
                let i = instance.index();
                let name = self.instances[i].name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.instance_down[i] = false;
                    f.log(self.now, format!("instance {name} restarted"));
                }
            }
            crate::fault::LoweredFault::Slowdown { machine, .. } => {
                let m = machine.index();
                let name = self.machines[m].spec.name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.slow_factor[m] = 1.0;
                    f.log(self.now, format!("machine {name} back to full speed"));
                }
            }
            crate::fault::LoweredFault::NetDegrade { machine, .. } => {
                let m = machine.index();
                let name = self.machines[m].spec.name.clone();
                if let Some(f) = self.fault.as_deref_mut() {
                    f.net_added_s[m] = 0.0;
                    f.net_drop_p[m] = 0.0;
                    f.log(self.now, format!("network to {name} healthy"));
                }
            }
            crate::fault::LoweredFault::PoolLeak { pool, .. } => {
                let p = pool.index();
                let grants = self.pools[p].restore_leaked();
                let restored = grants.len() + self.pools[p].free_count();
                let name = self.pool_name(p);
                if let Some(f) = self.fault.as_deref_mut() {
                    f.log(
                        self.now,
                        format!("pool {name} restored ({restored} usable)"),
                    );
                }
                // Restored connections may go straight to waiting jobs.
                for (job, c) in grants {
                    self.grant_pooled(pool, job, c);
                }
            }
        }
    }

    /// Pool `p` as the fault log names it: `up->down`.
    fn pool_name(&self, p: usize) -> String {
        let pool = &self.pools[p];
        let name = |i: InstanceId| &self.instances[i.index()].name;
        format!("{}->{}", name(pool.up_instance), name(pool.down_instance))
    }

    /// Kills one in-flight job (crash drain, crash arrival, dead batch, or
    /// exhausted retransmissions): frees it, releases any non-client
    /// connection it still holds, marks the request failed, and resolves the
    /// request as dropped once its last live branch is gone.
    ///
    /// `conn_released` overrides the inferred "does the job still hold its
    /// connection" decision; the crash-arrival door passes it because the
    /// reply release has just happened there.
    pub(super) fn kill_job(&mut self, job_id: JobId, conn_released: Option<bool>) {
        let job = self.jobs.free(job_id);
        let rid = job.request;
        let already_released = conn_released.unwrap_or_else(|| {
            // A job releases its (reply-link) connection when it is
            // delivered; before delivery it still holds whatever it carries.
            job.instance.is_some()
                && self.requests.get(rid).is_some_and(|r| {
                    !matches!(
                        self.request_types[r.ty.index()].nodes[job.node.index()].link,
                        LinkKind::Request
                    )
                })
        });
        if let Some(c) = job.conn {
            if !already_released && !matches!(self.conns[c.index()].up, UpEndpoint::Client(_)) {
                self.release_conn(c);
            }
        }
        if let Some(f) = self.fault.as_deref_mut() {
            f.summary.jobs_killed += 1;
        }
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::JobKilled {
                job: job_id,
                request: rid,
                t: self.now,
            });
        }
        if let Some(req) = self.requests.get_mut(rid) {
            req.live_jobs -= 1;
            req.failed = true;
        }
        self.try_finalize(rid);
    }

    /// Checks a request for final disposal after a live-jobs decrement:
    /// retires a resolved request whose stragglers drained, or resolves a
    /// failed request as dropped once nothing of it is left in flight.
    /// No-op in runs without faults or early-firing fan-ins (both flags
    /// stay false).
    pub(super) fn try_finalize(&mut self, rid: RequestId) {
        let Some(req) = self.requests.get(rid) else {
            return;
        };
        if req.live_jobs > 0 {
            return;
        }
        if req.resolved {
            self.retire_request(rid, false);
            self.resolved_pending -= 1;
        } else if req.failed && !req.sink_fired {
            self.resolve_dropped(rid);
        }
    }

    /// Releases `rid`'s slot — the one place that does, so that the span
    /// log always learns of it. `at_terminal` says the terminal event the
    /// caller has just recorded carries the release (`RequestCompleted`
    /// with `retired`, `RequestDropped`, `RequestShed`); otherwise
    /// stragglers deferred it past that event and it is logged as a
    /// `RequestRetired` of its own. Nothing names the request afterwards:
    /// no job of it is left, and its timers miss on the stale id.
    pub(super) fn retire_request(&mut self, rid: RequestId, at_terminal: bool) {
        if !at_terminal {
            if let Some(log) = self.span_log.as_deref_mut() {
                log.record(TraceEvent::RequestRetired {
                    request: rid,
                    t: self.now,
                });
            }
        }
        if self.requests.get(rid).is_some_and(|req| req.failed) {
            self.release_threads_blocked_for(rid);
        }
        self.requests.free(rid);
    }

    /// A request that lost a job to a fault retires with nodes that never
    /// ran, and a thread that blocked until one of them
    /// (`block_thread_until`) would wait forever: only that node's delivery
    /// unblocks it. Releases each such thread and lets its instance
    /// dispatch. A thread whose own instance crashed since the blocking
    /// node ran was reset by the crash and is left alone.
    fn release_threads_blocked_for(&mut self, rid: RequestId) {
        let req = self.requests.get(rid).expect("retiring request exists");
        let specs = &self.request_types[req.ty.index()].nodes;
        let schedule = self.fault.as_deref().map_or(&[][..], |f| &f.schedule);
        let mut released = Vec::new();
        for (nr, spec) in req.nodes.iter().zip(specs) {
            let (Some(until), Some(inst), Some(thread), Some(entered)) =
                (spec.block_thread_until, nr.instance, nr.thread, nr.enter)
            else {
                continue;
            };
            let crashed_since = schedule.iter().any(|w| {
                w.fault == crate::fault::LoweredFault::Crash { instance: inst }
                    && (entered..=self.now).contains(&w.at)
            });
            if req.nodes[until.index()].enter.is_some() || crashed_since {
                continue;
            }
            self.instances[inst.index()].unblock(thread.index());
            released.push(inst);
        }
        for inst in released {
            self.dispatch_instance(inst);
        }
    }

    /// Resolves a request whose last in-flight branch was killed: the
    /// client never gets a response. Releases the client connection (unless
    /// the timeout already did) and feeds the resilience policy.
    fn resolve_dropped(&mut self, rid: RequestId) {
        let (client, conn, conn_released, launched, timed_out, superseded, ty, attempt, size) = {
            let req = self.requests.get_mut(rid).expect("dropping request exists");
            req.resolved = true;
            (
                req.client,
                req.client_conn,
                req.conn_released,
                req.launched.is_some(),
                req.timed_out,
                req.superseded,
                req.ty,
                req.attempt,
                req.size_bytes,
            )
        };
        self.dropped += 1;
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestDropped {
                request: rid,
                t: self.now,
            });
        }
        self.retire_request(rid, true);
        if launched && !conn_released {
            let conn_id = conn.expect("launched request has a connection");
            self.release_client_conn(conn_id, client, true);
        }
        // A timed-out request already reported its failure at the deadline;
        // a superseded hedge copy must not trigger retries of its own.
        if !timed_out && !superseded {
            self.fault_on_failure(client, ty, attempt, size);
        }
    }

    /// Breaker admission + hedge arming at emission time. Returns `true`
    /// when the request was shed (the caller must not launch it).
    pub(super) fn fault_admission(&mut self, rid: RequestId, client: ClientId) -> bool {
        let (open, hedge) = {
            let Some(f) = self.fault.as_deref() else {
                return false;
            };
            match &f.client_policy[client.index()] {
                Some(p) => (p.breaker_open(self.now), p.hedge_after),
                None => return false,
            }
        };
        if open {
            self.resolve_shed(rid, client);
            return true;
        }
        if let Some(h) = hedge {
            let attempt = self.requests.get(rid).map_or(0, |r| r.attempt);
            if attempt == 0 {
                self.events
                    .schedule(self.now + h, EventKind::HedgeFire { request: rid });
            }
        }
        false
    }

    /// Immediately resolves `rid` as shed: the breaker refused it, the
    /// client sees an instant degraded response, and no simulated resource
    /// is touched.
    fn resolve_shed(&mut self, rid: RequestId, client: ClientId) {
        self.shed += 1;
        self.degraded += 1;
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::RequestShed {
                request: rid,
                t: self.now,
            });
        }
        self.retire_request(rid, true);
        // Closed-loop users observe the instant rejection and think again.
        self.closed_loop_reissue(client);
    }

    /// Breaker bookkeeping on a client-observed success.
    pub(super) fn fault_on_success(&mut self, client: ClientId) {
        if let Some(f) = self.fault.as_deref_mut() {
            if let Some(p) = f.client_policy[client.index()].as_mut() {
                p.on_success();
            }
        }
    }

    /// A client-observed failure (timeout or drop): feeds the breaker and
    /// schedules a retry when the policy allows one.
    pub(super) fn fault_on_failure(
        &mut self,
        client: ClientId,
        ty: RequestTypeId,
        attempt: u32,
        size_bytes: f64,
    ) {
        let delay = {
            let Some(f) = self.fault.as_deref_mut() else {
                return;
            };
            let crate::fault::FaultState {
                client_policy, rng, ..
            } = f;
            let Some(p) = client_policy[client.index()].as_mut() else {
                return;
            };
            p.on_failure(self.now, attempt, rng)
        };
        if let Some(delay) = delay {
            self.events.schedule(
                self.now + delay,
                EventKind::RetryEmit(Box::new(crate::event::RetrySpec {
                    client,
                    request_type: ty,
                    attempt: attempt + 1,
                    size_bytes,
                })),
            );
        }
    }

    /// Handles [`EventKind::HedgeFire`]: the original is still outstanding
    /// past the hedge deadline, so a duplicate is issued; the first delivery
    /// wins and the loser is marked superseded.
    pub(super) fn on_hedge_fire(&mut self, rid: RequestId) {
        let (client, ty, size, attempt) = {
            let Some(req) = self.requests.get(rid) else {
                return; // already completed or dropped
            };
            if req.timed_out || req.resolved || req.hedge_twin.is_some() {
                return;
            }
            (req.client, req.ty, req.size_bytes, req.attempt)
        };
        if let Some(f) = self.fault.as_deref_mut() {
            f.summary.hedged += 1;
        }
        self.emit_request(client, ty, size, attempt, Some(rid));
    }
}
