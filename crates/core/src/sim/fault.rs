//! Faults and outcomes: fault windows, killed jobs, the terminal
//! disposal of a request (dropped, shed, retired), and the client
//! resilience policy (breaker, retries, hedges).

use super::{Cx, Simulator};
use crate::connection::UpEndpoint;
use crate::error::SimResult;
use crate::event::EventKind;
use crate::fault::{Entities, FaultPlan, FaultState, FaultSummary, LoweredFault};
use crate::ids::{ClientId, InstanceId, JobId, RequestId, RequestTypeId};
use crate::path::LinkKind;
use crate::time::SimDuration;
use crate::trace::TraceEvent;
use rand::Rng;

/// Fault injection: the installed plan's state (see [`crate::fault`]) and
/// the requests it dropped or shed.
#[derive(Debug, Default)]
pub(super) struct Faults {
    /// `None` keeps every hot-path hook to a single branch.
    state: Option<Box<FaultState>>,
    /// Requests terminally dropped by a fault.
    dropped: u64,
    /// Requests shed by an open circuit breaker.
    shed: u64,
}

impl Faults {
    /// Whether a fault plan is installed.
    pub(super) fn installed(&self) -> bool {
        self.state.is_some()
    }

    /// Whether instance `i` is down.
    #[inline]
    pub(super) fn is_down(&self, i: usize) -> bool {
        self.state.as_deref().is_some_and(|f| f.instance_down[i])
    }

    /// `secs` of service on machine `m`, stretched by a slowdown window.
    #[inline]
    pub(super) fn slowed(&self, m: usize, secs: f64) -> f64 {
        match self.state.as_deref() {
            Some(f) => secs * f.slow_factor[m],
            None => secs,
        }
    }

    /// Whether a degraded link drops a packet toward machine `m`. Drawn
    /// from the dedicated fault stream, so fault-free runs draw nothing.
    #[inline]
    pub(super) fn drops_packet(&mut self, m: usize) -> bool {
        let Some(f) = self.state.as_deref_mut() else {
            return false;
        };
        let p = f.net_drop_p[m];
        if p > 0.0 && f.rng.gen::<f64>() < p {
            f.summary.packets_dropped += 1;
            return true;
        }
        false
    }

    /// Latency a degraded link adds toward machine `m`, seconds.
    pub(super) fn added_latency(&self, m: usize) -> Option<f64> {
        self.state.as_deref().map(|f| f.net_added_s[m])
    }

    /// The delay before `job`'s dropped packet is sent again, doubling
    /// with each attempt up to 2^16 × the base; `None` once the network
    /// policy's budget is spent (or without a policy, or a job).
    pub(super) fn retransmit_delay(&mut self, cx: &mut Cx, job: JobId) -> Option<SimDuration> {
        let f = self.state.as_deref_mut().expect("drop implies faults");
        match (f.net_policy, cx.jobs.get_mut(job)) {
            (Some(pol), Some(j)) if j.net_attempts < pol.retransmit_limit => {
                j.net_attempts += 1;
                f.summary.retransmits += 1;
                let backoff = pol.retransmit_backoff_s
                    * f64::from(1u32 << u32::from(j.net_attempts - 1).min(16));
                Some(SimDuration::from_secs_f64(backoff))
            }
            _ => None,
        }
    }

    /// The fault counters and timeline so far, `dropped` and `shed`
    /// included, or `None` without a fault plan.
    pub(super) fn snapshot(&self) -> Option<FaultSummary> {
        let mut s = self.state.as_deref()?.summary_snapshot();
        s.dropped = self.dropped;
        s.shed = self.shed;
        Some(s)
    }
}

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
            !self.obs.telemetry_on(),
            "install_faults must be called before enable_telemetry"
        );
        let names = Entities::new(
            (0..self.instances.len()).map(|i| &**self.instances.name(i)),
            (0..self.machines.len()).map(|m| &**self.machines.name(m)),
            (0..self.clients.len()).map(|c| self.clients.name(c)),
        );
        let pool_of = |up, down| self.paths.pool_of(up, down);
        let (schedule, policies) = plan.lower(&names, pool_of, only_owned)?;
        for (idx, f) in schedule.iter().enumerate() {
            self.cx
                .events
                .schedule(f.at, EventKind::FaultStart { fault: idx as u32 });
            if let Some(until) = f.until {
                self.cx
                    .events
                    .schedule(until, EventKind::FaultEnd { fault: idx as u32 });
            }
        }
        let mut client_policy = vec![None; self.clients.len()];
        for (client, policy) in policies {
            client_policy[client] = Some(policy);
        }
        let rng = crate::rng::RngFactory::new(self.cx.cfg.seed).stream("fault", 0);
        self.faults.state = Some(Box::new(FaultState::new(
            rng,
            schedule,
            self.instances.len(),
            self.machines.len(),
            client_policy,
            plan.policy.network,
        )));
        Ok(())
    }

    /// Handles [`EventKind::FaultStart`] (`start`) and
    /// [`EventKind::FaultEnd`] of fault window `idx`: sets or clears its
    /// effect and logs the transition; then a crash's queued jobs die, and
    /// a restored pool's connections go to the jobs waiting for them.
    pub(super) fn on_fault(&mut self, idx: usize, start: bool) {
        let Some(f) = self.faults.state.as_deref_mut() else {
            return;
        };
        let fault = f.schedule[idx].fault;
        let (mut doomed, mut grants) = (Vec::new(), Vec::new());
        let what = match fault {
            LoweredFault::Crash { instance } => {
                let i = instance.index();
                f.instance_down[i] = start;
                let name = self.instances.name(i).clone();
                if !start {
                    format!("instance {name} restarted")
                } else {
                    // Queued jobs die with the process; threads blocked on
                    // now-doomed replies restart unblocked. Batches in
                    // service die at their StageDone, arrivals at the door.
                    doomed = self.instances.crash(i);
                    format!("instance {name} crashed")
                }
            }
            LoweredFault::Slowdown { machine, factor } => {
                let m = machine.index();
                let name = self.machines.name(m);
                f.slow_factor[m] = if start { factor } else { 1.0 };
                match start {
                    true => format!("machine {name} slowed down x{factor}"),
                    false => format!("machine {name} back to full speed"),
                }
            }
            LoweredFault::NetDegrade {
                machine,
                added_s,
                drop_prob,
            } => {
                let m = machine.index();
                let name = self.machines.name(m);
                if start {
                    (f.net_added_s[m], f.net_drop_p[m]) = (added_s, drop_prob);
                    format!("network to {name} degraded (+{added_s}s, drop p={drop_prob})")
                } else {
                    (f.net_added_s[m], f.net_drop_p[m]) = (0.0, 0.0);
                    format!("network to {name} healthy")
                }
            }
            LoweredFault::PoolLeak { pool, leak } => {
                let ends = &self.paths.pools()[pool.index()];
                let name = |i: InstanceId| self.instances.name(i.index());
                let name = format!("{}->{}", name(ends.up_instance), name(ends.down_instance));
                if start {
                    let leaked = self.paths.leak_pool(pool, leak);
                    format!("pool {name} leaked {leaked} connections")
                } else {
                    let restored;
                    (grants, restored) = self.paths.restore_pool(pool);
                    format!("pool {name} restored ({restored} usable)")
                }
            }
        };
        f.log(self.cx.now, what);
        for job in doomed {
            self.kill_job(job, None);
        }
        if let LoweredFault::PoolLeak { pool, .. } = fault {
            for (job, c) in grants {
                self.grant_pooled(pool, job, c);
            }
        }
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
        let job = self.cx.jobs.free(job_id);
        let rid = job.request;
        let already_released = conn_released.unwrap_or_else(|| {
            // A job releases its (reply-link) connection when it is
            // delivered; before delivery it still holds whatever it carries.
            job.instance.is_some()
                && self.cx.requests.get(rid).is_some_and(|r| {
                    !matches!(
                        self.paths.ty(r.ty).nodes[job.node.index()].link,
                        LinkKind::Request
                    )
                })
        });
        if let Some(c) = job.conn {
            if !already_released && !matches!(self.paths.conn(c).up, UpEndpoint::Client(_)) {
                self.release_conn(c);
            }
        }
        if let Some(f) = self.faults.state.as_deref_mut() {
            f.summary.jobs_killed += 1;
        }
        self.obs.record(TraceEvent::JobKilled {
            job: job_id,
            request: rid,
            t: self.cx.now,
        });
        if let Some(req) = self.cx.requests.get_mut(rid) {
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
        let Some(req) = self.cx.requests.get(rid) else {
            return;
        };
        if req.live_jobs > 0 {
            return;
        }
        if req.resolved {
            self.retire_request(rid, false);
            self.clients.count_drained();
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
            self.obs.record(TraceEvent::RequestRetired {
                request: rid,
                t: self.cx.now,
            });
        }
        if self.cx.requests.get(rid).is_some_and(|req| req.failed) {
            self.release_threads_blocked_for(rid);
        }
        self.cx.requests.free(rid);
    }

    /// A request that lost a job to a fault retires with nodes that never
    /// ran, and a thread that blocked until one of them
    /// (`block_thread_until`) would wait forever: only that node's delivery
    /// unblocks it. Releases each such thread and lets its instance
    /// dispatch. A thread whose own instance crashed since the blocking
    /// node ran was reset by the crash and is left alone.
    fn release_threads_blocked_for(&mut self, rid: RequestId) {
        let req = self.cx.requests.get(rid).expect("retiring request exists");
        let specs = &self.paths.ty(req.ty).nodes;
        let schedule = self
            .faults
            .state
            .as_deref()
            .map_or(&[][..], |f| &f.schedule);
        let mut released = Vec::new();
        for (nr, spec) in req.nodes.iter().zip(specs) {
            let (Some(until), Some(inst), Some(thread), Some(entered)) =
                (spec.block_thread_until, nr.instance, nr.thread, nr.enter)
            else {
                continue;
            };
            let crashed_since = schedule.iter().any(|w| {
                w.fault == LoweredFault::Crash { instance: inst }
                    && (entered..=self.cx.now).contains(&w.at)
            });
            if req.nodes[until.index()].enter.is_some() || crashed_since {
                continue;
            }
            self.instances.unblock(inst.index(), thread.index());
            released.push(inst);
        }
        for inst in released {
            let Simulator {
                cx,
                instances,
                machines,
                faults,
                obs,
                ..
            } = self;
            instances.dispatch(cx, machines, faults, obs, inst);
        }
    }

    /// Resolves a request whose last in-flight branch was killed: the
    /// client never gets a response. Releases the client connection (unless
    /// the timeout already did) and feeds the resilience policy.
    fn resolve_dropped(&mut self, rid: RequestId) {
        let (client, conn, conn_released, launched, timed_out, superseded, ty, attempt, size) = {
            let req = self
                .cx
                .requests
                .get_mut(rid)
                .expect("dropping request exists");
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
        self.faults.dropped += 1;
        self.obs.record(TraceEvent::RequestDropped {
            request: rid,
            t: self.cx.now,
        });
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
            let Some(f) = self.faults.state.as_deref() else {
                return false;
            };
            match &f.client_policy[client.index()] {
                Some(p) => (p.breaker_open(self.cx.now), p.hedge_after),
                None => return false,
            }
        };
        if open {
            self.resolve_shed(rid, client);
            return true;
        }
        if let Some(h) = hedge {
            let attempt = self.cx.requests.get(rid).map_or(0, |r| r.attempt);
            if attempt == 0 {
                self.cx
                    .events
                    .schedule(self.cx.now + h, EventKind::HedgeFire { request: rid });
            }
        }
        false
    }

    /// Immediately resolves `rid` as shed: the breaker refused it, the
    /// client sees an instant degraded response, and no simulated resource
    /// is touched.
    fn resolve_shed(&mut self, rid: RequestId, client: ClientId) {
        self.faults.shed += 1;
        self.clients.count_degraded();
        self.obs.record(TraceEvent::RequestShed {
            request: rid,
            t: self.cx.now,
        });
        self.retire_request(rid, true);
        // Closed-loop users observe the instant rejection and think again.
        self.clients.reissue(&mut self.cx, client);
    }

    /// Breaker bookkeeping on a client-observed success.
    pub(super) fn fault_on_success(&mut self, client: ClientId) {
        if let Some(f) = self.faults.state.as_deref_mut() {
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
            let Some(f) = self.faults.state.as_deref_mut() else {
                return;
            };
            let crate::fault::FaultState {
                client_policy, rng, ..
            } = f;
            let Some(p) = client_policy[client.index()].as_mut() else {
                return;
            };
            p.on_failure(self.cx.now, attempt, rng)
        };
        if let Some(delay) = delay {
            self.cx.events.schedule(
                self.cx.now + delay,
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
            let Some(req) = self.cx.requests.get(rid) else {
                return; // already completed or dropped
            };
            if req.timed_out || req.resolved || req.hedge_twin.is_some() {
                return;
            }
            (req.client, req.ty, req.size_bytes, req.attempt)
        };
        if let Some(f) = self.faults.state.as_deref_mut() {
            f.summary.hedged += 1;
        }
        self.emit_request(client, ty, size, attempt, Some(rid));
    }

    /// Requests terminally dropped by a fault: a crash, drain, or exhausted
    /// retransmission killed their last in-flight branch, so no response
    /// ever reached the client. Zero unless a fault plan is installed.
    pub fn dropped(&self) -> u64 {
        self.faults.dropped
    }

    /// Requests shed at emission by an open circuit breaker. Shed requests
    /// complete instantly with a degraded marker and touch no simulated
    /// resource.
    pub fn shed(&self) -> u64 {
        self.faults.shed
    }

    /// The fault/resilience counters and fault-window timeline, or `None`
    /// when no fault plan is installed.
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        let mut s = self.faults.snapshot()?;
        s.retried = self.retried();
        s.degraded = self.degraded();
        s.timed_out = self.timeouts();
        Some(s)
    }
}
