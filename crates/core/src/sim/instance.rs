//! Instances: arrival at an instance, stage queues, batch dispatch onto
//! cores, and the end of a node.

use super::{charge_latency, Batch, CritSiteRef, ExecModel, Simulator};
use crate::event::EventKind;
use crate::ids::{InstanceId, JobId, MachineId, StageId, ThreadId};
use crate::path::{LinkKind, NodeTarget, PathSelect};
use crate::time::SimDuration;
use crate::trace::TraceEvent;

impl Simulator {
    /// A job (post-network) arrives at its target instance: handle reply
    /// connection release, fan-in merging, execution-path choice, thread
    /// routing, and enqueue into the first stage.
    pub(super) fn deliver_to_instance(&mut self, job_id: JobId, inst_id: InstanceId) {
        let (rid, node, conn) = {
            let j = self.jobs.get(job_id).expect("delivered job exists");
            (j.request, j.node, j.conn)
        };
        let ty = self.requests.get(rid).expect("job's request exists").ty;

        // One pass over the node spec: every field the delivery path needs,
        // copied out under a single borrow instead of four indexed lookups.
        let (released_reply_conn, fan_in, required, exec_select, pin) = {
            let rt = &self.request_types[ty.index()];
            let spec = &rt.nodes[node.index()];
            let fan_in = rt.fan_in[node.index()].max(1);
            let exec_select = match spec.target {
                NodeTarget::Service { exec_path, .. } => exec_path,
                NodeTarget::ClientSink => unreachable!("sinks never execute on instances"),
            };
            (
                matches!(
                    spec.link,
                    LinkKind::Reply { .. } | LinkKind::ReplyToParent | LinkKind::ReplyVia { .. }
                ),
                fan_in,
                spec.fan_in_policy.required(fan_in),
                exec_select,
                spec.pin_thread_of,
            )
        };
        if released_reply_conn {
            if let Some(c) = conn {
                self.release_conn(c);
            }
        }

        // Fault: arrivals at a crashed instance die at the door (the reply
        // release above still happened — the *upstream* conn frees
        // normally).
        if self
            .fault
            .as_deref()
            .is_some_and(|f| f.instance_down[inst_id.index()])
        {
            self.kill_job(job_id, Some(released_reply_conn));
            return;
        }

        // Fan-in: the node fires once `required` copies have arrived — all
        // of them by default, fewer under a quorum/best-effort policy.
        // Copies arriving after the firing are absorbed.
        let now = self.now;
        let (req, fired) = self.fan_in_arrival(rid, node, Some(inst_id), fan_in, required);
        let nr = &mut req.nodes[node.index()];
        if (nr.arrivals as usize) <= required {
            nr.entry_conn = conn;
        }
        if fired {
            nr.enter = Some(now);
        } else {
            req.live_jobs -= 1;
        }
        // The hop that arrives is network time; when the firing fan-in copy
        // lands, the wait since the previous arrival was synchronization.
        let comp = if fired && fan_in > 1 {
            crate::telemetry::LatencyComponent::FanInSync
        } else {
            crate::telemetry::LatencyComponent::Network
        };
        self.attribute_latency(rid, comp, CritSiteRef::Instance(inst_id));
        if !fired {
            self.jobs.free(job_id);
            self.try_finalize(rid);
            return;
        }

        // Choose the intra-service execution path.
        let inst_service = self.instances[inst_id.index()].service;
        let exec_idx = match exec_select {
            PathSelect::Fixed { index } => index,
            PathSelect::Probabilistic => {
                self.services[inst_service.index()].choose_path(&mut self.rng_path)
            }
        };

        // Route to a worker thread / queue set.
        let shared = self.instances[inst_id.index()].shared_queues;
        let thread_idx = if let Some(pn) = pin {
            self.requests.get(rid).expect("request exists").nodes[pn.index()]
                .thread
                .expect("pinned node already executed")
                .index()
        } else if shared {
            0
        } else {
            conn.and_then(|c| self.conns[c.index()].thread_at(inst_id))
                .map(ThreadId::index)
                .unwrap_or(0)
        };
        let set = if shared { 0 } else { thread_idx };

        {
            let j = self.jobs.get_mut(job_id).expect("delivered job exists");
            j.exec_path = exec_idx;
            j.stage_cursor = 0;
            j.instance = Some(inst_id);
            j.state_since = self.now;
        }
        let first_stage = self.services[inst_service.index()].paths[exec_idx].stages[0];
        self.enqueue(job_id, inst_id, set, first_stage);

        // Unblock the pinned thread waiting for this reply, if any.
        if self.unblocks_thread[ty.index()][node.index()] {
            self.instances[inst_id.index()].unblock(thread_idx);
        }

        self.dispatch_instance(inst_id);
    }

    /// Queues job `job_id` at `stage` of queue set `set` of `inst_id`.
    fn enqueue(&mut self, job_id: JobId, inst_id: InstanceId, set: usize, stage: StageId) {
        let (rid, node, conn) = {
            let j = self.jobs.get(job_id).expect("queued job exists");
            (j.request, j.node, j.conn)
        };
        let conn = conn.expect("jobs always travel on a connection");
        self.instances[inst_id.index()].queue_sets[set].push(stage.index(), job_id, conn);
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::Enqueue {
                job: job_id,
                request: rid,
                node,
                instance: inst_id,
                stage,
                t: self.now,
            });
        }
    }

    /// Starts as much work as possible on an instance: idle threads pick the
    /// latest non-empty stage of their queue set and run a batch on a free
    /// core.
    pub(super) fn dispatch_instance(&mut self, inst_id: InstanceId) {
        let i = inst_id.index();
        loop {
            // Every pass below ends with a full thread scan that finds
            // nothing once the queues drain; the per-set bitmasks make
            // "all empty" a handful of u64 loads, so check that first.
            if self.instances[i]
                .queue_sets
                .iter()
                .all(crate::queue::StageQueueSet::is_empty)
            {
                break;
            }
            // Find (thread, core, stage) without mutating.
            let candidate = {
                let inst = &self.instances[i];
                let machine = &self.machines[inst.machine.index()];
                let mut found = None;
                // Ascending-bit iteration visits threads in the same order
                // as the scan it replaces, so the candidate is unchanged.
                let mut idle = inst.idle_mask;
                while idle != 0 {
                    let t = idle.trailing_zeros() as usize;
                    idle &= idle - 1;
                    let th = &inst.threads[t];
                    debug_assert!(th.is_idle(), "idle_mask out of sync");
                    // Queue check first: it is one bitmask load, while the
                    // core checks touch the (cold) machine core table. A
                    // workless thread never reaches the core scan, and the
                    // (thread, core, stage) produced is unchanged: a
                    // candidate still needs idle + free core + work.
                    let Some(stage) = inst.queue_sets[th.queue_set].highest_nonempty() else {
                        continue;
                    };
                    let core_idx = match inst.exec {
                        ExecModel::Simple => {
                            let c = inst.cores[t];
                            if machine.cores[c].busy {
                                continue;
                            }
                            c
                        }
                        ExecModel::MultiThreaded { .. } => {
                            match inst.cores.iter().copied().find(|&c| !machine.cores[c].busy) {
                                Some(c) => c,
                                // No free cores: no thread can start.
                                None => break,
                            }
                        }
                    };
                    found = Some((t, core_idx, stage));
                    break;
                }
                found
            };
            let Some((t, core_idx, stage_idx)) = candidate else {
                break;
            };

            // Assemble the batch into a pooled scratch vector (returned to
            // the pool by `on_stage_done`) and start service.
            let mut jobs = self.batch_pool.pop().unwrap_or_default();
            let inst = &mut self.instances[i];
            let set_idx = inst.threads[t].queue_set;
            inst.queue_sets[set_idx].assemble_batch_into(stage_idx, &mut jobs);
            debug_assert!(!jobs.is_empty(), "candidate stage had work");
            let k = jobs.len();
            let m = inst.machine.index();
            // One fused pass per job: batch bytes for the service-time
            // model, dispatch bookkeeping, and queue-wait telemetry (two
            // extra arena walks before the fusion).
            let mut batch_bytes: f64 = 0.0;
            for &j in &jobs {
                let (rid, enqueued) = {
                    let job = self.jobs.get_mut(j).expect("queued job exists");
                    job.thread = Some(ThreadId::from_raw(t as u32));
                    job.instance = Some(inst_id);
                    let enqueued = job.state_since;
                    job.state_since = self.now;
                    (job.request, enqueued)
                };
                // Not `attribute_latency`: `inst` holds a borrow of
                // self.instances, so only disjoint fields are touchable here.
                if let Some(tel) = self.telemetry.as_deref_mut() {
                    if let Some(req) = self.requests.get_mut(rid) {
                        charge_latency(
                            req,
                            self.now,
                            tel.cfg.critpath,
                            crate::telemetry::LatencyComponent::QueueWait,
                            CritSiteRef::Stage(inst_id, stage_idx as u32),
                        );
                    }
                    if self.now >= tel.warmup_at {
                        tel.stage_queue_wait[i][stage_idx].record((self.now - enqueued).as_nanos());
                    }
                }
                if let Some(req) = self.requests.get(rid) {
                    batch_bytes += req.size_bytes;
                }
            }
            let core = &mut self.machines[m].cores[core_idx];
            let freq = core.freq_ghz;
            let ctx_ns = match inst.exec {
                ExecModel::MultiThreaded { ctx_switch_ns }
                    if core.last_thread != Some((i as u32, t as u32)) =>
                {
                    ctx_switch_ns
                }
                _ => 0,
            };
            let s = inst.service.index();
            let model = &self.services[s].stages[stage_idx].service;
            let at = self.at_freq.get(s, stage_idx, model, freq);
            let secs = model.sample_at(&mut self.rng_service, k, batch_bytes, at);
            // Fault: a machine-slowdown window inflates service times.
            let secs = match self.fault.as_deref() {
                Some(f) => secs * f.slow_factor[m],
                None => secs,
            };
            let dur = SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(ctx_ns);
            core.last_thread = Some((i as u32, t as u32));
            self.machines[m].occupy_core(core_idx, dur);
            if let Some(log) = self.span_log.as_deref_mut() {
                let start = self.now;
                log.record_batch(&jobs, |jobs| TraceEvent::BatchStart {
                    instance: inst_id,
                    machine: MachineId::from_raw(m as u32),
                    stage: StageId::from_raw(stage_idx as u32),
                    thread: ThreadId::from_raw(t as u32),
                    core: core_idx as u32,
                    freq_ghz: freq,
                    start,
                    end: start + dur,
                    jobs,
                });
            }
            inst.threads[t].running = Some(Batch {
                stage: StageId::from_raw(stage_idx as u32),
                jobs,
            });
            inst.threads[t].held_core = Some(core_idx);
            inst.idle_mask &= !(1u64 << t);
            self.events.schedule(
                self.now + dur,
                EventKind::StageDone {
                    instance: inst_id,
                    thread: ThreadId::from_raw(t as u32),
                },
            );
        }
    }

    pub(super) fn on_stage_done(&mut self, inst_id: InstanceId, thread: ThreadId) {
        let i = inst_id.index();
        let t = thread.index();
        let batch = self.instances[i].threads[t]
            .running
            .take()
            .expect("StageDone for running thread");
        let core_idx = self.instances[i].threads[t]
            .held_core
            .take()
            .expect("running thread holds a core");
        if self.instances[i].threads[t].block_depth == 0 {
            self.instances[i].idle_mask |= 1u64 << t;
        }
        let m = self.instances[i].machine.index();
        self.machines[m].cores[core_idx].busy = false;

        // Fault: the instance crashed while this batch was in service — the
        // work is lost. (Queued jobs were drained at crash time; arrivals
        // die at the door.)
        if self.fault.as_deref().is_some_and(|f| f.instance_down[i]) {
            for &job_id in &batch.jobs {
                self.kill_job(job_id, None);
            }
            self.recycle_batch(batch);
            return;
        }

        let sid = self.instances[i].service.index();
        let set = self.instances[i].threads[t].queue_set;
        for &job_id in &batch.jobs {
            let (cursor, exec_path, rid, svc_start) = {
                let job = self.jobs.get_mut(job_id).expect("batch job exists");
                debug_assert_eq!(
                    self.services[sid].paths[job.exec_path].stages[job.stage_cursor], batch.stage,
                    "job was batched at a stage it is not at"
                );
                job.stage_cursor += 1;
                let svc_start = job.state_since;
                job.state_since = self.now;
                (job.stage_cursor, job.exec_path, job.request, svc_start)
            };
            self.attribute_latency(
                rid,
                crate::telemetry::LatencyComponent::Service,
                CritSiteRef::Stage(inst_id, batch.stage.raw()),
            );
            if let Some(tel) = self.telemetry.as_deref_mut() {
                if self.now >= tel.warmup_at {
                    tel.stage_service[i][batch.stage.index()]
                        .record((self.now - svc_start).as_nanos());
                }
            }
            let stages = &self.services[sid].paths[exec_path].stages;
            if cursor < stages.len() {
                let next_stage = stages[cursor];
                self.enqueue(job_id, inst_id, set, next_stage);
            } else {
                self.complete_node(job_id, inst_id, thread);
            }
        }
        self.recycle_batch(batch);
        self.dispatch_instance(inst_id);
    }

    /// Returns a finished batch's job vector to the scratch pool.
    fn recycle_batch(&mut self, batch: Batch) {
        let mut jobs = batch.jobs;
        jobs.clear();
        self.batch_pool.push(jobs);
    }

    /// A job finished the last stage of its node: log its residency, handle
    /// thread blocking, and fan out to children.
    fn complete_node(&mut self, job_id: JobId, inst_id: InstanceId, thread: ThreadId) {
        let job = self.jobs.free(job_id);
        let rid = job.request;
        let node = job.node;

        let (ty, entered) = {
            let req = self.requests.get_mut(rid).expect("job's request exists");
            let nr = &mut req.nodes[node.index()];
            nr.instance = Some(inst_id);
            nr.thread = Some(thread);
            let entered = nr.enter.expect("a completing node was entered");
            // Interval samples only feed controller ticks; skip the push
            // when no controller will ever drain them.
            if !self.controllers.is_empty() {
                let residency = self.now - entered;
                self.interval_instance[inst_id.index()].push(residency.as_secs_f64());
            }
            req.live_jobs -= 1;
            (req.ty, entered)
        };
        if let Some(log) = self.span_log.as_deref_mut() {
            log.record(TraceEvent::NodeDone {
                request: rid,
                job: job_id,
                node,
                instance: inst_id,
                thread,
                entered,
                t: self.now,
            });
        }

        let spec = &self.request_types[ty.index()].nodes[node.index()];
        let n_children = spec.children.len();
        if spec.block_thread_until.is_some() {
            let inst = &mut self.instances[inst_id.index()];
            inst.threads[thread.index()].block_depth += 1;
            inst.idle_mask &= !(1u64 << thread.index());
        }

        // Iterate by index, re-reading the spec each round: `fan_out` needs
        // `&mut self`, and this keeps the hot path free of a children clone.
        for k in 0..n_children {
            let child = self.request_types[ty.index()].nodes[node.index()].children[k];
            self.fan_out(rid, ty, node, child, inst_id, thread, job.conn);
        }
        // A failed or early-resolved request may have just drained its last
        // live branch. No-op when faults and quorum policies are off.
        self.try_finalize(rid);
    }
}
