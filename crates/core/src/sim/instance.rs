//! Instances: the service models, worker threads and stage queues of each
//! deployed instance; arrival at an instance, batch dispatch onto cores,
//! and the end of a node.

use super::fault::Faults;
use super::network::Machines;
use super::observe::{CritSiteRef, Observers};
use super::{Cx, ExecModel, Simulator};
use crate::config::Name;
use crate::critpath::EdgeKind;
use crate::event::EventKind;
use crate::ids::{InstanceId, JobId, MachineId, ServiceId, StageId, ThreadId};
use crate::path::{LinkKind, NodeTarget, PathSelect};
use crate::queue::{StageQueue, StageQueueSet};
use crate::service::ServiceModel;
use crate::stage::StageSpec;
use crate::time::SimDuration;
use crate::trace::{InstanceMeta, TraceEvent};

/// A batch of jobs a thread is currently servicing through one stage.
#[derive(Debug, Clone)]
struct Batch {
    stage: StageId,
    jobs: Vec<JobId>,
}

/// Runtime state of one worker thread.
#[derive(Debug)]
struct ThreadRt {
    running: Option<Batch>,
    /// Number of outstanding synchronous calls blocking this thread.
    block_depth: u32,
    queue_set: usize,
    held_core: Option<usize>,
}

impl ThreadRt {
    fn is_idle(&self) -> bool {
        self.running.is_none() && self.block_depth == 0
    }
}

/// Runtime state of one deployed instance.
#[derive(Debug)]
struct InstanceRt {
    name: Name,
    service: ServiceId,
    machine: MachineId,
    /// Machine-local core indices owned by this instance.
    cores: Vec<usize>,
    exec: ExecModel,
    threads: Vec<ThreadRt>,
    /// Bit t set iff `threads[t].is_idle()` (no running batch, not
    /// blocked). Maintained at every `running`/`block_depth` transition so
    /// the dispatcher iterates set bits instead of scanning `ThreadRt`s.
    idle_mask: u64,
    /// One set shared (Simple) or one per thread.
    queue_sets: Vec<crate::queue::StageQueueSet>,
    shared_queues: bool,
    /// Round-robin counter for binding new connections to threads.
    rr_thread: usize,
}

impl InstanceRt {
    /// Takes one outstanding synchronous call off thread `t`, which goes
    /// back to the idle set if that was its last and it runs nothing.
    fn unblock(&mut self, t: usize) {
        let th = &mut self.threads[t];
        if th.block_depth > 0 {
            th.block_depth -= 1;
        }
        if th.is_idle() {
            self.idle_mask |= 1u64 << t;
        }
    }
}

/// The deployed instances: each one's worker threads and stage queues,
/// the service models they run, and the scratch vectors batches are
/// assembled in.
#[derive(Debug)]
pub(crate) struct Instances {
    services: Vec<ServiceModel>,
    /// Each stage's frequency scaling per core frequency seen so far.
    at_freq: crate::stage::AtFreqMemo,
    rts: Vec<InstanceRt>,
    /// Recycled batch job vectors: `dispatch` pops a scratch vector here
    /// and `on_stage_done` returns it, so steady-state batch assembly
    /// allocates nothing.
    batch_pool: Vec<Vec<JobId>>,
}

impl Instances {
    /// No instances yet, of `services`.
    pub(crate) fn new(services: Vec<ServiceModel>) -> Instances {
        Instances {
            services,
            at_freq: Default::default(),
            rts: Vec::new(),
            batch_pool: Vec::new(),
        }
    }

    /// Deploys instance `name` of `service` on `cores` of `machine`, with
    /// `threads` worker threads (one per core when `exec` is simple).
    pub(crate) fn deploy(
        &mut self,
        name: Name,
        service: ServiceId,
        machine: MachineId,
        cores: Vec<usize>,
        exec: ExecModel,
        threads: usize,
    ) {
        let shared = exec == ExecModel::Simple;
        let svc = &self.services[service.index()];
        let queue_sets = (0..if shared { 1 } else { threads })
            .map(|_| {
                StageQueueSet::new(
                    svc.stages
                        .iter()
                        .map(|s| StageQueue::new(s.queue))
                        .collect(),
                )
            })
            .collect();
        self.rts.push(InstanceRt {
            name,
            service,
            machine,
            cores,
            exec,
            threads: (0..threads)
                .map(|t| ThreadRt {
                    running: None,
                    block_depth: 0,
                    queue_set: if shared { 0 } else { t },
                    held_core: None,
                })
                .collect(),
            idle_mask: if threads == 64 {
                u64::MAX
            } else {
                (1u64 << threads) - 1
            },
            queue_sets,
            shared_queues: shared,
            rr_thread: 0,
        });
    }

    /// Number of instances.
    pub(crate) fn len(&self) -> usize {
        self.rts.len()
    }

    /// Name of instance `i`.
    pub(super) fn name(&self, i: usize) -> &Name {
        &self.rts[i].name
    }

    /// Index of the machine instance `i` runs on.
    #[inline]
    pub(super) fn machine(&self, i: usize) -> usize {
        self.rts[i].machine.index()
    }

    /// The machine-local cores instance `i` owns.
    pub(super) fn cores(&self, i: usize) -> &[usize] {
        &self.rts[i].cores
    }

    /// Number of worker threads of instance `i`.
    pub(crate) fn thread_count(&self, i: usize) -> usize {
        self.rts[i].threads.len()
    }

    /// The stages of the service instance `i` runs.
    pub(super) fn stages(&self, i: usize) -> &[StageSpec] {
        &self.services[self.rts[i].service.index()].stages
    }

    /// Busy nanoseconds of instance `i`'s cores.
    pub(super) fn busy_ns(&self, machines: &Machines, i: usize) -> u64 {
        let inst = &self.rts[i];
        let cores = machines.cores(inst.machine.index());
        inst.cores.iter().map(|&c| cores[c].busy_ns).sum()
    }

    /// Total queued jobs of instance `i`, across its queue sets and stages.
    pub(super) fn queue_depth(&self, i: usize) -> usize {
        self.rts[i].queue_sets.iter().map(StageQueueSet::len).sum()
    }

    /// Threads of instance `i` running a batch, and threads blocked on a
    /// synchronous call.
    pub(super) fn thread_states(&self, i: usize) -> (usize, usize) {
        let threads = &self.rts[i].threads;
        let running = threads.iter().filter(|t| t.running.is_some()).count();
        let blocked = threads.iter().filter(|t| t.block_depth > 0).count();
        (running, blocked)
    }

    /// Instance names, machines and stage names, for rendering traces.
    pub(super) fn meta(&self) -> Vec<InstanceMeta> {
        (self.rts.iter().enumerate())
            .map(|(i, inst)| InstanceMeta {
                name: inst.name.clone(),
                machine: inst.machine.raw(),
                stages: self.stages(i).iter().map(|s| s.name.clone()).collect(),
            })
            .collect()
    }

    /// The downstream thread the next new connection to instance `i` is
    /// bound to, round robin.
    pub(super) fn next_thread(&mut self, i: usize) -> ThreadId {
        let inst = &mut self.rts[i];
        let n = inst.threads.len();
        let t = inst.rr_thread;
        debug_assert!(t < n, "rr_thread wraps in range");
        inst.rr_thread = if t + 1 == n { 0 } else { t + 1 };
        ThreadId::from_raw(t as u32)
    }

    /// Takes one outstanding synchronous call off thread `t` of instance
    /// `i`.
    pub(super) fn unblock(&mut self, i: usize, t: usize) {
        self.rts[i].unblock(t);
    }

    /// Instance `i` crashed: its queued jobs, returned, die with it, and
    /// its threads restart unblocked.
    pub(super) fn crash(&mut self, i: usize) -> Vec<JobId> {
        let inst = &mut self.rts[i];
        let mut doomed = Vec::new();
        for set in &mut inst.queue_sets {
            doomed.extend(set.drain_all());
        }
        for (t, th) in inst.threads.iter_mut().enumerate() {
            th.block_depth = 0;
            if th.running.is_none() {
                inst.idle_mask |= 1u64 << t;
            }
        }
        doomed
    }

    /// Starts as much work as possible on an instance: idle threads pick the
    /// latest non-empty stage of their queue set and run a batch on a free
    /// core.
    pub(super) fn dispatch(
        &mut self,
        cx: &mut Cx,
        machines: &mut Machines,
        faults: &Faults,
        obs: &mut Observers,
        inst_id: InstanceId,
    ) {
        let i = inst_id.index();
        loop {
            // Every pass below ends with a full thread scan that finds
            // nothing once the queues drain; the per-set bitmasks make
            // "all empty" a handful of u64 loads, so check that first.
            if self.rts[i]
                .queue_sets
                .iter()
                .all(crate::queue::StageQueueSet::is_empty)
            {
                break;
            }
            // Find (thread, core, stage) without mutating.
            let candidate = {
                let inst = &self.rts[i];
                let cores = machines.cores(inst.machine.index());
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
                            if cores[c].busy {
                                continue;
                            }
                            c
                        }
                        ExecModel::MultiThreaded { .. } => {
                            match inst.cores.iter().copied().find(|&c| !cores[c].busy) {
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
            let inst = &mut self.rts[i];
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
                    let job = cx.jobs.get_mut(j).expect("queued job exists");
                    job.thread = Some(ThreadId::from_raw(t as u32));
                    job.instance = Some(inst_id);
                    let enqueued = job.state_since;
                    job.state_since = cx.now;
                    (job.request, enqueued)
                };
                obs.on_stage_interval(cx, rid, EdgeKind::QueueWait, inst_id, stage_idx, enqueued);
                if let Some(req) = cx.requests.get(rid) {
                    batch_bytes += req.size_bytes;
                }
            }
            let core = &machines.cores(m)[core_idx];
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
            let secs = model.sample_at(&mut cx.rng_service, k, batch_bytes, at);
            // Fault: a machine-slowdown window inflates service times.
            let secs = faults.slowed(m, secs);
            let dur = SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(ctx_ns);
            machines.run_on_core(m, core_idx, dur, (i as u32, t as u32));
            let start = cx.now;
            obs.record_batch(&jobs, |jobs| TraceEvent::BatchStart {
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
            inst.threads[t].running = Some(Batch {
                stage: StageId::from_raw(stage_idx as u32),
                jobs,
            });
            inst.threads[t].held_core = Some(core_idx);
            inst.idle_mask &= !(1u64 << t);
            cx.events.schedule(
                cx.now + dur,
                EventKind::StageDone {
                    instance: inst_id,
                    thread: ThreadId::from_raw(t as u32),
                },
            );
        }
    }
}

impl Simulator {
    /// A job (post-network) arrives at its target instance: handle reply
    /// connection release, fan-in merging, execution-path choice, thread
    /// routing, and enqueue into the first stage.
    pub(super) fn deliver_to_instance(&mut self, job_id: JobId, inst_id: InstanceId) {
        let (rid, node, conn) = {
            let j = self.cx.jobs.get(job_id).expect("delivered job exists");
            (j.request, j.node, j.conn)
        };
        let ty = self.cx.requests.get(rid).expect("job's request exists").ty;

        // One pass over the node spec: every field the delivery path needs,
        // copied out under a single borrow instead of four indexed lookups.
        let (released_reply_conn, fan_in, required, exec_select, pin) = {
            let rt = self.paths.ty(ty);
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
        if self.faults.is_down(inst_id.index()) {
            self.kill_job(job_id, Some(released_reply_conn));
            return;
        }

        // Fan-in: the node fires once `required` copies have arrived — all
        // of them by default, fewer under a quorum/best-effort policy.
        // Copies arriving after the firing are absorbed.
        let now = self.cx.now;
        let (req, fired) = super::path::fan_in_arrival(
            &mut self.cx,
            &mut self.obs,
            rid,
            node,
            Some(inst_id),
            fan_in,
            required,
        );
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
            EdgeKind::FanInSync
        } else {
            EdgeKind::Network
        };
        self.obs
            .charge(&mut self.cx, rid, comp, CritSiteRef::Instance(inst_id));
        if !fired {
            self.cx.jobs.free(job_id);
            self.try_finalize(rid);
            return;
        }

        // Choose the intra-service execution path.
        let inst_service = self.instances.rts[inst_id.index()].service;
        let exec_idx = match exec_select {
            PathSelect::Fixed { index } => index,
            PathSelect::Probabilistic => {
                self.instances.services[inst_service.index()].choose_path(&mut self.cx.rng_path)
            }
        };

        // Route to a worker thread / queue set.
        let shared = self.instances.rts[inst_id.index()].shared_queues;
        let thread_idx = if let Some(pn) = pin {
            self.cx.requests.get(rid).expect("request exists").nodes[pn.index()]
                .thread
                .expect("pinned node already executed")
                .index()
        } else if shared {
            0
        } else {
            conn.and_then(|c| self.paths.conn(c).thread_at(inst_id))
                .map(ThreadId::index)
                .unwrap_or(0)
        };
        let set = if shared { 0 } else { thread_idx };

        {
            let j = self.cx.jobs.get_mut(job_id).expect("delivered job exists");
            j.exec_path = exec_idx;
            j.stage_cursor = 0;
            j.instance = Some(inst_id);
            j.state_since = self.cx.now;
        }
        let first_stage = self.instances.services[inst_service.index()].paths[exec_idx].stages[0];
        self.enqueue(job_id, inst_id, set, first_stage);

        // Unblock the pinned thread waiting for this reply, if any.
        if self.paths.unblocks_thread(ty, node) {
            self.instances.rts[inst_id.index()].unblock(thread_idx);
        }

        let Simulator {
            cx,
            instances,
            machines,
            faults,
            obs,
            ..
        } = self;
        instances.dispatch(cx, machines, faults, obs, inst_id);
    }

    /// Queues job `job_id` at `stage` of queue set `set` of `inst_id`.
    fn enqueue(&mut self, job_id: JobId, inst_id: InstanceId, set: usize, stage: StageId) {
        let (rid, node, conn) = {
            let j = self.cx.jobs.get(job_id).expect("queued job exists");
            (j.request, j.node, j.conn)
        };
        let conn = conn.expect("jobs always travel on a connection");
        self.instances.rts[inst_id.index()].queue_sets[set].push(stage.index(), job_id, conn);
        self.obs.record(TraceEvent::Enqueue {
            job: job_id,
            request: rid,
            node,
            instance: inst_id,
            stage,
            t: self.cx.now,
        });
    }

    pub(super) fn on_stage_done(&mut self, inst_id: InstanceId, thread: ThreadId) {
        let i = inst_id.index();
        let t = thread.index();
        let batch = self.instances.rts[i].threads[t]
            .running
            .take()
            .expect("StageDone for running thread");
        let core_idx = self.instances.rts[i].threads[t]
            .held_core
            .take()
            .expect("running thread holds a core");
        if self.instances.rts[i].threads[t].block_depth == 0 {
            self.instances.rts[i].idle_mask |= 1u64 << t;
        }
        let m = self.instances.rts[i].machine.index();
        self.machines.release_core(m, core_idx);

        // Fault: the instance crashed while this batch was in service — the
        // work is lost. (Queued jobs were drained at crash time; arrivals
        // die at the door.)
        if self.faults.is_down(i) {
            for &job_id in &batch.jobs {
                self.kill_job(job_id, None);
            }
            self.recycle_batch(batch);
            return;
        }

        let sid = self.instances.rts[i].service.index();
        let set = self.instances.rts[i].threads[t].queue_set;
        for &job_id in &batch.jobs {
            let (cursor, exec_path, rid, svc_start) = {
                let job = self.cx.jobs.get_mut(job_id).expect("batch job exists");
                debug_assert_eq!(
                    self.instances.services[sid].paths[job.exec_path].stages[job.stage_cursor],
                    batch.stage,
                    "job was batched at a stage it is not at"
                );
                job.stage_cursor += 1;
                let svc_start = job.state_since;
                job.state_since = self.cx.now;
                (job.stage_cursor, job.exec_path, job.request, svc_start)
            };
            self.obs.on_stage_interval(
                &mut self.cx,
                rid,
                EdgeKind::Service,
                inst_id,
                batch.stage.index(),
                svc_start,
            );
            let stages = &self.instances.services[sid].paths[exec_path].stages;
            if cursor < stages.len() {
                let next_stage = stages[cursor];
                self.enqueue(job_id, inst_id, set, next_stage);
            } else {
                self.complete_node(job_id, inst_id, thread);
            }
        }
        self.recycle_batch(batch);
        let Simulator {
            cx,
            instances,
            machines,
            faults,
            obs,
            ..
        } = self;
        instances.dispatch(cx, machines, faults, obs, inst_id);
    }

    /// Returns a finished batch's job vector to the scratch pool.
    fn recycle_batch(&mut self, batch: Batch) {
        let mut jobs = batch.jobs;
        jobs.clear();
        self.instances.batch_pool.push(jobs);
    }

    /// A job finished the last stage of its node: log its residency, handle
    /// thread blocking, and fan out to children.
    fn complete_node(&mut self, job_id: JobId, inst_id: InstanceId, thread: ThreadId) {
        let job = self.cx.jobs.free(job_id);
        let rid = job.request;
        let node = job.node;

        let (ty, entered) = {
            let req = self.cx.requests.get_mut(rid).expect("job's request exists");
            let nr = &mut req.nodes[node.index()];
            nr.instance = Some(inst_id);
            nr.thread = Some(thread);
            let entered = nr.enter.expect("a completing node was entered");
            req.live_jobs -= 1;
            (req.ty, entered)
        };
        self.obs.on_node_done(inst_id, self.cx.now - entered);
        self.obs.record(TraceEvent::NodeDone {
            request: rid,
            job: job_id,
            node,
            instance: inst_id,
            thread,
            entered,
            t: self.cx.now,
        });

        let spec = &self.paths.ty(ty).nodes[node.index()];
        let n_children = spec.children.len();
        if spec.block_thread_until.is_some() {
            let inst = &mut self.instances.rts[inst_id.index()];
            inst.threads[thread.index()].block_depth += 1;
            inst.idle_mask &= !(1u64 << thread.index());
        }

        // Iterate by index, re-reading the spec each round: `fan_out` needs
        // `&mut self`, and this keeps the hot path free of a children clone.
        for k in 0..n_children {
            let child = self.paths.ty(ty).nodes[node.index()].children[k];
            self.fan_out(rid, ty, node, child, inst_id, thread, job.conn);
        }
        // A failed or early-resolved request may have just drained its last
        // live branch. No-op when faults and quorum policies are off.
        self.try_finalize(rid);
    }

    /// Number of deployed instances.
    pub fn instance_count(&self) -> usize {
        self.instances.rts.len()
    }

    /// Resolves an instance by name.
    pub fn instance_by_name(&self, name: &str) -> Option<InstanceId> {
        (self.instances.rts.iter())
            .position(|i| *i.name == *name)
            .map(|i| InstanceId::from_raw(i as u32))
    }

    /// Total jobs currently queued at an instance.
    pub fn instance_queue_depth(&self, instance: InstanceId) -> usize {
        self.instances.queue_depth(instance.index())
    }
}
