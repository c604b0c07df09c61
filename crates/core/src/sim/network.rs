//! Machines: cores with their DVFS state and energy, and the network —
//! wire and loopback delays, packet loss and retransmission, and
//! interrupt processing on each machine's irq cores.

use super::observe::Observers;
use super::{Cx, Simulator};
use crate::config::Name;
use crate::event::{EventKind, Packet, PacketDest};
use crate::ids::{InstanceId, JobId, MachineId};
use crate::machine::{Core, CoreOwner, MachineSpec};
use crate::time::{SimDuration, SimTime};
use crate::trace::{MachineMeta, TraceEvent};
use std::collections::VecDeque;

/// Runtime state of one machine.
#[derive(Debug)]
struct MachineRt {
    spec: MachineSpec,
    cores: Vec<Core>,
    /// Machine-local indices of the irq cores.
    irq_cores: Vec<usize>,
    net_queue: VecDeque<Packet>,
    /// One in-service slot per irq core.
    net_slots: Vec<Option<Packet>>,
    /// Cached `spec.dvfs.max_ghz()` (immutable after build): the energy
    /// update reads it once per batch and per packet.
    max_ghz: f64,
}

impl MachineRt {
    /// Occupies core `core` for `dur` at its current frequency: marks it
    /// busy and accrues the busy time and dynamic energy it costs.
    fn occupy_core(&mut self, core: usize, dur: SimDuration) {
        let max_ghz = self.max_ghz;
        let core = &mut self.cores[core];
        core.busy = true;
        core.busy_ns += dur.as_nanos();
        core.dyn_energy_j +=
            dur.as_secs_f64() * self.spec.power.dynamic_power_w(core.freq_ghz, max_ghz);
    }
}

/// The machines of the cluster: their cores (frequency, busy time,
/// energy) and their network-processing service.
#[derive(Debug)]
pub(crate) struct Machines {
    machines: Vec<MachineRt>,
}

impl Machines {
    /// Machines at full frequency, each with its irq cores (the first
    /// `network.irq_cores` of its cores) set aside and the rest free.
    pub(crate) fn new(specs: Vec<MachineSpec>) -> Machines {
        let machines = (specs.into_iter())
            .map(|spec| {
                let irq = spec.network.irq_cores;
                let cores = (0..spec.cores)
                    .map(|c| Core {
                        freq_ghz: spec.dvfs.max_ghz(),
                        owner: if c < irq {
                            CoreOwner::Network
                        } else {
                            CoreOwner::Free
                        },
                        busy: false,
                        last_thread: None,
                        busy_ns: 0,
                        dyn_energy_j: 0.0,
                    })
                    .collect();
                MachineRt {
                    max_ghz: spec.dvfs.max_ghz(),
                    spec,
                    cores,
                    irq_cores: (0..irq).collect(),
                    net_queue: VecDeque::new(),
                    net_slots: vec![None; irq],
                }
            })
            .collect();
        Machines { machines }
    }

    /// Number of machines.
    pub(crate) fn len(&self) -> usize {
        self.machines.len()
    }

    /// Name of machine `m`.
    pub(crate) fn name(&self, m: usize) -> &Name {
        &self.machines[m].spec.name
    }

    /// The cores of machine `m`, irq cores first.
    pub(crate) fn cores(&self, m: usize) -> &[Core] {
        &self.machines[m].cores
    }

    /// Number of irq cores of machine `m`.
    pub(crate) fn irq_count(&self, m: usize) -> usize {
        self.machines[m].irq_cores.len()
    }

    /// Gives `cores` of machine `m` to instance `owner`.
    pub(crate) fn claim(&mut self, m: usize, cores: &[usize], owner: u32) {
        for &c in cores {
            self.machines[m].cores[c].owner = CoreOwner::Instance(owner);
        }
    }

    /// Runs thread `thread` (instance, thread index) on core `core` of
    /// machine `m` for `dur`.
    pub(super) fn run_on_core(
        &mut self,
        m: usize,
        core: usize,
        dur: SimDuration,
        thread: (u32, u32),
    ) {
        let machine = &mut self.machines[m];
        machine.cores[core].last_thread = Some(thread);
        machine.occupy_core(core, dur);
    }

    /// Frees core `core` of machine `m`.
    pub(super) fn release_core(&mut self, m: usize, core: usize) {
        self.machines[m].cores[core].busy = false;
    }

    /// Sets `cores` of machine `m` to `freq_ghz`, snapped to its DVFS
    /// levels. Returns the snapped frequency.
    pub(super) fn set_freq(&mut self, m: usize, cores: &[usize], freq_ghz: f64) -> f64 {
        let machine = &mut self.machines[m];
        let snapped = machine.spec.dvfs.snap(freq_ghz);
        for &c in cores {
            machine.cores[c].freq_ghz = snapped;
        }
        snapped
    }

    /// Energy machine `m` consumed up to `now`, joules.
    fn energy_j(&self, m: usize, now: SimTime) -> f64 {
        let m = &self.machines[m];
        let dynamic: f64 = m.cores.iter().map(|c| c.dyn_energy_j).sum();
        dynamic + m.spec.power.idle_w * m.cores.len() as f64 * now.as_secs_f64()
    }

    /// Busy nanoseconds of machine `m`'s irq cores.
    pub(super) fn irq_busy_ns(&self, m: usize) -> u64 {
        let m = &self.machines[m];
        m.irq_cores.iter().map(|&c| m.cores[c].busy_ns).sum()
    }

    /// Packets queued at or in service on machine `m`'s irq cores.
    pub(super) fn net_depth(&self, m: usize) -> usize {
        let m = &self.machines[m];
        m.net_queue.len() + m.net_slots.iter().filter(|s| s.is_some()).count()
    }

    /// Machine names and core counts, for rendering traces.
    pub(super) fn meta(&self) -> Vec<MachineMeta> {
        (self.machines.iter())
            .map(|m| MachineMeta {
                name: m.spec.name.clone(),
                cores: m.cores.len(),
            })
            .collect()
    }

    /// Draws the wire latency out of machine `m`, seconds.
    pub(super) fn wire_latency(&self, cx: &mut Cx, m: usize) -> f64 {
        self.machines[m]
            .spec
            .network
            .wire_latency
            .sample(&mut cx.rng_network)
    }

    /// Puts `job` on the wire to `dest` on machine `m`: loopback latency
    /// when the sender is `local`, else wire latency plus its bytes at the
    /// link's bandwidth, plus any fault's `added_s`. A cross-machine hop
    /// to a machine with irq cores is then processed there.
    pub(super) fn send(
        &mut self,
        cx: &mut Cx,
        m: usize,
        local: bool,
        added_s: Option<f64>,
        job: JobId,
        dest: InstanceId,
    ) {
        let net = &self.machines[m].spec.network;
        let mut delay = if local {
            net.loopback_latency.sample(&mut cx.rng_network)
        } else {
            net.wire_latency.sample(&mut cx.rng_network)
        };
        if !local {
            if let Some(bw_gbps) = net.bandwidth_gbps {
                let bytes = (cx.jobs.get(job))
                    .and_then(|j| cx.requests.get(j.request))
                    .map(|r| r.size_bytes)
                    .unwrap_or(0.0);
                delay += bytes * 8.0 / (bw_gbps * 1e9);
            }
        }
        if let Some(added_s) = added_s {
            delay += added_s;
        }
        // The delivery route is static per (sender, dest): loopback traffic
        // and machines without interrupt cores bypass the network service,
        // so the choice is made here and the delivery event stays compact.
        let kind = if local || self.machines[m].irq_cores.is_empty() {
            EventKind::NetDeliver {
                job,
                instance: dest,
            }
        } else {
            EventKind::NetEnqueue {
                job,
                instance: dest,
            }
        };
        cx.events
            .schedule(cx.now + SimDuration::from_secs_f64(delay), kind);
    }

    /// Handles [`EventKind::NetEnqueue`]: the packet enters the network
    /// service of `dest`'s machine `m` ([`EventKind::NetDeliver`] arrivals
    /// skip this and go straight to the instance).
    pub(super) fn on_net_enqueue(
        &mut self,
        cx: &mut Cx,
        obs: &mut Observers,
        m: usize,
        job: JobId,
        dest: InstanceId,
    ) {
        self.machines[m].net_queue.push_back(Packet {
            job,
            dest: PacketDest::Instance(dest),
            local: false,
        });
        self.net_dispatch(cx, obs, m);
    }

    /// Starts rx processing of queued packets on machine `m`'s free irq
    /// cores.
    pub(super) fn net_dispatch(&mut self, cx: &mut Cx, obs: &mut Observers, m: usize) {
        loop {
            let machine = &mut self.machines[m];
            if machine.net_queue.is_empty() {
                break;
            }
            let Some(slot) = machine.net_slots.iter().position(Option::is_none) else {
                break;
            };
            let packet = machine.net_queue.pop_front().expect("checked non-empty");
            machine.net_slots[slot] = Some(packet);
            let core = machine.irq_cores[slot];
            let rx = machine.spec.network.rx_time.sample(&mut cx.rng_network);
            let dur = SimDuration::from_secs_f64(rx);
            machine.occupy_core(core, dur);
            cx.events.schedule(
                cx.now + dur,
                EventKind::NetDone {
                    machine: MachineId::from_raw(m as u32),
                    slot: slot as u32,
                },
            );
            obs.record(TraceEvent::NetRx {
                machine: MachineId::from_raw(m as u32),
                core: core as u32,
                job: packet.job,
                start: cx.now,
                end: cx.now + dur,
            });
        }
    }

    /// Handles [`EventKind::NetDone`]: frees irq slot `slot` of machine
    /// `m` and returns the job it processed and the instance it goes to.
    pub(super) fn on_net_done(&mut self, m: usize, slot: usize) -> (JobId, InstanceId) {
        let machine = &mut self.machines[m];
        let packet = machine.net_slots[slot].take().expect("slot was in service");
        let core = machine.irq_cores[slot];
        machine.cores[core].busy = false;
        match packet.dest {
            PacketDest::Instance(inst) => (packet.job, inst),
            PacketDest::Client(_) => unreachable!("client deliveries bypass the net service"),
        }
    }
}

impl Simulator {
    /// Sends a job from `from` (or a client, if `None`) to `dest`. Cross-
    /// machine hops pay wire latency and the destination's interrupt
    /// processing; same-machine hops pay only loopback latency.
    pub(super) fn send_job(&mut self, job: JobId, from: Option<InstanceId>, dest: InstanceId) {
        let m = self.instances.machine(dest.index());
        // Fault: packet loss toward a degraded machine. Drawn from the
        // dedicated fault RNG stream so fault-free runs stay byte-identical.
        if self.faults.drops_packet(m) {
            self.on_packet_dropped(job, from, dest);
            return;
        }
        let local = from
            .map(|f| self.instances.machine(f.index()) == m)
            .unwrap_or(false);
        let added_s = self.faults.added_latency(m);
        self.machines
            .send(&mut self.cx, m, local, added_s, job, dest);
    }

    /// A degraded link dropped `job`'s packet: retransmit within the
    /// network policy's budget, else the job dies (and its request with it,
    /// if this was the last live branch).
    fn on_packet_dropped(&mut self, job: JobId, from: Option<InstanceId>, dest: InstanceId) {
        let retransmit = self.faults.retransmit_delay(&mut self.cx, job);
        match retransmit {
            Some(delay) => self.cx.events.schedule(
                self.cx.now + delay,
                EventKind::NetRetransmit(Box::new(crate::event::RetransmitSpec {
                    job,
                    from,
                    dest,
                })),
            ),
            None => self.kill_job(job, None),
        }
    }

    /// Handles [`EventKind::NetRetransmit`]: re-offers the packet to the
    /// network (which re-rolls the drop). The job may have died in the
    /// meantime (e.g. its instance crashed) — then the packet evaporates.
    pub(super) fn on_net_retransmit(
        &mut self,
        job: JobId,
        from: Option<InstanceId>,
        dest: InstanceId,
    ) {
        if self.cx.jobs.get(job).is_some() {
            self.send_job(job, from, dest);
        }
    }

    /// Handles [`EventKind::NetDone`]: the packet's rx processing ended;
    /// it is delivered and the irq core takes the next one.
    pub(super) fn on_net_done(&mut self, machine: MachineId, slot: usize) {
        let m = machine.index();
        let (job, inst) = self.machines.on_net_done(m, slot);
        self.deliver_to_instance(job, inst);
        self.machines.net_dispatch(&mut self.cx, &mut self.obs, m);
    }

    /// Energy consumed by `machine` so far, joules: accumulated dynamic
    /// (cubic-in-frequency) energy plus static power over elapsed time.
    pub fn machine_energy_j(&self, machine: MachineId) -> f64 {
        self.machines.energy_j(machine.index(), self.cx.now)
    }

    /// Total energy consumed by the whole cluster so far, joules.
    pub fn cluster_energy_j(&self) -> f64 {
        (0..self.machines.len())
            .map(|m| self.machines.energy_j(m, self.cx.now))
            .sum()
    }

    /// Number of machines with irq cores (the weight of the network
    /// utilization mean when cells merge).
    pub(crate) fn irq_machine_count(&self) -> usize {
        (0..self.machines.len())
            .filter(|&m| self.machines.irq_count(m) > 0)
            .count()
    }
}
