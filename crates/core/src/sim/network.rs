//! The network: wire and loopback delays, packet loss and retransmission,
//! and interrupt processing on each machine's irq cores.

use super::Simulator;
use crate::event::{EventKind, Packet, PacketDest};
use crate::ids::{InstanceId, JobId, MachineId};
use crate::time::SimDuration;
use crate::trace::TraceEvent;
use rand::Rng;

impl Simulator {
    /// Sends a job from `from` (or a client, if `None`) to `dest`. Cross-
    /// machine hops pay wire latency and the destination's interrupt
    /// processing; same-machine hops pay only loopback latency.
    pub(super) fn send_job(&mut self, job: JobId, from: Option<InstanceId>, dest: InstanceId) {
        let m = self.instances[dest.index()].machine.index();
        // Fault: packet loss toward a degraded machine. Drawn from the
        // dedicated fault RNG stream so fault-free runs stay byte-identical.
        if let Some(f) = self.fault.as_deref_mut() {
            let p = f.net_drop_p[m];
            if p > 0.0 && f.rng.gen::<f64>() < p {
                f.summary.packets_dropped += 1;
                self.on_packet_dropped(job, from, dest);
                return;
            }
        }
        let local = from
            .map(|f| self.instances[f.index()].machine.index() == m)
            .unwrap_or(false);
        let net = &self.machines[m].spec.network;
        let mut delay = if local {
            net.loopback_latency.sample(&mut self.rng_network)
        } else {
            net.wire_latency.sample(&mut self.rng_network)
        };
        if !local {
            if let Some(bw_gbps) = net.bandwidth_gbps {
                let bytes = self
                    .jobs
                    .get(job)
                    .and_then(|j| self.requests.get(j.request))
                    .map(|r| r.size_bytes)
                    .unwrap_or(0.0);
                delay += bytes * 8.0 / (bw_gbps * 1e9);
            }
        }
        if let Some(f) = self.fault.as_deref() {
            delay += f.net_added_s[m];
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
        self.events
            .schedule(self.now + SimDuration::from_secs_f64(delay), kind);
    }

    /// A degraded link dropped `job`'s packet: retransmit within the
    /// network policy's budget, else the job dies (and its request with it,
    /// if this was the last live branch).
    fn on_packet_dropped(&mut self, job: JobId, from: Option<InstanceId>, dest: InstanceId) {
        let retransmit = {
            let f = self.fault.as_deref_mut().expect("drop implies faults");
            match (f.net_policy, self.jobs.get_mut(job)) {
                (Some(pol), Some(j)) if j.net_attempts < pol.retransmit_limit => {
                    j.net_attempts += 1;
                    f.summary.retransmits += 1;
                    let backoff = pol.retransmit_backoff_s
                        * f64::from(1u32 << u32::from(j.net_attempts - 1).min(16));
                    Some(SimDuration::from_secs_f64(backoff))
                }
                _ => None,
            }
        };
        match retransmit {
            Some(delay) => self.events.schedule(
                self.now + delay,
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
        if self.jobs.get(job).is_some() {
            self.send_job(job, from, dest);
        }
    }

    /// Handles [`EventKind::NetEnqueue`]: the packet enters the machine's
    /// network-processing service ([`EventKind::NetDeliver`] arrivals skip
    /// this and go straight to [`Self::deliver_to_instance`]).
    pub(super) fn on_net_enqueue(&mut self, job: JobId, inst: InstanceId) {
        let m = self.instances[inst.index()].machine.index();
        self.machines[m].net_queue.push_back(Packet {
            job,
            dest: PacketDest::Instance(inst),
            local: false,
        });
        self.net_dispatch(m);
    }

    fn net_dispatch(&mut self, m: usize) {
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
            let rx = machine.spec.network.rx_time.sample(&mut self.rng_network);
            let dur = SimDuration::from_secs_f64(rx);
            machine.occupy_core(core, dur);
            self.events.schedule(
                self.now + dur,
                EventKind::NetDone {
                    machine: MachineId::from_raw(m as u32),
                    slot: slot as u32,
                },
            );
            if let Some(log) = self.span_log.as_deref_mut() {
                log.record(TraceEvent::NetRx {
                    machine: MachineId::from_raw(m as u32),
                    core: core as u32,
                    job: packet.job,
                    start: self.now,
                    end: self.now + dur,
                });
            }
        }
    }

    pub(super) fn on_net_done(&mut self, machine: MachineId, slot: usize) {
        let m = machine.index();
        let packet = self.machines[m].net_slots[slot]
            .take()
            .expect("slot was in service");
        let core = self.machines[m].irq_cores[slot];
        self.machines[m].cores[core].busy = false;
        match packet.dest {
            PacketDest::Instance(inst) => self.deliver_to_instance(packet.job, inst),
            PacketDest::Client(_) => unreachable!("client deliveries bypass the net service"),
        }
        self.net_dispatch(m);
    }
}
