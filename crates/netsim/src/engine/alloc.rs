//! Switch allocation and wire transmission, plus source-queue injection:
//! the per-cycle movement phases of the engine.

use super::observer::SimObserver;
use super::profile::EngineProfiler;
use super::state::Packet;
use super::{Engine, F_REVISABLE, F_ROUTED, SOURCE_QUEUE_CAP};
use rand::Rng;
use tugal_topology::NodeId;

impl<O: SimObserver, P: EngineProfiler> Engine<'_, O, P> {
    /// Bernoulli injection at the configured rate: each node draws once
    /// per cycle, in node order; new packets enter the (capped) source
    /// queue modelled by the injection channel's staging + downstream
    /// buffer.  Both draws (the coin and the destination) come from the
    /// node's *group* RNG stream.
    pub(crate) fn inject(&mut self) {
        let sim = self.sim;
        let topo = &*sim.topo;
        // Nodes are numbered group by group, `npg` to a group.
        let npg = (topo.num_nodes() / topo.num_groups()) as u32;
        for n in 0..topo.num_nodes() as u32 {
            let gi = (n / npg) as usize;
            if !self.rngs[gi].gen_bool(self.rate) {
                continue;
            }
            let Some(dst) = sim.pattern.dest(NodeId(n), &mut self.rngs[gi]) else {
                continue;
            };
            self.stats.record_injection();
            self.obs.on_inject(self.now, NodeId(n), dst);
            let inj = topo.injection_channel(NodeId(n)).0 as usize;
            // A dead source switch cannot accept traffic and a dead
            // destination switch can never eject it; either way the packet
            // counts as injected and is dropped on the floor.
            if self.fault_on
                && (self.ws.switch_dead[topo.switch_of_node(NodeId(n)).index()]
                    || self.ws.switch_dead[topo.switch_of_node(dst).index()])
            {
                self.stats.record_drop();
                self.obs.on_drop(self.now, NodeId(n), dst);
                continue;
            }
            // The injection channel's downstream buffer plays the role of
            // BookSim's infinite source queue; cap it so deep-saturation
            // points keep finite memory (the latency threshold fires long
            // before the cap matters).
            if (self.ws.stg_len[inj] + self.ws.buf_occ[inj]) as usize >= SOURCE_QUEUE_CAP {
                self.stats.record_drop();
                self.obs.on_drop(self.now, NodeId(n), dst);
                continue; // dropped at an overflowing source queue
            }
            let pi = self.alloc_packet(Packet {
                dst_node: dst.0,
                src_node: n,
                birth: self.now,
                hop: 0,
                cur_vc: 0,
                cur_chan: inj as u32,
                pre_local: 0,
                pre_global: 0,
                hops_taken: 0,
                flags: 0,
                out_chan: u32::MAX,
                out_vc: u8::MAX,
            });
            self.ws.stg_push(inj, pi);
            if !self.ws.in_busy[inj] {
                self.ws.in_busy[inj] = true;
                self.ws.busy_list.push(inj as u32);
            }
        }
    }

    /// Switch allocation: `speedup` round-robin rounds per cycle, one
    /// winner per output channel per round, visiting only the non-empty
    /// input-buffer FIFOs on each router's ready list.
    pub(crate) fn allocate(&mut self) {
        let speedup = self.sim.cfg.speedup;
        for sw in 0..self.ws.ready.len() {
            if self.ws.ready[sw].is_empty() {
                continue;
            }
            for round in 0..speedup {
                let stamp = self.now * speedup as u64 + round as u64 + 1;
                let len = self.ws.ready[sw].len();
                if len == 0 {
                    break;
                }
                // A round that grants nothing is a fixed point: every head
                // failed on credits (an ejection- or credit-eligible head
                // always beats a fresh `out_stamp`), and credits never
                // increase within a cycle — so later rounds would replay
                // the same no-op scan.
                let mut granted = false;
                let start = self.ws.rr[sw] % len;
                // Wrap by increment, not `(start + k) % len`: the modulo is
                // an integer division per scanned candidate, and this scan
                // is the hottest loop in the engine.
                let mut pos = start;
                for _ in 0..len {
                    let idx = self.ws.ready[sw][pos] as usize;
                    pos += 1;
                    if pos == len {
                        pos = 0;
                    }
                    // Credit-wait fast path (pristine runs only): a head
                    // that found its credit counter empty cannot win until
                    // a future cycle replenishes it, so skip the full
                    // inspection with two loads.  Fault runs never set
                    // `wait`, keeping `fault_check` on every head.
                    let w = self.ws.wait[idx];
                    if w != u32::MAX {
                        if self.ws.credits[w as usize] == 0 {
                            continue;
                        }
                        self.ws.wait[idx] = u32::MAX;
                    }
                    let pi = self.ws.inb_head[idx];
                    if pi == u32::MAX {
                        continue;
                    }
                    // Route / revise at the head of the buffer.
                    if self.ws.packets[pi as usize].flags & F_ROUTED == 0 {
                        self.route(pi);
                    } else if self.ws.packets[pi as usize].flags & F_REVISABLE != 0 {
                        self.par_revise(pi);
                    }
                    // Under faults the decided path may lead into dead
                    // hardware: reroute from here or drop (dequeuing
                    // exactly as a forwarded packet would, so the input
                    // buffer's credit still returns upstream).
                    if self.fault_on && !self.fault_check(pi) {
                        self.ws.inb_pop(idx);
                        let in_ch = self.ws.chan_of_buf[idx] as usize;
                        self.ws.buf_occ[in_ch] -= 1;
                        self.return_credit(idx, in_ch);
                        self.drop_in_network(pi);
                        continue;
                    }
                    // Memoized next hop: a blocked head packet is retried
                    // every round, but its next hop only changes when its
                    // hop index or path does (every such site resets
                    // `out_chan` to the not-computed sentinel).
                    let (out, vc) = {
                        let p = &self.ws.packets[pi as usize];
                        if p.out_chan != u32::MAX {
                            (p.out_chan, p.out_vc)
                        } else {
                            let (out, vc) = self.next_hop(pi);
                            let vc = vc.unwrap_or(u8::MAX);
                            let p = &mut self.ws.packets[pi as usize];
                            p.out_chan = out;
                            p.out_vc = vc;
                            (out, vc)
                        }
                    };
                    if self.ws.out_stamp[out as usize] == stamp {
                        continue; // output taken this round
                    }
                    if vc != u8::MAX {
                        let cidx = out as usize * self.v + vc as usize;
                        if self.ws.credits[cidx] == 0 {
                            if !self.fault_on {
                                self.ws.wait[idx] = cidx as u32;
                            }
                            continue; // no downstream buffer space
                        }
                        self.ws.credits[cidx] -= 1;
                        self.ws.cred_used[out as usize] += 1;
                        let p = &mut self.ws.packets[pi as usize];
                        p.cur_vc = vc;
                        p.hop += 1;
                        p.hops_taken += 1;
                        p.out_chan = u32::MAX;
                    }
                    self.ws.out_stamp[out as usize] = stamp;
                    granted = true;
                    // Dequeue from the input buffer and return its credit
                    // upstream (network channels only — the injection
                    // channel's upstream is the uncredit-managed source
                    // queue).
                    self.ws.inb_pop(idx);
                    let in_ch = self.ws.chan_of_buf[idx] as usize;
                    self.ws.buf_occ[in_ch] -= 1;
                    self.return_credit(idx, in_ch);
                    // Forward.
                    let p = &mut self.ws.packets[pi as usize];
                    p.cur_chan = out;
                    self.ws.stg_push(out as usize, pi);
                    if !self.ws.in_busy[out as usize] {
                        self.ws.in_busy[out as usize] = true;
                        self.ws.busy_list.push(out);
                    }
                }
                if !granted {
                    break;
                }
            }
            self.ws.rr[sw] = self.ws.rr[sw].wrapping_add(1);
            // Compact the ready list.
            let mut list = std::mem::take(&mut self.ws.ready[sw]);
            list.retain(|&idx| {
                if self.ws.inb_head[idx as usize] == u32::MAX {
                    self.ws.in_ready[idx as usize] = false;
                    false
                } else {
                    true
                }
            });
            self.ws.ready[sw] = list;
        }
    }

    /// Wire transmission: each busy channel moves at most one staged flit
    /// per cycle onto the arrival calendar.
    pub(crate) fn transmit(&mut self) {
        let mut i = 0;
        while i < self.ws.busy_list.len() {
            let ch = self.ws.busy_list[i] as usize;
            if self.now >= self.ws.next_free[ch] {
                if let Some(pi) = self.ws.stg_pop(ch) {
                    let due = self.now + self.ws.latency[ch] as u64;
                    self.ws.arrivals[(due & self.ring_mask) as usize].push(pi);
                    self.ws.next_free[ch] = self.now + 1;
                    self.ws.chan_flits[ch] += 1;
                    if ch < self.n_network {
                        self.obs
                            .on_link_traverse(self.now, ch as u32, self.ws.is_global[ch]);
                    }
                }
            }
            if self.ws.stg_len[ch] == 0 {
                self.ws.in_busy[ch] = false;
                self.ws.busy_list.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
}
