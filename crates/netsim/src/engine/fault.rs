//! Fault handling inside the cycle loop: applying a [`FaultSet`] to live
//! engine state and the per-packet reroute-or-drop decision.
//!
//! Everything here runs only when `Engine::fault_on` is set (a non-empty
//! schedule is attached); fault-free runs never reach this module, which
//! is what keeps the golden fixtures bit-for-bit.
//!
//! ## Semantics (see also DESIGN.md, "Fault model")
//!
//! * Applying a fault set kills channels and switches *from the current
//!   cycle on*: flits already on the wire complete their traversal (a
//!   flit mid-fibre is not recalled), but arrive into a dead router only
//!   to be lost there.
//! * A dead switch loses its buffered packets immediately (drained and
//!   counted through `on_drop`), including the source queues of its
//!   attached nodes.
//! * A dead channel loses its staged flits (they had won allocation but
//!   not the wire).
//! * Surviving packets are checked at their next allocation: if the next
//!   hop of their source route died, a fresh path from the current switch
//!   is sampled from the provider (one MIN draw, then up to eight VLB
//!   draws, each validated against the dead masks).  Success re-routes
//!   the packet and fires `on_fault_reroute`; failure drops it via
//!   `on_drop`.  Packets whose destination switch died are always
//!   dropped.

use super::observer::SimObserver;
use super::profile::EngineProfiler;
use super::{Engine, F_REVISABLE};
use tugal_routing::{Path, PathRef};
use tugal_topology::{ChannelKind, FaultSet, NodeId, SwitchId};

/// Reroute attempts per blocked packet: one MIN draw plus this many VLB
/// draws before the packet is declared stuck and dropped.
const REROUTE_VLB_TRIES: usize = 8;

impl<'a, O: SimObserver, P: EngineProfiler> Engine<'a, O, P> {
    /// Kills the components of `faults` in the live workspace: ORs the
    /// dead masks and drains buffers that can no longer move traffic.
    /// Faults accumulate — nothing is ever revived within a run.
    pub(crate) fn apply_faults(&mut self, faults: &FaultSet) {
        if faults.is_empty() {
            return;
        }
        let deg = self.sim.topo.degrade(faults);

        // Newly dead switches: drain every non-empty input buffer at the
        // switch (its ready list enumerates exactly those) — packets
        // parked in a dead router are lost.
        for sw in 0..self.sim.topo.num_switches() {
            if !deg.switch_dead(SwitchId(sw as u32)) || self.ws.switch_dead[sw] {
                continue;
            }
            self.ws.switch_dead[sw] = true;
            let buffers = std::mem::take(&mut self.ws.ready[sw]);
            for idx in buffers {
                let idx = idx as usize;
                self.ws.in_ready[idx] = false;
                while let Some(pi) = self.ws.inb_pop(idx) {
                    self.ws.buf_occ[idx / self.v] -= 1;
                    self.drop_in_network(pi);
                }
            }
        }

        // Newly dead channels (this includes every channel incident to a
        // newly dead switch): drop staged flits — they had won switch
        // allocation but not the wire, so they die with the channel.  The
        // downstream credits they hold are never returned; the channel is
        // dead, so its buffer space no longer matters.
        for ch in 0..self.sim.topo.num_channels() {
            if !deg.channel_dead(tugal_topology::ChannelId(ch as u32)) || self.ws.chan_dead[ch] {
                continue;
            }
            self.ws.chan_dead[ch] = true;
            while let Some(pi) = self.ws.stg_pop(ch) {
                self.drop_in_network(pi);
            }
        }
    }

    /// Drops a packet that faults removed from the network, reporting it
    /// through the observer's drop hook (so the injected = delivered +
    /// dropped + in-flight ledger still balances).
    pub(crate) fn drop_in_network(&mut self, pi: u32) {
        let (src, dst) = {
            let p = &self.ws.packets[pi as usize];
            (NodeId(p.src_node), NodeId(p.dst_node))
        };
        self.stats.record_drop();
        self.obs.on_drop(self.now, src, dst);
        self.free_packet(pi);
    }

    /// Checks a head-of-buffer packet against the dead masks just before
    /// its next hop is computed.  Returns `true` when the packet may
    /// proceed (possibly on a freshly sampled path), `false` when the
    /// caller must drop it.
    pub(crate) fn fault_check(&mut self, pi: u32) -> bool {
        let sim = self.sim;
        let topo = &*sim.topo;
        // This path runs only under an attached fault schedule, so copying
        // the (inline, 18-byte) path out simplifies the borrows at no
        // steady-state cost.
        let old_path: Path = *self.packet_path(pi);
        let (cur, dsw, hop) = {
            let p = &self.ws.packets[pi as usize];
            let dsw = topo.switch_of_node(NodeId(p.dst_node));
            let hop = p.hop as usize;
            let intact = old_path.dst() == dsw
                && (hop == old_path.hops()
                    || !self.ws.chan_dead[old_path.channel_at(topo, hop).index()]);
            if intact {
                // Only the next hop is checked; a death further along the
                // path is handled at a later decision point.  (A path not
                // ending at the destination switch is the provider's
                // unreachable-pair sentinel and is never intact.)
                return true;
            }
            (old_path.switch(hop), dsw, hop)
        };
        if self.ws.switch_dead[dsw.index()] {
            return false; // destination died; undeliverable
        }
        // The packet sits in a buffer of `cur`, so `cur`'s group's RNG
        // stream feeds the reroute draws.
        let gi = self.gi_of_switch(cur);
        let Some(path) = self.sample_alive_path(cur, dsw, gi) else {
            return false; // no surviving candidate from here
        };
        let (mut dl, mut dg) = (0u8, 0u8);
        for i in 0..hop {
            if old_path.hop_kind(topo, i) == ChannelKind::Global {
                dg += 1;
            } else {
                dl += 1;
            }
        }
        self.set_packet_path(pi, path);
        let p = &mut self.ws.packets[pi as usize];
        // The abandoned prefix still counts toward the packet's VC class,
        // keeping VC indices monotone along the composite route.
        p.pre_local = p.pre_local.saturating_add(dl);
        p.pre_global = p.pre_global.saturating_add(dg);
        p.hop = 0;
        p.out_chan = u32::MAX;
        p.flags &= !F_REVISABLE;
        self.obs.on_fault_reroute(self.now, cur);
        true
    }

    /// Samples a surviving path `cur → dst` from the provider: the MIN
    /// draw first, then up to [`REROUTE_VLB_TRIES`] VLB draws.
    fn sample_alive_path(
        &mut self,
        cur: SwitchId,
        dst: SwitchId,
        gi: usize,
    ) -> Option<PathRef<'a>> {
        let sim = self.sim;
        let provider = &*sim.provider;
        let p = provider.sample_min_ref(cur, dst, &mut self.rngs[gi]);
        if self.path_usable(p.path(), cur, dst) {
            return Some(p);
        }
        for _ in 0..REROUTE_VLB_TRIES {
            let p = provider.sample_vlb_ref(cur, dst, &mut self.rngs[gi]);
            if self.path_usable(p.path(), cur, dst) {
                return Some(p);
            }
        }
        None
    }

    /// True when `p` runs `cur → dst` entirely over surviving hardware.
    fn path_usable(&self, p: &Path, cur: SwitchId, dst: SwitchId) -> bool {
        if p.src() != cur || p.dst() != dst {
            return false; // sentinel or stale candidate
        }
        let topo = &self.sim.topo;
        for i in 0..p.hops() {
            if self.ws.chan_dead[p.channel_at(topo, i).index()]
                || self.ws.switch_dead[p.hop(i).1.index()]
            {
                return false;
            }
        }
        true
    }
}
