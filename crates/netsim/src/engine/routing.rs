//! Routing decisions: the UGAL-L/G queue metrics, the MIN-vs-VLB choice at
//! the source switch, and PAR's one-shot in-group revision.
//!
//! All candidate draws go through the provider's *borrowed* sampling
//! (`sample_min_ref`/`sample_vlb_ref`): table-backed providers hand out
//! arena borrows, so comparing candidates copies nothing and the decision
//! allocates nothing.  Only the chosen candidate is copied, once, into the
//! packet's route slot.  The owned and borrowed sampling forms are
//! RNG-equivalent by the `PathProvider` contract, which keeps the golden
//! fixtures bit-for-bit.

use super::observer::SimObserver;
use super::profile::EngineProfiler;
use super::{Engine, F_REVISABLE, F_ROUTED, F_VLB};
use crate::config::RoutingAlgorithm;
use tugal_routing::{vc_class, Path, PathProvider, PathRef};
use tugal_topology::NodeId;

impl<O: SimObserver, P: EngineProfiler> Engine<'_, O, P> {
    /// UGAL-L queue metric of an output channel at its source router:
    /// consumed downstream credits plus flits staged on the wire slot.
    #[inline]
    pub(crate) fn q_local(&self, chan: u32) -> u64 {
        self.ws.cred_used[chan as usize] as u64 + self.ws.stg_len[chan as usize] as u64
    }

    /// UGAL-G metric of a channel: downstream buffer occupancy plus staged
    /// flits (a global snapshot an implementation could not cheaply have).
    /// Reads the begin-of-allocation snapshot taken after injection, so
    /// every decision of a cycle sees the same queue state.
    #[inline]
    pub(crate) fn q_global(&self, chan: u32) -> u64 {
        self.snap_q(chan)
    }

    pub(crate) fn q_local_path(&self, path: &Path) -> u64 {
        self.q_local_path_from(path, 0)
    }

    /// UGAL-L metric of the tail of `path` starting at hop `from`: first
    /// remaining channel's queue, weighted by the remaining hop count.
    /// `from = 0` is the whole-path metric; PAR's revision uses `from = 1`
    /// (the suffix after the local hop already taken) without
    /// materializing the suffix.
    pub(crate) fn q_local_path_from(&self, path: &Path, from: usize) -> u64 {
        if path.hops() <= from {
            return 0;
        }
        let c = path.channel_at(&self.sim.topo, from).0;
        self.q_local(c) * (path.hops() - from) as u64
    }

    pub(crate) fn q_global_path(&self, path: &Path) -> u64 {
        let topo = &self.sim.topo;
        (0..path.hops())
            .map(|i| self.q_global(path.channel_at(topo, i).0))
            .sum()
    }

    /// Draws `cfg.vlb_candidates` VLB candidates and keeps the one with
    /// the smallest queue metric (`global` selects the UGAL-G metric).
    /// With the default of one candidate this is a single provider draw —
    /// exactly the paper's UGAL.
    fn best_vlb_candidate<'p>(
        &mut self,
        provider: &'p dyn PathProvider,
        s: tugal_topology::SwitchId,
        d: tugal_topology::SwitchId,
        global: bool,
        gi: usize,
    ) -> PathRef<'p> {
        let k = self.sim.cfg.vlb_candidates.max(1);
        let mut best = provider.sample_vlb_ref(s, d, &mut self.rngs[gi]);
        if k == 1 {
            return best;
        }
        let metric = |e: &Self, p: &Path| {
            if global {
                e.q_global_path(p)
            } else {
                e.q_local_path(p)
            }
        };
        let mut best_q = metric(self, best.path());
        for _ in 1..k {
            let cand = provider.sample_vlb_ref(s, d, &mut self.rngs[gi]);
            let q = metric(self, cand.path());
            if q < best_q {
                best = cand;
                best_q = q;
            }
        }
        best
    }

    /// The initial routing decision at the source switch.
    pub(crate) fn route(&mut self, pi: u32) {
        // Copying the `&Simulator` out of `self` detaches the provider's
        // borrowed candidates from `self`, so no per-packet `Arc` clones
        // are needed to appease the borrow checker.
        let sim = self.sim;
        let topo = &*sim.topo;
        let provider = &*sim.provider;
        let (s, d) = {
            let p = &self.ws.packets[pi as usize];
            (
                topo.switch_of_node(NodeId(p.src_node)),
                topo.switch_of_node(NodeId(p.dst_node)),
            )
        };
        // The routing decision always runs at the head of a buffer of the
        // source switch, so `s`'s group keys the RNG stream the draws
        // consume.
        let gi = self.gi_of_switch(s);
        // `ugal_threshold == i64::MAX` is the documented force-MIN
        // sentinel: the decision is short-circuited *without drawing the
        // VLB candidate*, so such a run consumes the RNG exactly like
        // `RoutingAlgorithm::Min` (pinned by the differential tests).  Any
        // finite threshold draws both candidates as usual.
        let force_min = sim.cfg.ugal_threshold == i64::MAX;
        let (path, used_vlb, revisable) = match sim.routing {
            RoutingAlgorithm::Min => (
                provider.sample_min_ref(s, d, &mut self.rngs[gi]),
                false,
                false,
            ),
            RoutingAlgorithm::Vlb => {
                let p = provider.sample_vlb_ref(s, d, &mut self.rngs[gi]);
                let vlb = p.path().hops() > 0;
                (p, vlb, false)
            }
            RoutingAlgorithm::UgalL | RoutingAlgorithm::Par => {
                let min = provider.sample_min_ref(s, d, &mut self.rngs[gi]);
                if force_min {
                    (min, false, sim.routing == RoutingAlgorithm::Par)
                } else {
                    let vlb = self.best_vlb_candidate(provider, s, d, false, gi);
                    if min.path() == vlb.path() || min.path().hops() == 0 {
                        (min, false, false)
                    } else {
                        let qm = self.q_local_path(min.path()) as i64;
                        let qv = self.q_local_path(vlb.path()) as i64;
                        if qm <= qv + sim.cfg.ugal_threshold {
                            (min, false, sim.routing == RoutingAlgorithm::Par)
                        } else {
                            (vlb, true, false)
                        }
                    }
                }
            }
            RoutingAlgorithm::UgalG => {
                let min = provider.sample_min_ref(s, d, &mut self.rngs[gi]);
                if force_min {
                    (min, false, false)
                } else {
                    let vlb = self.best_vlb_candidate(provider, s, d, true, gi);
                    if min.path() == vlb.path() || min.path().hops() == 0 {
                        (min, false, false)
                    } else {
                        let qm = self.q_global_path(min.path()) as i64;
                        let qv = self.q_global_path(vlb.path()) as i64;
                        if qm <= qv + sim.cfg.ugal_threshold {
                            (min, false, false)
                        } else {
                            (vlb, true, false)
                        }
                    }
                }
            }
        };
        self.stats.record_route(used_vlb);
        self.obs.on_route(self.now, s, d, used_vlb, false);
        self.set_packet_path(pi, path);
        let p = &mut self.ws.packets[pi as usize];
        p.hop = 0;
        p.out_chan = u32::MAX;
        p.flags |= F_ROUTED;
        if used_vlb {
            p.flags |= F_VLB;
        }
        if revisable {
            p.flags |= F_REVISABLE;
        }
    }

    /// PAR: possibly revise a MIN decision at the second router of the
    /// source group.
    pub(crate) fn par_revise(&mut self, pi: u32) {
        let sim = self.sim;
        let topo = &*sim.topo;
        let (cur, src_sw, dst_node) = {
            let p = &self.ws.packets[pi as usize];
            if p.flags & F_REVISABLE == 0 || p.hop != 1 {
                return;
            }
            let path = self.packet_path(pi);
            (path.switch(1), path.src(), p.dst_node)
        };
        // Only when the first hop stayed inside the source group.
        if topo.group_of(cur) != topo.group_of(src_sw) {
            self.ws.packets[pi as usize].flags &= !F_REVISABLE;
            return;
        }
        let d = topo.switch_of_node(NodeId(dst_node));
        let provider = &*sim.provider;
        // The revision runs at `cur` (the packet sits in one of its
        // buffers), so `cur`'s group keys the draw.
        let gi = self.gi_of_switch(cur);
        let vlb = provider.sample_vlb_ref(cur, d, &mut self.rngs[gi]);
        // The MIN alternative is the remaining suffix of the current path
        // (the hop already taken is sunk either way).
        let q_min = self.q_local_path_from(self.packet_path(pi), 1) as i64;
        let q_vlb = self.q_local_path(vlb.path()) as i64;
        let reroute = q_min > q_vlb + sim.cfg.ugal_threshold && vlb.path().hops() > 0;
        let p = &mut self.ws.packets[pi as usize];
        p.flags &= !F_REVISABLE;
        if reroute {
            // Reroute: the packet has taken one local hop already.
            self.set_packet_path(pi, vlb);
            let p = &mut self.ws.packets[pi as usize];
            p.hop = 0;
            p.out_chan = u32::MAX;
            p.pre_local = 1;
            p.flags |= F_VLB;
            self.stats.vlb_chosen += 1;
            self.obs.on_route(self.now, src_sw, d, true, true);
        }
    }

    /// Output channel and VC for the packet's next hop; `None` VC means no
    /// credit tracking (ejection).
    pub(crate) fn next_hop(&self, pi: u32) -> (u32, Option<u8>) {
        let topo = &self.sim.topo;
        let p = &self.ws.packets[pi as usize];
        let path = self.packet_path(pi);
        if p.hop as usize == path.hops() {
            (topo.ejection_channel(NodeId(p.dst_node)).0, None)
        } else {
            let c = path.channel_at(topo, p.hop as usize);
            // Fault reroutes can push the class past the configured VC
            // count (the scheme sizes VCs for PAR's worst case, not for
            // arbitrarily re-spliced routes); clamping to the top VC keeps
            // the index valid, at the cost of the formal deadlock-freedom
            // argument — the watchdog covers that residual risk.  Without
            // faults `pre_global` is 0 and the clamp never binds.
            let vc = vc_class(
                self.sim.cfg.vc_scheme,
                topo,
                path,
                p.hop as usize,
                p.pre_local,
                p.pre_global,
            )
            .min(self.v as u8 - 1);
            (c.0, Some(vc))
        }
    }
}
