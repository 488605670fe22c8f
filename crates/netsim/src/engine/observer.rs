//! The observability seam of the engine.
//!
//! The engine is generic over a [`SimObserver`] and calls its hooks at the
//! few events external instrumentation cares about.  The default
//! [`NoopObserver`] has empty inline bodies, and the engine is
//! monomorphized per observer type, so the hot loop pays nothing for the
//! seam unless an observer actually does work.
//!
//! One observer sees one whole run: the engine calls its hooks on the
//! caller's thread, in simulation order.  The experiment runner builds a
//! fresh observer per job, so parallel sweeps never share one.

use tugal_topology::{NodeId, SwitchId};

/// Cycle-level probe interface; every hook has a no-op default body, so an
/// observer implements only what it needs.
///
/// Observers must not assume hooks fire for *every* packet event — the
/// seam covers the events the engine already computes (injection attempts,
/// routing decisions, link traversals, deliveries, drops, cycle
/// boundaries), not a full trace.
///
/// ## Event invariants
///
/// The engine guarantees (and `tests/observer_invariants.rs` pins):
///
/// * every packet counted by [`on_inject`](Self::on_inject) is eventually
///   accounted for as exactly one of: an [`on_drop`](Self::on_drop), an
///   [`on_deliver`](Self::on_deliver), or part of the `in_flight`
///   population reported by [`on_run_end`](Self::on_run_end);
/// * [`on_route`](Self::on_route) fires at least once per packet that
///   reaches the head of its source queue — twice when PAR revises a MIN
///   decision (the second call has `reroute = true`);
/// * [`on_link_traverse`](Self::on_link_traverse) fires once per flit per
///   switch-to-switch channel traversal (terminal channels are excluded).
///
/// Hooks fire on the thread that runs the simulation, in simulation
/// order.
#[allow(unused_variables)]
pub trait SimObserver {
    /// Start of each simulated cycle, before credit returns and arrivals.
    #[inline(always)]
    fn on_cycle(&mut self, now: u64) {}

    /// The measurement window opened (warmup ended) at `now`.
    #[inline(always)]
    fn on_measurement_start(&mut self, now: u64) {}

    /// A packet was created at `src` for `dst` (counted as injected even
    /// if the source queue then drops it).
    #[inline(always)]
    fn on_inject(&mut self, now: u64, src: NodeId, dst: NodeId) {}

    /// A packet was dropped: at an overflowing source queue (deep
    /// saturation), or — when a fault schedule is attached — because a
    /// failure made it undeliverable (buffered in a dead switch, staged on
    /// a dead channel, arriving into a dead router, or stuck with no
    /// surviving path).  Dropped packets still count as injected.
    #[inline(always)]
    fn on_drop(&mut self, now: u64, src: NodeId, dst: NodeId) {}

    /// A routing decision ran for a packet travelling `src → dst`
    /// (switches); `used_vlb` tells whether the VLB candidate won.  PAR
    /// reroutes fire this a second time with `reroute = true` (and
    /// `used_vlb = true` — a revision always switches to VLB).
    #[inline(always)]
    fn on_route(&mut self, now: u64, src: SwitchId, dst: SwitchId, used_vlb: bool, reroute: bool) {}

    /// A flit left on a switch-to-switch channel: `chan` is the dense
    /// [`tugal_topology::ChannelId`] index, `global` true for inter-group
    /// channels.  Terminal (injection/ejection) traversals do not fire.
    #[inline(always)]
    fn on_link_traverse(&mut self, now: u64, chan: u32, global: bool) {}

    /// Cycle cadence at which the engine should sample per-VC input-buffer
    /// occupancy through
    /// [`on_vc_occupancy_sample`](Self::on_vc_occupancy_sample); `0` (the
    /// default) disables sampling and compiles the sampling loop out.
    #[inline(always)]
    fn occupancy_cadence(&self) -> u64 {
        0
    }

    /// One occupancy sample: the downstream input buffer of network
    /// channel `chan`, VC `vc`, holds `occupancy` flits at cycle `now`.
    /// Fired for every (network channel, VC) pair each time the cadence
    /// from [`occupancy_cadence`](Self::occupancy_cadence) divides `now`.
    #[inline(always)]
    fn on_vc_occupancy_sample(&mut self, now: u64, chan: u32, vc: u8, occupancy: u32) {}

    /// A fault check found the packet's next hop dead and successfully
    /// re-routed it from switch `at` onto a surviving path.  Fires only
    /// when a fault schedule is attached, at or after the first fault
    /// event's cycle.  Packets the check could *not* save are reported
    /// through [`on_drop`](Self::on_drop) instead.
    #[inline(always)]
    fn on_fault_reroute(&mut self, now: u64, at: SwitchId) {}

    /// A packet reached its destination node: `latency` cycles after
    /// creation, over `hops` switch-to-switch hops.
    #[inline(always)]
    fn on_deliver(&mut self, now: u64, latency: u64, hops: u8) {}

    /// The run ended at cycle `now` with `in_flight` packets still in the
    /// network (non-zero for saturated or truncated runs).
    #[inline(always)]
    fn on_run_end(&mut self, now: u64, in_flight: u64) {}

    /// Serializes the observer's accumulated state for a mid-run
    /// checkpoint, or `None` (the default) if the observer does not
    /// support checkpointing — in which case the engine disables
    /// checkpointing for the job with a typed warning; results are
    /// unaffected.  A stateless observer should return `Some(Vec::new())`:
    /// an empty blob is never passed to [`restore`](Self::restore).
    #[inline]
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) before the
    /// resumed run starts.
    #[inline]
    fn restore(&mut self, bytes: &[u8]) {}
}

/// The zero-cost default observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    // Stateless, so it checkpoints trivially: no state, empty blob.
    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }
}
