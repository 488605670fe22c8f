//! Engine watchdog: opt-in invariant and forward-progress monitoring.
//!
//! A [`WatchdogConfig`] attached to [`crate::Config`] arms periodic checks
//! inside the cycle loop:
//!
//! * **flit conservation** — every injected packet must be exactly one of
//!   delivered, dropped, or in flight ([`ConservationLedger`]),
//! * **forward progress** — with packets in the network, *something* must
//!   eject within the configured horizon; a network that keeps busy
//!   without delivering is livelocked,
//! * **cycle ceiling** — an absolute bound on simulated cycles,
//! * **wall-clock budget** — an absolute bound on real time, checked at a
//!   coarse cadence so the hot loop never syscalls per cycle.
//!
//! On a trip the engine stops and returns a [`StallReport`] — the trip
//! cycle, the conservation ledger, a per-VC occupancy snapshot, the oldest
//! packet still in flight and the routing-decision counters — instead of
//! spinning to the end of the window.  All checks are *read-only*: an
//! armed watchdog that never trips cannot perturb the simulation (pinned
//! by `tests/watchdog.rs` against the golden fixtures), and a disarmed one
//! (`Config::watchdog == None`, the default) costs a single predicted
//! branch per cycle.

use serde::Serialize;

/// Watchdog thresholds.  A field of `0` disables that check; a config with
/// every field `0` is treated as no watchdog at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WatchdogConfig {
    /// Cycle cadence of the flit-conservation check (`0` = off).
    pub conservation_every: u64,
    /// Forward-progress horizon: trip when packets are in flight but
    /// nothing has been delivered for this many cycles (`0` = off).
    pub stall_cycles: u64,
    /// Absolute ceiling on simulated cycles (`0` = off).  Useful as a
    /// per-job budget for runs whose configured windows are far larger
    /// than a sweep wants to pay for near saturation.
    pub max_cycles: u64,
    /// Wall-clock budget in milliseconds (`0` = off), checked every 1024
    /// cycles.  A trip reports [`StallKind::WallClockExceeded`] — the
    /// runner maps it to a timed-out job.
    pub wall_limit_ms: u64,
    /// Flight-recorder depth: the engine keeps a ring of its last N
    /// cycles' [`FlightFrame`]s and a trip drains them into
    /// [`StallReport::recent`] (`0` = off, the default).  Recording only
    /// happens while some *check* is armed — a config whose only non-zero
    /// field is this one is still treated as no watchdog at all.  Frame
    /// capture only reads the counters the stop decisions already
    /// compute, so arming the recorder cannot change simulation results.
    pub flight_recorder: u64,
}

impl WatchdogConfig {
    /// A watchdog with every check disabled (equivalent to `None`).
    pub fn disabled() -> Self {
        WatchdogConfig {
            conservation_every: 0,
            stall_cycles: 0,
            max_cycles: 0,
            wall_limit_ms: 0,
            flight_recorder: 0,
        }
    }

    /// Generous defaults derived from a simulator configuration: the
    /// conservation check every 4096 cycles, a forward-progress horizon of
    /// one sample window plus 64 worst-case round trips (the same shape as
    /// the engine's built-in deadlock heuristic), a cycle ceiling of four
    /// configured runs, and no wall-clock bound.  Non-pathological runs
    /// never trip these.
    pub fn guard_for(cfg: &crate::Config) -> Self {
        let rtt = 64 * (cfg.global_latency as u64 + cfg.local_latency as u64);
        WatchdogConfig {
            conservation_every: 4096,
            stall_cycles: cfg.window as u64 + rtt,
            max_cycles: 4 * cfg.total_cycles(),
            wall_limit_ms: 0,
            flight_recorder: 0,
        }
    }

    /// True when at least one check is armed.  The flight recorder is not
    /// a check: it only captures context for a trip some check produces,
    /// so it does not arm the watchdog by itself.
    pub fn armed(&self) -> bool {
        self.conservation_every > 0
            || self.stall_cycles > 0
            || self.max_cycles > 0
            || self.wall_limit_ms > 0
    }
}

/// Which watchdog check tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StallKind {
    /// Packets in flight but no delivery for the configured horizon.
    Livelock,
    /// The flit-conservation ledger stopped balancing — engine state is
    /// corrupt (this cannot happen through the public API; the check
    /// exists to catch engine bugs and bit flips, not user error).
    ConservationViolation,
    /// The simulated-cycle ceiling was reached.
    CycleCeiling,
    /// The wall-clock budget was exhausted.
    WallClockExceeded,
}

impl StallKind {
    /// Short stable name (log/JSON friendly).
    pub fn name(self) -> &'static str {
        match self {
            StallKind::Livelock => "livelock",
            StallKind::ConservationViolation => "conservation-violation",
            StallKind::CycleCeiling => "cycle-ceiling",
            StallKind::WallClockExceeded => "wall-clock",
        }
    }
}

/// The packet-accounting invariant the conservation check enforces:
/// `injected == delivered + dropped + in_flight`, over whole-run counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ConservationLedger {
    /// Packets created since the run started (including ones dropped at an
    /// overflowing or dead source).
    pub injected: u64,
    /// Packets delivered to their destination node.
    pub delivered: u64,
    /// Packets dropped (source-queue overflow, dead components, failed
    /// fault reroutes).
    pub dropped: u64,
    /// Packets currently allocated in the network.
    pub in_flight: u64,
}

impl ConservationLedger {
    /// True when every injected packet is accounted for.
    pub fn balanced(&self) -> bool {
        self.injected == self.delivered + self.dropped + self.in_flight
    }

    /// Signed imbalance (`injected - accounted`); zero when balanced.
    pub fn imbalance(&self) -> i64 {
        self.injected as i64 - (self.delivered + self.dropped + self.in_flight) as i64
    }
}

/// One non-empty input-buffer VC at trip time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VcSnapshot {
    /// Dense channel index ([`tugal_topology::ChannelId`]).
    pub chan: u32,
    /// Virtual channel within the channel.
    pub vc: u8,
    /// Buffered flits.
    pub occupancy: u32,
}

/// The oldest packet still in flight at trip time — where a livelocked
/// investigation starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OldestPacket {
    /// Cycle the packet was created.
    pub birth: u64,
    /// Cycles in flight at the trip.
    pub age: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Network hops taken so far.
    pub hops_taken: u8,
    /// Channel currently carrying or buffering the packet.
    pub cur_chan: u32,
}

/// One cycle of the flight-recorder ring: the end-of-cycle packet
/// counters.  A trip drains the last `WatchdogConfig::flight_recorder` of
/// these into [`StallReport::recent`], so forensics show the behavior
/// leading up to the stall, not just its final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FlightFrame {
    /// The cycle the frame describes.
    pub cycle: u64,
    /// Packets in flight at cycle end.
    pub in_flight: u64,
    /// Packets injected so far.
    pub injected: u64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Packets dropped so far.
    pub dropped: u64,
}

/// Routing-decision counters at trip time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RoutingCounters {
    /// Routing decisions taken.
    pub routed: u64,
    /// Decisions that chose the VLB candidate.
    pub vlb_chosen: u64,
}

/// Everything the watchdog knows at the moment it stopped the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StallReport {
    /// The check that tripped.
    pub kind: StallKind,
    /// Cycle at which the run stopped.
    pub cycle: u64,
    /// Cycle of the last delivery (0 when nothing was ever delivered).
    pub last_delivery: u64,
    /// Whole-run packet accounting at the trip.
    pub ledger: ConservationLedger,
    /// Non-empty (channel, VC) input buffers, largest first, capped at
    /// [`StallReport::MAX_OCCUPANCY_ENTRIES`] entries.
    pub occupancy: Vec<VcSnapshot>,
    /// The oldest packet still in flight, if any.
    pub oldest: Option<OldestPacket>,
    /// Routing-decision counters up to the trip.
    pub decisions: RoutingCounters,
    /// Flight-recorder frames: the last `WatchdogConfig::flight_recorder`
    /// cycles, oldest first.  Empty when the recorder is off (the
    /// default).
    pub recent: Vec<FlightFrame>,
}

impl StallReport {
    /// Cap on the occupancy snapshot so a report from a saturated large
    /// topology stays a report, not a core dump.
    pub const MAX_OCCUPANCY_ENTRIES: usize = 128;

    /// One-line summary for logs.
    pub fn oneline(&self) -> String {
        let oldest = match &self.oldest {
            Some(o) => format!(
                ", oldest packet {} -> {} in flight {} cycles",
                o.src, o.dst, o.age
            ),
            None => String::new(),
        };
        format!(
            "watchdog {} at cycle {}: {} in flight, last delivery at {}, \
             ledger {}/{}/{} (inj/del/drop){}",
            self.kind.name(),
            self.cycle,
            self.ledger.in_flight,
            self.last_delivery,
            self.ledger.injected,
            self.ledger.delivered,
            self.ledger.dropped,
            oldest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_balances_iff_all_packets_accounted() {
        let ok = ConservationLedger {
            injected: 10,
            delivered: 6,
            dropped: 1,
            in_flight: 3,
        };
        assert!(ok.balanced());
        assert_eq!(ok.imbalance(), 0);

        // A deliberately corrupted snapshot: one packet vanished.
        let corrupt = ConservationLedger { in_flight: 2, ..ok };
        assert!(!corrupt.balanced());
        assert_eq!(corrupt.imbalance(), 1);

        // ...and one materialized from nowhere.
        let surplus = ConservationLedger { delivered: 8, ..ok };
        assert!(!surplus.balanced());
        assert_eq!(surplus.imbalance(), -2);
    }

    #[test]
    fn guard_defaults_are_armed_and_generous() {
        let cfg = crate::Config::quick();
        let wd = WatchdogConfig::guard_for(&cfg);
        assert!(wd.armed());
        assert!(wd.stall_cycles > cfg.window as u64);
        assert!(wd.max_cycles >= cfg.total_cycles());
        assert!(!WatchdogConfig::disabled().armed());
    }

    #[test]
    fn report_oneline_mentions_kind_and_cycle() {
        let rep = StallReport {
            kind: StallKind::Livelock,
            cycle: 1234,
            last_delivery: 1000,
            ledger: ConservationLedger {
                injected: 5,
                delivered: 2,
                dropped: 1,
                in_flight: 2,
            },
            occupancy: vec![],
            oldest: Some(OldestPacket {
                birth: 900,
                age: 334,
                src: 3,
                dst: 17,
                hops_taken: 2,
                cur_chan: 40,
            }),
            decisions: RoutingCounters {
                routed: 5,
                vlb_chosen: 2,
            },
            recent: vec![],
        };
        let line = rep.oneline();
        assert!(line.contains("livelock"), "{line}");
        assert!(line.contains("1234"), "{line}");
        assert!(line.contains("334"), "{line}");
    }

    #[test]
    fn flight_recorder_alone_does_not_arm() {
        let only_recorder = WatchdogConfig {
            flight_recorder: 8,
            ..WatchdogConfig::disabled()
        };
        assert!(!only_recorder.armed());
    }
}
