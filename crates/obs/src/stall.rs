//! Human-readable rendering of engine [`StallReport`]s.
//!
//! The engine's watchdog returns a structured report; this module turns it
//! into the multi-line diagnostic harnesses print when a job fails —
//! mirroring how the `metrics` section turns raw observer counters into a
//! readable summary.

use std::fmt::Write;
use tugal_netsim::StallReport;
use tugal_topology::{ChannelKind, Dragonfly};

/// How many occupancy lines [`render_stall`] prints before eliding.
const MAX_OCCUPANCY_LINES: usize = 8;

/// How many flight-recorder frames [`render_stall`] prints before eliding
/// (the oldest frames are elided — the most recent cycles matter most).
const MAX_FLIGHT_LINES: usize = 12;

/// Renders `report` as an indented multi-line diagnostic.  With a
/// topology, channels in the occupancy snapshot and the oldest packet's
/// position are annotated with their class (local / global / terminal) and
/// endpoints; without one they are printed as bare channel ids.
pub fn render_stall(report: &StallReport, topo: Option<&Dragonfly>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "watchdog trip: {} at cycle {}",
        report.kind.name(),
        report.cycle
    );
    let _ = writeln!(
        out,
        "  last delivery: cycle {} ({} cycles before the trip)",
        report.last_delivery,
        report.cycle.saturating_sub(report.last_delivery)
    );
    let l = &report.ledger;
    let _ = writeln!(
        out,
        "  ledger: injected {} = delivered {} + dropped {} + in flight {} ({})",
        l.injected,
        l.delivered,
        l.dropped,
        l.in_flight,
        if l.balanced() {
            "balanced".to_string()
        } else {
            format!("IMBALANCE {:+}", l.imbalance())
        }
    );
    let d = &report.decisions;
    let vlb_pct = if d.routed > 0 {
        100.0 * d.vlb_chosen as f64 / d.routed as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  decisions: {} routed, {} took VLB ({:.1}%)",
        d.routed, d.vlb_chosen, vlb_pct
    );
    if let Some(o) = &report.oldest {
        let _ = writeln!(
            out,
            "  oldest in flight: node {} -> {}, born cycle {} (age {}), {} hops, on {}",
            o.src,
            o.dst,
            o.birth,
            o.age,
            o.hops_taken,
            channel_desc(o.cur_chan, topo)
        );
    }
    if report.occupancy.is_empty() {
        let _ = writeln!(out, "  no occupied VC buffers");
    } else {
        let shown = report.occupancy.len().min(MAX_OCCUPANCY_LINES);
        let _ = writeln!(
            out,
            "  occupied VC buffers ({} shown of {}):",
            shown,
            report.occupancy.len()
        );
        for snap in report.occupancy.iter().take(shown) {
            let _ = writeln!(
                out,
                "    {} vc {}: {} flits",
                channel_desc(snap.chan, topo),
                snap.vc,
                snap.occupancy
            );
        }
    }
    if !report.recent.is_empty() {
        let shown = report.recent.len().min(MAX_FLIGHT_LINES);
        let _ = writeln!(
            out,
            "  flight recorder ({} shown of {} frames, most recent last):",
            shown,
            report.recent.len()
        );
        for f in report.recent.iter().skip(report.recent.len() - shown) {
            let _ = writeln!(
                out,
                "    cycle {}: in flight {}, injected {}, delivered {}, dropped {}",
                f.cycle, f.in_flight, f.injected, f.delivered, f.dropped
            );
        }
    }
    out
}

/// `chan 12 (global s3 -> s7)` with a topology, `chan 12` without.
fn channel_desc(chan: u32, topo: Option<&Dragonfly>) -> String {
    let Some(topo) = topo else {
        return format!("chan {chan}");
    };
    let Some(ch) = topo.channels().get(chan as usize) else {
        return format!("chan {chan}");
    };
    let kind = match ch.kind {
        ChannelKind::Local => "local",
        ChannelKind::Global => "global",
        _ => "terminal",
    };
    format!("chan {chan} ({kind} {:?} -> {:?})", ch.src, ch.dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tugal_netsim::{ConservationLedger, OldestPacket, RoutingCounters, StallKind, VcSnapshot};

    fn report() -> StallReport {
        StallReport {
            kind: StallKind::Livelock,
            cycle: 5000,
            last_delivery: 3200,
            ledger: ConservationLedger {
                injected: 90,
                delivered: 40,
                dropped: 20,
                in_flight: 30,
            },
            occupancy: vec![
                VcSnapshot {
                    chan: 2,
                    vc: 0,
                    occupancy: 12,
                },
                VcSnapshot {
                    chan: 5,
                    vc: 1,
                    occupancy: 7,
                },
            ],
            oldest: Some(OldestPacket {
                birth: 100,
                age: 4900,
                src: 0,
                dst: 9,
                hops_taken: 3,
                cur_chan: 2,
            }),
            decisions: RoutingCounters {
                routed: 88,
                vlb_chosen: 44,
            },
            recent: vec![],
        }
    }

    #[test]
    fn renders_every_section() {
        let text = render_stall(&report(), None);
        assert!(text.contains("livelock"), "{text}");
        assert!(text.contains("cycle 5000"), "{text}");
        assert!(text.contains("balanced"), "{text}");
        assert!(text.contains("oldest in flight: node 0 -> 9"), "{text}");
        assert!(text.contains("chan 2 vc 0: 12 flits"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
    }

    #[test]
    fn reports_ledger_imbalance() {
        let mut r = report();
        r.kind = StallKind::ConservationViolation;
        r.ledger.in_flight = 25; // five packets unaccounted for
        let text = render_stall(&r, None);
        assert!(text.contains("conservation-violation"), "{text}");
        assert!(text.contains("IMBALANCE +5"), "{text}");
    }

    #[test]
    fn renders_flight_recorder_frames_most_recent_last() {
        use tugal_netsim::FlightFrame;
        let mut r = report();
        r.recent = (0..20)
            .map(|i| FlightFrame {
                cycle: 4980 + i,
                in_flight: 30,
                injected: 90 + i,
                delivered: 40,
                dropped: 20,
            })
            .collect();
        let text = render_stall(&r, None);
        assert!(
            text.contains("flight recorder (12 shown of 20 frames"),
            "{text}"
        );
        // The oldest frames are elided, the newest kept.
        assert!(!text.contains("cycle 4980 "), "{text}");
        assert!(
            text.contains("cycle 4999: in flight 30, injected 109"),
            "{text}"
        );
    }

    #[test]
    fn annotates_channels_with_topology() {
        use tugal_topology::{Dragonfly, DragonflyParams};
        let topo = Dragonfly::new(DragonflyParams::new(2, 4, 2, 5)).unwrap();
        let text = render_stall(&report(), Some(&topo));
        assert!(
            text.contains("local") || text.contains("global") || text.contains("terminal"),
            "{text}"
        );
    }
}
