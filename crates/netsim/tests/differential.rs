//! Differential tests: pairs of configurations that must be *flit-for-flit
//! identical* by construction, pinning the engine's RNG-consumption
//! contracts.
//!
//! * UGAL-L/G with the `ugal_threshold == i64::MAX` force-MIN sentinel
//!   reproduce `RoutingAlgorithm::Min` exactly — the sentinel
//!   short-circuits the decision *without drawing the VLB candidate*, so
//!   the shared RNG stream is consumed identically.
//! * `vlb_candidates = 1` is the paper's single-draw UGAL — making the
//!   default explicit changes nothing.
//!
//! Comparison goes through `SimResult`'s `Debug` form, which is
//! round-trip exact for `f64`, so a string match is a bit-for-bit match.

use std::sync::Arc;
use tugal_netsim::{Config, RoutingAlgorithm, SimResult, Simulator};
use tugal_routing::TableProvider;
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn topo() -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(2, 4, 2, 5)).unwrap())
}

fn pattern(topo: &Arc<Dragonfly>, adversarial: bool) -> Arc<dyn TrafficPattern> {
    if adversarial {
        Arc::new(Shift::new(topo, 1, 0))
    } else {
        Arc::new(Uniform::new(topo))
    }
}

fn run_configured(
    routing: RoutingAlgorithm,
    adversarial: bool,
    rate: f64,
    tweak: impl FnOnce(&mut Config),
) -> SimResult {
    let topo = topo();
    let provider = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern = pattern(&topo, adversarial);
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = 7;
    tweak(&mut cfg);
    Simulator::new(topo, provider, pattern, routing, cfg).run(rate)
}

/// The force-MIN sentinel makes UGAL-L *identical* to MIN: same decisions
/// (always the MIN candidate) and — the part a huge finite threshold
/// cannot deliver — the same RNG stream, because the VLB draw is skipped.
#[test]
fn ugal_l_with_force_min_sentinel_equals_min() {
    for (adversarial, rate) in [(false, 0.3), (true, 0.15)] {
        let min = run_configured(RoutingAlgorithm::Min, adversarial, rate, |_| {});
        let forced = run_configured(RoutingAlgorithm::UgalL, adversarial, rate, |c| {
            c.ugal_threshold = i64::MAX;
        });
        assert_eq!(
            format!("{min:?}"),
            format!("{forced:?}"),
            "UGAL-L with the force-MIN sentinel diverged from MIN \
             (adversarial={adversarial}, rate={rate})"
        );
        assert_eq!(forced.vlb_fraction, 0.0);
    }
}

/// The sentinel applies to the UGAL-G metric the same way.
#[test]
fn ugal_g_with_force_min_sentinel_equals_min() {
    let min = run_configured(RoutingAlgorithm::Min, false, 0.3, |_| {});
    let forced = run_configured(RoutingAlgorithm::UgalG, false, 0.3, |c| {
        c.ugal_threshold = i64::MAX;
    });
    assert_eq!(format!("{min:?}"), format!("{forced:?}"));
}

/// Guards the differential above from becoming vacuous: at the same load
/// and seed, plain UGAL-L (threshold 0) does take VLB detours, so the
/// sentinel test really is distinguishing two behaviours.
#[test]
fn plain_ugal_l_differs_from_min() {
    let min = run_configured(RoutingAlgorithm::Min, true, 0.15, |_| {});
    let ugal = run_configured(RoutingAlgorithm::UgalL, true, 0.15, |_| {});
    assert!(ugal.vlb_fraction > 0.0);
    assert_ne!(format!("{min:?}"), format!("{ugal:?}"));
}

/// `vlb_candidates = 1` (explicit) is the default single-draw UGAL: the
/// k == 1 early return draws exactly one VLB candidate, like the paper.
#[test]
fn one_vlb_candidate_is_the_default_single_draw_ugal() {
    for routing in [RoutingAlgorithm::UgalL, RoutingAlgorithm::UgalG] {
        let implicit = run_configured(routing, true, 0.15, |_| {});
        let explicit = run_configured(routing, true, 0.15, |c| c.vlb_candidates = 1);
        assert_eq!(
            format!("{implicit:?}"),
            format!("{explicit:?}"),
            "explicit vlb_candidates = 1 diverged for {routing:?}"
        );
    }
}

/// ... and `vlb_candidates > 1` genuinely changes the decision (more RNG
/// draws, a queue-metric competition), so the equality above is not an
/// artifact of the knob being ignored.
#[test]
fn multiple_vlb_candidates_change_the_outcome() {
    let one = run_configured(RoutingAlgorithm::UgalL, true, 0.15, |_| {});
    let three = run_configured(RoutingAlgorithm::UgalL, true, 0.15, |c| {
        c.vlb_candidates = 3
    });
    assert_ne!(format!("{one:?}"), format!("{three:?}"));
}
