//! Event invariants of the [`SimObserver`] seam, pinned independently of
//! any concrete metrics consumer:
//!
//! * packet conservation — every `on_inject` is matched by exactly one of
//!   `on_drop`, `on_deliver`, or the `in_flight` population reported by
//!   `on_run_end`;
//! * `on_route` fires at least once per routed packet, and exactly twice
//!   (second call flagged `reroute`) when PAR revises a MIN decision;
//! * the observer-visible decision stream reproduces the engine's
//!   `vlb_fraction` exactly;
//! * `on_link_traverse` covers switch-to-switch channels only;
//! * under mid-run failures, conservation still balances at drain, and
//!   fault reroutes / fault drops appear only at or after the failure
//!   cycle — never in a pristine run.

use std::sync::Arc;
use tugal_netsim::{
    Config, FaultSchedule, NoopProfiler, RoutingAlgorithm, SimObserver, SimResult, SimWorkspace,
    Simulator,
};
use tugal_routing::TableProvider;
use tugal_topology::{Dragonfly, DragonflyParams, FaultSet, NodeId, SwitchId};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn topo() -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(2, 4, 2, 5)).unwrap())
}

fn simulator(t: &Arc<Dragonfly>, routing: RoutingAlgorithm, adversarial: bool) -> Simulator {
    let provider = Arc::new(TableProvider::all_paths(t.clone()));
    let pattern: Arc<dyn TrafficPattern> = if adversarial {
        Arc::new(Shift::new(t, 1, 0))
    } else {
        Arc::new(Uniform::new(t))
    };
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = 23;
    Simulator::new(t.clone(), provider, pattern, routing, cfg)
}

/// Records the raw event stream.
#[derive(Default)]
struct Ledger {
    injected: u64,
    dropped: u64,
    delivered: u64,
    routes: u64,
    reroutes: u64,
    vlb_first: u64,
    traversals: u64,
    max_chan: u32,
    run_ended: bool,
    in_flight_at_end: u64,
    end_cycle: u64,
    fault_reroutes: u64,
    first_fault_reroute: Option<u64>,
    first_drop: Option<u64>,
}

impl SimObserver for Ledger {
    fn on_inject(&mut self, _now: u64, _src: NodeId, _dst: NodeId) {
        self.injected += 1;
    }
    fn on_drop(&mut self, now: u64, _src: NodeId, _dst: NodeId) {
        self.dropped += 1;
        self.first_drop.get_or_insert(now);
    }
    fn on_fault_reroute(&mut self, now: u64, _at: SwitchId) {
        self.fault_reroutes += 1;
        self.first_fault_reroute.get_or_insert(now);
    }
    fn on_route(
        &mut self,
        _now: u64,
        _src: SwitchId,
        _dst: SwitchId,
        used_vlb: bool,
        reroute: bool,
    ) {
        if reroute {
            assert!(used_vlb, "a PAR revision always switches to VLB");
            self.reroutes += 1;
        } else {
            self.routes += 1;
            if used_vlb {
                self.vlb_first += 1;
            }
        }
    }
    fn on_link_traverse(&mut self, _now: u64, chan: u32, _global: bool) {
        self.traversals += 1;
        self.max_chan = self.max_chan.max(chan);
    }
    fn on_deliver(&mut self, _now: u64, _latency: u64, _hops: u8) {
        self.delivered += 1;
    }
    fn on_run_end(&mut self, now: u64, in_flight: u64) {
        self.run_ended = true;
        self.in_flight_at_end = in_flight;
        self.end_cycle = now;
    }
}

fn run_ledger(routing: RoutingAlgorithm, adversarial: bool, rate: f64) -> (SimResult, Ledger) {
    let t = topo();
    let sim = simulator(&t, routing, adversarial);
    let mut ledger = Ledger::default();
    let result = sim
        .run_in(
            rate,
            &mut SimWorkspace::new(),
            &mut ledger,
            &mut NoopProfiler,
        )
        .result;
    (result, ledger)
}

#[test]
fn injected_equals_delivered_plus_dropped_plus_in_flight() {
    for routing in [
        RoutingAlgorithm::Min,
        RoutingAlgorithm::Vlb,
        RoutingAlgorithm::UgalL,
        RoutingAlgorithm::UgalG,
        RoutingAlgorithm::Par,
    ] {
        let (_, l) = run_ledger(routing, false, 0.25);
        assert!(l.run_ended, "{routing:?}: on_run_end must fire");
        assert_eq!(
            l.injected,
            l.delivered + l.dropped + l.in_flight_at_end,
            "{routing:?}: packet conservation at drain"
        );
        assert_eq!(
            l.fault_reroutes, 0,
            "{routing:?}: a pristine run never fault-reroutes"
        );
    }
}

#[test]
fn conservation_holds_in_deep_saturation() {
    // Past saturation the source queues overflow, so drops are non-zero
    // and many packets end the run in flight — conservation must still
    // balance through the on_drop and on_run_end terms.
    let (result, l) = run_ledger(RoutingAlgorithm::Min, true, 0.9);
    assert!(result.saturated);
    assert!(
        l.in_flight_at_end > 0,
        "a saturated run ends with flits inside"
    );
    assert_eq!(l.injected, l.delivered + l.dropped + l.in_flight_at_end);
}

#[test]
fn route_fires_per_routed_packet_and_again_on_par_reroute() {
    // Every packet that left its source queue was routed exactly once
    // (reroutes are flagged separately), so routes ≥ deliveries; and under
    // non-progressive routings the reroute stream is empty.
    for routing in [
        RoutingAlgorithm::Min,
        RoutingAlgorithm::UgalL,
        RoutingAlgorithm::UgalG,
    ] {
        let (_, l) = run_ledger(routing, true, 0.15);
        assert!(l.routes >= l.delivered, "{routing:?}");
        assert_eq!(l.reroutes, 0, "{routing:?} must never reroute");
    }
    let (_, l) = run_ledger(RoutingAlgorithm::Par, true, 0.15);
    assert!(l.routes >= l.delivered);
    assert!(l.reroutes > 0, "PAR on shift traffic must revise decisions");
    assert!(
        l.reroutes <= l.routes,
        "at most one revision per routed packet"
    );
}

#[test]
fn decision_stream_reproduces_engine_vlb_fraction() {
    for (routing, adversarial) in [
        (RoutingAlgorithm::UgalL, true),
        (RoutingAlgorithm::UgalG, true),
        (RoutingAlgorithm::Par, true),
        (RoutingAlgorithm::Vlb, false),
    ] {
        let (result, l) = run_ledger(routing, adversarial, 0.15);
        let observed = if l.routes == 0 {
            0.0
        } else {
            (l.vlb_first + l.reroutes) as f64 / l.routes as f64
        };
        assert_eq!(
            observed, result.vlb_fraction,
            "{routing:?}: observer and engine count the same decisions"
        );
    }
}

#[test]
fn link_traversals_stay_on_network_channels() {
    let t = topo();
    let sim = simulator(&t, RoutingAlgorithm::UgalL, false);
    let mut l = Ledger::default();
    let result = sim
        .run_in(0.25, &mut SimWorkspace::new(), &mut l, &mut NoopProfiler)
        .result;
    assert!(l.traversals > 0);
    assert!(
        (l.max_chan as usize) < t.num_network_channels(),
        "terminal channels must not fire on_link_traverse"
    );
    // Each delivered packet traverses ≥1 network channel unless source and
    // destination share a switch; traversals also cover undelivered flits,
    // so the count dominates deliveries minus same-switch pairs.
    assert!(l.traversals >= result.delivered / 2);
}

/// The failure cycle for the mid-run scenarios: inside the measurement
/// window of `Config::quick()` (warmup ends at 2000, run ends at 4000).
const FAIL_AT: u64 = 2500;

/// A fault set that reliably bites on dfly(2,4,2,5): a fifth of the
/// global cables plus one whole switch.
fn midrun_schedule(t: &Dragonfly) -> FaultSchedule {
    let mut faults = FaultSet::sample_global_links(t, 0.20, 0xFA17);
    faults.fail_switch(SwitchId(6));
    FaultSchedule::at(FAIL_AT, faults)
}

fn run_ledger_faulted(routing: RoutingAlgorithm, rate: f64) -> (SimResult, Ledger) {
    let t = topo();
    let schedule = midrun_schedule(&t);
    let sim = simulator(&t, routing, false).with_faults(Arc::new(schedule));
    let mut ledger = Ledger::default();
    let result = sim
        .run_in(
            rate,
            &mut SimWorkspace::new(),
            &mut ledger,
            &mut NoopProfiler,
        )
        .result;
    (result, ledger)
}

#[test]
fn conservation_holds_under_midrun_failures() {
    // Killing a switch mid-run drains its buffered flits through on_drop
    // and severed cables force en-route reroutes — the inject / deliver /
    // drop / in-flight ledger must still balance exactly at drain.
    for routing in [
        RoutingAlgorithm::Min,
        RoutingAlgorithm::UgalL,
        RoutingAlgorithm::Par,
    ] {
        let (result, l) = run_ledger_faulted(routing, 0.25);
        assert!(l.run_ended, "{routing:?}");
        assert_eq!(
            l.injected,
            l.delivered + l.dropped + l.in_flight_at_end,
            "{routing:?}: conservation must survive mid-run failures"
        );
        assert!(
            l.dropped > 0,
            "{routing:?}: the dead switch must drop flits"
        );
        assert!(result.delivered > 0, "{routing:?}: traffic keeps flowing");
    }
}

#[test]
fn fault_events_fire_only_at_or_after_the_failure_cycle() {
    let (_, l) = run_ledger_faulted(RoutingAlgorithm::UgalL, 0.25);
    assert!(
        l.fault_reroutes > 0,
        "20% dead cables plus a dead switch must force reroutes"
    );
    assert!(
        l.first_fault_reroute.unwrap() >= FAIL_AT,
        "fault reroutes cannot precede the failure (first at {:?})",
        l.first_fault_reroute
    );
    // The run is far from saturation, so every drop is fault-induced and
    // must postdate the failure as well.
    assert!(
        l.first_drop.unwrap() >= FAIL_AT,
        "drops cannot precede the failure (first at {:?})",
        l.first_drop
    );
}
