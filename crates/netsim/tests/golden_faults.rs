//! Golden fixtures for degraded runs: two fixed fault scenarios on
//! dfly(2,4,2,5) pinning the full `SimResult` bit-for-bit, so any change
//! to the fault semantics (drain order, reroute policy, RNG draws) is a
//! deliberate fixture update, never an accident.
//!
//! Scenario `links5`: a seeded 5% global-cable failure applied at cycle 0.
//! Scenario `switch3`: switch 3 dies mid-run (cycle 2500, inside the
//! measurement window), exercising the buffered-flit drain and the
//! en-route reroute path.
//!
//! Also pins the zero-cost contract: attaching an *empty* schedule must
//! reproduce every pristine golden case bit-for-bit.

include!("common/cases.rs");

use tugal_netsim::{FaultSchedule, NoopObserver, NoopProfiler};
use tugal_topology::FaultSet;

fn run_faulted(adversarial: bool, rate: f64, schedule: FaultSchedule) -> SimResult {
    simulator(RoutingAlgorithm::UgalL, adversarial, 7)
        .with_faults(Arc::new(schedule))
        .run(rate)
}

#[test]
fn degraded_golden_results_bit_for_bit() {
    for (scenario, adversarial, rate, expected) in FAULT_CASES {
        let r = run_faulted(adversarial, rate, schedule_of(scenario));
        assert_eq!(
            format!("{r:?}"),
            expected,
            "degraded golden mismatch for ({scenario}, adversarial={adversarial}, rate={rate})"
        );
    }
}

#[test]
fn degraded_golden_results_through_a_reused_workspace() {
    let mut ws = SimWorkspace::new();
    for (scenario, adversarial, rate, expected) in FAULT_CASES {
        let r = simulator(RoutingAlgorithm::UgalL, adversarial, 7)
            .with_faults(Arc::new(schedule_of(scenario)))
            .run_in(rate, &mut ws, &mut NoopObserver, &mut NoopProfiler)
            .result;
        assert_eq!(
            format!("{r:?}"),
            expected,
            "reused-workspace degraded golden mismatch for ({scenario}, adversarial={adversarial})"
        );
    }
}

#[test]
fn empty_schedule_reproduces_every_pristine_golden_case() {
    // The zero-cost contract: a schedule with no real faults leaves the
    // engine on its pristine fast path — bit-for-bit.
    for (routing, adversarial, rate, expected) in CASES {
        let r = simulator(routing, adversarial, 7)
            .with_faults(Arc::new(FaultSchedule::immediate(FaultSet::empty())))
            .run(rate);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "empty fault schedule perturbed ({routing:?}, adversarial={adversarial}, rate={rate})"
        );
    }
}

#[test]
fn degraded_runs_differ_from_pristine_and_still_deliver() {
    // Sanity around the fixtures: both scenarios really bite (results
    // differ from the pristine golden case) yet traffic keeps flowing.
    for (scenario, adversarial, rate, pristine) in [
        ("links5", false, 0.3, CASES[4].3),
        ("links5", true, 0.15, CASES[5].3),
        ("switch3", false, 0.3, CASES[4].3),
        ("switch3", true, 0.15, CASES[5].3),
    ] {
        let r = run_faulted(adversarial, rate, schedule_of(scenario));
        assert_ne!(
            format!("{r:?}"),
            pristine,
            "({scenario}, adversarial={adversarial}) did not perturb the run"
        );
        assert!(r.delivered > 0, "({scenario}, adversarial={adversarial})");
    }
}
