//! Golden determinism fixtures: exact `SimResult` values captured from the
//! pre-refactor engine (at the commit that vendored the dependency shims).
//! The engine-layering refactor must reproduce these bit-for-bit — any
//! diff here means the RNG call order, iteration order, or arithmetic
//! changed.
//!
//! The cases themselves live in `common/cases.rs`, shared with the
//! degraded-topology fixtures of `golden_faults.rs`.

include!("common/cases.rs");

#[test]
fn golden_results_bit_for_bit() {
    for (routing, adversarial, rate, expected) in CASES {
        let r = run(routing, adversarial, 7, rate);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "golden mismatch for ({routing:?}, adversarial={adversarial}, rate={rate})"
        );
    }
}

#[test]
fn zoo_golden_results_bit_for_bit() {
    for (spec, lag, routing, adversarial, rate, expected) in ZOO_CASES {
        let r = simulator_zoo(spec, lag, routing, adversarial, 7).run(rate);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "zoo golden mismatch for ({spec}, lag{lag}, {routing:?}, adversarial={adversarial}, rate={rate})"
        );
    }
    // The shapes genuinely differ from the absolute/lag-1 baseline: the
    // palmtree fixture must not just replay the plain UGAL-L case.
    assert_ne!(ZOO_CASES[0].5, CASES[4].3);
}

#[test]
fn golden_results_with_an_explicit_noop_observer() {
    // The observer seam must be invisible: the monomorphized NoopObserver
    // engine reproduces the pre-refactor fixtures bit-for-bit.
    use tugal_netsim::NoopObserver;
    let mut ws = SimWorkspace::new();
    for (routing, adversarial, rate, expected) in CASES {
        let r = simulator(routing, adversarial, 7).run_observed(rate, &mut ws, &mut NoopObserver);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "noop-observer golden mismatch for ({routing:?}, adversarial={adversarial}, rate={rate})"
        );
    }
}

#[test]
fn golden_results_through_a_reused_workspace() {
    // All ten cases back to back through ONE workspace: reuse (including
    // VC-count changes between PAR and the rest) must reproduce the same
    // pre-refactor fixtures bit-for-bit.
    let mut ws = SimWorkspace::new();
    for (routing, adversarial, rate, expected) in CASES {
        let r = simulator(routing, adversarial, 7).run_with(rate, &mut ws);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "reused-workspace golden mismatch for ({routing:?}, adversarial={adversarial}, rate={rate})"
        );
    }
}
