//! Regenerates the golden-fixture strings in `tests/common/cases.rs`.
//!
//! Prints one line per fixture case (`CASE` / `FAULT` followed by the
//! case key and the `Debug` rendering of its `SimResult`).  Run after a
//! *deliberate* behavior change — an RNG-stream restructure, a phase-order
//! fix — and splice the printed strings into the fixture tables:
//!
//! ```text
//! cargo run --release -p tugal-netsim --example regen_goldens
//! ```
#![allow(unused_imports, dead_code)]

include!("../tests/common/cases.rs");

fn main() {
    for (routing, adversarial, rate, _) in CASES {
        let r = run(routing, adversarial, 7, rate);
        println!("CASE\t{routing:?}\t{adversarial}\t{rate}\t{r:?}");
    }
    for (scenario, adversarial, rate, _) in FAULT_CASES {
        let r = simulator(RoutingAlgorithm::UgalL, adversarial, 7)
            .with_faults(schedule_of(scenario))
            .run(rate);
        println!("FAULT\t{scenario}\t{adversarial}\t{rate}\t{r:?}");
    }
    for (spec, lag, routing, adversarial, rate, _) in ZOO_CASES {
        let r = simulator_zoo(spec, lag, routing, adversarial, 7).run(rate);
        println!("ZOO\t{spec}\t{lag}\t{routing:?}\t{adversarial}\t{rate}\t{r:?}");
    }
}
