//! Ablation: global-link arrangements (absolute / relative / circulant).
//!
//! The paper claims its techniques do not depend on the arrangement; this
//! harness compares conventional UGAL-L across the three wirings on
//! dfly(4,8,4,9) under adversarial traffic.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_routing::PathProvider;
use tugal_topology::{
    AbsoluteArrangement, CirculantArrangement, Dragonfly, DragonflyParams, GlobalArrangement,
    RelativeArrangement,
};

fn main() {
    let params = DragonflyParams::new(4, 8, 4, 9);
    let arrangements: [&dyn GlobalArrangement; 3] = [
        &AbsoluteArrangement,
        &RelativeArrangement,
        &CirculantArrangement,
    ];
    println!("# ablation_arrangement: UGAL-L on dfly(4,8,4,9) shift(2,0) per wiring");
    for arr in arrangements {
        let topo = Arc::new(Dragonfly::with_arrangement(params, arr).unwrap());
        let provider: Arc<dyn PathProvider> = ugal_provider(&topo);
        let pattern = shift(&topo, 2, 0);
        let series = run_series(
            &topo,
            &pattern,
            &[("UGAL-L", provider, RoutingAlgorithm::UgalL)],
            &rate_grid(0.4),
        );
        let sat = saturation_from_curve(&series[0].points);
        println!(
            "{:>10}: saturation ~ {:.3} packets/cycle/node",
            arr.name(),
            sat
        );
    }
    tugal_bench::finish();
}
