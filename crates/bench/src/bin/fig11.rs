//! Figure 11: MIXED(25,75) on dfly(4,8,4,17) — mostly adversarial —
//! for UGAL-L/PAR and their T- variants.
//!
//! Paper numbers: PAR saturates ≈0.25 vs T-PAR ≈0.30 (+20%); the more
//! adversarial the mix, the larger T-UGAL's advantage.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{Mixed, Shift, TrafficPattern};

fn main() {
    let topo = dfly(4, 8, 4, 17);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> =
        Arc::new(Mixed::new(&topo, 25, Shift::new(&topo, 1, 0), 0xA11));
    let series = run_series(
        &topo,
        &pattern,
        &[
            ("UGAL-L", ugal.clone(), RoutingAlgorithm::UgalL),
            ("T-UGAL-L", tvlb.clone(), RoutingAlgorithm::UgalL),
            ("PAR", ugal, RoutingAlgorithm::Par),
            ("T-PAR", tvlb, RoutingAlgorithm::Par),
        ],
        &rate_grid(0.45),
    );
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig11",
        "MIXED(25,75), dfly(4,8,4,17), UGAL-L/PAR vs T- variants",
        &series,
    );
    tugal_bench::finish();
}
