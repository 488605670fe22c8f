//! Figure 10: MIXED(75,25) on dfly(4,8,4,17) — 75% of nodes send uniform
//! traffic, 25% adversarial — for UGAL-L/PAR and their T- variants.
//!
//! Paper numbers: PAR saturates ≈0.40 vs T-PAR ≈0.46 (+15%).

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{Mixed, Shift, TrafficPattern};

fn main() {
    let topo = dfly(4, 8, 4, 17);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> =
        Arc::new(Mixed::new(&topo, 75, Shift::new(&topo, 1, 0), 0xA10));
    let series = run_series(
        &topo,
        &pattern,
        &[
            ("UGAL-L", ugal.clone(), RoutingAlgorithm::UgalL),
            ("T-UGAL-L", tvlb.clone(), RoutingAlgorithm::UgalL),
            ("PAR", ugal, RoutingAlgorithm::Par),
            ("T-PAR", tvlb, RoutingAlgorithm::Par),
        ],
        &rate_grid(0.6),
    );
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig10",
        "MIXED(75,25), dfly(4,8,4,17), UGAL-L/PAR vs T- variants",
        &series,
    );
    tugal_bench::finish();
}
