//! Figure 8: latency vs offered load for UGAL-L, T-UGAL-L, PAR and T-PAR
//! on dfly(4,8,4,9) under a random node permutation.
//!
//! Paper numbers: UGAL-L saturates ≈0.63 vs T-UGAL-L ≈0.68 (smaller gains
//! than the adversarial case — fewer packets ride VLB paths).

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{NodePermutation, TrafficPattern};

fn main() {
    let topo = dfly(4, 8, 4, 9);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(NodePermutation::random(&topo, 0xF18));
    let series = run_series(
        &topo,
        &pattern,
        &[
            ("UGAL-L", ugal.clone(), RoutingAlgorithm::UgalL),
            ("T-UGAL-L", tvlb.clone(), RoutingAlgorithm::UgalL),
            ("PAR", ugal, RoutingAlgorithm::Par),
            ("T-PAR", tvlb, RoutingAlgorithm::Par),
        ],
        &rate_grid(0.9),
    );
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig8",
        "random permutation, dfly(4,8,4,9), UGAL-L/PAR vs T- variants",
        &series,
    );
    tugal_bench::finish();
}
