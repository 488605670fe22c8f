//! Figure 9: latency vs offered load for UGAL-G and T-UGAL-G on
//! dfly(4,8,4,9) under a random node permutation.
//!
//! Paper numbers: saturation 0.59 (UGAL-G) vs 0.66 (T-UGAL-G); similar
//! latency at low load.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{NodePermutation, TrafficPattern};

fn main() {
    let topo = dfly(4, 8, 4, 9);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(NodePermutation::random(&topo, 0xF19));
    let series = run_series(
        &topo,
        &pattern,
        &[
            ("UGAL-G", ugal, RoutingAlgorithm::UgalG),
            ("T-UGAL-G", tvlb, RoutingAlgorithm::UgalG),
        ],
        &rate_grid(0.9),
    );
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig9",
        "random permutation, dfly(4,8,4,9), UGAL-G vs T-UGAL-G",
        &series,
    );
    tugal_bench::finish();
}
