//! Figure 7: latency vs offered load for UGAL-G and T-UGAL-G on
//! dfly(4,8,4,9) under the adversarial shift(2,0) pattern.
//!
//! Paper numbers: saturation 0.23 (UGAL-G) vs 0.30 (T-UGAL-G); at load
//! 0.1 latency 61.2 vs 54.2 cycles.

use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;

fn main() {
    let topo = dfly(4, 8, 4, 9);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern = shift(&topo, 2, 0);
    let series = run_series(
        &topo,
        &pattern,
        &[
            ("UGAL-G", ugal, RoutingAlgorithm::UgalG),
            ("T-UGAL-G", tvlb, RoutingAlgorithm::UgalG),
        ],
        &rate_grid(0.5),
    );
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig7",
        "adversarial shift(2,0), dfly(4,8,4,9), UGAL-G vs T-UGAL-G",
        &series,
    );
    tugal_bench::finish();
}
