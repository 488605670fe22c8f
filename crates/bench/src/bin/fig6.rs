//! Figure 6: latency vs offered load for UGAL-L, T-UGAL-L, PAR and T-PAR
//! on dfly(4,8,4,9) under the adversarial shift(2,0) pattern.
//!
//! Paper numbers: UGAL-L saturates ≈0.23 vs T-UGAL-L ≈0.29; PAR ≈0.29 vs
//! T-PAR ≈0.38; T- variants also have lower latency before saturation.

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
            ("UGAL-L", ugal.clone(), RoutingAlgorithm::UgalL),
            ("T-UGAL-L", tvlb.clone(), RoutingAlgorithm::UgalL),
            ("PAR", ugal, RoutingAlgorithm::Par),
            ("T-PAR", tvlb, RoutingAlgorithm::Par),
        ],
        &rate_grid(0.5),
    );
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig6",
        "adversarial shift(2,0), dfly(4,8,4,9), UGAL-L/PAR vs T- variants",
        &series,
    );
    tugal_bench::finish();
}
