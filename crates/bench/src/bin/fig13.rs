//! Figure 13: adversarial shift(1,0) on the large dfly(13,26,13,27)
//! (9126 nodes) for all six routings: UGAL-L, T-UGAL-L, PAR, T-PAR,
//! UGAL-G, T-UGAL-G.
//!
//! The explicit path table does not fit for this topology; both UGAL and
//! T-UGAL run through the O(1)-memory samplers.  Quick mode also shrinks
//! the rate grid (the cycle-accurate run is ~9k nodes).

use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;

fn main() {
    let topo = dfly(13, 26, 13, 27);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern = shift(&topo, 1, 0);
    let rates: Vec<f64> = if full_fidelity() {
        rate_grid(0.5)
    } else {
        vec![0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
    };
    let series = run_series(
        &topo,
        &pattern,
        &[
            ("UGAL-L", ugal.clone(), RoutingAlgorithm::UgalL),
            ("T-UGAL-L", tvlb.clone(), RoutingAlgorithm::UgalL),
            ("PAR", ugal.clone(), RoutingAlgorithm::Par),
            ("T-PAR", tvlb.clone(), RoutingAlgorithm::Par),
            ("UGAL-G", ugal, RoutingAlgorithm::UgalG),
            ("T-UGAL-G", tvlb, RoutingAlgorithm::UgalG),
        ],
        &rates,
    );
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig13",
        "adversarial shift(1,0), dfly(13,26,13,27), all six routings",
        &series,
    );
    tugal_bench::finish();
}
