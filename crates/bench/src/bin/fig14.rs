//! Figure 14: MIXED(50,50) on the large dfly(13,26,13,27) for all six
//! routings.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{Mixed, Shift, TrafficPattern};

fn main() {
    let topo = dfly(13, 26, 13, 27);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> =
        Arc::new(Mixed::new(&topo, 50, Shift::new(&topo, 1, 0), 0xA14));
    let rates: Vec<f64> = if full_fidelity() {
        rate_grid(0.6)
    } else {
        vec![0.05, 0.1, 0.2, 0.3, 0.4]
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
        "fig14",
        "MIXED(50,50), dfly(13,26,13,27), all six routings",
        &series,
    );
    tugal_bench::finish();
}
