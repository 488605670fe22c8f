//! Figure 12: time-domain mixed traffic TMIXED(50,50) on dfly(4,8,4,17):
//! every packet is uniform with probability 50% and adversarial otherwise.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{Shift, TMixed, TrafficPattern};

fn main() {
    let topo = dfly(4, 8, 4, 17);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> =
        Arc::new(TMixed::new(&topo, 50, Shift::new(&topo, 1, 0)));
    let series = run_series(
        &topo,
        &pattern,
        &[
            ("UGAL-L", ugal.clone(), RoutingAlgorithm::UgalL),
            ("T-UGAL-L", tvlb.clone(), RoutingAlgorithm::UgalL),
            ("PAR", ugal, RoutingAlgorithm::Par),
            ("T-PAR", tvlb, RoutingAlgorithm::Par),
        ],
        &rate_grid(0.55),
    );
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig12",
        "TMIXED(50,50), dfly(4,8,4,17), UGAL-L/PAR vs T- variants",
        &series,
    );
    tugal_bench::finish();
}
