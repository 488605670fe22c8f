//! Figure 17: sensitivity to router-internal speedup — PAR vs T-PAR on
//! dfly(4,8,4,17) under MIXED(25,75), with speedups 1 and 2.
//!
//! Legend format matches the paper: `routing(speedup)`.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{Mixed, Shift, TrafficPattern};

fn main() {
    let topo = dfly(4, 8, 4, 17);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> =
        Arc::new(Mixed::new(&topo, 25, Shift::new(&topo, 1, 0), 0xA17));
    let mut entries = Vec::new();
    for speedup in [1u32, 2] {
        for (name, provider) in [("PAR", &ugal), ("T_PAR", &tvlb)] {
            let mut cfg = sim_config().for_routing(RoutingAlgorithm::Par);
            cfg.speedup = speedup;
            entries.push((
                format!("{name}({speedup})"),
                provider.clone(),
                RoutingAlgorithm::Par,
                cfg,
            ));
        }
    }
    let series = run_series_cfg(&topo, &pattern, &entries, &rate_grid(0.45), None);
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig17",
        "speedup sensitivity, PAR, dfly(4,8,4,17), MIXED(25,75)",
        &series,
    );
    tugal_bench::finish();
}
