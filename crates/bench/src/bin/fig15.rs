//! Figure 15: sensitivity to link latency — UGAL-G vs T-UGAL-G on
//! dfly(4,8,4,17) under a random permutation, with (local, global) link
//! latencies (10, 15) and (40, 60).
//!
//! Legend format matches the paper: `routing(local,global)`.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{NodePermutation, TrafficPattern};

fn main() {
    let topo = dfly(4, 8, 4, 17);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(NodePermutation::random(&topo, 0xF15));
    let mut entries = Vec::new();
    for (ll, gl) in [(10u32, 15u32), (40, 60)] {
        for (name, provider) in [("UGAL_G", &ugal), ("T_UGAL_G", &tvlb)] {
            let mut cfg = sim_config().for_routing(RoutingAlgorithm::UgalG);
            cfg.local_latency = ll;
            cfg.global_latency = gl;
            entries.push((
                format!("{name}({ll},{gl})"),
                provider.clone(),
                RoutingAlgorithm::UgalG,
                cfg,
            ));
        }
    }
    let series = run_series_cfg(&topo, &pattern, &entries, &rate_grid(0.8), None);
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig15",
        "link-latency sensitivity, UGAL-G, dfly(4,8,4,17), random permutation",
        &series,
    );
    tugal_bench::finish();
}
