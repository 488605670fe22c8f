//! Figure 16: sensitivity to buffer depth — UGAL-L vs T-UGAL-L on
//! dfly(4,8,4,17) under MIXED(50,50), with per-VC buffers of 8 and 32
//! flits.
//!
//! Legend format matches the paper: `routing(buffer)`.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::{Mixed, Shift, TrafficPattern};

fn main() {
    let topo = dfly(4, 8, 4, 17);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern: Arc<dyn TrafficPattern> =
        Arc::new(Mixed::new(&topo, 50, Shift::new(&topo, 1, 0), 0xA16));
    let mut entries = Vec::new();
    for buf in [8u16, 32] {
        for (name, provider) in [("UGAL_L", &ugal), ("T_UGAL_L", &tvlb)] {
            let mut cfg = sim_config().for_routing(RoutingAlgorithm::UgalL);
            cfg.buf_size = buf;
            entries.push((
                format!("{name}({buf})"),
                provider.clone(),
                RoutingAlgorithm::UgalL,
                cfg,
            ));
        }
    }
    let series = run_series_cfg(&topo, &pattern, &entries, &rate_grid(0.55), None);
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig16",
        "buffer-depth sensitivity, UGAL-L, dfly(4,8,4,17), MIXED(50,50)",
        &series,
    );
    tugal_bench::finish();
}
