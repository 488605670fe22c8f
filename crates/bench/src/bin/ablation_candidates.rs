//! Ablation: number of VLB candidates per decision.
//!
//! The paper (and the original UGAL for Dragonfly) draws **one** VLB
//! candidate per packet; letting the router pick the best of `k` draws is
//! a natural extension (Singh's thesis).  This harness quantifies how far
//! extra candidates close the gap that T-UGAL closes by *construction* —
//! at the cost of `k` queue lookups per packet in a real router.

use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;

fn main() {
    let topo = dfly(4, 8, 4, 9);
    let ugal = ugal_provider(&topo);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let pattern = shift(&topo, 2, 0);
    let mut entries = Vec::new();
    for k in [1u8, 2, 4] {
        let mut cfg = sim_config().for_routing(RoutingAlgorithm::UgalL);
        cfg.vlb_candidates = k;
        entries.push((
            format!("UGAL-L(k={k})"),
            ugal.clone(),
            RoutingAlgorithm::UgalL,
            cfg,
        ));
    }
    let cfg = sim_config().for_routing(RoutingAlgorithm::UgalL);
    entries.push((
        "T-UGAL-L(k=1)".to_string(),
        tvlb,
        RoutingAlgorithm::UgalL,
        cfg,
    ));
    let series = run_series_cfg(&topo, &pattern, &entries, &rate_grid(0.4), None);
    println!("# T-VLB = {chosen}");
    print_figure(
        "ablation_candidates",
        "k VLB candidates vs T-UGAL, dfly(4,8,4,9), shift(2,0)",
        &series,
    );
    tugal_bench::finish();
}
