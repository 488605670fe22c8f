//! Ablation: the UGAL bias threshold `T` (§2.2).
//!
//! The paper evaluates with `T = 0` ("so the routing schemes do not bias
//! towards MIN or VLB paths"); this harness shows what the knob does:
//! positive `T` favours MIN (good for uniform traffic, harmful under
//! adversarial load), and an extreme `T` degenerates UGAL-L into MIN.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_traffic::TrafficPattern;

fn main() {
    let topo = dfly(4, 8, 4, 9);
    let ugal = ugal_provider(&topo);
    let patterns: [(&str, Arc<dyn TrafficPattern>); 2] =
        [("UR", uniform(&topo)), ("shift(2,0)", shift(&topo, 2, 0))];
    println!("# ablation_threshold: UGAL-L bias T on dfly(4,8,4,9)");
    for (pname, pattern) in &patterns {
        let mut entries = Vec::new();
        for t in [0i64, 30, 1_000_000] {
            let mut cfg = sim_config().for_routing(RoutingAlgorithm::UgalL);
            cfg.ugal_threshold = t;
            entries.push((format!("T={t}"), ugal.clone(), RoutingAlgorithm::UgalL, cfg));
        }
        let series = run_series_cfg(&topo, pattern, &entries, &rate_grid(0.4), None);
        println!("## pattern {pname}");
        for s in &series {
            println!(
                "#   {}: saturation ~ {:.3}",
                s.label,
                saturation_from_curve(&s.points)
            );
        }
    }
    tugal_bench::finish();
}
