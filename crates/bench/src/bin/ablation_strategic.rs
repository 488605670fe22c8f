//! Ablation: random fractional 5-hop selection versus the deterministic
//! *strategic* choices (§3.3.3) — all 2+3 or all 3+2 MIN-segment splits.
//!
//! The paper's final T-VLB for dfly(4,8,4,9) was the strategic 2+3 choice
//! (with balance adjustment); this harness shows how the three ways of
//! halving the 5-hop class compare under adversarial traffic.

use std::sync::Arc;
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_routing::{PathProvider, PathTable, TableProvider, VlbRule};

fn main() {
    let topo = dfly(4, 8, 4, 9);
    let variants = [
        (
            "random 50% 5-hop",
            VlbRule::ClassLimit {
                max_hops: 4,
                frac_next: 0.5,
            },
        ),
        ("strategic 2+3", VlbRule::Strategic { first_seg: 2 }),
        ("strategic 3+2", VlbRule::Strategic { first_seg: 3 }),
    ];
    let pattern = shift(&topo, 2, 0);
    let mut entries = Vec::new();
    for (label, rule) in variants {
        let table = PathTable::build_with_rule(&topo, rule, 0x57A);
        let provider: Arc<dyn PathProvider> = Arc::new(TableProvider::new(topo.clone(), table));
        entries.push((label, provider, RoutingAlgorithm::UgalL));
    }
    let series = run_series(&topo, &pattern, &entries, &rate_grid(0.4));
    print_figure(
        "ablation_strategic",
        "random vs strategic 5-hop halves, dfly(4,8,4,9), shift(2,0), UGAL-L",
        &series,
    );
    tugal_bench::finish();
}
