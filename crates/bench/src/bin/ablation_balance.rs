//! Ablation: the Step-2 load-balance adjustment.
//!
//! Builds the same restricted candidate set (the paper's 5-hop region)
//! with and without the local/global balance adjustment and simulates the
//! adversarial shift(2,0) pattern under UGAL-L on dfly(4,8,4,9).

use std::sync::Arc;
use tugal::{balance, BalanceOptions};
use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_routing::{PathProvider, PathTable, TableProvider, VlbRule};

fn main() {
    let topo = dfly(4, 8, 4, 9);
    let rule = VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.6,
    };
    let raw = PathTable::build_with_rule(&topo, rule, 0x6A1);
    let mut adjusted = raw.clone();
    let report = balance::adjust(&mut adjusted, &topo, &BalanceOptions::default());
    println!("# ablation_balance: {rule} on dfly(4,8,4,9), shift(2,0), UGAL-L");
    println!(
        "# adjustment removed {} paths locally, {} globally; worst usage ratio {:.2} -> {:.2}",
        report.removed_local,
        report.removed_global,
        report.worst_ratio_before,
        report.worst_ratio_after
    );
    let providers: [(&str, Arc<dyn PathProvider>); 2] = [
        (
            "unadjusted",
            Arc::new(TableProvider::new(topo.clone(), raw)),
        ),
        (
            "adjusted",
            Arc::new(TableProvider::new(topo.clone(), adjusted)),
        ),
    ];
    let pattern = shift(&topo, 2, 0);
    let entries: Vec<_> = providers
        .iter()
        .map(|(label, p)| (*label, p.clone(), RoutingAlgorithm::UgalL))
        .collect();
    let series = run_series(&topo, &pattern, &entries, &rate_grid(0.4));
    print_figure(
        "ablation_balance",
        "load-balance adjustment on/off, 60% 5-hop T-VLB",
        &series,
    );
    tugal_bench::finish();
}
