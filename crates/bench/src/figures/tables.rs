//! The paper's tables and its Step-1 figures: bodies that print rows
//! (Tables 1–3, Figs 4 and 5) rather than latency curves.

use crate::{dfly, full_fidelity};
use tugal::{coarse_grain_sweep, coarse_grain_sweep_rules, table1_points, SweepConfig};
use tugal_netsim::{Config, RoutingAlgorithm};
use tugal_routing::VlbRule;
use tugal_topology::{Dragonfly, DragonflyParams};

/// Table 1: the data points probed in the coarse-grain Step 1.
pub fn table1() {
    println!("# table1: configurations probed in coarse-grain Step 1");
    println!("{:>6}  data point", "idx");
    for (i, rule) in table1_points().iter().enumerate() {
        let explanation = match rule {
            tugal_routing::VlbRule::All => "all VLB paths".to_string(),
            tugal_routing::VlbRule::ClassLimit {
                max_hops,
                frac_next,
            } if *frac_next == 0.0 => format!("all paths {max_hops}-hop or less"),
            tugal_routing::VlbRule::ClassLimit {
                max_hops,
                frac_next,
            } => format!(
                "all paths {max_hops}-hop or less plus {:.0}% {}-hop paths",
                frac_next * 100.0,
                max_hops + 1
            ),
            tugal_routing::VlbRule::Strategic { .. } => unreachable!("not a Table-1 point"),
        };
        println!("{:>6}  {:<14} {}", i, rule.to_string(), explanation);
    }
}

/// Table 2: the topologies used in the experiments.
pub fn table2() {
    println!("# table2: topologies used in the experiments");
    println!(
        "{:>22} {:>8} {:>10} {:>8} {:>16}",
        "topology", "PEs", "switches", "groups", "links/group-pair"
    );
    for params in DragonflyParams::paper_topologies() {
        let t = Dragonfly::new(params).unwrap();
        println!(
            "{:>22} {:>8} {:>10} {:>8} {:>16}",
            params.to_string(),
            t.num_nodes(),
            t.num_switches(),
            t.num_groups(),
            t.links_per_group_pair()
        );
    }
    println!("# note: the paper lists 135 switches for dfly(4,8,4,17); 17*8 = 136 (typo there).");
}

/// Table 3: default network parameters in the simulations.
pub fn table3() {
    let base = Config::paper_default();
    println!("# table3: default network parameters");
    println!(
        "{:<24} {}",
        "# of virtual channels",
        format_args!(
            "{} for UGAL-L and UGAL-G / {} for PAR",
            base.clone().for_routing(RoutingAlgorithm::UgalL).num_vcs,
            base.clone().for_routing(RoutingAlgorithm::Par).num_vcs
        )
    );
    println!("{:<24} {}", "buffer size", base.buf_size);
    println!(
        "{:<24} {} cycles (local) / {} cycles (global)",
        "link latency", base.local_latency, base.global_latency
    );
    println!("{:<24} {}", "switch speed-up", base.speedup);
    println!(
        "{:<24} {} cycles x {} windows warmup, {}-cycle window, saturation at {} cycles",
        "measurement", base.window, base.warmup_windows, base.window, base.sat_latency
    );
}

/// Figure 4: average modeled throughput of the Step-1 sweep on
/// dfly(4,8,4,9) (mean ± standard error over TYPE_1 ∪ TYPE_2).
///
/// Paper shape: steep rise from "3-hop" (~0.4), best region around
/// 40–70% 5-hop (~0.58), all-VLB ~0.56.  Our reconstruction rises to a
/// plateau (see DESIGN.md §4): the 5-hop region and all-VLB are within
/// ~1%, and the very small sets fall far below.
pub fn fig4() {
    let topo = dfly(4, 8, 4, 9);
    let cfg = if full_fidelity() {
        SweepConfig::default()
    } else {
        SweepConfig {
            type1_sample: Some(16),
            type2_count: 5,
            ..SweepConfig::default()
        }
    };
    println!("# fig4: average modeled throughput, Step-1 sweep, dfly(4,8,4,9)");
    println!(
        "# mode: {}",
        if full_fidelity() {
            "full"
        } else {
            "quick (sampled patterns)"
        }
    );
    println!("{:>16} {:>12} {:>10}", "config", "throughput", "stderr");
    for o in coarse_grain_sweep(&topo, &cfg) {
        println!(
            "{:>16} {:>12.4} {:>10.4}",
            o.rule.to_string(),
            o.mean,
            o.sem
        );
    }
}

/// Figure 5: average modeled throughput of the Step-1 sweep on the
/// maximal dfly(4,8,4,33): all VLB paths are needed — every restriction
/// loses throughput, so T-UGAL converges with UGAL there.
pub fn fig5() {
    let topo = dfly(4, 8, 4, 33);
    let (cfg, rules) = if full_fidelity() {
        (SweepConfig::default(), table1_points())
    } else {
        // Quick mode: a representative sub-grid — each LP on the maximal
        // 264-switch topology takes seconds on one core.
        let rules = vec![
            VlbRule::ClassLimit {
                max_hops: 3,
                frac_next: 0.0,
            },
            VlbRule::ClassLimit {
                max_hops: 4,
                frac_next: 0.0,
            },
            VlbRule::ClassLimit {
                max_hops: 4,
                frac_next: 0.5,
            },
            VlbRule::ClassLimit {
                max_hops: 5,
                frac_next: 0.0,
            },
            VlbRule::ClassLimit {
                max_hops: 5,
                frac_next: 0.5,
            },
            VlbRule::All,
        ];
        (
            SweepConfig {
                type1_sample: Some(4),
                type2_count: 2,
                ..SweepConfig::default()
            },
            rules,
        )
    };
    println!("# fig5: average modeled throughput, Step-1 sweep, dfly(4,8,4,33)");
    println!(
        "# mode: {}",
        if full_fidelity() {
            "full"
        } else {
            "quick (sampled patterns, sub-grid)"
        }
    );
    println!("{:>16} {:>12} {:>10}", "config", "throughput", "stderr");
    let outcomes = coarse_grain_sweep_rules(&topo, &cfg, &rules);
    for o in &outcomes {
        println!(
            "{:>16} {:>12.4} {:>10.4}",
            o.rule.to_string(),
            o.mean,
            o.sem
        );
    }
    let best = outcomes
        .iter()
        .max_by(|a, b| a.mean.total_cmp(&b.mean))
        .unwrap();
    println!("# best: {} — expected: all VLB paths", best.rule);
}
