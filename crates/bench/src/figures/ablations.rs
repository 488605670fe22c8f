//! Ablation studies: what each design choice of T-UGAL buys.

use crate::*;
use std::sync::Arc;
use tugal::{balance, BalanceOptions};
use tugal_model::{modeled_throughput_multi, ModelVariant};
use tugal_netsim::RoutingAlgorithm;
use tugal_routing::{PathProvider, PathTable, TableProvider, VlbRule};
use tugal_topology::{
    AbsoluteArrangement, CirculantArrangement, Dragonfly, DragonflyParams, GlobalArrangement,
    RelativeArrangement,
};
use tugal_traffic::{Shift, TrafficPattern};

/// Ablation: global-link arrangements (absolute / relative / circulant).
///
/// The paper claims its techniques do not depend on the arrangement; this
/// harness compares conventional UGAL-L across the three wirings on
/// dfly(4,8,4,9) under adversarial traffic.
pub fn ablation_arrangement() {
    let params = DragonflyParams::new(4, 8, 4, 9);
    let arrangements: [&dyn GlobalArrangement; 3] = [
        &AbsoluteArrangement,
        &RelativeArrangement,
        &CirculantArrangement,
    ];
    println!("# ablation_arrangement: UGAL-L on dfly(4,8,4,9) shift(2,0) per wiring");
    for arr in arrangements {
        let topo = Arc::new(Dragonfly::with_arrangement(params, arr).unwrap());
        let provider: Arc<dyn PathProvider> = ugal_provider(&topo);
        let pattern = shift(&topo, 2, 0);
        let series = run_series(
            &topo,
            &pattern,
            &[("UGAL-L", provider, RoutingAlgorithm::UgalL)],
            &rate_grid(0.4),
        );
        let sat = saturation_from_curve(&series[0].points);
        println!(
            "{:>10}: saturation ~ {:.3} packets/cycle/node",
            arr.name(),
            sat
        );
    }
}

/// Ablation: the Step-2 load-balance adjustment.
///
/// Builds the same restricted candidate set (the paper's 5-hop region)
/// with and without the local/global balance adjustment and simulates the
/// adversarial shift(2,0) pattern under UGAL-L on dfly(4,8,4,9).
pub fn ablation_balance() {
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
}

/// Ablation: number of VLB candidates per decision.
///
/// The paper (and the original UGAL for Dragonfly) draws **one** VLB
/// candidate per packet; letting the router pick the best of `k` draws is
/// a natural extension (Singh's thesis).  This harness quantifies how far
/// extra candidates close the gap that T-UGAL closes by *construction* —
/// at the cost of `k` queue lookups per packet in a real router.
pub fn ablation_candidates() {
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
}

/// Ablation: the model variant (the paper's Model-3 modification).
///
/// Compares [`ModelVariant::DrawProportional`] (default: VLB spreads
/// uniformly over the candidate set) against
/// [`ModelVariant::MonotoneClasses`] (the literal monotone relaxation of
/// the paper's added constraints) across the Table-1 sweep on
/// dfly(4,8,4,9).  The relaxation is provably monotone in the candidate
/// set — it cannot penalize oversized sets — which is why the default
/// variant is the one Algorithm 1 uses (DESIGN.md §4).
pub fn ablation_monotonicity() {
    let topo = dfly(4, 8, 4, 9);
    let rules = tugal::table1_points();
    let demands = Shift::new(&topo, 2, 0).demands().unwrap();
    let draw =
        modeled_throughput_multi(&topo, &demands, &rules, ModelVariant::DrawProportional).unwrap();
    let mono =
        modeled_throughput_multi(&topo, &demands, &rules, ModelVariant::MonotoneClasses).unwrap();
    println!("# ablation_monotonicity: model variants on shift(2,0), dfly(4,8,4,9)");
    println!(
        "{:>16} {:>18} {:>18} {:>8}",
        "config", "draw-proportional", "monotone-classes", "gap"
    );
    for ((rule, d), m) in rules.iter().zip(&draw).zip(&mono) {
        println!(
            "{:>16} {:>18.4} {:>18.4} {:>8.4}",
            rule.to_string(),
            d,
            m,
            m - d
        );
    }
    println!("# monotone-classes is a relaxation: it must dominate draw-proportional");
    println!("# and be non-decreasing toward 'all VLB paths'.");
}

/// Ablation: random fractional 5-hop selection versus the deterministic
/// *strategic* choices (§3.3.3) — all 2+3 or all 3+2 MIN-segment splits.
///
/// The paper's final T-VLB for dfly(4,8,4,9) was the strategic 2+3 choice
/// (with balance adjustment); this harness shows how the three ways of
/// halving the 5-hop class compare under adversarial traffic.
pub fn ablation_strategic() {
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
}

/// Ablation: the UGAL bias threshold `T` (§2.2).
///
/// The paper evaluates with `T = 0` ("so the routing schemes do not bias
/// towards MIN or VLB paths"); this harness shows what the knob does:
/// positive `T` favours MIN (good for uniform traffic, harmful under
/// adversarial load), and an extreme `T` degenerates UGAL-L into MIN.
pub fn ablation_threshold() {
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
}
