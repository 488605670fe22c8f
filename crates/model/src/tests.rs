//! Model behaviour tests: sanity bounds and the qualitative shapes the
//! paper's Step-1 estimation relies on.

use crate::*;
use tugal_routing::VlbRule;
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern};

fn topo(p: u32, a: u32, h: u32, g: u32) -> Dragonfly {
    Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap()
}

fn shift_demands(t: &Dragonfly, dg: u32, ds: u32) -> Vec<(u32, u32, u32)> {
    Shift::new(t, dg, ds).demands().unwrap()
}

#[test]
fn throughput_is_in_unit_interval() {
    let t = topo(2, 4, 2, 9);
    let d = shift_demands(&t, 1, 0);
    let th = modeled_throughput(&t, &d, VlbRule::All, ModelVariant::DrawProportional).unwrap();
    assert!(th > 0.0 && th <= 1.0, "{th}");
}

#[test]
fn adversarial_shift_beats_min_only_via_vlb() {
    // With only 1 global link between groups and 8 nodes sending to one
    // other group, MIN alone caps at 1/8 = 0.125; VLB must lift it.
    let t = topo(2, 4, 2, 9);
    let d = shift_demands(&t, 1, 0);
    let th = modeled_throughput(&t, &d, VlbRule::All, ModelVariant::DrawProportional).unwrap();
    assert!(th > 0.2, "{th}");
}

#[test]
fn draw_proportional_plateaus_on_dense_topology() {
    // dfly(4,8,4,9), Figure 4's shape under our reconstruction: a steep
    // rise from the smallest sets to a plateau where "60% 5-hop" and "all
    // VLB paths" are within ~1% of each other (the Step-2 simulation then
    // separates them; see DESIGN.md §4).
    let t = topo(4, 8, 4, 9);
    let d = shift_demands(&t, 2, 0);
    let rules = [
        VlbRule::ClassLimit {
            max_hops: 3,
            frac_next: 0.0,
        },
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.6,
        },
        VlbRule::All,
    ];
    let th = modeled_throughput_multi(&t, &d, &rules, ModelVariant::DrawProportional).unwrap();
    let (small, mid, all) = (th[0], th[1], th[2]);
    assert!(
        (mid - all).abs() < 0.015 * all.max(1e-9),
        "restricted set should be on the plateau with all-VLB: {mid} vs {all}"
    );
    assert!(
        mid > small + 0.02,
        "tiny set should fall well below the plateau: {mid} vs {small}"
    );
}

#[test]
fn all_vlb_wins_on_maximal_topology() {
    // dfly(4,8,4,33): Figure 5 — all VLB paths are needed; restrictions
    // lose throughput.
    let t = topo(4, 8, 4, 33);
    let d = shift_demands(&t, 1, 0);
    let rules = [
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.0,
        },
        VlbRule::ClassLimit {
            max_hops: 5,
            frac_next: 0.0,
        },
        VlbRule::All,
    ];
    let th = modeled_throughput_multi(&t, &d, &rules, ModelVariant::DrawProportional).unwrap();
    assert!(
        th[2] >= th[1] && th[2] >= th[0],
        "all-VLB must win on the maximal topology: {th:?}"
    );
    assert!(th[2] > th[0] + 0.02, "restriction should hurt: {th:?}");
}

#[test]
fn monotone_variant_is_a_relaxation() {
    // The monotone variant can only do better or equal — it frees the
    // allocation that draw-proportional pins.
    let t = topo(4, 8, 4, 9);
    let d = shift_demands(&t, 1, 0);
    for rule in [
        VlbRule::All,
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.5,
        },
    ] {
        let dp = modeled_throughput(&t, &d, rule, ModelVariant::DrawProportional).unwrap();
        let mc = modeled_throughput(&t, &d, rule, ModelVariant::MonotoneClasses).unwrap();
        assert!(mc >= dp - 1e-6, "monotone {mc} < draw-proportional {dp}");
    }
}

#[test]
fn monotone_variant_cannot_reproduce_the_hump() {
    // Documented ablation: under the relaxed (literal) reading, supersets
    // never lose, so Figure 4's decline cannot appear.
    let t = topo(4, 8, 4, 9);
    let d = shift_demands(&t, 2, 0);
    let restricted = modeled_throughput(
        &t,
        &d,
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.6,
        },
        ModelVariant::MonotoneClasses,
    )
    .unwrap();
    let all = modeled_throughput(&t, &d, VlbRule::All, ModelVariant::MonotoneClasses).unwrap();
    assert!(all >= restricted - 1e-6, "{all} vs {restricted}");
}

#[test]
fn strategic_rules_are_competitive_at_five_hops() {
    let t = topo(4, 8, 4, 9);
    let d = shift_demands(&t, 2, 0);
    let rules = [
        VlbRule::Strategic { first_seg: 2 },
        VlbRule::Strategic { first_seg: 3 },
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.5,
        },
    ];
    let th = modeled_throughput_multi(&t, &d, &rules, ModelVariant::DrawProportional).unwrap();
    for (r, v) in rules.iter().zip(&th) {
        assert!(*v > 0.3, "{r:?} scored {v}");
    }
    // The strategic choices approximate the 50% point.
    assert!((th[0] - th[2]).abs() < 0.15, "{th:?}");
}

#[test]
fn uniform_like_pattern_scores_high() {
    // A switch permutation that is NOT group-adversarial (destination in a
    // different group for each switch, spread out) gives near-full
    // throughput via MIN.
    let t = topo(2, 4, 2, 9);
    // shift by one switch position globally: switch s -> s + a (next
    // group, same position): that IS adversarial.  Instead use a spread
    // permutation: switch s -> (s * 5 + 1) mod 36 filtered to cross-group.
    let mut demands = Vec::new();
    for s in 0..36u32 {
        let d = (s * 5 + 1) % 36;
        if d != s {
            demands.push((s, d, 2));
        }
    }
    let th =
        modeled_throughput(&t, &demands, VlbRule::All, ModelVariant::DrawProportional).unwrap();
    assert!(th > 0.4, "{th}");
}

#[test]
fn empty_pattern_is_an_error() {
    let t = topo(2, 4, 2, 9);
    assert_eq!(
        modeled_throughput(&t, &[], VlbRule::All, ModelVariant::DrawProportional).unwrap_err(),
        ModelError::EmptyPattern
    );
}

#[test]
fn type2_patterns_model_cleanly() {
    let t = topo(4, 8, 4, 9);
    for p in tugal_traffic::type_2_set(&t, 3, 11) {
        let d = p.demands().unwrap();
        let th = modeled_throughput(&t, &d, VlbRule::All, ModelVariant::DrawProportional).unwrap();
        assert!(th > 0.2 && th <= 1.0, "{th}");
    }
}

#[test]
fn multi_is_consistent_with_single() {
    let t = topo(2, 4, 2, 9);
    let d = shift_demands(&t, 3, 1);
    let rules = [
        VlbRule::All,
        VlbRule::ClassLimit {
            max_hops: 5,
            frac_next: 0.0,
        },
    ];
    let multi = modeled_throughput_multi(&t, &d, &rules, ModelVariant::DrawProportional).unwrap();
    for (i, &rule) in rules.iter().enumerate() {
        let single = modeled_throughput(&t, &d, rule, ModelVariant::DrawProportional).unwrap();
        assert!((multi[i] - single).abs() < 1e-9);
    }
}

#[test]
fn fig4_absolute_range_is_plausible() {
    // The paper reports ~0.56 for all-VLB and ~0.58 for the best subset on
    // dfly(4,8,4,9).  Our substrate differs from CPLEX+BookSim in details,
    // so accept a generous band around those values for the TYPE_1-style
    // shift(2,0) pattern.
    let t = topo(4, 8, 4, 9);
    let d = shift_demands(&t, 2, 0);
    let all = modeled_throughput(&t, &d, VlbRule::All, ModelVariant::DrawProportional).unwrap();
    assert!((0.35..=0.75).contains(&all), "all-VLB modeled {all}");
}

#[test]
fn bottlenecks_are_global_links_under_adversarial_traffic() {
    use tugal_topology::ChannelKind;

    let t = topo(2, 4, 2, 9);
    let d = shift_demands(&t, 1, 0);
    let (theta, hot) = crate::modeled_bottlenecks(&t, &d, VlbRule::All).unwrap();
    assert!(theta > 0.0);
    assert!(!hot.is_empty(), "a saturated model must have binding rows");
    // The narrative of §3.1: the scarce resource under a shift pattern is
    // global-link capacity, so the binding constraints must be global
    // channels.
    let global = hot
        .iter()
        .filter(|(c, _)| t.channel(*c).kind == ChannelKind::Global)
        .count();
    assert!(
        global * 2 > hot.len(),
        "most binding rows should be global links: {global}/{}",
        hot.len()
    );
    // Sorted by shadow price, descending.
    for w in hot.windows(2) {
        assert!(w[0].1 >= w[1].1 - 1e-12);
    }
}

#[test]
fn bottleneck_throughput_matches_plain_solve() {
    let t = topo(2, 4, 2, 9);
    let d = shift_demands(&t, 2, 1);
    let plain = modeled_throughput(&t, &d, VlbRule::All, ModelVariant::DrawProportional).unwrap();
    let (theta, _) = crate::modeled_bottlenecks(&t, &d, VlbRule::All).unwrap();
    assert!((plain - theta).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Degraded-topology model: differential anchors against the pristine model
// and against the Garg–Könemann concurrent-flow approximation.

#[test]
fn degraded_stats_with_empty_faults_match_pristine() {
    use tugal_topology::{FaultSet, SwitchId};
    let t = topo(2, 4, 2, 5);
    let deg = t.degrade(&FaultSet::empty());
    for s in 0..t.num_switches() as u32 {
        for d in 0..t.num_switches() as u32 {
            if s == d {
                continue;
            }
            let a = PairStats::compute(&t, SwitchId(s), SwitchId(d));
            let b = PairStats::compute_degraded(&t, &deg, SwitchId(s), SwitchId(d));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{s}->{d}");
        }
    }
}

#[test]
fn degraded_model_with_empty_faults_matches_pristine() {
    use tugal_topology::FaultSet;
    let t = topo(2, 4, 2, 5);
    let deg = t.degrade(&FaultSet::empty());
    let dem = shift_demands(&t, 1, 0);
    for rule in [
        VlbRule::All,
        VlbRule::ClassLimit {
            max_hops: 3,
            frac_next: 0.0,
        },
    ] {
        for variant in [
            ModelVariant::DrawProportional,
            ModelVariant::MonotoneClasses,
        ] {
            let pristine = modeled_throughput(&t, &dem, rule, variant).unwrap();
            let m = modeled_throughput_degraded(&t, &deg, &dem, rule, variant).unwrap();
            assert_eq!(m.theta, pristine, "{rule:?}/{variant:?}");
            assert_eq!(m.unreachable_pairs, 0);
            assert_eq!(m.reachable_pairs, dem.len());
        }
    }
}

#[test]
fn fault_sweep_thetas_degrade_and_stay_positive() {
    // The fig_faults fault seed and fractions: Γ under growing failure must
    // never exceed the pristine value and must stay well above zero (the
    // draw-proportional variant is not superset-monotone in general, but on
    // this sweep the loss of capacity dominates — pinned here so the figure
    // keeps its shape).
    use tugal_topology::FaultSet;
    let t = topo(2, 4, 2, 5);
    let dem = shift_demands(&t, 1, 0);
    let pristine =
        modeled_throughput(&t, &dem, VlbRule::All, ModelVariant::DrawProportional).unwrap();
    for frac in [0.025, 0.05, 0.10] {
        let deg = t.degrade(&FaultSet::sample_global_links(&t, frac, 0xFA17));
        let m = modeled_throughput_degraded(
            &t,
            &deg,
            &dem,
            VlbRule::All,
            ModelVariant::DrawProportional,
        )
        .unwrap();
        assert!(
            m.theta <= pristine + 1e-9,
            "f={frac}: {} > pristine {pristine}",
            m.theta
        );
        assert!(m.theta > 0.3, "f={frac}: collapsed to {}", m.theta);
        assert_eq!(m.unreachable_pairs, 0, "10% faults cannot partition this");
    }
}

#[test]
fn simplex_and_mcf_agree_on_degraded_instances() {
    // Free-split maximum concurrent flow over the surviving candidate
    // paths, solved two ways: the exact dense simplex and the
    // Garg–Könemann approximation.  The approximation is a guaranteed
    // lower bound and must land within its accuracy band.
    use std::collections::HashMap;
    use tugal_lp::{ConcurrentFlow, FlowPath, LinearProgram, Relation, VarId};
    use tugal_routing::PathTable;
    use tugal_topology::{FaultSet, SwitchId};

    let t = topo(2, 4, 2, 5);
    let mut faults = FaultSet::sample_global_links(&t, 0.10, 0xBEEF);
    faults.fail_switch(SwitchId(5));
    let deg = t.degrade(&faults);
    let table = PathTable::build_all_degraded(&t, &deg);
    let dem = shift_demands(&t, 1, 0);

    let mut cf = ConcurrentFlow::new(vec![1.0; t.num_network_channels()]);
    let mut lp = LinearProgram::new();
    let theta = lp.add_var(1.0);
    lp.add_constraint(&[(theta, 1.0)], Relation::Le, 1.0);
    let mut edge_rows: HashMap<usize, Vec<(VarId, f64)>> = HashMap::new();
    let mut commodities = 0;
    for &(s, d, flows) in &dem {
        let (s, d) = (SwitchId(s), SwitchId(d));
        if deg.switch_dead(s) || deg.switch_dead(d) {
            continue;
        }
        let paths: Vec<tugal_routing::Path> = table.min(s, d).chain(table.vlb(s, d)).collect();
        assert!(!paths.is_empty(), "{s}->{d} lost all candidates");
        let flow_paths: Vec<FlowPath> = paths
            .iter()
            .map(|p| FlowPath::new((0..p.hops()).map(|i| p.channel_at(&t, i).index()).collect()))
            .collect();
        cf.add_commodity(flows as f64, flow_paths.clone());
        commodities += 1;
        let vars: Vec<VarId> = paths.iter().map(|_| lp.add_var(0.0)).collect();
        // θ·demand − Σ f_p ≤ 0  (the commodity must be fully served).
        let mut terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, -1.0)).collect();
        terms.push((theta, flows as f64));
        lp.add_constraint(&terms, Relation::Le, 0.0);
        for (v, fp) in vars.iter().zip(&flow_paths) {
            for &e in &fp.edges {
                edge_rows.entry(e).or_default().push((*v, 1.0));
            }
        }
    }
    assert!(commodities > 0);
    let mut edges: Vec<usize> = edge_rows.keys().copied().collect();
    edges.sort_unstable();
    for e in edges {
        lp.add_constraint(&edge_rows[&e], Relation::Le, 1.0);
    }
    lp.set_max_iterations(400_000);
    let exact = lp.solve().unwrap().value(theta);
    let approx = cf.solve(0.03).throughput;
    assert!(exact > 0.0 && exact <= 1.0 + 1e-9, "{exact}");
    assert!(
        approx <= exact + 1e-6,
        "MCF {approx} must lower-bound the simplex optimum {exact}"
    );
    assert!(
        approx >= 0.85 * exact,
        "MCF {approx} fell outside the accuracy band of the simplex {exact}"
    );
}

#[test]
fn disconnected_pairs_are_excluded_and_reported() {
    // Killing a whole switch disconnects exactly the demands that touch
    // it; the model must drop them, report them, and still solve.
    use tugal_topology::{FaultSet, SwitchId};
    let t = topo(2, 4, 2, 5);
    let dem = shift_demands(&t, 1, 0);
    let mut faults = FaultSet::empty();
    faults.fail_switch(SwitchId(0));
    let deg = t.degrade(&faults);
    let touching = dem.iter().filter(|&&(s, d, _)| s == 0 || d == 0).count();
    assert!(touching > 0);
    let m =
        modeled_throughput_degraded(&t, &deg, &dem, VlbRule::All, ModelVariant::DrawProportional)
            .unwrap();
    assert_eq!(m.unreachable_pairs, touching);
    assert_eq!(m.reachable_pairs, dem.len() - touching);
    assert!(m.theta > 0.0);
}
