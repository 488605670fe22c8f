//! Algorithm-1 integration tests on small topologies.

use crate::*;
use std::sync::Arc;
use tugal_routing::VlbRule;
use tugal_topology::{Dragonfly, DragonflyParams};

fn topo(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap())
}

/// Step 2's outcome, one line per score, every float by its bits.
fn step2_lines(result: &TUgalResult) -> Vec<String> {
    let bits = |x: f64| format!("{:#018x}", x.to_bits());
    let mut lines: Vec<String> = result
        .report
        .scores
        .iter()
        .map(|s| {
            let balance = match &s.balance {
                Some(b) => format!(
                    "removed {}+{}, worst {} -> {}",
                    b.removed_local,
                    b.removed_global,
                    bits(b.worst_ratio_before),
                    bits(b.worst_ratio_after)
                ),
                None => "not balanced".to_string(),
            };
            format!(
                "{}: throughput {}, hops {}, {balance}",
                s.rule,
                bits(s.throughput),
                bits(s.mean_vlb_hops)
            )
        })
        .collect();
    lines.push(format!("chosen {}", result.chosen));
    lines.push(format!(
        "mean_hops_all {}",
        bits(result.report.mean_hops_all)
    ));
    lines.push(format!(
        "mean_hops_tvlb {}",
        bits(result.report.mean_hops_tvlb)
    ));
    lines
}

/// The whole report: the Step-1 sweep, the candidates and Step 2.
fn report_lines(result: &TUgalResult) -> Vec<String> {
    let mut lines: Vec<String> = result
        .report
        .sweep
        .iter()
        .map(|o| {
            format!(
                "{}: {:#018x} ± {:#018x}",
                o.rule,
                o.mean.to_bits(),
                o.sem.to_bits()
            )
        })
        .collect();
    lines.extend(
        result
            .report
            .candidates
            .iter()
            .map(|c| format!("candidate {c}")),
    );
    lines.extend(step2_lines(result));
    lines
}

fn installed<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

#[test]
fn tvlb_on_dense_topology_restricts_and_shortens() {
    // dfly(2,4,2,3): 4 links per group pair — plenty of short VLB paths.
    let t = topo(2, 4, 2, 3);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    assert_ne!(
        result.chosen,
        VlbRule::All,
        "dense topology should restrict"
    );
    assert!(
        result.report.mean_hops_tvlb < result.report.mean_hops_all - 0.2,
        "T-VLB should be shorter on average: {} vs {}",
        result.report.mean_hops_tvlb,
        result.report.mean_hops_all
    );
    assert_eq!(result.report.sweep.len(), 31);
    assert!(!result.report.scores.is_empty());
    assert_eq!(
        result.report.mean_hops_all.to_bits(),
        conventional_provider(t, 300).mean_vlb_hops().to_bits()
    );
}

#[test]
fn tvlb_on_maximal_topology_never_loses_throughput() {
    // dfly(2,4,2,9) is maximal (1 link per pair).  The paper's Figure-5
    // claim — T-UGAL converges with conventional UGAL when every VLB path
    // is needed — is established by Step-2 *simulation*; on this small
    // maximal instance we assert the measurable form of it: whatever
    // Step 2 picks scores at least as much simulated saturation
    // throughput as the full candidate set (All is always a candidate).
    let t = topo(2, 4, 2, 9);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let all_score = result
        .report
        .scores
        .iter()
        .find(|s| s.rule == VlbRule::All)
        .expect("the full set is always a Step-2 candidate");
    let chosen_score = result
        .report
        .scores
        .iter()
        .find(|s| s.rule == result.chosen)
        .unwrap();
    assert!(
        chosen_score.throughput >= all_score.throughput - 0.05,
        "chosen {:?} at {} must not lose to All at {}",
        result.chosen,
        chosen_score.throughput,
        all_score.throughput
    );
    assert_eq!(
        result.report.mean_hops_all.to_bits(),
        conventional_provider(t, 300).mean_vlb_hops().to_bits()
    );
}

#[test]
fn sweep_report_orders_match_table1() {
    let t = topo(2, 4, 2, 3);
    // (uses the same quick config as the other tests)
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let labels: Vec<String> = result
        .report
        .sweep
        .iter()
        .map(|o| o.rule.to_string())
        .collect();
    assert_eq!(labels[0], "3-hop paths");
    assert_eq!(labels[30], "all VLB paths");
    for o in &result.report.sweep {
        assert!(o.mean > 0.0 && o.mean <= 1.0, "{o:?}");
        assert!(o.sem >= 0.0);
    }
}

#[test]
fn strategic_candidates_appear_for_fractional_five_hop() {
    let t = topo(2, 4, 2, 3);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let has_frac5 = result.report.candidates.iter().any(|r| {
        matches!(r, VlbRule::ClassLimit { max_hops: 4, frac_next } if *frac_next > 0.0 && *frac_next < 1.0)
    });
    let has_strategic = result
        .report
        .candidates
        .iter()
        .any(|r| matches!(r, VlbRule::Strategic { .. }));
    assert_eq!(has_frac5, has_strategic, "{:?}", result.report.candidates);
}

#[test]
fn provider_is_usable_in_simulation() {
    use tugal_netsim::{Config, RoutingAlgorithm, Simulator};
    use tugal_traffic::{Shift, TrafficPattern};

    let t = topo(2, 4, 2, 3);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let r = Simulator::new(
        t.clone(),
        result.provider,
        pattern,
        RoutingAlgorithm::UgalL,
        Config::quick(),
    )
    .run(0.2);
    assert!(r.delivered > 0);
    assert!(!r.saturated, "{r:?}");
}

#[test]
fn conventional_provider_picks_representation_by_size() {
    let small = topo(2, 4, 2, 3);
    let p = conventional_provider(small, 300);
    assert!(p.mean_vlb_hops() > 2.0);
    // Force the rule-provider path with a tiny table budget.
    let also_small = topo(2, 4, 2, 3);
    let p = conventional_provider(also_small, 1);
    assert!(p.mean_vlb_hops() > 2.0);
}

#[test]
fn deterministic_given_seed() {
    let t = topo(2, 4, 2, 3);
    let a = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let b = compute_tvlb(t.clone(), &TUgalConfig::quick());
    assert_eq!(report_lines(&a), report_lines(&b));
}

#[test]
fn step2_does_not_depend_on_the_thread_count() {
    let t = topo(2, 4, 2, 3);
    let one = installed(1, || compute_tvlb(t.clone(), &TUgalConfig::quick()));
    let two = installed(2, || compute_tvlb(t.clone(), &TUgalConfig::quick()));
    assert_eq!(report_lines(&one), report_lines(&two));
    assert_eq!(one.report.scores, two.report.scores);
}

/// Step 2 on dfly(2,4,2,5) under the quick configuration (two TYPE_2
/// patterns), as the one-candidate-at-a-time implementation scored it.
/// 4-hop paths score highest but tie with 3-hop paths within one
/// bisection step, and the shorter set wins.
#[test]
fn step2_matches_sequential_golden() {
    const GOLDEN: [&str; 9] = [
        "3-hop paths: throughput 0x3fdb851eb851eb86, hops 0x4008caf477ed8caf, removed 0+0, worst 0x3ff6bca1af286bca -> 0x3ff6bca1af286bca",
        "4-hop paths: throughput 0x3fdd70a3d70a3d71, hops 0x400e18ea33134f1b, removed 32+0, worst 0x3ff30558c1563058 -> 0x3ff30558c1563056",
        "50% 5-hop: throughput 0x3fdb851eb851eb86, hops 0x40117fb89c2a6347, removed 74+0, worst 0x3ff208a28daca98e -> 0x3ff21819118d50fd",
        "all VLB paths: throughput 0x3fda8f5c28f5c290, hops 0x40147966ed869912, removed 0+0, worst 0x3ff07aaa6b335aaa -> 0x3ff07aaa6b335aaa",
        "strategic 2+3 5-hop: throughput 0x3fdb851eb851eb86, hops 0x4011cbfa862911cc, removed 0+0, worst 0x3ff088f4bed9cc64 -> 0x3ff088f4bed9cc64",
        "strategic 3+2 5-hop: throughput 0x3fdb851eb851eb86, hops 0x4011cbfa862911cc, removed 0+0, worst 0x3ff088f4bed9cc5b -> 0x3ff088f4bed9cc5b",
        "chosen 3-hop paths",
        "mean_hops_all 0x40147966ed869912",
        "mean_hops_tvlb 0x4008caf477ed8caf",
    ];
    let result = compute_tvlb(topo(2, 4, 2, 5), &TUgalConfig::quick());
    assert_eq!(step2_lines(&result), GOLDEN);
}

#[test]
fn all_paths_hops_match_the_conventional_provider() {
    // Dense, maximal, and (with a one-switch table budget) the sampler.
    for (t, max_table_switches) in [
        (topo(2, 4, 2, 3), 300),
        (topo(2, 4, 2, 9), 300),
        (topo(2, 4, 2, 3), 1),
    ] {
        let cfg = TUgalConfig {
            max_table_switches,
            ..TUgalConfig::quick()
        };
        let built = crate::algorithm::materialize(&t, VlbRule::All, &cfg);
        let expect = conventional_provider(t, max_table_switches).mean_vlb_hops();
        assert_eq!(
            built.all_paths_hops.map(f64::to_bits),
            Some(expect.to_bits())
        );
        let other = crate::algorithm::materialize(
            &topo(2, 4, 2, 3),
            VlbRule::Strategic { first_seg: 2 },
            &cfg,
        );
        assert_eq!(other.all_paths_hops, None);
    }
}

#[test]
fn config_is_validated() {
    use tugal_netsim::ConfigError;
    assert_eq!(TUgalConfig::quick().validate(), Ok(()));
    let with = |f: fn(&mut TUgalConfig)| {
        let mut cfg = TUgalConfig::quick();
        f(&mut cfg);
        cfg.validate()
    };
    assert_eq!(
        with(|c| c.eval_patterns = 0),
        Err(ConfigError::EmptyPatterns)
    );
    assert_eq!(
        with(|c| c.eval_resolution = 0.0),
        Err(ConfigError::BadResolution(0.0))
    );
    assert_eq!(
        with(|c| c.eval_resolution = -0.5),
        Err(ConfigError::BadResolution(-0.5))
    );
    assert_eq!(
        with(|c| c.eval_resolution = 1.0),
        Err(ConfigError::BadResolution(1.0))
    );
    assert!(matches!(
        with(|c| c.eval_resolution = f64::NAN),
        Err(ConfigError::BadResolution(r)) if r.is_nan()
    ));
    assert_eq!(with(|c| c.sim.window = 0), Err(ConfigError::ZeroWindow));
}

#[test]
#[should_panic(expected = "invalid Algorithm-1 configuration: no traffic patterns")]
fn compute_tvlb_rejects_a_bad_config_before_step1() {
    // A topology whose Step-1 sweep would take far longer than this test
    // does if the check came after it.
    let cfg = TUgalConfig {
        eval_patterns: 0,
        ..TUgalConfig::quick()
    };
    compute_tvlb(topo(4, 8, 4, 33), &cfg);
}
