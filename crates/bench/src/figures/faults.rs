//! Fault sweep: UGAL-L vs T-UGAL-L on degraded dragonflies.
//!
//! The paper evaluates topology-custom VLB on pristine dragonflies; this
//! harness probes how the comparison degrades when global links fail.  A
//! seeded fraction of global cables (0–10%) is removed, the candidate
//! tables are re-derived on the degraded view (with T-VLB regeneration for
//! pairs whose custom subset died), the engine runs with the corresponding
//! fault schedule, and the coarse-grain LP throughput of the degraded
//! topology is printed next to the simulated curves.
//!
//! Differential anchors built into the run:
//!
//! * the 0%-failure point is executed through the full fault machinery
//!   (empty `FaultSet`, degraded tables, attached schedule) and asserted
//!   bit-for-bit equal to a pristine run without any of it;
//! * every non-zero fraction must still deliver traffic under both
//!   routings (a drop-everything regression cannot pass);
//! * the coarse-grain LP solves chain a warm-start basis along the fault
//!   superset chain (growing fractions under one seed), every warm θ is
//!   asserted bit-identical to a cold solve of the same instance, the
//!   zero-failure θ bit-identical to the pristine model, and the chain
//!   tail must spend ≥3× fewer pivots than the cold solves in tiny mode
//!   (strictly fewer at full size, where a 2.5% fault step re-prices
//!   nearly every LP column and no basis can shortcut the move); an
//!   exact re-solve of the last fraction must hit the carried basis in
//!   zero pivots.  Chain counters land in the `lp_stats` section of
//!   `results/fig_faults.json`.
//!
//! `TUGAL_TINY=1` swaps in `dfly(2,4,2,5)` for CI smoke runs.

use crate::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tugal_model::{
    modeled_throughput, modeled_throughput_degraded_warm, ModelVariant, ModelWarmCache,
};
use tugal_netsim::{FaultSchedule, RoutingAlgorithm};
use tugal_routing::{PathProvider, PathTable, TableProvider, VlbRule};
use tugal_topology::{Dragonfly, FaultSet};
use tugal_traffic::TrafficPattern;

/// Seed of the failure samples: every fraction draws from the same shuffle,
/// so larger fractions are supersets of smaller ones.
const FAULT_SEED: u64 = 0xFA17;

/// Table seed of the T-VLB construction (matching `tvlb_provider`).
const TVLB_TABLE_SEED: u64 = 0x7065;

fn tiny() -> bool {
    env::HarnessEnv::get().tiny
}

/// Clones a pristine table, filters it against the degraded view and wraps
/// it as a provider, printing the reachability report.
fn degraded_provider(
    topo: &Arc<Dragonfly>,
    pristine: &PathTable,
    deg: &tugal_topology::Degraded,
    rule: VlbRule,
    seed: u64,
    tag: &str,
) -> Arc<dyn PathProvider> {
    let mut table = pristine.clone();
    let rep = table.degrade(deg, rule, seed);
    println!(
        "#   reachability[{tag}]: {} pairs, removed {} MIN / {} VLB paths, \
         regenerated {} pairs, unreachable {}",
        rep.pairs, rep.removed_min, rep.removed_vlb, rep.regenerated_pairs, rep.unreachable_pairs
    );
    Arc::new(TableProvider::new(topo.clone(), table))
}

/// The fault sweep figure.
pub fn fig_faults() {
    let topo = if tiny() {
        dfly(2, 4, 2, 5)
    } else {
        dfly(4, 8, 4, 9)
    };
    let fractions = [0.0, 0.025, 0.05, 0.10];
    let rates = if tiny() {
        vec![0.1, 0.2]
    } else {
        vec![0.1, 0.2, 0.3]
    };

    // Pristine candidate tables, built once; each fraction degrades a copy.
    let (_, chosen) = tvlb_provider(&topo);
    println!("# T-VLB = {chosen}");
    let ugal_table = PathTable::build_all(&topo);
    let mut tvlb_table = PathTable::build_with_rule(&topo, chosen, TVLB_TABLE_SEED);
    if !chosen.is_all() {
        tugal::balance::adjust(&mut tvlb_table, &topo, &tugal::BalanceOptions::default());
    }

    let patterns: Vec<(&str, Arc<dyn TrafficPattern>)> =
        vec![("UR", uniform(&topo)), ("SHIFT", shift(&topo, 1, 0))];

    // One warm-start chain per (pattern, rule): the cache carries the LP
    // basis along the fault superset chain.  Alongside each cache:
    // pivots at the previous step, and the (warm, cold) pivot totals over
    // the chain's tail (every fraction past the cold head).
    struct Chain {
        cache: ModelWarmCache,
        last_pivots: usize,
        tail_warm: usize,
        tail_cold: usize,
    }
    let mut chains: BTreeMap<String, Chain> = BTreeMap::new();

    let mut all_series = Vec::new();
    for (ptag, pattern) in &patterns {
        // Pristine baseline: no fault machinery anywhere.
        let baseline = run_series(
            &topo,
            pattern,
            &[
                (
                    "UGAL-L",
                    Arc::new(TableProvider::new(topo.clone(), ugal_table.clone()))
                        as Arc<dyn PathProvider>,
                    RoutingAlgorithm::UgalL,
                ),
                (
                    "T-UGAL-L",
                    Arc::new(TableProvider::new(topo.clone(), tvlb_table.clone()))
                        as Arc<dyn PathProvider>,
                    RoutingAlgorithm::UgalL,
                ),
            ],
            &rates,
        );

        for &f in &fractions {
            let faults = if f == 0.0 {
                FaultSet::empty()
            } else {
                FaultSet::sample_global_links(&topo, f, FAULT_SEED)
            };
            let deg = topo.degrade(&faults);
            println!(
                "# {ptag} f={:.1}%: {} dead channels, {} failed cables",
                100.0 * f,
                deg.num_dead_channels(),
                faults.global_links().len()
            );
            let ugal = degraded_provider(&topo, &ugal_table, &deg, VlbRule::All, 0, "UGAL-L");
            let tvlb = degraded_provider(
                &topo,
                &tvlb_table,
                &deg,
                chosen,
                TVLB_TABLE_SEED,
                "T-UGAL-L",
            );
            let schedule = Arc::new(FaultSchedule::immediate(faults.clone()));
            let label_u = format!("{ptag} UGAL f={:.1}%", 100.0 * f);
            let label_t = format!("{ptag} T-UGAL f={:.1}%", 100.0 * f);
            let cfg = sim_config().for_routing(RoutingAlgorithm::UgalL);
            let series = run_series_cfg(
                &topo,
                pattern,
                &[
                    (label_u, ugal, RoutingAlgorithm::UgalL, cfg.clone()),
                    (label_t, tvlb, RoutingAlgorithm::UgalL, cfg),
                ],
                &rates,
                Some(schedule),
            );

            if f == 0.0 {
                // Differential anchor: the zero-failure point ran through
                // empty degraded tables plus an attached (empty) schedule
                // and must reproduce the pristine run exactly.
                for (faulted, pristine) in series.iter().zip(&baseline) {
                    for (a, b) in faulted.points.iter().zip(&pristine.points) {
                        assert_eq!(
                            a.result, b.result,
                            "{}: zero-failure run diverged from the pristine baseline",
                            faulted.label
                        );
                    }
                }
                println!("# {ptag}: zero-failure sweep matches the pristine baseline");
            } else {
                // Degraded runs must still deliver under both routings.
                for s in &series {
                    assert!(
                        s.points.iter().any(|p| p.result.delivered > 0),
                        "{}: no packets delivered on the degraded topology",
                        s.label
                    );
                }
            }

            // Coarse-grain LP throughput of the degraded topology
            // (deterministic patterns only — UR has no demand matrix).
            // Each (pattern, rule) chain warm-starts from the previous
            // fraction's basis; a fresh-cache cold solve of the same
            // instance is the bit-identity oracle.
            if let Some(demands) = pattern.demands() {
                for (tag, rule) in [("UGAL", VlbRule::All), ("T-UGAL", chosen)] {
                    let key = format!("{ptag} {tag}");
                    let chain = chains.entry(key.clone()).or_insert_with(|| Chain {
                        cache: ModelWarmCache::new(),
                        last_pivots: 0,
                        tail_warm: 0,
                        tail_cold: 0,
                    });
                    let warm = modeled_throughput_degraded_warm(
                        &topo,
                        &deg,
                        &demands,
                        rule,
                        ModelVariant::DrawProportional,
                        &mut chain.cache,
                    );
                    let mut cold_cache = ModelWarmCache::new();
                    let cold = modeled_throughput_degraded_warm(
                        &topo,
                        &deg,
                        &demands,
                        rule,
                        ModelVariant::DrawProportional,
                        &mut cold_cache,
                    );
                    match (warm, cold) {
                        (Ok(m), Ok(c)) => {
                            assert_eq!(
                                m.theta.to_bits(),
                                c.theta.to_bits(),
                                "{key} f={:.1}%: warm θ {} diverged from cold θ {}",
                                100.0 * f,
                                m.theta,
                                c.theta
                            );
                            if f == 0.0 {
                                // The chain head runs through the degraded
                                // machinery with zero faults and must
                                // reproduce the pristine model exactly.
                                let pristine = modeled_throughput(
                                    &topo,
                                    &demands,
                                    rule,
                                    ModelVariant::DrawProportional,
                                )
                                .unwrap_or_else(|e| fatal("pristine model solve", e));
                                assert_eq!(
                                    m.theta.to_bits(),
                                    pristine.to_bits(),
                                    "{key}: zero-failure model diverged from pristine"
                                );
                            } else {
                                chain.tail_warm += chain.cache.stats.pivots - chain.last_pivots;
                                chain.tail_cold += cold_cache.stats.pivots;
                            }
                            chain.last_pivots = chain.cache.stats.pivots;
                            if f == *fractions.last().unwrap() {
                                // Exact-reuse pin: re-solving the very same
                                // degraded instance through the chain must
                                // reconstruct the carried basis verbatim —
                                // zero pivots, the warm-start fast path the
                                // chain exists for.  (A cloned cache keeps
                                // the probe out of the recorded counters.)
                                let mut reuse = chain.cache.clone();
                                let again = modeled_throughput_degraded_warm(
                                    &topo,
                                    &deg,
                                    &demands,
                                    rule,
                                    ModelVariant::DrawProportional,
                                    &mut reuse,
                                )
                                .unwrap_or_else(|e| fatal("reuse model solve", e));
                                assert_eq!(
                                    again.theta.to_bits(),
                                    m.theta.to_bits(),
                                    "{key}: exact-reuse solve changed θ"
                                );
                                let extra = reuse.stats.pivots - chain.cache.stats.pivots;
                                assert_eq!(
                                    extra,
                                    0,
                                    "{key}: exact re-solve of f={:.1}% cost {extra} pivots",
                                    100.0 * f
                                );
                            }
                            println!(
                                "# model[{key} f={:.1}%]: Γ = {:.4} \
                                 ({} reachable pairs, {} unreachable)",
                                100.0 * f,
                                m.theta,
                                m.reachable_pairs,
                                m.unreachable_pairs
                            );
                        }
                        (Err(e), _) | (_, Err(e)) => {
                            println!("# model[{key} f={:.1}%]: failed ({e})", 100.0 * f)
                        }
                    }
                }
            }

            all_series.extend(series);
        }
    }

    // Warm-start acceptance: across every chain's tail the carried bases
    // must save real pivot work.  In tiny mode the fault steps kill at
    // most a cable or two, the carried basis stays near-optimal, and the
    // saving must reach ≥3×.  At full size a 2.5% fault step re-prices
    // most LP columns (every global cable serves ~2/g of all pairs' VLB
    // path sets, so a handful of deaths renormalizes nearly every
    // column): the optimum genuinely moves far, cold starts pay no phase
    // 1 on this all-`≤` family, and basis reuse cannot shortcut the
    // distance — the chain must still win strictly, and the exact-reuse
    // pin above guarantees the zero-pivot fast path on repeats.
    assert!(
        chains.values().any(|c| c.tail_cold > 0),
        "no model chain accumulated a tail: the LP model never ran"
    );
    for (key, chain) in &chains {
        let s = &chain.cache.stats;
        println!(
            "# lp[{key}]: {} solves, {} pivots ({} refactorizations), \
             warm {}/{} accepted, tail warm/cold pivots {}/{}, {:.1} ms",
            s.solves,
            s.pivots,
            s.refactorizations,
            s.warm_hits,
            s.warm_attempts,
            chain.tail_warm,
            chain.tail_cold,
            s.wall_ms
        );
        record_lp_stats(key, s);
        if tiny() {
            assert!(
                3 * chain.tail_warm <= chain.tail_cold,
                "{key}: warm chain tail spent {} pivots vs cold {} (< 3x saving)",
                chain.tail_warm,
                chain.tail_cold
            );
        } else {
            assert!(
                chain.tail_warm < chain.tail_cold,
                "{key}: warm chain tail spent {} pivots vs cold {}",
                chain.tail_warm,
                chain.tail_cold
            );
        }
    }

    print_figure(
        "fig_faults",
        "failure sweep (global-link faults), UGAL-L vs T-UGAL-L, UR + shift(1,0)",
        &all_series,
    );
}
