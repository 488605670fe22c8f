//! Step 1: coarse-grain estimation over the Table-1 configuration sweep.

use rayon::prelude::*;
use tugal_model::{modeled_throughput_multi, ModelVariant};
use tugal_routing::VlbRule;
use tugal_topology::Dragonfly;
use tugal_traffic::{type_1_set, type_2_set, TrafficPattern};

/// The data points probed in Step 1 (Table 1 of the paper): for each hop
/// limit 3..=5, the pure limit plus 10%..90% of the next class, and the
/// full set — 31 configurations.
pub fn table1_points() -> Vec<VlbRule> {
    let mut points = Vec::with_capacity(31);
    for max_hops in 3u8..=5 {
        points.push(VlbRule::ClassLimit {
            max_hops,
            frac_next: 0.0,
        });
        for pct in (10..=90).step_by(10) {
            points.push(VlbRule::ClassLimit {
                max_hops,
                frac_next: pct as f64 / 100.0,
            });
        }
    }
    points.push(VlbRule::All);
    points
}

/// Controls for the Step-1 sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Evaluate at most this many TYPE_1 (shift) patterns, evenly sampled;
    /// `None` evaluates all `(g−1)·a` of them as the paper does.  Sampling
    /// is offered because our LP solver is slower than CPLEX on the
    /// largest topologies (documented in DESIGN.md).
    pub type1_sample: Option<usize>,
    /// Number of TYPE_2 (random hierarchical permutation) patterns
    /// (the paper uses 20).
    pub type2_count: usize,
    /// Seed for TYPE_2 generation.
    pub seed: u64,
    /// Model variant to score with.
    pub variant: ModelVariant,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            type1_sample: None,
            type2_count: 20,
            seed: 0x5EE9,
            variant: ModelVariant::DrawProportional,
        }
    }
}

impl SweepConfig {
    /// A CI-speed sweep: few patterns, same structure.
    pub fn quick() -> Self {
        SweepConfig {
            type1_sample: Some(4),
            type2_count: 2,
            ..Self::default()
        }
    }
}

/// Score of one Table-1 configuration.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The configuration.
    pub rule: VlbRule,
    /// Mean modeled throughput over all evaluated patterns.
    pub mean: f64,
    /// Standard error of the mean (the error bars of Figures 4/5).
    pub sem: f64,
}

/// Runs the Step-1 sweep: the modeled throughput of every Table-1
/// configuration, averaged over the TYPE_1 and TYPE_2 adversarial suites.
pub fn coarse_grain_sweep(topo: &Dragonfly, cfg: &SweepConfig) -> Vec<SweepOutcome> {
    coarse_grain_sweep_rules(topo, cfg, &table1_points())
}

/// [`coarse_grain_sweep`] over an explicit configuration grid.  Used by
/// harnesses that probe a reduced grid on very large topologies.
pub fn coarse_grain_sweep_rules(
    topo: &Dragonfly,
    cfg: &SweepConfig,
    rules: &[VlbRule],
) -> Vec<SweepOutcome> {
    let rules = rules.to_vec();
    let mut demands: Vec<Vec<(u32, u32, u32)>> = Vec::new();
    let t1 = type_1_set(topo);
    match cfg.type1_sample {
        Some(n) if n < t1.len() => {
            let step = t1.len() / n.max(1);
            demands.extend(
                t1.iter()
                    .step_by(step.max(1))
                    .take(n)
                    .map(|p| p.demands().expect("shift patterns are deterministic")),
            );
        }
        _ => demands.extend(t1.iter().map(|p| p.demands().unwrap())),
    }
    for p in type_2_set(topo, cfg.type2_count, cfg.seed) {
        demands.push(p.demands().unwrap());
    }

    // Per pattern, score all rules at once (pair statistics are shared);
    // patterns run in parallel.
    let per_pattern: Vec<Vec<f64>> = demands
        .par_iter()
        .map(|d| {
            modeled_throughput_multi(topo, d, &rules, cfg.variant).expect("throughput model failed")
        })
        .collect();

    let n = per_pattern.len() as f64;
    rules
        .iter()
        .enumerate()
        .map(|(ri, &rule)| {
            let values: Vec<f64> = per_pattern.iter().map(|row| row[ri]).collect();
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n.max(1.0);
            SweepOutcome {
                rule,
                mean,
                sem: (var / n.max(1.0)).sqrt(),
            }
        })
        .collect()
}

/// Picks the configurations that advance to Step 2 by *region champions*:
/// for every maximum-path-length region (≤3+fraction-of-4, ≤4+fraction-of-5,
/// ≤5+fraction-of-6, all), the best-scoring configuration of that region —
/// plus "all VLB paths" itself, which Step 2 must always be able to fall
/// back to (maximal topologies).
///
/// Rationale: the modeled curve on dense topologies is multi-modal (local
/// peaks inside the 4-hop and 5-hop fraction regions — compare the paper's
/// Figure 4), and the fluid model systematically underestimates how much
/// *shorter* candidate sets gain from reduced queueing.  Advancing one
/// champion per region and deciding by the Step-2 **simulation** follows
/// the paper: its final T-VLB pick and its convergence-on-maximal claim
/// are both established by simulating the candidates.
pub fn candidate_regions(outcomes: &[SweepOutcome]) -> Vec<VlbRule> {
    let region = |rule: &VlbRule| -> u8 {
        match rule {
            VlbRule::All => 6,
            VlbRule::Strategic { .. } => 5,
            VlbRule::ClassLimit {
                max_hops,
                frac_next,
            } => {
                if *frac_next > 0.0 {
                    max_hops + 1
                } else {
                    *max_hops
                }
            }
        }
    };
    let mut champions: [Option<&SweepOutcome>; 7] = [None; 7];
    for o in outcomes {
        let r = region(&o.rule) as usize;
        if champions[r].is_none_or(|c| o.mean > c.mean) {
            champions[r] = Some(o);
        }
    }
    let mut rules: Vec<VlbRule> = champions.iter().flatten().map(|o| o.rule).collect();
    if !rules.contains(&VlbRule::All) {
        rules.push(VlbRule::All);
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_31_points_in_paper_order() {
        let points = table1_points();
        assert_eq!(points.len(), 31);
        assert_eq!(points[0].to_string(), "3-hop paths");
        assert_eq!(points[1].to_string(), "10% 4-hop");
        assert_eq!(points[10].to_string(), "4-hop paths");
        assert_eq!(points[16].to_string(), "60% 5-hop");
        assert_eq!(points[20].to_string(), "5-hop paths");
        assert_eq!(points[30].to_string(), "all VLB paths");
    }
}

#[cfg(test)]
mod region_tests {
    use super::*;

    fn o(rule: VlbRule, mean: f64) -> SweepOutcome {
        SweepOutcome {
            rule,
            mean,
            sem: 0.0,
        }
    }

    #[test]
    fn champions_one_per_region_plus_all() {
        // A double-hump curve like the measured dfly(4,8,4,17) sweep.
        let outcomes = vec![
            o(
                VlbRule::ClassLimit {
                    max_hops: 3,
                    frac_next: 0.0,
                },
                0.33,
            ),
            o(
                VlbRule::ClassLimit {
                    max_hops: 3,
                    frac_next: 0.4,
                },
                0.466,
            ), // region-4 peak
            o(
                VlbRule::ClassLimit {
                    max_hops: 4,
                    frac_next: 0.0,
                },
                0.456,
            ),
            o(
                VlbRule::ClassLimit {
                    max_hops: 4,
                    frac_next: 0.4,
                },
                0.490,
            ), // region-5 peak
            o(
                VlbRule::ClassLimit {
                    max_hops: 5,
                    frac_next: 0.0,
                },
                0.469,
            ),
            o(
                VlbRule::ClassLimit {
                    max_hops: 5,
                    frac_next: 0.9,
                },
                0.528,
            ), // region-6 peak
            o(VlbRule::All, 0.531),
        ];
        let cands = candidate_regions(&outcomes);
        assert!(cands.contains(&VlbRule::ClassLimit {
            max_hops: 3,
            frac_next: 0.4
        }));
        assert!(cands.contains(&VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.4
        }));
        assert!(cands.contains(&VlbRule::All));
        // Region 6's champion is All itself here (0.531 > 0.528).
        assert!(!cands.contains(&VlbRule::ClassLimit {
            max_hops: 5,
            frac_next: 0.9
        }));
        // Region 3's only member also advances.
        assert!(cands.contains(&VlbRule::ClassLimit {
            max_hops: 3,
            frac_next: 0.0
        }));
        assert_eq!(cands.len(), 4);
    }

    #[test]
    fn all_is_always_included() {
        // Even when some fraction of 6-hop beats the full set, Step 2 must
        // be able to fall back to conventional UGAL.
        let outcomes = vec![
            o(
                VlbRule::ClassLimit {
                    max_hops: 5,
                    frac_next: 0.5,
                },
                0.58,
            ),
            o(VlbRule::All, 0.56),
        ];
        let cands = candidate_regions(&outcomes);
        assert!(cands.contains(&VlbRule::All));
        assert!(cands.contains(&VlbRule::ClassLimit {
            max_hops: 5,
            frac_next: 0.5
        }));
    }

    #[test]
    fn monotone_curve_still_yields_small_champions() {
        // On maximal topologies the curve rises monotonically; region
        // champions are each region's largest set, and Step 2 will reject
        // them by simulation.
        let cands = candidate_regions(
            &table1_points()
                .into_iter()
                .enumerate()
                .map(|(i, rule)| o(rule, i as f64))
                .collect::<Vec<_>>(),
        );
        assert!(cands.contains(&VlbRule::All));
        assert_eq!(cands.len(), 4); // regions 4, 5, 6 champions + region 3
    }
}
