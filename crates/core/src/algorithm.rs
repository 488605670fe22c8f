//! Algorithm 1 end-to-end: compute T-VLB for any `dfly(p, a, h, g)`.

use crate::balance::{self, BalanceOptions, BalanceReport};
use crate::sweep::{candidate_regions, coarse_grain_sweep, SweepConfig, SweepOutcome};
use rayon::prelude::*;
use std::sync::Arc;
use tugal_netsim::runner::{ExperimentRunner, JobOutcome, SeriesSpec};
use tugal_netsim::{validate_resolution, Config as SimConfig, ConfigError, RoutingAlgorithm};
use tugal_routing::{PathProvider, PathTable, RuleProvider, TableProvider, VlbRule};
use tugal_topology::Dragonfly;
use tugal_traffic::{type_2_set, TrafficPattern};

/// Everything Algorithm 1 needs beyond the topology.
#[derive(Debug, Clone)]
pub struct TUgalConfig {
    /// Step-1 sweep controls.
    pub sweep: SweepConfig,
    /// Load-balance adjustment thresholds.
    pub balance: BalanceOptions,
    /// Simulator settings for the Step-2 evaluation.
    pub sim: SimConfig,
    /// Routing algorithm used to score candidates in Step 2 (the paper
    /// simulates its practical UGAL variants; UGAL-L is the default).
    pub routing: RoutingAlgorithm,
    /// Number of TYPE_2 patterns simulated in Step 2 (the paper uses 5).
    pub eval_patterns: usize,
    /// Bisection resolution for the per-candidate saturation-throughput
    /// measurement of Step 2.
    pub eval_resolution: f64,
    /// Seed for table materialization and pattern generation.
    pub seed: u64,
    /// Above this many switches, explicit tables are not materialized;
    /// candidates are evaluated through the O(1)-memory rule sampler and
    /// the balance-adjustment step is skipped (documented deviation for
    /// very large networks).
    pub max_table_switches: usize,
}

impl Default for TUgalConfig {
    fn default() -> Self {
        TUgalConfig {
            sweep: SweepConfig::default(),
            balance: BalanceOptions::default(),
            sim: SimConfig::quick(),
            routing: RoutingAlgorithm::UgalL,
            eval_patterns: 5,
            eval_resolution: 0.02,
            seed: 0x7065,
            max_table_switches: 300,
        }
    }
}

impl TUgalConfig {
    /// CI-speed settings (small sweeps, short simulations).
    pub fn quick() -> Self {
        TUgalConfig {
            sweep: SweepConfig::quick(),
            eval_patterns: 2,
            eval_resolution: 0.04,
            ..Default::default()
        }
    }

    /// Checks the Step-2 settings up front, so [`compute_tvlb`] refuses a
    /// malformed configuration before the Step-1 sweep instead of after
    /// it: the bisection resolution, the pattern count and the simulator
    /// configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_resolution(self.eval_resolution)?;
        if self.eval_patterns == 0 {
            return Err(ConfigError::EmptyPatterns);
        }
        self.sim.validate()
    }

    /// Stable 64-bit digest of the *full* configuration (FNV-1a over the
    /// `Debug` rendering, which covers every field recursively).  Disk
    /// caches of Algorithm-1 outcomes key on this so entries produced
    /// under any other sweep/balance/simulation setting — including
    /// settings from older code with different fields — can never be
    /// mistaken for the current one.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        for b in format!("{self:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// One Step-2 candidate and its simulated score.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// The configuration (strategic choices included).
    pub rule: VlbRule,
    /// Mean saturation throughput over the evaluation patterns
    /// (packets/cycle/node), located by bisection — the paper's Step-2
    /// metric.
    pub throughput: f64,
    /// Mean VLB hops of the candidate set (tie-break: shorter wins, the
    /// low-load-latency advantage the throughput metric cannot see).
    pub mean_vlb_hops: f64,
    /// What the balance adjustment did (explicit tables only).
    pub balance: Option<BalanceReport>,
}

/// Full account of an Algorithm-1 run.
#[derive(Debug, Clone)]
pub struct TUgalReport {
    /// Step-1 scores for all 31 Table-1 points.
    pub sweep: Vec<SweepOutcome>,
    /// Configurations advanced to Step 2 (after strategic expansion).
    pub candidates: Vec<VlbRule>,
    /// Step-2 simulation scores.
    pub scores: Vec<CandidateScore>,
    /// Mean VLB hops of the conventional (all paths) candidate sets.
    pub mean_hops_all: f64,
    /// Mean VLB hops of the chosen T-VLB.
    pub mean_hops_tvlb: f64,
}

/// The product of Algorithm 1.
pub struct TUgalResult {
    /// Candidate-path source implementing the chosen T-VLB; plug into the
    /// simulator (or a router) in place of the conventional provider.
    pub provider: Arc<dyn PathProvider>,
    /// The winning configuration.
    pub chosen: VlbRule,
    /// Full report (Figures 4/5 are `report.sweep`).
    pub report: TUgalReport,
}

/// The conventional-UGAL provider for a topology: an explicit all-paths
/// table for small networks, the on-the-fly sampler for large ones.
pub fn conventional_provider(
    topo: Arc<Dragonfly>,
    max_table_switches: usize,
) -> Arc<dyn PathProvider> {
    if topo.num_switches() <= max_table_switches {
        Arc::new(TableProvider::all_paths(topo))
    } else {
        Arc::new(RuleProvider::new(topo, VlbRule::All))
    }
}

/// Runs Algorithm 1 and returns the T-VLB provider plus a full report.
///
/// # Panics
///
/// If `cfg` fails [`TUgalConfig::validate`]; the check runs before any
/// work.  Also if a Step-2 probe job fails (panics, or trips a watchdog
/// armed through `cfg.sim.watchdog`), naming the probe and the failure.
pub fn compute_tvlb(topo: Arc<Dragonfly>, cfg: &TUgalConfig) -> TUgalResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid Algorithm-1 configuration: {e}");
    }

    // Step 1: coarse-grain model sweep (lines 8–12 of Algorithm 1).
    let sweep = coarse_grain_sweep(&topo, &cfg.sweep);
    let mut candidates = candidate_regions(&sweep);

    // Strategic expansion (line 13): when a fractional 5-hop point is a
    // candidate, add the two deterministic split choices.
    let has_frac5 = candidates.iter().any(|r| {
        matches!(r, VlbRule::ClassLimit { max_hops: 4, frac_next } if *frac_next > 0.0 && *frac_next < 1.0)
    });
    if has_frac5 {
        candidates.push(VlbRule::Strategic { first_seg: 2 });
        candidates.push(VlbRule::Strategic { first_seg: 3 });
    }

    // Step 2 (lines 14–21): materialize, balance-adjust, simulate.  The
    // full set is always among the candidates, so on maximal topologies —
    // where simulation confirms every subset degrades (Figure 5) — the
    // procedure converges to conventional UGAL by measurement, exactly as
    // the paper establishes it.  Candidates are independent tasks; each
    // drops its table once scored, so at most one table per worker is
    // alive, and the conventional set's mean hops are read off the `All`
    // candidate before balancing.
    let patterns: Vec<Arc<dyn TrafficPattern>> =
        type_2_set(&topo, cfg.eval_patterns, cfg.seed ^ 0xABCD)
            .into_iter()
            .map(|p| Arc::new(p) as Arc<dyn TrafficPattern>)
            .collect();
    // A failed probe comes back as an error and panics here, on the
    // caller's thread, so its message is not lost inside a worker.
    let scored: Vec<Result<(CandidateScore, Option<f64>), String>> = candidates
        .par_iter()
        .map(|&rule| {
            let built = materialize(&topo, rule, cfg);
            let score = CandidateScore {
                rule,
                throughput: evaluate(&topo, rule, &built.provider, &patterns, cfg)?,
                mean_vlb_hops: built.provider.mean_vlb_hops(),
                balance: built.balance,
            };
            Ok((score, built.all_paths_hops))
        })
        .collect();
    let scored: Vec<(CandidateScore, Option<f64>)> = scored
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("{msg}")))
        .collect();
    let mean_hops_all = scored
        .iter()
        .find_map(|(_, hops)| *hops)
        .expect("the full set is always a Step-2 candidate");
    let scores: Vec<CandidateScore> = scored.into_iter().map(|(score, _)| score).collect();

    // Highest mean saturation throughput wins; candidates within one
    // bisection step of each other are tied and the shorter set wins the
    // tie (its low-load latency advantage, which the saturation metric is
    // blind to).  Sequential on purpose: the tie makes the comparison
    // intransitive, so the scan order decides the winner.
    let eps = cfg.eval_resolution * 1.01;
    let best_idx = (0..scores.len())
        .max_by(|&a, &b| {
            let (sa, sb) = (&scores[a], &scores[b]);
            if (sa.throughput - sb.throughput).abs() <= eps {
                sb.mean_vlb_hops.total_cmp(&sa.mean_vlb_hops)
            } else {
                sa.throughput.total_cmp(&sb.throughput)
            }
        })
        .expect("at least one candidate");
    let chosen = scores[best_idx].rule;
    // Table build and balancing are deterministic, so the rebuilt winner
    // is the table that was scored.
    let provider = materialize(&topo, chosen, cfg).provider;
    let mean_hops_tvlb = provider.mean_vlb_hops();
    TUgalResult {
        provider,
        chosen,
        report: TUgalReport {
            sweep,
            candidates,
            scores,
            mean_hops_all,
            mean_hops_tvlb,
        },
    }
}

/// A Step-2 candidate ready to simulate.
pub struct Built {
    /// The candidate's path source.
    pub provider: Arc<dyn PathProvider>,
    /// What balance adjustment did (explicit tables only).
    pub balance: Option<BalanceReport>,
    /// For the `All` rule, its mean VLB hops before balance adjustment:
    /// the conventional candidate sets' mean hops.
    pub all_paths_hops: Option<f64>,
}

/// Builds `rule`'s provider: the explicit table under `cfg.seed`,
/// balance-adjusted with `cfg.balance`, up to `cfg.max_table_switches`;
/// the rule sampler above it.  Deterministic, so a caller that cached an
/// Algorithm-1 outcome rebuilds the provider that was scored.
pub fn materialize(topo: &Arc<Dragonfly>, rule: VlbRule, cfg: &TUgalConfig) -> Built {
    let all_paths = rule == VlbRule::All;
    if topo.num_switches() > cfg.max_table_switches {
        let provider = Arc::new(RuleProvider::new(topo.clone(), rule));
        return Built {
            all_paths_hops: all_paths.then(|| provider.mean_vlb_hops()),
            provider,
            balance: None,
        };
    }
    let mut table = PathTable::build_with_rule(topo, rule, cfg.seed);
    let all_paths_hops = all_paths.then(|| table.mean_vlb_hops());
    let balance = balance::adjust(&mut table, topo, &cfg.balance);
    Built {
        provider: Arc::new(TableProvider::new(topo.clone(), table)),
        balance: Some(balance),
        all_paths_hops,
    }
}

/// Simulates a candidate on the TYPE_2 patterns: mean saturation
/// throughput (one bisection per pattern, §3.3.3's "average throughput of
/// the patterns"), through one runner with one series per pattern.
fn evaluate(
    topo: &Arc<Dragonfly>,
    rule: VlbRule,
    provider: &Arc<dyn PathProvider>,
    patterns: &[Arc<dyn TrafficPattern>],
    cfg: &TUgalConfig,
) -> Result<f64, String> {
    let sim_cfg = cfg.sim.clone().for_routing(cfg.routing);
    let mut runner = ExperimentRunner::new(topo.clone());
    for (i, pattern) in patterns.iter().enumerate() {
        runner = runner.series(SeriesSpec {
            label: format!("{rule} | TYPE_2 pattern {i}"),
            provider: provider.clone(),
            pattern: pattern.clone(),
            routing: cfg.routing,
            cfg: sim_cfg.clone(),
            faults: None,
        });
    }
    let (values, _, records) = runner
        .saturation(&[cfg.seed], cfg.eval_resolution)
        .expect("validated by TUgalConfig::validate");
    if let Some(rec) = records.iter().find(|rec| rec.outcome.is_failure()) {
        let detail = match &rec.outcome {
            JobOutcome::Panicked(msg) => msg.clone(),
            other => other.stall().map(|s| s.oneline()).unwrap_or_default(),
        };
        return Err(format!(
            "Step-2 probe failed: candidate {rule}, pattern {}, rate {}, seed {}: {}: {detail}",
            rec.series,
            rec.rate,
            rec.seed,
            rec.outcome.name()
        ));
    }
    let sum = values.iter().fold(0.0, |sum, v| sum + v);
    Ok(sum / patterns.len() as f64)
}
