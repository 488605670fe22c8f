//! The throughput LP assembled from [`PairStats`].
//!
//! Solves go through the sparse revised simplex of `tugal-lp`
//! (`LinearProgram::solve_sparse`); the dense tableau solver remains
//! available as the differential oracle the test layer compares against.
//! Chained solves — rule sweeps inside [`modeled_throughput_multi`],
//! `FaultSet` superset chains, zoo lag sweeps — thread a
//! [`ModelWarmCache`] through consecutive programs: the cache stores the
//! previous optimal basis in a *model-level key space* (pairs and
//! channels rather than raw variable indices), remaps it onto the next
//! program, and accumulates [`LpStats`] counters so harnesses can report
//! pivot counts and warm-start hit rates.

use crate::stats::PairStats;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use tugal_lp::{BasisVar, LinearProgram, Relation, SolveError, WarmStart};
use tugal_routing::VlbRule;
use tugal_topology::{ChannelId, Degraded, Dragonfly, SwitchId};

/// Cumulative LP solve counters, accumulated by every solve that threads
/// a [`ModelWarmCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LpStats {
    /// LP solves performed.
    pub solves: usize,
    /// Simplex pivots across all solves.
    pub pivots: usize,
    /// Basis refactorizations across all solves.
    pub refactorizations: usize,
    /// Solves that entered with a non-empty warm basis.
    pub warm_attempts: usize,
    /// Warm attempts whose basis was accepted (no cold fallback).
    pub warm_hits: usize,
    /// Basis nonzeros summed over every LU factorization of every solve.
    pub basis_nonzeros: usize,
    /// L+U nonzeros (diagonal included) summed over the same
    /// factorizations; `lu_nonzeros / basis_nonzeros` is the fill.
    pub lu_nonzeros: usize,
    /// Wall-clock spent inside the LP solver, in milliseconds.
    pub wall_ms: f64,
}

impl LpStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &LpStats) {
        self.solves += other.solves;
        self.pivots += other.pivots;
        self.refactorizations += other.refactorizations;
        self.warm_attempts += other.warm_attempts;
        self.warm_hits += other.warm_hits;
        self.basis_nonzeros += other.basis_nonzeros;
        self.lu_nonzeros += other.lu_nonzeros;
        self.wall_ms += other.wall_ms;
    }
}

/// Identity of an LP variable across structurally-similar model solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum VarKey {
    Theta,
    Pair(u32, u32),
}

/// Identity of an LP row across structurally-similar model solves.  A
/// capacity row (which the builder deduplicates across symmetric
/// channels) is named by the lowest channel id it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RowKey {
    ThetaCap,
    Demand(u32, u32),
    Guard(u32, u32),
    Capacity(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyedBasisVar {
    Var(VarKey),
    Row(RowKey),
}

/// Warm-start carrier for chained draw-proportional model solves.
///
/// Thread one cache through a sequence of structurally-similar solves
/// (a rule sweep, a rate sweep, a `FaultSet` superset chain): each solve
/// seeds the simplex with the previous optimal basis — translated through
/// stable pair/channel keys, so renumbered variables and dropped columns
/// remap or fall away cleanly — and updates [`ModelWarmCache::stats`].
/// Warm starting never changes the optimum (a rejected basis falls back
/// to a cold start); it only cuts the pivot count.
#[derive(Debug, Clone, Default)]
pub struct ModelWarmCache {
    entries: Vec<KeyedBasisVar>,
    /// Cumulative solve counters across the chained solves.
    pub stats: LpStats,
}

impl ModelWarmCache {
    /// Empty cache: the first solve through it is cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached basis (counters survive); the next solve is cold.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Which reconstruction of the UGAL allocation behaviour to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelVariant {
    /// VLB traffic of a pair spreads uniformly over its candidate set —
    /// UGAL's single uniform candidate draw at saturation.  Default.
    ///
    /// Because the allocation is *forced* (not free), this variant is not
    /// superset-monotone, and on dense topologies it reproduces Figure 4's
    /// arc: a steep rise, a local peak in the 40–60% 5-hop region, a dip
    /// around "5-hop paths", and ~0.56 at "all VLB paths" — all within a
    /// ~1% band at the top, so Algorithm 1 still defers the final pick
    /// among near-tied candidates to the Step-2 simulation (see
    /// DESIGN.md §4).
    DrawProportional,
    /// Per-class VLB rates are free subject to the paper's monotonicity
    /// modification (per-path rate of a longer class never exceeds that of
    /// a shorter class).  Ablation variant: being a relaxation it can only
    /// score higher, and it cannot penalize oversized candidate sets.
    MonotoneClasses,
}

/// Model failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The pattern has no demands (nothing to route).
    EmptyPattern,
    /// The underlying LP failed (numerical trouble).
    Lp(SolveError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::EmptyPattern => write!(f, "pattern has no demands"),
            ModelError::Lp(e) => write!(f, "LP solve failed: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Weight of each (seg1, seg2) combination under a rule: the fraction of
/// that combination's realizations that are candidates.
fn combo_weights(rule: VlbRule, stats: &PairStats) -> [[f64; 4]; 4] {
    let mut w = [[0.0; 4]; 4];
    for c1 in 1..=3usize {
        for c2 in 1..=3usize {
            let hops = c1 + c2;
            w[c1][c2] = match rule {
                VlbRule::All => 1.0,
                VlbRule::ClassLimit {
                    max_hops,
                    frac_next,
                } => {
                    if hops <= max_hops as usize {
                        1.0
                    } else if hops == max_hops as usize + 1 {
                        frac_next
                    } else {
                        0.0
                    }
                }
                VlbRule::Strategic { first_seg } => {
                    let keep = hops <= 4 || (hops == 5 && c1 == first_seg as usize);
                    if keep {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
        }
    }
    // Mirror the path-table fallback: if the rule empties the pair, keep
    // the shortest non-empty class.
    let total: f64 = (1..=3)
        .flat_map(|c1| (1..=3).map(move |c2| (c1, c2)))
        .map(|(c1, c2)| w[c1][c2] * stats.combo_count[c1][c2])
        .sum();
    if total <= 0.0 {
        'outer: for hops in 2..=6 {
            for c1 in 1..=3usize {
                let c2 = hops as isize - c1 as isize;
                if (1..=3).contains(&c2) && stats.combo_count[c1][c2 as usize] > 0.0 {
                    w[c1][c2 as usize] = 1.0;
                }
            }
            if (1..=3)
                .flat_map(|c1| (1..=3).map(move |c2| (c1, c2)))
                .any(|(c1, c2)| w[c1][c2] > 0.0 && stats.combo_count[c1][c2] > 0.0)
            {
                break 'outer;
            }
        }
    }
    w
}

/// Modeled saturation throughput (flits/cycle/node) of `pattern_demands`
/// under the given candidate rule.
///
/// `pattern_demands` are switch-level `(src, dst, node_flows)` triples as
/// produced by `tugal_traffic::TrafficPattern::demands`.
pub fn modeled_throughput(
    topo: &Dragonfly,
    pattern_demands: &[(u32, u32, u32)],
    rule: VlbRule,
    variant: ModelVariant,
) -> Result<f64, ModelError> {
    modeled_throughput_multi(topo, pattern_demands, &[rule], variant).map(|v| v[0])
}

/// [`modeled_throughput`] with warm-start chaining: the solve seeds the
/// simplex from `cache` (when it holds a basis) and leaves its own optimal
/// basis behind for the next structurally-similar solve, accumulating
/// [`LpStats`] either way.  Returns exactly what a cold
/// [`modeled_throughput`] returns — warm starting only cuts pivots.
pub fn modeled_throughput_warm(
    topo: &Dragonfly,
    pattern_demands: &[(u32, u32, u32)],
    rule: VlbRule,
    variant: ModelVariant,
    cache: &mut ModelWarmCache,
) -> Result<f64, ModelError> {
    if pattern_demands.is_empty() {
        return Err(ModelError::EmptyPattern);
    }
    let stats: Vec<PairStats> = pattern_demands
        .par_iter()
        .map(|&(s, d, _)| PairStats::compute(topo, SwitchId(s), SwitchId(d)))
        .collect();
    solve_one(topo, pattern_demands, &stats, rule, variant, Some(cache))
}

/// [`modeled_throughput`] for several rules at once, computing the per-pair
/// statistics (the expensive part) only once and warm-starting each rule's
/// solve from the previous one's basis (the programs share their variables
/// and most rows, so the chain skips phase 1 and most pivots).
pub fn modeled_throughput_multi(
    topo: &Dragonfly,
    pattern_demands: &[(u32, u32, u32)],
    rules: &[VlbRule],
    variant: ModelVariant,
) -> Result<Vec<f64>, ModelError> {
    if pattern_demands.is_empty() {
        return Err(ModelError::EmptyPattern);
    }
    let stats: Vec<PairStats> = pattern_demands
        .par_iter()
        .map(|&(s, d, _)| PairStats::compute(topo, SwitchId(s), SwitchId(d)))
        .collect();
    let mut cache = ModelWarmCache::new();
    rules
        .iter()
        .map(|&rule| {
            solve_one(
                topo,
                pattern_demands,
                &stats,
                rule,
                variant,
                Some(&mut cache),
            )
        })
        .collect()
}

/// Outcome of a degraded-topology throughput solve: the modeled saturation
/// rate of the pairs that remain reachable, plus accounting of the pairs
/// the failures disconnected.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedThroughput {
    /// Modeled saturation throughput (flits/cycle/node) over the reachable
    /// pairs.
    pub theta: f64,
    /// Demand pairs left without any surviving candidate path (excluded
    /// from the LP — the simulator drops their packets).
    pub unreachable_pairs: usize,
    /// Demand pairs that kept at least one surviving candidate.
    pub reachable_pairs: usize,
}

/// [`modeled_throughput`] on a degraded view of the topology: per-pair
/// statistics count only surviving candidates ([`PairStats::compute_degraded`]),
/// disconnected pairs are excluded (and reported), and a pair whose MIN
/// candidates all died has its MIN rate pinned to zero so the optimizer
/// cannot credit it with phantom minimal capacity.
///
/// With a pristine `deg` (no failures) this reduces exactly to
/// [`modeled_throughput`]: the statistics are identical, no pair is
/// excluded, and no guard row is added.
pub fn modeled_throughput_degraded(
    topo: &Dragonfly,
    deg: &Degraded,
    pattern_demands: &[(u32, u32, u32)],
    rule: VlbRule,
    variant: ModelVariant,
) -> Result<DegradedThroughput, ModelError> {
    modeled_throughput_degraded_impl(topo, deg, pattern_demands, rule, variant, None)
}

/// [`modeled_throughput_degraded`] with warm-start chaining through
/// `cache` — built for `FaultSet` superset chains, where consecutive
/// solves differ only in the few pairs/rows the newly-dead channels
/// touched.  Basis members naming dropped pairs or vanished capacity rows
/// fall away in the remap and the factorization repairs the holes, so the
/// result is identical to the cold solve.
pub fn modeled_throughput_degraded_warm(
    topo: &Dragonfly,
    deg: &Degraded,
    pattern_demands: &[(u32, u32, u32)],
    rule: VlbRule,
    variant: ModelVariant,
    cache: &mut ModelWarmCache,
) -> Result<DegradedThroughput, ModelError> {
    modeled_throughput_degraded_impl(topo, deg, pattern_demands, rule, variant, Some(cache))
}

fn modeled_throughput_degraded_impl(
    topo: &Dragonfly,
    deg: &Degraded,
    pattern_demands: &[(u32, u32, u32)],
    rule: VlbRule,
    variant: ModelVariant,
    warm: Option<&mut ModelWarmCache>,
) -> Result<DegradedThroughput, ModelError> {
    if pattern_demands.is_empty() {
        return Err(ModelError::EmptyPattern);
    }
    let stats: Vec<PairStats> = pattern_demands
        .par_iter()
        .map(|&(s, d, _)| PairStats::compute_degraded(topo, deg, SwitchId(s), SwitchId(d)))
        .collect();
    // Pairs whose entire candidate set died cannot constrain θ; the
    // simulator counts their packets as drops, and the model mirrors that
    // by solving over the survivors only.
    let mut demands = Vec::new();
    let mut kept = Vec::new();
    for (&dm, st) in pattern_demands.iter().zip(&stats) {
        if st.min_count == 0.0 && st.total_count() == 0.0 {
            continue;
        }
        demands.push(dm);
        kept.push(st.clone());
    }
    let unreachable_pairs = pattern_demands.len() - demands.len();
    if demands.is_empty() {
        return Ok(DegradedThroughput {
            theta: 0.0,
            unreachable_pairs,
            reachable_pairs: 0,
        });
    }
    let theta = solve_one(topo, &demands, &kept, rule, variant, warm)?;
    Ok(DegradedThroughput {
        theta,
        unreachable_pairs,
        reachable_pairs: demands.len(),
    })
}

fn solve_one(
    topo: &Dragonfly,
    demands: &[(u32, u32, u32)],
    stats: &[PairStats],
    rule: VlbRule,
    variant: ModelVariant,
    warm: Option<&mut ModelWarmCache>,
) -> Result<f64, ModelError> {
    match variant {
        ModelVariant::DrawProportional => {
            solve_draw_proportional_full(topo, demands, stats, rule, None, None, warm)
        }
        ModelVariant::MonotoneClasses => solve_monotone(topo, demands, stats, rule, warm),
    }
}

/// Primal-side view of a draw-proportional solve, for validation and
/// diagnostics: the optimum, the per-pair MIN rates, and the load *every*
/// used channel carries under the solved allocation — including channels
/// whose capacity rows were pruned as provably redundant, so a feasibility
/// check over this view also validates the pruning.
#[derive(Debug, Clone)]
pub struct ModelPrimal {
    /// Modeled saturation throughput (flits/cycle/node).
    pub theta: f64,
    /// Per demand pair (in input order): the solved MIN rate `m`; the
    /// pair's VLB rate is `θ·d − m`.
    pub min_rates: Vec<f64>,
    /// `(channel, load)` under the solved rates, for every channel any
    /// candidate path touches.  Capacities are 1 (plus the documented
    /// `≤ 1e-4` anti-degeneracy jitter), so feasibility means every load
    /// is below ~1.0002.
    pub channel_load: Vec<(ChannelId, f64)>,
}

/// [`modeled_throughput`] (draw-proportional variant) returning the primal
/// solution alongside `θ` — see [`ModelPrimal`].
pub fn modeled_primal(
    topo: &Dragonfly,
    pattern_demands: &[(u32, u32, u32)],
    rule: VlbRule,
) -> Result<ModelPrimal, ModelError> {
    if pattern_demands.is_empty() {
        return Err(ModelError::EmptyPattern);
    }
    let stats: Vec<PairStats> = pattern_demands
        .par_iter()
        .map(|&(s, d, _)| PairStats::compute(topo, SwitchId(s), SwitchId(d)))
        .collect();
    let mut primal = ModelPrimal {
        theta: 0.0,
        min_rates: Vec::new(),
        channel_load: Vec::new(),
    };
    let theta = solve_draw_proportional_full(
        topo,
        pattern_demands,
        &stats,
        rule,
        None,
        Some(&mut primal),
        None,
    )?;
    primal.theta = theta;
    Ok(primal)
}

/// The draw-proportional path-rate [`LinearProgram`] that
/// [`modeled_primal`] solves, exposed (unsolved) for the dense-vs-sparse
/// differential test layer in `tugal-lp`.
pub fn modeled_primal_lp(
    topo: &Dragonfly,
    pattern_demands: &[(u32, u32, u32)],
    rule: VlbRule,
) -> Result<LinearProgram, ModelError> {
    if pattern_demands.is_empty() {
        return Err(ModelError::EmptyPattern);
    }
    let stats: Vec<PairStats> = pattern_demands
        .par_iter()
        .map(|&(s, d, _)| PairStats::compute(topo, SwitchId(s), SwitchId(d)))
        .collect();
    Ok(build_draw_proportional(pattern_demands, &stats, rule, false).lp)
}

/// Modeled throughput plus the *bottleneck channels*: the capacity rows
/// with positive shadow price at the optimum, sorted by how much an extra
/// unit of their capacity would raise `θ`.  Draw-proportional variant
/// only.  For an adversarial shift these are the saturated global links.
pub fn modeled_bottlenecks(
    topo: &Dragonfly,
    pattern_demands: &[(u32, u32, u32)],
    rule: VlbRule,
) -> Result<(f64, Vec<(ChannelId, f64)>), ModelError> {
    if pattern_demands.is_empty() {
        return Err(ModelError::EmptyPattern);
    }
    let stats: Vec<PairStats> = pattern_demands
        .par_iter()
        .map(|&(s, d, _)| PairStats::compute(topo, SwitchId(s), SwitchId(d)))
        .collect();
    let mut hot = Vec::new();
    let theta = solve_draw_proportional_full(
        topo,
        pattern_demands,
        &stats,
        rule,
        Some(&mut hot),
        None,
        None,
    )?;
    Ok((theta, hot))
}

/// Per-channel usage rows and θ loads before capacity-row pruning,
/// indexed by channel id: a channel is used when its row has a rate term
/// or a θ term has landed on it (`theta` is `Some`, even if the terms
/// cancel).
#[derive(Clone, Default)]
struct ChannelUsage {
    rows: Vec<Vec<(tugal_lp::VarId, f64)>>,
    theta: Vec<Option<f64>>,
}

impl ChannelUsage {
    /// Accumulates a rate term and a θ coefficient into `chan`'s row.
    fn add(&mut self, chan: ChannelId, var: Option<(tugal_lp::VarId, f64)>, theta_coef: f64) {
        let ch = chan.0 as usize;
        if ch >= self.rows.len() {
            self.rows.resize_with(ch + 1, Vec::new);
            self.theta.resize(ch + 1, None);
        }
        if let Some((v, c)) = var {
            if c != 0.0 {
                self.rows[ch].push((v, c));
            }
        }
        if theta_coef != 0.0 {
            *self.theta[ch].get_or_insert(0.0) += theta_coef;
        }
    }

    /// The used channels, ascending.
    fn channels(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows.len()).filter(|&ch| !self.rows[ch].is_empty() || self.theta[ch].is_some())
    }
}

/// The assembled draw-proportional LP plus the metadata the solve layer
/// needs: variable handles, the stable pair/channel keys of every
/// variable and row (for warm-start remapping), the capacity-row ↔
/// channel map (for duals) and — on request — the full pre-pruning usage
/// maps (for the primal view).
struct DrawBuild {
    lp: LinearProgram,
    theta: tugal_lp::VarId,
    m_vars: Vec<tugal_lp::VarId>,
    var_keys: Vec<VarKey>,
    row_keys: Vec<RowKey>,
    row_channels: Vec<(usize, u32)>,
    full_usage: Option<ChannelUsage>,
}

/// Builds the draw-proportional LP:
///
/// * variables: `θ` and per pair the MIN rate `m` (VLB rate is
///   `θ·d − m`),
/// * per pair: `m ≤ θ·d`,
/// * per channel: `Σ m·(pmin − pvlb) + θ·Σ d·pvlb ≤ 1`,
/// * `θ ≤ 1`; maximize `θ`.
fn build_draw_proportional(
    demands: &[(u32, u32, u32)],
    stats: &[PairStats],
    rule: VlbRule,
    keep_usage: bool,
) -> DrawBuild {
    let mut lp = LinearProgram::new();
    let theta = lp.add_var(1.0);
    let mut var_keys = vec![VarKey::Theta];
    let mut row_keys = vec![RowKey::ThetaCap];
    lp.add_constraint(&[(theta, 1.0)], Relation::Le, 1.0);

    let mut usage = ChannelUsage::default();

    let mut m_vars = Vec::with_capacity(demands.len());
    for (&(src, dst, flows), st) in demands.iter().zip(stats) {
        let d = flows as f64;
        // The m objective gets a deterministic negative micro-cost
        // (about 1e-7, far below any θ trade-off): with `maximize θ`
        // alone the optimal m-face is massively degenerate, and warm and
        // cold pivot paths could stop at different vertices of it.  The
        // perturbation makes the optimal *vertex* unique, which —
        // combined with the sparse solver's canonical final
        // refactorization and its sub-tolerance polish pass — is what
        // makes warm-started θ values bit-identical to cold ones.  The
        // full 53-bit hash goes into the mantissa so no two pairs ever
        // collide on the same micro-cost (symmetric patterns produce
        // interchangeable columns, where an exact cost tie would revive
        // the alternate optima).
        // Keyed by the *pair identity*, never a positional index: fault
        // chains drop unreachable pairs from the list, and an index-keyed
        // perturbation would reshuffle the micro-costs of every pair
        // behind the gap, moving the perturbed optimum globally and
        // destroying the locality that warm starts rely on.
        let pk = ((src as u64) << 32) | dst as u64;
        let hc = (pk ^ 0xA5A5_5A5A_1234_5678)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
            .wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let u = (hc >> 11) as f64 / (1u64 << 53) as f64;
        let m = lp.add_var(-1e-7 * (0.5 + 0.5 * u));
        m_vars.push(m);
        var_keys.push(VarKey::Pair(src, dst));
        // Tiny positive rhs perturbation keeps the origin vertex
        // non-degenerate (see `add_capacity_rows`); same stable keying,
        // with the full mantissa so no two demand rows ever tie exactly.
        let h = pk
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .rotate_left(23)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let hu = (h >> 11) as f64 / (1u64 << 53) as f64;
        lp.add_constraint(
            &[(m, 1.0), (theta, -d)],
            Relation::Le,
            1e-5 * (0.5 + 0.5 * hu),
        );
        row_keys.push(RowKey::Demand(src, dst));

        let w = combo_weights(rule, st);
        let n_vlb: f64 = (1..=3)
            .flat_map(|c1| (1..=3).map(move |c2| (c1, c2)))
            .map(|(c1, c2)| w[c1][c2] * st.combo_count[c1][c2])
            .sum();

        // A pair with no surviving MIN candidate (degraded topologies
        // only — pristine pairs always have one) must not carry a MIN
        // rate: its `m` has no usage rows, so leaving it free would let
        // the optimizer subtract VLB load without paying for it anywhere.
        if st.min_count == 0.0 {
            lp.add_constraint(&[(m, 1.0)], Relation::Le, 0.0);
            row_keys.push(RowKey::Guard(src, dst));
        }

        // MIN usage: rate m spread over the MIN candidates.
        for &(ch, u) in &st.min_usage {
            let pmin = u / st.min_count;
            usage.add(ch, Some((m, pmin)), 0.0);
        }
        // VLB usage: rate (θ·d − m) spread draw-proportionally.
        if n_vlb > 0.0 {
            for c1 in 1..=3usize {
                for c2 in 1..=3usize {
                    let weight = w[c1][c2];
                    if weight == 0.0 {
                        continue;
                    }
                    for &(ch, u) in &st.combo_usage[c1][c2] {
                        let pv = weight * u / n_vlb;
                        usage.add(ch, Some((m, -pv)), d * pv);
                    }
                }
            }
        } else {
            // No VLB candidates at all: everything rides MIN.
            for &(ch, u) in &st.min_usage {
                let pmin = u / st.min_count;
                usage.add(ch, Some((m, -pmin)), d * pmin);
            }
        }
    }

    let demand_bound = demands
        .iter()
        .map(|&(_, _, f)| f as f64)
        .fold(0.0, f64::max);
    // Keep the full usage map around when the caller wants the primal
    // loads: capacity-row assembly prunes and deduplicates, but the primal
    // view reports every used channel.
    let full_usage = keep_usage.then(|| usage.clone());
    let row_channels = add_capacity_rows(&mut lp, theta, usage, demand_bound);
    for &(_, ch) in &row_channels {
        row_keys.push(RowKey::Capacity(ch));
    }
    debug_assert_eq!(row_keys.len(), lp.num_constraints());
    lp.set_max_iterations(400_000);
    DrawBuild {
        lp,
        theta,
        m_vars,
        var_keys,
        row_keys,
        row_channels,
        full_usage,
    }
}

/// Translates a cached model-keyed basis onto this build's numbering;
/// `None` when nothing survives the remap (solve cold).
fn warm_start_for(cache: &ModelWarmCache, build: &DrawBuild) -> Option<WarmStart> {
    if cache.entries.is_empty() {
        return None;
    }
    let var_index: HashMap<VarKey, usize> = build
        .var_keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    let row_index: HashMap<RowKey, usize> = build
        .row_keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    let ws = WarmStart::from_entries(
        cache
            .entries
            .iter()
            .filter_map(|e| match e {
                KeyedBasisVar::Var(k) => var_index.get(k).map(|&i| BasisVar::Structural(i)),
                KeyedBasisVar::Row(k) => row_index.get(k).map(|&i| BasisVar::Row(i)),
            })
            .collect(),
    );
    (!ws.is_empty()).then_some(ws)
}

/// Solves a [`DrawBuild`] through the sparse simplex, optionally seeded
/// from — and recorded back into — a [`ModelWarmCache`].
fn solve_build(
    build: &DrawBuild,
    warm: Option<&mut ModelWarmCache>,
) -> Result<tugal_lp::SparseSolution, ModelError> {
    let started = Instant::now();
    let ws = warm.as_ref().and_then(|cache| warm_start_for(cache, build));
    let sol = match &ws {
        Some(w) => build.lp.solve_sparse_warm(w),
        None => build.lp.solve_sparse(),
    }
    .map_err(ModelError::Lp)?;
    if let Some(cache) = warm {
        cache.stats.solves += 1;
        cache.stats.pivots += sol.pivots;
        cache.stats.refactorizations += sol.refactorizations;
        cache.stats.basis_nonzeros += sol.basis_nonzeros;
        cache.stats.lu_nonzeros += sol.lu_nonzeros;
        if ws.is_some() {
            cache.stats.warm_attempts += 1;
            if sol.warm_used {
                cache.stats.warm_hits += 1;
            }
        }
        cache.stats.wall_ms += started.elapsed().as_secs_f64() * 1e3;
        cache.entries = sol
            .warm_start()
            .entries()
            .iter()
            .map(|&b| match b {
                BasisVar::Structural(i) => KeyedBasisVar::Var(build.var_keys[i]),
                BasisVar::Row(r) => KeyedBasisVar::Row(build.row_keys[r]),
            })
            .collect();
    }
    Ok(sol)
}

fn solve_draw_proportional_full(
    _topo: &Dragonfly,
    demands: &[(u32, u32, u32)],
    stats: &[PairStats],
    rule: VlbRule,
    bottlenecks_out: Option<&mut Vec<(ChannelId, f64)>>,
    primal_out: Option<&mut ModelPrimal>,
    warm: Option<&mut ModelWarmCache>,
) -> Result<f64, ModelError> {
    let build = build_draw_proportional(demands, stats, rule, primal_out.is_some());
    let sol = solve_build(&build, warm)?;
    let theta = build.theta;
    if let Some(out) = primal_out {
        let usage = build.full_usage.as_ref().expect("usage kept for primal");
        out.min_rates = build.m_vars.iter().map(|&m| sol.value(m)).collect();
        out.channel_load = usage
            .channels()
            .map(|ch| {
                let mut load = usage.theta[ch].unwrap_or(0.0) * sol.value(theta);
                for &(v, c) in &usage.rows[ch] {
                    load += c * sol.value(v);
                }
                (ChannelId(ch as u32), load)
            })
            .collect();
    }
    if let Some(out) = bottlenecks_out {
        let mut hot: Vec<(ChannelId, f64)> = build
            .row_channels
            .iter()
            .filter_map(|&(row, ch)| {
                let y = sol.duals()[row];
                // Threshold sits above the 1e-7 tie-breaking perturbation on
                // the m-var costs (see `build_draw_proportional`), which
                // shows up in the duals of non-binding rows; genuinely
                // binding capacity rows carry shadow prices of order 1/θ.
                (y > 1e-6).then_some((ChannelId(ch), y))
            })
            .collect();
        hot.sort_by(|a, b| b.1.total_cmp(&a.1));
        *out = hot;
    }
    Ok(sol.value(theta))
}

/// The monotone-classes ablation variant: per pair, per hop class `c`, a
/// free rate `v_c ≥ 0` with `Σ v_c ≤ θ·d` (MIN takes the rest) and
/// per-path monotonicity between consecutive classes.
fn solve_monotone(
    _topo: &Dragonfly,
    demands: &[(u32, u32, u32)],
    stats: &[PairStats],
    rule: VlbRule,
    warm: Option<&mut ModelWarmCache>,
) -> Result<f64, ModelError> {
    let mut lp = LinearProgram::new();
    let theta = lp.add_var(1.0);
    lp.add_constraint(&[(theta, 1.0)], Relation::Le, 1.0);

    let mut usage = ChannelUsage::default();

    for (&(_, _, flows), st) in demands.iter().zip(stats) {
        let d = flows as f64;
        let w = combo_weights(rule, st);

        // Effective class counts and usages under the rule.
        let mut class_n = [0.0f64; 7];
        let mut class_usage: [HashMap<u32, f64>; 7] = Default::default();
        for c1 in 1..=3usize {
            for c2 in 1..=3usize {
                let weight = w[c1][c2];
                if weight == 0.0 {
                    continue;
                }
                let h = c1 + c2;
                class_n[h] += weight * st.combo_count[c1][c2];
                for &(ch, u) in &st.combo_usage[c1][c2] {
                    *class_usage[h].entry(ch.0).or_default() += weight * u;
                }
            }
        }

        let classes: Vec<usize> = (2..=6).filter(|&h| class_n[h] > 0.0).collect();
        let vs: Vec<tugal_lp::VarId> = classes.iter().map(|_| lp.add_var(0.0)).collect();

        // Σ v_c ≤ θ·d.
        let mut terms: Vec<(tugal_lp::VarId, f64)> = vs.iter().map(|&v| (v, 1.0)).collect();
        terms.push((theta, -d));
        lp.add_constraint(&terms, Relation::Le, 0.0);

        // No surviving MIN candidate (degraded topologies only): the
        // residual θ·d − Σ v_c would ride nothing, so force the VLB rates
        // to carry the whole demand (Σ v_c ≥ θ·d, i.e. equality).
        if st.min_count == 0.0 {
            let mut lb: Vec<(tugal_lp::VarId, f64)> = vs.iter().map(|&v| (v, -1.0)).collect();
            lb.push((theta, d));
            lp.add_constraint(&lb, Relation::Le, 0.0);
        }

        // Monotonicity between consecutive present classes.
        for k in 1..classes.len() {
            let (short, long) = (classes[k - 1], classes[k]);
            lp.add_constraint(
                &[
                    (vs[k], 1.0 / class_n[long]),
                    (vs[k - 1], -1.0 / class_n[short]),
                ],
                Relation::Le,
                0.0,
            );
        }

        // MIN usage for rate (θ·d − Σ v_c).
        for &(ch, u) in &st.min_usage {
            let pmin = u / st.min_count;
            usage.add(ch, None, d * pmin);
            for &v in &vs {
                usage.add(ch, Some((v, -pmin)), 0.0);
            }
        }
        // Per-class VLB usage.
        for (k, &h) in classes.iter().enumerate() {
            for (&ch, &u) in &class_usage[h] {
                let p = u / class_n[h];
                usage.add(ChannelId(ch), Some((vs[k], p)), 0.0);
            }
        }
    }

    let demand_bound = demands
        .iter()
        .map(|&(_, _, f)| f as f64)
        .fold(0.0, f64::max);
    let _ = add_capacity_rows(&mut lp, theta, usage, demand_bound);
    lp.set_max_iterations(400_000);
    // The monotone ablation shares no variable key space with the
    // draw-proportional programs, so it always solves cold; it still
    // contributes to the chain's counters, and it invalidates any cached
    // basis so a following draw-proportional solve does not inherit a
    // foreign one.
    let started = Instant::now();
    let sol = lp.solve_sparse().map_err(ModelError::Lp)?;
    if let Some(cache) = warm {
        cache.stats.solves += 1;
        cache.stats.pivots += sol.pivots;
        cache.stats.refactorizations += sol.refactorizations;
        cache.stats.basis_nonzeros += sol.basis_nonzeros;
        cache.stats.lu_nonzeros += sol.lu_nonzeros;
        cache.stats.wall_ms += started.elapsed().as_secs_f64() * 1e3;
        cache.clear();
    }
    Ok(sol.value(theta))
}

/// Adds one capacity row per channel, deduplicating identical rows (the
/// symmetric topology produces many) and dropping rows that cannot bind
/// given that every rate variable is at most `demand_bound` and `θ ≤ 1`.
fn add_capacity_rows(
    lp: &mut LinearProgram,
    theta: tugal_lp::VarId,
    mut usage: ChannelUsage,
    demand_bound: f64,
) -> Vec<(usize, u32)> {
    let mut row_channels = Vec::new();
    let mut seen: HashSet<Vec<(usize, u64)>> = HashSet::new();
    for ch in 0..usage.rows.len() {
        let terms = &mut usage.rows[ch];
        let mut merged: Vec<(tugal_lp::VarId, f64)> = Vec::new();
        terms.sort_unstable_by_key(|&(v, _)| v.0);
        for &(v, c) in terms.iter() {
            match merged.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => merged.push((v, c)),
            }
        }
        if let Some(tl) = usage.theta[ch] {
            if tl != 0.0 {
                merged.push((theta, tl));
            }
        }
        merged.retain(|&(_, c)| c.abs() > 1e-12);
        if merged.is_empty() {
            continue;
        }
        // Prefilter rows that can never bind: every variable (θ and the
        // per-pair rates, all bounded by the demand) is at most its demand,
        // and θ ≤ 1, so an upper bound on the row's lhs below the capacity
        // of 1 makes the row redundant.  `m ≤ θ·d ≤ d` and the per-class
        // rates are likewise ≤ d; using |coef|·d as the bound is safe.
        // The θ coefficient is bounded by θ ≤ 1.  Demands enter the row
        // coefficients already scaled, so a conservative per-var bound of
        // `demand_max` is applied by the caller through the coefficients
        // themselves; here variables are bounded by the largest demand any
        // pattern uses, which the builders encode by keeping coefficients
        // multiplied by d only on the θ term.  A simple sound bound:
        // Σ max(coef, 0) · d_max + max(θcoef, 0).
        //
        // (Rows dropped here are exactly the lightly-used local channels
        // far from any hot spot; dropping them cuts the tableau several-
        // fold on large topologies.)
        let theta_coef = merged
            .iter()
            .find(|&&(v, _)| v == theta)
            .map(|&(_, c)| c)
            .unwrap_or(0.0);
        let var_bound: f64 = merged
            .iter()
            .filter(|&&(v, _)| v != theta)
            .map(|&(_, c)| c.max(0.0) * demand_bound)
            .sum();
        if var_bound + theta_coef.max(0.0) < 0.999 {
            continue;
        }
        let key: Vec<(usize, u64)> = merged
            .iter()
            .map(|&(v, c)| (v.0, (c * 1e12).round() as i64 as u64))
            .collect();
        if seen.insert(key) {
            // Deterministic micro-perturbation of the rhs breaks the heavy
            // degeneracy of the symmetric topology (many channel rows would
            // otherwise tie in every ratio test, stalling the simplex).
            // The induced throughput error is below 1e-6 — far inside the
            // model's own accuracy.  Keyed by the stable channel id, NOT a
            // row counter: under a fault chain, dead channels drop rows,
            // and a counter-keyed jitter would hand every surviving row a
            // fresh rhs, shifting the perturbed optimum on the entire
            // network and costing warm starts their locality.  The full
            // mantissa (rather than a coarse lattice) keeps any two rows
            // from colliding on the same jitter, which would revive the
            // degenerate ratio-test ties this exists to break.
            let h = ((ch as u64) ^ 0xCAB1_E0F5_ECAB_1E05)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            let hu = (h >> 11) as f64 / (1u64 << 53) as f64;
            let rhs = 1.0 + 1e-4 * (0.5 + 0.5 * hu);
            row_channels.push((lp.num_constraints(), ch as u32));
            lp.add_constraint(&merged, Relation::Le, rhs);
        }
    }
    row_channels
}
