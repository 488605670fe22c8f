//! Explicit per-switch-pair path tables.

use crate::enumerate::{
    all_vlb_paths_degraded, min_paths, min_paths_degraded, path_alive, split_lengths,
    vlb_paths_into, VlbBuffers,
};
use crate::path::Path;
use crate::rule::VlbRule;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use tugal_topology::{Degraded, Dragonfly, SwitchId};

/// The candidate paths of one (source switch, destination switch) pair.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct PairPaths {
    /// MIN candidates (one per global link between the endpoint groups).
    pub min: Vec<Path>,
    /// VLB candidates — all of them for conventional UGAL, a topology-custom
    /// subset (T-VLB) for T-UGAL.
    pub vlb: Vec<Path>,
}

/// Summary of how a fault set reshaped a [`PathTable`], produced by
/// [`PathTable::degrade`].
///
/// "Unreachable" counts ordered pairs left with *no* candidate of either
/// kind — including pairs whose endpoint switch died (those can never be
/// served and the simulator drops their traffic at injection).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReachabilityReport {
    /// Ordered switch pairs examined (`n·(n-1)`).
    pub pairs: usize,
    /// MIN candidates removed because a hop died.
    pub removed_min: usize,
    /// VLB candidates removed because a hop died.
    pub removed_vlb: usize,
    /// Pairs whose emptied VLB set was refilled from the degraded
    /// enumeration (T-VLB regeneration).
    pub regenerated_pairs: usize,
    /// Pairs left with no MIN candidate.
    pub pairs_without_min: usize,
    /// Pairs left with no VLB candidate (after regeneration).
    pub pairs_without_vlb: usize,
    /// Pairs left with no candidate at all.
    pub unreachable_pairs: usize,
}

/// Applies `rule` to one pair's VLB set; `pair_idx` must be the pair's
/// row-major index so the per-pair RNG stream matches
/// [`PathTable::apply_rule`].
fn apply_rule_pair(
    topo: &Dragonfly,
    pp: &mut PairPaths,
    rule: VlbRule,
    seed: u64,
    pair_idx: usize,
) {
    match rule {
        VlbRule::All => {}
        VlbRule::ClassLimit {
            max_hops,
            frac_next,
        } => {
            let mut keep: Vec<Path> = Vec::with_capacity(pp.vlb.len());
            let mut next: Vec<Path> = Vec::new();
            for &p in &pp.vlb {
                if p.hops() <= max_hops as usize {
                    keep.push(p);
                } else if p.hops() == max_hops as usize + 1 {
                    next.push(p);
                }
            }
            if frac_next > 0.0 && !next.is_empty() {
                // Independent, reproducible stream per pair.
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (pair_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                next.shuffle(&mut rng);
                let take = ((next.len() as f64) * frac_next).round() as usize;
                keep.extend_from_slice(&next[..take.min(next.len())]);
            }
            // Never leave a pair without VLB candidates: keep the
            // shortest class if the cutoff removed everything.
            if keep.is_empty() && !pp.vlb.is_empty() {
                let shortest = pp.vlb.iter().map(|p| p.hops()).min().unwrap();
                keep.extend(pp.vlb.iter().copied().filter(|p| p.hops() == shortest));
            }
            pp.vlb = keep;
        }
        VlbRule::Strategic { first_seg } => {
            pp.vlb.retain(|p| {
                p.hops() <= 4
                    || (p.hops() == 5 && split_lengths(topo, p).contains(&(first_seg as usize)))
            });
        }
    }
}

impl PairPaths {
    /// Average hop count of the VLB candidates (`None` when empty).
    pub fn mean_vlb_hops(&self) -> Option<f64> {
        if self.vlb.is_empty() {
            return None;
        }
        Some(self.vlb.iter().map(|p| p.hops() as f64).sum::<f64>() / self.vlb.len() as f64)
    }
}

/// Explicit path table: candidate MIN and VLB paths for every ordered pair
/// of distinct switches.
///
/// Memory is O(#pairs × #paths); the paper's `dfly(4,8,4,17)` (136 switches)
/// fits comfortably, while `dfly(13,26,13,27)` does not and uses the
/// on-the-fly [`crate::RuleProvider`] instead.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PathTable {
    n: usize,
    pairs: Vec<PairPaths>,
}

impl PathTable {
    /// Builds the conventional-UGAL table: all MIN and all VLB paths.
    pub fn build_all(topo: &Dragonfly) -> Self {
        Self::build(topo, None, VlbRule::All, 0)
    }

    /// Builds a table whose VLB sets satisfy `rule`.
    ///
    /// `seed` drives the random selection of fractional classes
    /// ("`f`% of the (m+1)-hop paths"); each pair derives an independent
    /// stream so tables are reproducible.  The result equals
    /// [`PathTable::build_all`] followed by [`PathTable::apply_rule`].
    pub fn build_with_rule(topo: &Dragonfly, rule: VlbRule, seed: u64) -> Self {
        Self::build(topo, None, rule, seed)
    }

    /// [`PathTable::build_all`] over a degraded view: every candidate
    /// survives the fault set.  With a pristine view the result is
    /// byte-identical to `build_all` (pinned by the differential tests).
    pub fn build_all_degraded(topo: &Dragonfly, deg: &Degraded) -> Self {
        Self::build(topo, Some(deg), VlbRule::All, 0)
    }

    /// [`PathTable::build_with_rule`] over a degraded view.
    pub fn build_with_rule_degraded(
        topo: &Dragonfly,
        deg: &Degraded,
        rule: VlbRule,
        seed: u64,
    ) -> Self {
        Self::build(topo, Some(deg), rule, seed)
    }

    /// Enumerates every pair once and restricts its VLB set to `rule` on
    /// the spot, under the pair's row-major index as [`Self::apply_rule`]
    /// does.  Source rows are built in parallel; each pair depends only on
    /// its own index, so the table is the same at any thread count.
    fn build(topo: &Dragonfly, deg: Option<&Degraded>, rule: VlbRule, seed: u64) -> Self {
        let n = topo.num_switches();
        let sources: Vec<u32> = (0..n as u32).collect();
        let rows: Vec<Vec<PairPaths>> = sources
            .par_iter()
            .map(|&s| {
                let mut buf = VlbBuffers::default();
                let mut vlb = Vec::new();
                (0..n as u32)
                    .map(|d| {
                        let (s, d) = (SwitchId(s), SwitchId(d));
                        if s == d {
                            return PairPaths::default();
                        }
                        let min = match deg {
                            Some(dg) => min_paths_degraded(topo, dg, s, d),
                            None => min_paths(topo, s, d),
                        };
                        vlb_paths_into(topo, deg, s, d, &mut buf, &mut vlb);
                        let mut pp = PairPaths {
                            min,
                            vlb: std::mem::take(&mut vlb),
                        };
                        apply_rule_pair(topo, &mut pp, rule, seed, s.index() * n + d.index());
                        // Store an exact-size copy and keep the buffer.
                        vlb = std::mem::take(&mut pp.vlb);
                        pp.vlb = vlb.clone();
                        pp
                    })
                    .collect()
            })
            .collect();
        PathTable {
            n,
            pairs: rows.into_iter().flatten().collect(),
        }
    }

    /// Number of switches the table covers.
    pub fn num_switches(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, s: SwitchId, d: SwitchId) -> usize {
        s.index() * self.n + d.index()
    }

    /// Candidate paths of a pair.
    #[inline]
    pub fn pair(&self, s: SwitchId, d: SwitchId) -> &PairPaths {
        &self.pairs[self.idx(s, d)]
    }

    /// Mutable candidate paths of a pair.
    #[inline]
    pub fn pair_mut(&mut self, s: SwitchId, d: SwitchId) -> &mut PairPaths {
        let i = self.idx(s, d);
        &mut self.pairs[i]
    }

    /// Restricts every pair's VLB set to `rule`.
    ///
    /// The rule is applied to the *current* VLB sets, so it can only shrink
    /// them; build a fresh table to widen.
    pub fn apply_rule(&mut self, topo: &Dragonfly, rule: VlbRule, seed: u64) {
        if rule.is_all() {
            return;
        }
        for (i, pp) in self.pairs.iter_mut().enumerate() {
            apply_rule_pair(topo, pp, rule, seed, i);
        }
    }

    /// Restricts this table to paths alive in `deg`, in place, and
    /// regenerates T-VLB candidate sets that the faults emptied.
    ///
    /// Dead candidates are removed from every pair (preserving order, so a
    /// pristine view leaves the table byte-identical).  When a pair's VLB
    /// set empties but both endpoints are alive, fresh candidates are
    /// enumerated from the degraded view and re-restricted with `rule`
    /// under the same `seed` and pair index as the original construction —
    /// this is the T-VLB regeneration path: a custom subset whose paths
    /// all died falls back to the best surviving candidates rather than
    /// losing adaptivity for that pair.
    ///
    /// Returns a [`ReachabilityReport`] summarizing what changed.
    pub fn degrade(
        &mut self,
        topo: &Dragonfly,
        deg: &Degraded,
        rule: VlbRule,
        seed: u64,
    ) -> ReachabilityReport {
        let mut rep = ReachabilityReport::default();
        for s in 0..self.n as u32 {
            for d in 0..self.n as u32 {
                if s == d {
                    continue;
                }
                let (s, d) = (SwitchId(s), SwitchId(d));
                let i = self.idx(s, d);
                let pp = &mut self.pairs[i];
                rep.pairs += 1;
                let before_min = pp.min.len();
                let before_vlb = pp.vlb.len();
                pp.min.retain(|p| path_alive(topo, deg, p));
                pp.vlb.retain(|p| path_alive(topo, deg, p));
                rep.removed_min += before_min - pp.min.len();
                rep.removed_vlb += before_vlb - pp.vlb.len();
                if pp.vlb.is_empty() && before_vlb > 0 && !deg.switch_dead(s) && !deg.switch_dead(d)
                {
                    let mut fresh = PairPaths {
                        min: Vec::new(),
                        vlb: all_vlb_paths_degraded(topo, deg, s, d),
                    };
                    apply_rule_pair(topo, &mut fresh, rule, seed, i);
                    if !fresh.vlb.is_empty() {
                        pp.vlb = fresh.vlb;
                        rep.regenerated_pairs += 1;
                    }
                }
                if pp.min.is_empty() {
                    rep.pairs_without_min += 1;
                }
                if pp.vlb.is_empty() {
                    rep.pairs_without_vlb += 1;
                }
                if pp.min.is_empty() && pp.vlb.is_empty() {
                    rep.unreachable_pairs += 1;
                }
            }
        }
        rep
    }

    /// Average VLB hop count over all pairs with at least one VLB path.
    pub fn mean_vlb_hops(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for pp in &self.pairs {
            sum += pp.vlb.iter().map(|p| p.hops() as f64).sum::<f64>();
            count += pp.vlb.len();
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Histogram of VLB path hop counts over the whole table
    /// (`counts[h]` = number of h-hop VLB candidates).
    pub fn vlb_class_counts(&self) -> [u64; 8] {
        let mut counts = [0u64; 8];
        for pp in &self.pairs {
            for p in &pp.vlb {
                counts[p.hops()] += 1;
            }
        }
        counts
    }

    /// Total number of MIN and VLB candidates stored.
    pub(crate) fn total_paths(&self) -> usize {
        self.pairs
            .iter()
            .map(|pp| pp.min.len() + pp.vlb.len())
            .sum()
    }

    /// Total number of VLB candidates stored.
    pub fn total_vlb_paths(&self) -> u64 {
        self.pairs.iter().map(|pp| pp.vlb.len() as u64).sum()
    }

    /// Serializes the table into a compact binary blob (a computed T-VLB
    /// is a design-time artifact the paper expects to ship with the
    /// network; this is the shipping format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        for pp in &self.pairs {
            for list in [&pp.min, &pp.vlb] {
                out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for p in list {
                    let switches: Vec<u16> = p.switches().map(|s| s.0 as u16).collect();
                    out.push(switches.len() as u8);
                    for sw in switches {
                        out.extend_from_slice(&sw.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Reverses [`PathTable::to_bytes`].  Returns `None` on malformed
    /// input.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut cur = 0usize;
        let take = |cur: &mut usize, n: usize| -> Option<&[u8]> {
            let s = data.get(*cur..*cur + n)?;
            *cur += n;
            Some(s)
        };
        let n = u64::from_le_bytes(take(&mut cur, 8)?.try_into().ok()?) as usize;
        let mut pairs = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            let mut pp = PairPaths::default();
            for which in 0..2 {
                let count = u32::from_le_bytes(take(&mut cur, 4)?.try_into().ok()?) as usize;
                let list = if which == 0 { &mut pp.min } else { &mut pp.vlb };
                list.reserve(count);
                for _ in 0..count {
                    let len = *take(&mut cur, 1)?.first()? as usize;
                    if len == 0 || len > crate::MAX_HOPS + 1 {
                        return None;
                    }
                    let mut switches = Vec::with_capacity(len);
                    for _ in 0..len {
                        let sw = u16::from_le_bytes(take(&mut cur, 2)?.try_into().ok()?);
                        switches.push(tugal_topology::SwitchId(sw as u32));
                    }
                    list.push(Path::from_switches(&switches));
                }
            }
            pairs.push(pp);
        }
        (cur == data.len()).then_some(PathTable { n, pairs })
    }
}
