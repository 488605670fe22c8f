//! Explicit per-switch-pair path tables.

use crate::code::{self, Codec};
use crate::enumerate::{min_codes, path_alive, vlb_codes_into, VlbBuffers};
use crate::path::Path;
use crate::rule::VlbRule;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use std::fmt;
use std::sync::Arc;
use tugal_topology::{Degraded, Dragonfly, SwitchId};

/// The candidates of one (source switch, destination switch) pair, as
/// packed codes (see `code.rs`); only this crate reads them.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairPaths {
    /// MIN candidates (one per live global link between the endpoint
    /// groups).
    pub(crate) min: Vec<u32>,
    /// VLB candidates — all of them for conventional UGAL, a topology-custom
    /// subset (T-VLB) for T-UGAL.
    pub(crate) vlb: Vec<u32>,
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

/// Applies `rule` to the VLB codes of the pair `(s, d)`; `pair_idx` must
/// be the pair's row-major index so the per-pair RNG stream matches
/// [`PathTable::apply_rule`].
fn apply_rule_pair(
    codec: &Codec,
    (s, d): (SwitchId, SwitchId),
    vlb: &mut Vec<u32>,
    rule: VlbRule,
    seed: u64,
    pair_idx: usize,
) {
    let hops = |c: u32| codec.vlb_hops(s, d, c);
    match rule {
        VlbRule::All => {}
        VlbRule::ClassLimit {
            max_hops,
            frac_next,
        } => {
            let mut keep: Vec<u32> = Vec::with_capacity(vlb.len());
            let mut next: Vec<u32> = Vec::new();
            for &c in vlb.iter() {
                let h = hops(c);
                if h <= max_hops as usize {
                    keep.push(c);
                } else if h == max_hops as usize + 1 {
                    next.push(c);
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
            if keep.is_empty() && !vlb.is_empty() {
                let shortest = vlb.iter().map(|&c| hops(c)).min().unwrap();
                keep.extend(vlb.iter().copied().filter(|&c| hops(c) == shortest));
            }
            *vlb = keep;
        }
        VlbRule::Strategic { first_seg } => {
            let want = first_seg as usize;
            vlb.retain(|&c| match hops(c) {
                ..=4 => true,
                5 => {
                    let (first, other) = codec.first_segment_hops(s, d, c);
                    first == want || other == Some(want)
                }
                _ => false,
            });
        }
    }
}

/// Explicit path table: candidate MIN and VLB paths for every ordered pair
/// of distinct switches.
///
/// Each candidate is stored as a 4-byte packed code and decoded to a
/// [`Path`] only when it is inspected ([`Self::min`], [`Self::vlb`]) or
/// drawn ([`crate::TableProvider`]).  A code means nothing without its
/// topology, so the table holds the topology it was built for.
///
/// Memory is O(#pairs × #paths); the paper's `dfly(4,8,4,17)` (136 switches)
/// fits comfortably, while `dfly(13,26,13,27)` does not and uses the
/// on-the-fly [`crate::RuleProvider`] instead.
#[derive(Clone)]
pub struct PathTable {
    topo: Arc<Dragonfly>,
    codec: Codec,
    pairs: Vec<PairPaths>,
}

impl fmt::Debug for PathTable {
    /// The codes of every pair (the topology is left out: two tables of
    /// one topology print alike iff they hold the same candidates).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathTable")
            .field("n", &self.num_switches())
            .field("pairs", &self.pairs)
            .finish()
    }
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
        let codec = Codec::new(topo);
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
                        vlb_codes_into(topo, deg, s, d, &mut buf, &mut vlb);
                        apply_rule_pair(
                            &codec,
                            (s, d),
                            &mut vlb,
                            rule,
                            seed,
                            s.index() * n + d.index(),
                        );
                        // Store an exact-size copy and keep the buffer.
                        PairPaths {
                            min: min_codes(topo, deg, s, d),
                            vlb: vlb.clone(),
                        }
                    })
                    .collect()
            })
            .collect();
        PathTable {
            topo: Arc::new(topo.clone()),
            codec,
            pairs: rows.into_iter().flatten().collect(),
        }
    }

    /// The topology the table's candidates belong to.
    pub(crate) fn topo(&self) -> &Dragonfly {
        &self.topo
    }

    /// Number of switches the table covers.
    pub fn num_switches(&self) -> usize {
        self.topo.num_switches()
    }

    #[inline]
    fn idx(&self, s: SwitchId, d: SwitchId) -> usize {
        s.index() * self.num_switches() + d.index()
    }

    /// The packed candidates of a pair.
    #[inline]
    pub(crate) fn codes(&self, s: SwitchId, d: SwitchId) -> &PairPaths {
        &self.pairs[self.idx(s, d)]
    }

    /// The decoding table of the table's topology.
    #[inline]
    pub(crate) fn codec(&self) -> &Codec {
        &self.codec
    }

    /// The MIN candidates of a pair, in table order.
    pub fn min(&self, s: SwitchId, d: SwitchId) -> impl ExactSizeIterator<Item = Path> + '_ {
        self.codes(s, d)
            .min
            .iter()
            .map(move |&c| self.codec.decode_min(s, d, c))
    }

    /// The VLB candidates of a pair, in table order.
    pub fn vlb(&self, s: SwitchId, d: SwitchId) -> impl ExactSizeIterator<Item = Path> + '_ {
        self.codes(s, d)
            .vlb
            .iter()
            .map(move |&c| self.codec.decode_vlb(s, d, c))
    }

    /// Keeps the VLB candidates of a pair for which `keep` returns true,
    /// visiting them once each, in order, and preserving their order.
    pub fn retain_vlb(&mut self, s: SwitchId, d: SwitchId, mut keep: impl FnMut(&Path) -> bool) {
        let i = self.idx(s, d);
        let codec = &self.codec;
        self.pairs[i]
            .vlb
            .retain(|&c| keep(&codec.decode_vlb(s, d, c)));
    }

    /// Restricts every pair's VLB set to `rule`.
    ///
    /// The rule is applied to the *current* VLB sets, so it can only shrink
    /// them; build a fresh table to widen.
    pub fn apply_rule(&mut self, rule: VlbRule, seed: u64) {
        if rule.is_all() {
            return;
        }
        let n = self.num_switches();
        for (i, pp) in self.pairs.iter_mut().enumerate() {
            let pair = (SwitchId((i / n) as u32), SwitchId((i % n) as u32));
            apply_rule_pair(&self.codec, pair, &mut pp.vlb, rule, seed, i);
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
    pub fn degrade(&mut self, deg: &Degraded, rule: VlbRule, seed: u64) -> ReachabilityReport {
        let mut rep = ReachabilityReport::default();
        let n = self.num_switches();
        let (topo, codec) = (&*self.topo, &self.codec);
        let mut buf = VlbBuffers::default();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s == d {
                    continue;
                }
                let (s, d) = (SwitchId(s), SwitchId(d));
                let i = s.index() * n + d.index();
                let pp = &mut self.pairs[i];
                rep.pairs += 1;
                let before_min = pp.min.len();
                let before_vlb = pp.vlb.len();
                pp.min
                    .retain(|&c| path_alive(topo, deg, &codec.decode_min(s, d, c)));
                pp.vlb
                    .retain(|&c| path_alive(topo, deg, &codec.decode_vlb(s, d, c)));
                rep.removed_min += before_min - pp.min.len();
                rep.removed_vlb += before_vlb - pp.vlb.len();
                if pp.vlb.is_empty() && before_vlb > 0 && !deg.switch_dead(s) && !deg.switch_dead(d)
                {
                    let mut fresh = Vec::new();
                    vlb_codes_into(topo, Some(deg), s, d, &mut buf, &mut fresh);
                    apply_rule_pair(codec, (s, d), &mut fresh, rule, seed, i);
                    if !fresh.is_empty() {
                        pp.vlb = fresh;
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

    /// Hop counts of every pair's VLB candidates, pair by pair in
    /// row-major order.
    fn vlb_hops(&self) -> impl Iterator<Item = impl ExactSizeIterator<Item = usize> + '_> + '_ {
        let n = self.num_switches();
        let codec = &self.codec;
        self.pairs.iter().enumerate().map(move |(i, pp)| {
            let (s, d) = (SwitchId((i / n) as u32), SwitchId((i % n) as u32));
            pp.vlb.iter().map(move |&c| codec.vlb_hops(s, d, c))
        })
    }

    /// Average VLB hop count over all pairs with at least one VLB path.
    pub fn mean_vlb_hops(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for hops in self.vlb_hops() {
            count += hops.len();
            sum += hops.map(|h| h as f64).sum::<f64>();
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
        for h in self.vlb_hops().flatten() {
            counts[h] += 1;
        }
        counts
    }

    /// Total number of VLB candidates stored.
    pub fn total_vlb_paths(&self) -> u64 {
        self.pairs.iter().map(|pp| pp.vlb.len() as u64).sum()
    }

    /// Serializes the table into a compact binary blob (a computed T-VLB
    /// is a design-time artifact the paper expects to ship with the
    /// network; this is the shipping format).
    ///
    /// Layout (little-endian): the switch count `n` as `u64`, then for
    /// each pair in row-major order its MIN and then its VLB list, each a
    /// `u32` count followed by the paths, each a `u8` switch count and the
    /// switch ids as `u16`.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put(out: &mut Vec<u8>, paths: impl ExactSizeIterator<Item = Path>) {
            out.extend_from_slice(&(paths.len() as u32).to_le_bytes());
            for p in paths {
                out.push(p.hops() as u8 + 1);
                for sw in p.switches() {
                    out.extend_from_slice(&(sw.0 as u16).to_le_bytes());
                }
            }
        }
        let n = self.num_switches();
        let mut out = Vec::new();
        out.extend_from_slice(&(n as u64).to_le_bytes());
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let (s, d) = (SwitchId(s), SwitchId(d));
                put(&mut out, self.min(s, d));
                put(&mut out, self.vlb(s, d));
            }
        }
        out
    }

    /// Reverses [`PathTable::to_bytes`] for the topology `topo`.  Returns
    /// `None` on malformed input, and for a table that does not belong to
    /// `topo`: a switch count other than `topo`'s, or any path that is not
    /// a MIN (in a MIN list) or VLB (in a VLB list) candidate of its pair
    /// in `topo`.
    pub fn from_bytes(topo: &Dragonfly, data: &[u8]) -> Option<Self> {
        let mut cur = 0usize;
        let take = |cur: &mut usize, k: usize| -> Option<&[u8]> {
            let s = data.get(*cur..cur.checked_add(k)?)?;
            *cur += k;
            Some(s)
        };
        let n = usize::try_from(u64::from_le_bytes(take(&mut cur, 8)?.try_into().ok()?)).ok()?;
        // Every pair holds two 4-byte counts: bound the table by the data
        // before allocating for it.
        let pairs_len = n.checked_mul(n)?;
        if n != topo.num_switches() || pairs_len.checked_mul(8)? > data.len() - cur {
            return None;
        }
        let mut pairs = Vec::with_capacity(pairs_len);
        for idx in 0..pairs_len {
            let (s, d) = (SwitchId((idx / n) as u32), SwitchId((idx % n) as u32));
            let mut pp = PairPaths::default();
            for which in 0..2 {
                let count = u32::from_le_bytes(take(&mut cur, 4)?.try_into().ok()?) as usize;
                let list = if which == 0 { &mut pp.min } else { &mut pp.vlb };
                // A path takes at least 3 bytes.
                list.reserve(count.min((data.len() - cur) / 3));
                for _ in 0..count {
                    let len = *take(&mut cur, 1)?.first()? as usize;
                    if len == 0 || len > crate::MAX_HOPS + 1 {
                        return None;
                    }
                    let mut switches = Vec::with_capacity(len);
                    for _ in 0..len {
                        let sw = u16::from_le_bytes(take(&mut cur, 2)?.try_into().ok()?);
                        if sw as usize >= n {
                            return None;
                        }
                        switches.push(SwitchId(sw as u32));
                    }
                    let p = Path::from_switches(&switches);
                    list.push(if which == 0 {
                        code::encode_min(topo, s, d, &p)?
                    } else {
                        code::encode_vlb(topo, s, d, &p)?
                    });
                }
            }
            pairs.push(pp);
        }
        (cur == data.len()).then(|| PathTable {
            topo: Arc::new(topo.clone()),
            codec: Codec::new(topo),
            pairs,
        })
    }
}
