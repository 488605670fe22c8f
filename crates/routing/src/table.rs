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

/// A candidate list: immutable, and shared by every pair whose list holds
/// the same codes (see [`Lists`]).
type Codes = Arc<[u32]>;

/// The candidates of one (source switch, destination switch) pair, as
/// packed codes (see `code.rs`); only this crate reads them.
#[derive(Debug, Clone)]
pub(crate) struct PairPaths {
    /// MIN candidates (one per live global link between the endpoint
    /// groups).
    pub(crate) min: Codes,
    /// VLB candidates — all of them for conventional UGAL, a topology-custom
    /// subset (T-VLB) for T-UGAL.
    pub(crate) vlb: Codes,
}

/// Shares equal candidate lists.  A code names gateway links by their
/// index in a group pair's list, so every pristine pair between the same
/// two groups holds the same MIN list and the same all-paths VLB list:
/// keyed by group, one cached list per key finds them all.
struct Lists {
    /// The one empty list; an empty list never replaces a cached one.
    empty: Codes,
    /// The last list stored under each key.
    last: Vec<Option<Codes>>,
}

impl Lists {
    fn new(keys: usize, empty: &Codes) -> Self {
        Lists {
            empty: empty.clone(),
            last: vec![None; keys],
        }
    }

    /// The copy of `list` to store under `key`: the cached list if it holds
    /// the same codes, else `make()`, which becomes the cached list.
    fn share(&mut self, key: usize, list: &[u32], make: impl FnOnce() -> Codes) -> Codes {
        if list.is_empty() {
            return self.empty.clone();
        }
        let last = &mut self.last[key];
        match last {
            Some(c) if std::ptr::eq(&**c, list) || **c == *list => c.clone(),
            _ => last.insert(make()).clone(),
        }
    }
}

/// Shares equal lists across the whole table, in row order, keyed by
/// (source group, destination group).  Every constructor, `degrade` and
/// `apply_rule` end here, so which pairs share a list does not depend on
/// how the table was made.
fn share(topo: &Dragonfly, pairs: &mut [PairPaths]) {
    let (n, g) = (topo.num_switches(), topo.num_groups());
    let empty: Codes = Arc::new([]);
    let (mut min, mut vlb) = (Lists::new(g * g, &empty), Lists::new(g * g, &empty));
    let group = |x: usize| topo.group_of(SwitchId(x as u32)).index();
    for (i, pp) in pairs.iter_mut().enumerate() {
        let k = group(i / n) * g + group(i % n);
        pp.min = min.share(k, &pp.min, || pp.min.clone());
        pp.vlb = vlb.share(k, &pp.vlb, || pp.vlb.clone());
    }
}

/// `list` without the codes `keep` rejects, calling `keep` once per code,
/// in order; `None`, without allocating, when it rejects none.
fn filtered(list: &[u32], mut keep: impl FnMut(u32) -> bool) -> Option<Codes> {
    let mut out: Option<Vec<u32>> = None;
    for (j, &c) in list.iter().enumerate() {
        match (&mut out, keep(c)) {
            (None, false) => {
                let mut kept = Vec::with_capacity(list.len() - 1);
                kept.extend_from_slice(&list[..j]);
                out = Some(kept);
            }
            (Some(v), true) => v.push(c),
            _ => {}
        }
    }
    out.map(Codes::from)
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
/// Pairs with equal lists share one copy.  A pristine all-paths table
/// therefore stores one MIN and one VLB list per (source group,
/// destination group), O(g² × #paths), while a T-VLB table, whose
/// per-pair subsets differ, is O(#pairs × #paths).  The paper's
/// `dfly(4,8,4,17)` (136 switches) fits comfortably either way;
/// `dfly(13,26,13,27)` uses the on-the-fly [`crate::RuleProvider`]
/// instead.
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
        let (n, g) = (topo.num_switches(), topo.num_groups());
        let codec = Codec::new(topo);
        let empty: Codes = Arc::new([]);
        let sources: Vec<u32> = (0..n as u32).collect();
        let rows: Vec<Vec<PairPaths>> = sources
            .par_iter()
            .map(|&s| {
                let mut buf = VlbBuffers::default();
                let mut vlb = Vec::new();
                // The row's lists, shared by destination group, so the
                // unshared table is never held.
                let (mut min_lists, mut vlb_lists) = (Lists::new(g, &empty), Lists::new(g, &empty));
                (0..n as u32)
                    .map(|d| {
                        let (s, d) = (SwitchId(s), SwitchId(d));
                        if s == d {
                            return PairPaths {
                                min: empty.clone(),
                                vlb: empty.clone(),
                            };
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
                        let key = topo.group_of(d).index();
                        let min = min_codes(topo, deg, s, d);
                        PairPaths {
                            min: min_lists.share(key, &min, || min.as_slice().into()),
                            vlb: vlb_lists.share(key, &vlb, || vlb.as_slice().into()),
                        }
                    })
                    .collect()
            })
            .collect();
        let mut pairs: Vec<PairPaths> = rows.into_iter().flatten().collect();
        share(topo, &mut pairs);
        PathTable {
            topo: Arc::new(topo.clone()),
            codec,
            pairs,
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
    ///
    /// A list the pair shares with others is copied, never edited.
    pub fn retain_vlb(&mut self, s: SwitchId, d: SwitchId, mut keep: impl FnMut(&Path) -> bool) {
        let i = self.idx(s, d);
        let codec = &self.codec;
        let pp = &mut self.pairs[i];
        if let Some(kept) = filtered(&pp.vlb, |c| keep(&codec.decode_vlb(s, d, c))) {
            pp.vlb = kept;
        }
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
        let mut vlb = Vec::new();
        for (i, pp) in self.pairs.iter_mut().enumerate() {
            let pair = (SwitchId((i / n) as u32), SwitchId((i % n) as u32));
            vlb.clear();
            vlb.extend_from_slice(&pp.vlb);
            apply_rule_pair(&self.codec, pair, &mut vlb, rule, seed, i);
            if *vlb != *pp.vlb {
                pp.vlb = vlb.as_slice().into();
            }
        }
        share(&self.topo, &mut self.pairs);
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
                if let Some(alive) = filtered(&pp.min, |c| {
                    path_alive(topo, deg, &codec.decode_min(s, d, c))
                }) {
                    pp.min = alive;
                }
                if let Some(alive) = filtered(&pp.vlb, |c| {
                    path_alive(topo, deg, &codec.decode_vlb(s, d, c))
                }) {
                    pp.vlb = alive;
                }
                rep.removed_min += before_min - pp.min.len();
                rep.removed_vlb += before_vlb - pp.vlb.len();
                if pp.vlb.is_empty() && before_vlb > 0 && !deg.switch_dead(s) && !deg.switch_dead(d)
                {
                    let mut fresh = Vec::new();
                    vlb_codes_into(topo, Some(deg), s, d, &mut buf, &mut fresh);
                    apply_rule_pair(codec, (s, d), &mut fresh, rule, seed, i);
                    if !fresh.is_empty() {
                        pp.vlb = fresh.into();
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
        share(topo, &mut self.pairs);
        rep
    }

    /// Average VLB hop count over all pairs with at least one VLB path.
    pub fn mean_vlb_hops(&self) -> f64 {
        let n = self.num_switches();
        let mut sum = 0usize;
        let mut count = 0usize;
        for (i, pp) in self.pairs.iter().enumerate() {
            let (s, d) = (SwitchId((i / n) as u32), SwitchId((i % n) as u32));
            count += pp.vlb.len();
            sum += pp
                .vlb
                .iter()
                .map(|&c| self.codec.vlb_hops(s, d, c))
                .sum::<usize>();
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
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
        // One list of the pair (s, d): MIN if `vlb` is false.
        let mut list = Vec::new();
        let mut read =
            |cur: &mut usize, (s, d): (SwitchId, SwitchId), vlb: bool| -> Option<Codes> {
                let count = u32::from_le_bytes(take(cur, 4)?.try_into().ok()?) as usize;
                list.clear();
                // A path takes at least 3 bytes.
                list.reserve(count.min((data.len() - *cur) / 3));
                for _ in 0..count {
                    let len = *take(cur, 1)?.first()? as usize;
                    if len == 0 || len > crate::MAX_HOPS + 1 {
                        return None;
                    }
                    let mut switches = Vec::with_capacity(len);
                    for _ in 0..len {
                        let sw = u16::from_le_bytes(take(cur, 2)?.try_into().ok()?);
                        if sw as usize >= n {
                            return None;
                        }
                        switches.push(SwitchId(sw as u32));
                    }
                    let p = Path::from_switches(&switches);
                    list.push(if vlb {
                        code::encode_vlb(topo, s, d, &p)?
                    } else {
                        code::encode_min(topo, s, d, &p)?
                    });
                }
                Some(list.as_slice().into())
            };
        let mut pairs = Vec::with_capacity(pairs_len);
        for idx in 0..pairs_len {
            let pair = (SwitchId((idx / n) as u32), SwitchId((idx % n) as u32));
            let min = read(&mut cur, pair, false)?;
            let vlb = read(&mut cur, pair, true)?;
            pairs.push(PairPaths { min, vlb });
        }
        if cur != data.len() {
            return None;
        }
        share(topo, &mut pairs);
        Some(PathTable {
            topo: Arc::new(topo.clone()),
            codec: Codec::new(topo),
            pairs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tugal_topology::DragonflyParams;

    fn dfly(p: u32, a: u32, h: u32, g: u32) -> Dragonfly {
        Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap()
    }

    /// The number of distinct non-empty (MIN, VLB) lists the table stores.
    fn stored_lists(table: &PathTable) -> (usize, usize) {
        let count = |list: fn(&PairPaths) -> &Codes| {
            let stored = table.pairs.iter().map(list).filter(|l| !l.is_empty());
            stored.map(|l| l.as_ptr()).collect::<HashSet<_>>().len()
        };
        (count(|pp| &pp.min), count(|pp| &pp.vlb))
    }

    #[test]
    fn a_pristine_all_paths_table_stores_one_list_per_group_pair() {
        let t = dfly(4, 8, 4, 9);
        let g2 = t.num_groups() * t.num_groups();
        let table = PathTable::build_all(&t);
        let (min, vlb) = stored_lists(&table);
        assert!(min <= g2 && vlb <= g2, "{min} MIN and {vlb} VLB lists");
        let back = PathTable::from_bytes(&t, &table.to_bytes()).unwrap();
        assert_eq!(stored_lists(&back), (min, vlb));
    }

    #[test]
    fn edits_copy_a_shared_list_and_leave_its_sharers_alone() {
        let t = dfly(2, 4, 2, 5);
        let mut table = PathTable::build_all(&t);
        let original = table.clone();
        let pristine = original.to_bytes();
        let (s, d) = (SwitchId(0), SwitchId(9));
        let edited = table.codes(s, d).vlb.clone();
        let sharers: Vec<usize> = (0..table.pairs.len())
            .filter(|&i| i != table.idx(s, d) && Arc::ptr_eq(&table.pairs[i].vlb, &edited))
            .collect();
        assert!(!sharers.is_empty(), "the pair shares its list");

        // Keeping everything keeps the very list.
        let mut seen = Vec::new();
        table.retain_vlb(s, d, |p| {
            seen.push(*p);
            true
        });
        assert_eq!(seen, original.vlb(s, d).collect::<Vec<_>>());
        assert!(Arc::ptr_eq(&table.codes(s, d).vlb, &edited));

        // Keeping the first candidate only visits each one once, in order.
        let mut visits = 0;
        table.retain_vlb(s, d, |_| {
            visits += 1;
            visits == 1
        });
        assert_eq!(visits, edited.len());
        assert_eq!(table.codes(s, d).vlb[..], edited[..1]);
        assert_eq!(original.to_bytes(), pristine);
        for &i in &sharers {
            assert_eq!(table.pairs[i].vlb, edited, "pair {i}");
        }

        let mut limited = original.clone();
        let rule = VlbRule::ClassLimit {
            max_hops: 3,
            frac_next: 0.5,
        };
        limited.apply_rule(rule, 7);
        assert!(limited.total_vlb_paths() < original.total_vlb_paths());
        assert_eq!(original.to_bytes(), pristine);
    }

    #[test]
    fn storage_does_not_depend_on_the_thread_count() {
        let t = dfly(3, 6, 3, 7);
        let rule = VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.6,
        };
        let build = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                [
                    PathTable::build_all(&t),
                    PathTable::build_with_rule(&t, rule, 0x7065),
                ]
                .map(|table| (table.to_bytes(), stored_lists(&table)))
            })
        };
        assert_eq!(build(1), build(2));
    }
}
