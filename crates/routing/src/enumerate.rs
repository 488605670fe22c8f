//! Enumeration of MIN and VLB paths.

use crate::code::{self, Codec};
use crate::path::Path;
use tugal_topology::{Degraded, Dragonfly, GroupId, SwitchId};

/// Problems detected by [`validate_path`](crate::enumerate::validate_path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A hop connects switches with no channel between them.
    MissingChannel(usize),
    /// More global hops than the VLB maximum of two.
    TooManyGlobalHops(usize),
}

/// All MIN paths from switch `s` to switch `d`.
///
/// * `s == d`: the zero-hop path.
/// * Same group: the single direct local hop (the intra-group topology is
///   fully connected).
/// * Different groups: one path per global link between the two groups —
///   local hop to the gateway (if needed), the global hop, local hop from
///   the remote gateway (if needed).  Lengths range from 1 to 3 hops.
pub fn min_paths(topo: &Dragonfly, s: SwitchId, d: SwitchId) -> Vec<Path> {
    min_paths_in(topo, None, s, d)
}

/// All VLB paths from `s` to `d` through intermediate switch `i`.
///
/// Every combination of a MIN path `s → i` and a MIN path `i → d`.  The
/// intermediate must lie outside the source and destination groups (§2.2),
/// so both segments carry exactly one global hop and the composite has two.
pub fn vlb_paths_via(topo: &Dragonfly, s: SwitchId, d: SwitchId, i: SwitchId) -> Vec<Path> {
    vlb_paths_via_in(topo, None, s, d, i)
}

/// True when the local hop `u → v` survives `deg` (always, without one).
fn local_alive(topo: &Dragonfly, deg: Option<&Degraded>, u: SwitchId, v: SwitchId) -> bool {
    deg.is_none_or(|dg| {
        topo.channel_between(u, v)
            .is_some_and(|c| !dg.channel_dead(c))
    })
}

/// The MIN path `s [→ u] → v [→ d]` over the global link `u → v`.
#[inline]
pub(crate) fn gateway_path(s: SwitchId, u: SwitchId, v: SwitchId, d: SwitchId) -> Path {
    let mut p = Path::single(s);
    extend_gateway(&mut p, u, v, d);
    p
}

/// Extends `p`, which ends at a segment's source, by the MIN segment
/// `[→ u] → v [→ d]` over the global link `u → v`: the one place MIN
/// segments are built.
#[inline]
pub(crate) fn extend_gateway(p: &mut Path, u: SwitchId, v: SwitchId, d: SwitchId) {
    p.push_distinct(u);
    p.push(v);
    p.push_distinct(d);
}

/// The global links `(k, u, v)` from `s`'s group to `d`'s (a different
/// group) whose MIN path survives `deg`, in gateway order.  `k` is the
/// canonical index of the link in the pristine gateway list: the first
/// entry with the same `(u, v)`, so parallel cables share it.
fn live_links<'a>(
    topo: &'a Dragonfly,
    deg: Option<&'a Degraded>,
    s: SwitchId,
    d: SwitchId,
) -> impl Iterator<Item = (usize, SwitchId, SwitchId)> + 'a {
    let gws = topo.gateways(topo.group_of(s), topo.group_of(d));
    // Gateway lists are sorted by `(u, v)`, so parallel cables are
    // adjacent.  A dead gateway switch kills its global channels, so the
    // channel check covers it; only the endpoint-local hops remain.
    gws.iter()
        .filter(move |&&(u, v, c)| {
            deg.is_none_or(|dg| !dg.channel_dead(c))
                && (u == s || local_alive(topo, deg, s, u))
                && (v == d || local_alive(topo, deg, v, d))
        })
        .map(move |&(u, v, _)| (gws.partition_point(|&(x, y, _)| (x, y) < (u, v)), u, v))
}

/// The one MIN enumeration behind [`min_paths`], [`min_paths_degraded`]
/// and the tables: the codes of the MIN paths from `s` to `d` that survive
/// `deg`, one per live global link (parallel cables repeat a path).
pub(crate) fn min_codes(
    topo: &Dragonfly,
    deg: Option<&Degraded>,
    s: SwitchId,
    d: SwitchId,
) -> Vec<u32> {
    if deg.is_some_and(|dg| dg.switch_dead(s) || dg.switch_dead(d)) {
        return Vec::new();
    }
    if s == d {
        return vec![code::min(0)];
    }
    if topo.group_of(s) == topo.group_of(d) {
        return if local_alive(topo, deg, s, d) {
            vec![code::min(0)]
        } else {
            Vec::new()
        };
    }
    live_links(topo, deg, s, d)
        .map(|(k, _, _)| code::min(k))
        .collect()
}

/// [`min_codes`], decoded.
fn min_paths_in(topo: &Dragonfly, deg: Option<&Degraded>, s: SwitchId, d: SwitchId) -> Vec<Path> {
    min_codes(topo, deg, s, d)
        .into_iter()
        .map(|c| code::decode_min(topo, s, d, c))
        .collect()
}

/// The one body behind [`vlb_paths_via`] and [`vlb_paths_via_degraded`].
fn vlb_paths_via_in(
    topo: &Dragonfly,
    deg: Option<&Degraded>,
    s: SwitchId,
    d: SwitchId,
    i: SwitchId,
) -> Vec<Path> {
    debug_assert_ne!(topo.group_of(i), topo.group_of(s));
    debug_assert_ne!(topo.group_of(i), topo.group_of(d));
    let first = min_paths_in(topo, deg, s, i);
    let second = min_paths_in(topo, deg, i, d);
    let mut out = Vec::with_capacity(first.len() * second.len());
    for a in &first {
        for b in &second {
            out.push(a.concat(b));
        }
    }
    out
}

/// All distinct VLB paths from `s` to `d` (the conventional UGAL candidate
/// set), deduplicated by switch sequence.
///
/// The order is that of [`vlb_paths_via`] over the intermediates (groups
/// ascending, switches ascending within a group), each path kept at the
/// first intermediate that yields it, so path-set statistics (class counts,
/// link-usage probabilities) are well defined.
///
/// Duplicates are recognised structurally, without hashing. A composite
/// via `i` crosses `i`'s group as `v [→ i] [→ w]`, where `v` is the first
/// segment's entry switch and `w` the second segment's exit switch. Only
/// when that stretch is a single local hop (`v → i` or `i → w`) does
/// another intermediate yield the same sequence: both ends of the hop do,
/// and the lower id comes first, so the path is kept there and skipped at
/// the other end. Parallel cables (`global_lag > 1`) repeat MIN segments
/// switch for switch; each segment list keeps the first of them.
///
/// Non-simple *walks* are kept: composing MIN segments around an
/// intermediate can revisit a switch, and on maximal topologies (one global
/// link per group pair) every same-group VLB path necessarily bounces out
/// and back over the same cable's endpoints.  These walks are exactly what
/// VLB produces in practice and what the paper's 2–6 hop accounting counts.
pub fn all_vlb_paths(topo: &Dragonfly, s: SwitchId, d: SwitchId) -> Vec<Path> {
    vlb_paths_in(topo, None, s, d)
}

/// A MIN segment of a VLB composite: the canonical gateway index `k` of
/// the global link `(u, v)` it crosses.
#[derive(Clone, Copy)]
struct Segment {
    k: usize,
    link: (SwitchId, SwitchId),
}

/// Segment lists of the current intermediate, reused across intermediates
/// and pairs.
#[derive(Default)]
pub(crate) struct VlbBuffers {
    first: Vec<Segment>,
    second: Vec<Segment>,
}

/// Replaces `out` with the distinct MIN segments from `s` to `d` (in
/// different groups) that survive `deg`, in gateway order. A path repeated
/// by parallel cables is kept once, at its first cable.
fn min_segments(
    topo: &Dragonfly,
    deg: Option<&Degraded>,
    s: SwitchId,
    d: SwitchId,
    out: &mut Vec<Segment>,
) {
    out.clear();
    for (k, u, v) in live_links(topo, deg, s, d) {
        // Parallel cables are adjacent, so a repeat follows its first.
        if out.last().is_none_or(|q| q.k != k) {
            out.push(Segment { k, link: (u, v) });
        }
    }
}

/// The one VLB enumeration behind [`all_vlb_paths`],
/// [`all_vlb_paths_degraded`] and the tables: replaces `out` with the codes
/// of the distinct VLB paths from `s` to `d` that survive `deg` (all of
/// them when `deg` is `None`).
pub(crate) fn vlb_codes_into(
    topo: &Dragonfly,
    deg: Option<&Degraded>,
    s: SwitchId,
    d: SwitchId,
    buf: &mut VlbBuffers,
    out: &mut Vec<u32>,
) {
    out.clear();
    let dead = |x: SwitchId| deg.is_some_and(|dg| dg.switch_dead(x));
    if dead(s) || dead(d) {
        return;
    }
    let (gs, gd) = (topo.group_of(s), topo.group_of(d));
    for gi in 0..topo.num_groups() as u32 {
        let gi = GroupId(gi);
        if gi == gs || gi == gd {
            continue;
        }
        for i in topo.switches_in_group(gi) {
            if dead(i) {
                continue;
            }
            min_segments(topo, deg, s, i, &mut buf.first);
            if buf.first.is_empty() {
                continue;
            }
            min_segments(topo, deg, i, d, &mut buf.second);
            for a in &buf.first {
                for b in &buf.second {
                    // The stretch in i's group is v [→ i] [→ w]; when it is
                    // one local hop, the lower-id end of the hop owns it.
                    let (v, w) = (a.link.1, b.link.0);
                    let other = if v == i {
                        w
                    } else if w == i {
                        v
                    } else {
                        i
                    };
                    if other < i {
                        continue;
                    }
                    out.push(code::vlb(i, a.k, b.k));
                }
            }
        }
    }
}

/// [`vlb_codes_into`], decoded.
fn vlb_paths_in(topo: &Dragonfly, deg: Option<&Degraded>, s: SwitchId, d: SwitchId) -> Vec<Path> {
    let mut codes = Vec::new();
    vlb_codes_into(topo, deg, s, d, &mut VlbBuffers::default(), &mut codes);
    let codec = Codec::new(topo);
    codes
        .into_iter()
        .map(|c| codec.decode_vlb(s, d, c))
        .collect()
}

/// True when every switch and every hop channel of `p` survives in the
/// degraded view (the path can still carry traffic).
///
/// A zero-hop path is alive iff its single switch is.  Channel death is
/// cable-level, so checking the forward direction of each hop suffices.
/// Under `global_lag > 1` a hop between two switches is backed by several
/// parallel cables, and per-sibling faults can kill them individually: a
/// hop stays alive while *any* of its parallel channels survives.
pub fn path_alive(topo: &Dragonfly, deg: &Degraded, p: &Path) -> bool {
    if deg.switch_dead(p.src()) {
        return false;
    }
    for i in 0..p.hops() {
        let (u, v) = p.hop(i);
        if deg.switch_dead(v) {
            return false;
        }
        let alive = match topo.channel_between(u, v) {
            None => false,
            Some(c) if !deg.channel_dead(c) => true,
            // First channel dead — a parallel global sibling may survive.
            Some(_) => topo
                .global_out(u)
                .iter()
                .any(|&(c, t)| t == v && !deg.channel_dead(c)),
        };
        if !alive {
            return false;
        }
    }
    true
}

/// [`min_paths`] restricted to channels alive in `deg`: dead gateways,
/// dead endpoint-local hops, and dead endpoint switches are skipped.
///
/// Candidates appear in the same order as the surviving subsequence of the
/// pristine enumeration, so `min_paths_degraded` with a pristine view is
/// byte-identical to `min_paths` (pinned by the differential tests).
pub fn min_paths_degraded(topo: &Dragonfly, deg: &Degraded, s: SwitchId, d: SwitchId) -> Vec<Path> {
    min_paths_in(topo, Some(deg), s, d)
}

/// [`vlb_paths_via`] over the degraded view: every combination of a
/// surviving MIN path `s → i` and a surviving MIN path `i → d`.
pub fn vlb_paths_via_degraded(
    topo: &Dragonfly,
    deg: &Degraded,
    s: SwitchId,
    d: SwitchId,
    i: SwitchId,
) -> Vec<Path> {
    vlb_paths_via_in(topo, Some(deg), s, d, i)
}

/// [`all_vlb_paths`] over the degraded view: dead intermediates are
/// skipped and both MIN segments must survive.
///
/// The result equals `all_vlb_paths` filtered by [`path_alive`], in the
/// same order: a surviving composite contains every switch and channel
/// of each intermediate that yields it, so the structural rule keeps it at
/// the same (lowest-id) intermediate as the pristine enumeration.
pub fn all_vlb_paths_degraded(
    topo: &Dragonfly,
    deg: &Degraded,
    s: SwitchId,
    d: SwitchId,
) -> Vec<Path> {
    vlb_paths_in(topo, Some(deg), s, d)
}

/// All positions `k` at which a VLB path can be split into
/// `MIN(src, switch(k)) ++ MIN(switch(k), dst)` with `switch(k)` a valid
/// intermediate (outside both endpoint groups).
///
/// The split point of a VLB path is not always unique; the *strategic*
/// choices of §3.3.3 ("all 2-hop MIN paths followed by 3-hop MIN paths")
/// therefore classify a path by whether *some* valid decomposition has the
/// requested first-segment length.
pub fn split_lengths(topo: &Dragonfly, p: &Path) -> Vec<usize> {
    // A MIN segment's hop-kind shape is one of: g, lg, gl, lgl.
    fn is_min_shape(kinds: &[bool]) -> bool {
        // `true` = global hop.
        matches!(
            kinds,
            [true] | [false, true] | [true, false] | [false, true, false]
        )
    }
    let (gs, gd) = (topo.group_of(p.src()), topo.group_of(p.dst()));
    let kinds: Vec<bool> = (0..p.hops())
        .map(|i| p.hop_kind(topo, i) == tugal_topology::ChannelKind::Global)
        .collect();
    (1..p.hops())
        .filter(|&k| {
            let i = p.switch(k);
            let gi = topo.group_of(i);
            gi != gs && gi != gd && is_min_shape(&kinds[..k]) && is_min_shape(&kinds[k..])
        })
        .collect()
}

/// Checks the structural invariants of a MIN or VLB path: every hop is an
/// existing channel and at most two global links are used.  Repeated
/// switches are allowed — VLB walks legitimately revisit switches (see
/// [`all_vlb_paths`]).
pub fn validate_path(topo: &Dragonfly, p: &Path) -> Result<(), ValidationError> {
    for i in 0..p.hops() {
        let (u, v) = p.hop(i);
        if topo.channel_between(u, v).is_none() {
            return Err(ValidationError::MissingChannel(i));
        }
    }
    let g = p.global_hops(topo);
    if g > 2 {
        return Err(ValidationError::TooManyGlobalHops(g));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tugal_topology::DragonflyParams;

    fn topo(p: u32, a: u32, h: u32, g: u32) -> Dragonfly {
        Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap()
    }

    #[test]
    fn min_same_switch_and_same_group() {
        let t = topo(2, 4, 2, 9);
        let p = min_paths(&t, SwitchId(0), SwitchId(0));
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].hops(), 0);
        let p = min_paths(&t, SwitchId(0), SwitchId(3));
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].hops(), 1);
    }

    #[test]
    fn min_inter_group_one_per_link() {
        // dfly(2,4,2,9) is maximal: one link per group pair -> one MIN path.
        let t = topo(2, 4, 2, 9);
        let p = min_paths(&t, SwitchId(0), SwitchId(4));
        assert_eq!(p.len(), 1);
        assert!(p[0].hops() <= 3 && p[0].hops() >= 1);
        assert_eq!(p[0].global_hops(&t), 1);

        // dfly(2,4,2,3): 4 links per pair -> 4 MIN paths.
        let t = topo(2, 4, 2, 3);
        let p = min_paths(&t, SwitchId(0), SwitchId(4));
        assert_eq!(p.len(), 4);
        for path in &p {
            assert_eq!(path.global_hops(&t), 1);
            validate_path(&t, path).unwrap();
        }
    }

    #[test]
    fn min_hop_count_range_paper() {
        // "A typical minimal path ... 3 hops; may have fewer depending on
        // the positions of the source and the destination."
        let t = topo(4, 8, 4, 9);
        let mut lens = std::collections::BTreeSet::new();
        for d in 8..16 {
            for s in 0..8 {
                for p in min_paths(&t, SwitchId(s), SwitchId(d)) {
                    lens.insert(p.hops());
                }
            }
        }
        assert!(lens.contains(&3));
        assert!(lens.iter().all(|&l| (1..=3).contains(&l)));
    }

    #[test]
    fn vlb_paths_have_two_global_hops_and_2_to_6_length() {
        let t = topo(4, 8, 4, 9);
        let vlb = all_vlb_paths(&t, SwitchId(0), SwitchId(9));
        assert!(!vlb.is_empty());
        for p in &vlb {
            assert_eq!(p.global_hops(&t), 2, "{p:?}");
            assert!((2..=6).contains(&p.hops()), "{p:?}");
            validate_path(&t, p).unwrap();
            assert_eq!(p.src(), SwitchId(0));
            assert_eq!(p.dst(), SwitchId(9));
        }
    }

    #[test]
    fn vlb_avoids_endpoint_groups_as_intermediate() {
        let t = topo(2, 4, 2, 9);
        let s = SwitchId(0);
        let d = SwitchId(4);
        for p in all_vlb_paths(&t, s, d) {
            // Some switch strictly outside both endpoint groups is visited.
            assert!(p
                .switches()
                .any(|x| t.group_of(x) != t.group_of(s) && t.group_of(x) != t.group_of(d)));
        }
    }

    #[test]
    fn vlb_deduplication() {
        let t = topo(2, 4, 2, 3);
        let s = SwitchId(0);
        let d = SwitchId(4);
        let paths = all_vlb_paths(&t, s, d);
        for (k, p) in paths.iter().enumerate() {
            assert!(!paths[..k].contains(p), "duplicate {p:?} survived dedup");
        }
    }

    #[test]
    fn vlb_count_matches_structure_for_maximal_topology() {
        // Maximal topology: 1 link per group pair, so exactly one MIN path
        // per (ordered) switch pair across groups.  VLB paths via switch i:
        // 1 x 1.  Intermediates: (g-2)*a = 28 switches; dedup can only
        // remove paths when distinct intermediates yield identical sequences
        // (split-point ambiguity), so 20 < count <= 28.
        let t = topo(2, 4, 2, 9);
        let vlb = all_vlb_paths(&t, SwitchId(0), SwitchId(4));
        assert!(vlb.len() <= 7 * 4, "got {}", vlb.len());
        assert!(vlb.len() > 20, "got {}", vlb.len());
    }

    #[test]
    fn same_group_vlb_walks_exist_on_maximal_topology() {
        // With one cable per group pair, a same-group VLB path must bounce
        // out and back over the same cable: a non-simple walk.  These must
        // be kept or same-group pairs would have no VLB candidates at all.
        let t = topo(2, 4, 2, 9);
        let vlb = all_vlb_paths(&t, SwitchId(0), SwitchId(1));
        assert!(!vlb.is_empty());
        assert!(vlb.iter().any(|p| !p.is_simple()));
        for p in &vlb {
            validate_path(&t, p).unwrap();
            assert_eq!(p.global_hops(&t), 2);
        }
    }

    #[test]
    fn typical_vlb_is_six_hops() {
        let t = topo(4, 8, 4, 33);
        let vlb = all_vlb_paths(&t, SwitchId(0), SwitchId(8));
        let six = vlb.iter().filter(|p| p.hops() == 6).count();
        // In a maximal topology most VLB paths are the full l-g-l-l-g-l.
        assert!(six * 2 > vlb.len());
    }

    #[test]
    fn validate_rejects_bad_paths() {
        let t = topo(2, 4, 2, 3);
        // Unconnected hop: two switches in different groups without a link.
        let mut missing = None;
        'outer: for s in 4..8 {
            for d in 8..12 {
                if t.channel_between(SwitchId(s), SwitchId(d)).is_none() {
                    missing = Some((s, d));
                    break 'outer;
                }
            }
        }
        let (s, d) = missing.expect("expected some unlinked cross-group pair");
        let p = Path::from_switches(&[SwitchId(s), SwitchId(d)]);
        assert_eq!(
            validate_path(&t, &p),
            Err(ValidationError::MissingChannel(0))
        );
        // A walk with repeated switches is fine as long as it is wired.
        let p = Path::from_switches(&[SwitchId(0), SwitchId(1), SwitchId(0)]);
        assert_eq!(validate_path(&t, &p), Ok(()));
    }
}
