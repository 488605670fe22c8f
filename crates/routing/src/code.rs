//! Packed candidate codes: the one place that knows how a tabulated MIN or
//! VLB candidate is stored.
//!
//! A candidate of the ordered pair `(s, d)` is fully named, given the
//! topology, by the gateway links it crosses (as in a topology that
//! derives routes from arithmetic instead of storing them), so a table
//! stores a 4-byte code per candidate and decodes it to a [`Path`] only
//! when it is drawn or inspected:
//!
//! * **MIN** — the index `k` of the global link in the pristine
//!   `topo.gateways(g_s, g_d)` list; `0` for a same-group or zero-hop pair.
//! * **VLB** — `i | k1 << 16 | k2 << 24`: the intermediate switch `i`
//!   (`u16`) and the gateway indices of the two MIN segments `s → i` and
//!   `i → d` in the pristine lists `gateways(g_s, g_i)` and
//!   `gateways(g_i, g_d)`.
//!
//! Indices always refer to the *pristine* lists, so a code means the same
//! path in every degraded view.  Parallel cables (`global_lag > 1`) yield
//! the same switch sequence; a code always names the first cable of its
//! run (the canonical index), so `encode(decode(c)) == c` for every
//! stored code.
//!
//! A table decodes through its [`Codec`], a copy of the topology's gateway
//! lists and switch groups packed into small arrays; the `encode_*`
//! functions, which run only when a shipped table is loaded, read the
//! topology itself.

use crate::enumerate::{extend_gateway, gateway_path};
use crate::path::Path;
use tugal_topology::{Dragonfly, GroupId, SwitchId};

/// Packs a VLB code.
///
/// # Panics
/// If a gateway index exceeds `u8` or the intermediate exceeds `u16`
/// (no tabulated paper topology comes close).
#[inline]
pub(crate) fn vlb(i: SwitchId, k1: usize, k2: usize) -> u32 {
    assert!(
        k1 <= u8::MAX as usize && k2 <= u8::MAX as usize,
        "gateway index {} exceeds u8",
        k1.max(k2)
    );
    assert!(i.0 <= u16::MAX as u32, "switch id {} exceeds u16", i.0);
    i.0 | ((k1 as u32) << 16) | ((k2 as u32) << 24)
}

/// Packs a MIN code.
///
/// # Panics
/// If the gateway index exceeds `u8` (see [`vlb`]).
#[inline]
pub(crate) fn min(k: usize) -> u32 {
    assert!(k <= u8::MAX as usize, "gateway index {k} exceeds u8");
    k as u32
}

/// The decoding table of one topology: its pristine gateway lists packed
/// into one small array, and each switch's group.
///
/// Decoding runs once per routing draw, between the engine's own memory
/// accesses, so it reads a few lines of these arrays (about 1.6 KiB on
/// `dfly(4,8,4,9)`) instead of the topology's scattered lists.
#[derive(Clone)]
pub(crate) struct Codec {
    /// Group of each switch (a load is cheaper than dividing by `a`).
    group: Box<[u16]>,
    /// Number of groups.
    g: u32,
    /// Entry `from · g + to` (the first `g²`) is the position in this
    /// array of that group pair's first gateway link; the links follow,
    /// each `u | v << 16`, in pristine gateway order.
    tab: Box<[u32]>,
}

impl Codec {
    /// The decoding table of `topo`.
    pub(crate) fn new(topo: &Dragonfly) -> Self {
        let g = topo.num_groups() as u32;
        let mut tab = vec![0; (g * g) as usize];
        for from in 0..g {
            for to in 0..g {
                tab[(from * g + to) as usize] = tab.len() as u32;
                for &(u, v, _) in topo.gateways(GroupId(from), GroupId(to)) {
                    assert!(u.0.max(v.0) <= u16::MAX as u32, "switch id exceeds u16");
                    tab.push(u.0 | (v.0 << 16));
                }
            }
        }
        Codec {
            group: (0..topo.num_switches() as u32)
                .map(|s| topo.group_of(SwitchId(s)).0 as u16)
                .collect(),
            g,
            tab: tab.into_boxed_slice(),
        }
    }

    #[inline]
    fn group(&self, s: SwitchId) -> u32 {
        self.group[s.index()] as u32
    }

    /// The global link `(u, v)` behind gateway index `k` of the pristine
    /// list from `s`'s group to `d`'s.
    #[inline]
    fn link(&self, s: SwitchId, d: SwitchId, k: u32) -> (SwitchId, SwitchId) {
        let first = self.tab[(self.group(s) * self.g + self.group(d)) as usize];
        let e = self.tab[(first + k) as usize];
        (SwitchId(e & 0xFFFF), SwitchId(e >> 16))
    }

    /// Decodes a MIN code of the pair `(s, d)`.
    #[inline]
    pub(crate) fn decode_min(&self, s: SwitchId, d: SwitchId, c: u32) -> Path {
        min_path(s, d, self.group(s) == self.group(d), || self.link(s, d, c))
    }

    /// Decodes a VLB code of the pair `(s, d)`: the segment `s → i`,
    /// extended in place by the segment `i → d` (one pass, no
    /// `Path::concat` copy).
    #[inline]
    pub(crate) fn decode_vlb(&self, s: SwitchId, d: SwitchId, c: u32) -> Path {
        let i = SwitchId(c & 0xFFFF);
        let (u1, v1) = self.link(s, i, (c >> 16) & 0xFF);
        let (u2, v2) = self.link(i, d, c >> 24);
        let mut p = gateway_path(s, u1, v1, i);
        extend_gateway(&mut p, u2, v2, d);
        p
    }

    /// Hop count of the VLB path of code `c` for the pair `(s, d)`,
    /// without building it.
    #[inline]
    pub(crate) fn vlb_hops(&self, s: SwitchId, d: SwitchId, c: u32) -> usize {
        let i = SwitchId(c & 0xFFFF);
        let (u1, v1) = self.link(s, i, (c >> 16) & 0xFF);
        let (u2, v2) = self.link(i, d, c >> 24);
        [u1 != s, v1 != i, u2 != i, v2 != d]
            .into_iter()
            .filter(|&b| b)
            .count()
            + 2
    }

    /// The first-segment hop counts at which the VLB path of code `c`
    /// splits into two MIN paths around a valid intermediate (the
    /// [`crate::split_lengths`] of the decoded path), read from the code.
    ///
    /// The code's own split is always one.  The only other arises when
    /// the stretch inside the intermediate group is a single local hop:
    /// both of its ends are then valid intermediates, and the other end
    /// moves that hop to the other segment.
    pub(crate) fn first_segment_hops(
        &self,
        s: SwitchId,
        d: SwitchId,
        c: u32,
    ) -> (usize, Option<usize>) {
        let i = SwitchId(c & 0xFFFF);
        let (u1, v1) = self.link(s, i, (c >> 16) & 0xFF);
        let (u2, _) = self.link(i, d, c >> 24);
        let first = usize::from(u1 != s) + 1 + usize::from(v1 != i);
        // Exactly one of `v1 → i` and `i → u2` is a hop: the stretch is
        // one local hop, and splitting at its other end moves it across.
        let other = match (v1 != i, i != u2) {
            (true, false) => Some(first - 1),
            (false, true) => Some(first + 1),
            _ => None,
        };
        (first, other)
    }
}

/// [`Codec::decode_min`] straight from the topology, for one-off
/// enumeration where building a [`Codec`] would cost more than it saves.
pub(crate) fn decode_min(topo: &Dragonfly, s: SwitchId, d: SwitchId, c: u32) -> Path {
    let (gs, gd) = (topo.group_of(s), topo.group_of(d));
    min_path(s, d, gs == gd, || {
        let (u, v, _) = topo.gateways(gs, gd)[c as usize];
        (u, v)
    })
}

/// The MIN path of a pair: zero-hop, one local hop, or over the global
/// link that `link` looks up.
#[inline]
fn min_path(
    s: SwitchId,
    d: SwitchId,
    same_group: bool,
    link: impl FnOnce() -> (SwitchId, SwitchId),
) -> Path {
    if s == d {
        Path::single(s)
    } else if same_group {
        Path::from_switches(&[s, d])
    } else {
        let (u, v) = link();
        gateway_path(s, u, v, d)
    }
}

/// The canonical MIN code of `p` for the pair `(s, d)`, or `None` when `p`
/// is not a MIN path of the topology from `s` to `d`.
pub(crate) fn encode_min(topo: &Dragonfly, s: SwitchId, d: SwitchId, p: &Path) -> Option<u32> {
    if p.src() != s || p.dst() != d {
        return None;
    }
    if s == d || topo.group_of(s) == topo.group_of(d) {
        return (*p == decode_min(topo, s, d, 0)).then_some(0);
    }
    let gws = topo.gateways(topo.group_of(s), topo.group_of(d));
    let k = gws
        .iter()
        .position(|&(u, v, _)| gateway_path(s, u, v, d) == *p)?;
    u8::try_from(k).ok().map(u32::from)
}

/// The canonical VLB code of `p` for the pair `(s, d)`, or `None` when `p`
/// is not a VLB candidate of the topology: two MIN segments around an
/// intermediate outside both endpoint groups, split where the enumeration
/// keeps it (at the lower-id end of a one-hop stretch in the intermediate
/// group).
pub(crate) fn encode_vlb(topo: &Dragonfly, s: SwitchId, d: SwitchId, p: &Path) -> Option<u32> {
    if p.src() != s || p.dst() != d {
        return None;
    }
    let cross = |h: usize| {
        let (u, v) = p.hop(h);
        topo.group_of(u) != topo.group_of(v)
    };
    let mut globals = (0..p.hops()).filter(|&h| cross(h));
    let (a, b) = (globals.next()?, globals.next()?);
    if globals.next().is_some() {
        return None;
    }
    // The stretch inside the intermediate group runs from position a + 1
    // (the first segment's entry switch) to b (the second's exit switch).
    let at = match b - (a + 1) {
        0 => a + 1,
        1 if p.switch(a + 1) < p.switch(b) => a + 1,
        1 => b,
        2 => a + 2,
        _ => return None,
    };
    let i = p.switch(at);
    let gi = topo.group_of(i);
    if gi == topo.group_of(s) || gi == topo.group_of(d) {
        return None;
    }
    let seg = |from: usize, to: usize| {
        let switches: Vec<SwitchId> = (from..=to).map(|k| p.switch(k)).collect();
        Path::from_switches(&switches)
    };
    let k1 = encode_min(topo, s, i, &seg(0, at))?;
    let k2 = encode_min(topo, i, d, &seg(at, p.hops()))?;
    Some(i.0 | (k1 << 16) | (k2 << 24))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::PathTable;
    use tugal_topology::{ArrangementSpec, DragonflyParams, FaultSet};

    /// Every stored code re-encodes to itself from its decoded path, and
    /// the hop count and split lengths read from a code match the decoded
    /// path's: five shapes × every zoo arrangement × lag {1,2,3}, pristine
    /// and under sampled cable faults plus one dead switch.
    #[test]
    fn every_table_code_round_trips_through_its_path() {
        for (p, a, h, g) in [
            (2, 4, 2, 5),
            (2, 4, 2, 3),
            (2, 4, 2, 9),
            (3, 6, 3, 7),
            (2, 6, 2, 4),
        ] {
            for spec in ArrangementSpec::zoo(0x0AC1E) {
                for lag in 1..=3 {
                    let params = DragonflyParams::new(p, a, h, g);
                    let t = Dragonfly::with_shape(params, spec.build().as_ref(), lag).unwrap();
                    let mut faults = FaultSet::sample_global_links(&t, 0.15, 0xFA17);
                    faults.fail_switch(SwitchId(t.num_switches() as u32 / 2 + 1));
                    let deg = t.degrade(&faults);
                    for table in [
                        PathTable::build_all(&t),
                        PathTable::build_all_degraded(&t, &deg),
                    ] {
                        check_codes(&t, &table, &format!("{params} {spec} lag{lag}"));
                    }
                }
            }
        }
    }

    fn check_codes(t: &Dragonfly, table: &PathTable, tag: &str) {
        let n = t.num_switches() as u32;
        let codec = Codec::new(t);
        for (s, d) in (0..n).flat_map(|s| (0..n).map(move |d| (SwitchId(s), SwitchId(d)))) {
            let pp = table.codes(s, d);
            for &c in pp.min.iter() {
                let p = codec.decode_min(s, d, c);
                assert_eq!(encode_min(t, s, d, &p), Some(c), "{tag} MIN {s}->{d} {p:?}");
            }
            for &c in pp.vlb.iter() {
                let p = codec.decode_vlb(s, d, c);
                assert_eq!(encode_vlb(t, s, d, &p), Some(c), "{tag} VLB {s}->{d} {p:?}");
                assert_eq!(codec.vlb_hops(s, d, c), p.hops(), "{tag} {p:?}");
                let (first, other) = codec.first_segment_hops(s, d, c);
                let mut from_code: Vec<usize> = other.into_iter().chain([first]).collect();
                from_code.sort_unstable();
                assert_eq!(from_code, crate::split_lengths(t, &p), "{tag} {p:?}");
            }
        }
    }

    #[test]
    fn non_candidates_do_not_encode() {
        let t = Dragonfly::new(DragonflyParams::new(2, 4, 2, 5)).unwrap();
        let (s, d) = (SwitchId(0), SwitchId(9));
        let vlb = PathTable::build_all(&t).vlb(s, d).next().unwrap();
        // A VLB path is no MIN path, a MIN path no VLB path, and neither
        // belongs to another pair.
        assert_eq!(encode_min(&t, s, d, &vlb), None);
        let min = Codec::new(&t).decode_min(s, d, 0);
        assert_eq!(encode_vlb(&t, s, d, &min), None);
        assert_eq!(encode_vlb(&t, s, SwitchId(8), &vlb), None);
        // A same-group detour is no MIN path.
        let detour = Path::from_switches(&[SwitchId(0), SwitchId(1), SwitchId(2)]);
        assert_eq!(encode_min(&t, SwitchId(0), SwitchId(2), &detour), None);
    }
}
