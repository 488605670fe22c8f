//! Compact switch-level path representation.

use serde::{Deserialize, Serialize};
use std::fmt;
use tugal_topology::{ChannelId, ChannelKind, Dragonfly, SwitchId};

/// Maximum number of hops a path can hold.
///
/// A VLB path has at most 6 hops; a PAR reroute prepends one local hop, so 7
/// hops (8 switches) bound every path this system produces.
pub const MAX_HOPS: usize = 7;

/// A switch-level path: the sequence of switches a packet visits.
///
/// Stored inline (no heap allocation) because path tables hold millions of
/// these.  Switch ids are stored as `u16`, which supports topologies with up
/// to 65 535 switches — far beyond the largest topology evaluated in the
/// paper (702 switches).
///
/// A path with `hops() == 0` is a single-switch path (source switch ==
/// destination switch); the packet only uses its injection and ejection
/// channels.  The `Default` path is the zero-hop path at switch 0
/// (equivalent to `Path::single(SwitchId(0))`) — a valid placeholder.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    sw: [u16; MAX_HOPS + 1],
    len: u8,
}

impl Path {
    /// A zero-hop path at a single switch.
    #[inline]
    pub fn single(s: SwitchId) -> Self {
        let mut sw = [0u16; MAX_HOPS + 1];
        sw[0] = Self::narrow(s);
        Path { sw, len: 0 }
    }

    /// Builds a path from a switch sequence (`switches.len() - 1` hops).
    ///
    /// # Panics
    /// If the sequence is empty, longer than `MAX_HOPS + 1`, or contains a
    /// switch id above `u16::MAX`.
    pub fn from_switches(switches: &[SwitchId]) -> Self {
        assert!(
            !switches.is_empty() && switches.len() <= MAX_HOPS + 1,
            "path length {} out of range",
            switches.len()
        );
        let mut sw = [0u16; MAX_HOPS + 1];
        for (slot, s) in sw.iter_mut().zip(switches) {
            *slot = Self::narrow(*s);
        }
        Path {
            sw,
            len: (switches.len() - 1) as u8,
        }
    }

    #[inline]
    fn narrow(s: SwitchId) -> u16 {
        debug_assert!(s.0 <= u16::MAX as u32, "switch id {} exceeds u16", s.0);
        s.0 as u16
    }

    /// Number of switch-to-switch hops.
    #[inline]
    pub fn hops(&self) -> usize {
        self.len as usize
    }

    /// First switch (the source switch).
    #[inline]
    pub fn src(&self) -> SwitchId {
        SwitchId(self.sw[0] as u32)
    }

    /// Last switch (the destination switch).
    #[inline]
    pub fn dst(&self) -> SwitchId {
        SwitchId(self.sw[self.len as usize] as u32)
    }

    /// The switch at position `i` (`0..=hops()`).
    #[inline]
    pub fn switch(&self, i: usize) -> SwitchId {
        debug_assert!(i <= self.len as usize);
        SwitchId(self.sw[i] as u32)
    }

    /// Iterator over the visited switches.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.sw[..=self.len as usize]
            .iter()
            .map(|&s| SwitchId(s as u32))
    }

    /// The `i`-th hop as a `(from, to)` switch pair.
    #[inline]
    pub fn hop(&self, i: usize) -> (SwitchId, SwitchId) {
        debug_assert!(i < self.len as usize);
        (SwitchId(self.sw[i] as u32), SwitchId(self.sw[i + 1] as u32))
    }

    /// Appends a switch, extending the path by one hop.
    ///
    /// # Panics
    /// If the path is already `MAX_HOPS` long.
    #[inline]
    pub fn push(&mut self, s: SwitchId) {
        assert!((self.len as usize) < MAX_HOPS, "path overflow");
        self.len += 1;
        self.sw[self.len as usize] = Self::narrow(s);
    }

    /// Appends `s` unless it is already the last switch.  Branch-free:
    /// decoding a table candidate does this at data-dependent junctions,
    /// where a branch would mispredict.
    ///
    /// # Panics
    /// If the path is already `MAX_HOPS` long.
    #[inline]
    pub(crate) fn push_distinct(&mut self, s: SwitchId) {
        let n = self.len as usize;
        assert!(n < MAX_HOPS, "path overflow");
        let s = Self::narrow(s);
        let new = s != self.sw[n];
        // Slots past the end stay zero, as `PartialEq` compares them.
        self.sw[n + 1] = if new { s } else { 0 };
        self.len += u8::from(new);
    }

    /// Concatenates two paths sharing a junction switch
    /// (`self.dst() == other.src()`).
    ///
    /// # Panics
    /// If the junction does not match or the result exceeds `MAX_HOPS`.
    pub fn concat(&self, other: &Path) -> Path {
        assert_eq!(self.dst(), other.src(), "paths do not share a junction");
        let (a, b) = (self.len as usize, other.len as usize);
        assert!(a + b <= MAX_HOPS, "path overflow");
        let mut out = *self;
        out.sw[a + 1..=a + b].copy_from_slice(&other.sw[1..=b]);
        out.len = (a + b) as u8;
        out
    }

    /// The suffix of this path starting at position `from` (a path from
    /// `switch(from)` to the destination).
    pub fn suffix(&self, from: usize) -> Path {
        debug_assert!(from <= self.len as usize);
        let mut sw = [0u16; MAX_HOPS + 1];
        let n = self.len as usize - from;
        sw[..=n].copy_from_slice(&self.sw[from..=self.len as usize]);
        Path { sw, len: n as u8 }
    }

    /// Channel kind of the `i`-th hop (local within a group, global across
    /// groups).
    #[inline]
    pub fn hop_kind(&self, topo: &Dragonfly, i: usize) -> ChannelKind {
        let (u, v) = self.hop(i);
        if topo.group_of(u) == topo.group_of(v) {
            ChannelKind::Local
        } else {
            ChannelKind::Global
        }
    }

    /// The directed channel of the `i`-th hop.  For parallel global links
    /// the first (lowest-id) channel is returned; the topology generator
    /// never produces parallel links between the *same switch pair* for the
    /// paper's configurations, so this is unambiguous there.
    #[inline]
    pub fn channel_at(&self, topo: &Dragonfly, i: usize) -> ChannelId {
        let (u, v) = self.hop(i);
        topo.channel_between(u, v)
            .expect("path hop without a channel")
    }

    /// All channels along the path.
    pub fn channels<'a>(&'a self, topo: &'a Dragonfly) -> impl Iterator<Item = ChannelId> + 'a {
        (0..self.hops()).map(move |i| self.channel_at(topo, i))
    }

    /// Number of global hops on the path.
    pub fn global_hops(&self, topo: &Dragonfly) -> usize {
        (0..self.hops())
            .filter(|&i| self.hop_kind(topo, i) == ChannelKind::Global)
            .count()
    }

    /// True if no switch is visited twice.
    ///
    /// Composing two MIN paths around an intermediate switch can produce a
    /// non-simple *walk* (the second segment may bounce back through the
    /// first segment's remote gateway).  Explicit path tables keep such
    /// walks by design: on maximal topologies every same-group VLB path is
    /// one (see [`crate::all_vlb_paths`]).
    pub fn is_simple(&self) -> bool {
        let n = self.len as usize + 1;
        for i in 0..n {
            for j in i + 1..n {
                if self.sw[i] == self.sw[j] {
                    return false;
                }
            }
        }
        true
    }

    /// True if every hop corresponds to an existing channel.
    pub fn is_wired(&self, topo: &Dragonfly) -> bool {
        (0..self.hops()).all(|i| {
            let (u, v) = self.hop(i);
            topo.channel_between(u, v).is_some()
        })
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.switches().enumerate() {
            if i > 0 {
                write!(f, "->")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(v: u32) -> SwitchId {
        SwitchId(v)
    }

    #[test]
    fn build_and_query() {
        let p = Path::from_switches(&[sid(1), sid(2), sid(9)]);
        assert_eq!(p.hops(), 2);
        assert_eq!(p.src(), sid(1));
        assert_eq!(p.dst(), sid(9));
        assert_eq!(p.hop(0), (sid(1), sid(2)));
        assert_eq!(p.hop(1), (sid(2), sid(9)));
        assert_eq!(
            p.switches().collect::<Vec<_>>(),
            vec![sid(1), sid(2), sid(9)]
        );
        assert_eq!(format!("{p:?}"), "[s1->s2->s9]");
    }

    #[test]
    fn single_switch_path() {
        let p = Path::single(sid(4));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.src(), p.dst());
    }

    #[test]
    fn concat_and_suffix() {
        let a = Path::from_switches(&[sid(0), sid(1)]);
        let b = Path::from_switches(&[sid(1), sid(5), sid(6)]);
        let c = a.concat(&b);
        assert_eq!(c.hops(), 3);
        assert_eq!(
            c.switches().collect::<Vec<_>>(),
            vec![sid(0), sid(1), sid(5), sid(6)]
        );
        let s = c.suffix(1);
        assert_eq!(
            s.switches().collect::<Vec<_>>(),
            vec![sid(1), sid(5), sid(6)]
        );
        let whole = c.suffix(0);
        assert_eq!(whole, c);
        let end = c.suffix(3);
        assert_eq!(end.hops(), 0);
        assert_eq!(end.src(), sid(6));
    }

    #[test]
    #[should_panic(expected = "junction")]
    fn concat_rejects_mismatched_junction() {
        let a = Path::from_switches(&[sid(0), sid(1)]);
        let b = Path::from_switches(&[sid(2), sid(3)]);
        let _ = a.concat(&b);
    }

    #[test]
    #[should_panic(expected = "path overflow")]
    fn push_rejects_overflow() {
        let mut p = Path::from_switches(&[
            sid(0),
            sid(1),
            sid(2),
            sid(3),
            sid(4),
            sid(5),
            sid(6),
            sid(7),
        ]);
        p.push(sid(8));
    }

    #[test]
    fn path_is_copy_and_compact() {
        assert!(std::mem::size_of::<Path>() <= 18);
        let p = Path::single(sid(1));
        let q = p; // Copy
        assert_eq!(p, q);
    }
}
