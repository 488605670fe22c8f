//! Virtual-channel classes for deadlock freedom.
//!
//! A routing scheme on Dragonfly is deadlock-free if the (channel, VC)
//! dependency graph is acyclic.  Both schemes below assign every hop of a
//! path a *VC class* that strictly increases along the path **per channel
//! type**; since local and global channels are disjoint resources, any cycle
//! in the dependency graph would have to revisit some channel type at the
//! same or lower class, which the monotone assignment forbids.
//!
//! * [`VcScheme::Compact`] — the allocation of Won et al. (HPCA'15) that the
//!   paper uses: the class of a hop is the number of *earlier hops of the
//!   same type* on the path.  A VLB path is at worst `l g l l g l`, i.e. 4
//!   local classes and 2 global classes, so **4 VCs** suffice for UGAL-L and
//!   UGAL-G.  A PAR reroute prepends one extra local hop in the source
//!   group, requiring **5 VCs** — exactly the paper's Table 3 values.
//! * [`VcScheme::PerHop`] — "a new virtual channel every hop", the simple
//!   scheme the paper calls `routing(6)` in Figure 18: the class is the hop
//!   index, so 6 VCs for a full VLB path.

use crate::path::Path;
use serde::Serialize;
use tugal_topology::{ChannelKind, Dragonfly};

/// Virtual-channel allocation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum VcScheme {
    /// Won et al. compact scheme (4 VCs for UGAL, 5 for PAR).
    Compact,
    /// New VC every hop (`routing(6)` in Figure 18).
    PerHop,
}

/// VC class of hop `hop_idx` of `path`.
///
/// `taken_local` / `taken_global` are the numbers of local/global hops the
/// packet took *before entering this path* — zero except after a PAR
/// reroute, where the packet has already taken one local hop that its new
/// path does not contain.
pub fn vc_class(
    scheme: VcScheme,
    topo: &Dragonfly,
    path: &Path,
    hop_idx: usize,
    taken_local: u8,
    taken_global: u8,
) -> u8 {
    debug_assert!(hop_idx < path.hops());
    match scheme {
        VcScheme::Compact => {
            let kind = path.hop_kind(topo, hop_idx);
            let mut same = match kind {
                ChannelKind::Local => taken_local,
                _ => taken_global,
            };
            for i in 0..hop_idx {
                if path.hop_kind(topo, i) == kind {
                    same += 1;
                }
            }
            same
        }
        VcScheme::PerHop => taken_local + taken_global + hop_idx as u8,
    }
}

/// Number of VCs a configuration must provision to be deadlock free.
///
/// `progressive` is true for PAR, which can take one extra source-group hop.
pub fn required_vcs(scheme: VcScheme, progressive: bool) -> u8 {
    match (scheme, progressive) {
        (VcScheme::Compact, false) => 4,
        (VcScheme::Compact, true) => 5,
        (VcScheme::PerHop, false) => 6,
        (VcScheme::PerHop, true) => 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{all_vlb_paths, min_paths};
    use tugal_topology::{DragonflyParams, SwitchId};

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap()
    }

    #[test]
    fn required_vcs_match_paper_table3() {
        assert_eq!(required_vcs(VcScheme::Compact, false), 4);
        assert_eq!(required_vcs(VcScheme::Compact, true), 5);
        assert_eq!(required_vcs(VcScheme::PerHop, false), 6);
    }

    #[test]
    fn compact_classes_fit_in_required_vcs() {
        let t = topo();
        for d in [SwitchId(9), SwitchId(17), SwitchId(70)] {
            for p in all_vlb_paths(&t, SwitchId(0), d) {
                for i in 0..p.hops() {
                    let c = vc_class(VcScheme::Compact, &t, &p, i, 0, 0);
                    assert!(c < 4, "class {c} at hop {i} of {p:?}");
                }
            }
        }
    }

    #[test]
    fn perhop_classes_fit_in_required_vcs() {
        let t = topo();
        for p in all_vlb_paths(&t, SwitchId(0), SwitchId(9)) {
            for i in 0..p.hops() {
                let c = vc_class(VcScheme::PerHop, &t, &p, i, 0, 0);
                assert!(c < 6);
                assert_eq!(c as usize, i);
            }
        }
    }

    #[test]
    fn par_offset_fits_in_five_vcs() {
        // After a PAR reroute the packet took one local hop already.
        let t = topo();
        for p in all_vlb_paths(&t, SwitchId(1), SwitchId(9)) {
            for i in 0..p.hops() {
                let c = vc_class(VcScheme::Compact, &t, &p, i, 1, 0);
                assert!(c < 5, "class {c} at hop {i} of {p:?}");
            }
        }
    }

    #[test]
    fn classes_strictly_increase_per_type() {
        let t = topo();
        for p in all_vlb_paths(&t, SwitchId(0), SwitchId(30)) {
            let mut last_local: i32 = -1;
            let mut last_global: i32 = -1;
            for i in 0..p.hops() {
                let c = vc_class(VcScheme::Compact, &t, &p, i, 0, 0) as i32;
                match p.hop_kind(&t, i) {
                    ChannelKind::Local => {
                        assert!(c > last_local);
                        last_local = c;
                    }
                    _ => {
                        assert!(c > last_global);
                        last_global = c;
                    }
                }
            }
        }
    }

    #[test]
    fn min_paths_use_low_classes() {
        let t = topo();
        for p in min_paths(&t, SwitchId(0), SwitchId(9)) {
            for i in 0..p.hops() {
                assert!(vc_class(VcScheme::Compact, &t, &p, i, 0, 0) < 2);
            }
        }
    }
}
