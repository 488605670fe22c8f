//! Differential tests of fault-aware path enumeration and table
//! degradation.
//!
//! The pinned contracts:
//!
//! * an **empty** fault set changes nothing — degraded construction and
//!   in-place degradation reproduce the pristine tables byte-for-byte;
//! * degraded enumeration equals the alive-filter of pristine enumeration
//!   *in the same order* (surviving paths are regenerated at the same
//!   surviving generation points);
//! * in-place [`PathTable::degrade`] of an all-paths table equals building
//!   the table from the degraded view directly;
//! * after degradation every remaining path is alive, and a custom-subset
//!   pair whose candidates all died is regenerated from the surviving
//!   candidate pool instead of losing adaptivity.

use tugal_routing::{
    all_vlb_paths, all_vlb_paths_degraded, min_paths, min_paths_degraded, path_alive, PathTable,
    VlbRule,
};
use tugal_topology::{Dragonfly, DragonflyParams, FaultSet, SwitchId};

fn topo() -> Dragonfly {
    Dragonfly::new(DragonflyParams::new(2, 4, 2, 5)).unwrap()
}

/// Byte-level table fingerprint (the `Debug` form covers every field).
fn bytes(t: &PathTable) -> String {
    format!("{t:?}")
}

const RULES: [VlbRule; 3] = [
    VlbRule::All,
    VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.6,
    },
    VlbRule::Strategic { first_seg: 2 },
];

#[test]
fn empty_faults_build_byte_identical_tables() {
    let t = topo();
    let deg = t.degrade(&FaultSet::empty());
    assert_eq!(
        bytes(&PathTable::build_all(&t)),
        bytes(&PathTable::build_all_degraded(&t, &deg)),
        "all-paths construction must not depend on the (empty) degraded view"
    );
    for rule in RULES {
        assert_eq!(
            bytes(&PathTable::build_with_rule(&t, rule, 0x7065)),
            bytes(&PathTable::build_with_rule_degraded(&t, &deg, rule, 0x7065)),
            "{rule:?}: rule construction must not depend on the (empty) degraded view"
        );
    }
}

#[test]
fn empty_faults_degrade_in_place_to_a_no_op() {
    let t = topo();
    let deg = t.degrade(&FaultSet::empty());
    for rule in RULES {
        let pristine = PathTable::build_with_rule(&t, rule, 0x7065);
        let mut table = pristine.clone();
        let rep = table.degrade(&deg, rule, 0x7065);
        assert_eq!(bytes(&pristine), bytes(&table), "{rule:?}");
        assert_eq!(rep.removed_min, 0);
        assert_eq!(rep.removed_vlb, 0);
        assert_eq!(rep.regenerated_pairs, 0);
        assert_eq!(rep.unreachable_pairs, 0);
    }
}

/// A mixed fault set: sampled global cables plus one dead switch.
fn faults(t: &Dragonfly) -> FaultSet {
    let mut f = FaultSet::sample_global_links(t, 0.10, 0xBEEF);
    f.fail_switch(SwitchId(5));
    f
}

#[test]
fn degraded_enumeration_is_the_alive_filter_of_pristine_in_order() {
    let t = topo();
    let deg = t.degrade(&faults(&t));
    for s in 0..t.num_switches() as u32 {
        for d in 0..t.num_switches() as u32 {
            let (s, d) = (SwitchId(s), SwitchId(d));
            if s == d {
                continue;
            }
            let filter = |paths: Vec<tugal_routing::Path>| -> Vec<tugal_routing::Path> {
                if deg.switch_dead(s) || deg.switch_dead(d) {
                    return Vec::new();
                }
                paths
                    .into_iter()
                    .filter(|p| path_alive(&t, &deg, p))
                    .collect()
            };
            assert_eq!(
                min_paths_degraded(&t, &deg, s, d),
                filter(min_paths(&t, s, d)),
                "MIN {s}->{d}"
            );
            assert_eq!(
                all_vlb_paths_degraded(&t, &deg, s, d),
                filter(all_vlb_paths(&t, s, d)),
                "VLB {s}->{d}"
            );
        }
    }
}

#[test]
fn in_place_degrade_matches_degraded_construction() {
    let t = topo();
    let deg = t.degrade(&faults(&t));
    let mut table = PathTable::build_all(&t);
    let rep = table.degrade(&deg, VlbRule::All, 0);
    assert!(rep.removed_min > 0, "the fault set must bite");
    assert!(rep.removed_vlb > 0);
    assert_eq!(
        bytes(&table),
        bytes(&PathTable::build_all_degraded(&t, &deg)),
        "filtering the pristine table must equal building from the degraded view"
    );
}

#[test]
fn degraded_tables_contain_only_alive_paths() {
    let t = topo();
    let deg = t.degrade(&faults(&t));
    for rule in RULES {
        let mut table = PathTable::build_with_rule(&t, rule, 0x7065);
        let rep = table.degrade(&deg, rule, 0x7065);
        assert_eq!(rep.pairs, t.num_switches() * (t.num_switches() - 1));
        for s in 0..t.num_switches() as u32 {
            for d in 0..t.num_switches() as u32 {
                let (s, d) = (SwitchId(s), SwitchId(d));
                if s == d {
                    continue;
                }
                let (min, vlb) = (table.min(s, d), table.vlb(s, d));
                let (min_len, vlb_len) = (min.len(), vlb.len());
                for p in min.chain(vlb) {
                    assert!(
                        path_alive(&t, &deg, &p),
                        "{rule:?}: dead path survived degrade for {s}->{d}"
                    );
                }
                // Pairs with both endpoints alive stay reachable on this
                // small, lightly-degraded topology.
                if !deg.switch_dead(s) && !deg.switch_dead(d) {
                    assert!(min_len != 0 || vlb_len != 0, "{s}->{d}");
                }
            }
        }
    }
}

#[test]
fn custom_subset_pairs_regenerate_from_survivors() {
    let t = topo();
    // Scan seeds until a fault set kills some pair's entire custom VLB
    // subset while survivors exist — the regeneration path.
    for seed in 0..64u64 {
        for rule in [
            VlbRule::ClassLimit {
                max_hops: 3,
                frac_next: 0.0,
            },
            VlbRule::ClassLimit {
                max_hops: 2,
                frac_next: 0.0,
            },
        ] {
            let faults = FaultSet::sample_global_links(&t, 0.15, seed);
            let deg = t.degrade(&faults);
            let mut table = PathTable::build_with_rule(&t, rule, 0x7065);
            let rep = table.degrade(&deg, rule, 0x7065);
            if rep.regenerated_pairs == 0 {
                continue;
            }
            // Found one: every regenerated pair must hold alive candidates.
            for s in 0..t.num_switches() as u32 {
                for d in 0..t.num_switches() as u32 {
                    let (s, d) = (SwitchId(s), SwitchId(d));
                    if s == d {
                        continue;
                    }
                    for p in table.min(s, d).chain(table.vlb(s, d)) {
                        assert!(path_alive(&t, &deg, &p));
                    }
                }
            }
            assert_eq!(rep.unreachable_pairs, 0, "10% faults cannot partition this");
            return;
        }
    }
    panic!("no seed below 64 triggered T-VLB regeneration — degrade() regression?");
}
