//! The shipping format of path tables (`to_bytes` / `from_bytes`).
//!
//! * The bytes `to_bytes` writes are pinned by FNV-1a digests, so a change
//!   to how tables store or enumerate candidates cannot move a shipped
//!   table (or the draws a simulation makes from it) unnoticed.
//! * `from_bytes` accepts a table only for the topology it belongs to.

use tugal_routing::{PathTable, VlbRule};
use tugal_topology::{Dragonfly, DragonflyParams, FaultSet, SwitchId};

fn dfly(p: u32, a: u32, h: u32, g: u32) -> Dragonfly {
    Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn table_bytes_match_their_pinned_digests() {
    let rule = VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.6,
    };
    for ((p, a, h, g), all, limited) in [
        ((3, 6, 3, 7), 0x3076_73b4_9995_454d, 0xb245_8706_76fd_c472),
        ((4, 8, 4, 9), 0x3253_60da_30e5_9025, 0xffee_1d25_0b5d_be9c),
    ] {
        let t = dfly(p, a, h, g);
        let got = fnv1a(&PathTable::build_all(&t).to_bytes());
        assert_eq!(got, all, "dfly({p},{a},{h},{g}) build_all: {got:#018x}");
        let got = fnv1a(&PathTable::build_with_rule(&t, rule, 0x7065).to_bytes());
        assert_eq!(got, limited, "dfly({p},{a},{h},{g}) {rule}: {got:#018x}");
    }
}

/// Every other way to make a table on dfly(3,6,3,7): a degraded build,
/// in-place degradation of a full and of a rule-restricted table under
/// sampled cable faults and a dead switch, and a `from_bytes` round trip.
/// The faults empty some pairs of the shorter rule, so T-VLB regeneration
/// runs too.
#[test]
fn every_constructor_writes_its_pinned_bytes() {
    let rule = VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.6,
    };
    let t = dfly(3, 6, 3, 7);
    let mut faults = FaultSet::sample_global_links(&t, 0.15, 0xFA17);
    faults.fail_switch(SwitchId(7));
    let deg = t.degrade(&faults);
    let limited = PathTable::build_with_rule(&t, rule, 0x7065);
    let mut degraded_all = PathTable::build_all(&t);
    degraded_all.degrade(&deg, VlbRule::All, 0);
    let short = VlbRule::ClassLimit {
        max_hops: 3,
        frac_next: 0.3,
    };
    let mut degraded_short = PathTable::build_with_rule(&t, short, 0x7065);
    let rep = degraded_short.degrade(&deg, short, 0x7065);
    assert!(rep.regenerated_pairs > 0, "{rep:?}");
    for (what, table, want) in [
        (
            "build_all_degraded",
            PathTable::build_all_degraded(&t, &deg),
            0x9b53_7263_0260_d1b3u64,
        ),
        (
            "build_with_rule_degraded",
            PathTable::build_with_rule_degraded(&t, &deg, rule, 0x7065),
            0xf3c8_d43b_2a30_f6b0,
        ),
        ("build_all, degrade", degraded_all, 0x9b53_7263_0260_d1b3),
        (
            "build_with_rule, degrade",
            degraded_short,
            0x87c7_ecdd_a869_658d,
        ),
        (
            "from_bytes",
            PathTable::from_bytes(&t, &limited.to_bytes()).unwrap(),
            0xb245_8706_76fd_c472,
        ),
    ] {
        let got = fnv1a(&table.to_bytes());
        assert_eq!(got, want, "{what}: {got:#018x}");
    }
}

#[test]
fn a_table_of_another_topology_with_as_many_switches_is_rejected() {
    let (ours, theirs) = (dfly(1, 4, 1, 5), dfly(2, 4, 2, 5));
    assert_eq!(ours.num_switches(), theirs.num_switches());
    let bytes = PathTable::build_all(&theirs).to_bytes();
    assert!(PathTable::from_bytes(&ours, &bytes).is_none());
    assert!(PathTable::from_bytes(&theirs, &bytes).is_some());
}
