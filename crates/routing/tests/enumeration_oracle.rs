//! The structural VLB enumeration and the one-pass table build against a
//! hash-based oracle.
//!
//! The pinned contracts:
//!
//! * `all_vlb_paths` (and `_degraded`), and the VLB sets of the tables
//!   that `build_all` (and `_degraded`) builds row by row in parallel,
//!   equal, pair for pair and in order, the straightforward enumeration
//!   that composes every MIN segment pair via every intermediate and keeps
//!   the first occurrence of each switch sequence in a `HashSet` — over
//!   every zoo arrangement × `global_lag` {1,2,3} × five shapes, pristine
//!   and under sampled cable faults plus one dead switch;
//! * `build_with_rule` (and `_degraded`), which restricts each pair as it
//!   is enumerated, serializes byte for byte like `build_all` followed by
//!   `apply_rule`;
//! * the `Strategic` rule, which reads split points from packed codes,
//!   keeps exactly the paths that `split_lengths` admits;
//! * `from_bytes` re-encodes what `to_bytes` writes, on the zoo grid.

use std::collections::HashSet;
use tugal_routing::{
    all_vlb_paths, all_vlb_paths_degraded, split_lengths, vlb_paths_via, vlb_paths_via_degraded,
    Path, PathTable, VlbRule,
};
use tugal_topology::{
    ArrangementSpec, Degraded, Dragonfly, DragonflyParams, FaultSet, GroupId, SwitchId,
};

const SHAPES: [(u32, u32, u32, u32); 5] = [
    (2, 4, 2, 5),
    (2, 4, 2, 3),
    (2, 4, 2, 9),
    (3, 6, 3, 7),
    (2, 6, 2, 4),
];

/// Every VLB composite via every intermediate, deduplicated by switch
/// sequence with a hash set (first occurrence wins).
fn oracle(topo: &Dragonfly, deg: Option<&Degraded>, s: SwitchId, d: SwitchId) -> Vec<Path> {
    let dead = |x: SwitchId| deg.is_some_and(|dg| dg.switch_dead(x));
    if dead(s) || dead(d) {
        return Vec::new();
    }
    let (gs, gd) = (topo.group_of(s), topo.group_of(d));
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for gi in 0..topo.num_groups() as u32 {
        let gi = GroupId(gi);
        if gi == gs || gi == gd {
            continue;
        }
        for i in topo.switches_in_group(gi) {
            if dead(i) {
                continue;
            }
            let via = match deg {
                Some(dg) => vlb_paths_via_degraded(topo, dg, s, d, i),
                None => vlb_paths_via(topo, s, d, i),
            };
            for p in via {
                if seen.insert(p) {
                    out.push(p);
                }
            }
        }
    }
    out
}

/// Every zoo arrangement × lag {1,2,3} × shape, with its tag.
fn zoo() -> Vec<(String, Dragonfly)> {
    let mut out = Vec::new();
    for (p, a, h, g) in SHAPES {
        for spec in ArrangementSpec::zoo(0x0AC1E) {
            for lag in 1..=3 {
                let params = DragonflyParams::new(p, a, h, g);
                let t = Dragonfly::with_shape(params, spec.build().as_ref(), lag)
                    .unwrap_or_else(|e| panic!("{params} {spec} lag{lag}: {e:?}"));
                out.push((format!("{params} {spec} lag{lag}"), t));
            }
        }
    }
    out
}

/// Sampled global cables plus one dead switch.
fn faults(t: &Dragonfly) -> FaultSet {
    let mut f = FaultSet::sample_global_links(t, 0.15, 0xFA17);
    f.fail_switch(SwitchId(t.num_switches() as u32 / 2 + 1));
    f
}

fn pairs(t: &Dragonfly) -> impl Iterator<Item = (SwitchId, SwitchId)> {
    let n = t.num_switches() as u32;
    (0..n).flat_map(move |s| (0..n).map(move |d| (SwitchId(s), SwitchId(d))))
}

#[test]
fn structural_enumeration_equals_the_hash_set_oracle() {
    for (tag, t) in zoo() {
        let deg = t.degrade(&faults(&t));
        assert!(
            deg.num_dead_channels() > 0,
            "{tag}: the fault set must bite"
        );
        let (table, table_deg) = (
            PathTable::build_all(&t),
            PathTable::build_all_degraded(&t, &deg),
        );
        for (s, d) in pairs(&t).filter(|(s, d)| s != d) {
            let want = oracle(&t, None, s, d);
            assert_eq!(all_vlb_paths(&t, s, d), want, "{tag}: {s}->{d}");
            assert_eq!(
                table.vlb(s, d).collect::<Vec<_>>(),
                want,
                "{tag} table: {s}->{d}"
            );
            let want = oracle(&t, Some(&deg), s, d);
            assert_eq!(
                all_vlb_paths_degraded(&t, &deg, s, d),
                want,
                "{tag} degraded: {s}->{d}"
            );
            assert_eq!(
                table_deg.vlb(s, d).collect::<Vec<_>>(),
                want,
                "{tag} degraded table: {s}->{d}"
            );
        }
    }
}

const RULES: [VlbRule; 6] = [
    VlbRule::All,
    VlbRule::ClassLimit {
        max_hops: 3,
        frac_next: 0.0,
    },
    VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.5,
    },
    VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.6,
    },
    VlbRule::Strategic { first_seg: 2 },
    VlbRule::Strategic { first_seg: 3 },
];

#[test]
fn rule_per_pair_equals_build_all_then_apply_rule() {
    for (p, a, h, g) in SHAPES {
        let t = Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap();
        let deg = t.degrade(&faults(&t));
        let all = PathTable::build_all(&t);
        let all_deg = PathTable::build_all_degraded(&t, &deg);
        for rule in RULES {
            let mut want = all.clone();
            want.apply_rule(rule, 0x5EED);
            assert!(
                PathTable::build_with_rule(&t, rule, 0x5EED).to_bytes() == want.to_bytes(),
                "dfly({p},{a},{h},{g}) {rule:?}"
            );
            let mut want = all_deg.clone();
            want.apply_rule(rule, 0x5EED);
            assert!(
                PathTable::build_with_rule_degraded(&t, &deg, rule, 0x5EED).to_bytes()
                    == want.to_bytes(),
                "dfly({p},{a},{h},{g}) degraded {rule:?}"
            );
        }
    }
}

#[test]
fn strategic_rule_keeps_exactly_the_split_length_filter() {
    for (p, a, h, g) in SHAPES {
        let t = Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap();
        let all = PathTable::build_all(&t);
        for first_seg in [2u8, 3] {
            let table = PathTable::build_with_rule(&t, VlbRule::Strategic { first_seg }, 0);
            for (s, d) in pairs(&t).filter(|(s, d)| s != d) {
                let want: Vec<Path> = all
                    .vlb(s, d)
                    .filter(|p| {
                        p.hops() <= 4
                            || (p.hops() == 5
                                && split_lengths(&t, p).contains(&(first_seg as usize)))
                    })
                    .collect();
                assert_eq!(
                    table.vlb(s, d).collect::<Vec<_>>(),
                    want,
                    "dfly({p},{a},{h},{g}) strategic {first_seg}: {s}->{d}"
                );
            }
        }
    }
}

#[test]
fn shipping_format_round_trips_on_the_zoo() {
    for (tag, t) in zoo() {
        let deg = t.degrade(&faults(&t));
        for table in [
            PathTable::build_all(&t),
            PathTable::build_all_degraded(&t, &deg),
        ] {
            let bytes = table.to_bytes();
            let back = PathTable::from_bytes(&t, &bytes).unwrap_or_else(|| panic!("{tag}"));
            assert!(back.to_bytes() == bytes, "{tag}");
            assert_eq!(format!("{back:?}"), format!("{table:?}"), "{tag}");
        }
    }
}
