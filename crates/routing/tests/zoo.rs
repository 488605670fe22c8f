//! Path enumeration across the topology zoo.
//!
//! The pinned contracts:
//!
//! * on every arrangement × lag, every enumerated MIN/VLB path validates
//!   against the topology (channels exist, hop classes are legal);
//! * cross-group pairs have exactly `links_per_group_pair()` MIN paths —
//!   the gateway sets, and with them MIN diversity, grow by the lag
//!   factor;
//! * `global_lag = 2` exactly doubles MIN diversity relative to the same
//!   arrangement at lag 1, and strictly enlarges the all-VLB set;
//! * path tables build and reach every pair on every zoo shape, and
//!   degradation of a single lag sibling leaves its partner sibling's
//!   MIN path alive.

use tugal_routing::{
    all_vlb_paths, min_paths, min_paths_degraded, path_alive, validate_path, PathTable,
};
use tugal_topology::{ArrangementSpec, Dragonfly, DragonflyParams, FaultSet, SwitchId};

fn shape(spec: &ArrangementSpec, lag: u32) -> Dragonfly {
    let params = DragonflyParams::new(2, 4, 2, 5);
    Dragonfly::with_shape(params, spec.build().as_ref(), lag).unwrap()
}

/// Switch pairs covering same-switch, same-group and cross-group cases.
fn probe_pairs(t: &Dragonfly) -> Vec<(SwitchId, SwitchId)> {
    let n = t.num_switches() as u32;
    vec![
        (SwitchId(0), SwitchId(0)),
        (SwitchId(0), SwitchId(1)),
        (SwitchId(0), SwitchId(n / 2)),
        (SwitchId(2), SwitchId(n - 1)),
        (SwitchId(n - 1), SwitchId(0)),
    ]
}

#[test]
fn every_zoo_shape_enumerates_valid_paths_with_lag_scaled_min_diversity() {
    for spec in ArrangementSpec::zoo(0x2007) {
        for lag in [1u32, 2] {
            let t = shape(&spec, lag);
            let tag = format!("{spec} lag{lag}");
            for (s, d) in probe_pairs(&t) {
                let mins = min_paths(&t, s, d);
                for p in &mins {
                    validate_path(&t, p).unwrap_or_else(|e| panic!("{tag}: {s}->{d}: {e:?}"));
                }
                if t.group_of(s) != t.group_of(d) {
                    assert_eq!(
                        mins.len() as u32,
                        t.links_per_group_pair(),
                        "{tag}: MIN diversity {s}->{d}"
                    );
                }
                for p in all_vlb_paths(&t, s, d) {
                    validate_path(&t, &p).unwrap_or_else(|e| panic!("{tag}: {s}->{d}: {e:?}"));
                }
            }
        }
    }
}

#[test]
fn lag_two_doubles_min_but_not_the_distinct_vlb_set() {
    for spec in ArrangementSpec::zoo(0x2007) {
        let (t1, t2) = (shape(&spec, 1), shape(&spec, 2));
        assert_eq!(t2.links_per_group_pair(), 2 * t1.links_per_group_pair());
        for (s, d) in probe_pairs(&t1) {
            if t1.group_of(s) == t1.group_of(d) {
                continue;
            }
            // MIN enumeration is per-cable: each lag sibling contributes a
            // candidate (the paper's gateway diversity grows by the lag
            // factor)...
            assert_eq!(
                min_paths(&t2, s, d).len(),
                2 * min_paths(&t1, s, d).len(),
                "{spec}: {s}->{d}"
            );
            // ...while `all_vlb_paths` deduplicates by switch sequence, so
            // the *distinct* VLB set is lag-invariant (siblings traverse
            // the same switches).
            assert_eq!(
                all_vlb_paths(&t2, s, d),
                all_vlb_paths(&t1, s, d),
                "{spec}: {s}->{d}"
            );
        }
    }
}

#[test]
fn tables_build_and_reach_every_pair_on_every_zoo_shape() {
    for spec in ArrangementSpec::zoo(0x2007) {
        for lag in [1u32, 2] {
            let t = shape(&spec, lag);
            let table = PathTable::build_all(&t);
            for s in 0..t.num_switches() as u32 {
                for d in 0..t.num_switches() as u32 {
                    if s == d {
                        continue;
                    }
                    let (s, d) = (SwitchId(s), SwitchId(d));
                    assert!(
                        table.min(s, d).len() != 0,
                        "{spec} lag{lag}: no MIN for {s}->{d}"
                    );
                    assert!(
                        table.vlb(s, d).len() != 0,
                        "{spec} lag{lag}: no VLB for {s}->{d}"
                    );
                }
            }
        }
    }
}

#[test]
fn killing_one_lag_sibling_leaves_its_partner_min_path_alive() {
    let t = shape(&ArrangementSpec::Palmtree, 2);
    // First global cable out of switch 0: its (u, v) names a lag-sibling
    // pair (lag 2 → exactly two parallel cables between switch 0 and v).
    let (_, v) = t.global_out(SwitchId(0))[0];
    let u = SwitchId(0);
    let (s, d) = (SwitchId(1), SwitchId(v.0 / t.params().a * t.params().a));
    let mins = min_paths(&t, s, d);

    // One dead sibling: per-cable enumeration drops exactly that cable's
    // candidate, but every switch sequence still carries traffic over the
    // surviving sibling, so `path_alive` keeps all pristine paths.
    let mut one = FaultSet::empty();
    one.fail_global_sibling(u, v, 0);
    let deg = t.degrade(&one);
    assert_eq!(min_paths_degraded(&t, &deg, s, d).len(), mins.len() - 1);
    assert!(mins.iter().all(|p| path_alive(&t, &deg, p)));

    // Both siblings dead: the u→v hop is gone for good, so the two
    // candidates through it die at both the enumeration and the
    // switch-sequence level.
    let mut both = FaultSet::empty();
    both.fail_global_sibling(u, v, 0);
    both.fail_global_sibling(u, v, 1);
    let deg = t.degrade(&both);
    assert_eq!(min_paths_degraded(&t, &deg, s, d).len(), mins.len() - 2);
    let alive = mins.iter().filter(|p| path_alive(&t, &deg, p)).count();
    assert_eq!(alive, mins.len() - 2);
}
