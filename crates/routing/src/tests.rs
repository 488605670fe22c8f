//! Cross-module routing tests: tables, rules, providers.

use crate::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use tugal_topology::{Dragonfly, DragonflyParams, SwitchId};

fn topo(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap())
}

#[test]
fn table_build_all_small() {
    let t = topo(2, 4, 2, 9);
    let table = PathTable::build_all(&t);
    assert_eq!(table.num_switches(), 36);
    let pp = table.pair(SwitchId(0), SwitchId(4));
    assert_eq!(pp.min.len(), 1); // maximal topology: one link per pair
    assert!(!pp.vlb.is_empty());
    // Intra-switch pair has no candidates.
    assert!(table.pair(SwitchId(0), SwitchId(0)).min.is_empty());
}

#[test]
fn class_limit_rule_shrinks_and_keeps_fraction() {
    let t = topo(2, 4, 2, 3);
    let full = PathTable::build_all(&t);
    let limited = PathTable::build_with_rule(
        &t,
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.5,
        },
        7,
    );
    let (s, d) = (SwitchId(0), SwitchId(4));
    let full_p = full.pair(s, d);
    let lim_p = limited.pair(s, d);
    let full5 = full_p.vlb.iter().filter(|p| p.hops() == 5).count();
    let lim5 = lim_p.vlb.iter().filter(|p| p.hops() == 5).count();
    let full_le4 = full_p.vlb.iter().filter(|p| p.hops() <= 4).count();
    let lim_le4 = lim_p.vlb.iter().filter(|p| p.hops() <= 4).count();
    assert_eq!(full_le4, lim_le4, "<=4-hop paths must all be kept");
    assert_eq!(lim5, (full5 as f64 * 0.5).round() as usize);
    assert!(lim_p.vlb.iter().all(|p| p.hops() <= 5));
    assert!(limited.mean_vlb_hops() < full.mean_vlb_hops());
}

#[test]
fn class_limit_rule_is_reproducible() {
    let t = topo(2, 4, 2, 3);
    let rule = VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.3,
    };
    let a = PathTable::build_with_rule(&t, rule, 42);
    let b = PathTable::build_with_rule(&t, rule, 42);
    let c = PathTable::build_with_rule(&t, rule, 43);
    let (s, d) = (SwitchId(0), SwitchId(5));
    assert_eq!(a.pair(s, d).vlb, b.pair(s, d).vlb);
    // Different seed almost surely picks a different 5-hop subset somewhere.
    let same_everywhere = (0..t.num_switches() as u32).all(|s| {
        (0..t.num_switches() as u32)
            .all(|d| a.pair(SwitchId(s), SwitchId(d)).vlb == c.pair(SwitchId(s), SwitchId(d)).vlb)
    });
    assert!(!same_everywhere);
}

#[test]
fn strategic_rule_fixes_first_segment() {
    let t = topo(4, 8, 4, 9);
    let table = PathTable::build_with_rule(&t, VlbRule::Strategic { first_seg: 2 }, 0);
    let pp = table.pair(SwitchId(0), SwitchId(9));
    assert!(!pp.vlb.is_empty());
    for p in &pp.vlb {
        assert!(p.hops() <= 5);
        if p.hops() == 5 {
            assert!(
                split_lengths_contains(&t, p, 2),
                "5-hop path {p:?} has no 2+3 decomposition"
            );
        }
    }
}

fn split_lengths_contains(t: &Dragonfly, p: &Path, k: usize) -> bool {
    crate::enumerate::split_lengths(t, p).contains(&k)
}

#[test]
fn rule_never_empties_a_pair() {
    let t = topo(2, 4, 2, 9);
    // In the maximal topology 3-hop VLB paths may not exist for some pairs;
    // the fallback must keep the shortest class instead.
    let table = PathTable::build_with_rule(
        &t,
        VlbRule::ClassLimit {
            max_hops: 2,
            frac_next: 0.0,
        },
        0,
    );
    for s in 0..36u32 {
        for d in 0..36u32 {
            if s == d {
                continue;
            }
            assert!(
                !table.pair(SwitchId(s), SwitchId(d)).vlb.is_empty(),
                "pair ({s},{d}) lost all VLB candidates"
            );
        }
    }
}

#[test]
fn table_provider_samples_from_table() {
    let t = topo(2, 4, 2, 3);
    let provider = TableProvider::all_paths(t.clone());
    let mut rng = SmallRng::seed_from_u64(1);
    let (s, d) = (SwitchId(0), SwitchId(7));
    for _ in 0..100 {
        let m = provider.sample_min(s, d, &mut rng);
        assert!(provider.pair(s, d).0.contains(&m));
        let v = provider.sample_vlb(s, d, &mut rng);
        assert!(provider.pair(s, d).1.contains(&v));
    }
    // Degenerate pair.
    let p = provider.sample_vlb(s, s, &mut rng);
    assert_eq!(p.hops(), 0);
}

#[test]
fn table_provider_pair_view_matches_consumed_table() {
    let t = topo(2, 4, 2, 3);
    let table = PathTable::build_with_rule(
        &t,
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.5,
        },
        9,
    );
    let provider = TableProvider::new(t.clone(), table.clone());
    assert_eq!(provider.mean_vlb_hops(), table.mean_vlb_hops());
    for s in 0..t.num_switches() as u32 {
        for d in 0..t.num_switches() as u32 {
            let (s, d) = (SwitchId(s), SwitchId(d));
            let (min, vlb) = provider.pair(s, d);
            assert_eq!(min, &table.pair(s, d).min[..]);
            assert_eq!(vlb, &table.pair(s, d).vlb[..]);
        }
    }
}

#[test]
fn rule_provider_matches_rule() {
    let t = topo(4, 8, 4, 9);
    let rule = VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.0,
    };
    let provider = RuleProvider::new(t.clone(), rule);
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..500 {
        let p = provider.sample_vlb(SwitchId(0), SwitchId(9), &mut rng);
        assert!(p.hops() <= 4, "{p:?}");
        assert_eq!(p.src(), SwitchId(0));
        assert_eq!(p.dst(), SwitchId(9));
    }
}

#[test]
fn rule_provider_all_matches_vlb_structure() {
    let t = topo(4, 8, 4, 9);
    let provider = RuleProvider::new(t.clone(), VlbRule::All);
    let mut rng = SmallRng::seed_from_u64(9);
    for _ in 0..500 {
        let p = provider.sample_vlb(SwitchId(3), SwitchId(40), &mut rng);
        assert!((2..=6).contains(&p.hops()));
        assert_eq!(p.global_hops(&t), 2);
    }
}

#[test]
fn rule_provider_strategic_shapes() {
    let t = topo(4, 8, 4, 9);
    let provider = RuleProvider::new(t.clone(), VlbRule::Strategic { first_seg: 3 });
    let mut rng = SmallRng::seed_from_u64(11);
    let mut saw5 = false;
    for _ in 0..500 {
        let p = provider.sample_vlb(SwitchId(0), SwitchId(9), &mut rng);
        assert!(p.hops() <= 5);
        if p.hops() == 5 {
            saw5 = true;
            assert!(split_lengths_contains(&t, &p, 3), "{p:?}");
        }
    }
    assert!(saw5);
}

#[test]
fn rule_provider_min_sampling_spreads_over_gateways() {
    let t = topo(4, 8, 4, 9); // 4 links per group pair
    let provider = RuleProvider::new(t.clone(), VlbRule::All);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut seen = Vec::new();
    for _ in 0..200 {
        let p = provider.sample_min(SwitchId(0), SwitchId(9), &mut rng);
        if !seen.contains(&p) {
            seen.push(p);
        }
        assert_eq!(p.global_hops(&t), 1);
    }
    assert_eq!(seen.len(), 4, "should hit all 4 MIN paths");
}

#[test]
fn two_group_degenerate_network() {
    let t = topo(1, 2, 1, 2);
    let provider = RuleProvider::new(t.clone(), VlbRule::All);
    let mut rng = SmallRng::seed_from_u64(2);
    // Cross-group pair has no valid intermediate group: degrade to MIN.
    let p = provider.sample_vlb(SwitchId(0), SwitchId(2), &mut rng);
    assert_eq!(p.global_hops(&t), 1);
    // Same-group pair can still detour through the other group.
    let p = provider.sample_vlb(SwitchId(0), SwitchId(1), &mut rng);
    assert!(p.hops() >= 1);
}

#[test]
fn mean_vlb_hops_reported() {
    let t = topo(2, 4, 2, 3);
    let all = TableProvider::all_paths(t.clone());
    let rule = RuleProvider::new(t.clone(), VlbRule::All);
    let a = all.mean_vlb_hops();
    let b = rule.mean_vlb_hops();
    assert!(a > 3.0 && a <= 6.0, "{a}");
    assert!(b > 3.0 && b <= 6.0, "{b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_table_paths_valid(seed in 0u64..1000) {
        let t = topo(2, 4, 2, 5);
        let table = PathTable::build_with_rule(
            &t,
            VlbRule::ClassLimit { max_hops: 4, frac_next: 0.4 },
            seed,
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::Rng;
        for _ in 0..32 {
            let s = SwitchId(rng.gen_range(0..20));
            let d = SwitchId(rng.gen_range(0..20));
            if s == d { continue; }
            let pp = table.pair(s, d);
            for p in pp.min.iter().chain(pp.vlb.iter()) {
                prop_assert!(p.is_wired(&t));
                prop_assert_eq!(p.src(), s);
                prop_assert_eq!(p.dst(), d);
            }
        }
    }

    #[test]
    fn prop_rule_provider_paths_valid(seed in 0u64..1000) {
        let t = topo(2, 4, 2, 9);
        let provider = RuleProvider::new(
            t.clone(),
            VlbRule::ClassLimit { max_hops: 4, frac_next: 0.5 },
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::Rng;
        for _ in 0..32 {
            let s = SwitchId(rng.gen_range(0..36));
            let d = SwitchId(rng.gen_range(0..36));
            let p = provider.sample_vlb(s, d, &mut rng);
            prop_assert!(p.is_wired(&t));
            prop_assert_eq!(p.src(), s);
            prop_assert_eq!(p.dst(), d);
            let m = provider.sample_min(s, d, &mut rng);
            prop_assert!(m.is_wired(&t));
            prop_assert!(m.global_hops(&t) <= 1);
        }
    }
}

#[test]
fn path_table_binary_roundtrip() {
    let t = topo(2, 4, 2, 3);
    let table = PathTable::build_with_rule(
        &t,
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.5,
        },
        9,
    );
    let bytes = table.to_bytes();
    let back = PathTable::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(back.num_switches(), table.num_switches());
    assert_eq!(back.total_vlb_paths(), table.total_vlb_paths());
    for s in 0..12u32 {
        for d in 0..12u32 {
            let a = table.pair(SwitchId(s), SwitchId(d));
            let b = back.pair(SwitchId(s), SwitchId(d));
            assert_eq!(a.min, b.min);
            assert_eq!(a.vlb, b.vlb);
        }
    }
}

#[test]
fn path_table_from_bytes_rejects_garbage() {
    assert!(PathTable::from_bytes(&[]).is_none());
    assert!(PathTable::from_bytes(&[1, 2, 3]).is_none());
    // Valid header, truncated body.
    let t = topo(2, 4, 2, 3);
    let mut bytes = PathTable::build_all(&t).to_bytes();
    bytes.truncate(bytes.len() / 2);
    assert!(PathTable::from_bytes(&bytes).is_none());
    // Trailing junk.
    let mut bytes = PathTable::build_all(&t).to_bytes();
    bytes.push(0);
    assert!(PathTable::from_bytes(&bytes).is_none());
}
