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
    let (s, d) = (SwitchId(0), SwitchId(4));
    assert_eq!(table.min(s, d).len(), 1); // maximal topology: one link per pair
    assert!(table.vlb(s, d).len() > 0);
    // Intra-switch pair has no candidates.
    assert_eq!(table.min(s, s).len(), 0);
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
    let full5 = full.vlb(s, d).filter(|p| p.hops() == 5).count();
    let lim5 = limited.vlb(s, d).filter(|p| p.hops() == 5).count();
    let full_le4 = full.vlb(s, d).filter(|p| p.hops() <= 4).count();
    let lim_le4 = limited.vlb(s, d).filter(|p| p.hops() <= 4).count();
    assert_eq!(full_le4, lim_le4, "<=4-hop paths must all be kept");
    assert_eq!(lim5, (full5 as f64 * 0.5).round() as usize);
    assert!(limited.vlb(s, d).all(|p| p.hops() <= 5));
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
    assert!(a.vlb(s, d).eq(b.vlb(s, d)));
    // Different seed almost surely picks a different 5-hop subset somewhere.
    let same_everywhere = (0..t.num_switches() as u32).all(|s| {
        (0..t.num_switches() as u32).all(|d| {
            a.vlb(SwitchId(s), SwitchId(d))
                .eq(c.vlb(SwitchId(s), SwitchId(d)))
        })
    });
    assert!(!same_everywhere);
}

#[test]
fn strategic_rule_fixes_first_segment() {
    let t = topo(4, 8, 4, 9);
    let table = PathTable::build_with_rule(&t, VlbRule::Strategic { first_seg: 2 }, 0);
    let vlb: Vec<Path> = table.vlb(SwitchId(0), SwitchId(9)).collect();
    assert!(!vlb.is_empty());
    for p in &vlb {
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
                table.vlb(SwitchId(s), SwitchId(d)).len() > 0,
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
    let table = provider.table();
    for _ in 0..100 {
        let m = provider.sample_min(s, d, &mut rng);
        assert!(table.min(s, d).any(|p| p == m));
        let v = provider.sample_vlb(s, d, &mut rng);
        assert!(table.vlb(s, d).any(|p| p == v));
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
            assert!(provider.table().min(s, d).eq(table.min(s, d)));
            assert!(provider.table().vlb(s, d).eq(table.vlb(s, d)));
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
            for p in table.min(s, d).chain(table.vlb(s, d)) {
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
    let back = PathTable::from_bytes(&t, &bytes).expect("roundtrip");
    assert_eq!(back.num_switches(), table.num_switches());
    assert_eq!(back.total_vlb_paths(), table.total_vlb_paths());
    for s in 0..12u32 {
        for d in 0..12u32 {
            let (s, d) = (SwitchId(s), SwitchId(d));
            assert!(table.min(s, d).eq(back.min(s, d)));
            assert!(table.vlb(s, d).eq(back.vlb(s, d)));
        }
    }
}

#[test]
fn path_table_from_bytes_rejects_garbage() {
    let t = topo(2, 4, 2, 3);
    assert!(PathTable::from_bytes(&t, &[]).is_none());
    assert!(PathTable::from_bytes(&t, &[1, 2, 3]).is_none());
    // A header claiming n = 20000 and nothing behind it: n² pairs of
    // counts cannot fit, so the blob is rejected before any allocation.
    let mut bytes = 20_000u64.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0; 4]);
    assert!(PathTable::from_bytes(&topo(2, 4, 2, 5), &bytes).is_none());
    let big = topo(4, 8, 4, 9);
    let mut bytes = (big.num_switches() as u64).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0; 4]);
    assert!(PathTable::from_bytes(&big, &bytes).is_none());
    // n² overflows.
    assert!(PathTable::from_bytes(&t, &u64::MAX.to_le_bytes()).is_none());
    // Valid header, truncated body.
    let mut bytes = PathTable::build_all(&t).to_bytes();
    bytes.truncate(bytes.len() / 2);
    assert!(PathTable::from_bytes(&t, &bytes).is_none());
    // Trailing junk.
    let mut bytes = PathTable::build_all(&t).to_bytes();
    bytes.push(0);
    assert!(PathTable::from_bytes(&t, &bytes).is_none());
}

/// The draw contract of `TableProvider`: each draw is one
/// `gen_range(0..len)` over the pair's decoded MIN (or VLB) candidates, in
/// table order, with the documented fallbacks, so it returns the same path
/// and leaves the RNG in the same state as indexing the decoded list.
/// Checked draw by draw over every pair of a pristine and a degraded
/// table.
#[test]
fn table_provider_draws_index_the_decoded_candidates() {
    use rand::{Rng, RngCore};
    use tugal_topology::FaultSet;
    let t = topo(2, 4, 2, 5);
    let mut faults = FaultSet::sample_global_links(&t, 0.3, 0xD1CE);
    faults.fail_switch(SwitchId(5));
    let deg = t.degrade(&faults);
    for (table, degraded) in [
        (PathTable::build_all(&t), false),
        (PathTable::build_all_degraded(&t, &deg), true),
    ] {
        let provider = TableProvider::new(t.clone(), table.clone());
        let mut fallbacks = 0;
        let (mut rng, mut want_rng) = (SmallRng::seed_from_u64(99), SmallRng::seed_from_u64(99));
        // The reference draw: index the decoded list; an empty list falls
        // back to the other one, and a pair with neither (or s == d) gets
        // the zero-hop sentinel without a draw.
        let mut pick = |first: Vec<Path>, second: Vec<Path>, s: SwitchId, d: SwitchId| {
            let list = if first.is_empty() { second } else { first };
            if s == d || list.is_empty() {
                Path::single(s)
            } else {
                list[want_rng.gen_range(0..list.len())]
            }
        };
        let n = t.num_switches() as u32;
        for _ in 0..3 {
            for (s, d) in (0..n).flat_map(|s| (0..n).map(move |d| (SwitchId(s), SwitchId(d)))) {
                let (min, vlb): (Vec<Path>, Vec<Path>) =
                    (table.min(s, d).collect(), table.vlb(s, d).collect());
                fallbacks += usize::from(s != d && (min.is_empty() || vlb.is_empty()));
                let want = pick(min.clone(), vlb.clone(), s, d);
                assert_eq!(provider.sample_min(s, d, &mut rng), want, "MIN {s}->{d}");
                let want = pick(vlb, min, s, d);
                assert_eq!(provider.sample_vlb(s, d, &mut rng), want, "VLB {s}->{d}");
            }
        }
        assert_eq!(rng.next_u64(), want_rng.next_u64());
        // The degraded table exercises the fallbacks; the pristine one
        // never needs them.
        assert_eq!(fallbacks > 0, degraded);
    }
}
