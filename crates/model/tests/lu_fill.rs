//! LU fill and pivot path of the sparse simplex on real Step-1 programs.
//!
//! The path-rate LP's θ column touches every demand and capacity row.
//! Factorized in basis order (θ first), every later column fills in and
//! the factors held about 7× the basis's nonzeros on `step1_max`'s
//! programs; the column-count order of `tugal-lp`'s factorization keeps
//! them near 1.1×.  The counts are exact, so the bound is a hard gate.
//! On the chain below, basis order read 6.31× (137,994 / 21,878) and
//! column-count order reads 1.07×.

use tugal_model::{modeled_throughput_warm, LpStats, ModelVariant, ModelWarmCache};
use tugal_routing::VlbRule;
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern};

/// A warm Step-1 rule sweep of shift(`dg`, `ds`) on a maximal
/// (g = a·h + 1) topology like `step1_max`'s dfly(3,6,3,19), small
/// enough to solve in well under a second: each rule's θ, and the
/// chain's counters.
fn step1_chain(dg: u32, ds: u32) -> (Vec<f64>, LpStats) {
    let t = Dragonfly::new(DragonflyParams::new(2, 4, 2, 9)).unwrap();
    let d = Shift::new(&t, dg, ds).demands().unwrap();
    let limit = |max_hops, frac_next| VlbRule::ClassLimit {
        max_hops,
        frac_next,
    };
    let rules = [
        limit(3, 0.0),
        limit(4, 0.0),
        limit(4, 0.5),
        limit(5, 0.0),
        limit(5, 0.5),
        VlbRule::All,
    ];
    let mut cache = ModelWarmCache::new();
    let thetas = rules
        .into_iter()
        .map(|rule| {
            modeled_throughput_warm(&t, &d, rule, ModelVariant::DrawProportional, &mut cache)
                .unwrap()
        })
        .collect();
    (thetas, cache.stats)
}

#[test]
fn step1_sweep_factors_stay_near_basis_size() {
    let (thetas, s) = step1_chain(1, 0);
    assert!(s.basis_nonzeros > 0 && s.refactorizations >= thetas.len());
    let fill = s.lu_nonzeros as f64 / s.basis_nonzeros as f64;
    assert!(
        fill <= 1.5,
        "L+U holds {fill:.2}x the basis nonzeros ({} / {})",
        s.lu_nonzeros,
        s.basis_nonzeros
    );
}

/// The solver's per-pivot linear algebra may be rewritten only in ways
/// that keep every floating-point operation in its order, so the pivot
/// path, the factorizations and every θ bit are pinned exactly, per
/// chain: (solves, warm hits, pivots, refactorizations, basis nonzeros,
/// L+U nonzeros).  A kernel change that moves any of them has changed
/// the arithmetic, not only its speed.  Summing BTRAN's eta dots in
/// reverse left shift (1,0)'s path unchanged but moved shift (3,1)'s, so
/// the four chains together catch a reordered sum as well as a wrong one.
#[test]
fn step1_sweep_pivot_path_is_pinned() {
    type Pin = (
        (u32, u32),
        [u64; 6],
        (usize, usize, usize, usize, usize, usize),
    );
    let pins: [Pin; 4] = [
        (
            (1, 0),
            [
                0x3fe0_004e_6c3a_4425,
                0x3fe0_d779_e1e9_46ec,
                0x3fe1_cdb9_84d5_af58,
                0x3fe0_a508_7024_d2d7,
                0x3fe1_579a_8d34_601a,
                0x3fe2_0043_7346_555b,
            ],
            (6, 5, 465, 16, 21_878, 23_369),
        ),
        (
            (2, 0),
            [
                0x3fd8_0078_cd40_212a,
                0x3fe2_004c_c3c1_75b1,
                0x3fe0_be1c_12d8_9ffe,
                0x3fde_779a_688e_29c7,
                0x3fe0_d43b_a94c_99e9,
                0x3fe2_0044_3488_a05a,
            ],
            (6, 5, 374, 16, 22_692, 24_536),
        ),
        (
            (3, 1),
            [
                0x3fd8_dd5a_228f_9fef,
                0x3fdc_b988_78f7_3839,
                0x3fdf_4909_4476_9f68,
                0x3fe0_35e8_45b2_a0b7,
                0x3fe1_427c_d14d_f978,
                0x3fe2_0041_e08c_5c0b,
            ],
            (6, 5, 309, 14, 20_443, 22_530),
        ),
        (
            (4, 0),
            [
                0x3fda_ab23_3267_b1b8,
                0x3fe2_004c_15d9_2443,
                0x3fe1_6122_d6ea_7603,
                0x3fe0_d962_04ea_3ac3,
                0x3fe1_75b9_c3ba_3fab,
                0x3fe2_0041_9cb3_9bb1,
            ],
            (6, 5, 447, 15, 22_766, 25_572),
        ),
    ];
    for ((dg, ds), bits, counts) in pins {
        let (thetas, s) = step1_chain(dg, ds);
        let got: Vec<u64> = thetas.iter().map(|t| t.to_bits()).collect();
        assert_eq!(got, bits, "shift({dg},{ds}) θ per rule: {thetas:?}");
        assert_eq!(
            (
                s.solves,
                s.warm_hits,
                s.pivots,
                s.refactorizations,
                s.basis_nonzeros,
                s.lu_nonzeros
            ),
            counts,
            "shift({dg},{ds}): (solves, warm hits, pivots, refactorizations, basis nnz, L+U nnz)"
        );
    }
}
