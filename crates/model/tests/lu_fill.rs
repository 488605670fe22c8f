//! LU fill of the sparse simplex on real Step-1 programs.
//!
//! The path-rate LP's θ column touches every demand and capacity row.
//! Factorized in basis order (θ first), every later column fills in and
//! the factors held about 7× the basis's nonzeros on `step1_max`'s
//! programs; the column-count order of `tugal-lp`'s factorization keeps
//! them near 1.1×.  The counts are exact, so the bound is a hard gate.
//! On the chain below, basis order read 6.31× (137,994 / 21,878) and
//! column-count order reads 1.07×.

use tugal_model::{modeled_throughput_warm, ModelVariant, ModelWarmCache};
use tugal_routing::VlbRule;
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern};

#[test]
fn step1_sweep_factors_stay_near_basis_size() {
    // Maximal (g = a·h + 1) like `step1_max`'s dfly(3,6,3,19), and small
    // enough to solve in well under a second.
    let t = Dragonfly::new(DragonflyParams::new(2, 4, 2, 9)).unwrap();
    let d = Shift::new(&t, 1, 0).demands().unwrap();
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
    for rule in rules {
        modeled_throughput_warm(&t, &d, rule, ModelVariant::DrawProportional, &mut cache).unwrap();
    }
    let s = cache.stats;
    assert!(s.basis_nonzeros > 0 && s.refactorizations >= rules.len());
    let fill = s.lu_nonzeros as f64 / s.basis_nonzeros as f64;
    assert!(
        fill <= 1.5,
        "L+U holds {fill:.2}x the basis nonzeros ({} / {})",
        s.lu_nonzeros,
        s.basis_nonzeros
    );
}
