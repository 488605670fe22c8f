//! Dense-vs-sparse differential pin: the two simplex implementations share
//! no solve-path code, so agreement on a broad input grid is strong
//! evidence both are correct.
//!
//! Three input families:
//!
//! * a seeded random LP grid sweeping variable/constraint counts, matrix
//!   sparsity, relation mix and degenerate zero right-hand sides — the
//!   generator keeps its own copy of every row, so the sparse solution is
//!   additionally checked for primal feasibility against the original
//!   (un-normalized) constraints;
//! * a seeded *tall* grid (40–200 rows, 3–12 columns, one column dense)
//!   shaped like the Step-1 path-rate programs: nearly every basis
//!   member is a slack, FTRAN images and the eta file are dense, and the
//!   costs `c_B` that BTRAN solves for are sparse.  Warm solves of its
//!   rhs sweeps must also match cold ones bit for bit;
//! * the real path-rate programs of `tugal-model`, one per zoo arrangement
//!   × `global_lag` 1–3, obtained unsolved via
//!   [`tugal_model::modeled_primal_lp`].
//!
//! Objectives must agree within 1e-9 *relative*; outcome classes
//! (optimal / infeasible / unbounded) must agree exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tugal_lp::{LinearProgram, Relation, SolveError, VarId};
use tugal_model::modeled_primal_lp;
use tugal_routing::VlbRule;
use tugal_topology::{ArrangementSpec, Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern};

/// One constraint row: `(variable, coefficient)` terms, relation, rhs.
type Row = (Vec<(usize, f64)>, Relation, f64);

/// A generated program plus the generator-side copy of its rows (the
/// builder does not expose constraints back, by design).
struct RandomLp {
    lp: LinearProgram,
    rows: Vec<Row>,
}

fn random_lp(seed: u64) -> RandomLp {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..=14);
    let m = rng.gen_range(1usize..=12);
    let density = rng.gen_range(0.25f64..0.95);

    let mut lp = LinearProgram::new();
    let vars: Vec<VarId> = (0..n)
        .map(|_| {
            let c = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(-3.0f64..3.0)
            };
            lp.add_var(c)
        })
        .collect();

    let mut rows = Vec::new();
    for _ in 0..m {
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for j in 0..n {
            if rng.gen_bool(density) {
                let a = rng.gen_range(-2.0f64..2.0);
                if a.abs() > 1e-3 {
                    terms.push((j, a));
                }
            }
        }
        if terms.is_empty() {
            terms.push((rng.gen_range(0..n), 1.0));
        }
        let rel = match rng.gen_range(0u32..10) {
            0..=5 => Relation::Le,
            6..=8 => Relation::Ge,
            _ => Relation::Eq,
        };
        // Degenerate zero right-hand sides exercise the ratio-test and
        // phase-1 corner cases; negative ones exercise row normalization.
        let rhs = if rng.gen_bool(0.2) {
            0.0
        } else {
            rng.gen_range(-3.0f64..5.0)
        };
        let lp_terms: Vec<(VarId, f64)> = terms.iter().map(|&(j, a)| (vars[j], a)).collect();
        lp.add_constraint(&lp_terms, rel, rhs);
        rows.push((terms, rel, rhs));
    }
    // Most instances get a box row bounding the whole feasible region, so
    // the grid is dominated by optimal outcomes; the rest stay free to
    // exercise the unbounded path.
    if rng.gen_bool(0.75) {
        let bound = rng.gen_range(1.0f64..10.0);
        let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&all, Relation::Le, bound);
        rows.push(((0..n).map(|j| (j, 1.0)).collect(), Relation::Le, bound));
    }
    RandomLp { lp, rows }
}

fn assert_close_rel(dense: f64, sparse: f64, what: &str) {
    let tol = 1e-9 * (1.0 + dense.abs());
    assert!(
        (dense - sparse).abs() <= tol,
        "{what}: dense {dense} vs sparse {sparse}"
    );
}

fn assert_primal_feasible(values: &[f64], rows: &[Row], seed: u64) {
    for (i, v) in values.iter().enumerate() {
        assert!(*v >= -1e-7, "seed {seed}: x{i} = {v} negative");
    }
    for (r, (terms, rel, rhs)) in rows.iter().enumerate() {
        let lhs: f64 = terms.iter().map(|&(j, a)| a * values[j]).sum();
        let ok = match rel {
            Relation::Le => lhs <= rhs + 1e-7,
            Relation::Ge => lhs >= rhs - 1e-7,
            Relation::Eq => (lhs - rhs).abs() <= 1e-7,
        };
        assert!(ok, "seed {seed}: row {r} violated: {lhs} {rel:?} {rhs}");
    }
}

#[test]
fn random_grid_sparse_agrees_with_dense() {
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    let mut unbounded = 0usize;
    for seed in 0..250u64 {
        let inst = random_lp(seed);
        let dense = inst.lp.solve();
        let sparse = inst.lp.solve_sparse();
        match (&dense, &sparse) {
            (Ok(d), Ok(s)) => {
                optimal += 1;
                assert_close_rel(d.objective, s.objective, &format!("seed {seed} objective"));
                assert_primal_feasible(s.values(), &inst.rows, seed);
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => infeasible += 1,
            (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => unbounded += 1,
            (d, s) => panic!("seed {seed}: dense {d:?} vs sparse {s:?} disagree"),
        }
    }
    // The grid must actually exercise all three outcome classes, or the
    // generator has drifted and the differential evidence is hollow.
    assert!(optimal >= 60, "only {optimal} optimal instances");
    assert!(infeasible >= 5, "only {infeasible} infeasible instances");
    assert!(unbounded >= 5, "only {unbounded} unbounded instances");
}

#[test]
fn random_grid_duals_agree_on_optimal_instances() {
    for seed in 0..120u64 {
        let inst = random_lp(seed);
        let (Ok(d), Ok(s)) = (inst.lp.solve(), inst.lp.solve_sparse()) else {
            continue;
        };
        // Strong duality holds for each solver independently.  Duals are
        // reported for the *normalized* rows (negative right-hand sides
        // flip the row), so the dual objective prices |rhs|.
        let dual_d: f64 = d
            .duals()
            .iter()
            .zip(&inst.rows)
            .map(|(y, (_, _, rhs))| y * rhs.abs())
            .sum();
        let dual_s: f64 = s
            .duals()
            .iter()
            .zip(&inst.rows)
            .map(|(y, (_, _, rhs))| y * rhs.abs())
            .sum();
        assert_close_rel(d.objective, dual_d, &format!("seed {seed} dense duality"));
        assert_close_rel(s.objective, dual_s, &format!("seed {seed} sparse duality"));
    }
}

#[test]
fn zoo_path_rate_lps_agree_dense_vs_sparse() {
    for spec in ArrangementSpec::zoo(0x2007) {
        for lag in 1..=3u32 {
            let params = DragonflyParams::new(2, 4, 2, 5);
            let topo = Dragonfly::with_shape(params, spec.build().as_ref(), lag)
                .expect("zoo shape builds");
            let demands = Shift::new(&topo, 1, 0).demands().expect("shift demands");
            let lp = modeled_primal_lp(&topo, &demands, VlbRule::All).expect("model LP");
            let dense = lp.solve().expect("dense solves the model LP");
            let sparse = lp.solve_sparse().expect("sparse solves the model LP");
            assert_close_rel(
                dense.objective,
                sparse.objective,
                &format!("{spec:?} lag {lag}"),
            );
        }
    }
}

/// A tall program: `m` of 40–200 rows over 3–12 columns.  Column 0 is
/// dense, like the path-rate LP's θ; every row adds one to three sparse
/// terms.  Rows are mostly `≤`, with some `≥` and a few `=`, and a box
/// row bounds the region.  The right-hand sides are set around a hidden
/// point `x*·t`, so every program is feasible and bounded, and a sweep
/// over `t` moves the optimal basis: `=` rows pass through the point,
/// and the slack of other rows scales linearly in `t` on even rows and
/// quadratically on odd ones.
fn tall_lp(seed: u64, t: f64) -> RandomLp {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(3usize..=12);
    let m = rng.gen_range(40usize..=200);
    let point: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1f64..1.0)).collect();
    let mut lp = LinearProgram::new();
    let vars: Vec<VarId> = (0..n)
        .map(|_| lp.add_var(rng.gen_range(-1.0f64..3.0)))
        .collect();
    let mut rows = Vec::new();
    for i in 0..m {
        let mut terms = vec![(0, rng.gen_range(0.1f64..1.0))];
        for _ in 0..rng.gen_range(1usize..=3) {
            let j = rng.gen_range(1..n);
            if terms.iter().all(|&(k, _)| k != j) {
                terms.push((j, rng.gen_range(-1.0f64..2.0)));
            }
        }
        let at_point: f64 = terms.iter().map(|&(j, a)| a * point[j]).sum::<f64>() * t;
        let slack = rng.gen_range(0.05f64..3.0) * if i % 2 == 0 { t } else { t * t };
        let (rel, rhs) = match rng.gen_range(0u32..40) {
            0..=23 => (Relation::Le, at_point + slack),
            24..=38 => (Relation::Ge, at_point - slack),
            _ => (Relation::Eq, at_point),
        };
        let lp_terms: Vec<(VarId, f64)> = terms.iter().map(|&(j, a)| (vars[j], a)).collect();
        lp.add_constraint(&lp_terms, rel, rhs);
        rows.push((terms, rel, rhs));
    }
    let bound = (point.iter().sum::<f64>() + rng.gen_range(0.5f64..5.0)) * t;
    let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
    lp.add_constraint(&all, Relation::Le, bound);
    rows.push(((0..n).map(|j| (j, 1.0)).collect(), Relation::Le, bound));
    RandomLp { lp, rows }
}

#[test]
fn tall_grid_sparse_agrees_with_dense() {
    for seed in 0..60u64 {
        let inst = tall_lp(seed, 1.0);
        match (inst.lp.solve(), inst.lp.solve_sparse()) {
            (Ok(d), Ok(s)) => {
                assert_close_rel(d.objective, s.objective, &format!("tall seed {seed}"));
                assert_primal_feasible(s.values(), &inst.rows, seed);
            }
            (d, s) => panic!(
                "tall seed {seed}: dense {d:?} vs sparse {s:?} on a feasible, bounded program"
            ),
        }
    }
}

#[test]
fn tall_rhs_sweep_warm_matches_cold_bits() {
    let points = [1.0, 0.97, 0.94, 1.05, 1.1];
    let mut warm_used = 0usize;
    for seed in 0..30u64 {
        let mut carried = None;
        for &t in &points {
            let lp = tall_lp(seed, t).lp;
            let cold = lp.solve_sparse();
            let warm = match &carried {
                Some(ws) => lp.solve_sparse_warm(ws),
                None => lp.solve_sparse(),
            };
            match (&cold, &warm) {
                (Ok(c), Ok(w)) => {
                    assert_eq!(
                        c.objective.to_bits(),
                        w.objective.to_bits(),
                        "tall seed {seed} t {t}: cold {} vs warm {}",
                        c.objective,
                        w.objective
                    );
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(c.values()), bits(w.values()), "tall seed {seed} t {t}");
                    warm_used += usize::from(carried.is_some() && w.warm_used);
                    carried = Some(w.warm_start().clone());
                }
                (Err(c), Err(w)) => {
                    assert_eq!(c, w, "tall seed {seed} t {t}");
                    carried = None;
                }
                _ => panic!("tall seed {seed} t {t}: cold {cold:?} vs warm {warm:?}"),
            }
        }
    }
    assert!(warm_used >= 40, "only {warm_used} warm bases were used");
}
