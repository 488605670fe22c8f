//! Garg–Könemann maximum concurrent flow approximation.
//!
//! Fleischer's phase variant of the Garg–Könemann multiplicative-weights
//! algorithm, specialized to commodities with explicit candidate path lists
//! (which is exactly the shape of the UGAL throughput model: per
//! source–destination pair, a small set of MIN/VLB path classes).  The
//! returned flow is rescaled to be *exactly* capacity-feasible, so the
//! reported throughput is always a valid lower bound; with parameter `ε`
//! it is a `(1 − O(ε))` approximation of the optimum.
//!
//! The pricing step is *phase-batched* for parallelism: each round prices
//! every still-active commodity's cheapest candidate path against a
//! snapshot of the edge lengths (in parallel, with results collected in
//! commodity order), then applies the augmentations and length updates
//! sequentially in that same order.  The reduction order is therefore
//! deterministic: [`ConcurrentFlow::solve`] is bit-identical at any
//! thread count, and bit-identical to the single-threaded reference
//! [`ConcurrentFlow::solve_sequential`] (the cross-validation suite pins
//! both properties).
//!
//! Role in the solver stack: the exact solvers in this crate are the
//! sparse revised simplex (production) and the dense tableau simplex (the
//! differential oracle); this approximation is the third, algorithm-
//! independent cross-check, and a fast fallback for instances where an
//! `O(paths)`-per-round approximation beats exact pivoting.

/// A candidate path of a commodity, as a list of edge indices.
#[derive(Debug, Clone)]
pub struct FlowPath {
    /// Edge indices into the capacity vector.
    pub edges: Vec<usize>,
}

impl FlowPath {
    /// Builds a path from edge indices.
    pub fn new(edges: Vec<usize>) -> Self {
        Self { edges }
    }
}

struct Commodity {
    demand: f64,
    paths: Vec<FlowPath>,
}

/// Approximate solution of a concurrent-flow instance.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// Largest `θ` such that `θ · demand` of every commodity is routed
    /// within capacities (after defensive rescaling — always feasible).
    pub throughput: f64,
    /// `path_flows[commodity][path]` — absolute flow per candidate path.
    pub path_flows: Vec<Vec<f64>>,
    /// Shortest-path selections performed.
    pub iterations: usize,
}

/// Maximum concurrent flow over explicit path sets.
pub struct ConcurrentFlow {
    capacities: Vec<f64>,
    commodities: Vec<Commodity>,
}

impl ConcurrentFlow {
    /// Creates an instance over edges with the given capacities (all must be
    /// positive).
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(
            capacities.iter().all(|&c| c > 0.0),
            "capacities must be positive"
        );
        Self {
            capacities,
            commodities: Vec::new(),
        }
    }

    /// Adds a commodity with a demand and its candidate paths.  Returns the
    /// commodity index.
    ///
    /// # Panics
    /// If `demand <= 0`, no path is given, or a path mentions an unknown
    /// edge.
    pub fn add_commodity(&mut self, demand: f64, paths: Vec<FlowPath>) -> usize {
        assert!(demand > 0.0, "demand must be positive");
        assert!(!paths.is_empty(), "commodity needs at least one path");
        for p in &paths {
            for &e in &p.edges {
                assert!(e < self.capacities.len(), "edge {e} out of range");
            }
        }
        self.commodities.push(Commodity { demand, paths });
        self.commodities.len() - 1
    }

    /// Runs the approximation with accuracy parameter `epsilon`
    /// (`0 < ε < 1`; smaller is more accurate and slower — 0.05 gives
    /// results within a few percent of the simplex on the instances this
    /// repository generates).  Path pricing runs in parallel with a
    /// deterministic reduction order: the result is bit-identical at any
    /// thread count, and to [`ConcurrentFlow::solve_sequential`].
    pub fn solve(&self, epsilon: f64) -> McfSolution {
        self.run(epsilon, true)
    }

    /// Single-threaded reference implementation of [`ConcurrentFlow::solve`]
    /// — same phase-batched algorithm with the parallel pricing step run
    /// inline.  Kept public so the cross-validation suite (and downstream
    /// doubt) can pin `solve` against it bit-for-bit.
    pub fn solve_sequential(&self, epsilon: f64) -> McfSolution {
        self.run(epsilon, false)
    }

    fn run(&self, epsilon: f64, parallel: bool) -> McfSolution {
        use rayon::prelude::*;

        assert!(epsilon > 0.0 && epsilon < 1.0);
        let m = self.capacities.len() as f64;
        let delta = (1.0 + epsilon) * ((1.0 + epsilon) * m).powf(-1.0 / epsilon);
        let mut lengths: Vec<f64> = self.capacities.iter().map(|&c| delta / c).collect();
        let mut path_flows: Vec<Vec<f64>> = self
            .commodities
            .iter()
            .map(|c| vec![0.0; c.paths.len()])
            .collect();
        let mut iterations = 0usize;

        let d_of = |lengths: &[f64], caps: &[f64]| -> f64 {
            lengths.iter().zip(caps).map(|(l, c)| l * c).sum()
        };
        let mut d = d_of(&lengths, &self.capacities);
        while d < 1.0 {
            // One Fleischer phase: route every commodity's full demand.
            // Rounds batch the pricing: all active commodities find their
            // cheapest path against a snapshot of the lengths (in
            // parallel), then the augmentations apply sequentially in
            // commodity order, so the length updates — and therefore the
            // whole run — do not depend on the thread count.
            let mut remaining: Vec<f64> = self.commodities.iter().map(|c| c.demand).collect();
            loop {
                let active: Vec<usize> = remaining
                    .iter()
                    .enumerate()
                    .filter(|&(_, &r)| r > 0.0)
                    .map(|(ci, _)| ci)
                    .collect();
                if active.is_empty() || d >= 1.0 {
                    break;
                }
                let cheapest = |ci: &usize| -> usize {
                    self.commodities[*ci]
                        .paths
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i, p.edges.iter().map(|&e| lengths[e]).sum::<f64>()))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("non-empty path set")
                        .0
                };
                let choices: Vec<usize> = if parallel {
                    active.par_iter().map(cheapest).collect()
                } else {
                    active.iter().map(cheapest).collect()
                };
                for (&ci, &pi) in active.iter().zip(&choices) {
                    if d >= 1.0 {
                        break;
                    }
                    iterations += 1;
                    let path = &self.commodities[ci].paths[pi];
                    let bottleneck = path
                        .edges
                        .iter()
                        .map(|&e| self.capacities[e])
                        .fold(f64::INFINITY, f64::min);
                    let f = remaining[ci].min(bottleneck);
                    path_flows[ci][pi] += f;
                    for &e in &path.edges {
                        let old = lengths[e];
                        lengths[e] = old * (1.0 + epsilon * f / self.capacities[e]);
                        d += (lengths[e] - old) * self.capacities[e];
                    }
                    remaining[ci] -= f;
                }
            }
        }

        // Theoretical scaling, then a defensive exact-feasibility rescale.
        let scale = ((1.0 + epsilon) / delta).ln() / (1.0 + epsilon).ln();
        for flows in &mut path_flows {
            for f in flows.iter_mut() {
                *f /= scale;
            }
        }
        let mut loads = vec![0.0; self.capacities.len()];
        for (ci, com) in self.commodities.iter().enumerate() {
            for (pi, p) in com.paths.iter().enumerate() {
                for &e in &p.edges {
                    loads[e] += path_flows[ci][pi];
                }
            }
        }
        let overload = loads
            .iter()
            .zip(&self.capacities)
            .map(|(l, c)| l / c)
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut throughput = f64::INFINITY;
        for (ci, com) in self.commodities.iter().enumerate() {
            let routed: f64 = path_flows[ci].iter().sum();
            throughput = throughput.min(routed / overload / com.demand);
        }
        for flows in &mut path_flows {
            for f in flows.iter_mut() {
                *f /= overload;
            }
        }
        McfSolution {
            throughput: if throughput.is_finite() {
                throughput
            } else {
                0.0
            },
            path_flows,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearProgram, Relation};

    /// Exact concurrent-flow throughput by LP, for cross-validation.
    fn exact(caps: &[f64], commodities: &[(f64, Vec<Vec<usize>>)]) -> f64 {
        let mut lp = LinearProgram::new();
        let theta = lp.add_var(1.0);
        let mut path_vars = Vec::new();
        for (_, paths) in commodities {
            let vars: Vec<_> = paths.iter().map(|_| lp.add_var(0.0)).collect();
            path_vars.push(vars);
        }
        // Demand: sum of path flows >= theta * demand  ->  theta*d - sum <= 0.
        for (ci, (d, _)) in commodities.iter().enumerate() {
            let mut terms = vec![(theta, *d)];
            for &v in &path_vars[ci] {
                terms.push((v, -1.0));
            }
            lp.add_constraint(&terms, Relation::Le, 0.0);
        }
        // Capacities.
        for (e, &c) in caps.iter().enumerate() {
            let mut terms = Vec::new();
            for (ci, (_, paths)) in commodities.iter().enumerate() {
                for (pi, p) in paths.iter().enumerate() {
                    let uses = p.iter().filter(|&&x| x == e).count();
                    if uses > 0 {
                        terms.push((path_vars[ci][pi], uses as f64));
                    }
                }
            }
            if !terms.is_empty() {
                lp.add_constraint(&terms, Relation::Le, c);
            }
        }
        lp.solve().unwrap().objective
    }

    fn approx(caps: &[f64], commodities: &[(f64, Vec<Vec<usize>>)], eps: f64) -> McfSolution {
        let mut cf = ConcurrentFlow::new(caps.to_vec());
        for (d, paths) in commodities {
            cf.add_commodity(*d, paths.iter().map(|p| FlowPath::new(p.clone())).collect());
        }
        cf.solve(eps)
    }

    #[test]
    fn single_commodity_single_path() {
        let caps = vec![2.0];
        let com = vec![(1.0, vec![vec![0]])];
        let sol = approx(&caps, &com, 0.02);
        assert!((sol.throughput - 2.0).abs() < 0.1, "{}", sol.throughput);
    }

    #[test]
    fn parallel_paths_add_capacity() {
        // Two disjoint unit edges -> throughput 2 for demand 1.
        let caps = vec![1.0, 1.0];
        let com = vec![(1.0, vec![vec![0], vec![1]])];
        let sol = approx(&caps, &com, 0.02);
        let ex = exact(&caps, &com);
        assert!((ex - 2.0).abs() < 1e-6);
        assert!(sol.throughput > 0.9 * ex, "{} vs {ex}", sol.throughput);
    }

    #[test]
    fn two_commodities_share_an_edge() {
        // Edge 0 shared; each commodity also has a private edge.
        let caps = vec![1.0, 1.0, 1.0];
        let com = vec![(1.0, vec![vec![0], vec![1]]), (1.0, vec![vec![0], vec![2]])];
        let ex = exact(&caps, &com); // 1.5 each: private 1 + half of shared
        let sol = approx(&caps, &com, 0.02);
        assert!((ex - 1.5).abs() < 1e-6, "{ex}");
        assert!(sol.throughput > 0.9 * ex, "{} vs {ex}", sol.throughput);
    }

    #[test]
    fn longer_paths_consume_more() {
        // One commodity, two paths: short (1 edge) and long (3 edges),
        // all edges capacity 1, long path edges shared with nothing.
        let caps = vec![1.0, 1.0, 1.0, 1.0];
        let com = vec![(1.0, vec![vec![0], vec![1, 2, 3]])];
        let ex = exact(&caps, &com); // 2.0: both paths saturate
        let sol = approx(&caps, &com, 0.02);
        assert!(sol.throughput > 0.9 * ex, "{} vs {ex}", sol.throughput);
    }

    #[test]
    fn solution_is_always_feasible() {
        let caps = vec![1.0, 2.0, 0.5, 1.5];
        let com = vec![
            (1.0, vec![vec![0, 1], vec![2]]),
            (2.0, vec![vec![1, 3], vec![0]]),
        ];
        let sol = approx(&caps, &com, 0.1);
        let mut loads = vec![0.0; caps.len()];
        for (ci, (_, paths)) in com.iter().enumerate() {
            for (pi, p) in paths.iter().enumerate() {
                for &e in p {
                    loads[e] += sol.path_flows[ci][pi];
                }
            }
        }
        for (l, c) in loads.iter().zip(&caps) {
            assert!(*l <= c + 1e-9, "load {l} exceeds cap {c}");
        }
    }

    #[test]
    fn approximation_tracks_exact_on_random_instances() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        for _ in 0..10 {
            let n_edges = 6 + (next() * 6.0) as usize;
            let caps: Vec<f64> = (0..n_edges).map(|_| 0.5 + next()).collect();
            let n_com = 2 + (next() * 3.0) as usize;
            let mut com = Vec::new();
            for _ in 0..n_com {
                let n_paths = 2 + (next() * 3.0) as usize;
                let paths: Vec<Vec<usize>> = (0..n_paths)
                    .map(|_| {
                        let len = 1 + (next() * 3.0) as usize;
                        let mut p: Vec<usize> = (0..len)
                            .map(|_| (next() * n_edges as f64) as usize % n_edges)
                            .collect();
                        p.dedup();
                        p
                    })
                    .collect();
                com.push((0.5 + next(), paths));
            }
            let ex = exact(&caps, &com);
            let sol = approx(&caps, &com, 0.05);
            assert!(
                sol.throughput <= ex + 1e-6,
                "approx {} beats exact {ex}",
                sol.throughput
            );
            assert!(
                sol.throughput >= 0.8 * ex,
                "approx {} too far below exact {ex}",
                sol.throughput
            );
        }
    }

    /// Edge capacities and `(demand, candidate paths)` commodities.
    type Instance = (Vec<f64>, Vec<(f64, Vec<Vec<usize>>)>);

    /// A seeded family of random instances shared by the determinism
    /// tests below.
    fn random_instances() -> Vec<Instance> {
        let mut state = 0x5CA1AB1Eu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        (0..8)
            .map(|_| {
                let n_edges = 5 + (next() * 8.0) as usize;
                let caps: Vec<f64> = (0..n_edges).map(|_| 0.5 + next()).collect();
                let n_com = 2 + (next() * 4.0) as usize;
                let com: Vec<(f64, Vec<Vec<usize>>)> = (0..n_com)
                    .map(|_| {
                        let n_paths = 1 + (next() * 4.0) as usize;
                        let paths: Vec<Vec<usize>> = (0..n_paths)
                            .map(|_| {
                                let len = 1 + (next() * 3.0) as usize;
                                let mut p: Vec<usize> = (0..len)
                                    .map(|_| (next() * n_edges as f64) as usize % n_edges)
                                    .collect();
                                p.dedup();
                                p
                            })
                            .collect();
                        (0.5 + next(), paths)
                    })
                    .collect();
                (caps, com)
            })
            .collect()
    }

    /// The parallel solve is bit-identical to the sequential reference at
    /// any thread count: throughput, per-path flows and the iteration
    /// count all match exactly.
    #[test]
    fn parallel_solve_is_bit_identical_to_sequential() {
        for (caps, com) in random_instances() {
            let mut cf = ConcurrentFlow::new(caps.clone());
            for (d, paths) in &com {
                cf.add_commodity(*d, paths.iter().map(|p| FlowPath::new(p.clone())).collect());
            }
            let seq = cf.solve_sequential(0.05);
            for threads in ["1", "2", "3", "8"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let par = cf.solve(0.05);
                assert_eq!(
                    seq.throughput.to_bits(),
                    par.throughput.to_bits(),
                    "throughput diverged at {threads} threads"
                );
                assert_eq!(seq.iterations, par.iterations);
                for (sf, pf) in seq.path_flows.iter().zip(&par.path_flows) {
                    for (a, b) in sf.iter().zip(pf) {
                        assert_eq!(a.to_bits(), b.to_bits(), "path flow diverged");
                    }
                }
            }
            std::env::remove_var("RAYON_NUM_THREADS");
        }
    }

    /// The approximation lands within the documented band of the *sparse*
    /// production simplex (which in turn matches the dense oracle): the
    /// three throughput computations in this crate agree on the same
    /// instances.
    #[test]
    fn approximation_tracks_sparse_simplex() {
        for (caps, com) in random_instances() {
            let mut lp = LinearProgram::new();
            let theta = lp.add_var(1.0);
            let mut path_vars = Vec::new();
            for (_, paths) in &com {
                let vars: Vec<_> = paths.iter().map(|_| lp.add_var(0.0)).collect();
                path_vars.push(vars);
            }
            for (ci, (d, _)) in com.iter().enumerate() {
                let mut terms = vec![(theta, *d)];
                for &v in &path_vars[ci] {
                    terms.push((v, -1.0));
                }
                lp.add_constraint(&terms, Relation::Le, 0.0);
            }
            for (e, &c) in caps.iter().enumerate() {
                let mut terms = Vec::new();
                for (ci, (_, paths)) in com.iter().enumerate() {
                    for (pi, p) in paths.iter().enumerate() {
                        let uses = p.iter().filter(|&&x| x == e).count();
                        if uses > 0 {
                            terms.push((path_vars[ci][pi], uses as f64));
                        }
                    }
                }
                if !terms.is_empty() {
                    lp.add_constraint(&terms, Relation::Le, c);
                }
            }
            let ex = lp.solve_sparse().unwrap().objective;
            let dense = lp.solve().unwrap().objective;
            assert!(
                (ex - dense).abs() <= 1e-9 * (1.0 + dense.abs()),
                "sparse {ex} vs dense {dense}"
            );
            let sol = approx(&caps, &com, 0.05);
            assert!(
                sol.throughput <= ex + 1e-6 && sol.throughput >= 0.8 * ex,
                "approx {} outside band of sparse simplex {ex}",
                sol.throughput
            );
        }
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn rejects_nonpositive_demand() {
        let mut cf = ConcurrentFlow::new(vec![1.0]);
        cf.add_commodity(0.0, vec![FlowPath::new(vec![0])]);
    }

    #[test]
    #[should_panic(expected = "edge 3 out of range")]
    fn rejects_unknown_edge() {
        let mut cf = ConcurrentFlow::new(vec![1.0, 1.0]);
        cf.add_commodity(1.0, vec![FlowPath::new(vec![3])]);
    }
}
