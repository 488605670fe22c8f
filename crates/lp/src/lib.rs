//! # From-scratch linear programming
//!
//! The paper's Step-1 coarse-grain estimation solves linear programs with
//! the proprietary IBM CPLEX optimizer.  This crate is the open
//! substitute: a production solver pinned by an independent reference.
//!
//! * [`LinearProgram::solve_sparse`] (the `sparse` module) — the
//!   production solver: a sparse revised simplex over a
//!   compressed-sparse-column matrix, with an LU basis factorization
//!   ordered by column count and eliminated over nonzeros only (so the
//!   factors stay near the basis's own size), a bounded eta file with
//!   periodic refactorization, and steepest-edge-lite pricing over
//!   nonzeros only.  Each solution counts its basis and factor nonzeros
//!   so callers can check the fill.  It also supports
//!   [`WarmStart`] handles that reuse the final basis across
//!   structurally-similar solves (rate sweeps, `FaultSet` superset
//!   chains), skipping phase 1 and most pivots while returning the same
//!   optimum.
//! * [`LinearProgram::solve`] (the `simplex` module) — the dense
//!   two-phase tableau simplex, kept as the *differential oracle*: it
//!   shares no solve-path code with the sparse solver, and the test layer
//!   (`tests/differential.rs`) pins the two against each other on seeded
//!   random grids and on the real path-rate programs of `tugal-model`.
//!
//! Both simplex implementations share the [`LinearProgram`] builder API
//! and the same input normalization (negative right-hand sides flip the
//! row), so every program can be solved by either path.

#![warn(missing_docs)]

mod simplex;
mod sparse;

pub use simplex::{LinearProgram, Relation, Solution, SolveError, VarId};
pub use sparse::{BasisVar, SparseSolution, WarmStart};
