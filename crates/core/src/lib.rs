//! # T-UGAL: topology-custom UGAL routing
//!
//! The paper's primary contribution (§3): given any `dfly(p, a, h, g)`
//! topology, compute a *topology-custom* set of VLB candidate paths
//! (T-VLB) with a smaller average path length but sufficient path
//! diversity, so that UGAL routing over T-VLB (T-UGAL) dominates
//! conventional UGAL in both low-load latency and saturation throughput.
//!
//! [`compute_tvlb`] implements Algorithm 1 end-to-end:
//!
//! 1. build the adversarial pattern suites `TYPE_1_SET` and `TYPE_2_SET`;
//! 2. **Step 1, coarse-grain** ([`sweep`]): score every Table-1 candidate
//!    configuration ("all ≤4-hop paths plus 60% of the 5-hop paths", …)
//!    with the LP throughput model averaged over the adversarial suites,
//!    and keep the best-scoring point of each path-length region;
//! 3. expand the candidates with the deterministic *strategic* 5-hop
//!    choices (all 2+3 or all 3+2 MIN-segment splits, §3.3.3);
//! 4. **Step 2, finalize** ([`balance`]): materialize each candidate as an
//!    explicit path table, detect local (per switch pair) and global link
//!    usage imbalance and remove offending paths, then simulate the
//!    candidates on TYPE_2 patterns and keep the best performer.  The
//!    candidates are scored concurrently, each table is dropped once
//!    scored, and the winner's (deterministic) table is rebuilt.
//!
//! The result wraps a [`tugal_routing::PathProvider`], so plugging T-UGAL
//! into the simulator (or comparing UGAL/T-UGAL variants) is a one-line
//! provider swap — exactly the paper's framing that T-UGAL "only changes
//! the set of candidate paths".
//!
//! All analysis happens at network design time (the paper's closing
//! argument): nothing here runs in a router's critical path.

#![warn(missing_docs)]

pub mod algorithm;
pub mod balance;
pub mod sweep;

pub use algorithm::{compute_tvlb, conventional_provider, TUgalConfig, TUgalReport, TUgalResult};
pub use balance::{BalanceOptions, BalanceReport};
pub use sweep::{
    coarse_grain_sweep, coarse_grain_sweep_rules, table1_points, SweepConfig, SweepOutcome,
};

#[cfg(test)]
mod tests;
