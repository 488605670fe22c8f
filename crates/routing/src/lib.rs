//! # Paths and path sets for UGAL routing on Dragonfly
//!
//! This crate implements the path machinery of the paper:
//!
//! * **MIN paths** — minimal paths with at most one global link (§2.2).
//!   Between two groups there is one MIN path per global link connecting the
//!   groups, so non-maximal topologies already have MIN path diversity.
//! * **VLB paths** — a MIN path to an intermediate switch outside the source
//!   and destination groups, followed by a MIN path to the destination
//!   (Valiant load balancing).  VLB paths are 2–6 hops long.
//! * **Path tables** — explicit per-switch-pair candidate path sets
//!   ([`PathTable`]).  Conventional UGAL uses *all* VLB paths; T-UGAL
//!   restricts each pair's VLB set to a shorter-on-average subset (T-VLB).
//!   A table stores each candidate as a 4-byte packed code — a MIN
//!   candidate by its gateway link, a VLB candidate by its intermediate
//!   switch and the gateway links of its two segments — and decodes it to
//!   a [`Path`] only when it is drawn or inspected.  Pairs whose lists
//!   hold the same codes share one immutable copy, so a pristine
//!   all-paths table stores one MIN and one VLB list per group pair.
//! * **Path providers** — the sampling interface the simulator's routing
//!   functions use to draw one MIN and one VLB candidate per packet
//!   ([`PathProvider`]); an explicit-table provider ([`TableProvider`],
//!   one `gen_range` and one decode per draw) for small networks and an
//!   on-the-fly rejection sampler ([`RuleProvider`]) whose memory is O(1)
//!   for networks too large to tabulate (e.g. `dfly(13,26,13,27)` has ~10⁵
//!   VLB paths per pair).
//! * **Virtual-channel classes** — per-hop VC assignment that keeps the
//!   channel dependency graph acyclic (deadlock freedom): the compact scheme
//!   needs 4 VCs for UGAL-L/G and 5 for PAR exactly as the paper configures,
//!   and the naive new-VC-per-hop scheme is `routing(6)` of Figure 18.

#![warn(missing_docs)]

mod code;
mod enumerate;
mod path;
mod provider;
mod rule;
mod table;
mod vc;

pub use enumerate::{
    all_vlb_paths, all_vlb_paths_degraded, min_paths, min_paths_degraded, path_alive,
    split_lengths, validate_path, vlb_paths_via, vlb_paths_via_degraded, ValidationError,
};
pub use path::{Path, MAX_HOPS};
pub use provider::{PathProvider, RuleProvider, TableProvider};
pub use rule::VlbRule;
pub use table::{PathTable, ReachabilityReport};
pub use vc::{required_vcs, vc_class, VcScheme};

#[cfg(test)]
mod tests;
