//! # tugal-suite
//!
//! Umbrella crate of the *Topology-Custom UGAL Routing on Dragonfly*
//! (SC '19) reproduction: re-exports every layer of the system so the
//! examples and integration tests read naturally.
//!
//! * [`topology`] — `dfly(p,a,h,g)` networks and global-link arrangements,
//! * [`routing`] — MIN/VLB paths, path tables, candidate providers, VCs,
//! * [`traffic`] — UR / shift / permutation / MIXED / TMIXED / TYPE sets,
//! * [`lp`] — sparse and dense simplex solvers (the CPLEX substitute),
//! * [`model`] — the UGAL throughput model (Step-1 coarse grain),
//! * [`netsim`] — the cycle-accurate flit-level simulator (the BookSim
//!   substitute),
//! * [`tugal`] — Algorithm 1: computing T-VLB and wiring T-UGAL.
//!
//! See `examples/quickstart.rs` for the five-minute tour.

#![warn(missing_docs)]

pub mod cli;

pub use tugal;
pub use tugal_lp as lp;
pub use tugal_model as model;
pub use tugal_netsim as netsim;
pub use tugal_routing as routing;
pub use tugal_topology as topology;
pub use tugal_traffic as traffic;
