//! # Cycle-accurate flit-level interconnection network simulator
//!
//! The BookSim-2.0-equivalent substrate of this reproduction (§4.1.2 of the
//! paper): a cycle-driven, flit-level simulator of input-queued
//! virtual-channel routers with
//!
//! * credit-based flow control (per-VC credits, credit return latency equal
//!   to the channel latency),
//! * configurable VC count, buffer depth, local/global link latencies and
//!   router-internal speedup (Table 3 defaults: 4 VCs for UGAL-L/G, 5 for
//!   PAR, 32-flit buffers, 10/15-cycle local/global latency, speedup 2),
//! * single-flit packets (as the paper uses, to keep flow control out of
//!   the picture),
//! * the UGAL routing family: MIN, VLB, UGAL-L, UGAL-G and PAR, each
//!   parameterized by a [`tugal_routing::PathProvider`] so conventional
//!   UGAL and T-UGAL are the *same* code with different candidate sets,
//! * warmup + measurement windows with the paper's 500-cycle saturation
//!   rule, and one experiment runner ([`runner::ExperimentRunner`]) that
//!   schedules every simulation job: latency curves over a rate grid and
//!   saturation throughput by bisection.
//!
//! The router pipeline is abstracted to route-computation → switch
//! allocation (×speedup) → link traversal; absolute latencies therefore
//! differ from BookSim's four-stage pipeline by small constants, while the
//! comparative behaviour (which routing saturates first, how T-UGAL shifts
//! the curves) is preserved — that comparative behaviour is what the
//! paper's evaluation reads off the simulator.
//!
//! ```no_run
//! use std::sync::Arc;
//! use tugal_topology::{Dragonfly, DragonflyParams};
//! use tugal_routing::{TableProvider, VcScheme};
//! use tugal_traffic::Shift;
//! use tugal_netsim::{Config, RoutingAlgorithm, Simulator};
//!
//! let topo = Arc::new(Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap());
//! let provider = Arc::new(TableProvider::all_paths(topo.clone()));
//! let pattern = Arc::new(Shift::new(&topo, 2, 0));
//! let cfg = Config::paper_default();
//! let result = Simulator::new(topo, provider, pattern, RoutingAlgorithm::UgalL, cfg)
//!     .run(0.1);
//! println!("latency {:.1} cycles", result.avg_latency);
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod fault;
pub mod journal;
pub mod runner;
mod stats;
pub mod trace;

pub use config::{Config, RoutingAlgorithm};
pub use engine::{
    ConservationLedger, EngineProf, EngineProfiler, FlightFrame, NoopObserver, NoopProfiler,
    OldestPacket, Phase, ProfileReport, RoutingCounters, RunOutput, ShardProfile, SimObserver,
    SimWorkspace, Simulator, StallKind, StallReport, VcSnapshot, WatchdogConfig, WorkspacePool,
    PHASE_COUNT,
};
pub use error::{validate_resolution, validate_sweep, ConfigError};
pub use fault::{FaultEvent, FaultSchedule};
pub use runner::{aggregate_runs, CurvePoint};
pub use stats::SimResult;

#[cfg(test)]
mod tests;
