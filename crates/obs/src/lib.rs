//! # Metrics layer over the netsim observer seam
//!
//! The simulator's scalar end-of-run aggregates say *whether* a routing
//! saturates; the paper's argument (§4) is about *where load lands* —
//! channel load on global links, the MIN/VLB decision mix, latency
//! distributions.  This crate turns the zero-cost
//! [`tugal_netsim::SimObserver`] seam into that telemetry:
//!
//! * **per-channel traversal counters**, split local/global, normalized to
//!   flits/cycle — the channel-load profiles behind Figures 4–18,
//! * **log-bucketed (HDR-style) latency and hop histograms** with *exact*
//!   p50/p99 below 4096 cycles (every unsaturated run) — see
//!   [`hist::LogHistogram`],
//! * **MIN/VLB/PAR-reroute decision counters** per traffic class
//!   (intra-group vs inter-group destinations),
//! * optional **time-series sampling** of injection/delivery/link activity
//!   at a configurable cycle cadence, and optional input-buffer
//!   **occupancy sampling** driven by the engine.
//!
//! Everything is off by default ([`MetricsConfig::default`]); an
//! un-instrumented run still goes through the monomorphized
//! `NoopObserver` engine and pays nothing.
//!
//! ```no_run
//! use std::sync::Arc;
//! use tugal_netsim::{Config, NoopProfiler, RoutingAlgorithm, Simulator, SimWorkspace};
//! use tugal_obs::{MetricsConfig, MetricsObserver};
//! use tugal_routing::TableProvider;
//! use tugal_topology::{Dragonfly, DragonflyParams};
//! use tugal_traffic::Uniform;
//!
//! let topo = Arc::new(Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap());
//! let provider = Arc::new(TableProvider::all_paths(topo.clone()));
//! let pattern = Arc::new(Uniform::new(&topo));
//! let sim = Simulator::new(topo.clone(), provider, pattern,
//!     RoutingAlgorithm::UgalL, Config::quick());
//! let mut obs = MetricsObserver::new(&topo, &MetricsConfig::summary());
//! let result = sim.run_in(0.2, &mut SimWorkspace::new(), &mut obs, &mut NoopProfiler).result;
//! let metrics = obs.report();
//! println!("global mean load {:.3} flits/cycle, exact p99 {:.0} cycles",
//!     metrics.links.global.mean_load, metrics.latency.p99);
//! # let _ = result;
//! ```

#![warn(missing_docs)]

pub mod hist;
mod metrics;
mod report;
mod stall;

pub use hist::LogHistogram;
pub use metrics::{MetricsConfig, MetricsObserver};
pub use report::{
    ClassLoad, DecisionCounts, HopSummary, LatencySummary, LinkSummary, MetricsReport,
    OccupancyClass, OccupancySummary, TimeSample,
};
pub use stall::render_stall;
