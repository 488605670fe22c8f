//! Simulator configuration (Table 3 of the paper).

use crate::engine::WatchdogConfig;
use crate::error::ConfigError;
use serde::Serialize;
use tugal_routing::VcScheme;

/// Routing algorithm run by every router (§2.2 / §4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RoutingAlgorithm {
    /// Minimal routing only.
    Min,
    /// Valiant load balancing only (always the VLB candidate).
    Vlb,
    /// UGAL with local information: compares the source router's output
    /// queue for the two candidates, each weighted by path length.
    UgalL,
    /// UGAL with global information: compares total queue occupancy along
    /// the two candidate paths (an idealized scheme — the "genie" of the
    /// paper).
    UgalG,
    /// Progressive adaptive routing: UGAL-L whose MIN decision may be
    /// revised once at the second router within the source group.
    Par,
}

impl RoutingAlgorithm {
    /// True for PAR, which needs one extra VC (Table 3).
    pub fn progressive(self) -> bool {
        matches!(self, RoutingAlgorithm::Par)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            RoutingAlgorithm::Min => "MIN",
            RoutingAlgorithm::Vlb => "VLB",
            RoutingAlgorithm::UgalL => "UGAL-L",
            RoutingAlgorithm::UgalG => "UGAL-G",
            RoutingAlgorithm::Par => "PAR",
        }
    }
}

/// Network and measurement parameters.
///
/// [`Config::paper_default`] reproduces Table 3; [`Config::quick`] shrinks
/// the measurement windows for CI-speed runs (same network parameters).
#[derive(Clone, PartialEq, Serialize)]
pub struct Config {
    /// Virtual channels per channel.  Use
    /// [`tugal_routing::required_vcs`] for the scheme/routing at hand; more
    /// VCs than required is allowed (Figure 18 studies this).
    pub num_vcs: u8,
    /// Flit buffer depth per (channel, VC) — credits per VC.
    pub buf_size: u16,
    /// Local (intra-group) channel latency in cycles.
    pub local_latency: u32,
    /// Global (inter-group) channel latency in cycles.
    pub global_latency: u32,
    /// Injection/ejection channel latency in cycles.
    pub terminal_latency: u32,
    /// Router-internal speedup: switch-allocation rounds per cycle.
    pub speedup: u32,
    /// VC allocation scheme (deadlock freedom).
    pub vc_scheme: VcScheme,
    /// Warmup sample windows before measurement starts.
    pub warmup_windows: u32,
    /// Sample window length in cycles.
    pub window: u32,
    /// A run whose measured average latency exceeds this is saturated.
    pub sat_latency: f64,
    /// UGAL threshold `T` biasing the decision toward MIN (§2.2; the paper
    /// evaluates with `T = 0`).
    ///
    /// `i64::MAX` is a documented *force-MIN sentinel*: the UGAL-L/G (and
    /// PAR) decision short-circuits to the MIN candidate **without drawing
    /// the VLB candidate**, so such a run consumes the RNG exactly like
    /// [`RoutingAlgorithm::Min`] and is flit-for-flit identical to it
    /// (pinned by `tests/differential.rs`).  A merely huge *finite*
    /// threshold cannot achieve this — it still draws (and thus consumes
    /// randomness for) the VLB candidate, and `q_vlb + T` would overflow.
    pub ugal_threshold: i64,
    /// VLB candidates drawn per routing decision (the paper and the
    /// original UGAL use 1; Singh's thesis studies more).  The candidate
    /// with the smallest queue metric competes against the MIN candidate.
    pub vlb_candidates: u8,
    /// RNG seed (traffic, candidate draws, arbitration tie-breaks).
    pub seed: u64,
    /// Opt-in engine watchdog (`None` = off, the default): periodic flit
    /// conservation, forward-progress/livelock detection and cycle/wall
    /// ceilings — see [`WatchdogConfig`].  All its checks are read-only,
    /// so arming it cannot change simulation results; a trip only *stops*
    /// the run early with a [`crate::StallReport`].
    pub watchdog: Option<WatchdogConfig>,
}

// Hand-written so the rendering stays what existing digests were computed
// from: the `Debug` text of `Config` feeds FNV-1a digests (runner series
// keys, the perf baseline), so `shards: 1` stays although the engine lost
// its shard count (every run is sequential, which the old default of 1
// described).
impl std::fmt::Debug for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Config")
            .field("num_vcs", &self.num_vcs)
            .field("buf_size", &self.buf_size)
            .field("local_latency", &self.local_latency)
            .field("global_latency", &self.global_latency)
            .field("terminal_latency", &self.terminal_latency)
            .field("speedup", &self.speedup)
            .field("vc_scheme", &self.vc_scheme)
            .field("warmup_windows", &self.warmup_windows)
            .field("window", &self.window)
            .field("sat_latency", &self.sat_latency)
            .field("ugal_threshold", &self.ugal_threshold)
            .field("vlb_candidates", &self.vlb_candidates)
            .field("seed", &self.seed)
            .field("shards", &1u32)
            .field("watchdog", &self.watchdog)
            .finish()
    }
}

impl Config {
    /// Table 3 defaults: 4 VCs (callers bump to 5 for PAR via
    /// [`Config::for_routing`]), 32-flit buffers, 10/15-cycle link
    /// latencies, speedup 2, 10 000-cycle windows with 3 warmup windows.
    pub fn paper_default() -> Self {
        Config {
            num_vcs: 4,
            buf_size: 32,
            local_latency: 10,
            global_latency: 15,
            terminal_latency: 1,
            speedup: 2,
            vc_scheme: VcScheme::Compact,
            warmup_windows: 3,
            window: 10_000,
            sat_latency: 500.0,
            ugal_threshold: 0,
            vlb_candidates: 1,
            seed: 0xDF17,
            watchdog: None,
        }
    }

    /// CI-speed settings: identical network parameters, shorter windows
    /// (1 warmup window of 2 000 cycles, 2 000-cycle measurement).
    pub fn quick() -> Self {
        Config {
            warmup_windows: 1,
            window: 2_000,
            ..Self::paper_default()
        }
    }

    /// Adjusts the VC count to the minimum required by `routing` under the
    /// configured VC scheme (5 for PAR, 4 otherwise with the compact
    /// scheme — exactly Table 3).
    pub fn for_routing(mut self, routing: RoutingAlgorithm) -> Self {
        self.num_vcs = self.num_vcs.max(tugal_routing::required_vcs(
            self.vc_scheme,
            routing.progressive(),
        ));
        self
    }

    /// Total simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        (self.warmup_windows as u64 + 1) * self.window as u64
    }

    /// Checks the structural parameters up front, so a malformed config is
    /// rejected before any job is scheduled instead of panicking deep in
    /// the engine.  Deliberately does *not* check routing-specific VC
    /// minimums — those depend on the routing algorithm and are asserted
    /// by [`crate::Simulator::new`] (which the replay machinery exercises
    /// as a reproducible panic).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_vcs == 0 {
            return Err(ConfigError::NoVirtualChannels);
        }
        if self.buf_size == 0 {
            return Err(ConfigError::NoBufferSpace);
        }
        if self.window == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        if self.speedup == 0 {
            return Err(ConfigError::ZeroSpeedup);
        }
        if !(self.sat_latency > 0.0 && self.sat_latency.is_finite()) {
            return Err(ConfigError::BadSaturationLatency(self.sat_latency));
        }
        if self.vlb_candidates == 0 {
            return Err(ConfigError::NoVlbCandidates);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table3() {
        let c = Config::paper_default();
        assert_eq!(c.num_vcs, 4);
        assert_eq!(c.buf_size, 32);
        assert_eq!(c.local_latency, 10);
        assert_eq!(c.global_latency, 15);
        assert_eq!(c.speedup, 2);
        assert_eq!(c.window, 10_000);
        assert_eq!(c.warmup_windows, 3);
        assert_eq!(c.sat_latency, 500.0);
        assert_eq!(c.ugal_threshold, 0);
        assert_eq!(c.vlb_candidates, 1);
        assert_eq!(c.total_cycles(), 40_000);
    }

    #[test]
    fn for_routing_bumps_vcs_for_par() {
        let c = Config::paper_default().for_routing(RoutingAlgorithm::Par);
        assert_eq!(c.num_vcs, 5);
        let c = Config::paper_default().for_routing(RoutingAlgorithm::UgalG);
        assert_eq!(c.num_vcs, 4);
        // Explicitly oversized VC counts are preserved (Figure 18).
        let mut big = Config::paper_default();
        big.num_vcs = 6;
        assert_eq!(big.for_routing(RoutingAlgorithm::UgalL).num_vcs, 6);
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        assert!(Config::paper_default().validate().is_ok());
        assert!(Config::quick().validate().is_ok());

        let mut c = Config::quick();
        c.num_vcs = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoVirtualChannels));

        let mut c = Config::quick();
        c.buf_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoBufferSpace));

        let mut c = Config::quick();
        c.window = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroWindow));

        let mut c = Config::quick();
        c.speedup = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroSpeedup));

        let mut c = Config::quick();
        c.sat_latency = f64::INFINITY;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadSaturationLatency(_))
        ));
        c.sat_latency = -1.0;
        assert!(c.validate().is_err());

        let mut c = Config::quick();
        c.vlb_candidates = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoVlbCandidates));
    }

    #[test]
    fn debug_rendering_matches_existing_digests() {
        // Journal series keys and perf baseline digests hash this exact
        // text; it must not change.
        assert_eq!(
            format!("{:?}", Config::paper_default()),
            "Config { num_vcs: 4, buf_size: 32, local_latency: 10, global_latency: 15, \
             terminal_latency: 1, speedup: 2, vc_scheme: Compact, warmup_windows: 3, \
             window: 10000, sat_latency: 500.0, ugal_threshold: 0, vlb_candidates: 1, \
             seed: 57111, shards: 1, watchdog: None }"
        );
    }

    #[test]
    fn routing_names() {
        assert_eq!(RoutingAlgorithm::UgalL.name(), "UGAL-L");
        assert!(RoutingAlgorithm::Par.progressive());
        assert!(!RoutingAlgorithm::UgalG.progressive());
    }
}
