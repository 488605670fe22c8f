//! Statistics collection: window/whole-run counters accumulated during a
//! run and their finalization into a [`SimResult`].

use crate::config::Config;
use crate::stats::SimResult;

/// Counters the engine updates as it simulates (window = measurement
/// window; total = whole run, used when a run saturates before the
/// measurement window starts).
pub(crate) struct Stats {
    pub(crate) measuring: bool,
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    pub(crate) latency_sum: f64,
    pub(crate) hops_sum: u64,
    pub(crate) total_injected: u64,
    pub(crate) total_delivered: u64,
    /// Whole-run dropped-packet count (source-queue overflow, dead
    /// components, failed fault reroutes) — the third leg of the
    /// watchdog's conservation ledger.  Not part of [`SimResult`].
    pub(crate) total_dropped: u64,
    pub(crate) total_latency_sum: f64,
    pub(crate) total_hops_sum: u64,
    pub(crate) vlb_chosen: u64,
    pub(crate) routed: u64,
    pub(crate) saturated_early: bool,
    pub(crate) last_delivery: u64,
    pub(crate) deadlock_suspected: bool,
    /// Power-of-two latency histogram (measurement window).
    pub(crate) lat_hist: [u64; 24],
}

impl Stats {
    pub(crate) fn new() -> Self {
        Stats {
            measuring: false,
            injected: 0,
            delivered: 0,
            latency_sum: 0.0,
            hops_sum: 0,
            total_injected: 0,
            total_delivered: 0,
            total_dropped: 0,
            total_latency_sum: 0.0,
            total_hops_sum: 0,
            vlb_chosen: 0,
            routed: 0,
            saturated_early: false,
            last_delivery: 0,
            deadlock_suspected: false,
            lat_hist: [0; 24],
        }
    }

    /// Opens the measurement window: window counters restart, whole-run
    /// counters keep accumulating.
    pub(crate) fn open_window(&mut self) {
        self.measuring = true;
        self.injected = 0;
        self.delivered = 0;
        self.latency_sum = 0.0;
        self.hops_sum = 0;
        self.lat_hist = [0; 24];
    }

    /// Records a delivery at `now` of a packet born at `birth` that took
    /// `hops` network hops.
    pub(crate) fn record_delivery(&mut self, now: u64, birth: u64, hops: u8) {
        let latency = (now - birth) as f64;
        let hops = hops as u64;
        self.total_delivered += 1;
        self.total_latency_sum += latency;
        self.total_hops_sum += hops;
        self.last_delivery = now;
        // The histogram records the whole run and is reset when the
        // measurement window opens, so it stays aligned with whichever
        // stats (window or whole-run fallback) the final report uses.
        let bucket = (64 - ((latency as u64) | 1).leading_zeros() - 1).min(23) as usize;
        self.lat_hist[bucket] += 1;
        if self.measuring {
            self.delivered += 1;
            self.latency_sum += latency;
            self.hops_sum += hops;
        }
    }

    /// Records an injection attempt (before any source-queue drop).
    pub(crate) fn record_injection(&mut self) {
        self.total_injected += 1;
        if self.measuring {
            self.injected += 1;
        }
    }

    /// Records a dropped packet (it stays counted as injected).
    pub(crate) fn record_drop(&mut self) {
        self.total_dropped += 1;
    }

    /// Records a routing decision.
    pub(crate) fn record_route(&mut self, used_vlb: bool) {
        self.routed += 1;
        if used_vlb {
            self.vlb_chosen += 1;
        }
    }

    /// Latency percentile from the power-of-two histogram (geometric
    /// bucket midpoints).
    fn percentile(&self, p: f64) -> f64 {
        let total: u64 = self.lat_hist.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let target = (p * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.lat_hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                let lo = (1u64 << i) as f64;
                return lo * std::f64::consts::SQRT_2;
            }
        }
        f64::NAN
    }

    /// Folds the counters into a [`SimResult`].
    ///
    /// `now` is the last simulated cycle, `chan_flits`/`is_global` the
    /// per-channel flit counts over the first `n_network` (switch-to-
    /// switch) channels.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finalize(
        &self,
        cfg: &Config,
        rate: f64,
        now: u64,
        nodes: usize,
        chan_flits: &[u32],
        is_global: &[bool],
        n_network: usize,
    ) -> SimResult {
        let warmup = cfg.warmup_windows as u64 * cfg.window as u64;
        // If the run saturated before the measurement window opened, fall
        // back to whole-run statistics so callers still see meaningful
        // (deeply saturated) numbers instead of zeros.
        let (delivered, injected, latency_sum, hops_sum, measured_cycles) =
            if self.measuring && !(self.saturated_early && self.delivered == 0) {
                let cycles = if self.saturated_early {
                    (now + 1).saturating_sub(warmup).max(1)
                } else {
                    cfg.window as u64
                };
                (
                    self.delivered,
                    self.injected,
                    self.latency_sum,
                    self.hops_sum,
                    cycles,
                )
            } else {
                (
                    self.total_delivered,
                    self.total_injected,
                    self.total_latency_sum,
                    self.total_hops_sum,
                    (now + 1).max(1),
                )
            };
        let avg_latency = if delivered > 0 {
            latency_sum / delivered as f64
        } else {
            f64::INFINITY
        };
        let throughput = delivered as f64 / (nodes as f64 * measured_cycles as f64);
        let saturated = self.saturated_early
            || avg_latency > cfg.sat_latency
            || (injected > 0 && delivered == 0);
        // Channel utilization over switch-to-switch channels, counted over
        // the whole run (warmup included): at steady state the ratio
        // matches the window view, and it stays meaningful for runs that
        // saturate before the window opens.
        let elapsed = (now + 1) as f64;
        let mut max_util = 0.0f64;
        let (mut gsum, mut gcount, mut lsum, mut lcount) = (0.0f64, 0u64, 0.0f64, 0u64);
        for ch in 0..n_network {
            let util = chan_flits[ch] as f64 / elapsed;
            max_util = max_util.max(util);
            if is_global[ch] {
                gsum += util;
                gcount += 1;
            } else {
                lsum += util;
                lcount += 1;
            }
        }
        SimResult {
            injection_rate: rate,
            avg_latency,
            throughput,
            avg_hops: if delivered > 0 {
                hops_sum as f64 / delivered as f64
            } else {
                0.0
            },
            delivered,
            injected,
            saturated,
            deadlock_suspected: self.deadlock_suspected,
            vlb_fraction: if self.routed > 0 {
                self.vlb_chosen as f64 / self.routed as f64
            } else {
                0.0
            },
            latency_p50: self.percentile(0.50),
            latency_p99: self.percentile(0.99),
            max_channel_util: max_util,
            mean_global_util: if gcount > 0 {
                gsum / gcount as f64
            } else {
                0.0
            },
            mean_local_util: if lcount > 0 {
                lsum / lcount as f64
            } else {
                0.0
            },
        }
    }
}
