//! Load sweeps: latency curves and saturation throughput.
//!
//! Both sweeps validate their inputs first and return a [`ConfigError`]
//! instead of panicking inside a job.  They schedule their (rate × seed)
//! replications as one flat job list over a shared [`WorkspacePool`], so
//! engine state is allocated once per worker and reused across every
//! point — the bisection in [`saturation_throughput`] keeps its pool
//! across iterations for the same reason.

use crate::config::{Config, RoutingAlgorithm};
use crate::engine::{NoopObserver, NoopProfiler, Simulator, WorkspacePool};
use crate::error::{validate_resolution, validate_seeds, validate_sweep, ConfigError};
use crate::stats::SimResult;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use tugal_routing::PathProvider;
use tugal_topology::Dragonfly;
use tugal_traffic::TrafficPattern;

/// One point of a latency-vs-load curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Offered load (packets/cycle/node).
    pub rate: f64,
    /// Full measurement at this load (averaged over the sweep's seeds).
    pub result: SimResult,
    /// Total wall-clock spent simulating this point, in milliseconds,
    /// summed over its seed replications (they may run in parallel).
    pub elapsed_ms: f64,
}

/// Sweep controls.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Seeds to average over (the paper averages 8–20 replications).
    pub seeds: Vec<u64>,
    /// Bisection resolution for [`saturation_throughput`].
    pub resolution: f64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            seeds: vec![1, 2, 3],
            resolution: 0.01,
        }
    }
}

/// Finite-aware aggregation of replicated runs at one offered load: counts
/// are summed, ratios averaged, and latency statistics (mean, p50, p99)
/// averaged over *finite* values only, so a single zero-delivery run
/// (infinite mean, NaN percentiles) cannot poison the aggregate.  A
/// majority of saturated runs marks the point saturated.
///
/// An empty `runs` slice — every replication of the point failed under the
/// runner's job isolation — aggregates to the explicit *no-data* sentinel:
/// zero deliveries, infinite latency, `saturated` set (historically this
/// was a panic, which let one bad point poison a whole sweep).
pub fn aggregate_runs(rate: f64, runs: &[SimResult]) -> SimResult {
    if runs.is_empty() {
        return SimResult {
            injection_rate: rate,
            avg_latency: f64::INFINITY,
            throughput: 0.0,
            avg_hops: 0.0,
            delivered: 0,
            injected: 0,
            saturated: true,
            deadlock_suspected: false,
            vlb_fraction: 0.0,
            latency_p50: f64::NAN,
            latency_p99: f64::NAN,
            max_channel_util: 0.0,
            mean_global_util: 0.0,
            mean_local_util: 0.0,
        };
    }
    let n = runs.len() as f64;
    let finite_mean = |value: fn(&SimResult) -> f64| -> f64 {
        let vals: Vec<f64> = runs.iter().map(value).filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            f64::INFINITY
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    SimResult {
        injection_rate: rate,
        avg_latency: finite_mean(|r| r.avg_latency),
        throughput: runs.iter().map(|r| r.throughput).sum::<f64>() / n,
        avg_hops: runs.iter().map(|r| r.avg_hops).sum::<f64>() / n,
        delivered: runs.iter().map(|r| r.delivered).sum(),
        injected: runs.iter().map(|r| r.injected).sum(),
        saturated: runs.iter().filter(|r| r.saturated).count() * 2 > runs.len(),
        deadlock_suspected: runs.iter().any(|r| r.deadlock_suspected),
        vlb_fraction: runs.iter().map(|r| r.vlb_fraction).sum::<f64>() / n,
        latency_p50: finite_mean(|r| r.latency_p50),
        latency_p99: finite_mean(|r| r.latency_p99),
        max_channel_util: runs.iter().map(|r| r.max_channel_util).fold(0.0, f64::max),
        mean_global_util: runs.iter().map(|r| r.mean_global_util).sum::<f64>() / n,
        mean_local_util: runs.iter().map(|r| r.mean_local_util).sum::<f64>() / n,
    }
}

/// One simulator per replication seed (the seed overrides `cfg.seed`),
/// shared by every offered load of a sweep.
fn seeded(
    topo: &Arc<Dragonfly>,
    provider: &Arc<dyn PathProvider>,
    pattern: &Arc<dyn TrafficPattern>,
    routing: RoutingAlgorithm,
    cfg: &Config,
    seeds: &[u64],
) -> Vec<Simulator> {
    seeds
        .iter()
        .map(|&seed| {
            let cfg = Config {
                seed,
                ..cfg.clone()
            };
            Simulator::new(
                topo.clone(),
                provider.clone(),
                pattern.clone(),
                routing,
                cfg,
            )
        })
        .collect()
}

/// Latency as the offered load increases — the x/y data of the paper's
/// Figures 6–18.  All (rate × seed) jobs are scheduled as one flat
/// parallel batch over a shared workspace pool; saturated points report
/// their (already meaningless) latencies so callers can draw the
/// characteristic vertical asymptote.
///
/// Rejects an empty rate or seed list, a rate outside `(0, 1]`, a
/// duplicate seed and an invalid `cfg` before any job runs.
pub fn latency_curve(
    topo: &Arc<Dragonfly>,
    provider: &Arc<dyn PathProvider>,
    pattern: &Arc<dyn TrafficPattern>,
    routing: RoutingAlgorithm,
    cfg: &Config,
    rates: &[f64],
    opts: &SweepOptions,
) -> Result<Vec<CurvePoint>, ConfigError> {
    validate_sweep(rates, &opts.seeds)?;
    cfg.validate()?;
    let pool = WorkspacePool::new();
    let sims = seeded(topo, provider, pattern, routing, cfg, &opts.seeds);
    let jobs: Vec<(f64, &Simulator)> = rates
        .iter()
        .flat_map(|&rate| sims.iter().map(move |sim| (rate, sim)))
        .collect();
    let outcomes: Vec<(SimResult, f64)> = jobs
        .par_iter()
        .map(|&(rate, sim)| {
            let start = Instant::now();
            let out = pool.with(|ws| sim.run_in(rate, ws, &mut NoopObserver, &mut NoopProfiler));
            (out.result, start.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    Ok(outcomes
        .chunks(opts.seeds.len())
        .zip(rates)
        .map(|(chunk, &rate)| {
            let runs: Vec<SimResult> = chunk.iter().map(|(r, _)| r.clone()).collect();
            CurvePoint {
                rate,
                result: aggregate_runs(rate, &runs),
                elapsed_ms: chunk.iter().map(|(_, ms)| ms).sum(),
            }
        })
        .collect())
}

/// Saturation throughput: "the last injection rate before saturation
/// happens" (§4.1.2), located by bisection to `opts.resolution`.  The
/// workspace pool persists across bisection iterations, so only the first
/// probe pays engine allocation.
///
/// Rejects a resolution that is not a finite number in `(0, 1)`, an empty
/// seed list, a duplicate seed and an invalid `cfg` before any simulation
/// runs.
pub fn saturation_throughput(
    topo: &Arc<Dragonfly>,
    provider: &Arc<dyn PathProvider>,
    pattern: &Arc<dyn TrafficPattern>,
    routing: RoutingAlgorithm,
    cfg: &Config,
    opts: &SweepOptions,
) -> Result<f64, ConfigError> {
    validate_resolution(opts.resolution)?;
    validate_seeds(&opts.seeds)?;
    cfg.validate()?;
    let pool = WorkspacePool::new();
    let sims = seeded(topo, provider, pattern, routing, cfg, &opts.seeds);
    Ok(bisect(opts.resolution, |rate| {
        let runs: Vec<SimResult> = sims
            .par_iter()
            .map(|sim| {
                pool.with(|ws| sim.run_in(rate, ws, &mut NoopObserver, &mut NoopProfiler))
                    .result
            })
            .collect();
        aggregate_runs(rate, &runs).saturated
    }))
}

/// The last rate in `[resolution, 1]` at which `saturated` is false, to
/// within `resolution`: 0 when even `resolution` saturates, 1 when even
/// full load does not.  The search also ends when the midpoint rounds to
/// an endpoint, so a resolution below the float spacing there terminates.
fn bisect(resolution: f64, saturated: impl Fn(f64) -> bool) -> f64 {
    let mut lo = resolution;
    let mut hi = 1.0;
    if saturated(lo) {
        return 0.0;
    }
    if !saturated(hi) {
        return 1.0;
    }
    while hi - lo > resolution {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if saturated(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::bisect;
    use std::cell::Cell;

    #[test]
    fn bisection_below_the_float_spacing_terminates() {
        let probes = Cell::new(0);
        let point = 0.3;
        let sat = bisect(1e-18, |rate| {
            probes.set(probes.get() + 1);
            rate > point
        });
        assert!(sat <= point && point - sat < 1e-15, "{sat}");
        // Two endpoint probes, then one per halving of [1e-18, 1] down to
        // the spacing of f64 near 0.3 (2^-54).
        assert!(probes.get() <= 60, "{} probes", probes.get());
    }

    #[test]
    fn bisection_reports_the_interval_ends() {
        assert_eq!(bisect(0.01, |_| true), 0.0);
        assert_eq!(bisect(0.01, |_| false), 1.0);
    }
}
