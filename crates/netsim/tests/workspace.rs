//! The workspace-reuse determinism contract and the sweep/runner layer on
//! top of it: a reset workspace must be indistinguishable from a fresh
//! one, for any sequence of runs, topologies and configurations.

use std::sync::Arc;
use tugal_netsim::runner::{ExperimentRunner, SeriesSpec};
use tugal_netsim::{
    aggregate_runs, latency_curve, saturation_throughput, Config, NoopObserver, NoopProfiler,
    RoutingAlgorithm, SimObserver, SimResult, SimWorkspace, Simulator, SweepOptions, WorkspacePool,
};
use tugal_routing::TableProvider;
use tugal_topology::{Dragonfly, DragonflyParams, NodeId};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn topo(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap())
}

fn simulator(t: &Arc<Dragonfly>, routing: RoutingAlgorithm, seed: u64) -> Simulator {
    let provider = Arc::new(TableProvider::all_paths(t.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(t));
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = seed;
    Simulator::new(t.clone(), provider, pattern, routing, cfg)
}

#[test]
fn fresh_and_reused_workspace_agree() {
    let t = topo(2, 4, 2, 5);
    let sim = simulator(&t, RoutingAlgorithm::UgalL, 11);
    let fresh = sim.run(0.2);

    let mut ws = SimWorkspace::new();
    let first = sim
        .run_in(0.2, &mut ws, &mut NoopObserver, &mut NoopProfiler)
        .result;
    // Dirty the workspace with a different routing/rate, then repeat.
    let other = simulator(&t, RoutingAlgorithm::Par, 3);
    let _ = other
        .run_in(0.35, &mut ws, &mut NoopObserver, &mut NoopProfiler)
        .result;
    let reused = sim
        .run_in(0.2, &mut ws, &mut NoopObserver, &mut NoopProfiler)
        .result;

    assert_eq!(fresh, first, "fresh workspace must match Simulator::run");
    assert_eq!(fresh, reused, "reused workspace must match a fresh one");
}

#[test]
fn workspace_survives_shape_changes() {
    // Reuse across different topologies (different channel/switch counts)
    // must transparently reallocate and still match fresh runs.
    let small = topo(2, 4, 2, 5);
    let large = topo(2, 4, 2, 9);
    let sim_small = simulator(&small, RoutingAlgorithm::Min, 5);
    let sim_large = simulator(&large, RoutingAlgorithm::Min, 5);
    let fresh_small = sim_small.run(0.1);
    let fresh_large = sim_large.run(0.1);

    let mut ws = SimWorkspace::new();
    assert_eq!(
        sim_small
            .run_in(0.1, &mut ws, &mut NoopObserver, &mut NoopProfiler)
            .result,
        fresh_small
    );
    assert_eq!(
        sim_large
            .run_in(0.1, &mut ws, &mut NoopObserver, &mut NoopProfiler)
            .result,
        fresh_large
    );
    assert_eq!(
        sim_small
            .run_in(0.1, &mut ws, &mut NoopObserver, &mut NoopProfiler)
            .result,
        fresh_small
    );
}

#[test]
fn latency_curve_is_repeatable() {
    let t = topo(2, 4, 2, 5);
    let provider: Arc<dyn tugal_routing::PathProvider> =
        Arc::new(TableProvider::all_paths(t.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let cfg = Config::quick().for_routing(RoutingAlgorithm::UgalL);
    let opts = SweepOptions {
        seeds: vec![1, 2],
        resolution: 0.02,
    };
    let rates = [0.1, 0.25];
    let a = latency_curve(
        &t,
        &provider,
        &pattern,
        RoutingAlgorithm::UgalL,
        &cfg,
        &rates,
        &opts,
    )
    .unwrap();
    let b = latency_curve(
        &t,
        &provider,
        &pattern,
        RoutingAlgorithm::UgalL,
        &cfg,
        &rates,
        &opts,
    )
    .unwrap();
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.rate, pb.rate);
        assert_eq!(pa.result, pb.result, "curve must not depend on pool state");
        assert!(pa.elapsed_ms > 0.0, "per-point timing must be recorded");
    }
}

#[test]
fn bisection_is_bounded_by_the_grid() {
    // MIN on shift(1,0) saturates cleanly (analytic cap 1/8 per node), so
    // the bisected saturation throughput must sit between the last
    // unsaturated and the first saturated rate of a grid sweep.
    let t = topo(2, 4, 2, 9);
    let provider: Arc<dyn tugal_routing::PathProvider> =
        Arc::new(TableProvider::all_paths(t.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let cfg = Config::quick().for_routing(RoutingAlgorithm::Min);
    let opts = SweepOptions {
        seeds: vec![7],
        resolution: 0.02,
    };
    let rates = [0.05, 0.1, 0.15, 0.2];
    let curve = latency_curve(
        &t,
        &provider,
        &pattern,
        RoutingAlgorithm::Min,
        &cfg,
        &rates,
        &opts,
    )
    .unwrap();
    let last_unsat = curve
        .iter()
        .take_while(|p| !p.result.saturated)
        .map(|p| p.rate)
        .fold(0.0, f64::max);
    let first_sat = curve
        .iter()
        .find(|p| p.result.saturated)
        .map(|p| p.rate)
        .expect("grid must reach saturation");
    let sat =
        saturation_throughput(&t, &provider, &pattern, RoutingAlgorithm::Min, &cfg, &opts).unwrap();
    assert!(
        sat + opts.resolution >= last_unsat,
        "bisection {sat} fell below the last unsaturated grid rate {last_unsat}"
    );
    assert!(
        sat <= first_sat,
        "bisection {sat} exceeded the first saturated grid rate {first_sat}"
    );
}

#[test]
fn runner_matches_per_series_curves() {
    // The flat (series × rate × seed) schedule must produce exactly the
    // per-series latency_curve results.
    let t = topo(2, 4, 2, 5);
    let provider: Arc<dyn tugal_routing::PathProvider> =
        Arc::new(TableProvider::all_paths(t.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let rates = [0.1, 0.3];
    let seeds = [1u64, 2];
    let mut runner = ExperimentRunner::new(t.clone());
    for routing in [RoutingAlgorithm::Min, RoutingAlgorithm::UgalL] {
        runner = runner.series(SeriesSpec {
            label: routing.name().to_string(),
            provider: provider.clone(),
            pattern: pattern.clone(),
            routing,
            cfg: Config::quick().for_routing(routing),
            faults: None,
        });
    }
    assert_eq!(runner.job_count(&rates, &seeds), 2 * 2 * 2);
    let (curves, _, _) = runner
        .run_recorded(&rates, &seeds, |_| NoopObserver)
        .unwrap();
    assert_eq!(curves.len(), 2);
    let opts = SweepOptions {
        seeds: seeds.to_vec(),
        resolution: 0.02,
    };
    for (curve, routing) in curves
        .iter()
        .zip([RoutingAlgorithm::Min, RoutingAlgorithm::UgalL])
    {
        let cfg = Config::quick().for_routing(routing);
        let expect = latency_curve(&t, &provider, &pattern, routing, &cfg, &rates, &opts).unwrap();
        assert_eq!(curve.label, routing.name());
        for (got, want) in curve.points.iter().zip(&expect) {
            assert_eq!(
                got.point.result, want.result,
                "{}: flat vs nested schedule",
                curve.label
            );
        }
        let elapsed_ms: f64 = curve.points.iter().map(|p| p.point.elapsed_ms).sum();
        assert!(elapsed_ms > 0.0);
    }
}

#[test]
fn workspace_pool_parks_and_reuses() {
    let pool = WorkspacePool::new();
    assert_eq!(pool.idle(), 0);
    let t = topo(2, 4, 2, 5);
    let sim = simulator(&t, RoutingAlgorithm::Min, 1);
    let a = pool.with(|ws| {
        sim.run_in(0.1, ws, &mut NoopObserver, &mut NoopProfiler)
            .result
    });
    assert_eq!(pool.idle(), 1, "the workspace must return to the pool");
    let b = pool.with(|ws| {
        sim.run_in(0.1, ws, &mut NoopObserver, &mut NoopProfiler)
            .result
    });
    assert_eq!(pool.idle(), 1, "reused, not duplicated");
    assert_eq!(a, b);
}

/// An observer counting events — exercises the seam and pins the rule that
/// observing a run cannot change its result.
#[derive(Default)]
struct Counter {
    cycles: u64,
    injected: u64,
    delivered: u64,
    routed: u64,
    window_opened: bool,
}

impl SimObserver for Counter {
    fn on_cycle(&mut self, _now: u64) {
        self.cycles += 1;
    }
    fn on_measurement_start(&mut self, _now: u64) {
        self.window_opened = true;
    }
    fn on_inject(&mut self, _now: u64, _src: NodeId, _dst: NodeId) {
        self.injected += 1;
    }
    fn on_route(
        &mut self,
        _now: u64,
        _src: tugal_topology::SwitchId,
        _dst: tugal_topology::SwitchId,
        _used_vlb: bool,
        _reroute: bool,
    ) {
        self.routed += 1;
    }
    fn on_deliver(&mut self, _now: u64, _latency: u64, _hops: u8) {
        self.delivered += 1;
    }
}

#[test]
fn observer_sees_events_without_perturbing_the_run() {
    let t = topo(2, 4, 2, 5);
    let sim = simulator(&t, RoutingAlgorithm::UgalL, 13);
    let plain = sim.run(0.2);

    let mut ws = SimWorkspace::new();
    let mut counter = Counter::default();
    let observed = sim
        .run_in(0.2, &mut ws, &mut counter, &mut NoopProfiler)
        .result;
    assert_eq!(plain, observed, "observation must not change the physics");

    let noop = sim
        .run_in(0.2, &mut ws, &mut NoopObserver, &mut NoopProfiler)
        .result;
    assert_eq!(plain, noop);

    assert!(counter.window_opened);
    assert_eq!(counter.cycles, Config::quick().total_cycles());
    // Window stats are a subset of what the observer saw over the run.
    assert!(counter.delivered >= plain.delivered);
    assert!(counter.injected >= plain.injected);
    assert!(counter.routed > 0);
}

#[test]
fn aggregation_ignores_non_finite_latency_statistics() {
    // One healthy run and one zero-delivery run (infinite mean, NaN
    // percentiles): the aggregate must report the healthy run's latency
    // statistics instead of NaN-poisoning them.
    let healthy = SimResult {
        injection_rate: 0.5,
        avg_latency: 40.0,
        throughput: 0.5,
        avg_hops: 3.0,
        delivered: 100,
        injected: 100,
        saturated: false,
        deadlock_suspected: false,
        vlb_fraction: 0.25,
        latency_p50: 32.0,
        latency_p99: 64.0,
        max_channel_util: 0.5,
        mean_global_util: 0.3,
        mean_local_util: 0.2,
    };
    let starved = SimResult {
        avg_latency: f64::INFINITY,
        throughput: 0.0,
        delivered: 0,
        injected: 50,
        saturated: true,
        vlb_fraction: 0.0,
        latency_p50: f64::NAN,
        latency_p99: f64::NAN,
        max_channel_util: 1.0,
        mean_global_util: 0.9,
        mean_local_util: 0.8,
        ..healthy.clone()
    };
    let agg = aggregate_runs(0.5, &[healthy, starved.clone()]);
    assert_eq!(agg.avg_latency, 40.0);
    assert_eq!(agg.latency_p50, 32.0, "NaN p50 must not poison the mean");
    assert_eq!(agg.latency_p99, 64.0, "NaN p99 must not poison the mean");
    assert_eq!(agg.delivered, 100);
    assert_eq!(agg.injected, 150);
    assert!(!agg.saturated, "1 of 2 saturated is not a majority");

    // All runs starved: the aggregate degrades to infinite latency (not
    // NaN), and the majority rule marks it saturated.
    let all_starved = aggregate_runs(0.5, &[starved.clone(), starved]);
    assert!(all_starved.avg_latency.is_infinite());
    assert!(all_starved.latency_p50.is_infinite());
    assert!(all_starved.saturated);
}
