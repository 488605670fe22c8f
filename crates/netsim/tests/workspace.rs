//! The workspace-reuse determinism contract and the runner layer on top
//! of it: a reset workspace must be indistinguishable from a fresh one,
//! for any sequence of runs, topologies and configurations, and the
//! runner's grid and bisection entry points must reproduce direct runs.

use std::sync::Arc;
use tugal_netsim::journal::Journal;
use tugal_netsim::runner::{ExperimentRunner, SeriesSpec};
use tugal_netsim::{
    aggregate_runs, Config, CurvePoint, NoopObserver, NoopProfiler, RoutingAlgorithm, SimObserver,
    SimResult, SimWorkspace, Simulator, WatchdogConfig, WorkspacePool,
};
use tugal_routing::{PathProvider, TableProvider};
use tugal_topology::{Dragonfly, DragonflyParams, NodeId};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn topo(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap())
}

/// A runner with one series per routing, each on its `Config::quick`.
fn runner_over(
    t: &Arc<Dragonfly>,
    pattern: &Arc<dyn TrafficPattern>,
    routings: &[RoutingAlgorithm],
) -> ExperimentRunner {
    let provider: Arc<dyn PathProvider> = Arc::new(TableProvider::all_paths(t.clone()));
    routings
        .iter()
        .fold(ExperimentRunner::new(t.clone()), |runner, &routing| {
            runner.series(SeriesSpec {
                label: routing.name().to_string(),
                provider: provider.clone(),
                pattern: pattern.clone(),
                routing,
                cfg: Config::quick().for_routing(routing),
                faults: None,
            })
        })
}

/// The runner's latency curves, one per series.
fn curves(runner: &ExperimentRunner, rates: &[f64], seeds: &[u64]) -> Vec<Vec<CurvePoint>> {
    let (curves, _, _) = runner.run_recorded(rates, seeds, |_| NoopObserver).unwrap();
    curves
        .into_iter()
        .map(|c| c.points.into_iter().map(|p| p.point).collect())
        .collect()
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
    assert_eq!(fresh, first, "fresh workspace must match Simulator::run");
    // Dirty the workspace with a different routing/rate, run to the end
    // or cut mid-window by a cycle ceiling (packets left in flight), then
    // repeat.
    for ceiling in [0, 1_900] {
        let mut cfg = Config::quick().for_routing(RoutingAlgorithm::Par);
        cfg.seed = 3;
        cfg.watchdog = (ceiling > 0).then_some(WatchdogConfig {
            conservation_every: 0,
            stall_cycles: 0,
            max_cycles: ceiling,
            wall_limit_ms: 0,
            flight_recorder: 0,
        });
        let provider = Arc::new(TableProvider::all_paths(t.clone()));
        let other = Simulator::new(
            t.clone(),
            provider,
            Arc::new(Uniform::new(&t)),
            RoutingAlgorithm::Par,
            cfg,
        );
        let _ = other.run_in(0.35, &mut ws, &mut NoopObserver, &mut NoopProfiler);
        let reused = sim
            .run_in(0.2, &mut ws, &mut NoopObserver, &mut NoopProfiler)
            .result;
        assert_eq!(
            fresh, reused,
            "reused workspace must match a fresh one (ceiling {ceiling})"
        );
    }
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
fn runner_curve_is_repeatable() {
    let t = topo(2, 4, 2, 5);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let runner = runner_over(&t, &pattern, &[RoutingAlgorithm::UgalL]);
    let rates = [0.1, 0.25];
    let a = curves(&runner, &rates, &[1, 2]);
    let b = curves(&runner, &rates, &[1, 2]);
    assert_eq!(a[0].len(), b[0].len());
    for (pa, pb) in a[0].iter().zip(&b[0]) {
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
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let runner = runner_over(&t, &pattern, &[RoutingAlgorithm::Min]);
    let resolution = 0.02;
    let rates = [0.05, 0.1, 0.15, 0.2];
    let curve = &curves(&runner, &rates, &[7])[0];
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
    let (sat, _, _) = runner.saturation(&[7], resolution).unwrap();
    let sat = sat[0];
    assert!(
        sat + resolution >= last_unsat,
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
    // per-seed `Simulator::run` results, aggregated per point.
    let t = topo(2, 4, 2, 5);
    let provider: Arc<dyn PathProvider> = Arc::new(TableProvider::all_paths(t.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let rates = [0.1, 0.3];
    let seeds = [1u64, 2];
    let routings = [RoutingAlgorithm::Min, RoutingAlgorithm::UgalL];
    let runner = runner_over(&t, &pattern, &routings);
    let (curves, _, records) = runner
        .run_recorded(&rates, &seeds, |_| NoopObserver)
        .unwrap();
    assert_eq!(records.len(), 2 * 2 * 2);
    assert_eq!(curves.len(), 2);
    for (curve, routing) in curves.iter().zip(routings) {
        assert_eq!(curve.label, routing.name());
        for (got, &rate) in curve.points.iter().zip(&rates) {
            let runs: Vec<SimResult> = seeds
                .iter()
                .map(|&seed| {
                    let mut cfg = Config::quick().for_routing(routing);
                    cfg.seed = seed;
                    Simulator::new(t.clone(), provider.clone(), pattern.clone(), routing, cfg)
                        .run(rate)
                })
                .collect();
            assert_eq!(
                got.point.result,
                aggregate_runs(rate, &runs),
                "{}: runner vs direct runs at rate {rate}",
                curve.label
            );
        }
        let elapsed_ms: f64 = curve.points.iter().map(|p| p.point.elapsed_ms).sum();
        assert!(elapsed_ms > 0.0);
    }
}

/// Saturation throughput of MIN and UGAL-L on shift(1,0) over
/// dfly(2,4,2,9) at resolution 0.02, and a two-rate, two-seed UGAL-L
/// curve, pinned to the IEEE-754 bits the per-series sweep functions
/// produced before the runner took them over.  Run at one and two threads:
/// the two-seed probes and the curve are where a batch runs in parallel.
#[test]
fn saturation_and_curve_match_pinned_bits() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let routings = [RoutingAlgorithm::Min, RoutingAlgorithm::UgalL];
    let pinned = [0x3fc047ae147ae148u64, 0x3fd4e147ae147ae2];
    let curve = [
        SimResult {
            injection_rate: 0.1,
            avg_latency: 44.74460746023857,
            throughput: 0.10027083333333334,
            avg_hops: 3.524762589475868,
            delivered: 28878,
            injected: 28884,
            saturated: false,
            deadlock_suspected: false,
            vlb_fraction: 0.43120207970027513,
            latency_p50: 45.254833995939045,
            latency_p99: 90.50966799187809,
            max_channel_util: 0.49037740564858784,
            mean_global_util: 0.14264315865478078,
            mean_local_util: 0.13946976218908236,
        },
        SimResult {
            injection_rate: 0.3,
            avg_latency: 77.72902373170908,
            throughput: 0.2998576388888889,
            avg_hops: 3.744587461203719,
            delivered: 86359,
            injected: 86154,
            saturated: false,
            deadlock_suspected: false,
            vlb_fraction: 0.5791816265760208,
            latency_p50: 90.50966799187809,
            latency_p99: 181.01933598375618,
            max_channel_util: 0.9985003749062734,
            mean_global_util: 0.46865714127023794,
            mean_local_util: 0.4277159876697492,
        },
    ];
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let runner = runner_over(&t, &pattern, &routings);
            for seeds in [&[5u64][..], &[11, 12]] {
                let (values, summary, records) = runner.saturation(seeds, 0.02).unwrap();
                let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, pinned, "seeds {seeds:?} at {threads} threads");
                assert_eq!(summary.jobs, records.len());
                assert_eq!(summary.failed, 0);
                assert!(records.iter().all(|r| !r.resumed));
            }
            let ugal = runner_over(&t, &pattern, &[RoutingAlgorithm::UgalL]);
            let got: Vec<SimResult> = curves(&ugal, &[0.1, 0.3], &[11, 12])
                .remove(0)
                .into_iter()
                .map(|p| p.result)
                .collect();
            assert_eq!(got, curve, "curve at {threads} threads");
        });
    }
}

#[test]
fn killed_bisection_resumes_from_the_journal() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("killed_bisection_resumes_from_the_journal.jsonl");
    let _ = std::fs::remove_file(&path);
    let t = topo(2, 4, 2, 5);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let journal = Arc::new(Journal::open(&path).unwrap());
    let runner = runner_over(
        &t,
        &pattern,
        &[RoutingAlgorithm::Min, RoutingAlgorithm::UgalL],
    )
    .with_journal(journal);
    let seeds = [1, 2];
    let (first, summary, records) = runner.saturation(&seeds, 0.05).unwrap();
    assert_eq!(summary.resumed, 0);
    assert!(records
        .iter()
        .all(|r| !r.resumed && !r.outcome.is_failure()));
    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(lines, records.len(), "one journal line per probe job");

    let (second, summary, replayed) = runner.saturation(&seeds, 0.05).unwrap();
    assert!(replayed.iter().all(|r| r.resumed), "no job simulated twice");
    assert_eq!(summary.resumed, replayed.len());
    assert_eq!(replayed.len(), records.len());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&first), bits(&second));
    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(lines, records.len(), "replays append nothing");
    let _ = std::fs::remove_file(&path);
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
