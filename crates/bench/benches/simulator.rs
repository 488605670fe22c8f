//! Criterion micro-benchmarks of the cycle-accurate simulator: cycles per
//! second under the paper's routings and candidate-provider kinds, and the
//! workspace-reuse speedup of the experiment runner.

use criterion::{criterion_group, criterion_main, Criterion};
use rayon::prelude::*;
use std::sync::Arc;
use tugal_netsim::runner::{ExperimentRunner, SeriesSpec};
use tugal_netsim::{Config, NoopObserver, NoopProfiler, RoutingAlgorithm, SimWorkspace, Simulator};
use tugal_routing::{PathProvider, RuleProvider, TableProvider, VlbRule};
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn bench_cfg() -> Config {
    let mut cfg = Config::quick();
    cfg.warmup_windows = 0;
    cfg.window = 1_000;
    cfg
}

fn simulator_throughput(c: &mut Criterion) {
    let topo = Arc::new(Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap());
    let table: Arc<dyn PathProvider> = Arc::new(TableProvider::all_paths(topo.clone()));
    let rule: Arc<dyn PathProvider> = Arc::new(RuleProvider::new(topo.clone(), VlbRule::All));
    let uniform: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&topo));
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&topo, 2, 0));

    let mut group = c.benchmark_group("simulator/1k-cycles dfly(4,8,4,9)");
    group.sample_size(10);
    for routing in [
        RoutingAlgorithm::Min,
        RoutingAlgorithm::UgalL,
        RoutingAlgorithm::UgalG,
        RoutingAlgorithm::Par,
    ] {
        group.bench_function(format!("{} uniform table", routing.name()), |b| {
            b.iter(|| {
                Simulator::new(
                    topo.clone(),
                    table.clone(),
                    uniform.clone(),
                    routing,
                    bench_cfg().for_routing(routing),
                )
                .run(0.2)
            })
        });
    }
    group.bench_function("UGAL-L adversarial table", |b| {
        b.iter(|| {
            Simulator::new(
                topo.clone(),
                table.clone(),
                adv.clone(),
                RoutingAlgorithm::UgalL,
                bench_cfg().for_routing(RoutingAlgorithm::UgalL),
            )
            .run(0.2)
        })
    });
    group.bench_function("UGAL-L adversarial rule-sampler", |b| {
        b.iter(|| {
            Simulator::new(
                topo.clone(),
                rule.clone(),
                adv.clone(),
                RoutingAlgorithm::UgalL,
                bench_cfg().for_routing(RoutingAlgorithm::UgalL),
            )
            .run(0.2)
        })
    });
    group.finish();
}

/// Workspace reuse versus per-run allocation, at quick settings on the
/// paper's dfly(4,8,4,9): a single-run fresh/reused pair (the sensitive
/// measurement) and the runner's 8-job curve against the same flat job
/// list with per-run allocation (the no-regression guard).  Packet state
/// is stored inline (`Path` is a fixed array), so a fresh workspace only
/// pays small-buffer allocation against thousands of simulated cycles —
/// expect parity within noise here; the pool's value is bounded peak
/// memory and the reset≡fresh determinism contract.
fn sweep_workspace_reuse(c: &mut Criterion) {
    let topo = Arc::new(Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap());
    let provider: Arc<dyn PathProvider> = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&topo));
    let routing = RoutingAlgorithm::UgalL;
    let cfg = Config::quick().for_routing(routing);
    let rates = [0.05, 0.10, 0.15, 0.20];
    let seeds = [1, 2];

    let mut group = c.benchmark_group("sweep/8-job curve dfly(4,8,4,9) quick");
    group.sample_size(10);
    // Single-run granularity first: the per-run allocation overhead is a
    // few ms against a ~100 ms quick run, so this pair is the sensitive
    // measurement; the curve-level pair below is the no-regression check.
    group.bench_function("one run, fresh workspace", |b| {
        let mut c = cfg.clone();
        c.seed = 1;
        let sim = Simulator::new(topo.clone(), provider.clone(), pattern.clone(), routing, c);
        b.iter(|| {
            let mut ws = SimWorkspace::new();
            sim.run_in(0.2, &mut ws, &mut NoopObserver, &mut NoopProfiler)
                .result
        })
    });
    group.bench_function("one run, reused workspace", |b| {
        let mut c = cfg.clone();
        c.seed = 1;
        let sim = Simulator::new(topo.clone(), provider.clone(), pattern.clone(), routing, c);
        let mut ws = SimWorkspace::new();
        b.iter(|| {
            sim.run_in(0.2, &mut ws, &mut NoopObserver, &mut NoopProfiler)
                .result
        })
    });
    group.bench_function("per-run allocation", |b| {
        // The pre-refactor shape: same flat parallel job list, but every
        // run builds its engine state from scratch.
        let jobs: Vec<(f64, u64)> = rates
            .iter()
            .flat_map(|&r| seeds.iter().map(move |&s| (r, s)))
            .collect();
        b.iter(|| {
            let results: Vec<_> = jobs
                .par_iter()
                .map(|&(rate, seed)| {
                    let mut c = cfg.clone();
                    c.seed = seed;
                    Simulator::new(topo.clone(), provider.clone(), pattern.clone(), routing, c)
                        .run(rate)
                })
                .collect();
            results
        })
    });
    group.bench_function("runner (pooled workspaces)", |b| {
        let runner = ExperimentRunner::new(topo.clone()).series(SeriesSpec {
            label: routing.name().to_string(),
            provider: provider.clone(),
            pattern: pattern.clone(),
            routing,
            cfg: cfg.clone(),
            faults: None,
        });
        b.iter(|| {
            runner
                .run_recorded(&rates, &seeds, |_| NoopObserver)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, simulator_throughput, sweep_workspace_reuse);
criterion_main!(benches);
