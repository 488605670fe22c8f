//! Cross-crate integration: topology → paths → Algorithm 1 → simulation,
//! exercised exactly the way the examples and benches use the system.

use std::sync::Arc;
use tugal_suite::netsim::runner::{ExperimentRunner, SeriesSpec};
use tugal_suite::netsim::{Config, NoopObserver, RoutingAlgorithm, Simulator};
use tugal_suite::routing::{PathProvider, VlbRule};
use tugal_suite::topology::{Dragonfly, DragonflyParams};
use tugal_suite::traffic::{Shift, TrafficPattern, Uniform};
use tugal_suite::tugal::{compute_tvlb, conventional_provider, TUgalConfig};

fn topo(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap())
}

/// A runner with one series per provider, all under `routing`.
fn runner(
    t: &Arc<Dragonfly>,
    providers: &[&Arc<dyn PathProvider>],
    pattern: &Arc<dyn TrafficPattern>,
    routing: RoutingAlgorithm,
) -> ExperimentRunner {
    providers.iter().enumerate().fold(
        ExperimentRunner::new(t.clone()),
        |runner, (i, &provider)| {
            runner.series(SeriesSpec {
                label: format!("provider {i}"),
                provider: provider.clone(),
                pattern: pattern.clone(),
                routing,
                cfg: Config::quick().for_routing(routing),
                faults: None,
            })
        },
    )
}

/// The headline claim of the paper on a dense (CI-sized) topology:
/// T-UGAL-L sustains at least as much adversarial load as UGAL-L and is
/// not worse at low load, while using shorter VLB paths.
#[test]
fn tugal_dominates_ugal_on_dense_topology() {
    let t = topo(2, 4, 2, 3);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    assert!(
        result.report.mean_hops_tvlb < result.report.mean_hops_all,
        "T-VLB must be shorter on average"
    );

    let conventional = conventional_provider(t.clone(), 300);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let runner = runner(
        &t,
        &[&conventional, &result.provider],
        &pattern,
        RoutingAlgorithm::UgalL,
    );
    let seeds = [11, 12];
    let (sat, _, _) = runner.saturation(&seeds, 0.02).unwrap();
    let (sat_ugal, sat_tugal) = (sat[0], sat[1]);
    assert!(
        sat_tugal >= sat_ugal - 0.02,
        "T-UGAL-L saturation {sat_tugal} must not fall below UGAL-L {sat_ugal}"
    );
    // Low-load latency: T-UGAL should not be worse (it is usually better,
    // since misrouted packets take shorter VLB paths).
    let (curves, _, _) = runner
        .run_recorded(&[0.05], &seeds, |_| NoopObserver)
        .unwrap();
    let latency = |i: usize| curves[i].points[0].point.result.avg_latency;
    assert!(
        latency(1) <= latency(0) + 2.0,
        "low-load latency {} vs {}",
        latency(1),
        latency(0)
    );
}

/// All five routings run end-to-end on every paper-shaped small topology.
#[test]
fn all_routings_run_on_all_arrangement_sizes() {
    for (p, a, h, g) in [(2, 4, 2, 3), (2, 4, 2, 5), (2, 4, 2, 9)] {
        let t = topo(p, a, h, g);
        let provider = conventional_provider(t.clone(), 300);
        let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
        for routing in [
            RoutingAlgorithm::Min,
            RoutingAlgorithm::Vlb,
            RoutingAlgorithm::UgalL,
            RoutingAlgorithm::UgalG,
            RoutingAlgorithm::Par,
        ] {
            let cfg = Config::quick().for_routing(routing);
            let r =
                Simulator::new(t.clone(), provider.clone(), pattern.clone(), routing, cfg).run(0.1);
            assert!(
                r.delivered > 0 && !r.saturated,
                "{} on dfly({p},{a},{h},{g}): {r:?}",
                routing.name()
            );
        }
    }
}

/// The model and the simulator must agree on orderings: a topology whose
/// MIN capacity is tiny for adversarial traffic gains a lot from VLB, and
/// the model's all-VLB throughput is an optimistic (upper) estimate of the
/// simulated UGAL-G saturation point.
#[test]
fn model_upper_bounds_simulated_saturation() {
    use tugal_suite::model::{modeled_throughput, ModelVariant};

    let t = topo(2, 4, 2, 3);
    let demands = Shift::new(&t, 1, 0).demands().unwrap();
    let modeled =
        modeled_throughput(&t, &demands, VlbRule::All, ModelVariant::DrawProportional).unwrap();

    let provider = conventional_provider(t.clone(), 300);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let (sat, _, _) = runner(&t, &[&provider], &pattern, RoutingAlgorithm::UgalG)
        .saturation(&[3], 0.02)
        .unwrap();
    let sat = sat[0];
    assert!(
        modeled >= sat - 0.05,
        "fluid model {modeled} should not sit below simulated saturation {sat}"
    );
    assert!(sat > 0.1, "UGAL-G should sustain real load: {sat}");
}

/// T-UGAL is provider-compatible with every UGAL variant (the paper's
/// T-UGAL-L / T-UGAL-G / T-PAR).
#[test]
fn tvlb_provider_works_with_all_ugal_variants() {
    let t = topo(2, 4, 2, 3);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    for routing in [
        RoutingAlgorithm::UgalL,
        RoutingAlgorithm::UgalG,
        RoutingAlgorithm::Par,
    ] {
        let cfg = Config::quick().for_routing(routing);
        let r = Simulator::new(
            t.clone(),
            result.provider.clone(),
            pattern.clone(),
            routing,
            cfg,
        )
        .run(0.15);
        assert!(
            r.delivered > 0 && !r.saturated,
            "T-{}: {r:?}",
            routing.name()
        );
    }
}
