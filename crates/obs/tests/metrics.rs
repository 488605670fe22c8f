//! Metrics-layer contracts: attaching a [`MetricsObserver`] cannot change
//! the physics, and what it collects must agree with the engine's own
//! scalar statistics wherever the two overlap.

use std::sync::Arc;
use tugal_netsim::{Config, NoopProfiler, RoutingAlgorithm, SimWorkspace, Simulator};
use tugal_obs::{MetricsConfig, MetricsObserver};
use tugal_routing::TableProvider;
use tugal_topology::{ChannelKind, Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn topo() -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(2, 4, 2, 5)).unwrap())
}

fn simulator(t: &Arc<Dragonfly>, routing: RoutingAlgorithm, adversarial: bool) -> Simulator {
    let provider = Arc::new(TableProvider::all_paths(t.clone()));
    let pattern: Arc<dyn TrafficPattern> = if adversarial {
        Arc::new(Shift::new(t, 1, 0))
    } else {
        Arc::new(Uniform::new(t))
    };
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = 17;
    Simulator::new(t.clone(), provider, pattern, routing, cfg)
}

fn full_cfg() -> MetricsConfig {
    MetricsConfig {
        enabled: true,
        sample_every: 500,
        occupancy_every: 250,
        per_channel: true,
    }
}

#[test]
fn metrics_observation_is_physics_neutral() {
    let t = topo();
    for routing in [
        RoutingAlgorithm::Min,
        RoutingAlgorithm::UgalL,
        RoutingAlgorithm::Par,
    ] {
        let sim = simulator(&t, routing, false);
        let plain = sim.run(0.25);
        let mut obs = MetricsObserver::new(&t, &full_cfg());
        let observed = sim
            .run_in(0.25, &mut SimWorkspace::new(), &mut obs, &mut NoopProfiler)
            .result;
        assert_eq!(plain, observed, "{routing:?}: metrics must not perturb");
    }
}

#[test]
fn link_flits_match_engine_utilization() {
    let t = topo();
    let sim = simulator(&t, RoutingAlgorithm::UgalL, true);
    let mut obs = MetricsObserver::new(&t, &MetricsConfig::summary());
    let result = sim
        .run_in(0.12, &mut SimWorkspace::new(), &mut obs, &mut NoopProfiler)
        .result;
    let rep = obs.report();

    // The engine's mean utilizations are per-channel flits/(now+1) averaged
    // over each class; the observer counts the same traversals, so the
    // class means must coincide.
    assert!(
        (rep.links.global.mean_load - result.mean_global_util).abs() < 1e-12,
        "global: observer {} vs engine {}",
        rep.links.global.mean_load,
        result.mean_global_util
    );
    assert!((rep.links.local.mean_load - result.mean_local_util).abs() < 1e-12);

    // Per-channel vectors cover every network channel of each class.
    let globals = t.channels()[..t.num_network_channels()]
        .iter()
        .filter(|c| c.kind == ChannelKind::Global)
        .count();
    assert_eq!(rep.links.per_global_load.len(), globals);
    assert_eq!(
        rep.links.per_local_load.len(),
        t.num_network_channels() - globals
    );
    assert!(
        rep.links.global.flits > 0,
        "adversarial load must use globals"
    );
}

#[test]
fn conservation_and_decision_mix_match_the_engine() {
    let t = topo();
    for (routing, adversarial) in [
        (RoutingAlgorithm::UgalL, true),
        (RoutingAlgorithm::UgalG, false),
        (RoutingAlgorithm::Par, true),
    ] {
        let sim = simulator(&t, routing, adversarial);
        let mut obs = MetricsObserver::new(&t, &full_cfg());
        let result = sim
            .run_in(0.2, &mut SimWorkspace::new(), &mut obs, &mut NoopProfiler)
            .result;
        let rep = obs.report();

        // Every injected packet is dropped, delivered, or still in flight.
        assert_eq!(
            rep.injected,
            rep.delivered + rep.dropped + rep.in_flight_at_end,
            "{routing:?}: packet conservation"
        );

        // The observer's decision mix reproduces the engine's VLB share
        // bit-for-bit (both divide the same integer counters).
        assert_eq!(
            rep.decisions.vlb_fraction(),
            result.vlb_fraction,
            "{routing:?}: decision mix"
        );
        if routing == RoutingAlgorithm::Par && adversarial {
            assert!(rep.decisions.par_reroutes > 0, "PAR must revise on shift");
        } else if routing != RoutingAlgorithm::Par {
            assert_eq!(rep.decisions.par_reroutes, 0);
        }
    }
}

#[test]
fn window_histogram_counts_match_window_deliveries() {
    let t = topo();
    let sim = simulator(&t, RoutingAlgorithm::Min, false);
    let mut obs = MetricsObserver::new(&t, &MetricsConfig::summary());
    let result = sim
        .run_in(0.2, &mut SimWorkspace::new(), &mut obs, &mut NoopProfiler)
        .result;
    let rep = obs.report();
    // Unsaturated run: the histogram restarts at window open, so its count
    // is exactly the engine's window delivery count, and the exact
    // percentiles are plausible latencies.
    assert_eq!(rep.latency.count, result.delivered);
    assert!(rep.latency.p50 <= rep.latency.p99);
    assert!(rep.latency.p99 <= rep.latency.max as f64);
    assert!(rep.latency.p50 > 0.0);
    // The exact percentiles land inside the power-of-two estimator's
    // bucket resolution (a factor of two in each direction).
    assert!(rep.latency.p50 <= result.latency_p50 * 2.0);
    assert!(rep.latency.p50 >= result.latency_p50 / 2.0);
    // Hop statistics agree with the scalar mean.
    assert!((rep.hops.mean - result.avg_hops).abs() < 1e-12);
}

#[test]
fn merge_folds_replications() {
    let t = topo();
    let provider = Arc::new(TableProvider::all_paths(t.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let mut merged: Option<MetricsObserver> = None;
    let mut total_delivered = 0u64;
    for seed in [1u64, 2, 3] {
        let mut cfg = Config::quick().for_routing(RoutingAlgorithm::UgalL);
        cfg.seed = seed;
        let sim = Simulator::new(
            t.clone(),
            provider.clone(),
            pattern.clone(),
            RoutingAlgorithm::UgalL,
            cfg,
        );
        let mut obs = MetricsObserver::new(&t, &full_cfg());
        let r = sim
            .run_in(0.2, &mut SimWorkspace::new(), &mut obs, &mut NoopProfiler)
            .result;
        total_delivered += r.delivered;
        match &mut merged {
            None => merged = Some(obs),
            Some(m) => m.merge(&obs),
        }
    }
    let rep = merged.unwrap().report();
    assert_eq!(rep.runs, 3);
    assert_eq!(rep.latency.count, total_delivered);
    assert!(
        !rep.timeseries.is_empty(),
        "cadence 500 must produce samples"
    );
    assert!(rep.occupancy.local.samples > 0);
    // Element-wise time-series merge: each interval's deliveries summed
    // over seeds must add back up to the whole-run delivered count.
    let ts_delivered: u64 = rep.timeseries.iter().map(|s| s.delivered).sum();
    assert_eq!(ts_delivered, rep.delivered);
}

#[test]
fn report_serializes_to_json() {
    let t = topo();
    let sim = simulator(&t, RoutingAlgorithm::UgalL, false);
    let mut obs = MetricsObserver::new(&t, &full_cfg());
    let _ = sim
        .run_in(0.15, &mut SimWorkspace::new(), &mut obs, &mut NoopProfiler)
        .result;
    let json = serde_json::to_string(&obs.report()).expect("report must serialize");
    for key in [
        "\"decisions\"",
        "\"latency\"",
        "\"links\"",
        "\"per_global_load\"",
        "\"timeseries\"",
        "\"occupancy\"",
    ] {
        assert!(json.contains(key), "metrics JSON must contain {key}");
    }
}
