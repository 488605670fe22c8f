//! The self-profiling contract of the engine: a live [`EngineProf`] never
//! changes what the simulator computes (bit-for-bit against the committed
//! goldens and against unprofiled references, pristine, degraded and
//! watchdog-tripped), its phase marks tile the run's wall-clock, and the
//! flight recorder captures the cycles leading up to a watchdog trip.

include!("common/cases.rs");

use tugal_netsim::{
    EngineProf, NoopObserver, NoopProfiler, Phase, RunOutput, StallKind, WatchdogConfig,
};

/// An 8-group dragonfly, a different shape from the golden topology.
fn sim8p(
    routing: RoutingAlgorithm,
    adversarial: bool,
    watchdog: Option<WatchdogConfig>,
) -> Simulator {
    let topo = Arc::new(Dragonfly::new(DragonflyParams::new(2, 7, 1, 8)).unwrap());
    let provider = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern: Arc<dyn TrafficPattern> = if adversarial {
        Arc::new(Shift::new(&topo, 1, 0))
    } else {
        Arc::new(Uniform::new(&topo))
    };
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = 7;
    cfg.watchdog = watchdog;
    Simulator::new(topo, provider, pattern, routing, cfg)
}

fn run_with_prof(sim: &Simulator, rate: f64) -> (String, EngineProf) {
    let mut prof = EngineProf::new();
    let mut ws = SimWorkspace::new();
    let RunOutput {
        result: r, stall, ..
    } = sim.run_in(rate, &mut ws, &mut NoopObserver, &mut prof);
    (format!("{r:?}|{stall:?}"), prof)
}

fn run_without_prof(sim: &Simulator, rate: f64) -> String {
    let mut ws = SimWorkspace::new();
    let RunOutput {
        result: r, stall, ..
    } = sim.run_in(rate, &mut ws, &mut NoopObserver, &mut NoopProfiler);
    format!("{r:?}|{stall:?}")
}

#[test]
fn profiled_runs_reproduce_every_pristine_golden_case() {
    // The committed goldens pin the unprofiled engine; a live profiler
    // must reproduce them bit-for-bit.
    for (routing, adversarial, rate, expected) in CASES {
        let sim = simulator(routing, adversarial, 7);
        let mut prof = EngineProf::new();
        let mut ws = SimWorkspace::new();
        let r = sim
            .run_in(rate, &mut ws, &mut NoopObserver, &mut prof)
            .result;
        assert_eq!(
            format!("{r:?}"),
            expected,
            "profiled mismatch for ({routing:?}, adversarial={adversarial}, rate={rate})"
        );
    }
}

#[test]
fn profiled_runs_match_unprofiled() {
    let plain = run_without_prof(&sim8p(RoutingAlgorithm::UgalL, false, None), 0.3);
    let (profiled, _) = run_with_prof(&sim8p(RoutingAlgorithm::UgalL, false, None), 0.3);
    assert_eq!(profiled, plain, "profiled divergence");
}

#[test]
fn profiled_runs_match_unprofiled_under_faults() {
    // A mid-run switch death plus global-link attrition, so profiled
    // drains and reroutes run.
    let schedule = || {
        let topo = Arc::new(Dragonfly::new(DragonflyParams::new(2, 7, 1, 8)).unwrap());
        let mut fs = tugal_topology::FaultSet::sample_global_links(&topo, 0.05, 0xBEEF);
        fs.fail_switch(tugal_topology::SwitchId(5));
        tugal_netsim::FaultSchedule::at(2500, fs)
    };
    let plain = {
        let sim = sim8p(RoutingAlgorithm::UgalL, false, None).with_faults(Arc::new(schedule()));
        run_without_prof(&sim, 0.3)
    };
    let profiled = {
        let sim = sim8p(RoutingAlgorithm::UgalL, false, None).with_faults(Arc::new(schedule()));
        run_with_prof(&sim, 0.3).0
    };
    assert_eq!(profiled, plain, "degraded profiled divergence");

    // Zoo shapes with parallel global cables, one of which dies mid-run
    // while its siblings survive.
    for (spec, lag) in [("palmtree", 2), ("random:0x2007", 2)] {
        let sibling_fault = || {
            let topo = zoo_topo(spec, lag);
            let mut fs = tugal_topology::FaultSet::sample_global_links(&topo, 0.05, 0xBEEF);
            let (_, v) = topo.global_out(tugal_topology::SwitchId(0))[0];
            fs.fail_global_sibling(tugal_topology::SwitchId(0), v, 1);
            tugal_netsim::FaultSchedule::at(2500, fs)
        };
        let sim = || {
            simulator_zoo(spec, lag, RoutingAlgorithm::UgalL, true, 7)
                .with_faults(Arc::new(sibling_fault()))
        };
        let plain = run_without_prof(&sim(), 0.15);
        let (profiled, _) = run_with_prof(&sim(), 0.15);
        assert_eq!(
            profiled, plain,
            "{spec} lag{lag}: degraded profiled divergence"
        );
    }
}

#[test]
fn profiled_runs_match_unprofiled_on_watchdog_trips() {
    // The StallReport — flight-recorder frames included — must come out
    // identical with and without a live profiler.
    let wd = WatchdogConfig {
        conservation_every: 256,
        stall_cycles: 0,
        max_cycles: 1500,
        wall_limit_ms: 0,
        flight_recorder: 16,
    };
    let plain = run_without_prof(&sim8p(RoutingAlgorithm::UgalL, false, Some(wd)), 0.3);
    let (profiled, _) = run_with_prof(&sim8p(RoutingAlgorithm::UgalL, false, Some(wd)), 0.3);
    assert!(plain.contains("CycleCeiling"), "fixture must trip: {plain}");
    assert_eq!(profiled, plain, "tripped profiled divergence");
}

#[test]
fn phase_marks_tile_the_run_wallclock() {
    let (_, prof) = run_with_prof(&sim8p(RoutingAlgorithm::UgalL, false, None), 0.3);
    let report = prof.report();
    assert_eq!(report.shards.len(), 1);
    let s = &report.shards[0];
    assert!(s.cycles > 0, "profiled no cycles");
    assert!(
        s.attributed_ns() <= s.wall_ns,
        "attributed {} ns of {} ns wall",
        s.attributed_ns(),
        s.wall_ns
    );
    // The marks bracket everything between run_start and run_end, so
    // attribution is near-total by construction.
    let frac = report.attributed_fraction();
    assert!(
        frac > 0.90,
        "run attributed only {:.1}% of wall-clock",
        100.0 * frac
    );
    // The engine never marks the exchange phases of the removed
    // multi-threaded engine.
    for p in [Phase::Drain, Phase::Flush, Phase::Publish, Phase::Barrier] {
        assert_eq!(report.phase_total(p), 0, "sequential run marked {p:?}");
    }
}

#[test]
fn flight_recorder_captures_the_cycles_before_a_trip() {
    let wd = WatchdogConfig {
        conservation_every: 0,
        stall_cycles: 0,
        max_cycles: 1000,
        wall_limit_ms: 0,
        flight_recorder: 32,
    };
    let sim = sim8p(RoutingAlgorithm::UgalL, false, Some(wd));
    let mut ws = SimWorkspace::new();
    let stall = sim
        .run_in(0.3, &mut ws, &mut NoopObserver, &mut NoopProfiler)
        .stall;
    let stall = stall.expect("cycle ceiling must trip");
    assert_eq!(stall.kind, StallKind::CycleCeiling);
    assert_eq!(stall.recent.len(), 32);
    // Consecutive cycles, ending at the trip cycle.
    for w in stall.recent.windows(2) {
        assert_eq!(w[0].cycle + 1, w[1].cycle);
        assert!(w[0].injected <= w[1].injected);
    }
    let last = stall.recent.last().unwrap();
    assert_eq!(last.cycle, stall.cycle, "recorder stopped early");
    // The last frame is the ledger of the trip cycle.
    assert_eq!(last.injected, stall.ledger.injected);
    assert_eq!(last.delivered, stall.ledger.delivered);
    assert_eq!(last.in_flight, stall.ledger.in_flight);
}
