//! Watchdog and job-isolation behaviour, pinned against the golden cases.
//!
//! Three contracts:
//!
//! * **Zero-cost when armed but not tripping** — a run with a generous
//!   watchdog, or with a conservation audit every 64 cycles, reproduces
//!   every pristine golden fixture bit-for-bit, and a degraded (faulted)
//!   run reproduces its unarmed twin exactly.
//! * **Livelock detection** — a provably livelocked network (every global
//!   cable dead, all-cross-group traffic, so nothing is ever delivered)
//!   trips the forward-progress check with a well-formed [`StallReport`].
//! * **Isolation** — through the [`ExperimentRunner`], a panicking series
//!   and a cycle-ceiling budget become typed [`JobOutcome`]s and skipped
//!   aggregates, not aborted sweeps.

include!("common/cases.rs");

use tugal_netsim::runner::{ExperimentRunner, JobBudget, JobOutcome, SeriesSpec};
use tugal_netsim::{FaultSchedule, NoopObserver, StallKind, WatchdogConfig};
use tugal_topology::FaultSet;

/// Like `simulator`, with a watchdog armed.
fn watchdog_sim(
    routing: RoutingAlgorithm,
    adversarial: bool,
    seed: u64,
    wd: WatchdogConfig,
) -> Simulator {
    let topo = golden_topo();
    let provider = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern: Arc<dyn TrafficPattern> = if adversarial {
        Arc::new(Shift::new(&topo, 1, 0))
    } else {
        Arc::new(Uniform::new(&topo))
    };
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = seed;
    cfg.watchdog = Some(wd);
    Simulator::new(topo, provider, pattern, routing, cfg)
}

/// Checks that never trip on a healthy run, but do run every cycle.
fn generous() -> WatchdogConfig {
    WatchdogConfig {
        conservation_every: 512,
        stall_cycles: 1_000_000,
        max_cycles: 0,
        wall_limit_ms: 0,
        flight_recorder: 0,
    }
}

/// A conservation audit every 64 cycles and nothing else: on a healthy
/// run it checks the injected = delivered + dropped + in-flight ledger
/// throughout, UGAL-G's snapshot-reading cases included.
fn audit() -> WatchdogConfig {
    WatchdogConfig {
        conservation_every: 64,
        stall_cycles: 0,
        max_cycles: 0,
        wall_limit_ms: 0,
        flight_recorder: 0,
    }
}

#[test]
fn armed_watchdog_reproduces_pristine_goldens() {
    for wd in [generous(), audit()] {
        for (routing, adversarial, rate, expected) in CASES {
            let sim = watchdog_sim(routing, adversarial, 7, wd);
            let (result, stall) =
                sim.run_reported(rate, &mut SimWorkspace::new(), &mut NoopObserver);
            assert!(
                stall.is_none(),
                "{routing:?} adversarial={adversarial}: {wd:?} tripped: {stall:?}"
            );
            assert_eq!(
                format!("{result:?}"),
                expected,
                "{routing:?} adversarial={adversarial}: {wd:?} changed the result"
            );
        }
    }
}

#[test]
fn armed_watchdog_reproduces_faulted_run() {
    let schedule =
        || FaultSchedule::immediate(FaultSet::sample_global_links(&golden_topo(), 0.05, 0xBEEF));
    let plain = simulator(RoutingAlgorithm::UgalL, true, 7)
        .with_faults(schedule())
        .run(0.15);
    let (armed, stall) = watchdog_sim(RoutingAlgorithm::UgalL, true, 7, generous())
        .with_faults(schedule())
        .run_reported(0.15, &mut SimWorkspace::new(), &mut NoopObserver);
    assert!(
        stall.is_none(),
        "watchdog tripped on a degraded run: {stall:?}"
    );
    assert_eq!(
        format!("{armed:?}"),
        format!("{plain:?}"),
        "armed watchdog changed a degraded run"
    );
}

#[test]
fn livelock_trips_forward_progress_check() {
    // Every global cable dead from cycle 0 and all traffic cross-group:
    // nothing can ever be delivered, but injection keeps queueing packets.
    let dead = FaultSet::sample_global_links(&golden_topo(), 1.0, 1);
    assert!(!dead.global_links().is_empty());
    let wd = WatchdogConfig {
        conservation_every: 0,
        stall_cycles: 600,
        max_cycles: 0,
        wall_limit_ms: 0,
        flight_recorder: 0,
    };
    let (result, stall) = watchdog_sim(RoutingAlgorithm::UgalL, true, 7, wd)
        .with_faults(FaultSchedule::immediate(dead))
        .run_reported(0.05, &mut SimWorkspace::new(), &mut NoopObserver);
    let stall = stall.expect("severed network must trip the watchdog");
    assert_eq!(stall.kind, StallKind::Livelock);
    assert!(
        stall.cycle - stall.last_delivery > 600,
        "trip at {} only {} cycles after the last delivery",
        stall.cycle,
        stall.cycle - stall.last_delivery
    );
    // The report must be internally consistent: a balanced ledger with
    // packets in flight, occupancy sorted densest-first, and the oldest
    // packet's age matching its birth cycle.
    assert!(stall.ledger.balanced(), "ledger: {:?}", stall.ledger);
    assert!(stall.ledger.in_flight > 0, "ledger: {:?}", stall.ledger);
    assert!(stall
        .occupancy
        .windows(2)
        .all(|w| w[0].occupancy >= w[1].occupancy));
    if let Some(oldest) = &stall.oldest {
        assert_eq!(oldest.birth + oldest.age, stall.cycle);
    }
    assert!(result.saturated, "a tripped run must be marked saturated");
}

#[test]
fn cycle_ceiling_trips_at_the_configured_cycle() {
    for (routing, ceiling) in [
        (RoutingAlgorithm::UgalL, 1_000),
        (RoutingAlgorithm::Min, 500),
    ] {
        let wd = WatchdogConfig {
            conservation_every: 0,
            stall_cycles: 0,
            max_cycles: ceiling,
            wall_limit_ms: 0,
            flight_recorder: 0,
        };
        let (_, stall) = watchdog_sim(routing, false, 7, wd).run_reported(
            0.2,
            &mut SimWorkspace::new(),
            &mut NoopObserver,
        );
        let stall = stall.expect("cycle ceiling must trip");
        assert_eq!(stall.kind, StallKind::CycleCeiling, "{routing:?}");
        assert!(
            stall.cycle < ceiling,
            "{routing:?} tripped at {}",
            stall.cycle
        );
    }
}

/// A runner over the golden topology with one healthy UGAL-L series.
fn runner_with(cfg: Config) -> ExperimentRunner {
    let topo = golden_topo();
    let provider = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&topo));
    ExperimentRunner::new(topo).series(SeriesSpec {
        label: "UGAL-L".into(),
        provider,
        pattern,
        routing: RoutingAlgorithm::UgalL,
        cfg,
        faults: None,
    })
}

#[test]
fn panicking_series_is_isolated_and_skipped() {
    // One VC cannot host UGAL-L's escape scheme: `Simulator::new` panics,
    // deterministically, inside the job's `catch_unwind`.
    let mut cfg = Config::quick();
    cfg.num_vcs = 1;
    let (curves, summary, records) = runner_with(cfg)
        .run_recorded(&[0.1, 0.2], &[1, 2], |_| NoopObserver)
        .expect("config passes structural validation");
    assert_eq!(summary.jobs, 4);
    assert_eq!(summary.failed, 4);
    assert!(summary.oneline().contains("4 FAILED"));
    for rec in &records {
        match &rec.outcome {
            JobOutcome::Panicked(msg) => {
                assert!(msg.contains("VC"), "unexpected panic message: {msg}")
            }
            other => panic!("expected a panic outcome, got {}", other.name()),
        }
    }
    // Every point aggregated zero survivors: the no-data sentinel.
    for point in &curves[0].points {
        assert!(point.point.result.saturated);
        assert_eq!(point.point.result.delivered, 0);
        assert!(point.point.result.avg_latency.is_infinite());
    }
}

#[test]
fn cycle_budget_becomes_watchdog_tripped_outcome() {
    let (_, summary, records) = runner_with(Config::quick().for_routing(RoutingAlgorithm::UgalL))
        .with_budget(JobBudget {
            max_cycles: 500,
            wall_limit_ms: 0,
        })
        .run_recorded(&[0.1], &[1], |_| NoopObserver)
        .expect("valid experiment");
    assert_eq!(summary.failed, 1);
    match &records[0].outcome {
        JobOutcome::WatchdogTripped(stall) => {
            assert_eq!(stall.kind, StallKind::CycleCeiling);
            assert!(stall.cycle < 500);
        }
        other => panic!("expected a watchdog trip, got {}", other.name()),
    }
}

#[test]
fn budget_free_runner_matches_direct_simulation() {
    // The runner path (isolation, digests, record-keeping) must not
    // perturb results: one job through `run_recorded` equals the same
    // (rate, seed) simulated directly.
    let direct = simulator(RoutingAlgorithm::UgalL, false, 3).run(0.2);
    let (curves, _, records) = runner_with(Config::quick().for_routing(RoutingAlgorithm::UgalL))
        .run_recorded(&[0.2], &[3], |_| NoopObserver)
        .expect("valid experiment");
    assert_eq!(records[0].outcome, JobOutcome::Ok(direct.clone()));
    assert_eq!(
        format!("{:?}", curves[0].points[0].point.result),
        format!("{direct:?}")
    );
}
