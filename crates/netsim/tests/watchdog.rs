//! Watchdog and job-isolation behaviour, pinned against the golden cases.
//!
//! Three contracts:
//!
//! * **Zero-cost when armed but not tripping** — a run with a generous
//!   watchdog, or with a conservation audit every 64 cycles, reproduces
//!   every pristine and every degraded (faulted) golden fixture
//!   bit-for-bit, a switch dying mid-run included.
//! * **Livelock detection** — a provably livelocked network (every global
//!   cable dead, all-cross-group traffic, so nothing is ever delivered)
//!   trips the forward-progress check with a well-formed [`StallReport`].
//! * **Isolation** — through the [`ExperimentRunner`], a panicking series
//!   and a cycle-ceiling budget become typed [`JobOutcome`]s and skipped
//!   aggregates, not aborted sweeps, while a malformed experiment is
//!   rejected with a typed [`ConfigError`] before any job runs.

include!("common/cases.rs");

use std::sync::atomic::{AtomicUsize, Ordering};
use tugal_netsim::runner::{ExperimentRunner, JobBudget, JobInfo, JobOutcome, SeriesSpec};
use tugal_netsim::{
    ConfigError, FaultSchedule, NoopObserver, NoopProfiler, RunOutput, StallKind, WatchdogConfig,
};
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
            let RunOutput { result, stall, .. } = sim.run_in(
                rate,
                &mut SimWorkspace::new(),
                &mut NoopObserver,
                &mut NoopProfiler,
            );
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
    // Both degraded golden scenarios: cables dead from cycle 0, and a
    // switch dying inside the measurement window (buffered-flit drain and
    // en-route reroutes), each under both armed configurations.
    for wd in [generous(), audit()] {
        for (scenario, adversarial, rate, expected) in FAULT_CASES {
            let RunOutput { result, stall, .. } =
                watchdog_sim(RoutingAlgorithm::UgalL, adversarial, 7, wd)
                    .with_faults(Arc::new(schedule_of(scenario)))
                    .run_in(
                        rate,
                        &mut SimWorkspace::new(),
                        &mut NoopObserver,
                        &mut NoopProfiler,
                    );
            assert!(
                stall.is_none(),
                "{scenario} adversarial={adversarial}: {wd:?} tripped: {stall:?}"
            );
            assert_eq!(
                format!("{result:?}"),
                expected,
                "{scenario} adversarial={adversarial}: {wd:?} changed a degraded run"
            );
        }
    }
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
    let RunOutput { result, stall, .. } = watchdog_sim(RoutingAlgorithm::UgalL, true, 7, wd)
        .with_faults(Arc::new(FaultSchedule::immediate(dead)))
        .run_in(
            0.05,
            &mut SimWorkspace::new(),
            &mut NoopObserver,
            &mut NoopProfiler,
        );
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
        let stall = watchdog_sim(routing, false, 7, wd)
            .run_in(
                0.2,
                &mut SimWorkspace::new(),
                &mut NoopObserver,
                &mut NoopProfiler,
            )
            .stall;
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
fn invalid_experiments_are_rejected_before_any_job_runs() {
    // `run_recorded` validates the (rates × seeds) grid and every series
    // config up front: a rejected experiment schedules nothing, so the
    // per-job observer factory is never called.
    let built = AtomicUsize::new(0);
    let make = |_: &JobInfo| {
        built.fetch_add(1, Ordering::Relaxed);
        NoopObserver
    };
    let healthy = || runner_with(Config::quick().for_routing(RoutingAlgorithm::UgalL));
    let mut zero_window = Config::quick().for_routing(RoutingAlgorithm::UgalL);
    zero_window.window = 0;
    let cases: [(ExperimentRunner, &[f64], &[u64], ConfigError); 4] = [
        (healthy(), &[0.1, 1.5], &[1], ConfigError::BadRate(1.5)),
        (healthy(), &[0.1], &[], ConfigError::EmptySeeds),
        (healthy(), &[0.1], &[1, 2, 1], ConfigError::DuplicateSeed(1)),
        (
            runner_with(zero_window),
            &[0.1],
            &[1],
            ConfigError::ZeroWindow,
        ),
    ];
    for (runner, rates, seeds, expected) in cases {
        match runner.run_recorded(rates, seeds, make) {
            Err(e) => assert_eq!(e, expected, "rates {rates:?} seeds {seeds:?}"),
            Ok(_) => panic!("rates {rates:?} seeds {seeds:?}: accepted, expected {expected}"),
        }
    }
    assert_eq!(
        built.load(Ordering::Relaxed),
        0,
        "a rejected experiment scheduled jobs"
    );
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
