//! End-to-end resilience contracts:
//!
//! * rerunning a sweep with failed jobs under the same journal replays
//!   every finished job and simulates exactly the failed ones again,
//!   failing each the same way;
//! * a sweep resumed from a journal is bit-identical to an uninterrupted
//!   run (the in-process equivalent of CI's kill-and-rerun smoke test).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tugal_bench::{dfly, shift, ugal_provider};
use tugal_netsim::journal::{Journal, PackedResult};
use tugal_netsim::runner::{ExperimentRunner, JobOutcome, SeriesSpec};
use tugal_netsim::{Config, NoopObserver, RoutingAlgorithm, WatchdogConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-tmp")
        .join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The smoke-test network with one series per `(label, cfg)`, all UGAL-L
/// on shift(1,0).
fn smoke_runner(series: &[(&str, Config)]) -> ExperimentRunner {
    let topo = dfly(2, 4, 2, 5);
    let provider = ugal_provider(&topo);
    let pattern = shift(&topo, 1, 0);
    let mut runner = ExperimentRunner::new(topo);
    for (label, cfg) in series {
        runner = runner.series(SeriesSpec {
            label: label.to_string(),
            provider: provider.clone(),
            pattern: pattern.clone(),
            routing: RoutingAlgorithm::UgalL,
            cfg: cfg.clone(),
            faults: None,
        });
    }
    runner
}

#[test]
fn failed_jobs_rerun_from_the_journal() {
    let healthy = Config::quick().for_routing(RoutingAlgorithm::UgalL);
    let mut panics = healthy.clone();
    panics.num_vcs = 1; // Simulator::new panics: UGAL-L needs more VCs
    let mut ceiling = healthy.clone();
    ceiling.watchdog = Some(WatchdogConfig {
        max_cycles: 1_500,
        ..WatchdogConfig::disabled()
    });
    let series = [("UGAL-L", healthy), ("PANIC", panics), ("CEILING", ceiling)];
    let (rates, seeds) = ([0.05, 0.15], [1, 2]);
    let journal_path = tmp_dir("resilience-rerun").join("journal.jsonl");
    let _ = std::fs::remove_file(&journal_path); // journals append
    let run = || {
        let journal = Arc::new(Journal::open(&journal_path).unwrap());
        smoke_runner(&series)
            .with_journal(journal)
            .run_recorded(&rates, &seeds, |_| NoopObserver)
            .expect("structurally valid configs")
    };

    let (_, first_summary, first) = run();
    assert_eq!(first_summary.resumed, 0);
    assert_eq!(first_summary.failed, 8);
    let ok = first.iter().filter(|r| !r.outcome.is_failure()).count();
    assert_eq!(ok, 4);

    // The rerun resumes exactly the finished jobs and fails the rest
    // again, each the same way.
    let (_, summary, rerun) = run();
    assert_eq!(summary.resumed, ok);
    assert_eq!(summary.failed, first_summary.failed);
    assert_eq!(rerun.len(), first.len());
    for (a, b) in first.iter().zip(&rerun) {
        let job = format!("{} rate {} seed {}", a.label, a.rate, a.seed);
        assert_eq!((a.digest, &a.label), (b.digest, &b.label), "{job}");
        assert_eq!(b.resumed, !a.outcome.is_failure(), "{job}");
        match (&a.outcome, &b.outcome) {
            (JobOutcome::Ok(x), JobOutcome::Ok(y)) => {
                assert_eq!(PackedResult::pack(x), PackedResult::pack(y), "{job}")
            }
            (JobOutcome::Panicked(x), JobOutcome::Panicked(y)) => {
                assert!(x.contains("VC"), "{job}: {x}");
                assert_eq!(x, y, "{job}");
            }
            (JobOutcome::WatchdogTripped(x), JobOutcome::WatchdogTripped(y)) => {
                assert_eq!(x.cycle, 1_499, "{job}");
                assert_eq!(x.cycle, y.cycle, "{job}");
                assert_eq!(x.oneline(), y.oneline(), "{job}");
            }
            (x, y) => panic!("{job}: {} then {}", x.name(), y.name()),
        }
    }
}

#[test]
fn journal_resume_is_bit_identical() {
    let cfg = Config::quick().for_routing(RoutingAlgorithm::UgalL);
    let rates = [0.05, 0.15];
    let seeds = [1, 2];
    let journal_path = tmp_dir("resilience-journal").join("journal.jsonl");
    let _ = std::fs::remove_file(&journal_path); // journals append

    // Reference: the whole sweep, no journal.
    let series = [("UGAL-L", cfg)];
    let (_, _, reference) = smoke_runner(&series)
        .run_recorded(&rates, &seeds, |_| NoopObserver)
        .unwrap();

    // "Interrupted" run: only the first rate completes before the kill.
    let journal = Arc::new(Journal::open(&journal_path).unwrap());
    let (_, first_summary, _) = smoke_runner(&series)
        .with_journal(journal)
        .run_recorded(&rates[..1], &seeds, |_| NoopObserver)
        .unwrap();
    assert_eq!(first_summary.resumed, 0);

    // Re-invocation over the full sweep: the journaled jobs are replayed
    // from disk, the rest simulated fresh — and every outcome matches the
    // uninterrupted reference bit-for-bit.
    let journal = Arc::new(Journal::open(&journal_path).unwrap());
    let (_, summary, resumed_records) = smoke_runner(&series)
        .with_journal(journal)
        .run_recorded(&rates, &seeds, |_| NoopObserver)
        .unwrap();
    assert_eq!(summary.jobs, 4);
    assert_eq!(summary.resumed, 2);
    assert_eq!(summary.failed, 0);
    assert_eq!(resumed_records.len(), reference.len());
    for (resumed, fresh) in resumed_records.iter().zip(&reference) {
        assert_eq!(resumed.digest, fresh.digest);
        assert_eq!(resumed.resumed, resumed.rate == rates[0]);
        let (JobOutcome::Ok(a), JobOutcome::Ok(b)) = (&resumed.outcome, &fresh.outcome) else {
            panic!("healthy sweep produced a failure");
        };
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "rate {} seed {}: resumed result diverged",
            resumed.rate,
            resumed.seed
        );
    }
}
