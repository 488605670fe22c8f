//! Checkpoint/restore integration: kill-9-safe resume must be
//! **bit-for-bit** identical to an uninterrupted run.
//!
//! The fixture is the 8-group `dfly(2,7,1,8)` at seed 7.  A "kill" is
//! emulated with a watchdog cycle ceiling: the run dies mid-simulation *after* its last checkpoint
//! write and before the next one, exactly like a `SIGKILL` between write
//! points — retained checkpoint files are untainted either way, because
//! writes are tmp-file + rename atomic.  Every comparison goes through
//! `Debug` formatting of `SimResult`, which is round-trip exact for
//! `f64`, so a string match is a bit-for-bit match.

use std::path::PathBuf;
use std::sync::Arc;
use tugal_netsim::{
    CkptConfig, Config, NoopObserver, RoutingAlgorithm, SimObserver, SimWorkspace, Simulator,
    WatchdogConfig,
};
use tugal_routing::TableProvider;
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-tmp")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ckpt_files(dir: &std::path::Path) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|n| n.ends_with(".ckpt"))
        .collect();
    v.sort();
    v
}

struct Fixture {
    routing: RoutingAlgorithm,
    adversarial: bool,
    faulted: bool,
    ckpt: Option<CkptConfig>,
    watchdog: Option<WatchdogConfig>,
}

impl Fixture {
    fn new(routing: RoutingAlgorithm, adversarial: bool) -> Self {
        Fixture {
            routing,
            adversarial,
            faulted: false,
            ckpt: None,
            watchdog: None,
        }
    }

    fn faulted(mut self) -> Self {
        self.faulted = true;
        self
    }

    fn ckpt(mut self, dir: &std::path::Path, every: u64) -> Self {
        let mut cc = CkptConfig::new(dir.to_string_lossy().into_owned());
        cc.every = every;
        self.ckpt = Some(cc);
        self
    }

    /// Emulated kill: a cycle ceiling that trips the run mid-simulation.
    fn killed_at(mut self, cycle: u64) -> Self {
        self.watchdog = Some(WatchdogConfig {
            conservation_every: 0,
            stall_cycles: 0,
            max_cycles: cycle,
            wall_limit_ms: 0,
            flight_recorder: 0,
        });
        self
    }

    /// Armed, non-tripping watchdog (conservation audit), for the
    /// watchdog-armed grid axis.
    fn armed(mut self) -> Self {
        self.watchdog = Some(WatchdogConfig {
            conservation_every: 64,
            stall_cycles: 0,
            max_cycles: 0,
            wall_limit_ms: 0,
            flight_recorder: 0,
        });
        self
    }

    fn build(&self) -> Simulator {
        let topo = Arc::new(Dragonfly::new(DragonflyParams::new(2, 7, 1, 8)).unwrap());
        let provider = Arc::new(TableProvider::all_paths(topo.clone()));
        let pattern: Arc<dyn TrafficPattern> = if self.adversarial {
            Arc::new(Shift::new(&topo, 1, 0))
        } else {
            Arc::new(Uniform::new(&topo))
        };
        let mut cfg = Config::quick().for_routing(self.routing);
        cfg.seed = 7;
        cfg.watchdog = self.watchdog;
        cfg.checkpoint = self.ckpt.clone();
        let sim = Simulator::new(topo.clone(), provider, pattern, self.routing, cfg);
        if self.faulted {
            // A mid-run switch death plus global-link attrition, applied
            // before the emulated kill so the checkpoint carries dead
            // masks, fault-rerouted packets and an advanced fault
            // cursor.
            let mut fs = tugal_topology::FaultSet::sample_global_links(&topo, 0.05, 0xBEEF);
            fs.fail_switch(tugal_topology::SwitchId(5));
            sim.with_faults(tugal_netsim::FaultSchedule::at(1000, fs))
        } else {
            sim
        }
    }

    fn run(&self, rate: f64) -> String {
        format!("{:?}", self.build().run(rate))
    }
}

#[test]
fn checkpointing_on_is_result_invisible_and_retains_two_files() {
    let dir = tmp_dir("ckpt_invisible");
    let plain = Fixture::new(RoutingAlgorithm::UgalL, false).run(0.3);
    let with_ckpt = Fixture::new(RoutingAlgorithm::UgalL, false)
        .ckpt(&dir, 700)
        .run(0.3);
    assert_eq!(with_ckpt, plain, "checkpoint writes perturbed the run");
    // Config::quick runs 4000 cycles: writes at the end of cycles
    // 700..3500 (each resuming at the following cycle), pruned to the
    // newest two.
    let files = ckpt_files(&dir);
    assert_eq!(files.len(), 2, "retention must keep exactly 2: {files:?}");
    assert!(files[1].ends_with("00000000000000003501.ckpt"), "{files:?}");
}

#[test]
fn killed_run_resumes_bit_for_bit() {
    for every in [137, 700, 1021] {
        let dir = tmp_dir(&format!("ckpt_resume_{every}"));
        let golden = Fixture::new(RoutingAlgorithm::UgalL, true).run(0.15);
        // Die at cycle 1500: the last retained checkpoint precedes it.
        let killed = Fixture::new(RoutingAlgorithm::UgalL, true)
            .ckpt(&dir, every)
            .killed_at(1500)
            .run(0.15);
        assert_ne!(killed, golden, "the emulated kill must truncate the run");
        assert!(!ckpt_files(&dir).is_empty(), "no checkpoint written");
        let resumed = Fixture::new(RoutingAlgorithm::UgalL, true)
            .ckpt(&dir, every)
            .run(0.15);
        assert_eq!(resumed, golden, "divergent resume at every={every}");
    }
}

#[test]
fn determinism_grid_across_faults_and_watchdogs() {
    for scenario in ["pristine", "faulted", "armed"] {
        let fix = || {
            let f = Fixture::new(RoutingAlgorithm::UgalL, false);
            match scenario {
                "pristine" => f,
                "faulted" => f.faulted(),
                "armed" => f.armed(),
                _ => unreachable!(),
            }
        };
        let dir = tmp_dir(&format!("ckpt_grid_{scenario}"));
        let golden = fix().run(0.3);
        // The kill axis replaces the armed watchdog (one watchdog slot),
        // so the armed scenario verifies its counters through the golden
        // + resumed runs instead.
        let _ = fix().ckpt(&dir, 600).killed_at(1900).run(0.3);
        assert!(!ckpt_files(&dir).is_empty());
        let resumed = fix().ckpt(&dir, 600).run(0.3);
        assert_eq!(resumed, golden, "divergent resume, {scenario}");
    }
}

#[test]
fn corrupt_checkpoints_fall_back_and_never_diverge() {
    let dir = tmp_dir("ckpt_corrupt_tolerance");
    let golden = Fixture::new(RoutingAlgorithm::UgalL, true).run(0.15);
    let _ = Fixture::new(RoutingAlgorithm::UgalL, true)
        .ckpt(&dir, 600)
        .killed_at(1900)
        .run(0.15);
    let files = ckpt_files(&dir);
    assert_eq!(files.len(), 2, "need both retained files: {files:?}");

    // Bit-flip the newest: restore must fall back to the previous file
    // and still reproduce the uninterrupted run exactly.
    let newest = dir.join(&files[1]);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, &bytes).unwrap();
    let resumed = Fixture::new(RoutingAlgorithm::UgalL, true)
        .ckpt(&dir, 600)
        .run(0.15);
    assert_eq!(resumed, golden, "fallback to previous checkpoint diverged");

    // Truncate both (the torn-write shape a crash can leave): restore
    // degrades to a cold start — slower, never divergent.  Re-list first:
    // the resumed run above wrote fresh checkpoints and pruned the old
    // ones.
    for f in ckpt_files(&dir) {
        let p = dir.join(f);
        let b = std::fs::read(&p).unwrap();
        std::fs::write(&p, &b[..b.len().min(40)]).unwrap();
    }
    let resumed = Fixture::new(RoutingAlgorithm::UgalL, true)
        .ckpt(&dir, 600)
        .run(0.15);
    assert_eq!(resumed, golden, "cold-start fallback diverged");
}

/// Records the first cycle it sees: 0 for a cold start, the checkpoint's
/// resume cycle for a restored run.  Snapshots as empty, so checkpointing
/// stays enabled.
#[derive(Default)]
struct FirstCycle(Option<u64>);

impl SimObserver for FirstCycle {
    fn on_cycle(&mut self, now: u64) {
        self.0.get_or_insert(now);
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }
}

/// `fixtures/ckpt_v1.ckpt` is a version-1 checkpoint, written by the
/// engine before packets owned their routes (its packet records may name
/// a route by arena id).  It was taken at the end of cycle 100 of the
/// adversarial UGAL-L fixture at rate 0.05 with `every = 100`.  A
/// version-2 reader must skip it like a corrupt file, and the run must
/// cold-start to the uninterrupted result.
#[test]
fn version_1_checkpoint_is_skipped_and_the_run_cold_starts() {
    const RATE: f64 = 0.05;
    let v1: &[u8] = include_bytes!("fixtures/ckpt_v1.ckpt");
    assert_eq!(&v1[..7], b"TUGALCK");
    assert_eq!(v1[24..28], 1u32.to_le_bytes(), "fixture is not version 1");

    // The fixture matches this run in everything but the version: a
    // version-2 checkpoint of the same run carries the same fingerprint.
    let v2_dir = tmp_dir("ckpt_v1_reference");
    let _ = Fixture::new(RoutingAlgorithm::UgalL, true)
        .ckpt(&v2_dir, 100)
        .killed_at(150)
        .run(RATE);
    let v2 = std::fs::read(v2_dir.join(&ckpt_files(&v2_dir)[0])).unwrap();
    assert_eq!(v2[24..28], 2u32.to_le_bytes());
    assert_eq!(v1[28..36], v2[28..36], "fixture fingerprint differs");

    let golden = Fixture::new(RoutingAlgorithm::UgalL, true).run(RATE);
    let resume_from = |dir: &std::path::Path| {
        let mut first = FirstCycle::default();
        let r = Fixture::new(RoutingAlgorithm::UgalL, true)
            .ckpt(dir, 600)
            .build()
            .run_observed(RATE, &mut SimWorkspace::new(), &mut first);
        (first.0, format!("{r:?}"))
    };
    // The observer tells a restore from a cold start.
    assert_eq!(resume_from(&v2_dir), (Some(101), golden.clone()));

    let dir = tmp_dir("ckpt_v1_skipped");
    std::fs::write(dir.join("run.00000000000000000101.ckpt"), v1).unwrap();
    let (first, resumed) = resume_from(&dir);
    assert_eq!(first, Some(0), "the version-1 checkpoint was restored");
    assert_eq!(resumed, golden, "cold start diverged");
}

/// `fixtures/ckpt_v2.ckpt` is a version-2 checkpoint written by the
/// engine before it lost its multi-threaded mode, at one shard.  It was
/// taken at the end of cycle 2800 (inside the measurement window) of the
/// adversarial UGAL-L fixture at rate 0.15 with `every = 700`.  Today's
/// engine must resume from it bit for bit to the uninterrupted result.
#[test]
fn version_2_checkpoint_from_before_the_sequential_engine_resumes_bit_for_bit() {
    const RATE: f64 = 0.15;
    let v2: &[u8] = include_bytes!("fixtures/ckpt_v2.ckpt");
    assert_eq!(v2[24..28], 2u32.to_le_bytes(), "fixture is not version 2");
    let golden = Fixture::new(RoutingAlgorithm::UgalL, true).run(RATE);

    let dir = tmp_dir("ckpt_v2_fixture");
    std::fs::write(dir.join("run.00000000000000002801.ckpt"), v2).unwrap();
    let mut first = FirstCycle::default();
    let resumed = Fixture::new(RoutingAlgorithm::UgalL, true)
        .ckpt(&dir, 700)
        .build()
        .run_observed(RATE, &mut SimWorkspace::new(), &mut first);
    assert_eq!(first.0, Some(2801), "the fixture was not restored");
    assert_eq!(
        format!("{resumed:?}"),
        golden,
        "resume from the fixture diverged"
    );
}

/// Order-sensitive observer with no `snapshot` override: configuring a
/// checkpoint must warn, write nothing, and leave results untouched.
#[derive(Default)]
struct NoSnapshot {
    events: Vec<(u64, u32, u32)>,
}

impl SimObserver for NoSnapshot {
    fn on_inject(&mut self, now: u64, src: tugal_topology::NodeId, dst: tugal_topology::NodeId) {
        self.events.push((now, src.0, dst.0));
    }
}

#[test]
fn non_snapshotting_observer_disables_checkpointing_without_perturbing_results() {
    let dir = tmp_dir("ckpt_no_snapshot_observer");
    let run_with = |ckpt: Option<&std::path::Path>| {
        let mut fix = Fixture::new(RoutingAlgorithm::UgalL, false);
        if let Some(d) = ckpt {
            fix = fix.ckpt(d, 600);
        }
        let mut obs = NoSnapshot::default();
        let mut ws = SimWorkspace::new();
        let r = fix.build().run_observed(0.3, &mut ws, &mut obs);
        (format!("{r:?}"), obs.events)
    };
    let (plain_r, plain_ev) = run_with(None);
    let (ckpt_r, ckpt_ev) = run_with(Some(&dir));
    assert_eq!(ckpt_r, plain_r);
    assert_eq!(ckpt_ev, plain_ev);
    assert!(
        ckpt_files(&dir).is_empty(),
        "checkpointing must be disabled for non-snapshotting observers"
    );
}

#[test]
fn restore_resumes_workspace_reuse_and_noop_observer_paths() {
    // A reused workspace plus an explicit NoopObserver (the snapshotting
    // default) across kill + resume: the reset-then-apply path must leave
    // no residue from the killed run.
    let dir = tmp_dir("ckpt_ws_reuse");
    let mut ws = SimWorkspace::new();
    let golden = format!(
        "{:?}",
        Fixture::new(RoutingAlgorithm::Par, true)
            .build()
            .run_observed(0.15, &mut ws, &mut NoopObserver)
    );
    let _ = Fixture::new(RoutingAlgorithm::Par, true)
        .ckpt(&dir, 600)
        .killed_at(1900)
        .build()
        .run_observed(0.15, &mut ws, &mut NoopObserver);
    let resumed = format!(
        "{:?}",
        Fixture::new(RoutingAlgorithm::Par, true)
            .ckpt(&dir, 600)
            .build()
            .run_observed(0.15, &mut ws, &mut NoopObserver)
    );
    assert_eq!(resumed, golden, "workspace reuse across restore diverged");
}
