//! Replay capsules: minimal deterministic repros of failed jobs.
//!
//! When a job of an [`ExperimentRunner`] batch fails — panics, times out
//! or trips the engine watchdog — the harness serializes everything needed
//! to re-run exactly that job to `logs/capsules/capsule_<digest>.json`:
//! topology parameters, the full simulator [`Config`], the routing
//! algorithm, reconstructible provider/pattern specs, the (rate, seed)
//! pair (rate stored as exact `f64` bits), the fault schedule and the
//! observed outcome.  The `replay` binary loads a capsule, re-runs the job
//! under the same isolation, and asserts the outcome reproduces.
//!
//! Providers and patterns are trait objects with no identity of their own,
//! so harnesses *register* a [`ProviderSpec`]/[`PatternSpec`] for each one
//! they build (the [`crate::ugal_provider`]/[`crate::tvlb_provider`]/
//! [`crate::uniform`]/[`crate::shift`] helpers do this automatically).  An
//! unregistered object is captured as an `Opaque` spec: the capsule still
//! records the failure, but `replay` refuses it with a clear message.
//!
//! The capsule directory is created lazily and pruned to the newest
//! [`capsule_retain`] files; committed fixtures (`fixture_*.json`) are
//! exempt from both the pruning and `.gitignore`.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tugal_netsim::runner::{ExperimentRunner, JobBudget, JobOutcome, JobRecord, SeriesSpec};
use tugal_netsim::{Config, FaultSchedule, NoopObserver, RoutingAlgorithm};
use tugal_routing::{PathProvider, PathTable, RuleProvider, TableProvider, VlbRule};
use tugal_topology::{Dragonfly, DragonflyParams, FaultSet, SwitchId};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

/// Capsule format version, bumped on incompatible changes.
pub const CAPSULE_VERSION: u32 = 1;

/// How to rebuild a candidate-path provider.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProviderSpec {
    /// [`TableProvider::all_paths`] — the explicit all-VLB table.
    AllPaths,
    /// [`RuleProvider`] sampling paths of `rule` on the fly.
    Sampled {
        /// The candidate rule sampled per decision.
        rule: VlbRule,
    },
    /// [`PathTable::build_with_rule`] with optional balance adjustment —
    /// how `tvlb_provider` materializes a chosen rule.
    Rule {
        /// The chosen candidate rule.
        rule: VlbRule,
        /// Seed of the table construction.
        table_seed: u64,
        /// Whether the Step-2 balance adjustment ran on the table.
        balanced: bool,
    },
    /// Not registered — recorded for the log, not replayable.
    Opaque {
        /// Whatever identity the harness could salvage.
        desc: String,
    },
}

/// How to rebuild a traffic pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PatternSpec {
    /// [`Uniform`] random traffic.
    Uniform,
    /// [`Shift`] by `dg` groups and `ds` switches.
    Shift {
        /// Group shift.
        dg: u32,
        /// Switch shift within the group.
        ds: u32,
    },
    /// Not registered — recorded for the log, not replayable.
    Opaque {
        /// The pattern's self-reported name.
        desc: String,
    },
}

/// One serializable fault event: the components that die at `cycle`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultEventSpec {
    /// Cycle at which the components die.
    pub cycle: u64,
    /// Failed global cables, as switch-id pairs.
    pub global_links: Vec<(u32, u32)>,
    /// Failed local links, as switch-id pairs.
    pub local_links: Vec<(u32, u32)>,
    /// Failed switches.
    pub switches: Vec<u32>,
    /// Failed individual lag siblings, as `(u, v, k)` — the `k`-th
    /// parallel cable between switches `u` and `v` (see
    /// [`FaultSet::fail_global_sibling`]).
    pub global_siblings: Vec<(u32, u32, u32)>,
}

// Hand-written so `global_siblings` defaults to empty: the vendored
// minimal serde derive has no `#[serde(default)]`, and capsules written
// before per-sibling faults existed must keep deserializing to the same
// job they described.
impl Deserialize for FaultEventSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(FaultEventSpec {
            cycle: Deserialize::from_value(serde::obj_field(v, "cycle")?)?,
            global_links: Deserialize::from_value(serde::obj_field(v, "global_links")?)?,
            local_links: Deserialize::from_value(serde::obj_field(v, "local_links")?)?,
            switches: Deserialize::from_value(serde::obj_field(v, "switches")?)?,
            global_siblings: match serde::obj_field(v, "global_siblings") {
                Ok(s) => Deserialize::from_value(s)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

/// A self-contained deterministic repro of one failed job.
#[derive(Debug, Clone, Serialize)]
pub struct Capsule {
    /// [`CAPSULE_VERSION`] at write time.
    pub version: u32,
    /// Series label of the failed job.
    pub label: String,
    /// Outcome name (`panicked`, `timed-out`, `watchdog-tripped`).
    pub outcome: String,
    /// Panic message, or the stall report's one-line form.
    pub detail: String,
    /// Trip cycle of a watchdog outcome (`None` for panics).
    pub trip_cycle: Option<u64>,
    /// Topology parameters.
    pub topology: DragonflyParams,
    /// Global arrangement identity ([`tugal_topology::ArrangementSpec`]
    /// syntax; `"absolute"` for the paper default).
    pub arrangement: String,
    /// Parallel copies of every global cable (`1` = the plain topology).
    pub global_lag: u32,
    /// How to rebuild the candidate provider.
    pub provider: ProviderSpec,
    /// How to rebuild the traffic pattern.
    pub pattern: PatternSpec,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Full simulator configuration of the series (pre-budget).
    pub cfg: Config,
    /// Runner budget: simulated-cycle ceiling (`0` = none).
    pub budget_max_cycles: u64,
    /// Runner budget: wall-clock ceiling in ms (`0` = none).
    pub budget_wall_ms: u64,
    /// Offered load, human-readable.
    pub rate: f64,
    /// Offered load as exact IEEE-754 bits (authoritative on replay).
    pub rate_bits: u64,
    /// Replication seed.
    pub seed: u64,
    /// The job's journal digest (also the capsule's file name).
    pub digest: u64,
    /// Fault schedule, if the series ran degraded.
    pub faults: Vec<FaultEventSpec>,
}

// Hand-written so `arrangement`/`global_lag` default to the paper shape:
// capsules written before the topology zoo existed described absolute
// lag-1 topologies, and must replay as exactly those.
impl Deserialize for Capsule {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Capsule {
            version: Deserialize::from_value(serde::obj_field(v, "version")?)?,
            label: Deserialize::from_value(serde::obj_field(v, "label")?)?,
            outcome: Deserialize::from_value(serde::obj_field(v, "outcome")?)?,
            detail: Deserialize::from_value(serde::obj_field(v, "detail")?)?,
            trip_cycle: Deserialize::from_value(serde::obj_field(v, "trip_cycle")?)?,
            topology: Deserialize::from_value(serde::obj_field(v, "topology")?)?,
            arrangement: match serde::obj_field(v, "arrangement") {
                Ok(s) => Deserialize::from_value(s)?,
                Err(_) => "absolute".to_string(),
            },
            global_lag: match serde::obj_field(v, "global_lag") {
                Ok(s) => Deserialize::from_value(s)?,
                Err(_) => 1,
            },
            provider: Deserialize::from_value(serde::obj_field(v, "provider")?)?,
            pattern: Deserialize::from_value(serde::obj_field(v, "pattern")?)?,
            routing: Deserialize::from_value(serde::obj_field(v, "routing")?)?,
            cfg: Deserialize::from_value(serde::obj_field(v, "cfg")?)?,
            budget_max_cycles: Deserialize::from_value(serde::obj_field(v, "budget_max_cycles")?)?,
            budget_wall_ms: Deserialize::from_value(serde::obj_field(v, "budget_wall_ms")?)?,
            rate: Deserialize::from_value(serde::obj_field(v, "rate")?)?,
            rate_bits: Deserialize::from_value(serde::obj_field(v, "rate_bits")?)?,
            seed: Deserialize::from_value(serde::obj_field(v, "seed")?)?,
            digest: Deserialize::from_value(serde::obj_field(v, "digest")?)?,
            faults: Deserialize::from_value(serde::obj_field(v, "faults")?)?,
        })
    }
}

/// `(provider pointer, spec)` pairs registered by the harness helpers.
static PROVIDER_SPECS: Mutex<Vec<(usize, ProviderSpec)>> = Mutex::new(Vec::new());
/// Same for patterns.
static PATTERN_SPECS: Mutex<Vec<(usize, PatternSpec)>> = Mutex::new(Vec::new());

fn thin_ptr<T: ?Sized>(arc: &Arc<T>) -> usize {
    Arc::as_ptr(arc) as *const () as usize
}

/// Records how `provider` can be rebuilt, so capsules for jobs using it
/// are replayable.  Registration is by pointer identity of the `Arc`.
pub fn register_provider(provider: &Arc<dyn PathProvider>, spec: ProviderSpec) {
    if let Ok(mut m) = PROVIDER_SPECS.lock() {
        let key = thin_ptr(provider);
        m.retain(|(k, _)| *k != key);
        m.push((key, spec));
    }
}

/// Records how `pattern` can be rebuilt (see [`register_provider`]).
pub fn register_pattern(pattern: &Arc<dyn TrafficPattern>, spec: PatternSpec) {
    if let Ok(mut m) = PATTERN_SPECS.lock() {
        let key = thin_ptr(pattern);
        m.retain(|(k, _)| *k != key);
        m.push((key, spec));
    }
}

/// The registered spec of `provider`, or an `Opaque` placeholder.
pub fn provider_spec(provider: &Arc<dyn PathProvider>) -> ProviderSpec {
    let key = thin_ptr(provider);
    PROVIDER_SPECS
        .lock()
        .ok()
        .and_then(|m| m.iter().find(|(k, _)| *k == key).map(|(_, s)| s.clone()))
        .unwrap_or(ProviderSpec::Opaque {
            desc: "unregistered provider".into(),
        })
}

/// The registered spec of `pattern`, or an `Opaque` placeholder carrying
/// the pattern's self-reported name.
pub fn pattern_spec(pattern: &Arc<dyn TrafficPattern>) -> PatternSpec {
    let key = thin_ptr(pattern);
    PATTERN_SPECS
        .lock()
        .ok()
        .and_then(|m| m.iter().find(|(k, _)| *k == key).map(|(_, s)| s.clone()))
        .unwrap_or_else(|| PatternSpec::Opaque {
            desc: pattern.name(),
        })
}

/// Serializes a fault schedule into capsule events.
pub fn fault_specs(faults: Option<&Arc<FaultSchedule>>) -> Vec<FaultEventSpec> {
    let Some(schedule) = faults else {
        return Vec::new();
    };
    schedule
        .events()
        .iter()
        .map(|e| FaultEventSpec {
            cycle: e.cycle,
            global_links: e
                .faults
                .global_links()
                .iter()
                .map(|&(u, v)| (u.0, v.0))
                .collect(),
            local_links: e
                .faults
                .local_links()
                .iter()
                .map(|&(u, v)| (u.0, v.0))
                .collect(),
            switches: e.faults.switches().iter().map(|s| s.0).collect(),
            global_siblings: e
                .faults
                .global_siblings()
                .iter()
                .map(|&(u, v, k)| (u.0, v.0, k))
                .collect(),
        })
        .collect()
}

/// Builds the capsule for a failed [`JobRecord`]; `None` for `Ok` jobs.
#[allow(clippy::too_many_arguments)]
pub fn capsule_for_failure(
    record: &JobRecord,
    topo: &Arc<Dragonfly>,
    provider: &Arc<dyn PathProvider>,
    pattern: &Arc<dyn TrafficPattern>,
    routing: RoutingAlgorithm,
    cfg: &Config,
    budget: JobBudget,
    faults: Option<&Arc<FaultSchedule>>,
) -> Option<Capsule> {
    let (detail, trip_cycle) = match &record.outcome {
        JobOutcome::Ok(_) => return None,
        JobOutcome::Panicked(msg) => (msg.clone(), None),
        JobOutcome::TimedOut(stall) | JobOutcome::WatchdogTripped(stall) => {
            (stall.oneline(), Some(stall.cycle))
        }
    };
    Some(Capsule {
        version: CAPSULE_VERSION,
        label: record.label.clone(),
        outcome: record.outcome.name().to_string(),
        detail,
        trip_cycle,
        topology: topo.params(),
        arrangement: topo.arrangement_id().to_string(),
        global_lag: topo.global_lag(),
        provider: provider_spec(provider),
        pattern: pattern_spec(pattern),
        routing,
        cfg: cfg.clone(),
        budget_max_cycles: budget.max_cycles,
        budget_wall_ms: budget.wall_limit_ms,
        rate: record.rate,
        rate_bits: record.rate.to_bits(),
        seed: record.seed,
        digest: record.digest,
        faults: fault_specs(faults),
    })
}

/// Where capsules are written (relative to the harness working directory).
pub fn capsule_dir() -> PathBuf {
    PathBuf::from("logs/capsules")
}

/// How many `capsule_*.json` files the pruning keeps (newest first);
/// set with `TUGAL_CAPSULE_KEEP`.  Fixtures are never pruned.
pub fn capsule_retain() -> usize {
    crate::env::HarnessEnv::get().capsule_keep
}

/// Writes `capsule` into `dir` (created lazily) as
/// `capsule_<digest>.json` and prunes old capsules beyond
/// [`capsule_retain`].  Returns the written path.
pub fn write_capsule_to(dir: &Path, capsule: &Capsule) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("capsule_{:016x}.json", capsule.digest));
    let json = serde_json::to_string_pretty(capsule)
        .map_err(|e| std::io::Error::other(format!("serializing capsule: {e:?}")))?;
    std::fs::write(&path, json)?;
    prune_capsules(dir, capsule_retain());
    Ok(path)
}

/// [`write_capsule_to`] into the default [`capsule_dir`].
pub fn write_capsule(capsule: &Capsule) -> std::io::Result<PathBuf> {
    write_capsule_to(&capsule_dir(), capsule)
}

/// Deletes the oldest `capsule_*.json` files beyond `keep`.  Files not
/// matching the prefix (committed `fixture_*.json` repros) are untouched.
fn prune_capsules(dir: &Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut capsules: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("capsule_") && name.ends_with(".json")
        })
        .filter_map(|e| {
            let modified = e.metadata().and_then(|m| m.modified()).ok()?;
            Some((modified, e.path()))
        })
        .collect();
    // Newest first; ties broken by name so pruning is deterministic.
    capsules.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| b.1.cmp(&a.1)));
    for (_, path) in capsules.into_iter().skip(keep) {
        let _ = std::fs::remove_file(path);
    }
}

/// Loads a capsule, rejecting unknown versions.
pub fn read_capsule(path: &Path) -> Result<Capsule, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let capsule: Capsule = serde_json::from_str(&data)
        .map_err(|e| format!("{}: malformed capsule ({e:?})", path.display()))?;
    if capsule.version != CAPSULE_VERSION {
        return Err(format!(
            "{}: capsule version {} (this binary reads {})",
            path.display(),
            capsule.version,
            CAPSULE_VERSION
        ));
    }
    Ok(capsule)
}

/// Rebuilds the provider a capsule describes.
pub fn rebuild_provider(
    spec: &ProviderSpec,
    topo: &Arc<Dragonfly>,
) -> Result<Arc<dyn PathProvider>, String> {
    match spec {
        ProviderSpec::AllPaths => Ok(Arc::new(TableProvider::all_paths(topo.clone()))),
        ProviderSpec::Sampled { rule } => Ok(Arc::new(RuleProvider::new(topo.clone(), *rule))),
        ProviderSpec::Rule {
            rule,
            table_seed,
            balanced,
        } => {
            let mut table = PathTable::build_with_rule(topo, *rule, *table_seed);
            if *balanced {
                tugal::balance::adjust(&mut table, topo, &tugal::BalanceOptions::default());
            }
            Ok(Arc::new(TableProvider::new(topo.clone(), table)))
        }
        ProviderSpec::Opaque { desc } => Err(format!(
            "provider is not replayable ({desc}); register a ProviderSpec in the harness"
        )),
    }
}

/// Rebuilds the traffic pattern a capsule describes.
pub fn rebuild_pattern(
    spec: &PatternSpec,
    topo: &Arc<Dragonfly>,
) -> Result<Arc<dyn TrafficPattern>, String> {
    match spec {
        PatternSpec::Uniform => Ok(Arc::new(Uniform::new(topo))),
        PatternSpec::Shift { dg, ds } => Ok(Arc::new(Shift::new(topo, *dg, *ds))),
        PatternSpec::Opaque { desc } => Err(format!(
            "pattern is not replayable ({desc}); register a PatternSpec in the harness"
        )),
    }
}

/// Rebuilds the fault schedule a capsule describes (`None` when empty).
pub fn rebuild_faults(events: &[FaultEventSpec]) -> Option<Arc<FaultSchedule>> {
    if events.is_empty() {
        return None;
    }
    let mut schedule = FaultSchedule::empty();
    for e in events {
        let mut set = FaultSet::empty();
        for &(u, v) in &e.global_links {
            set.fail_global_link(SwitchId(u), SwitchId(v));
        }
        for &(u, v) in &e.local_links {
            set.fail_local_link(SwitchId(u), SwitchId(v));
        }
        for &s in &e.switches {
            set.fail_switch(SwitchId(s));
        }
        for &(u, v, k) in &e.global_siblings {
            set.fail_global_sibling(SwitchId(u), SwitchId(v), k);
        }
        schedule = schedule.and_at(e.cycle, set);
    }
    Some(Arc::new(schedule))
}

/// The result of replaying a capsule.
pub struct Replay {
    /// The re-run job's record (outcome, timing, digest).
    pub record: JobRecord,
    /// True when the re-run reproduced the capsule's outcome.
    pub reproduced: bool,
    /// What was compared, for the replay report.
    pub expectation: String,
}

/// Re-runs the job a capsule describes under the same isolation and
/// budget, and checks the outcome against the recorded one: panics must
/// reproduce the exact message, watchdog trips the exact trip cycle;
/// wall-clock timeouts only the outcome kind (wall time is not
/// deterministic).
pub fn replay(capsule: &Capsule) -> Result<Replay, String> {
    let arr = tugal_topology::ArrangementSpec::parse(&capsule.arrangement)
        .ok_or_else(|| format!("unknown arrangement {:?}", capsule.arrangement))?;
    let topo = Arc::new(
        Dragonfly::with_shape(capsule.topology, arr.build().as_ref(), capsule.global_lag)
            .map_err(|e| format!("invalid topology: {e:?}"))?,
    );
    let provider = rebuild_provider(&capsule.provider, &topo)?;
    let pattern = rebuild_pattern(&capsule.pattern, &topo)?;
    let faults = rebuild_faults(&capsule.faults);
    let runner = ExperimentRunner::new(topo)
        .series(SeriesSpec {
            label: capsule.label.clone(),
            provider,
            pattern,
            routing: capsule.routing,
            cfg: capsule.cfg.clone(),
            faults,
        })
        .with_budget(JobBudget {
            max_cycles: capsule.budget_max_cycles,
            wall_limit_ms: capsule.budget_wall_ms,
        });
    let rate = f64::from_bits(capsule.rate_bits);
    let (_, _, records) = runner
        .run_recorded(&[rate], &[capsule.seed], |_| NoopObserver)
        .map_err(|e| format!("capsule config rejected: {e}"))?;
    let record = records
        .into_iter()
        .next()
        .ok_or_else(|| "runner scheduled no job".to_string())?;
    let (reproduced, expectation) = match (&record.outcome, capsule.outcome.as_str()) {
        (JobOutcome::Panicked(msg), "panicked") => (
            *msg == capsule.detail,
            format!("panic message == {:?}", capsule.detail),
        ),
        (JobOutcome::WatchdogTripped(stall), "watchdog-tripped") => (
            Some(stall.cycle) == capsule.trip_cycle,
            format!("trip cycle == {:?}", capsule.trip_cycle),
        ),
        (JobOutcome::TimedOut(_), "timed-out") => (
            true,
            "outcome kind only (wall time is not deterministic)".into(),
        ),
        _ => (
            false,
            format!(
                "outcome {} (capsule recorded {})",
                record.outcome.name(),
                capsule.outcome
            ),
        ),
    };
    Ok(Replay {
        record,
        reproduced,
        expectation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-tmp")
            .join(tag);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn capsule(digest: u64) -> Capsule {
        Capsule {
            version: CAPSULE_VERSION,
            label: "UGAL-L".into(),
            outcome: "panicked".into(),
            detail: "boom".into(),
            trip_cycle: None,
            topology: DragonflyParams::new(2, 4, 2, 5),
            arrangement: "absolute".into(),
            global_lag: 1,
            provider: ProviderSpec::Rule {
                rule: VlbRule::ClassLimit {
                    max_hops: 4,
                    frac_next: 0.6,
                },
                table_seed: 0x7065,
                balanced: true,
            },
            pattern: PatternSpec::Shift { dg: 1, ds: 0 },
            routing: RoutingAlgorithm::UgalL,
            cfg: Config::quick(),
            budget_max_cycles: 0,
            budget_wall_ms: 0,
            rate: 0.1,
            rate_bits: 0.1f64.to_bits(),
            seed: 7,
            digest,
            faults: vec![FaultEventSpec {
                cycle: 0,
                global_links: vec![(1, 9)],
                local_links: vec![],
                switches: vec![3],
                global_siblings: vec![],
            }],
        }
    }

    #[test]
    fn capsule_roundtrips_through_json() {
        let dir = tmp_dir("capsule-roundtrip");
        let c = capsule(0xabcd);
        let path = write_capsule_to(&dir, &c).unwrap();
        let back = read_capsule(&path).unwrap();
        assert_eq!(back.label, c.label);
        assert_eq!(back.provider, c.provider);
        assert_eq!(back.pattern, c.pattern);
        assert_eq!(back.rate_bits, c.rate_bits);
        assert_eq!(back.faults, c.faults);
        assert_eq!(format!("{:?}", back.cfg), format!("{:?}", c.cfg));
    }

    #[test]
    fn pruning_keeps_newest_and_spares_fixtures() {
        let dir = tmp_dir("capsule-prune");
        let fixture = dir.join("fixture_keepme.json");
        std::fs::write(&fixture, "{}").unwrap();
        for i in 0..6u64 {
            let path = write_capsule_to(&dir, &capsule(i)).unwrap();
            // Distinct mtimes so "newest" is well-defined on coarse clocks.
            let t = filetime_from_secs(1_700_000_000 + i);
            set_mtime(&path, t);
        }
        prune_capsules(&dir, 3);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "capsule_0000000000000003.json",
                "capsule_0000000000000004.json",
                "capsule_0000000000000005.json",
                "fixture_keepme.json",
            ]
        );
    }

    fn filetime_from_secs(secs: u64) -> std::time::SystemTime {
        std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs)
    }

    /// Sets a file's mtime via its open handle (std-only).
    fn set_mtime(path: &Path, t: std::time::SystemTime) {
        let f = std::fs::File::options().write(true).open(path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(t))
            .unwrap();
    }

    #[test]
    fn fault_specs_roundtrip() {
        let mut set = FaultSet::empty();
        set.fail_global_link(SwitchId(1), SwitchId(9));
        set.fail_switch(SwitchId(3));
        set.fail_global_sibling(SwitchId(2), SwitchId(8), 1);
        let schedule = Arc::new(FaultSchedule::at(40, set));
        let specs = fault_specs(Some(&schedule));
        assert_eq!(specs[0].global_siblings, vec![(2, 8, 1)]);
        let back = rebuild_faults(&specs).unwrap();
        assert_eq!(back.events(), schedule.events());
        assert!(rebuild_faults(&[]).is_none());
    }

    #[test]
    fn pre_zoo_capsules_deserialize_to_the_paper_shape() {
        // A capsule serialized before arrangement/global_lag/global_siblings
        // existed: the fields are simply absent from the JSON.
        let mut c = capsule(0x01d);
        let mut json = serde_json::to_string(&c).unwrap();
        for cut in [
            "\"arrangement\":\"absolute\",",
            "\"global_lag\":1,",
            ",\"global_siblings\":[]",
        ] {
            assert!(json.contains(cut), "fixture drifted: {cut} not in {json}");
            json = json.replace(cut, "");
        }
        let back: Capsule = serde_json::from_str(&json).unwrap();
        assert_eq!(back.arrangement, "absolute");
        assert_eq!(back.global_lag, 1);
        c.faults[0].global_siblings.clear();
        assert_eq!(back.faults, c.faults);
    }
}
