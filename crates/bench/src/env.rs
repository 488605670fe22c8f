//! The harness environment: every `TUGAL_*` variable, parsed and checked
//! once.
//!
//! [`HarnessEnv::parse`] turns `(name, value)` pairs into a typed
//! [`HarnessEnv`] with no side effects; [`HarnessEnv::get`] parses the
//! process environment once and exits with code 2 (via [`crate::fatal`])
//! on an unknown `TUGAL_*` name or a malformed value.  Every bench binary
//! calls it first, so a typo fails before any work starts instead of
//! silently running with a default.  Other variables are ignored.
//!
//! Values are trimmed of surrounding whitespace.  A flag is `1` (on) or
//! `0` (off); counts and cycle numbers are unsigned integers.
//!
//! | Variable | Value | Default | Used by | Effect |
//! |---|---|---|---|---|
//! | `TUGAL_FULL` | flag | `0` | every sweep, `perf`, `prof` | paper-scale windows, pattern suites and seeds |
//! | `TUGAL_TINY` | flag | `0` | `fig_faults`, `fig_zoo`, `perf`, `prof` | `dfly(2,4,2,5)` smoke sizes |
//! | `TUGAL_METRICS` | flag | `0` | every sweep | per-job metrics layer |
//! | `TUGAL_METRICS_SAMPLE` | cycles | `0` (off) | with `TUGAL_METRICS=1` | time-series sampling cadence |
//! | `TUGAL_METRICS_OCC` | cycles | `0` (off) | with `TUGAL_METRICS=1` | buffer-occupancy sampling cadence |
//! | `TUGAL_PROFILE` | flag | `0` | every sweep | per-phase engine profiler on every job |
//! | `TUGAL_TRACE` | path | off | every sweep | JSONL trace spans |
//! | `TUGAL_JOURNAL` | path | off | every sweep | resume journal of completed jobs |
//! | `TUGAL_JOB_MAX_CYCLES` | cycles | `0` (no limit) | every sweep | per-job simulated-cycle ceiling |
//! | `TUGAL_JOB_WALL_MS` | ms | `0` (no limit) | every sweep | per-job wall-clock ceiling |
//! | `TUGAL_PERF_CHECK` | path | off | `perf` | baseline file to gate jobs/s against |
//! | `TUGAL_PERF_TOLERANCE` | fraction | `0.25` | `perf` | allowed jobs/s drop before the gate fails |
//! | `TUGAL_PERF_OUT` | path | `BENCH_netsim.json` | `perf` | output file |
//! | `TUGAL_PROF_OUT` | path | `results/profile.json` | `prof` | output file |
//! | `TUGAL_RESILIENCE_OUT` | path | `results/resilience.json` | `resilience` | output file |
//! | `TUGAL_RESILIENCE_PANIC` | flag | `0` | `resilience` | add a series whose every job panics |
//! | `TUGAL_RESILIENCE_TOPO` | `p,a,h,g` | `2,4,2,5` | `resilience` | sweep topology |

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;
use tugal_netsim::runner::JobBudget;
use tugal_obs::MetricsConfig;

/// Every `TUGAL_*` setting of a harness process.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessEnv {
    /// `TUGAL_FULL`: paper-scale fidelity instead of quick mode.
    pub full: bool,
    /// `TUGAL_TINY`: smoke-test sizes for the harnesses that have them.
    pub tiny: bool,
    /// `TUGAL_METRICS*`: the metrics layer (disabled by default).
    pub metrics: MetricsConfig,
    /// `TUGAL_PROFILE`: run every job with a live engine profiler.
    pub profile: bool,
    /// `TUGAL_TRACE`: JSONL trace file.
    pub trace: Option<String>,
    /// `TUGAL_JOURNAL`: resume journal.
    pub journal: Option<String>,
    /// `TUGAL_JOB_MAX_CYCLES` / `TUGAL_JOB_WALL_MS`: per-job limits.
    pub budget: JobBudget,
    /// `TUGAL_PERF_CHECK`: baseline the `perf` gate compares against.
    pub perf_check: Option<String>,
    /// `TUGAL_PERF_TOLERANCE`: allowed jobs/s drop of the `perf` gate.
    pub perf_tolerance: f64,
    /// `TUGAL_PERF_OUT`: where `perf` writes its bench file.
    pub perf_out: String,
    /// `TUGAL_PROF_OUT`: where `prof` writes its attribution.
    pub prof_out: String,
    /// `TUGAL_RESILIENCE_OUT`: where `resilience` writes its results.
    pub resilience_out: String,
    /// `TUGAL_RESILIENCE_PANIC`: add a panicking series.
    pub resilience_panic: bool,
    /// `TUGAL_RESILIENCE_TOPO`: the resilience sweep's `(p, a, h, g)`.
    pub resilience_topo: (u32, u32, u32, u32),
}

impl Default for HarnessEnv {
    fn default() -> Self {
        HarnessEnv {
            full: false,
            tiny: false,
            metrics: MetricsConfig::default(),
            profile: false,
            trace: None,
            journal: None,
            budget: JobBudget::default(),
            perf_check: None,
            perf_tolerance: 0.25,
            perf_out: "BENCH_netsim.json".into(),
            prof_out: "results/profile.json".into(),
            resilience_out: "results/resilience.json".into(),
            resilience_panic: false,
            resilience_topo: (2, 4, 2, 5),
        }
    }
}

/// Why [`HarnessEnv::parse`] rejected the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// A `TUGAL_*` name no harness reads (a typo or a retired name).
    Unknown(String),
    /// A known name with a value that does not parse.
    Malformed {
        /// The variable.
        name: String,
        /// Its raw value.
        value: String,
        /// What the value should look like.
        expected: &'static str,
    },
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::Unknown(name) => write!(
                f,
                "unknown variable {name} (the TUGAL_* names are listed in README.md)"
            ),
            EnvError::Malformed {
                name,
                value,
                expected,
            } => write!(f, "{name}={value:?}: expected {expected}"),
        }
    }
}

impl std::error::Error for EnvError {}

/// `Some(v)` for a non-empty value.
fn non_empty(v: &str) -> Option<String> {
    (!v.is_empty()).then(|| v.to_string())
}

impl HarnessEnv {
    /// Parses `(name, value)` pairs, ignoring names without the `TUGAL_`
    /// prefix.  Unset names keep their defaults (see the module table).
    pub fn parse(vars: impl IntoIterator<Item = (String, String)>) -> Result<Self, EnvError> {
        let vars: BTreeMap<String, String> = vars
            .into_iter()
            .filter(|(name, _)| name.starts_with("TUGAL_"))
            .collect();
        let mut env = HarnessEnv::default();
        let (mut metrics_on, mut sample, mut occ) = (false, 0, 0);
        for (name, raw) in &vars {
            let v = raw.trim();
            let bad = |expected| EnvError::Malformed {
                name: name.clone(),
                value: raw.clone(),
                expected,
            };
            let flag = || match v {
                "1" => Ok(true),
                "0" => Ok(false),
                _ => Err(bad("1 or 0")),
            };
            let count = || v.parse::<u64>().map_err(|_| bad("an unsigned integer"));
            let path = || non_empty(v).ok_or_else(|| bad("a non-empty path"));
            match name.as_str() {
                "TUGAL_FULL" => env.full = flag()?,
                "TUGAL_TINY" => env.tiny = flag()?,
                "TUGAL_METRICS" => metrics_on = flag()?,
                "TUGAL_METRICS_SAMPLE" => sample = count()?,
                "TUGAL_METRICS_OCC" => occ = count()?,
                "TUGAL_PROFILE" => env.profile = flag()?,
                "TUGAL_TRACE" => env.trace = non_empty(v),
                "TUGAL_JOURNAL" => env.journal = non_empty(v),
                "TUGAL_JOB_MAX_CYCLES" => env.budget.max_cycles = count()?,
                "TUGAL_JOB_WALL_MS" => env.budget.wall_limit_ms = count()?,
                "TUGAL_PERF_CHECK" => env.perf_check = Some(path()?),
                "TUGAL_PERF_TOLERANCE" => {
                    env.perf_tolerance = v.parse().map_err(|_| bad("a fraction such as 0.25"))?
                }
                "TUGAL_PERF_OUT" => env.perf_out = path()?,
                "TUGAL_PROF_OUT" => env.prof_out = path()?,
                "TUGAL_RESILIENCE_OUT" => env.resilience_out = path()?,
                "TUGAL_RESILIENCE_PANIC" => env.resilience_panic = flag()?,
                "TUGAL_RESILIENCE_TOPO" if v.is_empty() => {}
                "TUGAL_RESILIENCE_TOPO" => {
                    let parts: Result<Vec<u32>, _> =
                        v.split(',').map(|t| t.trim().parse()).collect();
                    let Ok([p, a, h, g]) = parts.as_deref() else {
                        return Err(bad("p,a,h,g"));
                    };
                    env.resilience_topo = (*p, *a, *h, *g);
                }
                _ => return Err(EnvError::Unknown(name.clone())),
            }
        }
        if metrics_on {
            env.metrics = MetricsConfig {
                enabled: true,
                sample_every: sample,
                occupancy_every: occ,
                per_channel: true,
            };
        }
        Ok(env)
    }

    /// The process environment, parsed on first use.  An unknown or
    /// malformed `TUGAL_*` variable ends the process with exit code 2.
    pub fn get() -> &'static HarnessEnv {
        static ENV: OnceLock<HarnessEnv> = OnceLock::new();
        ENV.get_or_init(|| {
            let vars = std::env::vars_os().map(|(k, v)| {
                (
                    k.to_string_lossy().into_owned(),
                    v.to_string_lossy().into_owned(),
                )
            });
            HarnessEnv::parse(vars).unwrap_or_else(|e| crate::fatal("environment", e))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<HarnessEnv, EnvError> {
        HarnessEnv::parse(vars.iter().map(|&(k, v)| (k.to_string(), v.to_string())))
    }

    fn rejects(name: &str, value: &str) {
        match parse(&[(name, value)]) {
            Err(EnvError::Malformed { name: n, .. }) => assert_eq!(n, name),
            other => panic!("{name}={value:?} gave {other:?}"),
        }
    }

    #[test]
    fn empty_environment_gives_the_defaults() {
        let env = parse(&[]).unwrap();
        assert!(!env.full && !env.tiny && !env.profile && !env.resilience_panic);
        assert_eq!(env.metrics, MetricsConfig::default());
        assert_eq!((env.trace, env.journal), (None, None));
        assert_eq!(env.budget, JobBudget::default());
        assert_eq!(env.perf_check, None);
        assert_eq!(env.perf_tolerance, 0.25);
        assert_eq!(env.perf_out, "BENCH_netsim.json");
        assert_eq!(env.prof_out, "results/profile.json");
        assert_eq!(env.resilience_out, "results/resilience.json");
        assert_eq!(env.resilience_topo, (2, 4, 2, 5));
    }

    #[test]
    fn values_that_parsed_before_keep_their_meaning() {
        let env = parse(&[
            ("TUGAL_FULL", "1"),
            ("TUGAL_TINY", "1"),
            ("TUGAL_METRICS", "1"),
            ("TUGAL_METRICS_SAMPLE", "500"),
            ("TUGAL_JOB_WALL_MS", "60000"),
            ("TUGAL_JOB_MAX_CYCLES", "0"),
            ("TUGAL_TRACE", " results/trace.jsonl "),
            ("TUGAL_JOURNAL", ""),
            ("TUGAL_PERF_TOLERANCE", "0.5"),
            ("TUGAL_RESILIENCE_TOPO", "2,7,1,8"),
        ])
        .unwrap();
        assert!(env.full && env.tiny);
        assert!(env.metrics.enabled && env.metrics.per_channel);
        assert_eq!(
            (env.metrics.sample_every, env.metrics.occupancy_every),
            (500, 0)
        );
        assert_eq!(env.budget.wall_limit_ms, 60_000);
        assert_eq!(env.budget.max_cycles, 0);
        assert_eq!(env.trace.as_deref(), Some("results/trace.jsonl"));
        assert_eq!(env.journal, None);
        assert_eq!(env.perf_tolerance, 0.5);
        assert_eq!(env.resilience_topo, (2, 7, 1, 8));
    }

    #[test]
    fn malformed_values_are_errors() {
        // Each of these used to fall back to a default without a word:
        // the watchdog switched off, quick mode, no cycle ceiling, a 25%
        // tolerance.
        rejects("TUGAL_JOB_WALL_MS", "60s");
        rejects("TUGAL_FULL", "true");
        rejects("TUGAL_JOB_MAX_CYCLES", "1e6");
        rejects("TUGAL_PERF_TOLERANCE", "25%");
        rejects("TUGAL_METRICS_OCC", "-1");
        rejects("TUGAL_RESILIENCE_TOPO", "2,4,2");
        rejects("TUGAL_PERF_OUT", "");
    }

    #[test]
    fn unknown_names_are_errors_and_other_variables_are_ignored() {
        for name in [
            "TUGAL_FAULT_TINY",
            "TUGAL_FAULTS_TINY",
            "TUGAL_ZOO_TINY",
            "TUGAL_PERF_TINY",
            "TUGAL_PROF_TINY",
            "TUGAL_FUL",
            // Retired with mid-simulation checkpointing: a stale script
            // exits 2 instead of running without the checkpoints it asked for.
            "TUGAL_CKPT",
            "TUGAL_CKPT_EVERY",
            "TUGAL_RESILIENCE_KILL9",
            // Retired when failed jobs moved to journal reruns: a stale
            // script exits 2 instead of silently keeping nothing.
            "TUGAL_CAPSULE_KEEP",
        ] {
            assert_eq!(
                parse(&[(name, "1")]),
                Err(EnvError::Unknown(name.to_string()))
            );
        }
        assert_eq!(
            parse(&[("PATH", "/bin"), ("FULL", "yes")]).unwrap(),
            HarnessEnv::default()
        );
    }
}
