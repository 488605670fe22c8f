//! # Experiment harnesses
//!
//! One `fig` binary runs every table, figure and ablation of the paper
//! through the registry in [`figures`] (`fig <id>`; a bare `fig` lists
//! the ids, and DESIGN.md's per-experiment index maps them to the
//! paper), plus Criterion micro-benchmarks of the substrates.
//!
//! Every harness prints the series/rows the paper reports, as
//! tab-separated text prefixed with `#` comments, and also writes a JSON
//! record under `results/` so EXPERIMENTS.md numbers are regenerable.
//! Every `TUGAL_*` setting is parsed once, by [`env::HarnessEnv`].
//!
//! ## Fidelity modes
//!
//! By default harnesses run **quick** parameters (short measurement
//! windows, sampled pattern suites) sized for CI; set `TUGAL_FULL=1` for
//! paper-scale runs (10 000-cycle windows, 3 warmup windows, full
//! TYPE_1 suites, more seeds).  Quick and full runs produce the same
//! qualitative shapes; EXPERIMENTS.md records which mode produced the
//! stored numbers.

pub mod capsule;
pub mod env;
pub mod figures;

use env::HarnessEnv;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tugal::{compute_tvlb, conventional_provider, TUgalConfig};
use tugal_netsim::journal::Journal;
use tugal_netsim::runner::{
    ExperimentRunner, JobBudget, JobInfo, JobRecord, ObservedCurve, RunSummary, SeriesSpec,
};
use tugal_netsim::trace::TraceSink;
use tugal_netsim::{
    Config, CurvePoint, FaultSchedule, NoopObserver, RoutingAlgorithm, SimObserver,
};
use tugal_obs::{render_stall, MetricsConfig, MetricsObserver, MetricsReport};
use tugal_routing::{PathProvider, RuleProvider, VlbRule};
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

/// Prints a fatal setup error and exits with code 2 — the shared
/// error path of every harness binary (baseline files that cannot be
/// read, malformed JSON, invalid topologies, rejected configurations),
/// replacing the bare `unwrap`/`panic!` setup paths the binaries grew up
/// with.  Exit code 2 distinguishes *setup* failures from job failures
/// (see [`finish`]).
pub fn fatal(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("fatal: {context}: {err}");
    std::process::exit(2);
}

/// Jobs that failed (panicked, timed out, tripped a watchdog) across every
/// sweep this process ran; each failure was reported to stderr and, where
/// possible, written as a replay capsule under `logs/capsules/`.
static FAILED_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Ends a harness process with the resilience exit-code convention:
/// 0 when every job completed, 3 when some jobs failed and were skipped
/// by the aggregation (their capsules are under `logs/capsules/`).
/// Setup errors exit 2 via [`fatal`] before any sweep runs.
pub fn finish() -> ! {
    let failed = FAILED_JOBS.load(Ordering::Relaxed);
    if failed > 0 {
        eprintln!(
            "{failed} job(s) failed and were skipped; replay capsules are under {}",
            capsule::capsule_dir().display()
        );
        std::process::exit(3);
    }
    std::process::exit(0);
}

/// True when `TUGAL_FULL=1`: paper-scale windows and pattern suites.
pub fn full_fidelity() -> bool {
    HarnessEnv::get().full
}

/// Simulator configuration for the current fidelity mode (Table 3 network
/// parameters in both).
pub fn sim_config() -> Config {
    if full_fidelity() {
        Config::paper_default()
    } else {
        Config::quick()
    }
}

/// Session-wide metrics override (set by harnesses like `fig_linkload`
/// that always want telemetry, regardless of the environment).
static METRICS_OVERRIDE: Mutex<Option<MetricsConfig>> = Mutex::new(None);

/// Forces a metrics configuration for every subsequent sweep in this
/// process, overriding the `TUGAL_METRICS*` settings.
pub fn force_metrics(cfg: MetricsConfig) {
    if let Ok(mut m) = METRICS_OVERRIDE.lock() {
        *m = Some(cfg);
    }
}

/// The metrics configuration for this process: a [`force_metrics`]
/// override if set, else the `TUGAL_METRICS*` settings — disabled by
/// default, which keeps every harness running the un-instrumented engine.
pub fn metrics_config() -> MetricsConfig {
    METRICS_OVERRIDE
        .lock()
        .ok()
        .and_then(|m| m.clone())
        .unwrap_or_else(|| HarnessEnv::get().metrics.clone())
}

/// Accumulated run summary of every [`ExperimentRunner`] batch this
/// process scheduled (the one-line report satellite).
static RUN_SUMMARY: Mutex<Option<RunSummary>> = Mutex::new(None);

fn record_run_summary(s: &RunSummary) {
    if let Ok(mut m) = RUN_SUMMARY.lock() {
        match &mut *m {
            Some(acc) => acc.absorb(s),
            None => *m = Some(s.clone()),
        }
    }
}

/// The accumulated batch summary, if any sweep ran through the runner.
pub fn run_summary() -> Option<RunSummary> {
    RUN_SUMMARY.lock().ok().and_then(|m| m.clone())
}

/// Serializable mirror of [`tugal_model::LpStats`], recorded per
/// harness-chosen label into the `lp_stats` section of
/// `results/<id>.json` so stored numbers carry the LP solver's work
/// profile (pivots, refactorizations, warm-start hit rate, wall-clock)
/// next to the throughput figures they produced.
#[derive(Clone, serde::Serialize)]
pub struct LpStatsOut {
    /// LP solves performed.
    pub solves: u64,
    /// Simplex pivots across all solves.
    pub pivots: u64,
    /// Basis refactorizations across all solves.
    pub refactorizations: u64,
    /// Solves that entered with a non-empty warm basis.
    pub warm_attempts: u64,
    /// Warm attempts whose basis was accepted (no cold fallback).
    pub warm_hits: u64,
    /// Wall-clock spent inside the LP solver, in milliseconds.
    pub wall_ms: f64,
}

/// LP solve counters recorded by [`record_lp_stats`] in this process.
static LP_STATS: Mutex<BTreeMap<String, LpStatsOut>> = Mutex::new(BTreeMap::new());

/// Records the LP solve counters of one warm-start chain under `label`;
/// the next [`print_figure`] writes every recorded chain into the JSON
/// record.  Recording the same label twice keeps the later snapshot
/// (chains accumulate, so the last snapshot is the complete one).
pub fn record_lp_stats(label: &str, stats: &tugal_model::LpStats) {
    if let Ok(mut m) = LP_STATS.lock() {
        m.insert(
            label.to_string(),
            LpStatsOut {
                solves: stats.solves as u64,
                pivots: stats.pivots as u64,
                refactorizations: stats.refactorizations as u64,
                warm_attempts: stats.warm_attempts as u64,
                warm_hits: stats.warm_hits as u64,
                wall_ms: stats.wall_ms,
            },
        );
    }
}

/// The paper's four topologies (Table 2).
pub fn dfly(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    match Dragonfly::new(DragonflyParams::new(p, a, h, g)) {
        Ok(t) => Arc::new(t),
        Err(e) => fatal(
            &format!("constructing dfly({p},{a},{h},{g})"),
            format!("{e:?}"),
        ),
    }
}

/// A topology-zoo shape: `dfly(p,a,h,g)` under an arbitrary arrangement
/// and global-lag multiplier.  `spec` accepts anything
/// [`tugal_topology::ArrangementSpec::parse`] does (`"palmtree"`,
/// `"random:0x2007"`, …).
pub fn dfly_shape(p: u32, a: u32, h: u32, g: u32, spec: &str, lag: u32) -> Arc<Dragonfly> {
    let ctx = format!("constructing dfly({p},{a},{h},{g}) {spec} lag{lag}");
    let Some(arr) = tugal_topology::ArrangementSpec::parse(spec) else {
        fatal(&ctx, format!("unknown arrangement {spec:?}"));
    };
    match Dragonfly::with_shape(DragonflyParams::new(p, a, h, g), arr.build().as_ref(), lag) {
        Ok(t) => Arc::new(t),
        Err(e) => fatal(&ctx, format!("{e:?}")),
    }
}

/// Uniform random traffic, registered for capsule replay.
pub fn uniform(topo: &Arc<Dragonfly>) -> Arc<dyn TrafficPattern> {
    let p: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(topo));
    capsule::register_pattern(&p, capsule::PatternSpec::Uniform);
    p
}

/// Shift traffic by `dg` groups / `ds` switches, registered for capsule
/// replay.
pub fn shift(topo: &Arc<Dragonfly>, dg: u32, ds: u32) -> Arc<dyn TrafficPattern> {
    let p: Arc<dyn TrafficPattern> = Arc::new(Shift::new(topo, dg, ds));
    capsule::register_pattern(&p, capsule::PatternSpec::Shift { dg, ds });
    p
}

/// Standard offered-load grid for latency curves.
pub fn rate_grid(max: f64) -> Vec<f64> {
    let steps = if full_fidelity() { 20 } else { 10 };
    (1..=steps).map(|i| max * i as f64 / steps as f64).collect()
}

/// Computes (or re-derives) the T-VLB provider for a topology.
///
/// Small topologies run Algorithm 1 (sampled suites in quick mode).  For
/// `dfly(13,26,13,27)` the explicit table does not fit in memory; in full
/// mode Algorithm 1 still runs (rule-based candidates), while quick mode
/// uses the dense-topology outcome (`60% 5-hop`) directly — the documented
/// shortcut of DESIGN.md §4 — so the figure remains reproducible on a
/// laptop.
pub fn tvlb_provider(topo: &Arc<Dragonfly>) -> (Arc<dyn PathProvider>, VlbRule) {
    let big = topo.num_switches() > 300;
    if big && !full_fidelity() {
        let rule = VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.6,
        };
        let provider: Arc<dyn PathProvider> = Arc::new(RuleProvider::new(topo.clone(), rule));
        capsule::register_provider(&provider, capsule::ProviderSpec::Sampled { rule });
        return (provider, rule);
    }
    let cfg = if full_fidelity() {
        TUgalConfig::default()
    } else {
        let mut c = TUgalConfig::quick();
        c.sweep.type1_sample = Some(8);
        c.sweep.type2_count = 4;
        c
    };
    // Algorithm 1's Step-1 sweep dominates harness runtime; figures sharing
    // a topology reuse the chosen rule through a small disk cache and
    // re-materialize it the way Algorithm 1 did (deterministic).  The key
    // digests the *full* TUgalConfig, so entries computed under any other
    // sweep/balance/simulation setting (or by older code) never leak into
    // a new run.
    let digest = format!("{:016x}", cfg.digest());
    record_digest(topo, &digest);
    let key = format!("{}{}|{digest}", topo.params(), topo.shape_suffix());
    let (provider, rule) = match cache_lookup(&key) {
        Some(rule) => (
            tugal::algorithm::materialize(topo, rule, &cfg).provider,
            rule,
        ),
        None => {
            let result = compute_tvlb(topo.clone(), &cfg);
            cache_store(&key, result.chosen);
            (result.provider, result.chosen)
        }
    };
    capsule::register_provider(&provider, tvlb_spec(topo, rule, &cfg));
    (provider, rule)
}

/// The capsule spec of a T-VLB provider built by
/// [`tugal::algorithm::materialize`]: the rule sampler above
/// `cfg.max_table_switches`, the balance-adjusted rule table below it.
fn tvlb_spec(topo: &Dragonfly, rule: VlbRule, cfg: &TUgalConfig) -> capsule::ProviderSpec {
    if topo.num_switches() > cfg.max_table_switches {
        capsule::ProviderSpec::Sampled { rule }
    } else {
        capsule::ProviderSpec::Rule {
            rule,
            table_seed: cfg.seed,
            balanced: true,
        }
    }
}

/// `topology params → TUgalConfig digest` for every T-VLB cache lookup
/// this process performed; recorded into each `results/*.json` so stored
/// numbers name the exact Algorithm-1 configuration behind them.
static TVLB_DIGESTS: Mutex<BTreeMap<String, String>> = Mutex::new(BTreeMap::new());

fn record_digest(topo: &Arc<Dragonfly>, digest: &str) {
    if let Ok(mut m) = TVLB_DIGESTS.lock() {
        m.insert(
            format!("{}{}", topo.params(), topo.shape_suffix()),
            digest.to_string(),
        );
    }
}

fn cache_path() -> std::path::PathBuf {
    std::path::PathBuf::from("results/tvlb_cache.json")
}

/// Reads the whole cache map; a corrupt or partially written file is
/// reported once to stderr and treated as empty, so the next
/// [`cache_store`] regenerates it instead of caching silently dying.
fn cache_load() -> std::collections::HashMap<String, VlbRule> {
    let data = match std::fs::read_to_string(cache_path()) {
        Ok(d) => d,
        Err(_) => return Default::default(), // no cache yet
    };
    match serde_json::from_str(&data) {
        Ok(map) => map,
        Err(e) => {
            eprintln!(
                "warning: T-VLB cache {} is corrupt ({e:?}); ignoring it and regenerating",
                cache_path().display()
            );
            Default::default()
        }
    }
}

fn cache_lookup(key: &str) -> Option<VlbRule> {
    cache_load().get(key).copied()
}

fn cache_store(key: &str, rule: VlbRule) {
    let mut map = cache_load();
    map.insert(key.to_string(), rule);
    let _ = std::fs::create_dir_all("results");
    if let Ok(s) = serde_json::to_string_pretty(&map) {
        let _ = std::fs::write(cache_path(), s);
    }
}

/// Conventional-UGAL provider for a topology, registered for capsule
/// replay (the explicit all-paths table below 300 switches, sampled
/// all-VLB above — matching [`conventional_provider`]).
pub fn ugal_provider(topo: &Arc<Dragonfly>) -> Arc<dyn PathProvider> {
    let provider = conventional_provider(topo.clone(), 300);
    let spec = if topo.num_switches() <= 300 {
        capsule::ProviderSpec::AllPaths
    } else {
        capsule::ProviderSpec::Sampled { rule: VlbRule::All }
    };
    capsule::register_provider(&provider, spec);
    provider
}

/// One labelled latency-vs-load series of a figure.
pub struct Series {
    /// Legend label, matching the paper's figures.
    pub label: String,
    /// Curve points.
    pub points: Vec<CurvePoint>,
    /// Seed-merged telemetry per point, parallel to `points` — empty
    /// unless [`metrics_config`] enabled the metrics layer for this run.
    pub metrics: Vec<MetricsReport>,
}

/// Runs the standard figure body: for each (label, provider, routing),
/// a latency curve over `rates` under `pattern`, with the mode's
/// simulator configuration ([`sim_config`]) for that routing.
pub fn run_series(
    topo: &Arc<Dragonfly>,
    pattern: &Arc<dyn TrafficPattern>,
    entries: &[(&str, Arc<dyn PathProvider>, RoutingAlgorithm)],
    rates: &[f64],
) -> Vec<Series> {
    let specs: Vec<_> = entries
        .iter()
        .map(|(label, provider, routing)| {
            let cfg = sim_config().for_routing(*routing);
            (label.to_string(), provider.clone(), *routing, cfg)
        })
        .collect();
    run_series_cfg(topo, pattern, &specs, rates, None)
}

/// Like [`run_series`], but each entry carries its own fully-specified
/// simulator configuration (the sensitivity figures vary link latency,
/// buffer depth, speedup and VC scheme), and `faults`, when given, applies
/// to every series (`None` keeps the engine on its pristine fast path).
///
/// All entries are expanded into one flat (series × rate × seed) job list
/// and scheduled through a single parallel batch by the
/// [`ExperimentRunner`], so a slow series cannot idle the workers finished
/// with a fast one.  Quick mode runs topologies over 300 switches on one
/// seed: their 9k-node runs dominate quick-mode time.
#[allow(clippy::type_complexity)]
pub fn run_series_cfg(
    topo: &Arc<Dragonfly>,
    pattern: &Arc<dyn TrafficPattern>,
    entries: &[(String, Arc<dyn PathProvider>, RoutingAlgorithm, Config)],
    rates: &[f64],
    faults: Option<Arc<FaultSchedule>>,
) -> Vec<Series> {
    let mut seeds = if full_fidelity() {
        vec![1, 2, 3, 4, 5, 6, 7, 8]
    } else {
        vec![1, 2]
    };
    if topo.num_switches() > 300 && !full_fidelity() {
        seeds.truncate(1);
    }
    let budget = HarnessEnv::get().budget;
    let mut runner = ExperimentRunner::new(topo.clone())
        .with_budget(budget)
        .with_profiling(HarnessEnv::get().profile);
    if let Some(journal) = journal() {
        runner = runner.with_journal(journal);
    }
    if let Some(trace) = trace_sink() {
        runner = runner.with_trace(trace);
    }
    for (label, provider, routing, cfg) in entries {
        runner = runner.series(SeriesSpec {
            label: label.clone(),
            provider: provider.clone(),
            pattern: pattern.clone(),
            routing: *routing,
            cfg: cfg.clone(),
            faults: faults.clone(),
        });
    }
    let report = |records: &[JobRecord]| {
        report_failures(topo, pattern, entries, faults.as_ref(), budget, records);
    };
    let mcfg = metrics_config();
    if !mcfg.enabled {
        return run_batch(&runner, rates, &seeds, |_| NoopObserver, report)
            .into_iter()
            .map(|curve| Series {
                label: curve.label,
                points: curve.points.into_iter().map(|p| p.point).collect(),
                metrics: Vec::new(),
            })
            .collect();
    }
    // Instrumented path: one MetricsObserver per job, merged over seeds at
    // each point; the merged latency histogram upgrades the point's scalar
    // percentiles from the power-of-two estimate to exact values.  (Jobs
    // resumed from a journal return empty observers — their results were
    // simulated by the killed invocation — so resumed points under metrics
    // report journal results with empty telemetry.)
    run_batch(
        &runner,
        rates,
        &seeds,
        |_| MetricsObserver::new(topo, &mcfg),
        report,
    )
    .into_iter()
    .map(|curve| {
        let mut points = Vec::with_capacity(curve.points.len());
        let mut metrics = Vec::with_capacity(curve.points.len());
        for observed in curve.points {
            let mut seeds = observed.observers.into_iter();
            let mut merged = seeds.next().expect("at least one seed per point");
            for o in seeds {
                merged.merge(&o);
            }
            let rep = merged.report();
            let mut point = observed.point;
            point.result = point
                .result
                .with_exact_percentiles(rep.latency.p50, rep.latency.p99);
            points.push(point);
            metrics.push(rep);
        }
        Series {
            label: curve.label,
            points,
            metrics,
        }
    })
    .collect()
}

/// Runs one batch, exiting through [`fatal`] on an invalid experiment, and
/// books its summary (see [`run_summary`]) and its failed jobs (`report`).
fn run_batch<O: SimObserver + Send>(
    runner: &ExperimentRunner,
    rates: &[f64],
    seeds: &[u64],
    make: impl Fn(&JobInfo) -> O + Sync,
    report: impl FnOnce(&[JobRecord]),
) -> Vec<ObservedCurve<O>> {
    let (curves, summary, records) = match runner.run_recorded(rates, seeds, make) {
        Ok(out) => out,
        Err(e) => fatal("invalid experiment configuration", e),
    };
    record_run_summary(&summary);
    report(&records);
    curves
}

/// The resume journal named by `TUGAL_JOURNAL`, if any.  An unusable path
/// is a warning, not an error: the sweep still runs, just without resume.
fn journal() -> Option<Arc<Journal>> {
    let path = HarnessEnv::get().journal.as_ref()?;
    match Journal::open(std::path::Path::new(path)) {
        Ok(j) => Some(Arc::new(j)),
        Err(e) => {
            eprintln!("warning: TUGAL_JOURNAL={path}: {e}; running without a resume journal");
            None
        }
    }
}

/// The trace sink named by `TUGAL_TRACE`, if any — opened once per
/// process so every batch of a multi-sweep harness shares one JSONL file
/// and one `t_ms` timebase.  An unusable path is a warning, not an error.
fn trace_sink() -> Option<Arc<TraceSink>> {
    static TRACE_SINK: OnceLock<Option<Arc<TraceSink>>> = OnceLock::new();
    TRACE_SINK
        .get_or_init(|| {
            let path = HarnessEnv::get().trace.as_ref()?;
            match TraceSink::open(std::path::Path::new(path)) {
                Ok(t) => Some(Arc::new(t)),
                Err(e) => {
                    eprintln!("warning: TUGAL_TRACE={path}: {e}; running without a trace");
                    None
                }
            }
        })
        .clone()
}

/// Reports every failed job of a batch: a stderr diagnostic (with the
/// rendered stall report where there is one), a replay capsule under
/// `logs/capsules/`, and the process-wide failure count behind
/// [`finish`]'s exit code.
#[allow(clippy::type_complexity)]
fn report_failures(
    topo: &Arc<Dragonfly>,
    pattern: &Arc<dyn TrafficPattern>,
    entries: &[(String, Arc<dyn PathProvider>, RoutingAlgorithm, Config)],
    faults: Option<&Arc<FaultSchedule>>,
    budget: JobBudget,
    records: &[JobRecord],
) {
    for rec in records.iter().filter(|r| r.outcome.is_failure()) {
        FAILED_JOBS.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "job FAILED ({}): {} @ rate {} seed {}",
            rec.outcome.name(),
            rec.label,
            rec.rate,
            rec.seed
        );
        match &rec.outcome {
            tugal_netsim::runner::JobOutcome::Panicked(msg) => eprintln!("  panic: {msg}"),
            other => {
                if let Some(stall) = other.stall() {
                    for line in render_stall(stall, Some(topo)).lines() {
                        eprintln!("  {line}");
                    }
                }
            }
        }
        let (_, provider, routing, cfg) = &entries[rec.series];
        if let Some(c) = capsule::capsule_for_failure(
            rec, topo, provider, pattern, *routing, cfg, budget, faults,
        ) {
            match capsule::write_capsule(&c) {
                Ok(path) => eprintln!("  capsule: {}", path.display()),
                Err(e) => eprintln!("  capsule write failed: {e}"),
            }
        }
    }
}

/// Prints a figure: a `#` header, then one row per rate with one latency
/// column per series (`SAT` past saturation), and the per-series
/// saturation throughput line the paper quotes in the text.
pub fn print_figure(id: &str, title: &str, series: &[Series]) {
    println!("# {id}: {title}");
    println!(
        "# mode: {}",
        if full_fidelity() {
            "full (TUGAL_FULL=1)"
        } else {
            "quick"
        }
    );
    if series.is_empty() {
        println!("# (no series)");
        return;
    }
    print!("{:>8}", "load");
    for s in series {
        print!("\t{:>12}", s.label);
    }
    println!();
    let n_rates = series.first().map(|s| s.points.len()).unwrap_or(0);
    for i in 0..n_rates {
        print!("{:>8.3}", series[0].points[i].rate);
        for s in series {
            let r = &s.points[i].result;
            if r.saturated {
                print!("\t{:>12}", "SAT");
            } else {
                print!("\t{:>12.1}", r.avg_latency);
            }
        }
        println!();
    }
    for s in series {
        let sat = saturation_from_curve(&s.points);
        println!("# saturation[{}] ~ {:.3} packets/cycle/node", s.label, sat);
    }
    for s in series {
        let ms: f64 = s.points.iter().map(|p| p.elapsed_ms).sum();
        println!("# sim-time[{}] = {:.0} ms", s.label, ms);
    }
    if let Some(summary) = run_summary() {
        println!("# run: {}", summary.oneline());
    }
    write_json(id, series);
}

/// Last unsaturated rate of a curve (0 when even the first point
/// saturated).
pub fn saturation_from_curve(points: &[CurvePoint]) -> f64 {
    points
        .iter()
        .take_while(|p| !p.result.saturated)
        .map(|p| p.rate)
        .fold(0.0, f64::max)
}

/// Writes the series to `results/<id>.json`, including the wall-clock each
/// point cost, the T-VLB config digests behind any cached providers, the
/// batch run summary, and — when the metrics layer is on — one
/// [`MetricsReport`] per point under a `metrics` section.
fn write_json(id: &str, series: &[Series]) {
    #[derive(serde::Serialize)]
    struct Row {
        rate: f64,
        latency: f64,
        throughput: f64,
        saturated: bool,
        avg_hops: f64,
        vlb_fraction: f64,
        /// Median packet latency — exact when metrics ran, else the
        /// engine's power-of-two estimate.
        latency_p50: f64,
        /// 99th-percentile packet latency (same provenance as `p50`).
        latency_p99: f64,
        /// Wall-clock of this point's simulations, ms (summed over seeds).
        elapsed_ms: f64,
    }
    #[derive(serde::Serialize)]
    struct SummaryOut {
        jobs: u64,
        wall_ms: f64,
        sim_ms: f64,
        jobs_per_sec: f64,
        /// `(series label, rate, seed, ms)` of the slowest job.
        slowest: Option<(String, f64, u64, f64)>,
        /// Jobs that failed and were skipped by the aggregation.
        failed: u64,
        /// Jobs replayed from a resume journal instead of simulated.
        resumed: u64,
        /// Host parallelism the batch was scheduled over.
        host_threads: u64,
    }
    #[derive(serde::Serialize)]
    struct Out {
        id: String,
        full_fidelity: bool,
        /// `topology params → TUgalConfig digest` used for T-VLB cache
        /// lookups while producing these series.
        tvlb_config_digests: BTreeMap<String, String>,
        series: Vec<(String, Vec<Row>)>,
        /// Batch scheduling summary (satellite of the metrics layer).
        run_summary: Option<SummaryOut>,
        /// Per-series telemetry, parallel to `series` rows; empty when the
        /// metrics layer was off.
        metrics: Vec<(String, Vec<MetricsReport>)>,
        /// LP solver work profile per warm-start chain (see
        /// [`record_lp_stats`]); empty when the harness ran no coarse-grain
        /// model solves.
        lp_stats: BTreeMap<String, LpStatsOut>,
    }
    let out = Out {
        id: id.to_string(),
        full_fidelity: full_fidelity(),
        tvlb_config_digests: TVLB_DIGESTS.lock().map(|m| m.clone()).unwrap_or_default(),
        series: series
            .iter()
            .map(|s| {
                (
                    s.label.clone(),
                    s.points
                        .iter()
                        .map(|p| Row {
                            rate: p.rate,
                            latency: p.result.avg_latency,
                            throughput: p.result.throughput,
                            saturated: p.result.saturated,
                            avg_hops: p.result.avg_hops,
                            vlb_fraction: p.result.vlb_fraction,
                            latency_p50: p.result.latency_p50,
                            latency_p99: p.result.latency_p99,
                            elapsed_ms: p.elapsed_ms,
                        })
                        .collect(),
                )
            })
            .collect(),
        run_summary: run_summary().map(|s| SummaryOut {
            jobs: s.jobs as u64,
            wall_ms: s.wall_ms,
            sim_ms: s.sim_ms,
            jobs_per_sec: s.jobs_per_sec,
            slowest: s.slowest,
            failed: s.failed as u64,
            resumed: s.resumed as u64,
            host_threads: s.host_threads as u64,
        }),
        metrics: series
            .iter()
            .filter(|s| !s.metrics.is_empty())
            .map(|s| (s.label.clone(), s.metrics.clone()))
            .collect(),
        lp_stats: LP_STATS.lock().map(|m| m.clone()).unwrap_or_default(),
    };
    if std::fs::create_dir_all("results").is_ok() {
        if let Ok(f) = std::fs::File::create(format!("results/{id}.json")) {
            let mut w = std::io::BufWriter::new(f);
            let _ = serde_json::to_writer_pretty(&mut w, &out);
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tvlb_spec_names_what_materialize_builds() {
        // dfly(13,26,13,27) has 702 switches: above the default table
        // limit a cache hit must rebuild the rule sampler, not a table.
        let rule = VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.6,
        };
        let cfg = TUgalConfig::default();
        let big = dfly(13, 26, 13, 27);
        assert!(tugal::algorithm::materialize(&big, rule, &cfg)
            .balance
            .is_none());
        let spec = tvlb_spec(&big, rule, &cfg);
        assert_eq!(spec, capsule::ProviderSpec::Sampled { rule });
        let spec = tvlb_spec(&dfly(2, 4, 2, 3), VlbRule::All, &cfg);
        let table = capsule::ProviderSpec::Rule {
            rule: VlbRule::All,
            table_seed: cfg.seed,
            balanced: true,
        };
        assert_eq!(spec, table);
    }
}
