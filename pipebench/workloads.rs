//! The four workloads: the inputs `--seed` gives each, what its set-up
//! builds, what one timed unit runs, and how the outputs are checked.
//!
//! Everything goes through the layers' public functions.  Nothing here
//! reads the harness environment knobs or the T-VLB disk cache, so the
//! figure harnesses can be refactored without changing what this
//! measures.

use crate::trace::Tracer;
use crate::{host, number, obj};
use rayon::prelude::*;
use serde::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tugal::{
    coarse_grain_sweep, coarse_grain_sweep_rules, compute_tvlb, table1_points, BalanceOptions,
    SweepConfig, SweepOutcome, TUgalConfig, TUgalReport,
};
use tugal_model::{modeled_throughput_warm, LpStats, ModelVariant, ModelWarmCache, PairStats};
use tugal_netsim::runner::{ExperimentRunner, JobOutcome, JobRecord, SeriesSpec};
use tugal_netsim::{Config, NoopObserver, Phase, ProfileReport, RoutingAlgorithm, SimResult};
use tugal_routing::{PathProvider, PathTable, TableProvider, VlbRule};
use tugal_topology::{Dragonfly, DragonflyParams, SwitchId};
use tugal_traffic::{type_1_set, type_2_set, Shift, TrafficPattern, Uniform};

/// The T-VLB of the simulation workloads, pinned instead of computed:
/// Algorithm 1's outcome on dense topologies (DESIGN.md §4), the table
/// `perf` and `fig_faults` also use.
const TVLB_RULE: VlbRule = VlbRule::ClassLimit {
    max_hops: 4,
    frac_next: 0.6,
};

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Units a run times at the least, however short `--seconds` is: two are
/// needed to check that repeating a unit repeats its outputs, and peak
/// memory is read after them.
const MIN_UNITS: usize = 2;

/// Relative and absolute tolerance of the LP-valued checks.
const LP_TOL: f64 = 1e-9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimUr,
    SimAdv,
    Algo1,
    Step1Max,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimUr,
        Workload::SimAdv,
        Workload::Algo1,
        Workload::Step1Max,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimUr => "sim_ur",
            Workload::SimAdv => "sim_adv",
            Workload::Algo1 => "algo1",
            Workload::Step1Max => "step1_max",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs for `--seed S`.  `S = 1` is the configuration
    /// the figure harnesses run: job seeds {1, 2}, table and Algorithm-1
    /// seed `0x7065`, Step-1 pattern seed `0x5EE9`; other seeds move all
    /// three.
    pub fn spec(self, seed: u64) -> Spec {
        let offset = seed.wrapping_sub(1);
        let seeds = vec![seed, seed.wrapping_add(1)];
        let table_seed = 0x7065 ^ offset;
        let pattern_seed = 0x5EE9 ^ offset;
        let ugal_l = ("UGAL-L", Candidates::AllPaths, RoutingAlgorithm::UgalL);
        let t_ugal_l = ("T-UGAL-L", Candidates::Tvlb, RoutingAlgorithm::UgalL);
        match self {
            // Uniform random traffic at high offered load: mostly MIN
            // routing, so switch allocation and link traversal do the work.
            Workload::SimUr => Spec::Sim(SimSpec {
                topo: DragonflyParams::new(4, 8, 4, 9),
                shift: None,
                series: vec![ugal_l, t_ugal_l],
                rates: vec![0.2, 0.35, 0.5],
                seeds,
                table_seed,
                cfg: sim_config(),
            }),
            // fig6's adversarial shift(2,0): mostly VLB, with PAR's
            // in-group revisions and its fifth VC.
            Workload::SimAdv => Spec::Sim(SimSpec {
                topo: DragonflyParams::new(4, 8, 4, 9),
                shift: Some((2, 0)),
                series: vec![
                    ugal_l,
                    t_ugal_l,
                    ("PAR", Candidates::AllPaths, RoutingAlgorithm::Par),
                    ("T-PAR", Candidates::Tvlb, RoutingAlgorithm::Par),
                ],
                rates: vec![0.1, 0.18],
                seeds,
                table_seed,
                cfg: sim_config(),
            }),
            // Algorithm 1 with the sweep a cold T-VLB cache runs (8 TYPE_1
            // and 4 TYPE_2 patterns) and one Step-2 pattern, on a topology
            // small enough for several calls per run.
            Workload::Algo1 => {
                let mut cfg = TUgalConfig::quick();
                cfg.sweep.type1_sample = Some(8);
                cfg.sweep.type2_count = 4;
                cfg.sweep.seed = pattern_seed;
                cfg.eval_patterns = 1;
                cfg.sim = sim_config();
                cfg.seed = table_seed;
                Spec::Algo1 {
                    topo: DragonflyParams::new(3, 6, 3, 7),
                    cfg,
                }
            }
            // fig5's Step-1 grid on a maximal topology (g = a·h + 1): the LP
            // solver alone, on its largest programs.  Twelve patterns on
            // the cold-cache sample sizes, so that which worker gets the
            // last pattern moves the unit's wall-clock little.
            Workload::Step1Max => Spec::Step1 {
                topo: DragonflyParams::new(3, 6, 3, 19),
                sweep: SweepConfig {
                    type1_sample: Some(8),
                    type2_count: 4,
                    seed: pattern_seed,
                    variant: ModelVariant::DrawProportional,
                },
                rules: fig5_grid(),
            },
        }
    }
}

/// Table 3 network parameters with one 2 000-cycle warm-up window and one
/// 2 000-cycle measurement window (the harnesses' quick windows).  Built
/// here rather than read from the environment.
fn sim_config() -> Config {
    Config {
        warmup_windows: 1,
        window: 2_000,
        ..Config::paper_default()
    }
}

/// Fig. 5's quick grid of Step-1 configurations.
fn fig5_grid() -> Vec<VlbRule> {
    let limit = |max_hops, frac_next| VlbRule::ClassLimit {
        max_hops,
        frac_next,
    };
    vec![
        limit(3, 0.0),
        limit(4, 0.0),
        limit(4, 0.5),
        limit(5, 0.0),
        limit(5, 0.5),
        VlbRule::All,
    ]
}

/// Which candidate table a simulated series routes over.
#[derive(Clone, Copy, Debug)]
pub enum Candidates {
    AllPaths,
    Tvlb,
}

#[derive(Clone, Debug)]
pub struct SimSpec {
    pub topo: DragonflyParams,
    /// `Some((dg, ds))` for shift traffic, `None` for uniform random.
    pub shift: Option<(u32, u32)>,
    pub series: Vec<(&'static str, Candidates, RoutingAlgorithm)>,
    pub rates: Vec<f64>,
    pub seeds: Vec<u64>,
    pub table_seed: u64,
    pub cfg: Config,
}

#[derive(Clone, Debug)]
pub enum Spec {
    Sim(SimSpec),
    Algo1 {
        topo: DragonflyParams,
        cfg: TUgalConfig,
    },
    Step1 {
        topo: DragonflyParams,
        sweep: SweepConfig,
        rules: Vec<VlbRule>,
    },
}

impl Spec {
    fn topo(&self) -> DragonflyParams {
        match self {
            Spec::Sim(s) => s.topo,
            Spec::Algo1 { topo, .. } | Spec::Step1 { topo, .. } => *topo,
        }
    }

    /// Name of the span around a traced unit.
    fn unit_span(&self) -> &'static str {
        match self {
            Spec::Sim(_) => "netsim.batch",
            Spec::Algo1 { .. } => "core.compute_tvlb",
            Spec::Step1 { .. } => "core.step1_sweep",
        }
    }
}

/// What set-up builds and every unit reuses.
pub enum Prepared {
    Sim {
        topo: Arc<Dragonfly>,
        ugal: Arc<dyn PathProvider>,
        tvlb: Arc<dyn PathProvider>,
        pattern: Arc<dyn TrafficPattern>,
        vlb_paths: u64,
    },
    Model {
        topo: Arc<Dragonfly>,
        /// The Step-1 patterns' demands, in the order the sweep scores them.
        demands: Vec<Vec<(u32, u32, u32)>>,
    },
}

/// Builds the topology and then the candidate tables (balance-adjusted and
/// interned) or the Step-1 patterns.
pub fn setup(spec: &Spec, t: &mut Tracer) -> Result<Prepared, String> {
    let params = spec.topo();
    let topo = t
        .span("topology.build", |_| Dragonfly::new(params))
        .map_err(|e| format!("{params}: {e:?}"))?;
    let topo = Arc::new(topo);
    Ok(match spec {
        Spec::Sim(s) => {
            let all = t.span("routing.table_build", |_| PathTable::build_all(&topo));
            let mut tvlb = t.span("routing.table_build", |_| {
                PathTable::build_with_rule(&topo, TVLB_RULE, s.table_seed)
            });
            t.span("core.balance", |_| {
                tugal::balance::adjust(&mut tvlb, &topo, &BalanceOptions::default())
            });
            let vlb_paths = all.total_vlb_paths() + tvlb.total_vlb_paths();
            let (ugal, tvlb) = t.span("routing.intern", |_| {
                (
                    TableProvider::new(topo.clone(), all),
                    TableProvider::new(topo.clone(), tvlb),
                )
            });
            let pattern: Arc<dyn TrafficPattern> = t.span("traffic.demands", |_| match s.shift {
                Some((dg, ds)) => Arc::new(Shift::new(&topo, dg, ds)) as Arc<dyn TrafficPattern>,
                None => Arc::new(Uniform::new(&topo)),
            });
            Prepared::Sim {
                topo,
                ugal: Arc::new(ugal),
                tvlb: Arc::new(tvlb),
                pattern,
                vlb_paths,
            }
        }
        Spec::Algo1 {
            cfg: TUgalConfig { sweep, .. },
            ..
        }
        | Spec::Step1 { sweep, .. } => Prepared::Model {
            demands: t.span("traffic.demands", |_| sweep_demands(&topo, sweep)),
            topo,
        },
    })
}

/// The demands of the patterns `coarse_grain_sweep_rules` scores, in its
/// order: the evenly sampled TYPE_1 shifts, then the TYPE_2 permutations.
/// The traced run replays them and checks its scores against the sweep's,
/// so a change to the sweep's sampling shows as a failed check.
fn sweep_demands(topo: &Dragonfly, cfg: &SweepConfig) -> Vec<Vec<(u32, u32, u32)>> {
    let t1 = type_1_set(topo);
    let step = match cfg.type1_sample {
        Some(n) if n < t1.len() => t1.len() / n.max(1),
        _ => 1,
    };
    let take = cfg.type1_sample.unwrap_or(t1.len());
    let shifts = t1.iter().step_by(step.max(1)).take(take);
    let perms = type_2_set(topo, cfg.type2_count, cfg.seed);
    shifts
        .map(|p| p.demands())
        .chain(perms.iter().map(|p| p.demands()))
        .map(|d| d.expect("TYPE_1 and TYPE_2 patterns are deterministic"))
        .collect()
}

/// Builds the inputs [`SETUP_REPS`] times, dropping each build before the
/// next; returns the last build and the median time.
fn timed_setup(spec: &Spec) -> Result<(Prepared, f64), String> {
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(setup(spec, &mut Tracer::off())?);
        times.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("set-up ran at least once");
    Ok((prepared, quartiles(&times).1))
}

/// The outputs of one unit.
pub enum Output {
    /// One record per job, in schedule order (series, then rate, then seed).
    Sim(Vec<JobRecord>),
    Algo1 {
        report: TUgalReport,
        chosen: VlbRule,
    },
    Step1(Vec<SweepOutcome>),
    Panicked(String),
}

/// One timed unit and what its outputs showed.
pub struct Unit {
    pub wall_s: f64,
    /// FNV-1a over the bits of every output that repeats within a process.
    pub digest: u64,
    /// The outputs that repeat across processes, in the shape of
    /// `expected.json`.
    pub checked: Value,
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants and failed operations.
    pub problems: Vec<String>,
    pub output: Output,
}

/// Runs one unit of the workload on the prepared inputs: the whole job
/// batch, one Algorithm-1 call or one Step-1 sweep.
pub fn run_unit(spec: &Spec, prep: &Prepared, profiling: bool) -> Result<Unit, String> {
    let start = Instant::now();
    let output = match (spec, prep) {
        (
            Spec::Sim(s),
            Prepared::Sim {
                topo,
                ugal,
                tvlb,
                pattern,
                ..
            },
        ) => {
            let mut runner = ExperimentRunner::new(topo.clone()).with_profiling(profiling);
            for &(label, candidates, routing) in &s.series {
                runner = runner.series(SeriesSpec {
                    label: label.to_string(),
                    provider: match candidates {
                        Candidates::AllPaths => ugal.clone(),
                        Candidates::Tvlb => tvlb.clone(),
                    },
                    pattern: pattern.clone(),
                    routing,
                    cfg: s.cfg.clone().for_routing(routing),
                    faults: None,
                });
            }
            let (_, _, records) = runner
                .run_recorded(&s.rates, &s.seeds, |_| NoopObserver)
                .map_err(|e| format!("invalid experiment: {e}"))?;
            Output::Sim(records)
        }
        (Spec::Algo1 { cfg, .. }, Prepared::Model { topo, .. }) => guarded(|| {
            let result = compute_tvlb(topo.clone(), cfg);
            Output::Algo1 {
                report: result.report,
                chosen: result.chosen,
            }
        }),
        (Spec::Step1 { sweep, rules, .. }, Prepared::Model { topo, .. }) => {
            guarded(|| Output::Step1(coarse_grain_sweep_rules(topo, sweep, rules)))
        }
        _ => unreachable!("inputs prepared for another workload"),
    };
    let wall_s = start.elapsed().as_secs_f64();
    Ok(judge(spec, output, wall_s))
}

fn guarded(call: impl FnOnce() -> Output) -> Output {
    catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Output::Panicked(msg)
    })
}

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_result(h: &mut Fnv, r: &SimResult) {
    // Destructured so that a new field fails to compile until it is hashed.
    let SimResult {
        injection_rate,
        avg_latency,
        throughput,
        avg_hops,
        delivered,
        injected,
        saturated,
        deadlock_suspected,
        vlb_fraction,
        latency_p50,
        latency_p99,
        max_channel_util,
        mean_global_util,
        mean_local_util,
    } = r;
    for v in [
        injection_rate,
        avg_latency,
        throughput,
        avg_hops,
        vlb_fraction,
        latency_p50,
        latency_p99,
        max_channel_util,
        mean_global_util,
        mean_local_util,
    ] {
        h.f64(*v);
    }
    for v in [
        *delivered,
        *injected,
        *saturated as u64,
        *deadlock_suspected as u64,
    ] {
        h.u64(v);
    }
}

fn hash_sweep(h: &mut Fnv, sweep: &[SweepOutcome]) {
    for o in sweep {
        h.str(&o.rule.to_string());
        h.f64(o.mean);
        h.f64(o.sem);
    }
}

fn labels(rules: &[VlbRule]) -> Value {
    Value::Array(rules.iter().map(|r| Value::Str(r.to_string())).collect())
}

/// Digests a unit's outputs, picks the values the seed-1 check compares
/// and checks the invariants every seed must meet.
///
/// `tugal::balance::adjust` breaks ties between equally hot channels in
/// `HashMap` iteration order, so a balance-adjusted table, and everything
/// simulated on it, can differ between processes and between calls.  The
/// digest therefore covers only outputs that are repeatable within a
/// process (the sim tables are built once per run; Algorithm 1's Step-2
/// scores and its chosen rule, the argmax of those scores, are left out),
/// and the seed-1 values only those that are repeatable across processes
/// (simulations on all-paths tables; the Step-1 sweep and the candidates
/// it yields).
fn judge(spec: &Spec, output: Output, wall_s: f64) -> Unit {
    let mut h = Fnv::new();
    let mut problems = Vec::new();
    let attempted = match &output {
        Output::Sim(records) => records.len() as u64,
        _ => 1,
    };
    let mut failed = 0;
    let checked = match (spec, &output) {
        (Spec::Sim(s), Output::Sim(records)) => {
            let mut all_paths = Fnv::new();
            for rec in records {
                let job = format!("{} rate {} seed {}", rec.label, rec.rate, rec.seed);
                let JobOutcome::Ok(r) = &rec.outcome else {
                    failed += 1;
                    h.str(rec.outcome.name());
                    problems.push(format!("{job}: job {}", rec.outcome.name()));
                    continue;
                };
                hash_result(&mut h, r);
                if matches!(s.series[rec.series].1, Candidates::AllPaths) {
                    hash_result(&mut all_paths, r);
                }
                if r.saturated || r.deadlock_suspected {
                    problems.push(format!("{job}: saturated or deadlocked"));
                }
                // Below saturation the window delivers what it injects; the
                // two differ only by the packets in flight at its edges.
                if r.injected == 0 || r.delivered.abs_diff(r.injected) * 100 > r.injected {
                    problems.push(format!(
                        "{job}: delivered {} of {} injected",
                        r.delivered, r.injected
                    ));
                }
            }
            let digest = format!("{:016x}", all_paths.0);
            obj(vec![("all_paths_digest", Value::Str(digest))])
        }
        (_, Output::Algo1 { report, chosen }) => {
            hash_sweep(&mut h, &report.sweep);
            for c in &report.candidates {
                h.str(&c.to_string());
            }
            if !report.candidates.contains(chosen) || !report.candidates.contains(&VlbRule::All) {
                problems.push(format!(
                    "chosen {chosen} or `all VLB paths` missing from the candidates"
                ));
            }
            problems.extend(sweep_problems(&report.sweep));
            obj(vec![
                ("sweep", sweep_json(&report.sweep)),
                ("candidates", labels(&report.candidates)),
            ])
        }
        (_, Output::Step1(sweep)) => {
            hash_sweep(&mut h, sweep);
            problems.extend(sweep_problems(sweep));
            let best = sweep
                .iter()
                .max_by(|a, b| a.mean.total_cmp(&b.mean))
                .map_or(String::new(), |o| o.rule.to_string());
            obj(vec![
                ("sweep", sweep_json(sweep)),
                ("best", Value::Str(best)),
            ])
        }
        (_, Output::Panicked(msg)) => {
            failed += 1;
            h.str(msg);
            problems.push(format!("panicked: {msg}"));
            Value::Null
        }
        (_, Output::Sim(_)) => unreachable!("simulation output from a model workload"),
    };
    Unit {
        wall_s,
        digest: h.0,
        checked,
        attempted,
        failed,
        problems,
        output,
    }
}

fn sweep_problems(sweep: &[SweepOutcome]) -> Vec<String> {
    sweep
        .iter()
        .filter(|o| !(o.mean > 0.0 && o.mean <= 1.0 && o.sem.is_finite()))
        .map(|o| format!("{}: modeled throughput {} ± {}", o.rule, o.mean, o.sem))
        .collect()
}

fn sweep_json(sweep: &[SweepOutcome]) -> Value {
    Value::Array(
        sweep
            .iter()
            .map(|o| {
                Value::Array(vec![
                    Value::Str(o.rule.to_string()),
                    Value::Float(o.mean),
                    Value::Float(o.sem),
                ])
            })
            .collect(),
    )
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= LP_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Strings, booleans and array shapes must be equal; numbers within
/// [`LP_TOL`].
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len() && x.iter().all(|(k, v)| b.get(k).is_some_and(|w| same(v, w)))
        }
        _ => match (number(a), number(b)) {
            (Some(x), Some(y)) => close(x, y),
            _ => a == b,
        },
    }
}

/// Compares a unit's outputs with the committed seed-1 values.
pub fn check_expected(unit: &Unit, expected: &Value) -> Vec<String> {
    if same(&unit.checked, expected) {
        return Vec::new();
    }
    vec![format!(
        "outputs differ from the committed seed-1 values; got {}",
        serde_json::to_string(&unit.checked).unwrap_or_default()
    )]
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Empty when every check passed.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// The untimed part of a run: set-up, then units until `seconds` have
/// passed (at least [`MIN_UNITS`]), reporting medians.  Every unit must
/// give the same digest; with `expected`, the first unit's outputs must
/// match it.
///
/// Peak memory is read after [`MIN_UNITS`] units, which every run
/// completes.  A reading at the end would depend on how many units the
/// host's speed allowed, since each unit can raise the peak by allocator
/// growth (on `algo1`, 68-69 MiB after two units but 68-72 MiB after
/// four).  A reading after one unit would depend on how that one unit's
/// threads interleaved (`step1_max` read 27.8-29.1 MiB after one unit,
/// 28.6-29.3 MiB after two, at most seeds).
pub fn measure(spec: &Spec, seconds: f64, expected: Option<&Value>) -> Result<Outcome, String> {
    let (prep, setup_s) = timed_setup(spec)?;
    let start = Instant::now();
    let mut walls = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<Unit> = None;
    let mut peak_rss_mb = 0.0;
    let mut problems = Vec::new();
    while walls.len() < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        let unit = run_unit(spec, &prep, false)?;
        walls.push(unit.wall_s);
        if walls.len() == MIN_UNITS {
            peak_rss_mb = host::peak_rss_mib();
        }
        attempted += unit.attempted;
        failed += unit.failed;
        match &first {
            None => {
                problems.extend(unit.problems.iter().cloned());
                first = Some(unit);
            }
            Some(f) if f.digest != unit.digest => problems.push(format!(
                "unit {} digest {:016x} differs from the first unit's {:016x}",
                walls.len(),
                unit.digest,
                f.digest
            )),
            Some(_) => {}
        }
    }
    if let (Some(first), Some(expected)) = (&first, expected) {
        problems.extend(check_expected(first, expected));
    }
    let (q1, median, q3) = quartiles(&walls);
    eprintln!(
        "# {} units: wall_s median {median:.4} (q1 {q1:.4}, q3 {q3:.4})",
        walls.len()
    );
    let metrics = BTreeMap::from([
        ("wall_s", median),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
    })
}

/// A traced run's per-layer numbers and its spans.
pub struct Traced {
    pub outcome: Outcome,
    pub tracer: Tracer,
}

/// Per-layer metrics that are the inclusive time of a span.
const SPAN_METRICS: [(&str, &str); 7] = [
    ("topology.build_ms", "topology.build"),
    ("routing.table_build_ms", "routing.table_build"),
    ("routing.intern_ms", "routing.intern"),
    ("core.balance_ms", "core.balance"),
    ("traffic.demands_ms", "traffic.demands"),
    ("model.pair_stats_ms", "model.pair_stats"),
    ("core.step1_ms", "core.step1_sweep"),
];

/// The traced run: a traced set-up, a warm-up unit, the unit traced
/// (engine profiling on, for simulations), the untraced reference unit,
/// and the layer replays that expose LP and model counters.  Cross-checks
/// the traced outputs against the reference ones.
pub fn trace_run(spec: &Spec, expected: Option<&Value>) -> Result<Traced, String> {
    let mut t = Tracer::on();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems = Vec::new();
    let (attempted, failed) = t.span("benchmark", |t| -> Result<(u64, u64), String> {
        let prep = t.span("setup", |t| setup(spec, t))?;
        // The first unit of a process pays for first-touch page faults;
        // it serves as the warm-up, and the timed reference unit runs
        // after the traced one.
        let warmup = t.span("reference.unit", |_| run_unit(spec, &prep, false))?;
        let traced = t.span(spec.unit_span(), |_| run_unit(spec, &prep, true))?;
        let cpu = host::cpu_seconds();
        let reference = t.span("reference.unit", |_| run_unit(spec, &prep, false))?;
        m.insert(
            "host.cpu_util",
            (host::cpu_seconds() - cpu) / reference.wall_s,
        );
        m.insert(
            "trace.overhead_frac",
            traced.wall_s / reference.wall_s - 1.0,
        );
        problems.extend(reference.problems.iter().cloned());
        for (what, unit) in [("warm-up", &warmup), ("traced", &traced)] {
            if unit.digest != reference.digest {
                problems.push(format!(
                    "{what} digest {:016x} differs from the reference unit's {:016x}",
                    unit.digest, reference.digest
                ));
            }
        }
        if let Some(expected) = expected {
            problems.extend(check_expected(&reference, expected));
        }
        match (spec, &prep, &reference.output) {
            (Spec::Sim(s), Prepared::Sim { vlb_paths, .. }, Output::Sim(records)) => {
                m.insert("routing.vlb_paths", *vlb_paths as f64);
                sim_layers(s, records, reference.wall_s, &traced, &mut m, &mut problems);
            }
            (
                Spec::Algo1 { cfg, .. },
                Prepared::Model { topo, demands },
                Output::Algo1 { report, .. },
            ) => {
                m.insert("core.candidates", report.candidates.len() as f64);
                let sweep = t.span("core.step1_sweep", |_| coarse_grain_sweep(topo, &cfg.sweep));
                let label = "separately run Step-1 sweep";
                problems.extend(compare_sweeps(label, &sweep, &report.sweep));
                let rules = table1_points();
                let variant = cfg.sweep.variant;
                model_layers(
                    topo,
                    demands,
                    &rules,
                    variant,
                    &report.sweep,
                    t,
                    &mut m,
                    &mut problems,
                );
            }
            (
                Spec::Step1 { sweep, rules, .. },
                Prepared::Model { topo, demands },
                Output::Step1(s),
            ) => {
                model_layers(
                    topo,
                    demands,
                    rules,
                    sweep.variant,
                    s,
                    t,
                    &mut m,
                    &mut problems,
                );
            }
            // A failed reference unit is already a problem; there is
            // nothing to replay.
            _ => {}
        }
        let units = [&warmup, &traced, &reference];
        Ok((
            units.iter().map(|u| u.attempted).sum(),
            units.iter().map(|u| u.failed).sum(),
        ))
    })?;
    for (metric, span) in SPAN_METRICS {
        m.insert(metric, t.total_ms(span));
    }
    if matches!(spec, Spec::Algo1 { .. }) {
        let step2 = t.total_ms("core.compute_tvlb") - t.total_ms("core.step1_sweep");
        m.insert("core.step2_ms", step2);
    }
    if let Err(e) = t.check() {
        problems.push(e);
    }
    Ok(Traced {
        outcome: Outcome {
            attempted,
            failed,
            problems,
            metrics: m,
        },
        tracer: t,
    })
}

/// The metric of each engine phase that runs here.  The shard-exchange
/// phases (drain, flush, publish, barrier) and the UGAL-G snapshot take no
/// time at one shard under UGAL-L and PAR; they still count in
/// `netsim.attributed_frac`.
fn phase_metric(phase: Phase) -> Option<&'static str> {
    match phase {
        Phase::Advance => Some("netsim.advance_ms"),
        Phase::Inject => Some("netsim.inject_ms"),
        Phase::Alloc => Some("netsim.alloc_ms"),
        Phase::Transmit => Some("netsim.transmit_ms"),
        Phase::Stop => Some("netsim.stop_ms"),
        Phase::Drain | Phase::Snapshot | Phase::Flush | Phase::Publish | Phase::Barrier => None,
    }
}

/// Engine phases and cycle count from the profiled unit; job-time spread
/// and worker occupancy from the untraced reference unit.
fn sim_layers(
    spec: &SimSpec,
    reference: &[JobRecord],
    reference_wall_s: f64,
    traced: &Unit,
    m: &mut BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) {
    let Output::Sim(profiled) = &traced.output else {
        return;
    };
    let mut prof = ProfileReport::default();
    for p in profiled.iter().filter_map(|r| r.profile.as_ref()) {
        prof.absorb(p);
    }
    for phase in Phase::ALL {
        if let Some(metric) = phase_metric(phase) {
            m.insert(metric, prof.phase_total(phase) as f64 / 1e6);
        }
    }
    let cycles: u64 = prof.shards.iter().map(|s| s.cycles).sum();
    let want = profiled.len() as u64 * spec.cfg.total_cycles();
    if cycles != want {
        problems.push(format!(
            "profiled cycles {cycles} != jobs × total_cycles = {want}"
        ));
    }
    m.insert("netsim.cycles", cycles as f64);
    let attributed = prof.attributed_fraction();
    if attributed < 0.9 {
        problems.push(format!(
            "engine phases attribute only {attributed:.3} of wall"
        ));
    }
    m.insert("netsim.attributed_frac", attributed);
    let job_ms: Vec<f64> = reference.iter().map(|r| r.elapsed_ms).collect();
    let workers = rayon::current_num_threads().min(job_ms.len()).max(1);
    m.insert("netsim.runner.job_p50_ms", quartiles(&job_ms).1);
    m.insert(
        "netsim.runner.job_max_ms",
        job_ms.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "netsim.runner.busy_frac",
        job_ms.iter().sum::<f64>() / (reference_wall_s * 1e3 * workers as f64),
    );
}

fn compare_sweeps(what: &str, got: &[SweepOutcome], want: &[SweepOutcome]) -> Vec<String> {
    if got.len() != want.len() {
        return vec![format!(
            "{what}: {} outcomes, expected {}",
            got.len(),
            want.len()
        )];
    }
    got.iter()
        .zip(want)
        .filter(|(g, w)| g.rule != w.rule || !close(g.mean, w.mean) || !close(g.sem, w.sem))
        .map(|(g, w)| {
            format!(
                "{what}: {} {} ± {} vs {} {} ± {}",
                g.rule, g.mean, g.sem, w.rule, w.mean, w.sem
            )
        })
        .collect()
}

/// Pair statistics of every Step-1 pattern, then each pattern's rule
/// chain replayed through `modeled_throughput_warm` (patterns in
/// parallel, rules in the sweep's order) for the LP counters; the
/// replayed scores must equal `sweep`'s.
#[allow(clippy::too_many_arguments)]
fn model_layers(
    topo: &Dragonfly,
    demands: &[Vec<(u32, u32, u32)>],
    rules: &[VlbRule],
    variant: ModelVariant,
    sweep: &[SweepOutcome],
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) {
    let pairs: usize = t.span("model.pair_stats", |_| {
        let per_pattern: Vec<usize> = demands
            .par_iter()
            .map(|d| {
                for &(s, dst, _) in d {
                    std::hint::black_box(PairStats::compute(topo, SwitchId(s), SwitchId(dst)));
                }
                d.len()
            })
            .collect();
        per_pattern.into_iter().sum()
    });
    m.insert("model.pairs", pairs as f64);
    type Chain = (Instant, Instant, Result<Vec<f64>, String>, LpStats);
    let chains: Vec<Chain> = t.span("lp.replay", |t| {
        let chains: Vec<Chain> = demands
            .par_iter()
            .map(|d| {
                let start = Instant::now();
                let mut cache = ModelWarmCache::new();
                let values = rules
                    .iter()
                    .map(|&r| modeled_throughput_warm(topo, d, r, variant, &mut cache))
                    .collect::<Result<Vec<f64>, _>>()
                    .map_err(|e| e.to_string());
                (start, Instant::now(), values, cache.stats)
            })
            .collect();
        for (start, end, _, _) in &chains {
            t.record("lp.chain", *start, *end);
        }
        chains
    });
    let mut stats = LpStats::default();
    let mut rows = Vec::new();
    for (_, _, values, s) in chains {
        stats.merge(&s);
        match values {
            Ok(v) => rows.push(v),
            Err(e) => problems.push(format!("LP replay failed: {e}")),
        }
    }
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.insert("lp.solves", stats.solves as f64);
    m.insert("lp.pivots", stats.pivots as f64);
    m.insert("lp.pivots_per_solve", ratio(stats.pivots, stats.solves));
    m.insert("lp.refactorizations", stats.refactorizations as f64);
    m.insert(
        "lp.warm_hit_ratio",
        ratio(stats.warm_hits, stats.warm_attempts),
    );
    m.insert("lp.solve_ms", stats.wall_ms);
    if rows.len() != demands.len() {
        return;
    }
    let n = rows.len() as f64;
    let replayed: Vec<SweepOutcome> = rules
        .iter()
        .enumerate()
        .map(|(ri, &rule)| {
            let values: Vec<f64> = rows.iter().map(|row| row[ri]).collect();
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            SweepOutcome {
                rule,
                mean,
                sem: (var / n).sqrt(),
            }
        })
        .collect();
    problems.extend(compare_sweeps("replayed LP chains", &replayed, sweep));
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default exclusive
/// method); a single value is all three.  `values` must not be empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 1 {
        return (x[0], x[0], x[0]);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The workload's spec shrunk to `dfly(2,4,2,5)`-sized inputs.
    pub(crate) fn tiny(w: Workload) -> Spec {
        let small = DragonflyParams::new(2, 4, 2, 5);
        match w.spec(1) {
            Spec::Sim(mut s) => {
                s.topo = small;
                s.shift = s.shift.map(|_| (1, 0));
                s.cfg.window = 500;
                Spec::Sim(s)
            }
            Spec::Algo1 { mut cfg, .. } => {
                cfg.sweep.type1_sample = Some(2);
                cfg.sweep.type2_count = 1;
                cfg.sim.window = 500;
                Spec::Algo1 { topo: small, cfg }
            }
            Spec::Step1 {
                mut sweep, rules, ..
            } => {
                sweep.type1_sample = Some(2);
                sweep.type2_count = 1;
                Spec::Step1 {
                    topo: small,
                    sweep,
                    rules,
                }
            }
        }
    }

    #[test]
    fn repeated_units_give_identical_digests() {
        for w in Workload::ALL {
            let spec = tiny(w);
            let prep = setup(&spec, &mut Tracer::off()).unwrap();
            let a = run_unit(&spec, &prep, false).unwrap();
            let b = run_unit(&spec, &prep, false).unwrap();
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
            assert_eq!(a.failed, 0, "{}", w.name());
            assert!(check_expected(&b, &a.checked).is_empty());
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let digest = |seeds: Vec<u64>| {
            let Spec::Sim(mut s) = tiny(Workload::SimUr) else {
                unreachable!()
            };
            s.seeds = seeds;
            let spec = Spec::Sim(s);
            let prep = setup(&spec, &mut Tracer::off()).unwrap();
            run_unit(&spec, &prep, false).unwrap().digest
        };
        assert_ne!(digest(vec![1, 2]), digest(vec![2, 3]));
    }

    #[test]
    fn a_changed_output_fails_the_expected_check() {
        let spec = tiny(Workload::Step1Max);
        let prep = setup(&spec, &mut Tracer::off()).unwrap();
        let unit = run_unit(&spec, &prep, false).unwrap();
        let mut expected = unit.checked.clone();
        assert!(check_expected(&unit, &expected).is_empty());
        if let Value::Object(fields) = &mut expected {
            fields[1].1 = Value::Str("no such rule".into());
        }
        assert_eq!(check_expected(&unit, &expected).len(), 1);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}
