//! The experiment runner: the one way this crate schedules simulation jobs.
//!
//! Figure-style experiments sweep several labelled series (provider ×
//! routing × config) over a shared offered-load grid, replicated over
//! seeds.  Running each series (or each rate) through its own nested
//! parallel call leaves workers idle at every join point and reallocates
//! engine state per run; the [`ExperimentRunner`] instead expands the full
//! cartesian job list up front, schedules it through a *single* parallel
//! batch over one [`WorkspacePool`], and aggregates per (series, rate)
//! with [`aggregate_runs`] — recording per-job wall-clock so harnesses can
//! report where the time went.
//!
//! Both entry points run every job through one isolated per-job path
//! (journal replay, trace spans, `catch_unwind`, budget, profiling).
//! [`ExperimentRunner::run_recorded`] runs a (rates × seeds) grid with one
//! [`SimObserver`] per job from a caller-supplied factory (a
//! [`NoopObserver`] factory runs the uninstrumented engine), returned
//! alongside the aggregated curves so a metrics consumer can merge
//! per-seed collections into per-point telemetry.
//! [`ExperimentRunner::saturation`] bisects each series' saturation
//! throughput, one batch of seeds per probe.

use crate::config::{Config, RoutingAlgorithm};
use crate::engine::{
    EngineProf, NoopObserver, NoopProfiler, ProfileReport, RunOutput, SimObserver, Simulator,
    StallKind, StallReport, WorkspacePool,
};
use crate::error::{validate_resolution, validate_seeds, validate_sweep, ConfigError};
use crate::journal::{job_digest, Journal};
use crate::stats::SimResult;
use crate::trace::{phase_totals, TraceSink, TraceSpan};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tugal_routing::PathProvider;
use tugal_topology::Dragonfly;
use tugal_traffic::TrafficPattern;

/// One point of a latency-vs-load curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Offered load (packets/cycle/node).
    pub rate: f64,
    /// Full measurement at this load (averaged over the sweep's seeds).
    pub result: SimResult,
    /// Total wall-clock spent simulating this point, in milliseconds,
    /// summed over its seed replications (they may run in parallel).
    pub elapsed_ms: f64,
}

/// One labelled series of an experiment: which candidate provider, routing
/// algorithm, traffic pattern and simulator configuration to sweep.
pub struct SeriesSpec {
    /// Legend label (matching the paper's figures).
    pub label: String,
    /// Candidate-path source.
    pub provider: Arc<dyn PathProvider>,
    /// Traffic pattern.
    pub pattern: Arc<dyn TrafficPattern>,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Fully-specified simulator configuration (the per-job seed is
    /// overridden from the runner's seed list).
    pub cfg: Config,
    /// Optional fault schedule applied to every job of the series
    /// (`None` — the common case — leaves the engine on its pristine fast
    /// path).
    pub faults: Option<Arc<crate::fault::FaultSchedule>>,
}

/// An aggregated (series, rate) point together with the observers its seed
/// replications ran under, in seed order.
pub struct ObservedPoint<O> {
    /// The aggregated measurement and its wall-clock.
    pub point: CurvePoint,
    /// One observer per seed (whatever state each accumulated).
    pub observers: Vec<O>,
}

/// One series of an instrumented experiment.
pub struct ObservedCurve<O> {
    /// Legend label, copied from the [`SeriesSpec`].
    pub label: String,
    /// One observed point per offered load.
    pub points: Vec<ObservedPoint<O>>,
}

/// Identity of one scheduled job, handed to the observer factory of
/// [`ExperimentRunner::run_recorded`].
pub struct JobInfo<'a> {
    /// Label of the job's series.
    pub label: &'a str,
    /// Index of the series within the runner.
    pub series: usize,
    /// Offered load of this job.
    pub rate: f64,
    /// RNG seed of this replication.
    pub seed: u64,
}

/// Per-job budget the runner applies uniformly over every scheduled job,
/// merged into each job's watchdog (the tighter of the two limits wins
/// when a series also arms its own [`crate::WatchdogConfig`]).  Zero
/// fields impose no limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobBudget {
    /// Simulated-cycle ceiling per job (`0` = none).
    pub max_cycles: u64,
    /// Wall-clock ceiling per job in milliseconds (`0` = none).
    pub wall_limit_ms: u64,
}

impl JobBudget {
    /// True when at least one limit is set.
    pub fn limits_anything(&self) -> bool {
        self.max_cycles > 0 || self.wall_limit_ms > 0
    }
}

/// How one isolated job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job completed; its result entered the aggregate.
    Ok(SimResult),
    /// The job panicked under `catch_unwind`; the payload message is
    /// preserved.  The job is excluded from the aggregate.
    Panicked(String),
    /// The job exhausted its wall-clock budget
    /// ([`StallKind::WallClockExceeded`]).  Excluded from the aggregate.
    TimedOut(StallReport),
    /// Another watchdog check tripped (livelock, conservation violation or
    /// cycle ceiling).  Excluded from the aggregate.
    WatchdogTripped(StallReport),
}

impl JobOutcome {
    /// True for any non-[`JobOutcome::Ok`] variant.
    pub fn is_failure(&self) -> bool {
        !matches!(self, JobOutcome::Ok(_))
    }

    /// Short stable outcome name for logs and trace spans.
    pub fn name(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::Panicked(_) => "panicked",
            JobOutcome::TimedOut(_) => "timed-out",
            JobOutcome::WatchdogTripped(_) => "watchdog-tripped",
        }
    }

    /// The stall report of a watchdog/budget failure, if any.
    pub fn stall(&self) -> Option<&StallReport> {
        match self {
            JobOutcome::TimedOut(r) | JobOutcome::WatchdogTripped(r) => Some(r),
            _ => None,
        }
    }
}

/// What [`ExperimentRunner::run_recorded`] returns: the aggregated curves
/// (with observers), the batch summary, and one [`JobRecord`] per job in
/// schedule order.
pub type RecordedRun<O> = (Vec<ObservedCurve<O>>, RunSummary, Vec<JobRecord>);

/// What [`ExperimentRunner::saturation`] returns: one saturation
/// throughput per series in series order, the summary over every probe,
/// and one [`JobRecord`] per probe job in run order.
pub type SaturationRun = (Vec<f64>, RunSummary, Vec<JobRecord>);

/// The full record of one scheduled job: identity, journal digest, outcome
/// and timing.  [`ExperimentRunner::run_recorded`] returns one per job in
/// schedule order (series-major, then rate, then seed).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Label of the job's series.
    pub label: String,
    /// Index of the series within the runner.
    pub series: usize,
    /// Offered load.
    pub rate: f64,
    /// Replication seed.
    pub seed: u64,
    /// The job's [`job_digest`] (journal key).
    pub digest: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Wall-clock the job cost, in milliseconds (0 for journal replays).
    pub elapsed_ms: f64,
    /// True when the result was replayed from the journal instead of
    /// simulated.
    pub resumed: bool,
    /// The job's engine profile, when the runner ran with
    /// [`ExperimentRunner::with_profiling`] and the job was simulated
    /// (`None` for replays and unprofiled runs).
    pub profile: Option<ProfileReport>,
}

/// Whole-batch timing summary of one [`ExperimentRunner`] run: where the
/// wall-clock went, aggregated from the per-job timings.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Jobs scheduled (series × rates × seeds).
    pub jobs: usize,
    /// Wall-clock of the whole parallel batch, in milliseconds.
    pub wall_ms: f64,
    /// Sum of per-job simulation times, in milliseconds (exceeds
    /// `wall_ms` under parallel execution).
    pub sim_ms: f64,
    /// Jobs completed per wall-clock second.
    pub jobs_per_sec: f64,
    /// `(series label, rate, seed, ms)` of the slowest job.
    pub slowest: Option<(String, f64, u64, f64)>,
    /// Jobs that failed (panicked, timed out or tripped a watchdog) and
    /// were skipped by the aggregation.
    pub failed: usize,
    /// Jobs whose results were replayed from an attached journal instead
    /// of simulated.
    pub resumed: usize,
    /// Host parallelism at run time
    /// (`std::thread::available_parallelism`), so a summary from a
    /// single-core container is self-describing.
    pub host_threads: usize,
    /// The slowest job's engine profile (profiled runs only) — the
    /// phase breakdown [`RunSummary::oneline`] prints.
    pub slowest_profile: Option<ProfileReport>,
}

impl RunSummary {
    /// The summary of `records`, run in `wall_ms` of wall-clock on a host
    /// with `host_threads` threads.
    fn of(records: &[JobRecord], wall_ms: f64, host_threads: usize) -> RunSummary {
        let slowest = records
            .iter()
            .max_by(|a, b| a.elapsed_ms.total_cmp(&b.elapsed_ms));
        RunSummary {
            jobs: records.len(),
            wall_ms,
            sim_ms: records.iter().map(|rec| rec.elapsed_ms).sum(),
            jobs_per_sec: if wall_ms > 0.0 {
                records.len() as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            slowest: slowest.map(|rec| (rec.label.clone(), rec.rate, rec.seed, rec.elapsed_ms)),
            failed: records
                .iter()
                .filter(|rec| rec.outcome.is_failure())
                .count(),
            resumed: records.iter().filter(|rec| rec.resumed).count(),
            host_threads,
            slowest_profile: slowest.and_then(|rec| rec.profile.clone()),
        }
    }

    /// One-line human-readable form (the run summary harnesses print).
    pub fn oneline(&self) -> String {
        let slowest = match &self.slowest {
            Some((label, rate, seed, ms)) => {
                format!(", slowest {label} @ rate {rate} seed {seed}: {ms:.0} ms")
            }
            None => String::new(),
        };
        let failed = if self.failed > 0 {
            format!(", {} FAILED", self.failed)
        } else {
            String::new()
        };
        let resumed = if self.resumed > 0 {
            format!(", {} resumed from journal", self.resumed)
        } else {
            String::new()
        };
        let phases = match &self.slowest_profile {
            Some(p) => format!(" [slowest phases: {}]", p.top_phases(3)),
            None => String::new(),
        };
        format!(
            "{} jobs in {:.0} ms wall ({:.1} jobs/s, {:.0} ms simulated \
             on {} host threads){}{}{}{}",
            self.jobs,
            self.wall_ms,
            self.jobs_per_sec,
            self.sim_ms,
            self.host_threads,
            slowest,
            phases,
            failed,
            resumed
        )
    }

    /// Folds another batch into this summary (totals summed, rates
    /// recomputed, slowest kept) — harnesses that schedule several batches
    /// report one combined line.
    pub fn absorb(&mut self, other: &RunSummary) {
        self.jobs += other.jobs;
        self.wall_ms += other.wall_ms;
        self.sim_ms += other.sim_ms;
        self.failed += other.failed;
        self.resumed += other.resumed;
        self.jobs_per_sec = if self.wall_ms > 0.0 {
            self.jobs as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        };
        self.host_threads = self.host_threads.max(other.host_threads);
        // A present entry always beats an absent one, regardless of its
        // time: mapping `None` to 0.0 ms would let an empty batch keep its
        // `None` against a real (even 0 ms-rounded) slowest job.  The
        // slowest job's profile travels with it.
        let other_wins = match (&self.slowest, &other.slowest) {
            (None, Some(_)) => true,
            (Some(a), Some(b)) => b.3 > a.3,
            _ => false,
        };
        if other_wins {
            self.slowest = other.slowest.clone();
            self.slowest_profile = other.slowest_profile.clone();
        }
    }
}

/// Owns the (series × rate × seed) job list of one experiment and runs it
/// as a single flat parallel batch.
///
/// Every job runs *isolated*: under `catch_unwind`, with the runner's
/// [`JobBudget`] merged into its watchdog, so one panicking or livelocked
/// job becomes a reported [`JobRecord`] instead of aborting the sweep.
/// With a [`Journal`] attached ([`ExperimentRunner::with_journal`]),
/// completed jobs are recorded as they finish and replayed bit-for-bit on
/// a re-invocation, so a killed sweep resumes instead of restarting.
pub struct ExperimentRunner {
    topo: Arc<Dragonfly>,
    series: Vec<SeriesSpec>,
    budget: JobBudget,
    journal: Option<Arc<Journal>>,
    trace: Option<Arc<TraceSink>>,
    profiling: bool,
}

impl ExperimentRunner {
    /// A runner over `topo` with no series yet.
    pub fn new(topo: Arc<Dragonfly>) -> Self {
        ExperimentRunner {
            topo,
            series: Vec::new(),
            budget: JobBudget::default(),
            journal: None,
            trace: None,
            profiling: false,
        }
    }

    /// Adds one labelled series.
    pub fn series(mut self, spec: SeriesSpec) -> Self {
        self.series.push(spec);
        self
    }

    /// Applies `budget` to every scheduled job (merged into each job's
    /// watchdog; the tighter limit wins when a series arms its own).
    pub fn with_budget(mut self, budget: JobBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a resume journal: completed jobs are recorded as they
    /// finish, and jobs already on record are replayed instead of re-run.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches a [`TraceSink`]: the runner emits `batch_start`/`job_start`/
    /// `job_end`/`batch_end` span events as the batch executes (see
    /// [`crate::trace`]).  Tracing is outside the engine, so results are
    /// byte-identical with or without a sink.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Turns on engine self-profiling: every simulated job runs with an
    /// [`EngineProf`] attached, its [`ProfileReport`] lands in the job's
    /// [`JobRecord::profile`], and the summary carries the slowest job's
    /// phase breakdown.  Profiling never changes results (pinned by
    /// `tests/profile.rs`); it costs a few timestamp reads per simulated
    /// cycle.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Validates the whole experiment up front: the (rates × seeds) grid
    /// via [`crate::validate_sweep`] and every series' [`Config`] via
    /// [`Config::validate`] — so a malformed sweep is rejected before any
    /// job is scheduled.
    fn validate(&self, rates: &[f64], seeds: &[u64]) -> Result<(), ConfigError> {
        validate_sweep(rates, seeds)?;
        self.series.iter().try_for_each(|s| s.cfg.validate())
    }

    /// The stable identity string of series `si`, from which each job's
    /// journal digest is derived: label, topology parameters (plus the
    /// shape suffix naming non-default arrangement / global lag), routing,
    /// config (seed zeroed — the per-job seed is hashed separately), the
    /// runner's budget and the fault schedule.  Any change to any of them
    /// changes every digest of the series, so stale journal entries are
    /// never replayed.  (The path provider has no stable identity of its
    /// own; the series label carries it, as every harness labels series by
    /// provider × routing.)
    fn series_key(&self, si: usize) -> String {
        let s = &self.series[si];
        let mut cfg = s.cfg.clone();
        cfg.seed = 0;
        format!(
            "{}|{:?}{}|{:?}|{:?}|{:?}|{:?}",
            s.label,
            self.topo.params(),
            self.topo.shape_suffix(),
            s.routing,
            cfg,
            self.budget,
            s.faults.as_ref().map(|f| f.events()),
        )
    }

    /// The effective per-job config of series `si`: the series config with
    /// the runner's [`JobBudget`] merged into its watchdog (tighter limit
    /// wins).  A zero budget returns the config untouched, keeping
    /// budget-free runs on the exact configuration the caller supplied.
    fn job_config(&self, si: usize) -> Config {
        let mut cfg = self.series[si].cfg.clone();
        if self.budget.limits_anything() {
            let mut wd = cfg
                .watchdog
                .unwrap_or_else(crate::engine::WatchdogConfig::disabled);
            let tighter = |cur: u64, budget: u64| -> u64 {
                match (cur, budget) {
                    (0, b) => b,
                    (c, 0) => c,
                    (c, b) => c.min(b),
                }
            };
            wd.max_cycles = tighter(wd.max_cycles, self.budget.max_cycles);
            wd.wall_limit_ms = tighter(wd.wall_limit_ms, self.budget.wall_limit_ms);
            cfg.watchdog = Some(wd);
        }
        cfg
    }

    /// Runs the experiment: validates it up front, expands the full job
    /// list, runs it through one parallel batch over a shared workspace
    /// pool with every job isolated (see the type docs), and folds the
    /// per-seed results into one [`CurvePoint`] per (series, rate) via
    /// [`aggregate_runs`].
    ///
    /// Every job gets its own observer from `make` (receiving the job's
    /// [`JobInfo`]); the per-seed observers come back attached to their
    /// aggregated [`ObservedPoint`].  A
    /// [`NoopObserver`] factory runs the
    /// monomorphized no-op engine, so observer-free runs cost nothing.
    /// Besides the curves and the batch [`RunSummary`], the run returns
    /// one [`JobRecord`] per job in schedule order, so harnesses can report
    /// the failures and choose their exit code.
    pub fn run_recorded<O, F>(
        &self,
        rates: &[f64],
        seeds: &[u64],
        make: F,
    ) -> Result<RecordedRun<O>, ConfigError>
    where
        O: SimObserver + Send,
        F: Fn(&JobInfo) -> O + Sync,
    {
        self.validate(rates, seeds)?;
        let ctx = self.run_ctx();
        // Job order is series-major, then rate, then seed, so the flat
        // result vector chunks back into (series, rate) groups directly
        // (the parallel map preserves input order).
        let jobs: Vec<(usize, f64, u64)> = (0..self.series.len())
            .flat_map(|si| {
                rates
                    .iter()
                    .flat_map(move |&rate| seeds.iter().map(move |&seed| (si, rate, seed)))
            })
            .collect();
        let start = Instant::now();
        let outcomes = self.run_batch(&ctx, &jobs, &make);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let (records, observers): (Vec<JobRecord>, Vec<O>) = outcomes.into_iter().unzip();
        let summary = RunSummary::of(&records, wall_ms, ctx.host_threads);

        let mut rec_it = records.iter();
        let mut obs_it = observers.into_iter();
        let curves = self
            .series
            .iter()
            .map(|spec| ObservedCurve {
                label: spec.label.clone(),
                points: rates
                    .iter()
                    .map(|&rate| {
                        let group: Vec<&JobRecord> = rec_it.by_ref().take(seeds.len()).collect();
                        let elapsed_ms = group.iter().map(|rec| rec.elapsed_ms).sum();
                        ObservedPoint {
                            point: CurvePoint {
                                rate,
                                result: aggregate_runs(rate, &completed(group)),
                                elapsed_ms,
                            },
                            observers: obs_it.by_ref().take(seeds.len()).collect(),
                        }
                    })
                    .collect(),
            })
            .collect();
        Ok((curves, summary, records))
    }

    /// Saturation throughput of every series: "the last injection rate
    /// before saturation happens" (§4.1.2), bisected to within
    /// `resolution`.  Series are bisected in turn; each probe runs its
    /// seeds as one batch through the same isolated per-job path as
    /// [`ExperimentRunner::run_recorded`], over one workspace pool for the
    /// whole call, and is saturated when [`aggregate_runs`] says so over
    /// its completed jobs — so a probe whose jobs all failed counts as
    /// saturated, and callers that must tell the two apart check the
    /// returned records.  Rejects a resolution outside `(0, 1)`, an empty
    /// or duplicated seed list and an invalid series config up front.
    pub fn saturation(&self, seeds: &[u64], resolution: f64) -> Result<SaturationRun, ConfigError> {
        validate_resolution(resolution)?;
        validate_seeds(seeds)?;
        self.series.iter().try_for_each(|s| s.cfg.validate())?;
        let ctx = self.run_ctx();
        let start = Instant::now();
        let mut records = Vec::new();
        let mut values = Vec::with_capacity(self.series.len());
        for si in 0..self.series.len() {
            values.push(bisect(resolution, |rate| {
                let jobs: Vec<(usize, f64, u64)> =
                    seeds.iter().map(|&seed| (si, rate, seed)).collect();
                let batch = self.run_batch(&ctx, &jobs, &|_: &JobInfo| NoopObserver);
                let first = records.len();
                records.extend(batch.into_iter().map(|(rec, _)| rec));
                aggregate_runs(rate, &completed(records[first..].iter())).saturated
            }));
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let summary = RunSummary::of(&records, wall_ms, ctx.host_threads);
        Ok((values, summary, records))
    }

    /// The per-call state every job of one run shares, computed once.
    fn run_ctx(&self) -> RunCtx {
        RunCtx {
            keys: (0..self.series.len())
                .map(|si| self.series_key(si))
                .collect(),
            cfgs: (0..self.series.len())
                .map(|si| self.job_config(si))
                .collect(),
            pool: WorkspacePool::new(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Runs `jobs` — `(series, rate, seed)` triples — as one parallel
    /// batch between a `batch_start` and a `batch_end` span, each job
    /// under its own observer from `make`.  Results come back in input
    /// order.
    fn run_batch<O, F>(
        &self,
        ctx: &RunCtx,
        jobs: &[(usize, f64, u64)],
        make: &F,
    ) -> Vec<(JobRecord, O)>
    where
        O: SimObserver + Send,
        F: Fn(&JobInfo) -> O + Sync,
    {
        if let Some(trace) = &self.trace {
            let mut span = TraceSpan::new("batch_start");
            span.t_ms = trace.now_ms();
            span.jobs = jobs.len() as u64;
            span.host_threads = ctx.host_threads as u64;
            trace.emit(&span);
        }
        let outcomes: Vec<(JobRecord, O)> = jobs
            .par_iter()
            .map(|&(si, rate, seed)| {
                let mut obs = make(&JobInfo {
                    label: &self.series[si].label,
                    series: si,
                    rate,
                    seed,
                });
                let record = self.run_job(ctx, si, rate, seed, &mut obs);
                (record, obs)
            })
            .collect();
        if let Some(trace) = &self.trace {
            let mut span = TraceSpan::new("batch_end");
            span.t_ms = trace.now_ms();
            span.jobs = jobs.len() as u64;
            span.failed = outcomes
                .iter()
                .filter(|(rec, _)| rec.outcome.is_failure())
                .count() as u64;
            span.host_threads = ctx.host_threads as u64;
            if self.profiling {
                let mut agg = ProfileReport::default();
                for (rec, _) in &outcomes {
                    if let Some(p) = &rec.profile {
                        agg.absorb(p);
                    }
                }
                span.phase_ns = phase_totals(&agg);
            }
            trace.emit(&span);
        }
        outcomes
    }

    /// Runs one job isolated: replays it from the journal when it is on
    /// record, otherwise simulates it under `catch_unwind` (profiled when
    /// profiling is on), journals a completed result and emits its spans.
    fn run_job<O: SimObserver>(
        &self,
        ctx: &RunCtx,
        si: usize,
        rate: f64,
        seed: u64,
        obs: &mut O,
    ) -> JobRecord {
        let s = &self.series[si];
        let digest = job_digest(&ctx.keys[si], rate, seed);
        let job_span = |ev: &str| {
            let mut span = TraceSpan::new(ev);
            span.label = s.label.clone();
            span.rate_bits = rate.to_bits();
            span.seed = seed;
            span.digest = digest;
            span
        };
        let record = |outcome, elapsed_ms, resumed, profile| JobRecord {
            label: s.label.clone(),
            series: si,
            rate,
            seed,
            digest,
            outcome,
            elapsed_ms,
            resumed,
            profile,
        };
        if let Some(journal) = &self.journal {
            if let Some(result) = journal.lookup(digest) {
                // Replayed: the observer never sees the run (it was
                // simulated by the killed invocation), but the result is
                // the recorded one, bit-for-bit.
                if let Some(trace) = &self.trace {
                    let mut span = job_span("job_end");
                    span.t_ms = trace.now_ms();
                    span.outcome = "ok".to_string();
                    span.resumed = true;
                    trace.emit(&span);
                }
                return record(JobOutcome::Ok(result), 0.0, true, None);
            }
        }
        if let Some(trace) = &self.trace {
            let mut span = job_span("job_start");
            span.t_ms = trace.now_ms();
            trace.emit(&span);
        }
        let start = Instant::now();
        let mut prof = self.profiling.then(EngineProf::new);
        let run = catch_unwind(AssertUnwindSafe(|| {
            let cfg = Config {
                seed,
                ..ctx.cfgs[si].clone()
            };
            let mut sim = Simulator::new(
                self.topo.clone(),
                s.provider.clone(),
                s.pattern.clone(),
                s.routing,
                cfg,
            );
            if let Some(f) = &s.faults {
                sim = sim.with_faults(f.clone());
            }
            ctx.pool.with(|ws| match prof.as_mut() {
                Some(p) => sim.run_in(rate, ws, obs, p),
                None => sim.run_in(rate, ws, obs, &mut NoopProfiler),
            })
        }));
        let profile = prof.map(|p| p.report());
        let outcome = match run {
            Ok(RunOutput {
                result,
                stall: None,
            }) => {
                if let Some(journal) = &self.journal {
                    journal.record(digest, &s.label, rate, seed, &result);
                }
                JobOutcome::Ok(result)
            }
            Ok(RunOutput {
                stall: Some(stall), ..
            }) => {
                if stall.kind == StallKind::WallClockExceeded {
                    JobOutcome::TimedOut(stall)
                } else {
                    JobOutcome::WatchdogTripped(stall)
                }
            }
            Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(trace) = &self.trace {
            let mut span = job_span("job_end");
            span.t_ms = trace.now_ms();
            span.outcome = outcome.name().to_string();
            span.elapsed_ms_bits = ms.to_bits();
            if let Some(p) = &profile {
                span.phase_ns = phase_totals(p);
            }
            trace.emit(&span);
        }
        record(outcome, ms, false, profile)
    }
}

/// Per-call state shared by every job of one run: each series' journal key
/// and effective config, the workspace pool and the host parallelism.
struct RunCtx {
    keys: Vec<String>,
    cfgs: Vec<Config>,
    pool: WorkspacePool,
    host_threads: usize,
}

/// The results of the completed jobs among `records`.  Failed jobs are
/// skipped, not poison: a point aggregates its surviving replications (or
/// the no-data sentinel when none survived).
fn completed<'a>(records: impl IntoIterator<Item = &'a JobRecord>) -> Vec<SimResult> {
    records
        .into_iter()
        .filter_map(|rec| match &rec.outcome {
            JobOutcome::Ok(r) => Some(r.clone()),
            _ => None,
        })
        .collect()
}

/// Finite-aware aggregation of replicated runs at one offered load: counts
/// are summed, ratios averaged, and latency statistics (mean, p50, p99)
/// averaged over *finite* values only, so a single zero-delivery run
/// (infinite mean, NaN percentiles) cannot poison the aggregate.  A
/// majority of saturated runs marks the point saturated.
///
/// An empty `runs` slice — every replication of the point failed under the
/// runner's job isolation — aggregates to the explicit *no-data* sentinel:
/// zero deliveries, infinite latency, `saturated` set (historically this
/// was a panic, which let one bad point poison a whole sweep).
pub fn aggregate_runs(rate: f64, runs: &[SimResult]) -> SimResult {
    if runs.is_empty() {
        return SimResult {
            injection_rate: rate,
            avg_latency: f64::INFINITY,
            throughput: 0.0,
            avg_hops: 0.0,
            delivered: 0,
            injected: 0,
            saturated: true,
            deadlock_suspected: false,
            vlb_fraction: 0.0,
            latency_p50: f64::NAN,
            latency_p99: f64::NAN,
            max_channel_util: 0.0,
            mean_global_util: 0.0,
            mean_local_util: 0.0,
        };
    }
    let n = runs.len() as f64;
    let finite_mean = |value: fn(&SimResult) -> f64| -> f64 {
        let vals: Vec<f64> = runs.iter().map(value).filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            f64::INFINITY
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    SimResult {
        injection_rate: rate,
        avg_latency: finite_mean(|r| r.avg_latency),
        throughput: runs.iter().map(|r| r.throughput).sum::<f64>() / n,
        avg_hops: runs.iter().map(|r| r.avg_hops).sum::<f64>() / n,
        delivered: runs.iter().map(|r| r.delivered).sum(),
        injected: runs.iter().map(|r| r.injected).sum(),
        saturated: runs.iter().filter(|r| r.saturated).count() * 2 > runs.len(),
        deadlock_suspected: runs.iter().any(|r| r.deadlock_suspected),
        vlb_fraction: runs.iter().map(|r| r.vlb_fraction).sum::<f64>() / n,
        latency_p50: finite_mean(|r| r.latency_p50),
        latency_p99: finite_mean(|r| r.latency_p99),
        max_channel_util: runs.iter().map(|r| r.max_channel_util).fold(0.0, f64::max),
        mean_global_util: runs.iter().map(|r| r.mean_global_util).sum::<f64>() / n,
        mean_local_util: runs.iter().map(|r| r.mean_local_util).sum::<f64>() / n,
    }
}

/// The last rate in `[resolution, 1]` at which `saturated` is false, to
/// within `resolution`: 0 when even `resolution` saturates, 1 when even
/// full load does not.  The search also ends when the midpoint rounds to
/// an endpoint, so a resolution below the float spacing there terminates.
fn bisect(resolution: f64, mut saturated: impl FnMut(f64) -> bool) -> f64 {
    let mut lo = resolution;
    let mut hi = 1.0;
    if saturated(lo) {
        return 0.0;
    }
    if !saturated(hi) {
        return 1.0;
    }
    while hi - lo > resolution {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if saturated(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Renders a `catch_unwind` payload: `&str` and `String` payloads (what
/// `panic!`/`assert!` produce) verbatim, anything else a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::{bisect, RunSummary};
    use std::cell::Cell;

    fn summary(jobs: usize, wall_ms: f64, slowest: Option<(&str, f64, u64, f64)>) -> RunSummary {
        RunSummary {
            jobs,
            wall_ms,
            sim_ms: wall_ms,
            jobs_per_sec: if wall_ms > 0.0 {
                jobs as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            slowest: slowest.map(|(l, r, s, ms)| (l.to_string(), r, s, ms)),
            failed: 0,
            resumed: 0,
            host_threads: 1,
            slowest_profile: None,
        }
    }

    #[test]
    fn absorb_sums_totals_and_recomputes_rate() {
        let mut a = summary(4, 1000.0, Some(("a", 0.1, 1, 400.0)));
        a.absorb(&summary(2, 1000.0, Some(("b", 0.2, 2, 900.0))));
        assert_eq!(a.jobs, 6);
        assert_eq!(a.wall_ms, 2000.0);
        assert!((a.jobs_per_sec - 3.0).abs() < 1e-9);
        assert_eq!(a.slowest.as_ref().unwrap().0, "b");
    }

    #[test]
    fn absorb_keeps_larger_slowest() {
        let mut a = summary(1, 10.0, Some(("slow", 0.1, 1, 9.0)));
        a.absorb(&summary(1, 10.0, Some(("fast", 0.1, 2, 3.0))));
        assert_eq!(a.slowest.as_ref().unwrap().0, "slow");
    }

    #[test]
    fn absorb_present_slowest_beats_none() {
        // Regression: `None` mapped to 0.0 ms used to survive against a
        // real slowest entry of 0.0 ms (and an empty self kept `None`
        // against any other batch on ties).
        let mut a = summary(0, 0.0, None);
        a.absorb(&summary(1, 5.0, Some(("only", 0.1, 7, 0.0))));
        assert_eq!(a.slowest.as_ref().unwrap().0, "only");

        let mut b = summary(1, 5.0, Some(("kept", 0.1, 7, 0.0)));
        b.absorb(&summary(0, 0.0, None));
        assert_eq!(b.slowest.as_ref().unwrap().0, "kept");
    }

    #[test]
    fn bisection_below_the_float_spacing_terminates() {
        let probes = Cell::new(0);
        let point = 0.3;
        let sat = bisect(1e-18, |rate| {
            probes.set(probes.get() + 1);
            rate > point
        });
        assert!(sat <= point && point - sat < 1e-15, "{sat}");
        // Two endpoint probes, then one per halving of [1e-18, 1] down to
        // the spacing of f64 near 0.3 (2^-54).
        assert!(probes.get() <= 60, "{} probes", probes.get());
    }

    #[test]
    fn bisection_reports_the_interval_ends() {
        assert_eq!(bisect(0.01, |_| true), 0.0);
        assert_eq!(bisect(0.01, |_| false), 1.0);
    }
}
