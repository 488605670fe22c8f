//! Perf-baseline harness: fixed reference scenarios through the unified
//! [`ExperimentRunner`], reported as `BENCH_netsim.json` at the repo root.
//!
//! Unlike the figure harnesses (which chase the paper's curves), this
//! binary exists to measure the *simulator*: every scenario is pinned —
//! topology, candidate tables, patterns, offered loads, seeds — so two
//! runs of the same code produce the same simulated work and their
//! jobs/sec are directly comparable.  The reference sweep is
//! `dfly(4,8,4,9)`, UGAL-L vs T-UGAL-L, uniform + shift traffic, three
//! offered loads × three seeds; a `tiny/`-prefixed suite on
//! `dfly(2,4,2,5)` always runs too, so CI smoke numbers share labels with
//! locally generated baselines.  A `scale/` suite adds one small UGAL-L
//! batch per topology (`dfly(4,7,4,8)` and the reference `dfly(4,8,4,9)`),
//! too few jobs to fill a multi-core host, so it shows per-job speed.
//!
//! Environment knobs:
//!
//! * `TUGAL_TINY=1` — run only the tiny suite (CI smoke mode).
//! * `TUGAL_PERF_CHECK=<baseline.json>` — after running, compare each
//!   scenario's jobs/sec against the same-label scenario of the baseline
//!   file and exit non-zero on a regression beyond the tolerance.
//! * `TUGAL_PERF_TOLERANCE=<fraction>` — allowed jobs/sec drop before the
//!   check fails (default `0.25`, i.e. >25% regression fails).
//! * `TUGAL_FULL=1` — paper-scale windows (the committed baseline uses the
//!   default quick windows so CI and laptops can reproduce it).
//!
//! Each scenario record carries a digest of everything that defines its
//! workload (topology, table construction, patterns, loads, seeds, full
//! simulator config), so a baseline produced under different parameters is
//! never silently compared against.

use std::sync::Arc;
use tugal_bench::env::HarnessEnv;
use tugal_bench::{dfly, fatal, sim_config};
use tugal_netsim::runner::{ExperimentRunner, RunSummary, SeriesSpec};
use tugal_netsim::{Config, NoopObserver, RoutingAlgorithm};
use tugal_routing::{PathProvider, PathTable, TableProvider, VlbRule};
use tugal_topology::Dragonfly;
use tugal_traffic::{Shift, TrafficPattern, Uniform};

/// Table seed of the T-VLB construction (shared with `fig_faults`).
const TVLB_TABLE_SEED: u64 = 0x7065;

/// The fixed T-VLB rule of the reference scenarios: the dense-topology
/// outcome of Algorithm 1 (DESIGN.md §4), pinned here so the harness never
/// depends on the Algorithm-1 sweep or its cache.
const TVLB_RULE: VlbRule = VlbRule::ClassLimit {
    max_hops: 4,
    frac_next: 0.6,
};

/// FNV-1a over the scenario's defining parameters.
fn digest(parts: &[&str]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        h ^= 0xff; // field separator
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    format!("{h:016x}")
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Scenario {
    /// Stable scenario label (`ref/…` or `tiny/…`); the regression check
    /// matches baselines by this.
    label: String,
    /// Digest of the scenario's defining parameters (topology, tables,
    /// patterns, loads, seeds, simulator config).
    config_digest: String,
    /// Jobs scheduled (series × loads × seeds).
    jobs: u64,
    /// Wall-clock of the whole batch, ms.
    wall_ms: f64,
    /// Jobs completed per wall-clock second — the headline metric.
    jobs_per_sec: f64,
    /// Simulated cycles retired per wall-clock second (jobs × cycles/job,
    /// over wall time).
    sim_cycles_per_sec: f64,
    /// Delivered flits per wall-clock second, summed over every job.
    delivered_flits_per_sec: f64,
    /// `(series label, rate, seed, ms)` of the slowest job.
    slowest: Option<(String, f64, u64, f64)>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct BenchFile {
    id: String,
    /// True when the scenarios ran under paper-scale windows.
    full_fidelity: bool,
    /// Host parallelism (`std::thread::available_parallelism`) the
    /// baseline was produced under — throughput numbers from hosts with
    /// different core counts are not comparable.
    host_threads: u64,
    scenarios: Vec<Scenario>,
}

/// Builds the pinned provider pair for one topology: conventional UGAL
/// (all paths) and T-UGAL (class-limited table + balance adjustment).
fn providers(topo: &Arc<Dragonfly>) -> [(String, Arc<dyn PathProvider>); 2] {
    let ugal = PathTable::build_all(topo);
    let mut tvlb = PathTable::build_with_rule(topo, TVLB_RULE, TVLB_TABLE_SEED);
    tugal::balance::adjust(&mut tvlb, topo, &tugal::BalanceOptions::default());
    [
        (
            "UGAL-L".into(),
            Arc::new(TableProvider::new(topo.clone(), ugal)) as Arc<dyn PathProvider>,
        ),
        (
            "T-UGAL-L".into(),
            Arc::new(TableProvider::new(topo.clone(), tvlb)) as Arc<dyn PathProvider>,
        ),
    ]
}

/// Runs one pinned scenario: both providers under one pattern over the
/// load grid × seeds, through a single [`ExperimentRunner`] batch.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    label: &str,
    topo: &Arc<Dragonfly>,
    provs: &[(String, Arc<dyn PathProvider>)],
    pattern: Arc<dyn TrafficPattern>,
    pattern_tag: &str,
    rates: &[f64],
    seeds: &[u64],
    cfg: &Config,
) -> Scenario {
    let mut runner = ExperimentRunner::new(topo.clone());
    for (series_label, provider) in provs {
        runner = runner.series(SeriesSpec {
            label: series_label.clone(),
            provider: provider.clone(),
            pattern: pattern.clone(),
            routing: RoutingAlgorithm::UgalL,
            cfg: cfg.clone().for_routing(RoutingAlgorithm::UgalL),
            faults: None,
        });
    }
    let (curves, summary, _) = match runner.run_recorded(rates, seeds, |_| NoopObserver) {
        Ok(out) => out,
        Err(e) => fatal(&format!("invalid experiment in scenario {label}"), e),
    };
    let delivered: u64 = curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| p.point.result.delivered))
        .sum();
    let wall_s = summary.wall_ms / 1e3;
    let cycles = summary.jobs as u64 * cfg.total_cycles();
    let scenario = Scenario {
        label: label.to_string(),
        config_digest: digest(&[
            &topo.params().to_string(),
            &format!("{TVLB_RULE:?} seed {TVLB_TABLE_SEED:#x}"),
            pattern_tag,
            &format!("{rates:?}"),
            &format!("{seeds:?}"),
            &format!("{cfg:?}"),
            // Every job runs one sequential engine; the constant keeps the
            // digests of baselines recorded with a shard count valid.
            "shards=1",
        ]),
        jobs: summary.jobs as u64,
        wall_ms: summary.wall_ms,
        jobs_per_sec: summary.jobs_per_sec,
        sim_cycles_per_sec: if wall_s > 0.0 {
            cycles as f64 / wall_s
        } else {
            0.0
        },
        delivered_flits_per_sec: if wall_s > 0.0 {
            delivered as f64 / wall_s
        } else {
            0.0
        },
        slowest: summary.slowest.clone(),
    };
    println!(
        "# {label}: {} ({:.0} cycles/s, {:.0} flits/s)",
        RunSummary {
            slowest: summary.slowest,
            ..summary
        }
        .oneline(),
        scenario.sim_cycles_per_sec,
        scenario.delivered_flits_per_sec,
    );
    scenario
}

/// The tiny CI suite: `dfly(2,4,2,5)`, two loads × two seeds.
fn tiny_suite(cfg: &Config) -> Vec<Scenario> {
    let topo = dfly(2, 4, 2, 5);
    let provs = providers(&topo);
    let seeds = [1, 2];
    vec![
        run_scenario(
            "tiny/dfly(2,4,2,5)/UR",
            &topo,
            &provs,
            Arc::new(Uniform::new(&topo)),
            "UR",
            &[0.1, 0.2],
            &seeds,
            cfg,
        ),
        run_scenario(
            "tiny/dfly(2,4,2,5)/SHIFT",
            &topo,
            &provs,
            Arc::new(Shift::new(&topo, 1, 0)),
            "SHIFT(1,0)",
            &[0.05, 0.1],
            &seeds,
            cfg,
        ),
    ]
}

/// The reference suite: `dfly(4,8,4,9)`, three loads × three seeds.
fn reference_suite(cfg: &Config) -> Vec<Scenario> {
    let topo = dfly(4, 8, 4, 9);
    println!(
        "# building candidate tables for {} ({} switches)...",
        topo.params(),
        topo.num_switches()
    );
    let provs = providers(&topo);
    let seeds = [1, 2, 3];
    vec![
        run_scenario(
            "ref/dfly(4,8,4,9)/UR",
            &topo,
            &provs,
            Arc::new(Uniform::new(&topo)),
            "UR",
            &[0.1, 0.2, 0.3],
            &seeds,
            cfg,
        ),
        run_scenario(
            "ref/dfly(4,8,4,9)/SHIFT",
            &topo,
            &provs,
            Arc::new(Shift::new(&topo, 1, 0)),
            "SHIFT(1,0)",
            &[0.05, 0.1, 0.15],
            &seeds,
            cfg,
        ),
    ]
}

/// The `scale/` suite: one small batch per topology (conventional
/// UGAL-L, uniform traffic, one load, two seeds).  The labels end in
/// `/shards=1` so they keep matching the committed baseline rows.
fn scale_suite(cfg: &Config) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (p, a, h, g) in [(4, 7, 4, 8), (4, 8, 4, 9)] {
        let topo = dfly(p, a, h, g);
        println!(
            "# building candidate tables for {} ({} switches)...",
            topo.params(),
            topo.num_switches()
        );
        let ugal = PathTable::build_all(&topo);
        let prov: [(String, Arc<dyn PathProvider>); 1] = [(
            "UGAL-L".into(),
            Arc::new(TableProvider::new(topo.clone(), ugal)) as Arc<dyn PathProvider>,
        )];
        out.push(run_scenario(
            &format!("scale/dfly({p},{a},{h},{g})/UR/shards=1"),
            &topo,
            &prov,
            Arc::new(Uniform::new(&topo)),
            "UR",
            &[0.2],
            &[1, 2],
            cfg,
        ));
    }
    out
}

/// Compares `current` against a baseline file by scenario label; returns
/// the regression report lines (empty = pass).
fn check_regressions(current: &[Scenario], baseline: &BenchFile, tol: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for cur in current {
        let Some(base) = baseline.scenarios.iter().find(|s| s.label == cur.label) else {
            continue; // baseline lacks this scenario: nothing to compare
        };
        if base.config_digest != cur.config_digest {
            println!(
                "# check[{}]: baseline digest {} != current {}; skipping \
                 (different workload definitions are not comparable)",
                cur.label, base.config_digest, cur.config_digest
            );
            continue;
        }
        let floor = base.jobs_per_sec * (1.0 - tol);
        let verdict = if cur.jobs_per_sec < floor {
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "# check[{}]: {:.2} jobs/s vs baseline {:.2} (floor {:.2}) — {verdict}",
            cur.label, cur.jobs_per_sec, base.jobs_per_sec, floor
        );
        if cur.jobs_per_sec < floor {
            failures.push(format!(
                "{}: {:.2} jobs/s is a >{:.0}% regression from {:.2}",
                cur.label,
                cur.jobs_per_sec,
                tol * 100.0,
                base.jobs_per_sec
            ));
        }
    }
    failures
}

fn main() {
    let env = HarnessEnv::get();
    let out_path = &env.perf_out;
    // Load the baseline before the run (the run overwrites the file).  A
    // missing or malformed baseline is a typed setup error (exit 2 via
    // `fatal`), not a panic: the regression gate must fail loudly and
    // distinguishably when its reference input is unusable.
    let baseline: Option<BenchFile> = env.perf_check.as_ref().map(|p| {
        let data = match std::fs::read_to_string(p) {
            Ok(d) => d,
            Err(e) => fatal(
                &format!("TUGAL_PERF_CHECK={p}"),
                format!("cannot read baseline: {e}"),
            ),
        };
        match serde_json::from_str(&data) {
            Ok(f) => f,
            Err(e) => fatal(
                &format!("TUGAL_PERF_CHECK={p}"),
                format!("malformed baseline: {e:?}"),
            ),
        }
    });

    let cfg = sim_config();
    println!(
        "# perf: netsim throughput baseline ({} windows of {} cycles)",
        cfg.warmup_windows + 1,
        cfg.window
    );
    let mut scenarios = tiny_suite(&cfg);
    if !env.tiny {
        scenarios.extend(reference_suite(&cfg));
        scenarios.extend(scale_suite(&cfg));
    }

    let file = BenchFile {
        id: "perf".into(),
        full_fidelity: tugal_bench::full_fidelity(),
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        scenarios,
    };
    let json = match serde_json::to_string_pretty(&file) {
        Ok(j) => j,
        Err(e) => fatal("serializing bench file", format!("{e:?}")),
    };
    if let Err(e) = std::fs::write(out_path, json) {
        fatal(&format!("writing {out_path}"), e);
    }
    println!("# wrote {out_path}");

    if let Some(baseline) = baseline {
        let failures = check_regressions(&file.scenarios, &baseline, env.perf_tolerance);
        if !failures.is_empty() {
            eprintln!("perf regression check failed:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!(
            "# regression check passed (tolerance {:.0}%)",
            env.perf_tolerance * 100.0
        );
    }
}
