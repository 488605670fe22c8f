//! Phase-attribution harness: where do the engine's cycles go?
//!
//! Runs the pinned `scale/` scenarios (the same workload definitions as
//! `perf`'s scale suite: single UGAL-L series, uniform traffic, one load ×
//! two seeds) with a live [`tugal_netsim::EngineProf`] on every job,
//! prints a per-phase attribution table, and writes the full breakdown to
//! `results/profile.json`.
//!
//! The profiler's marks tile the engine's run loop, so attribution is
//! near-total by construction; the harness enforces that ≥ 90% of every
//! scenario's engine wall-clock is attributed (exit 1 otherwise) — a
//! regression here means someone added engine work outside the phase
//! tiling.
//!
//! Environment knobs:
//!
//! * `TUGAL_TINY=1` — only `dfly(2,4,2,5)` (CI smoke mode).
//! * `TUGAL_FULL=1` — paper-scale windows.
//! * `TUGAL_PROF_OUT=<path>` — output path (default
//!   `results/profile.json`).

use std::sync::Arc;
use tugal_bench::env::HarnessEnv;
use tugal_bench::{dfly, fatal, sim_config};
use tugal_netsim::runner::{ExperimentRunner, SeriesSpec};
use tugal_netsim::trace::phase_totals;
use tugal_netsim::{NoopObserver, Phase, ProfileReport, RoutingAlgorithm};
use tugal_routing::{PathProvider, PathTable, TableProvider};
use tugal_traffic::Uniform;

#[derive(serde::Serialize)]
struct PhaseRow {
    phase: String,
    ns: u64,
    /// Share of the scenario's total attributed time.
    share: f64,
}

#[derive(serde::Serialize)]
struct ProfScenario {
    /// Same label scheme as `perf`'s `scale/` suite.
    label: String,
    jobs: u64,
    /// Summed engine wall-clock over every job, ns.
    wall_ns: u64,
    /// Nanoseconds the phase marks accounted for.
    attributed_ns: u64,
    /// `attributed_ns / wall_ns` — the harness enforces ≥ 0.9.
    attributed_fraction: f64,
    phases: Vec<PhaseRow>,
}

/// Runs one pinned scenario with profiling on and folds every job's
/// report into one scenario-level breakdown.
fn profile_scenario(
    label: &str,
    topo: &Arc<tugal_topology::Dragonfly>,
    provider: &Arc<dyn PathProvider>,
    cfg: &tugal_netsim::Config,
) -> ProfScenario {
    let runner = ExperimentRunner::new(topo.clone())
        .with_profiling(true)
        .series(SeriesSpec {
            label: "UGAL-L".into(),
            provider: provider.clone(),
            pattern: Arc::new(Uniform::new(topo)),
            routing: RoutingAlgorithm::UgalL,
            cfg: cfg.clone().for_routing(RoutingAlgorithm::UgalL),
            faults: None,
        });
    let (_, _, records) = match runner.run_recorded(&[0.2], &[1, 2], |_| NoopObserver) {
        Ok(out) => out,
        Err(e) => fatal("invalid profiling scenario", e),
    };
    let mut agg = ProfileReport::default();
    let mut jobs = 0u64;
    for rec in &records {
        let Some(p) = &rec.profile else {
            fatal(
                &format!("profiling scenario {label}"),
                "job carried no profile (runner profiling off?)",
            )
        };
        agg.absorb(p);
        jobs += 1;
    }
    let wall_ns = agg.wall_ns();
    let attributed_ns: u64 = agg.shards.iter().map(|s| s.attributed_ns()).sum();
    let phases = phase_totals(&agg)
        .into_iter()
        .map(|t| PhaseRow {
            share: t.ns as f64 / attributed_ns.max(1) as f64,
            phase: t.phase,
            ns: t.ns,
        })
        .collect();
    ProfScenario {
        label: label.to_string(),
        jobs,
        wall_ns,
        attributed_ns,
        attributed_fraction: agg.attributed_fraction(),
        phases,
    }
}

fn main() {
    let env = HarnessEnv::get();
    let out_path = &env.prof_out;
    let cfg = sim_config();
    println!(
        "# prof: engine phase attribution ({} windows of {} cycles)",
        cfg.warmup_windows + 1,
        cfg.window
    );

    let topologies: Vec<(u32, u32, u32, u32)> = if env.tiny {
        vec![(2, 4, 2, 5)]
    } else {
        vec![(4, 7, 4, 8), (4, 8, 4, 9)]
    };

    let mut scenarios = Vec::new();
    for (p, a, h, g) in topologies {
        let topo = dfly(p, a, h, g);
        println!(
            "# building candidate tables for {} ({} switches)...",
            topo.params(),
            topo.num_switches()
        );
        let ugal = PathTable::build_all(&topo);
        let provider: Arc<dyn PathProvider> = Arc::new(TableProvider::new(topo.clone(), ugal));
        let label = format!("scale/dfly({p},{a},{h},{g})/UR/shards=1");
        let s = profile_scenario(&label, &topo, &provider, &cfg);
        println!(
            "# {label}: {:.1}% of {:.1} ms engine wall-clock attributed",
            100.0 * s.attributed_fraction,
            s.wall_ns as f64 / 1e6
        );
        for row in &s.phases {
            println!(
                "#   {:>10}  {:>10.2} ms  {:>5.1}%",
                row.phase,
                row.ns as f64 / 1e6,
                100.0 * row.share
            );
        }
        scenarios.push(s);
    }

    // Every phase name the report can carry is a real phase (belt and
    // braces for the JSON consumers).
    let known: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    for s in &scenarios {
        for row in &s.phases {
            assert!(
                known.contains(&row.phase.as_str()),
                "unknown phase {:?}",
                row.phase
            );
        }
    }

    #[derive(serde::Serialize)]
    struct Out {
        id: String,
        host_threads: u64,
        scenarios: Vec<ProfScenario>,
    }
    let out = Out {
        id: "profile".into(),
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        scenarios,
    };
    if let Err(e) = std::fs::create_dir_all("results") {
        fatal("creating results/", e);
    }
    let json = match serde_json::to_string_pretty(&out) {
        Ok(j) => j,
        Err(e) => fatal("serializing profile file", format!("{e:?}")),
    };
    if let Err(e) = std::fs::write(out_path, json) {
        fatal(&format!("writing {out_path}"), e);
    }
    println!("# wrote {out_path}");

    let lagging: Vec<&ProfScenario> = out
        .scenarios
        .iter()
        .filter(|s| s.attributed_fraction < 0.90)
        .collect();
    if !lagging.is_empty() {
        eprintln!("phase attribution check failed (marks no longer tile the run loop?):");
        for s in lagging {
            eprintln!(
                "  {}: only {:.1}% of engine wall-clock attributed",
                s.label,
                100.0 * s.attributed_fraction
            );
        }
        std::process::exit(1);
    }
    println!("# attribution check passed (every scenario ≥ 90%)");
}
