//! Resilience smoke harness: a tiny pinned sweep whose results file
//! contains only deterministic fields, so CI can kill it mid-batch,
//! re-run it against the same `TUGAL_JOURNAL`, and byte-compare the
//! output against an uninterrupted run.  The journal is the one resume
//! path: a killed invocation loses only its in-flight jobs, which the
//! re-run simulates from the start.
//!
//! Environment knobs:
//!
//! * `TUGAL_JOURNAL=<path>` — resume journal (handled by the shared sweep
//!   path; completed jobs are recorded as they finish and replayed on a
//!   re-invocation).
//! * `TUGAL_RESILIENCE_OUT=<path>` — where to write the deterministic
//!   results JSON (default `results/resilience.json`).
//! * `TUGAL_RESILIENCE_PANIC=1` — add a series whose every job panics
//!   (1 VC under UGAL-L), exercising job isolation, capsule writing and
//!   the failure exit code (3 via [`tugal_bench::finish`]).
//! * `TUGAL_RESILIENCE_TOPO=p,a,h,g` — override the default
//!   `dfly(2,4,2,5)`; the CI profile-smoke job uses `2,7,1,8`.
//!
//! All floating-point results are written as exact IEEE-754 bits: two runs
//! produce byte-identical files iff they produced bit-identical results.

use tugal_bench::env::HarnessEnv;
use tugal_bench::{
    dfly, fatal, finish, print_figure, run_series_cfg, shift, sim_config, ugal_provider, Series,
};
use tugal_netsim::RoutingAlgorithm;

#[derive(serde::Serialize)]
struct PointOut {
    rate_bits: u64,
    latency_bits: u64,
    throughput_bits: u64,
    p50_bits: u64,
    p99_bits: u64,
    delivered: u64,
    injected: u64,
    saturated: bool,
}

#[derive(serde::Serialize)]
struct Out {
    id: String,
    series: Vec<(String, Vec<PointOut>)>,
}

fn main() {
    let env = HarnessEnv::get();
    let out_path = &env.resilience_out;
    let (p, a, h, g) = env.resilience_topo;
    let topo = dfly(p, a, h, g);
    let provider = ugal_provider(&topo);
    let pattern = shift(&topo, 1, 0);
    let ugal_cfg = sim_config().for_routing(RoutingAlgorithm::UgalL);
    let vlb_cfg = sim_config().for_routing(RoutingAlgorithm::Vlb);
    let mut entries = vec![
        (
            "UGAL-L".to_string(),
            provider.clone(),
            RoutingAlgorithm::UgalL,
            ugal_cfg.clone(),
        ),
        (
            "VLB".to_string(),
            provider.clone(),
            RoutingAlgorithm::Vlb,
            vlb_cfg,
        ),
    ];
    if env.resilience_panic {
        // One VC cannot host UGAL-L's escape scheme: Config::validate
        // accepts it (it is a routing-specific minimum, not a structural
        // one) and Simulator::new panics — deterministically — inside the
        // runner's job isolation.
        let mut broken = ugal_cfg;
        broken.num_vcs = 1;
        entries.push((
            "PANIC".to_string(),
            provider,
            RoutingAlgorithm::UgalL,
            broken,
        ));
    }
    let rates = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
    let series = run_series_cfg(&topo, &pattern, &entries, &rates, None);
    let title = format!("resilience smoke sweep, {}, shift(1,0)", topo.params());
    print_figure("resilience", &title, &series);
    write_deterministic(out_path, &series);
    println!("# wrote {out_path}");
    finish();
}

/// Writes only bit-stable fields, excluding everything wall-clock.
fn write_deterministic(path: &str, series: &[Series]) {
    let out = Out {
        id: "resilience".into(),
        series: series
            .iter()
            .map(|s| {
                (
                    s.label.clone(),
                    s.points
                        .iter()
                        .map(|p| PointOut {
                            rate_bits: p.rate.to_bits(),
                            latency_bits: p.result.avg_latency.to_bits(),
                            throughput_bits: p.result.throughput.to_bits(),
                            p50_bits: p.result.latency_p50.to_bits(),
                            p99_bits: p.result.latency_p99.to_bits(),
                            delivered: p.result.delivered,
                            injected: p.result.injected,
                            saturated: p.result.saturated,
                        })
                        .collect(),
                )
            })
            .collect(),
    };
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                fatal(&format!("creating {}", parent.display()), e);
            }
        }
    }
    let json = match serde_json::to_string_pretty(&out) {
        Ok(j) => j,
        Err(e) => fatal("serializing resilience results", format!("{e:?}")),
    };
    if let Err(e) = std::fs::write(path, json) {
        fatal(&format!("writing {path}"), e);
    }
}
