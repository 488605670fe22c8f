//! Topology zoo sweep: UGAL-L vs T-UGAL-L across global-link arrangements
//! and parallel-cable (`global_lag`) multipliers.
//!
//! The paper wires its dragonflies with (a minor variation of) the
//! absolute arrangement; this harness re-runs the UGAL-L / T-UGAL-L
//! comparison of `fig_linkload` on the whole arrangement zoo — absolute,
//! relative, circulant, palmtree and a seeded random arrangement — each at
//! `global_lag` 1 and 2, under the adversarial shift(2,0) pattern with the
//! metrics layer forced on.
//!
//! Differential anchors built into the run:
//!
//! * the absolute/lag-1 grid point goes through the zoo construction path
//!   (`ArrangementSpec::parse` + `Dragonfly::with_shape`) and is asserted
//!   bit-for-bit equal to the plain `Dragonfly::new` baseline that
//!   `fig_linkload` runs — the zoo layer must be invisible at the default
//!   shape;
//! * every grid point must deliver traffic under both routings;
//! * each arrangement's coarse-grain LP solve chains a warm-start basis
//!   from lag 1 into lag 2 (the keyed cache re-maps whatever survives the
//!   channel renumbering), and every warm θ is asserted bit-identical to
//!   the plain cold model of the same shape.  Chain counters land in the
//!   `lp_stats` section of `results/fig_zoo.json`.
//!
//! `TUGAL_TINY=1` swaps in `dfly(2,4,2,5)` for CI smoke runs.

use crate::*;
use tugal_model::{modeled_throughput, modeled_throughput_warm, ModelVariant, ModelWarmCache};
use tugal_netsim::RoutingAlgorithm;
use tugal_obs::MetricsConfig;
use tugal_routing::VlbRule;

/// Seed of the random arrangement in the zoo grid.
const ZOO_SEED: u64 = 0x2007;

fn tiny() -> bool {
    env::HarnessEnv::get().tiny
}

/// The topology zoo figure.
pub fn fig_zoo() {
    // Per-channel telemetry on, exactly as fig_linkload configures it, so
    // the absolute/lag-1 anchor runs the identical code path.
    force_metrics(MetricsConfig {
        enabled: true,
        sample_every: 500,
        occupancy_every: 250,
        per_channel: true,
    });

    let (p, a, h, g) = if tiny() { (2, 4, 2, 5) } else { (4, 8, 4, 9) };
    let rates = [0.1, 0.2];
    let arrangements = ["absolute", "relative", "circulant", "palmtree"];
    let random_id = format!("random:{ZOO_SEED:#x}");

    // The fig_linkload baseline: plain construction, no zoo machinery.
    let base_topo = dfly(p, a, h, g);
    let (base_tvlb, base_chosen) = tvlb_provider(&base_topo);
    let base_ugal = ugal_provider(&base_topo);
    let base_pattern = shift(&base_topo, 2, 0);
    let baseline = run_series(
        &base_topo,
        &base_pattern,
        &[
            ("UGAL-L", base_ugal, RoutingAlgorithm::UgalL),
            ("T-UGAL-L", base_tvlb, RoutingAlgorithm::UgalL),
        ],
        &rates,
    );
    println!("# baseline T-VLB = {base_chosen}");

    let mut all_series = Vec::new();
    let last = rates.len() - 1;
    println!(
        "# shape grid @ rate {:.2}: throughput / max global util / mean global util",
        rates[last]
    );
    for spec in arrangements.iter().copied().chain([random_id.as_str()]) {
        // The LP basis chains lag 1 → lag 2 within one arrangement; lag 2
        // renumbers the global channels, so the keyed cache re-maps the
        // surviving rows/columns and the solver repairs the rest.
        let mut model_chain = ModelWarmCache::new();
        for lag in [1u32, 2] {
            let topo = dfly_shape(p, a, h, g, spec, lag);
            let (tvlb, chosen) = tvlb_provider(&topo);
            let ugal = ugal_provider(&topo);
            let pattern = shift(&topo, 2, 0);
            let label_u = format!("{spec} lag{lag} UGAL-L");
            let label_t = format!("{spec} lag{lag} T-UGAL-L");
            let series = run_series(
                &topo,
                &pattern,
                &[
                    (&label_u, ugal, RoutingAlgorithm::UgalL),
                    (&label_t, tvlb, RoutingAlgorithm::UgalL),
                ],
                &rates,
            );

            if spec == "absolute" && lag == 1 {
                // Differential anchor: the default shape through the zoo
                // path must reproduce the plain-construction baseline
                // exactly (labels differ, results may not).
                for (zoo, base) in series.iter().zip(&baseline) {
                    for (za, ba) in zoo.points.iter().zip(&base.points) {
                        assert_eq!(
                            za.result, ba.result,
                            "{}: absolute/lag1 zoo run diverged from the plain baseline",
                            zoo.label
                        );
                    }
                }
                println!("# absolute lag1 matches the plain-construction baseline");
            }
            for s in &series {
                assert!(
                    s.points.iter().all(|pt| pt.result.delivered > 0),
                    "{}: a grid point delivered no traffic",
                    s.label
                );
            }

            for s in &series {
                let r = &s.points[last].result;
                let rep = &s.metrics[last];
                println!(
                    "# {:<28} T-VLB={chosen}  thr {:.4}  gmax {:.4}  gmean {:.4}",
                    s.label, r.throughput, rep.links.global.max_load, rep.links.global.mean_load
                );
            }
            all_series.extend(series);

            // Coarse-grain LP throughput of this shape, warm-chained from
            // the previous lag; the plain (cache-free) model is the
            // bit-identity oracle.
            if let Some(demands) = pattern.demands() {
                match modeled_throughput_warm(
                    &topo,
                    &demands,
                    VlbRule::All,
                    ModelVariant::DrawProportional,
                    &mut model_chain,
                ) {
                    Ok(theta) => {
                        let plain = modeled_throughput(
                            &topo,
                            &demands,
                            VlbRule::All,
                            ModelVariant::DrawProportional,
                        )
                        .unwrap_or_else(|e| fatal("plain model solve", e));
                        assert_eq!(
                            theta.to_bits(),
                            plain.to_bits(),
                            "{spec} lag{lag}: warm-chained θ {theta} diverged from plain {plain}"
                        );
                        println!("# model[{spec} lag{lag}]: Γ = {theta:.4}");
                    }
                    Err(e) => println!("# model[{spec} lag{lag}]: failed ({e})"),
                }
            }
        }
        record_lp_stats(&format!("{spec} lag-chain"), &model_chain.stats);
    }

    print_figure(
        "fig_zoo",
        "arrangement x global_lag grid, shift(2,0), UGAL-L vs T-UGAL-L",
        &all_series,
    );
}
