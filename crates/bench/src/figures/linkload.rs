//! Global-link load profile: UGAL-L vs T-UGAL-L on dfly(4,8,4,9) under the
//! adversarial shift(2,0) pattern, with the metrics layer forced on.
//!
//! The paper's argument for topology-custom VLB is that conventional UGAL
//! concentrates adversarial load on a few minimal global links while T-UGAL
//! spreads it; the scalar `max_channel_util` hints at this, but only the
//! per-channel load vector shows the whole distribution.  This harness
//! prints that distribution as load deciles over all global channels, plus
//! the decision mix and exact latency percentiles the metrics layer adds.

use crate::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_obs::MetricsConfig;

/// `p`-th percentile of an ascending-sorted load vector (nearest rank).
fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The global-link load profile figure.
pub fn fig_linkload() {
    // Telemetry is the whole point of this figure, so override the
    // environment: summary + per-channel loads, with time-series and
    // occupancy sampling at moderate cadences.
    force_metrics(MetricsConfig {
        enabled: true,
        sample_every: 500,
        occupancy_every: 250,
        per_channel: true,
    });

    let topo = dfly(4, 8, 4, 9);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern = shift(&topo, 2, 0);
    let rates = [0.1, 0.2];
    let series = run_series(
        &topo,
        &pattern,
        &[
            ("UGAL-L", ugal, RoutingAlgorithm::UgalL),
            ("T-UGAL-L", tvlb, RoutingAlgorithm::UgalL),
        ],
        &rates,
    );
    println!("# T-VLB = {chosen}");

    // The load profile at the highest swept rate: per-global-channel loads
    // sorted ascending, reported as deciles so the two series' shapes are
    // comparable side by side.
    let last = rates.len() - 1;
    println!(
        "# global-link load profile @ rate {:.2} (flits/cycle per channel, sorted)",
        rates[last]
    );
    print!("{:>8}", "pctile");
    for s in &series {
        print!("\t{:>12}", s.label);
    }
    println!();
    let profiles: Vec<Vec<f64>> = series
        .iter()
        .map(|s| {
            let rep = &s.metrics[last];
            let mut loads = rep.links.per_global_load.clone();
            assert!(
                !loads.is_empty(),
                "{}: metrics layer produced no per-global-channel loads",
                s.label
            );
            loads.sort_by(f64::total_cmp);
            loads
        })
        .collect();
    for decile in (0..=10).map(|d| d as f64 * 10.0) {
        print!("{:>7.0}%", decile);
        for loads in &profiles {
            print!("\t{:>12.4}", pct(loads, decile));
        }
        println!();
    }

    for s in &series {
        let rep = &s.metrics[last];
        let d = &rep.decisions;
        println!(
            "# decisions[{}]: min_intra={} vlb_intra={} min_inter={} vlb_inter={} \
             par_reroutes={} (vlb_fraction {:.3})",
            s.label,
            d.min_intra,
            d.vlb_intra,
            d.min_inter,
            d.vlb_inter,
            d.par_reroutes,
            d.vlb_fraction()
        );
        println!(
            "# latency[{}]: exact p50 {:.1}, p99 {:.1} cycles over {} deliveries; \
             global load mean {:.4}, max {:.4}",
            s.label,
            rep.latency.p50,
            rep.latency.p99,
            rep.latency.count,
            rep.links.global.mean_load,
            rep.links.global.max_load
        );
    }

    print_figure(
        "fig_linkload",
        "global-link load profile, shift(2,0), dfly(4,8,4,9), UGAL-L vs T-UGAL-L",
        &series,
    );
}
