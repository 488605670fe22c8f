//! The figure registry behind the `fig` binary: one entry per table,
//! figure and study of the reproduction.
//!
//! The paper's thirteen latency-vs-load figures (Figs 6–18) share one body
//! and are plain `Curve` rows run by one function.  Every other entry runs
//! a function of its own: the tables and Step-1 figures, the ablations,
//! and the link-load, fault and zoo studies.
//!
//! Each process runs one figure: the process-wide run summary, LP
//! statistics, T-VLB digests and failed-job count feed the figure's JSON
//! record and the exit code, so the caller ends the process with
//! [`crate::finish`] after [`Figure::run`].

mod ablations;
mod faults;
mod linkload;
mod tables;
mod zoo;

use crate::*;
use std::sync::Arc;
use tugal_netsim::RoutingAlgorithm::{self, Par, UgalG, UgalL};
use tugal_routing::VcScheme;
use tugal_topology::Dragonfly;
use tugal_traffic::{Mixed, NodePermutation, Shift, TMixed, TrafficPattern};

/// One runnable entry of the registry.
pub struct Figure {
    /// The id `fig <id>` takes; also the `results/<id>.json` name.
    pub id: &'static str,
    /// One line for the listing of a bare `fig`.
    pub about: &'static str,
    /// Prints the figure and writes its JSON record.
    pub run: fn(),
}

impl Figure {
    const fn new(id: &'static str, about: &'static str, run: fn()) -> Self {
        Figure { id, about, run }
    }
}

/// The candidate set a curve series routes over.
#[derive(Clone, Copy)]
enum Paths {
    /// Conventional UGAL: every VLB path ([`ugal_provider`]).
    Ugal,
    /// T-UGAL: the topology-custom VLB set of Algorithm 1
    /// ([`tvlb_provider`]).
    Tvlb,
}

/// One series of a curve: legend label, candidate set, routing, and an
/// edit of the mode's simulator configuration for that routing.
type CurveSeries = (&'static str, Paths, RoutingAlgorithm, fn(&mut Config));

/// A latency-vs-offered-load figure as data.
struct Curve {
    /// Figure id.
    id: &'static str,
    /// Title printed in the figure's header.
    title: &'static str,
    /// Topology `(p, a, h, g)`.
    topo: (u32, u32, u32, u32),
    /// The traffic pattern on that topology.
    pattern: fn(&Arc<Dragonfly>) -> Arc<dyn TrafficPattern>,
    /// The series, in legend order.
    series: &'static [CurveSeries],
    /// Highest offered load of the [`rate_grid`].
    rate_max: f64,
    /// Offered loads that replace the grid in quick mode.
    quick_rates: Option<&'static [f64]>,
}

/// Runs a [`Curve`]: both providers, one batch over every series, then the
/// chosen T-VLB rule and the figure.
fn curve(c: &Curve) {
    let (p, a, h, g) = c.topo;
    let topo = dfly(p, a, h, g);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern = (c.pattern)(&topo);
    let rates = match c.quick_rates {
        Some(rates) if !full_fidelity() => rates.to_vec(),
        _ => rate_grid(c.rate_max),
    };
    let entries: Vec<_> = c
        .series
        .iter()
        .map(|&(label, paths, routing, edit)| {
            let mut cfg = sim_config().for_routing(routing);
            edit(&mut cfg);
            let provider = match paths {
                Paths::Ugal => ugal.clone(),
                Paths::Tvlb => tvlb.clone(),
            };
            (label.to_string(), provider, routing, cfg)
        })
        .collect();
    let series = run_series_cfg(&topo, &pattern, &entries, &rates, None);
    println!("# T-VLB = {chosen}");
    print_figure(c.id, c.title, &series);
}

fn keep(_: &mut Config) {}

fn latency<const LOCAL: u32, const GLOBAL: u32>(c: &mut Config) {
    (c.local_latency, c.global_latency) = (LOCAL, GLOBAL);
}

fn compact_vcs(c: &mut Config) {
    (c.vc_scheme, c.num_vcs) = (VcScheme::Compact, 4);
}

fn per_hop_vcs(c: &mut Config) {
    (c.vc_scheme, c.num_vcs) = (VcScheme::PerHop, 6);
}

const L_AND_PAR: &[CurveSeries] = &[
    ("UGAL-L", Paths::Ugal, UgalL, keep),
    ("T-UGAL-L", Paths::Tvlb, UgalL, keep),
    ("PAR", Paths::Ugal, Par, keep),
    ("T-PAR", Paths::Tvlb, Par, keep),
];

const G: &[CurveSeries] = &[
    ("UGAL-G", Paths::Ugal, UgalG, keep),
    ("T-UGAL-G", Paths::Tvlb, UgalG, keep),
];

const ALL_SIX: &[CurveSeries] = &[
    ("UGAL-L", Paths::Ugal, UgalL, keep),
    ("T-UGAL-L", Paths::Tvlb, UgalL, keep),
    ("PAR", Paths::Ugal, Par, keep),
    ("T-PAR", Paths::Tvlb, Par, keep),
    ("UGAL-G", Paths::Ugal, UgalG, keep),
    ("T-UGAL-G", Paths::Tvlb, UgalG, keep),
];

/// Figure 6: UGAL-L, T-UGAL-L, PAR and T-PAR under the adversarial
/// shift(2,0).  Paper numbers: UGAL-L saturates ≈0.23 vs T-UGAL-L ≈0.29;
/// PAR ≈0.29 vs T-PAR ≈0.38; T- variants also have lower latency before
/// saturation.
const FIG6: Curve = Curve {
    id: "fig6",
    title: "adversarial shift(2,0), dfly(4,8,4,9), UGAL-L/PAR vs T- variants",
    topo: (4, 8, 4, 9),
    pattern: |t| shift(t, 2, 0),
    series: L_AND_PAR,
    rate_max: 0.5,
    quick_rates: None,
};

/// Figure 7: UGAL-G and T-UGAL-G under shift(2,0).  Paper numbers:
/// saturation 0.23 vs 0.30; at load 0.1 latency 61.2 vs 54.2 cycles.
const FIG7: Curve = Curve {
    id: "fig7",
    title: "adversarial shift(2,0), dfly(4,8,4,9), UGAL-G vs T-UGAL-G",
    topo: (4, 8, 4, 9),
    pattern: |t| shift(t, 2, 0),
    series: G,
    rate_max: 0.5,
    quick_rates: None,
};

/// Figure 8: UGAL-L/PAR and T- variants under a random node permutation.
/// Paper numbers: UGAL-L saturates ≈0.63 vs T-UGAL-L ≈0.68 (smaller gains
/// than the adversarial case — fewer packets ride VLB paths).
const FIG8: Curve = Curve {
    id: "fig8",
    title: "random permutation, dfly(4,8,4,9), UGAL-L/PAR vs T- variants",
    topo: (4, 8, 4, 9),
    pattern: |t| Arc::new(NodePermutation::random(t, 0xF18)),
    series: L_AND_PAR,
    rate_max: 0.9,
    quick_rates: None,
};

/// Figure 9: UGAL-G and T-UGAL-G under a random node permutation.  Paper
/// numbers: saturation 0.59 vs 0.66; similar latency at low load.
const FIG9: Curve = Curve {
    id: "fig9",
    title: "random permutation, dfly(4,8,4,9), UGAL-G vs T-UGAL-G",
    topo: (4, 8, 4, 9),
    pattern: |t| Arc::new(NodePermutation::random(t, 0xF19)),
    series: G,
    rate_max: 0.9,
    quick_rates: None,
};

/// Figure 10: MIXED(75,25) — 75% of nodes send uniform traffic, 25%
/// adversarial.  Paper numbers: PAR saturates ≈0.40 vs T-PAR ≈0.46 (+15%).
const FIG10: Curve = Curve {
    id: "fig10",
    title: "MIXED(75,25), dfly(4,8,4,17), UGAL-L/PAR vs T- variants",
    topo: (4, 8, 4, 17),
    pattern: |t| Arc::new(Mixed::new(t, 75, Shift::new(t, 1, 0), 0xA10)),
    series: L_AND_PAR,
    rate_max: 0.6,
    quick_rates: None,
};

/// Figure 11: MIXED(25,75), mostly adversarial.  Paper numbers: PAR
/// saturates ≈0.25 vs T-PAR ≈0.30 (+20%); the more adversarial the mix,
/// the larger T-UGAL's advantage.
const FIG11: Curve = Curve {
    id: "fig11",
    title: "MIXED(25,75), dfly(4,8,4,17), UGAL-L/PAR vs T- variants",
    topo: (4, 8, 4, 17),
    pattern: |t| Arc::new(Mixed::new(t, 25, Shift::new(t, 1, 0), 0xA11)),
    series: L_AND_PAR,
    rate_max: 0.45,
    quick_rates: None,
};

/// Figure 12: time-domain TMIXED(50,50) — every packet is uniform with
/// probability 50% and adversarial otherwise.
const FIG12: Curve = Curve {
    id: "fig12",
    title: "TMIXED(50,50), dfly(4,8,4,17), UGAL-L/PAR vs T- variants",
    topo: (4, 8, 4, 17),
    pattern: |t| Arc::new(TMixed::new(t, 50, Shift::new(t, 1, 0))),
    series: L_AND_PAR,
    rate_max: 0.55,
    quick_rates: None,
};

/// Figure 13: shift(1,0) on the large dfly(13,26,13,27) (9126 nodes) for
/// all six routings.  The explicit path table does not fit, so both UGAL
/// and T-UGAL run through the O(1)-memory samplers; quick mode also
/// shrinks the rate grid.
const FIG13: Curve = Curve {
    id: "fig13",
    title: "adversarial shift(1,0), dfly(13,26,13,27), all six routings",
    topo: (13, 26, 13, 27),
    pattern: |t| shift(t, 1, 0),
    series: ALL_SIX,
    rate_max: 0.5,
    quick_rates: Some(&[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]),
};

/// Figure 14: MIXED(50,50) on the large dfly(13,26,13,27) for all six
/// routings.
const FIG14: Curve = Curve {
    id: "fig14",
    title: "MIXED(50,50), dfly(13,26,13,27), all six routings",
    topo: (13, 26, 13, 27),
    pattern: |t| Arc::new(Mixed::new(t, 50, Shift::new(t, 1, 0), 0xA14)),
    series: ALL_SIX,
    rate_max: 0.6,
    quick_rates: Some(&[0.05, 0.1, 0.2, 0.3, 0.4]),
};

/// Figure 15: link-latency sensitivity, UGAL-G vs T-UGAL-G under a random
/// permutation, with (local, global) latencies (10, 15) and (40, 60).
/// Legends follow the paper: `routing(local,global)`.
const FIG15: Curve = Curve {
    id: "fig15",
    title: "link-latency sensitivity, UGAL-G, dfly(4,8,4,17), random permutation",
    topo: (4, 8, 4, 17),
    pattern: |t| Arc::new(NodePermutation::random(t, 0xF15)),
    series: &[
        ("UGAL_G(10,15)", Paths::Ugal, UgalG, latency::<10, 15>),
        ("T_UGAL_G(10,15)", Paths::Tvlb, UgalG, latency::<10, 15>),
        ("UGAL_G(40,60)", Paths::Ugal, UgalG, latency::<40, 60>),
        ("T_UGAL_G(40,60)", Paths::Tvlb, UgalG, latency::<40, 60>),
    ],
    rate_max: 0.8,
    quick_rates: None,
};

/// Figure 16: buffer-depth sensitivity, UGAL-L vs T-UGAL-L under
/// MIXED(50,50), with per-VC buffers of 8 and 32 flits.  Legends follow
/// the paper: `routing(buffer)`.
const FIG16: Curve = Curve {
    id: "fig16",
    title: "buffer-depth sensitivity, UGAL-L, dfly(4,8,4,17), MIXED(50,50)",
    topo: (4, 8, 4, 17),
    pattern: |t| Arc::new(Mixed::new(t, 50, Shift::new(t, 1, 0), 0xA16)),
    series: &[
        ("UGAL_L(8)", Paths::Ugal, UgalL, |c| c.buf_size = 8),
        ("T_UGAL_L(8)", Paths::Tvlb, UgalL, |c| c.buf_size = 8),
        ("UGAL_L(32)", Paths::Ugal, UgalL, |c| c.buf_size = 32),
        ("T_UGAL_L(32)", Paths::Tvlb, UgalL, |c| c.buf_size = 32),
    ],
    rate_max: 0.55,
    quick_rates: None,
};

/// Figure 17: router-speedup sensitivity, PAR vs T-PAR under
/// MIXED(25,75), with speedups 1 and 2.  Legends follow the paper:
/// `routing(speedup)`.
const FIG17: Curve = Curve {
    id: "fig17",
    title: "speedup sensitivity, PAR, dfly(4,8,4,17), MIXED(25,75)",
    topo: (4, 8, 4, 17),
    pattern: |t| Arc::new(Mixed::new(t, 25, Shift::new(t, 1, 0), 0xA17)),
    series: &[
        ("PAR(1)", Paths::Ugal, Par, |c| c.speedup = 1),
        ("T_PAR(1)", Paths::Tvlb, Par, |c| c.speedup = 1),
        ("PAR(2)", Paths::Ugal, Par, |c| c.speedup = 2),
        ("T_PAR(2)", Paths::Tvlb, Par, |c| c.speedup = 2),
    ],
    rate_max: 0.45,
    quick_rates: None,
};

/// Figure 18: VC-scheme sensitivity, UGAL-G vs T-UGAL-G under shift(1,0),
/// with `routing(4)` (the compact Won et al. scheme, 4 VCs) and
/// `routing(6)` (a new VC every hop, 6 VCs).  Paper finding: `routing(6)`
/// outperforms `routing(4)` (more buffers per link, less head-of-line
/// blocking), and T-UGAL-G beats UGAL-G under both schemes.
const FIG18: Curve = Curve {
    id: "fig18",
    title: "VC-scheme sensitivity, UGAL-G, dfly(4,8,4,9), shift(1,0)",
    topo: (4, 8, 4, 9),
    pattern: |t| shift(t, 1, 0),
    series: &[
        ("UGAL_G(4)", Paths::Ugal, UgalG, compact_vcs),
        ("T_UGAL_G(4)", Paths::Tvlb, UgalG, compact_vcs),
        ("UGAL_G(6)", Paths::Ugal, UgalG, per_hop_vcs),
        ("T_UGAL_G(6)", Paths::Tvlb, UgalG, per_hop_vcs),
    ],
    rate_max: 0.5,
    quick_rates: None,
};

/// Every figure, in listing order.
pub const FIGURES: &[Figure] = &[
    Figure::new("table1", "Table 1: Step-1 data points", tables::table1),
    Figure::new("table2", "Table 2: topologies", tables::table2),
    Figure::new("table3", "Table 3: network parameters", tables::table3),
    Figure::new("fig4", "Step-1 sweep, dfly(4,8,4,9)", tables::fig4),
    Figure::new("fig5", "Step-1 sweep, dfly(4,8,4,33)", tables::fig5),
    Figure::new(FIG6.id, FIG6.title, || curve(&FIG6)),
    Figure::new(FIG7.id, FIG7.title, || curve(&FIG7)),
    Figure::new(FIG8.id, FIG8.title, || curve(&FIG8)),
    Figure::new(FIG9.id, FIG9.title, || curve(&FIG9)),
    Figure::new(FIG10.id, FIG10.title, || curve(&FIG10)),
    Figure::new(FIG11.id, FIG11.title, || curve(&FIG11)),
    Figure::new(FIG12.id, FIG12.title, || curve(&FIG12)),
    Figure::new(FIG13.id, FIG13.title, || curve(&FIG13)),
    Figure::new(FIG14.id, FIG14.title, || curve(&FIG14)),
    Figure::new(FIG15.id, FIG15.title, || curve(&FIG15)),
    Figure::new(FIG16.id, FIG16.title, || curve(&FIG16)),
    Figure::new(FIG17.id, FIG17.title, || curve(&FIG17)),
    Figure::new(FIG18.id, FIG18.title, || curve(&FIG18)),
    Figure::new(
        "ablation_arrangement",
        "UGAL-L per global-link arrangement",
        ablations::ablation_arrangement,
    ),
    Figure::new(
        "ablation_balance",
        "Step-2 load-balance adjustment on/off",
        ablations::ablation_balance,
    ),
    Figure::new(
        "ablation_candidates",
        "k VLB candidates per decision vs T-UGAL",
        ablations::ablation_candidates,
    ),
    Figure::new(
        "ablation_monotonicity",
        "draw-proportional vs monotone-classes model",
        ablations::ablation_monotonicity,
    ),
    Figure::new(
        "ablation_strategic",
        "random vs strategic 5-hop halves",
        ablations::ablation_strategic,
    ),
    Figure::new(
        "ablation_threshold",
        "UGAL-L bias threshold T",
        ablations::ablation_threshold,
    ),
    Figure::new(
        "fig_faults",
        "global-link failure sweep (TUGAL_TINY=1: dfly(2,4,2,5))",
        faults::fig_faults,
    ),
    Figure::new(
        "fig_linkload",
        "global-link load profile, UGAL-L vs T-UGAL-L",
        linkload::fig_linkload,
    ),
    Figure::new(
        "fig_zoo",
        "arrangement x global_lag grid (TUGAL_TINY=1: dfly(2,4,2,5))",
        zoo::fig_zoo,
    ),
];

/// The registry entry for `id`.
pub fn find(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}
