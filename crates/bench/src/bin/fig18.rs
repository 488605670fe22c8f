//! Figure 18: sensitivity to the VC allocation scheme — UGAL-G vs
//! T-UGAL-G on dfly(4,8,4,9) under adversarial shift(1,0), with
//! `routing(4)` (the compact Won et al. scheme, 4 VCs) and `routing(6)`
//! (a new VC every hop, 6 VCs).
//!
//! Paper finding: `routing(6)` outperforms `routing(4)` (more buffers per
//! link, less head-of-line blocking), and T-UGAL-G beats UGAL-G under
//! both schemes.

use tugal_bench::*;
use tugal_netsim::RoutingAlgorithm;
use tugal_routing::VcScheme;

fn main() {
    let topo = dfly(4, 8, 4, 9);
    let (tvlb, chosen) = tvlb_provider(&topo);
    let ugal = ugal_provider(&topo);
    let pattern = shift(&topo, 1, 0);
    let mut entries = Vec::new();
    for (scheme, vcs) in [(VcScheme::Compact, 4u8), (VcScheme::PerHop, 6)] {
        for (name, provider) in [("UGAL_G", &ugal), ("T_UGAL_G", &tvlb)] {
            let mut cfg = sim_config();
            cfg.vc_scheme = scheme;
            cfg.num_vcs = vcs;
            entries.push((
                format!("{name}({vcs})"),
                provider.clone(),
                RoutingAlgorithm::UgalG,
                cfg,
            ));
        }
    }
    let series = run_series_cfg(&topo, &pattern, &entries, &rate_grid(0.5), None);
    println!("# T-VLB = {chosen}");
    print_figure(
        "fig18",
        "VC-scheme sensitivity, UGAL-G, dfly(4,8,4,9), shift(1,0)",
        &series,
    );
    tugal_bench::finish();
}
