//! Re-runs replay capsules (`logs/capsules/*.json`) and asserts each one
//! reproduces its recorded failure.
//!
//! ```text
//! replay <capsule.json> [more.json ...]
//! ```
//!
//! For every capsule: the topology, provider, pattern, configuration,
//! budget and fault schedule are rebuilt from the capsule's specs, the
//! single (rate, seed) job is re-run under the runner's isolation, and the
//! outcome is compared against the recorded one — panics by exact message,
//! watchdog trips by exact trip cycle, wall-clock timeouts by kind only.
//! Exit 0 when every capsule reproduces, 1 when any does not, 2 on a
//! capsule that cannot be read or rebuilt.

use std::path::Path;
use std::sync::Arc;
use tugal_bench::{capsule, fatal};
use tugal_obs::render_stall;
use tugal_topology::Dragonfly;

fn main() {
    tugal_bench::env::HarnessEnv::get();
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        fatal("usage", "replay <capsule.json> [more.json ...]");
    }
    let mut unreproduced = 0usize;
    for path in &paths {
        let c = match capsule::read_capsule(Path::new(path)) {
            Ok(c) => c,
            Err(e) => fatal("loading capsule", e),
        };
        println!(
            "# replaying {path}: {} on {:?}, rate {} seed {} (recorded: {})",
            c.label, c.topology, c.rate, c.seed, c.outcome
        );
        match capsule::replay(&c) {
            Ok(rep) => {
                if let Some(stall) = rep.record.outcome.stall() {
                    let topo = Dragonfly::new(c.topology).ok().map(Arc::new);
                    for line in render_stall(stall, topo.as_deref()).lines() {
                        println!("#   {line}");
                    }
                }
                if rep.reproduced {
                    println!(
                        "# reproduced: {} ({})",
                        rep.record.outcome.name(),
                        rep.expectation
                    );
                } else {
                    eprintln!(
                        "# NOT reproduced: got {}, capsule recorded {} (checked: {})",
                        rep.record.outcome.name(),
                        c.outcome,
                        rep.expectation
                    );
                    unreproduced += 1;
                }
            }
            Err(e) => fatal(&format!("replaying {path}"), e),
        }
    }
    std::process::exit(if unreproduced > 0 { 1 } else { 0 });
}
