//! Runs one table, figure or study of the reproduction.
//!
//! ```text
//! fig <id>    run one figure (prints it and writes results/<id>.json)
//! fig         list the ids
//! ```
//!
//! The ids are the entries of [`tugal_bench::figures::FIGURES`].  Exit 0
//! when every job completed, 2 on a setup error (an unknown id, a bad
//! `TUGAL_*` variable), 3 when some jobs failed (see
//! [`tugal_bench::finish`]).

use tugal_bench::env::HarnessEnv;
use tugal_bench::{fatal, figures, finish};

fn main() {
    HarnessEnv::get();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            for f in figures::FIGURES {
                println!("{:<24}{}", f.id, f.about);
            }
        }
        [id] => {
            let Some(figure) = figures::find(id) else {
                fatal("unknown figure", format!("{id} (run `fig` for the list)"));
            };
            (figure.run)();
            finish();
        }
        _ => fatal("usage", "fig [<id>]"),
    }
}
