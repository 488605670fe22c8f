//! Trace validator: checks a `TUGAL_TRACE` JSONL file line-by-line
//! against the span schema (the CI gate of the profile-smoke job).
//!
//! Usage: `tracecheck <trace.jsonl>`.  Every line must parse as a
//! [`tugal_netsim::trace::TraceSpan`] and satisfy its event's required
//! fields; on top of the per-line schema, batch events must pair up
//! (`batch_start` count == `batch_end` count) and every `job_end` must
//! belong to a batch.  Exit 0 prints a one-line summary; any violation
//! prints the offending line numbers and exits 1.

use tugal_netsim::trace::validate_line;

fn main() {
    tugal_bench::env::HarnessEnv::get();
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: tracecheck <trace.jsonl>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    let mut errors = Vec::new();
    let mut counts = std::collections::BTreeMap::new();
    let mut spans = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        match validate_line(line) {
            Ok(()) => {
                spans += 1;
                // validate_line guarantees the line parses; re-read just
                // the event tag for the pairing checks.
                if let Ok(span) = serde_json::from_str::<tugal_netsim::trace::TraceSpan>(line) {
                    *counts.entry(span.ev).or_insert(0usize) += 1;
                }
            }
            Err(e) => errors.push(format!("line {}: {e}", i + 1)),
        }
    }

    let starts = counts.get("batch_start").copied().unwrap_or(0);
    let ends = counts.get("batch_end").copied().unwrap_or(0);
    if starts != ends {
        errors.push(format!(
            "unbalanced batches: {starts} batch_start vs {ends} batch_end"
        ));
    }
    let job_ends = counts.get("job_end").copied().unwrap_or(0);
    if job_ends > 0 && starts == 0 {
        errors.push(format!("{job_ends} job_end spans outside any batch"));
    }

    if !errors.is_empty() {
        eprintln!("tracecheck: {path}: {} violation(s)", errors.len());
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("# tracecheck: {path}: {spans} spans ok ({starts} batches, {job_ends} job_end)",);
}
