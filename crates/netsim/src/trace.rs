//! Runner trace spans: structured JSONL telemetry for experiment batches.
//!
//! A [`TraceSink`] is an append-only JSONL file of [`TraceSpan`] events —
//! one `batch_start`/`batch_end` pair per [`crate::runner::ExperimentRunner`]
//! batch, bracketing one `job_start`/`job_end` pair per job.  Harness
//! binaries open one via `TUGAL_TRACE=<path>` (see
//! `tugal_bench::env`), so any sweep can stream progress and
//! outcome telemetry without touching its results: the sink reuses the
//! journal's append discipline (one `write_all` + flush per line behind a
//! mutex, floats as IEEE-754 bit patterns, torn trailing lines tolerated
//! by readers) and writes are entirely outside the engine, so trace-on
//! results are byte-identical to trace-off results (pinned by the CI
//! profile-smoke job).
//!
//! [`validate_line`] checks one JSONL line against the span schema — the
//! line-by-line validator the `tracecheck` bin and CI use.

use crate::engine::{Phase, ProfileReport};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Event type of a span line.
pub const EVENTS: [&str; 4] = ["batch_start", "job_start", "job_end", "batch_end"];

/// Nanoseconds attributed to one named phase (a flattened
/// [`crate::ProfileReport`] entry).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTotal {
    /// Phase name (one of [`crate::Phase::ALL`]'s names).
    pub phase: String,
    /// Nanoseconds attributed to it.
    pub ns: u64,
}

/// One trace event.  A flat record rather than a tagged union so every
/// line carries the same schema: fields irrelevant to an event type are
/// zero/empty (`label` is empty on batch events, `jobs` is zero on job
/// events, and so on).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Event type: one of [`EVENTS`].
    pub ev: String,
    /// Milliseconds since the sink was opened (monotonic).
    pub t_ms: u64,
    /// Series label (job events; empty on batch events).
    pub label: String,
    /// Offered load as IEEE-754 bits (job events).
    pub rate_bits: u64,
    /// Replication seed (job events).
    pub seed: u64,
    /// [`crate::journal::job_digest`] of the job (job events).
    pub digest: u64,
    /// Outcome name (`job_end`: `ok`/`panicked`/`timed-out`/
    /// `watchdog-tripped`; empty otherwise).
    pub outcome: String,
    /// True when the job was replayed from a journal instead of simulated.
    pub resumed: bool,
    /// Job wall-clock in milliseconds as IEEE-754 bits (`job_end`).
    pub elapsed_ms_bits: u64,
    /// Jobs in the batch (batch events).
    pub jobs: u64,
    /// Failed jobs (`batch_end`).
    pub failed: u64,
    /// Host parallelism (`std::thread::available_parallelism`), recorded
    /// on batch events so a trace is self-describing.
    pub host_threads: u64,
    /// Per-phase totals (`job_end` with profiling on, `batch_end` with
    /// the batch's aggregate); empty otherwise.
    pub phase_ns: Vec<PhaseTotal>,
}

impl TraceSpan {
    /// An all-zero span of event type `ev` — callers fill in the fields
    /// their event carries.
    pub fn new(ev: &str) -> Self {
        TraceSpan {
            ev: ev.to_string(),
            t_ms: 0,
            label: String::new(),
            rate_bits: 0,
            seed: 0,
            digest: 0,
            outcome: String::new(),
            resumed: false,
            elapsed_ms_bits: 0,
            jobs: 0,
            failed: 0,
            host_threads: 0,
            phase_ns: Vec::new(),
        }
    }
}

/// Flattens a profile into per-phase totals, in phase
/// order, skipping phases that never accumulated time.
pub fn phase_totals(report: &ProfileReport) -> Vec<PhaseTotal> {
    Phase::ALL
        .iter()
        .map(|&p| PhaseTotal {
            phase: p.name().to_string(),
            ns: report.phase_total(p),
        })
        .filter(|t| t.ns > 0)
        .collect()
}

/// Checks one JSONL line against the span schema.  Returns a description
/// of the first problem, or `Ok(())` — the contract `tracecheck` enforces
/// line-by-line in CI.
pub fn validate_line(line: &str) -> Result<(), String> {
    let span: TraceSpan =
        serde_json::from_str(line).map_err(|e| format!("not a TraceSpan: {e}"))?;
    if !EVENTS.contains(&span.ev.as_str()) {
        return Err(format!("unknown event type {:?}", span.ev));
    }
    match span.ev.as_str() {
        "job_start" | "job_end" => {
            if span.label.is_empty() {
                return Err(format!("{} without a series label", span.ev));
            }
            if span.digest == 0 {
                return Err(format!("{} without a job digest", span.ev));
            }
        }
        "batch_start" | "batch_end" => {
            if span.jobs == 0 {
                return Err(format!("{} without a job count", span.ev));
            }
            if span.host_threads == 0 {
                return Err(format!("{} without host_threads", span.ev));
            }
        }
        _ => unreachable!(),
    }
    if span.ev == "job_end" && span.outcome.is_empty() {
        return Err("job_end without an outcome".to_string());
    }
    let known = Phase::ALL.map(|p| p.name());
    for t in &span.phase_ns {
        if !known.contains(&t.phase.as_str()) {
            return Err(format!("unknown phase {:?}", t.phase));
        }
    }
    Ok(())
}

/// An append-only JSONL span sink (see the module docs).  Thread-safe:
/// the runner emits job spans from rayon workers.
pub struct TraceSink {
    path: PathBuf,
    file: Mutex<File>,
    opened: std::time::Instant,
}

impl TraceSink {
    /// Opens (or creates) the sink at `path`, appending to an existing
    /// file — a resumed sweep continues the same trace.  Parent
    /// directories are created as needed.  Creating the file fsyncs its
    /// parent directory, so the (possibly still empty) trace survives a
    /// crash landing right after open — a resumed invocation then appends
    /// to it instead of finding nothing.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let created = !path.exists();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if created {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                crate::journal::fsync_dir(dir)?;
            }
        }
        Ok(TraceSink {
            path,
            file: Mutex::new(file),
            opened: std::time::Instant::now(),
        })
    }

    /// The sink's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Milliseconds since the sink was opened (the `t_ms` timebase).
    pub fn now_ms(&self) -> u64 {
        self.opened.elapsed().as_millis() as u64
    }

    /// Appends one span: a single `write_all` plus flush, so lines stay
    /// atomic under concurrent emission and a crash tears at most the
    /// last line (which readers skip, like the journal's).
    pub fn emit(&self, span: &TraceSpan) {
        let Ok(mut line) = serde_json::to_string(span) else {
            return;
        };
        line.push('\n');
        if let Ok(mut f) = self.file.lock() {
            let _ = f.write_all(line.as_bytes());
            let _ = f.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ShardProfile;

    fn tmp(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-tmp");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn spans_roundtrip_and_validate() {
        let mut span = TraceSpan::new("job_end");
        span.label = "ref/UR".into();
        span.digest = 42;
        span.outcome = "ok".into();
        span.rate_bits = 0.2f64.to_bits();
        span.phase_ns = vec![PhaseTotal {
            phase: "alloc".into(),
            ns: 123,
        }];
        let json = serde_json::to_string(&span).unwrap();
        assert_eq!(serde_json::from_str::<TraceSpan>(&json).unwrap(), span);
        validate_line(&json).unwrap();
    }

    #[test]
    fn validate_rejects_malformed_spans() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line("{\"ev\":\"nope\"}").is_err());

        // A job span without its identity fields.
        let span = TraceSpan::new("job_start");
        let json = serde_json::to_string(&span).unwrap();
        assert!(validate_line(&json).unwrap_err().contains("label"));

        // A batch span without a job count.
        let span = TraceSpan::new("batch_start");
        let json = serde_json::to_string(&span).unwrap();
        assert!(validate_line(&json).unwrap_err().contains("job count"));

        // job_end needs an outcome.
        let mut span = TraceSpan::new("job_end");
        span.label = "s".into();
        span.digest = 1;
        let json = serde_json::to_string(&span).unwrap();
        assert!(validate_line(&json).unwrap_err().contains("outcome"));

        // Unknown phase names are schema violations.
        span.outcome = "ok".into();
        span.phase_ns = vec![PhaseTotal {
            phase: "warp".into(),
            ns: 1,
        }];
        let json = serde_json::to_string(&span).unwrap();
        assert!(validate_line(&json).unwrap_err().contains("warp"));
    }

    #[test]
    fn phase_totals_flatten_and_skip_empty() {
        let mut rep = ProfileReport::default();
        let mut s = ShardProfile::default();
        s.phase_ns[Phase::Alloc as usize] = 10;
        s.phase_ns[Phase::Barrier as usize] = 5;
        rep.shards.push(s.clone());
        rep.shards.push(s);
        let totals = phase_totals(&rep);
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].phase, "alloc");
        assert_eq!(totals[0].ns, 20);
        assert_eq!(totals[1].phase, "barrier");
        assert_eq!(totals[1].ns, 10);
    }

    #[test]
    fn sink_appends_valid_lines_and_tolerates_torn_tail() {
        let path = tmp("trace_unit_test.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let sink = TraceSink::open(&path).unwrap();
            let mut span = TraceSpan::new("batch_start");
            span.jobs = 3;
            span.host_threads = 2;
            span.t_ms = sink.now_ms();
            sink.emit(&span);
            let mut span = TraceSpan::new("batch_end");
            span.jobs = 3;
            span.host_threads = 2;
            sink.emit(&span);
        }
        // A crash mid-append leaves a torn tail; readers skip it.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"ev\":\"job_en").unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(validate_line(lines[0]).is_ok());
        assert!(validate_line(lines[1]).is_ok());
        assert!(validate_line(lines[2]).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
