//! Append-only run journal: crash-safe resume for sweeps.
//!
//! A [`Journal`] is a JSONL file with one [`JournalEntry`] per completed
//! job, keyed by the job's FNV-1a digest (see [`job_digest`]).  A harness
//! that opens the journal of a previous (killed) invocation looks each job
//! up before running it and replays the recorded [`crate::SimResult`]
//! instead — so a SIGKILLed sweep resumes where it died rather than
//! restarting, and the resumed results are **bit-identical** to an
//! uninterrupted run (pinned by `crates/bench/tests/resilience.rs`).
//!
//! Bit-exactness is why entries store every float of the result as its
//! IEEE-754 bit pattern ([`PackedResult`], via [`f64::to_bits`]): the
//! engine legitimately produces `inf` latencies (starved runs) and `NaN`
//! percentiles (empty histograms), which JSON cannot represent, and even
//! finite floats would risk a decimal round-trip wobble.  `u64` bit
//! patterns survive JSON exactly.
//!
//! Each entry is one line, written with a single `write_all` and flushed
//! immediately; a crash mid-write loses at most the last line, and
//! [`Journal::open`] skips any torn trailing line when reloading.

use crate::stats::SimResult;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Fsyncs a directory so a just-created entry inside it survives a crash
/// (POSIX requires the directory fsync, not just the file's).
pub(crate) fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// FNV-1a over a byte stream — the digest primitive the whole suite uses
/// (path-table caches, perf scenario digests, journal keys).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest identifying one (series, rate, seed) job for journal lookup.
///
/// `series_key` must capture everything that shapes the job's result
/// besides rate and seed — the runner uses the `Debug` rendering of the
/// series label, topology parameters, routing, config and fault schedule,
/// so any change to any of them changes the digest and invalidates stale
/// journal entries rather than silently replaying them.
pub fn job_digest(series_key: &str, rate: f64, seed: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.update(series_key.as_bytes());
    h.update(&rate.to_bits().to_le_bytes());
    h.update(&seed.to_le_bytes());
    h.finish()
}

/// A [`crate::SimResult`] with floats as IEEE-754 bit patterns, so the
/// JSON round trip is exact (including `inf`/`NaN`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedResult {
    /// `injection_rate` bits.
    pub injection_rate: u64,
    /// `avg_latency` bits.
    pub avg_latency: u64,
    /// `throughput` bits.
    pub throughput: u64,
    /// `avg_hops` bits.
    pub avg_hops: u64,
    /// Delivered packets.
    pub delivered: u64,
    /// Injected packets.
    pub injected: u64,
    /// Saturation flag.
    pub saturated: bool,
    /// Deadlock-suspected flag.
    pub deadlock_suspected: bool,
    /// `vlb_fraction` bits.
    pub vlb_fraction: u64,
    /// `latency_p50` bits.
    pub latency_p50: u64,
    /// `latency_p99` bits.
    pub latency_p99: u64,
    /// `max_channel_util` bits.
    pub max_channel_util: u64,
    /// `mean_global_util` bits.
    pub mean_global_util: u64,
    /// `mean_local_util` bits.
    pub mean_local_util: u64,
}

impl PackedResult {
    /// Packs a result for journalling.
    pub fn pack(r: &SimResult) -> Self {
        PackedResult {
            injection_rate: r.injection_rate.to_bits(),
            avg_latency: r.avg_latency.to_bits(),
            throughput: r.throughput.to_bits(),
            avg_hops: r.avg_hops.to_bits(),
            delivered: r.delivered,
            injected: r.injected,
            saturated: r.saturated,
            deadlock_suspected: r.deadlock_suspected,
            vlb_fraction: r.vlb_fraction.to_bits(),
            latency_p50: r.latency_p50.to_bits(),
            latency_p99: r.latency_p99.to_bits(),
            max_channel_util: r.max_channel_util.to_bits(),
            mean_global_util: r.mean_global_util.to_bits(),
            mean_local_util: r.mean_local_util.to_bits(),
        }
    }

    /// Unpacks a journalled result, bit-for-bit.
    pub fn unpack(&self) -> SimResult {
        SimResult {
            injection_rate: f64::from_bits(self.injection_rate),
            avg_latency: f64::from_bits(self.avg_latency),
            throughput: f64::from_bits(self.throughput),
            avg_hops: f64::from_bits(self.avg_hops),
            delivered: self.delivered,
            injected: self.injected,
            saturated: self.saturated,
            deadlock_suspected: self.deadlock_suspected,
            vlb_fraction: f64::from_bits(self.vlb_fraction),
            latency_p50: f64::from_bits(self.latency_p50),
            latency_p99: f64::from_bits(self.latency_p99),
            max_channel_util: f64::from_bits(self.max_channel_util),
            mean_global_util: f64::from_bits(self.mean_global_util),
            mean_local_util: f64::from_bits(self.mean_local_util),
        }
    }
}

/// One journal line: a completed job and its packed result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// [`job_digest`] of the job.
    pub digest: u64,
    /// Human-readable series label (diagnostic only — lookup is by
    /// digest).
    pub label: String,
    /// Offered load bits (diagnostic only).
    pub rate: u64,
    /// Replication seed (diagnostic only).
    pub seed: u64,
    /// The job's result, exactly.
    pub result: PackedResult,
}

/// An append-only JSONL journal of completed jobs (see the module docs).
///
/// Thread-safe: the runner records entries from rayon workers.
pub struct Journal {
    path: PathBuf,
    seen: Mutex<HashMap<u64, PackedResult>>,
    file: Mutex<File>,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, loading every intact
    /// entry.  Torn or malformed lines — the tail a crash can leave — are
    /// skipped, not errors.  Parent directories are created as needed.
    /// Creating the file fsyncs its parent directory, so the (possibly
    /// still empty) journal survives a crash landing right after open —
    /// a resumed invocation then appends to it instead of finding nothing.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let existed = path.exists();
        let mut seen = HashMap::new();
        if existed {
            let reader = BufReader::new(File::open(&path)?);
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                if let Ok(entry) = serde_json::from_str::<JournalEntry>(&line) {
                    seen.insert(entry.digest, entry.result);
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if !existed {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                fsync_dir(dir)?;
            }
        }
        Ok(Journal {
            path,
            seen: Mutex::new(seen),
            file: Mutex::new(file),
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed jobs on record.
    pub fn len(&self) -> usize {
        self.seen.lock().map(|m| m.len()).unwrap_or(0)
    }

    /// True when no jobs are on record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded result for `digest`, if that job already completed.
    pub fn lookup(&self, digest: u64) -> Option<SimResult> {
        self.seen
            .lock()
            .ok()
            .and_then(|m| m.get(&digest).map(|p| p.unpack()))
    }

    /// Records a completed job: appends one line and flushes it, so the
    /// entry survives a SIGKILL delivered right after.  Duplicate digests
    /// overwrite in memory (last write wins on reload too).
    pub fn record(&self, digest: u64, label: &str, rate: f64, seed: u64, result: &SimResult) {
        let entry = JournalEntry {
            digest,
            label: label.to_string(),
            rate: rate.to_bits(),
            seed,
            result: PackedResult::pack(result),
        };
        let Ok(mut line) = serde_json::to_string(&entry) else {
            return;
        };
        line.push('\n');
        if let Ok(mut f) = self.file.lock() {
            // One write_all per entry keeps lines atomic under concurrent
            // recording; flush makes the line durable before the job is
            // considered done.
            let _ = f.write_all(line.as_bytes());
            let _ = f.flush();
        }
        if let Ok(mut m) = self.seen.lock() {
            m.insert(digest, entry.result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> SimResult {
        SimResult {
            injection_rate: 0.1,
            avg_latency: f64::INFINITY,
            throughput: 0.09,
            avg_hops: 3.5,
            delivered: 123,
            injected: 130,
            saturated: true,
            deadlock_suspected: false,
            vlb_fraction: 0.25,
            latency_p50: f64::NAN,
            latency_p99: 812.0,
            max_channel_util: 0.99,
            mean_global_util: 0.4,
            mean_local_util: 0.3,
        }
    }

    fn bitwise_eq(a: &SimResult, b: &SimResult) -> bool {
        PackedResult::pack(a) == PackedResult::pack(b)
    }

    #[test]
    fn packed_roundtrip_is_bit_exact_including_nonfinite() {
        let r = sample_result();
        let packed = PackedResult::pack(&r);
        let json = serde_json::to_string(&packed).unwrap();
        let back: PackedResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, packed);
        assert!(bitwise_eq(&back.unpack(), &r));
        assert!(back.unpack().avg_latency.is_infinite());
        assert!(back.unpack().latency_p50.is_nan());
    }

    #[test]
    fn digest_separates_jobs_and_is_stable() {
        let d = job_digest("series-A", 0.1, 7);
        assert_eq!(d, job_digest("series-A", 0.1, 7));
        assert_ne!(d, job_digest("series-B", 0.1, 7));
        assert_ne!(d, job_digest("series-A", 0.2, 7));
        assert_ne!(d, job_digest("series-A", 0.1, 8));
    }

    #[test]
    fn journal_replays_recorded_entries_and_survives_torn_tail() {
        // Unit tests have no CARGO_TARGET_TMPDIR; use the workspace target
        // dir (gitignored) so nothing is written outside the repo.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal_unit_test.jsonl");
        let _ = std::fs::remove_file(&path);

        let r = sample_result();
        let d = job_digest("s", 0.1, 7);
        {
            let j = Journal::open(&path).unwrap();
            assert!(j.is_empty());
            assert!(j.lookup(d).is_none());
            j.record(d, "s", 0.1, 7, &r);
            assert_eq!(j.len(), 1);
        }
        // Simulate a crash mid-append: a torn trailing line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"digest\":42,\"label\":\"torn").unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        let replayed = j.lookup(d).expect("entry survives reopen");
        assert!(bitwise_eq(&replayed, &r));
        assert!(j.lookup(job_digest("s", 0.1, 8)).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
