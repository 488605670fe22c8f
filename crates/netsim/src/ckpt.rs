//! Mid-simulation checkpoint/restore: kill-9-safe long runs.
//!
//! A checkpoint captures the **complete deterministic state** of a
//! simulation at the end of a cycle — live packets (staging FIFOs, input
//! buffers, flits on the wire), per-group RNG streams, credits, allocator
//! round-robin cursors, ready lists, watchdog counters (the engine's
//! `Stats`), the fault-schedule cursor, and observer state via the
//! `SimObserver::snapshot`/`restore` seam.  The on-disk format is
//! **canonical**: every section is keyed by group, channel, buffer or
//! switch id and sorted by that key, and packets are stored with their
//! routes rather than by pool slot, so the file does not depend on how the
//! engine happened to lay out its memory.
//!
//! Durability mirrors the journal's discipline: tmp-file + rename
//! atomicity, an FNV-1a content checksum over the payload, floats stored
//! as exact bit patterns, and keep-last-2 retention so a corrupt newest
//! file falls back to its predecessor (or a cold start) instead of
//! diverging.

use std::cell::Cell;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::Mutex;

use crate::engine::{Packet, SimWorkspace, Stats};
use crate::journal::Fnv1a;
use serde::{Deserialize, Serialize};
use tugal_routing::{Path, MAX_HOPS};
use tugal_topology::SwitchId;

/// File magic: "TUGALCK" + format version byte.
const MAGIC: &[u8; 8] = b"TUGALCK\x01";
/// Payload-level format version (bumped on any layout change).  A file of
/// another version is skipped like any other invalid candidate, so the run
/// falls back to an older file or a cold start.
const VERSION: u32 = 2;
/// Checkpoints retained per `(dir, stem)`: the newest plus one fallback.
const KEEP: usize = 2;
/// Default write cadence in cycles.
const DEFAULT_EVERY: u64 = 1000;

/// Checkpoint cadence and location (`Config::checkpoint`).
///
/// `None` (the default) keeps checkpointing off with zero cost; `Some`
/// writes a checkpoint every [`CkptConfig::every`] cycles.  The bench
/// harnesses build one from `TUGAL_CKPT=<dir>` /
/// `TUGAL_CKPT_EVERY=<cycles>` (`tugal_bench::env`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CkptConfig {
    /// Directory checkpoint files are written to (created if absent).
    pub dir: String,
    /// Write cadence in cycles; `0` disables writing (restore still runs).
    pub every: u64,
    /// File-name stem: files are named `{stem}.{cycle:020}.ckpt`.  The
    /// experiment runner overrides this with the job digest so concurrent
    /// jobs sharing one directory never collide.
    pub stem: String,
}

impl CkptConfig {
    /// Builds a config for `dir` with the default cadence and stem.
    pub fn new(dir: impl Into<String>) -> Self {
        CkptConfig {
            dir: dir.into(),
            every: DEFAULT_EVERY,
            stem: "run".to_string(),
        }
    }
}

/// What a checkpoint event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptEventKind {
    /// A checkpoint file was written.
    Write,
    /// A run resumed from a checkpoint file.
    Restore,
}

impl CkptEventKind {
    /// Trace-span event name (`ckpt_write` / `ckpt_restore`).
    pub fn name(self) -> &'static str {
        match self {
            CkptEventKind::Write => "ckpt_write",
            CkptEventKind::Restore => "ckpt_restore",
        }
    }
}

/// One checkpoint write or restore, reported after the run for trace
/// spans and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptEvent {
    /// Write or restore.
    pub kind: CkptEventKind,
    /// Cycle the checkpoint resumes at (`next_cycle`; for writes, the
    /// write happened at the end of `cycle - 1`).
    pub cycle: u64,
    /// Whole-file size in bytes.
    pub bytes: u64,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
    /// Wall-clock milliseconds the write/restore took.
    pub elapsed_ms: u64,
}

/// Typed non-fatal checkpoint warnings, printed to stderr; none of them
/// change simulation results — they only disable or degrade checkpointing
/// for the affected job.
#[derive(Debug)]
pub enum CkptWarning {
    /// The observer does not implement `snapshot`, so checkpointing is
    /// disabled for this job (results are unaffected).
    ObserverSnapshotUnsupported,
    /// A checkpoint file failed validation (bad magic, checksum,
    /// fingerprint, or shape) and was skipped.
    BadCheckpoint {
        /// The offending file.
        path: PathBuf,
        /// What failed.
        reason: String,
    },
    /// Writing a checkpoint failed; further writes are disabled for this
    /// run (the simulation itself continues).
    WriteFailed {
        /// The attempted file.
        path: PathBuf,
        /// The I/O error.
        reason: String,
    },
}

impl std::fmt::Display for CkptWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptWarning::ObserverSnapshotUnsupported => write!(
                f,
                "observer does not support snapshot/restore; checkpointing disabled for this job"
            ),
            CkptWarning::BadCheckpoint { path, reason } => {
                write!(f, "bad checkpoint {}: {reason}", path.display())
            }
            CkptWarning::WriteFailed { path, reason } => write!(
                f,
                "checkpoint write to {} failed ({reason}); checkpointing disabled for this run",
                path.display()
            ),
        }
    }
}

/// Fsyncs a directory so a just-created/renamed entry inside it survives
/// a crash (POSIX requires the directory fsync, not just the file's).
pub(crate) fn fsync_dir(dir: &std::path::Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Identity of a run for restore compatibility: topology + routing +
/// canonical config (watchdog/checkpoint stripped, seed kept) + rate +
/// fault schedule, hashed with FNV-1a.
pub(crate) fn fingerprint(
    topo_key: &str,
    routing: crate::config::RoutingAlgorithm,
    cfg: &crate::config::Config,
    faults: Option<&crate::fault::FaultSchedule>,
    rate: f64,
) -> u64 {
    let mut canon = cfg.clone();
    canon.watchdog = None;
    canon.checkpoint = None;
    let key = format!(
        "{topo_key}|{routing:?}|{canon:?}|{:?}",
        faults.map(|f| f.events())
    );
    let mut h = Fnv1a::new();
    h.update(key.as_bytes());
    h.update(&rate.to_bits().to_le_bytes());
    h.finish()
}

/// Structural shape a checkpoint must match to be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CkptShape {
    pub(crate) groups: u32,
    pub(crate) n_chan: u64,
    pub(crate) n_buf: u64,
    pub(crate) n_switches: u64,
}

// ---------------------------------------------------------------------------
// Byte codec: little-endian, length-prefixed, floats as exact bits.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn flag(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| format!("truncated payload at offset {}", self.pos))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn flag(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b:#x}")),
        }
    }
    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }
    /// Reads a vector length and bounds it by the bytes remaining, so a
    /// corrupt length can't trigger a huge allocation before the element
    /// reads fail.
    fn len(&mut self, min_elem: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let cap = (self.b.len() - self.pos) / min_elem.max(1);
        if n as usize > cap {
            return Err(format!("length {n} exceeds remaining payload"));
        }
        Ok(n as usize)
    }
    fn done(&self) -> Result<(), String> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.b.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// Serialized state records.
// ---------------------------------------------------------------------------

/// One live packet, with its route made pool-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PkRec {
    pub(crate) dst_node: u32,
    pub(crate) src_node: u32,
    pub(crate) birth: u64,
    pub(crate) hop: u8,
    pub(crate) cur_vc: u8,
    pub(crate) cur_chan: u32,
    pub(crate) pre_local: u8,
    pub(crate) pre_global: u8,
    pub(crate) hops_taken: u8,
    pub(crate) flags: u8,
    pub(crate) out_chan: u32,
    pub(crate) out_vc: u8,
    /// The packet's own copy of its route (stored as its switch sequence).
    pub(crate) path: Path,
}

impl PkRec {
    pub(crate) fn capture(p: &Packet, path: &Path) -> Self {
        PkRec {
            dst_node: p.dst_node,
            src_node: p.src_node,
            birth: p.birth,
            hop: p.hop,
            cur_vc: p.cur_vc,
            cur_chan: p.cur_chan,
            pre_local: p.pre_local,
            pre_global: p.pre_global,
            hops_taken: p.hops_taken,
            flags: p.flags,
            out_chan: p.out_chan,
            out_vc: p.out_vc,
            path: *path,
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u32(self.dst_node);
        e.u32(self.src_node);
        e.u64(self.birth);
        e.u8(self.hop);
        e.u8(self.cur_vc);
        e.u32(self.cur_chan);
        e.u8(self.pre_local);
        e.u8(self.pre_global);
        e.u8(self.hops_taken);
        e.u8(self.flags);
        e.u32(self.out_chan);
        e.u8(self.out_vc);
        e.u8(self.path.hops() as u8 + 1);
        for s in self.path.switches() {
            e.u32(s.0);
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, String> {
        let dst_node = d.u32()?;
        let src_node = d.u32()?;
        let birth = d.u64()?;
        let hop = d.u8()?;
        let cur_vc = d.u8()?;
        let cur_chan = d.u32()?;
        let pre_local = d.u8()?;
        let pre_global = d.u8()?;
        let hops_taken = d.u8()?;
        let flags = d.u8()?;
        let out_chan = d.u32()?;
        let out_vc = d.u8()?;
        let n = d.u8()? as usize;
        if n == 0 || n > MAX_HOPS + 1 {
            return Err(format!("bad path length {n}"));
        }
        let mut sw = [SwitchId(0); MAX_HOPS + 1];
        for s in &mut sw[..n] {
            *s = SwitchId(d.u32()?);
            if s.0 > u16::MAX as u32 {
                return Err(format!("path switch {} out of range", s.0));
            }
        }
        let path = Path::from_switches(&sw[..n]);
        Ok(PkRec {
            dst_node,
            src_node,
            birth,
            hop,
            cur_vc,
            cur_chan,
            pre_local,
            pre_global,
            hops_taken,
            flags,
            out_chan,
            out_vc,
            path,
        })
    }
}

/// Packed `Stats` with float sums as exact bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct StatsSnap {
    pub(crate) measuring: bool,
    injected: u64,
    delivered: u64,
    latency_sum_bits: u64,
    hops_sum: u64,
    total_injected: u64,
    total_delivered: u64,
    total_dropped: u64,
    total_latency_sum_bits: u64,
    total_hops_sum: u64,
    vlb_chosen: u64,
    routed: u64,
    saturated_early: bool,
    last_delivery: u64,
    deadlock_suspected: bool,
    lat_hist: [u64; 24],
}

impl StatsSnap {
    pub(crate) fn pack(s: &Stats) -> Self {
        StatsSnap {
            measuring: s.measuring,
            injected: s.injected,
            delivered: s.delivered,
            latency_sum_bits: s.latency_sum.to_bits(),
            hops_sum: s.hops_sum,
            total_injected: s.total_injected,
            total_delivered: s.total_delivered,
            total_dropped: s.total_dropped,
            total_latency_sum_bits: s.total_latency_sum.to_bits(),
            total_hops_sum: s.total_hops_sum,
            vlb_chosen: s.vlb_chosen,
            routed: s.routed,
            saturated_early: s.saturated_early,
            last_delivery: s.last_delivery,
            deadlock_suspected: s.deadlock_suspected,
            lat_hist: s.lat_hist,
        }
    }

    pub(crate) fn unpack(&self) -> Stats {
        let mut s = Stats::new();
        s.measuring = self.measuring;
        s.injected = self.injected;
        s.delivered = self.delivered;
        s.latency_sum = f64::from_bits(self.latency_sum_bits);
        s.hops_sum = self.hops_sum;
        s.total_injected = self.total_injected;
        s.total_delivered = self.total_delivered;
        s.total_dropped = self.total_dropped;
        s.total_latency_sum = f64::from_bits(self.total_latency_sum_bits);
        s.total_hops_sum = self.total_hops_sum;
        s.vlb_chosen = self.vlb_chosen;
        s.routed = self.routed;
        s.saturated_early = self.saturated_early;
        s.last_delivery = self.last_delivery;
        s.deadlock_suspected = self.deadlock_suspected;
        s.lat_hist = self.lat_hist;
        s
    }

    fn encode(&self, e: &mut Enc) {
        e.flag(self.measuring);
        e.u64(self.injected);
        e.u64(self.delivered);
        e.u64(self.latency_sum_bits);
        e.u64(self.hops_sum);
        e.u64(self.total_injected);
        e.u64(self.total_delivered);
        e.u64(self.total_dropped);
        e.u64(self.total_latency_sum_bits);
        e.u64(self.total_hops_sum);
        e.u64(self.vlb_chosen);
        e.u64(self.routed);
        e.flag(self.saturated_early);
        e.u64(self.last_delivery);
        e.flag(self.deadlock_suspected);
        for v in self.lat_hist {
            e.u64(v);
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, String> {
        let mut s = StatsSnap {
            measuring: d.flag()?,
            injected: d.u64()?,
            delivered: d.u64()?,
            latency_sum_bits: d.u64()?,
            hops_sum: d.u64()?,
            total_injected: d.u64()?,
            total_delivered: d.u64()?,
            total_dropped: d.u64()?,
            total_latency_sum_bits: d.u64()?,
            total_hops_sum: d.u64()?,
            vlb_chosen: d.u64()?,
            routed: d.u64()?,
            saturated_early: d.flag()?,
            last_delivery: d.u64()?,
            deadlock_suspected: d.flag()?,
            lat_hist: [0; 24],
        };
        for v in &mut s.lat_hist {
            *v = d.u64()?;
        }
        Ok(s)
    }
}

/// Per-channel send-side scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChanSend {
    pub(crate) ch: u32,
    pub(crate) next_free: u64,
    pub(crate) cred_used: u32,
    pub(crate) chan_flits: u32,
}

/// The canonical simulation state at the end of a cycle
/// (`next_cycle - 1`), plus identity/shape metadata.  Every section is in
/// ascending key order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Checkpoint {
    pub(crate) fingerprint: u64,
    pub(crate) groups: u32,
    pub(crate) n_chan: u64,
    pub(crate) n_buf: u64,
    pub(crate) n_switches: u64,
    pub(crate) next_cycle: u64,
    pub(crate) elapsed_ms: u64,
    pub(crate) next_event: u64,
    pub(crate) stats: StatsSnap,
    pub(crate) rngs: Vec<(u32, [u64; 4])>,
    pub(crate) staging: Vec<(u32, Vec<PkRec>)>,
    pub(crate) inbufs: Vec<(u32, Vec<PkRec>)>,
    pub(crate) arrivals: Vec<(u64, PkRec)>,
    pub(crate) credit_events: Vec<(u64, u32)>,
    pub(crate) chan_send: Vec<ChanSend>,
    pub(crate) credits: Vec<(u32, u16)>,
    pub(crate) wait: Vec<(u32, u32)>,
    pub(crate) rr: Vec<(u32, u64)>,
    pub(crate) ready: Vec<(u32, Vec<u32>)>,
    pub(crate) chan_dead: Vec<u32>,
    pub(crate) switch_dead: Vec<u32>,
    pub(crate) obs_blobs: Vec<Vec<u8>>,
}

impl Checkpoint {
    /// A checkpoint of `shape` with identity `fingerprint`, resuming at
    /// `next_cycle`, with every state section empty.
    pub(crate) fn empty(fingerprint: u64, shape: CkptShape, next_cycle: u64) -> Self {
        Checkpoint {
            fingerprint,
            groups: shape.groups,
            n_chan: shape.n_chan,
            n_buf: shape.n_buf,
            n_switches: shape.n_switches,
            next_cycle,
            elapsed_ms: 0,
            next_event: 0,
            stats: StatsSnap::default(),
            rngs: Vec::new(),
            staging: Vec::new(),
            inbufs: Vec::new(),
            arrivals: Vec::new(),
            credit_events: Vec::new(),
            chan_send: Vec::new(),
            credits: Vec::new(),
            wait: Vec::new(),
            rr: Vec::new(),
            ready: Vec::new(),
            chan_dead: Vec::new(),
            switch_dead: Vec::new(),
            obs_blobs: Vec::new(),
        }
    }

    pub(crate) fn shape(&self) -> CkptShape {
        CkptShape {
            groups: self.groups,
            n_chan: self.n_chan,
            n_buf: self.n_buf,
            n_switches: self.n_switches,
        }
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u32(VERSION);
        e.u64(self.fingerprint);
        e.u32(self.groups);
        e.u64(self.n_chan);
        e.u64(self.n_buf);
        e.u64(self.n_switches);
        e.u64(self.next_cycle);
        e.u64(self.elapsed_ms);
        e.u64(self.next_event);
        self.stats.encode(&mut e);
        e.u64(self.rngs.len() as u64);
        for (g, s) in &self.rngs {
            e.u32(*g);
            for w in s {
                e.u64(*w);
            }
        }
        for fifo in [&self.staging, &self.inbufs] {
            e.u64(fifo.len() as u64);
            for (key, recs) in fifo.iter() {
                e.u32(*key);
                e.u64(recs.len() as u64);
                for r in recs {
                    r.encode(&mut e);
                }
            }
        }
        e.u64(self.arrivals.len() as u64);
        for (due, r) in &self.arrivals {
            e.u64(*due);
            r.encode(&mut e);
        }
        e.u64(self.credit_events.len() as u64);
        for (due, idx) in &self.credit_events {
            e.u64(*due);
            e.u32(*idx);
        }
        e.u64(self.chan_send.len() as u64);
        for c in &self.chan_send {
            e.u32(c.ch);
            e.u64(c.next_free);
            e.u32(c.cred_used);
            e.u32(c.chan_flits);
        }
        e.u64(self.credits.len() as u64);
        for (idx, v) in &self.credits {
            e.u32(*idx);
            e.u16(*v);
        }
        e.u64(self.wait.len() as u64);
        for (idx, v) in &self.wait {
            e.u32(*idx);
            e.u32(*v);
        }
        e.u64(self.rr.len() as u64);
        for (sw, v) in &self.rr {
            e.u32(*sw);
            e.u64(*v);
        }
        e.u64(self.ready.len() as u64);
        for (sw, list) in &self.ready {
            e.u32(*sw);
            e.u64(list.len() as u64);
            for idx in list {
                e.u32(*idx);
            }
        }
        for dead in [&self.chan_dead, &self.switch_dead] {
            e.u64(dead.len() as u64);
            for idx in dead.iter() {
                e.u32(*idx);
            }
        }
        e.u64(self.obs_blobs.len() as u64);
        for b in &self.obs_blobs {
            e.bytes(b);
        }
        e.0
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(payload);
        let version = d.u32()?;
        if version != VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let fingerprint = d.u64()?;
        let groups = d.u32()?;
        let n_chan = d.u64()?;
        let n_buf = d.u64()?;
        let n_switches = d.u64()?;
        let next_cycle = d.u64()?;
        let elapsed_ms = d.u64()?;
        let next_event = d.u64()?;
        let stats = StatsSnap::decode(&mut d)?;
        let n = d.len(36)?;
        let mut rngs = Vec::with_capacity(n);
        for _ in 0..n {
            let g = d.u32()?;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = d.u64()?;
            }
            rngs.push((g, s));
        }
        let mut fifos: [Vec<(u32, Vec<PkRec>)>; 2] = [Vec::new(), Vec::new()];
        for fifo in &mut fifos {
            let n = d.len(12)?;
            fifo.reserve(n);
            for _ in 0..n {
                let key = d.u32()?;
                let m = d.len(32)?;
                let mut recs = Vec::with_capacity(m);
                for _ in 0..m {
                    recs.push(PkRec::decode(&mut d)?);
                }
                fifo.push((key, recs));
            }
        }
        let [staging, inbufs] = fifos;
        let n = d.len(40)?;
        let mut arrivals = Vec::with_capacity(n);
        for _ in 0..n {
            let due = d.u64()?;
            arrivals.push((due, PkRec::decode(&mut d)?));
        }
        let n = d.len(12)?;
        let mut credit_events = Vec::with_capacity(n);
        for _ in 0..n {
            let due = d.u64()?;
            credit_events.push((due, d.u32()?));
        }
        let n = d.len(20)?;
        let mut chan_send = Vec::with_capacity(n);
        for _ in 0..n {
            chan_send.push(ChanSend {
                ch: d.u32()?,
                next_free: d.u64()?,
                cred_used: d.u32()?,
                chan_flits: d.u32()?,
            });
        }
        let n = d.len(6)?;
        let mut credits = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = d.u32()?;
            credits.push((idx, d.u16()?));
        }
        let n = d.len(8)?;
        let mut wait = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = d.u32()?;
            wait.push((idx, d.u32()?));
        }
        let n = d.len(12)?;
        let mut rr = Vec::with_capacity(n);
        for _ in 0..n {
            let sw = d.u32()?;
            rr.push((sw, d.u64()?));
        }
        let n = d.len(12)?;
        let mut ready = Vec::with_capacity(n);
        for _ in 0..n {
            let sw = d.u32()?;
            let m = d.len(4)?;
            let mut list = Vec::with_capacity(m);
            for _ in 0..m {
                list.push(d.u32()?);
            }
            ready.push((sw, list));
        }
        let mut deads: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for dead in &mut deads {
            let n = d.len(4)?;
            dead.reserve(n);
            for _ in 0..n {
                dead.push(d.u32()?);
            }
        }
        let [chan_dead, switch_dead] = deads;
        let n = d.len(8)?;
        let mut obs_blobs = Vec::with_capacity(n);
        for _ in 0..n {
            obs_blobs.push(d.bytes()?);
        }
        d.done()?;
        let ck = Checkpoint {
            fingerprint,
            groups,
            n_chan,
            n_buf,
            n_switches,
            next_cycle,
            elapsed_ms,
            next_event,
            stats,
            rngs,
            staging,
            inbufs,
            arrivals,
            credit_events,
            chan_send,
            credits,
            wait,
            rr,
            ready,
            chan_dead,
            switch_dead,
            obs_blobs,
        };
        ck.validate()?;
        Ok(ck)
    }

    /// Structural validation beyond the checksum: every index in range,
    /// the RNG section dense over all groups, and observer state in at most
    /// one blob (files written by the removed multi-threaded engine could
    /// hold one blob per worker; those are only usable when all are empty).
    fn validate(&self) -> Result<(), String> {
        if self.obs_blobs.len() > 1 && self.obs_blobs.iter().any(|b| !b.is_empty()) {
            return Err(format!(
                "observer state split into {} blobs",
                self.obs_blobs.len()
            ));
        }
        if self.rngs.len() != self.groups as usize {
            return Err(format!(
                "rng section has {} entries for {} groups",
                self.rngs.len(),
                self.groups
            ));
        }
        for (i, (g, _)) in self.rngs.iter().enumerate() {
            if *g as usize != i {
                return Err(format!("rng section not dense at group {g}"));
            }
        }
        let chan_ok = |ch: u32| (ch as u64) < self.n_chan;
        let buf_ok = |idx: u32| (idx as u64) < self.n_buf;
        let sw_ok = |sw: u32| (sw as u64) < self.n_switches;
        if !self.staging.iter().all(|(ch, _)| chan_ok(*ch))
            || !self.chan_send.iter().all(|c| chan_ok(c.ch))
            || !self.chan_dead.iter().all(|ch| chan_ok(*ch))
        {
            return Err("channel index out of range".to_string());
        }
        if !self.inbufs.iter().all(|(idx, _)| buf_ok(*idx))
            || !self.credit_events.iter().all(|(_, idx)| buf_ok(*idx))
            || !self.credits.iter().all(|(idx, _)| buf_ok(*idx))
            || !self.wait.iter().all(|(idx, _)| buf_ok(*idx))
            || !self
                .ready
                .iter()
                .all(|(_, list)| list.iter().all(|idx| buf_ok(*idx)))
        {
            return Err("buffer index out of range".to_string());
        }
        if !self.rr.iter().all(|(sw, _)| sw_ok(*sw))
            || !self.ready.iter().all(|(sw, _)| sw_ok(*sw))
            || !self.switch_dead.iter().all(|sw| sw_ok(*sw))
        {
            return Err("switch index out of range".to_string());
        }
        Ok(())
    }
}

/// The resume inputs the engine needs before its first cycle.
pub(crate) struct ResumeCtx {
    pub(crate) next_cycle: u64,
    pub(crate) stats: StatsSnap,
    pub(crate) next_event: u64,
    pub(crate) elapsed_ms: u64,
    /// Dense per-group RNG states.
    pub(crate) rngs: Vec<[u64; 4]>,
}

impl ResumeCtx {
    pub(crate) fn from_checkpoint(ck: &Checkpoint) -> Self {
        ResumeCtx {
            next_cycle: ck.next_cycle,
            stats: ck.stats.clone(),
            next_event: ck.next_event,
            elapsed_ms: ck.elapsed_ms,
            rngs: ck.rngs.iter().map(|(_, s)| *s).collect(),
        }
    }
}

/// Replays a checkpoint into a freshly reset workspace.  Packets are
/// re-allocated compactly in section order; pool layout is unobservable
/// (every order the engine depends on is keyed by channel or packet
/// contents), so this is bit-for-bit safe.
pub(crate) fn apply(ck: &Checkpoint, ws: &mut SimWorkspace, ring_mask: u64) {
    fn alloc_rec(ws: &mut SimWorkspace, rec: &PkRec) -> u32 {
        let pi = ws.packets.len() as u32;
        ws.packets.push(Packet {
            dst_node: rec.dst_node,
            src_node: rec.src_node,
            birth: rec.birth,
            hop: rec.hop,
            cur_vc: rec.cur_vc,
            cur_chan: rec.cur_chan,
            pre_local: rec.pre_local,
            pre_global: rec.pre_global,
            hops_taken: rec.hops_taken,
            flags: rec.flags,
            out_chan: rec.out_chan,
            out_vc: rec.out_vc,
        });
        ws.paths.push(rec.path);
        ws.next_pkt.push(u32::MAX);
        pi
    }

    for (ch, recs) in &ck.staging {
        let ch = *ch as usize;
        for rec in recs {
            let pi = alloc_rec(ws, rec);
            ws.stg_push(ch, pi);
        }
    }
    for ch in 0..ws.stg_len.len() {
        if ws.stg_len[ch] > 0 {
            ws.in_busy[ch] = true;
            ws.busy_list.push(ch as u32);
        }
    }
    for (idx, recs) in &ck.inbufs {
        let idx = *idx as usize;
        let ch = ws.chan_of_buf[idx] as usize;
        for rec in recs {
            let pi = alloc_rec(ws, rec);
            ws.inb_push(idx, pi);
            ws.buf_occ[ch] += 1;
        }
    }
    for (sw, list) in &ck.ready {
        for &idx in list {
            ws.in_ready[idx as usize] = true;
        }
        ws.ready[*sw as usize] = list.clone();
    }
    for (due, rec) in &ck.arrivals {
        let pi = alloc_rec(ws, rec);
        ws.arrivals[(due & ring_mask) as usize].push(pi);
    }
    for (due, idx) in &ck.credit_events {
        ws.credit_ring[(due & ring_mask) as usize].push(*idx);
    }
    for c in &ck.chan_send {
        let ch = c.ch as usize;
        ws.next_free[ch] = c.next_free;
        ws.cred_used[ch] = c.cred_used;
        ws.chan_flits[ch] = c.chan_flits;
    }
    for (idx, v) in &ck.credits {
        ws.credits[*idx as usize] = *v;
    }
    for (idx, v) in &ck.wait {
        ws.wait[*idx as usize] = *v;
    }
    for (sw, v) in &ck.rr {
        ws.rr[*sw as usize] = *v as usize;
    }
    for &ch in &ck.chan_dead {
        ws.chan_dead[ch as usize] = true;
    }
    for &sw in &ck.switch_dead {
        ws.switch_dead[sw as usize] = true;
    }
}

// ---------------------------------------------------------------------------
// Per-run coordination and file I/O.
// ---------------------------------------------------------------------------

/// Checkpoint coordinator for one simulation run: write cadence, file
/// naming/retention, and the event log reported back for trace spans.
pub(crate) struct CkptRun {
    dir: PathBuf,
    stem: String,
    every: u64,
    pub(crate) fingerprint: u64,
    pub(crate) shape: CkptShape,
    events: Mutex<Vec<CkptEvent>>,
    /// Set when a write fails: later writes are skipped.
    dead: Cell<bool>,
}

impl CkptRun {
    pub(crate) fn new(cc: &CkptConfig, fingerprint: u64, shape: CkptShape) -> io::Result<Self> {
        let dir = PathBuf::from(&cc.dir);
        fs::create_dir_all(&dir)?;
        Ok(CkptRun {
            dir,
            stem: cc.stem.clone(),
            every: cc.every,
            fingerprint,
            shape,
            events: Mutex::new(Vec::new()),
            dead: Cell::new(false),
        })
    }

    /// Whether the end of cycle `now` is a checkpoint point; the last
    /// cycle is excluded (nothing left to resume).
    pub(crate) fn due(&self, now: u64, total: u64) -> bool {
        self.every > 0 && now > 0 && now.is_multiple_of(self.every) && now + 1 < total
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.get()
    }

    pub(crate) fn push_event(&self, ev: CkptEvent) {
        self.events.lock().unwrap().push(ev);
    }

    pub(crate) fn take_events(&self) -> Vec<CkptEvent> {
        std::mem::take(&mut self.events.lock().unwrap())
    }

    fn file_name(&self, next_cycle: u64) -> String {
        format!("{}.{next_cycle:020}.ckpt", self.stem)
    }

    /// Existing checkpoint files for this stem, newest first.
    fn candidates(&self) -> Vec<(u64, PathBuf)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        let prefix = format!("{}.", self.stem);
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(mid) = name
                .strip_prefix(&prefix)
                .and_then(|s| s.strip_suffix(".ckpt"))
            else {
                continue;
            };
            if let Ok(cycle) = mid.parse::<u64>() {
                out.push((cycle, entry.path()));
            }
        }
        out.sort_unstable_by_key(|&(cycle, _)| std::cmp::Reverse(cycle));
        out
    }

    /// Atomically writes `ck`: tmp file, `sync_all`, rename, directory
    /// fsync, then prunes to the retention limit.  Returns `(file bytes,
    /// payload checksum)`.
    pub(crate) fn write_file(&self, ck: &Checkpoint) -> io::Result<(u64, u64)> {
        let payload = ck.encode();
        let mut h = Fnv1a::new();
        h.update(&payload);
        let checksum = h.finish();
        let mut buf = Vec::with_capacity(payload.len() + 24);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf.extend_from_slice(&payload);
        let tmp = self.dir.join(format!(".{}.tmp", self.stem));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(self.file_name(ck.next_cycle)))?;
        let _ = fsync_dir(&self.dir);
        for (_, path) in self.candidates().into_iter().skip(KEEP) {
            let _ = fs::remove_file(path);
        }
        Ok((buf.len() as u64, checksum))
    }

    /// Writes `ck` atomically, logging a [`CkptEventKind::Write`] event on
    /// success and disabling further writes (simulation unaffected) on
    /// failure.
    pub(crate) fn commit(&self, ck: Checkpoint) {
        let t0 = std::time::Instant::now();
        let next_cycle = ck.next_cycle;
        match self.write_file(&ck) {
            Ok((bytes, checksum)) => self.push_event(CkptEvent {
                kind: CkptEventKind::Write,
                cycle: next_cycle,
                bytes,
                checksum,
                elapsed_ms: t0.elapsed().as_millis() as u64,
            }),
            Err(e) => self.disable_after_error(self.dir.join(self.file_name(next_cycle)), &e),
        }
    }

    /// Marks writing dead after a failure (warn once, simulate on).
    pub(crate) fn disable_after_error(&self, path: PathBuf, err: &io::Error) {
        eprintln!(
            "warning: {}",
            CkptWarning::WriteFailed {
                path,
                reason: err.to_string(),
            }
        );
        self.dead.set(true);
    }

    /// Loads the newest valid checkpoint, skipping (with a warning) any
    /// candidate whose magic, checksum, fingerprint, or shape fails —
    /// falling back to the previous retained file or a cold start.
    pub(crate) fn load(&self) -> Option<(Checkpoint, u64, u64)> {
        for (_, path) in self.candidates() {
            match self.read_one(&path) {
                Ok(found) => return Some(found),
                Err(reason) => eprintln!(
                    "warning: {}",
                    CkptWarning::BadCheckpoint {
                        path: path.clone(),
                        reason,
                    }
                ),
            }
        }
        None
    }

    fn read_one(&self, path: &std::path::Path) -> Result<(Checkpoint, u64, u64), String> {
        let bytes = fs::read(path).map_err(|e| e.to_string())?;
        if bytes.len() < 24 {
            return Err(format!("file too short ({} bytes)", bytes.len()));
        }
        if &bytes[..8] != MAGIC {
            return Err("bad magic".to_string());
        }
        let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let payload = bytes
            .get(24..)
            .filter(|p| p.len() == payload_len)
            .ok_or_else(|| {
                format!(
                    "payload length mismatch (header {payload_len}, got {})",
                    bytes.len() - 24
                )
            })?;
        let mut h = Fnv1a::new();
        h.update(payload);
        if h.finish() != checksum {
            return Err("checksum mismatch".to_string());
        }
        let ck = Checkpoint::decode(payload)?;
        if ck.fingerprint != self.fingerprint {
            return Err(format!(
                "fingerprint mismatch (file {:#018x}, run {:#018x})",
                ck.fingerprint, self.fingerprint
            ));
        }
        if ck.shape() != self.shape {
            return Err("topology shape mismatch".to_string());
        }
        Ok((ck, bytes.len() as u64, checksum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-tmp")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint(next_cycle: u64) -> Checkpoint {
        let path =
            |sw: &[u32]| Path::from_switches(&sw.iter().map(|&s| SwitchId(s)).collect::<Vec<_>>());
        let pk = |chan: u32, path: Path| PkRec {
            dst_node: 7,
            src_node: 3,
            birth: 41,
            hop: 1,
            cur_vc: 2,
            cur_chan: chan,
            pre_local: 1,
            pre_global: 0,
            hops_taken: 2,
            flags: 3,
            out_chan: u32::MAX,
            out_vc: 1,
            path,
        };
        let mut stats = Stats::new();
        stats.measuring = true;
        stats.total_injected = 100;
        stats.latency_sum = 1234.0;
        stats.lat_hist[3] = 9;
        Checkpoint {
            fingerprint: 0xFEED,
            groups: 2,
            n_chan: 16,
            n_buf: 64,
            n_switches: 8,
            next_cycle,
            elapsed_ms: 12,
            next_event: 1,
            stats: StatsSnap::pack(&stats),
            rngs: vec![(0, [1, 2, 3, 4]), (1, [5, 6, 7, 8])],
            staging: vec![(2, vec![pk(2, path(&[2, 3, 7]))])],
            inbufs: vec![(9, vec![pk(1, path(&[0, 4, 5]))])],
            arrivals: vec![(next_cycle + 3, pk(5, path(&[6])))],
            credit_events: vec![(next_cycle + 1, 13), (next_cycle + 1, 13)],
            chan_send: vec![ChanSend {
                ch: 2,
                next_free: next_cycle,
                cred_used: 1,
                chan_flits: 40,
            }],
            credits: vec![(8, 31)],
            wait: vec![(9, 12)],
            rr: vec![(0, 5), (3, 1)],
            ready: vec![(3, vec![9, 12])],
            chan_dead: vec![6],
            switch_dead: vec![1],
            obs_blobs: vec![vec![1, 2, 3]],
        }
    }

    fn run_for(dir: &std::path::Path) -> CkptRun {
        CkptRun::new(
            &CkptConfig {
                dir: dir.to_string_lossy().into_owned(),
                every: 100,
                stem: "t".to_string(),
            },
            0xFEED,
            CkptShape {
                groups: 2,
                n_chan: 16,
                n_buf: 64,
                n_switches: 8,
            },
        )
        .unwrap()
    }

    #[test]
    fn codec_roundtrips_bit_for_bit() {
        let ck = sample_checkpoint(200);
        let payload = ck.encode();
        let back = Checkpoint::decode(&payload).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.encode(), payload);
    }

    #[test]
    fn decode_rejects_version_1_payloads() {
        let mut payload = sample_checkpoint(200).encode();
        payload[..4].copy_from_slice(&1u32.to_le_bytes());
        let err = Checkpoint::decode(&payload).unwrap_err();
        assert!(err.contains("version 1"), "{err}");
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        let ck = sample_checkpoint(200);
        let payload = ck.encode();
        assert!(Checkpoint::decode(&payload[..payload.len() - 1]).is_err());
        let mut bad = ck.clone();
        bad.rngs.pop();
        assert!(Checkpoint::decode(&bad.encode())
            .unwrap_err()
            .contains("rng"));
        let mut bad = ck;
        bad.credits[0].0 = 64; // == n_buf, out of range
        assert!(Checkpoint::decode(&bad.encode())
            .unwrap_err()
            .contains("buffer index"));
    }

    #[test]
    fn write_then_load_verifies_checksum_and_retention() {
        let dir = tmp_dir("ckpt_unit_roundtrip");
        let run = run_for(&dir);
        for cycle in [100, 200, 300] {
            run.write_file(&sample_checkpoint(cycle)).unwrap();
        }
        // Retention keeps the newest two; the oldest is pruned.
        let cycles: Vec<u64> = run.candidates().iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![300, 200]);
        let (ck, _, _) = run.load().unwrap();
        assert_eq!(ck, sample_checkpoint(300));
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmp_dir("ckpt_unit_corrupt");
        let run = run_for(&dir);
        run.write_file(&sample_checkpoint(100)).unwrap();
        run.write_file(&sample_checkpoint(200)).unwrap();
        let newest = dir.join("t.00000000000000000200.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        let (ck, _, _) = run.load().unwrap();
        assert_eq!(ck.next_cycle, 100);
        // Truncation of both leaves a cold start.
        for f in ["t.00000000000000000100.ckpt", "t.00000000000000000200.ckpt"] {
            let p = dir.join(f);
            let b = fs::read(&p).unwrap();
            fs::write(&p, &b[..20]).unwrap();
        }
        assert!(run.load().is_none());
    }

    #[test]
    fn fingerprint_and_shape_mismatches_are_rejected() {
        let dir = tmp_dir("ckpt_unit_fingerprint");
        let run = run_for(&dir);
        let mut other = sample_checkpoint(100);
        other.fingerprint = 0xBAD;
        run.write_file(&other).unwrap();
        assert!(run.load().is_none());
        let mut other = sample_checkpoint(100);
        other.n_switches = 9;
        run.write_file(&other).unwrap();
        assert!(run.load().is_none());
    }

    #[test]
    fn decode_rejects_observer_state_split_across_blobs() {
        let mut ck = sample_checkpoint(200);
        ck.obs_blobs = vec![vec![1], vec![2]];
        assert!(Checkpoint::decode(&ck.encode())
            .unwrap_err()
            .contains("observer state"));
        // Empty blobs carry no state, however many there are.
        ck.obs_blobs = vec![Vec::new(), Vec::new()];
        assert_eq!(Checkpoint::decode(&ck.encode()).unwrap(), ck);
    }
}
