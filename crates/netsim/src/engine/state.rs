//! Flow-control state: the per-run allocations of the engine, owned by a
//! reusable [`SimWorkspace`].
//!
//! One workspace holds the complete flow-control state of one run — every
//! switch, input buffer, credit counter and calendar ring of the network —
//! and the engine drives it on the caller's thread.  Parallelism lives one
//! level up: the experiment runner runs independent (series, rate, seed)
//! jobs side by side, each in its own workspace.
//!
//! All per-channel state lives in flat vectors indexed by
//! [`tugal_topology::ChannelId`]:
//!
//! * *staging* — flits that won switch allocation and wait for their 1
//!   flit/cycle slot on the wire (they already hold a downstream credit,
//!   so backpressure is preserved),
//! * *input buffers* — the downstream router's input buffer, one FIFO per
//!   VC,
//! * `credits` — sender-side credit counters per VC; credit return takes
//!   the channel latency, modelled with a calendar ring.
//!
//! The two FIFO families are *intrusive* linked lists threaded through one
//! shared [`SimWorkspace::next_pkt`] array: a packet sits in at most one
//! queue at a time (staging of its current channel, or one input-buffer
//! FIFO downstream), so a single next-pointer per packet replaces a
//! `VecDeque` per queue — no per-queue capacity management, no wraparound
//! arithmetic, and pushes/pops are two or three word-sized stores on the
//! switch-allocation hot path.
//!
//! In-flight flits sit in an arrival calendar ring rather than per-channel
//! pipelines, so per-cycle cost is proportional to the number of flits in
//! flight, not to topology size.  Each router keeps a *ready list* of
//! non-empty input-buffer FIFOs; switch allocation visits only those.
//!
//! A workspace survives across runs: its crate-internal `reset` clears
//! every structure *in place* (keeping the backing capacity) when the
//! engine shape — channel count × VC count × switch count × calendar ring
//! size — matches the previous run, and rebuilds from scratch only when it
//! changes.  A reset workspace is indistinguishable from a fresh one, so
//! reuse cannot perturb determinism (asserted by the golden fixtures and
//! the workspace-reuse tests).

use crate::config::Config;
use std::sync::Mutex;
use tugal_routing::Path;
use tugal_topology::{ChannelKind, Dragonfly, Endpoint};

/// A packet in flight (single-flit, as the paper uses).  The packet's
/// source route is not stored here but in its slot of
/// [`SimWorkspace::paths`], which the hop fields below refer to.
#[derive(Clone, Copy)]
pub(crate) struct Packet {
    pub(crate) dst_node: u32,
    /// Source node (reported to the observer when a fault drops the
    /// packet mid-network).
    pub(crate) src_node: u32,
    pub(crate) birth: u64,
    /// Index of the next hop to take on the packet's path.
    pub(crate) hop: u8,
    /// VC the packet occupies on its current channel.
    pub(crate) cur_vc: u8,
    /// Channel currently carrying/buffering the packet.
    pub(crate) cur_chan: u32,
    /// Local hops taken before `path` started (PAR or fault reroute).
    pub(crate) pre_local: u8,
    /// Global hops taken before `path` started (fault reroute only; PAR
    /// revises before the first global hop).
    pub(crate) pre_global: u8,
    /// Network hops taken so far (for statistics).
    pub(crate) hops_taken: u8,
    pub(crate) flags: u8,
    /// Memoized `next_hop` output channel (`u32::MAX` = not computed).
    /// A blocked head-of-buffer packet is re-examined by switch allocation
    /// every round of every cycle; its next hop is a pure function of the
    /// route state, so it is computed once and invalidated only when
    /// `hop` or the path changes.
    pub(crate) out_chan: u32,
    /// Memoized `next_hop` VC, paired with `out_chan` (`u8::MAX` encodes
    /// the credit-untracked ejection hop).
    pub(crate) out_vc: u8,
}

/// The engine shape a workspace is currently sized for.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    n_chan: usize,
    v: usize,
    n_switches: usize,
    ring_size: usize,
    buf_size: u16,
}

/// Owns every per-run allocation of the engine, so consecutive runs can
/// reuse the backing memory instead of reallocating it.
///
/// Create one with [`SimWorkspace::new`] and pass it to
/// [`crate::Simulator::run_with`]; the sweep layer keeps one workspace per
/// worker through a [`WorkspacePool`].
#[derive(Default)]
pub struct SimWorkspace {
    shape: Option<Shape>,

    // ---- Packet pool ----
    pub(crate) packets: Vec<Packet>,
    pub(crate) free: Vec<u32>,
    /// Route storage, parallel to `packets`: slot `i` holds a copy of the
    /// path packet `i` currently follows (the pre-routing placeholder, the
    /// routing draw, a PAR revision or a fault reroute).  Every routing
    /// draw copies its candidate here, so the per-hop work never reads
    /// the provider's arena, whose random-index loads miss cache on
    /// paper-scale tables.  Stale for free pool slots.
    pub(crate) paths: Vec<Path>,
    /// Intrusive FIFO links, parallel to `packets`: the next packet in
    /// whichever queue (staging or input buffer) packet `i` currently
    /// waits in; `u32::MAX` terminates a list.  Stale for packets not in
    /// any queue.
    pub(crate) next_pkt: Vec<u32>,

    // ---- Per channel ----
    pub(crate) latency: Vec<u32>,
    /// Staging FIFO head per channel (`u32::MAX` = empty).
    pub(crate) stg_head: Vec<u32>,
    /// Staging FIFO tail per channel (`u32::MAX` = empty).
    pub(crate) stg_tail: Vec<u32>,
    /// Staging FIFO length per channel, maintained explicitly: the UGAL
    /// queue metrics and the source-queue cap read it per routing
    /// decision.
    pub(crate) stg_len: Vec<u32>,
    pub(crate) next_free: Vec<u64>,
    pub(crate) in_busy: Vec<bool>,
    pub(crate) busy_list: Vec<u32>,
    /// Credits available, per (channel * V + vc).
    pub(crate) credits: Vec<u16>,
    /// Input-buffer FIFO head per (channel * V + vc) (`u32::MAX` = empty).
    pub(crate) inb_head: Vec<u32>,
    /// Input-buffer FIFO tail per (channel * V + vc) (`u32::MAX` = empty).
    pub(crate) inb_tail: Vec<u32>,
    /// Sum of in_buf occupancy over VCs, per channel (UGAL-G metric).
    pub(crate) buf_occ: Vec<u32>,
    /// Credits consumed, per channel (UGAL-L metric).
    pub(crate) cred_used: Vec<u32>,
    /// Destination switch of each network/injection channel (u32::MAX for
    /// ejection).
    pub(crate) dst_switch: Vec<u32>,
    /// Channel of each buffer index (`idx / V`, precomputed: the engine
    /// needs it once per credit return and once per dequeue, and `V` is
    /// not a power of two for every scheme).
    pub(crate) chan_of_buf: Vec<u32>,
    /// True for global channels (for utilization aggregation).
    pub(crate) is_global: Vec<bool>,

    // ---- Per switch ----
    pub(crate) ready: Vec<Vec<u32>>, // buffer indices (chan * V + vc)
    pub(crate) in_ready: Vec<bool>,  // per buffer index
    /// Per buffer index: the `(channel * V + vc)` credit counter the head
    /// packet found empty, or `u32::MAX` when not blocked.  Switch
    /// allocation skips a waiting buffer with two loads instead of the
    /// full head inspection until that counter is replenished — a pure
    /// fast path, since a credit-starved head cannot win and credits
    /// never increase within a cycle.  Maintained only on the pristine
    /// (fault-free) path, where heads have no other per-round side
    /// effects; fault runs take the full scan so `fault_check` still
    /// sees every head.
    pub(crate) wait: Vec<u32>,
    pub(crate) rr: Vec<usize>,
    pub(crate) out_stamp: Vec<u64>, // per channel: SA round stamp

    // ---- Calendars ----
    pub(crate) arrivals: Vec<Vec<u32>>, // ring by cycle: packet indices
    pub(crate) credit_ring: Vec<Vec<u32>>, // ring by cycle: buffer indices
    /// Drained-slot scratch buffers: each cycle swaps the due calendar
    /// slot with one of these, iterates it and swaps back cleared, so ring
    /// capacity circulates instead of being dropped and reallocated.
    pub(crate) arrival_scratch: Vec<u32>,
    pub(crate) credit_scratch: Vec<u32>,
    /// Sort keys of the due arrival slot, `cur_chan << 32 | packet`:
    /// sorting packed keys orders the slot by channel without an
    /// indirect packet load per comparison (see `Engine::step`).
    pub(crate) arrival_keys: Vec<u64>,

    /// Flits sent per channel during the run (utilization statistic).
    pub(crate) chan_flits: Vec<u32>,

    // ---- Fault state (all false unless a fault schedule is configured) ----
    /// Channels killed by applied fault events, per channel.
    pub(crate) chan_dead: Vec<bool>,
    /// Switches killed by applied fault events, per switch.
    pub(crate) switch_dead: Vec<bool>,
}

impl SimWorkspace {
    /// An empty workspace; the first (crate-internal) `reset` sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calendar ring size for a configuration: enough slots to cover the
    /// largest latency, rounded up to a power of two so the per-event
    /// slot computation is a mask instead of a division (the engine
    /// pushes to a calendar ring for every grant and every wire
    /// transmission).
    pub(crate) fn ring_size_for(cfg: &Config) -> usize {
        let max_lat = cfg
            .local_latency
            .max(cfg.global_latency)
            .max(cfg.terminal_latency) as usize;
        (max_lat + 2).next_power_of_two()
    }

    /// Prepares the workspace for a run of `topo` under `cfg`: same-shape
    /// resets clear in place (keeping capacity), shape changes rebuild.
    pub(crate) fn reset(&mut self, topo: &Dragonfly, cfg: &Config) {
        let shape = Shape {
            n_chan: topo.num_channels(),
            v: cfg.num_vcs as usize,
            n_switches: topo.num_switches(),
            ring_size: Self::ring_size_for(cfg),
            buf_size: cfg.buf_size,
        };
        if self.shape != Some(shape) {
            self.resize(&shape);
            self.shape = Some(shape);
        }
        self.clear(cfg);

        // Channel geometry is cheap to rederive and may differ between
        // configs of the same shape (e.g. latencies), so refill it on every
        // reset; the buffers above keep their capacity either way.
        self.latency.clear();
        self.dst_switch.clear();
        self.is_global.clear();
        for ch in topo.channels() {
            self.latency.push(match ch.kind {
                ChannelKind::Local => cfg.local_latency,
                ChannelKind::Global => cfg.global_latency,
                _ => cfg.terminal_latency,
            });
            self.dst_switch.push(match ch.dst {
                Endpoint::Switch(s) => s.0,
                Endpoint::Node(_) => u32::MAX,
            });
            self.is_global.push(ch.kind == ChannelKind::Global);
        }
    }

    /// Occupancy (in flits) of the downstream input buffer of channel
    /// `chan`, VC `vc`, for an engine with `v` VCs per channel — the
    /// quantity the observer seam samples through
    /// [`super::SimObserver::on_vc_occupancy_sample`].
    /// (Observer-only: walks the FIFO, so cost is its length — the hot
    /// engine paths never need an input-buffer length.)
    #[inline]
    pub(crate) fn vc_occupancy(&self, chan: usize, v: usize, vc: usize) -> u32 {
        let mut n = 0;
        let mut p = self.inb_head[chan * v + vc];
        while p != u32::MAX {
            n += 1;
            p = self.next_pkt[p as usize];
        }
        n
    }

    /// Appends `pi` to the staging FIFO of channel `ch`.
    #[inline]
    pub(crate) fn stg_push(&mut self, ch: usize, pi: u32) {
        self.next_pkt[pi as usize] = u32::MAX;
        let t = self.stg_tail[ch];
        if t == u32::MAX {
            self.stg_head[ch] = pi;
        } else {
            self.next_pkt[t as usize] = pi;
        }
        self.stg_tail[ch] = pi;
        self.stg_len[ch] += 1;
    }

    /// Pops the head of the staging FIFO of channel `ch`.
    #[inline]
    pub(crate) fn stg_pop(&mut self, ch: usize) -> Option<u32> {
        let h = self.stg_head[ch];
        if h == u32::MAX {
            return None;
        }
        let n = self.next_pkt[h as usize];
        self.stg_head[ch] = n;
        if n == u32::MAX {
            self.stg_tail[ch] = u32::MAX;
        }
        self.stg_len[ch] -= 1;
        Some(h)
    }

    /// Appends `pi` to the input-buffer FIFO `idx` (= channel * V + vc).
    #[inline]
    pub(crate) fn inb_push(&mut self, idx: usize, pi: u32) {
        self.next_pkt[pi as usize] = u32::MAX;
        let t = self.inb_tail[idx];
        if t == u32::MAX {
            self.inb_head[idx] = pi;
        } else {
            self.next_pkt[t as usize] = pi;
        }
        self.inb_tail[idx] = pi;
    }

    /// Pops the head of input-buffer FIFO `idx`.
    #[inline]
    pub(crate) fn inb_pop(&mut self, idx: usize) -> Option<u32> {
        let h = self.inb_head[idx];
        if h == u32::MAX {
            return None;
        }
        let n = self.next_pkt[h as usize];
        self.inb_head[idx] = n;
        if n == u32::MAX {
            self.inb_tail[idx] = u32::MAX;
        }
        Some(h)
    }

    /// Clears every run-state structure in place, keeping its capacity.
    fn clear(&mut self, cfg: &Config) {
        self.packets.clear();
        self.free.clear();
        self.paths.clear();
        self.next_pkt.clear();
        self.busy_list.clear();
        self.stg_head.fill(u32::MAX);
        self.stg_tail.fill(u32::MAX);
        self.stg_len.fill(0);
        self.next_free.fill(0);
        self.in_busy.fill(false);
        self.credits.fill(cfg.buf_size);
        self.inb_head.fill(u32::MAX);
        self.inb_tail.fill(u32::MAX);
        self.buf_occ.fill(0);
        self.cred_used.fill(0);
        for r in &mut self.ready {
            r.clear();
        }
        self.in_ready.fill(false);
        self.wait.fill(u32::MAX);
        self.rr.fill(0);
        self.out_stamp.fill(0);
        for a in &mut self.arrivals {
            a.clear();
        }
        for c in &mut self.credit_ring {
            c.clear();
        }
        self.arrival_scratch.clear();
        self.credit_scratch.clear();
        self.arrival_keys.clear();
        self.chan_flits.fill(0);
        self.chan_dead.fill(false);
        self.switch_dead.fill(false);
    }

    fn resize(&mut self, s: &Shape) {
        self.packets = Vec::new();
        self.free = Vec::new();
        self.paths = Vec::new();
        self.next_pkt = Vec::new();
        self.latency = Vec::with_capacity(s.n_chan);
        self.stg_head = vec![u32::MAX; s.n_chan];
        self.stg_tail = vec![u32::MAX; s.n_chan];
        self.stg_len = vec![0; s.n_chan];
        self.next_free = vec![0; s.n_chan];
        self.in_busy = vec![false; s.n_chan];
        self.busy_list = Vec::new();
        self.credits = vec![s.buf_size; s.n_chan * s.v];
        self.inb_head = vec![u32::MAX; s.n_chan * s.v];
        self.inb_tail = vec![u32::MAX; s.n_chan * s.v];
        self.chan_of_buf = (0..s.n_chan * s.v).map(|i| (i / s.v) as u32).collect();
        self.buf_occ = vec![0; s.n_chan];
        self.cred_used = vec![0; s.n_chan];
        self.dst_switch = Vec::with_capacity(s.n_chan);
        self.is_global = Vec::with_capacity(s.n_chan);
        self.ready = vec![Vec::new(); s.n_switches];
        self.in_ready = vec![false; s.n_chan * s.v];
        self.wait = vec![u32::MAX; s.n_chan * s.v];
        self.rr = vec![0; s.n_switches];
        self.out_stamp = vec![0; s.n_chan];
        self.arrivals = vec![Vec::new(); s.ring_size];
        self.credit_ring = vec![Vec::new(); s.ring_size];
        self.arrival_scratch = Vec::new();
        self.credit_scratch = Vec::new();
        self.arrival_keys = Vec::new();
        self.chan_flits = vec![0; s.n_chan];
        self.chan_dead = vec![false; s.n_chan];
        self.switch_dead = vec![false; s.n_switches];
    }
}

/// A shared bag of [`SimWorkspace`]s for parallel sweeps: each job checks
/// one out (creating it on first use), runs, and returns it, so a sweep
/// allocates at most one workspace per concurrently running worker no
/// matter how many (rate, seed) jobs it schedules.
#[derive(Default)]
pub struct WorkspacePool {
    inner: Mutex<Vec<SimWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a pooled workspace (a fresh one when the pool is
    /// empty), returning the workspace to the pool afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut SimWorkspace) -> R) -> R {
        let mut ws = self
            .inner
            .lock()
            .map(|mut v| v.pop())
            .unwrap_or_default()
            .unwrap_or_default();
        let r = f(&mut ws);
        if let Ok(mut v) = self.inner.lock() {
            v.push(ws);
        }
        r
    }

    /// Number of workspaces currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.inner.lock().map(|v| v.len()).unwrap_or(0)
    }
}
