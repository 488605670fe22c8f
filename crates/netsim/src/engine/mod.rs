//! The cycle-driven simulation engine, layered into focused submodules:
//!
//! * [`state`] — flow-control state (packet pool, buffers, credits,
//!   calendar rings) behind the reusable [`SimWorkspace`], split into
//!   per-shard slabs,
//! * [`routing`] — the UGAL-L/G + PAR decision logic,
//! * [`alloc`] — injection, switch allocation and wire transmission,
//! * [`collect`] — statistics counters and [`SimResult`] finalization,
//! * [`observer`] — the monomorphized [`SimObserver`] probe seam,
//! * [`watchdog`] — opt-in invariant monitoring and stall reports.
//!
//! The cycle loop executes the phase order of the original monolithic
//! engine (credit returns → arrivals → injection → switch allocation →
//! wire transmission), and the golden fixtures in `tests/golden.rs` pin
//! its results bit-for-bit.
//!
//! ## Partitioned execution
//!
//! A run executes as `Config::shards` workers, each owning a contiguous
//! range of dragonfly groups (see [`state::ShardState`]).  Within a cycle
//! each worker simulates only its own switches and channels; flits and
//! credits that cross a shard boundary travel through per-pair mailboxes
//! (cycle-stamped message batches behind mutexes), and a barrier at the
//! end of every cycle publishes each shard's counters so all workers take
//! **identical** stop decisions (saturation caps, deadlock heuristic,
//! armed watchdog checks).  Determinism is the hard contract: mailboxes
//! are drained in ascending source-shard order, arrival slots are sorted
//! by channel, RNG streams are keyed per *group* rather than per run, and
//! per-shard statistics merge in shard order — so a run with any valid
//! shard count is bit-for-bit identical to the sequential one (pinned by
//! `tests/shard_parity.rs`).  `shards == 1` (the default) runs today's
//! sequential path on the caller's thread: no mailboxes, no barriers, no
//! atomics traffic.
//!
//! ## Routing
//!
//! Packets are source-routed: the UGAL decision (one MIN candidate versus
//! one VLB candidate, drawn from the configured
//! [`tugal_routing::PathProvider`]) runs when the packet reaches the head
//! of its injection queue at the source switch.  PAR may revise a MIN
//! decision once, at the second router inside the source group, switching
//! to a fresh VLB path from that router (with the extra VC class the
//! +1-VC configuration provides).

mod alloc;
mod collect;
mod fault;
mod observer;
mod profile;
mod routing;
mod state;
mod watchdog;

pub use observer::{NoopObserver, SimObserver};
pub use profile::{
    EngineProf, EngineProfiler, NoopProfiler, Phase, ProfileReport, ShardProfile, PHASE_COUNT,
};
pub use state::{SimWorkspace, WorkspacePool};
pub use watchdog::{
    ConservationLedger, FlightFrame, OldestPacket, RoutingCounters, StallKind, StallReport,
    VcSnapshot, WatchdogConfig,
};

use crate::ckpt::{self, CkptEvent, CkptEventKind, CkptRun, CkptShape, CkptWarning, ResumeCtx};
use crate::config::{Config, RoutingAlgorithm};
use crate::fault::FaultSchedule;
use crate::stats::SimResult;
pub(crate) use collect::Stats;
use rand::rngs::SmallRng;
use rand::SeedableRng;
pub(crate) use state::{Packet, ShardState};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier, Mutex};
use tugal_routing::{Path, PathProvider, PathRef};
use tugal_topology::Dragonfly;
use tugal_traffic::TrafficPattern;
use watchdog::StallPartial;

/// Per-node cap on the source queue.  BookSim models infinite source
/// queues; bounding them only matters beyond saturation (where the latency
/// threshold has long fired) and keeps memory finite during deep-saturation
/// sweep points.  Overflowing packets are dropped and counted as injected.
const SOURCE_QUEUE_CAP: usize = 256;

/// Early-exit guard: if more packets than this per node are in flight the
/// run is declared saturated without finishing the window.
const INFLIGHT_CAP_PER_NODE: usize = 64;

pub(crate) const F_ROUTED: u8 = 1;
pub(crate) const F_REVISABLE: u8 = 2;
pub(crate) const F_VLB: u8 = 4;

/// Weyl-sequence multiplier mixing the group index into the run seed:
/// every dragonfly group draws from its own `SmallRng` stream, so the RNG
/// consumption of one group is independent of how many shards execute the
/// run — the keystone of the shard-count-invariance contract.
const GROUP_SEED_MIX: u64 = 0x9E3779B97F4A7C15;

fn group_rng(seed: u64, group: u32) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ GROUP_SEED_MIX.wrapping_mul(group as u64 + 1))
}

/// A boundary message between shards: a flit handed to the shard owning
/// the receiving switch, or a credit returned to the shard owning the
/// sending switch.
pub(crate) enum Msg {
    /// A flit that finished its wire traversal into another shard's
    /// switch: arrives at absolute cycle `due`.  The packet's route rides
    /// along into the receiver's `ShardState::paths` slab.
    Flit { due: u64, pkt: Packet, path: Path },
    /// A credit for buffer index `idx` (channel * V + vc), due at absolute
    /// cycle `due` on the sender shard's credit calendar.
    Credit { idx: u32, due: u64 },
}

/// Begin-of-allocation snapshot of the UGAL-G queue inputs: staged-flit
/// counts (sender side) and input-buffer occupancy (receiver side) per
/// network channel.  Written by each owner after injection, read by every
/// shard's routing decisions during allocation — separated by a barrier,
/// so relaxed atomics suffice.  Allocated (for every shard count,
/// including 1) only when the routing algorithm is UGAL-G, which keeps
/// the metric identical across shard counts: the "global genie" reads a
/// consistent cycle-start snapshot instead of mid-allocation live state.
pub(crate) struct Snap {
    stg: Vec<AtomicU32>,
    occ: Vec<AtomicU32>,
}

impl Snap {
    fn new(n_network: usize) -> Self {
        Snap {
            stg: (0..n_network).map(|_| AtomicU32::new(0)).collect(),
            occ: (0..n_network).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

/// One shard's end-of-cycle publication: the counters every worker needs
/// to take the global stop decisions.  Double-buffered by cycle parity so
/// a worker one cycle ahead cannot clobber values a slower worker is
/// still reading (a worker can lead by at most one cycle — the barrier
/// bounds the skew).
#[derive(Default)]
struct PubSlot {
    in_flight: AtomicU64,
    sent: AtomicU64,
    recv: AtomicU64,
    last_delivery: AtomicU64,
    injected: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    /// Wall-clock elapsed, published by shard 0 only (at the watchdog's
    /// 1024-cycle cadence) so the wall-limit check trips identically on
    /// every shard.
    elapsed_ms: AtomicU64,
}

/// One boundary mailbox: cycle-stamped batches of [`Msg`], appended by
/// the source shard at the end of its cycle, drained by the destination.
type Mailbox = Mutex<VecDeque<(u64, Vec<Msg>)>>;

/// Shared state of a multi-shard run: the cycle barrier, the N×N mailbox
/// matrix and the per-shard publication cells.
pub(crate) struct SharedRun {
    n: usize,
    barrier: Barrier,
    /// Mailbox `src * n + dst`: cycle-stamped message batches.  The
    /// receiver drains only batches stamped *before* its current cycle,
    /// in ascending source-shard order — fixed drain order is part of the
    /// determinism contract.
    boxes: Vec<Mailbox>,
    /// Publication cells, double-buffered by cycle parity.
    cells: Vec<[PubSlot; 2]>,
}

impl SharedRun {
    fn new(n: usize) -> Self {
        SharedRun {
            n,
            barrier: Barrier::new(n),
            boxes: (0..n * n).map(|_| Mutex::new(VecDeque::new())).collect(),
            cells: (0..n)
                .map(|_| [PubSlot::default(), PubSlot::default()])
                .collect(),
        }
    }
}

/// The globally agreed counters of the cycle that just completed; every
/// shard computes the identical value from the published cells (or from
/// its own counters on the sequential path).
#[derive(Default)]
struct CycleGlobals {
    in_flight: u64,
    last_delivery: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    elapsed_ms: u64,
}

/// What one shard worker hands back to the orchestrator.
pub(crate) struct ShardOutcome {
    stats: Stats,
    kind: Option<StallKind>,
    stall: Option<StallPartial>,
    in_flight: u64,
    sent: u64,
    recv: u64,
    now: u64,
}

/// A configured simulation; [`Simulator::run`] executes it at one offered
/// load.
pub struct Simulator {
    pub(crate) topo: Arc<Dragonfly>,
    pub(crate) provider: Arc<dyn PathProvider>,
    pub(crate) pattern: Arc<dyn TrafficPattern>,
    pub(crate) routing: RoutingAlgorithm,
    pub(crate) cfg: Config,
    pub(crate) faults: Option<Arc<FaultSchedule>>,
}

impl Simulator {
    /// Builds a simulator.  `cfg.num_vcs` must cover the VC classes the
    /// routing needs (use [`Config::for_routing`]).
    pub fn new(
        topo: Arc<Dragonfly>,
        provider: Arc<dyn PathProvider>,
        pattern: Arc<dyn TrafficPattern>,
        routing: RoutingAlgorithm,
        cfg: Config,
    ) -> Self {
        let required = tugal_routing::required_vcs(cfg.vc_scheme, routing.progressive());
        assert!(
            cfg.num_vcs >= required,
            "{} under the {:?} scheme needs {} VCs, got {}",
            routing.name(),
            cfg.vc_scheme,
            required,
            cfg.num_vcs
        );
        Self {
            topo,
            provider,
            pattern,
            routing,
            cfg,
            faults: None,
        }
    }

    /// Attaches a fault schedule: the components it names die at their
    /// configured cycles (see the `fault` module).  An empty schedule
    /// leaves the engine on the pristine fast path — results are
    /// bit-identical to a simulator without one.
    pub fn with_faults(self, schedule: FaultSchedule) -> Self {
        self.with_fault_schedule(Arc::new(schedule))
    }

    /// [`Simulator::with_faults`] for an already-shared schedule (sweeps
    /// reuse one schedule across many jobs).
    pub fn with_fault_schedule(mut self, schedule: Arc<FaultSchedule>) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Runs the configured warmup + measurement windows at `rate`
    /// packets/cycle/node (`0 < rate ≤ 1`) in a freshly allocated
    /// workspace.  Sweeps should prefer [`Simulator::run_with`] with a
    /// reused [`SimWorkspace`].
    pub fn run(&self, rate: f64) -> SimResult {
        self.run_with(rate, &mut SimWorkspace::new())
    }

    /// Like [`Simulator::run`], but executes inside `ws`, reusing its
    /// allocations.  The workspace is reset first, so results are
    /// identical whether `ws` is fresh or previously used (for any
    /// topology/config/shard count — shape changes reallocate
    /// transparently).
    pub fn run_with(&self, rate: f64, ws: &mut SimWorkspace) -> SimResult {
        self.run_observed(rate, ws, &mut NoopObserver)
    }

    /// Like [`Simulator::run_with`], with a [`SimObserver`] receiving
    /// cycle-level events.  The engine is monomorphized per observer type;
    /// the default [`NoopObserver`] compiles to the unobserved loop.
    pub fn run_observed<O: SimObserver>(
        &self,
        rate: f64,
        ws: &mut SimWorkspace,
        obs: &mut O,
    ) -> SimResult {
        self.run_reported(rate, ws, obs).0
    }

    /// Like [`Simulator::run_observed`], additionally returning the
    /// [`StallReport`] if the configured watchdog tripped (`None` when the
    /// watchdog is off or never fired).  The `SimResult` is identical to
    /// the one [`Simulator::run_observed`] returns for the same inputs.
    ///
    /// With `cfg.shards > 1` the run executes as that many shard workers
    /// (panicking if the count does not divide the topology's groups —
    /// use [`Config::validate_shards`] up front for a typed error).  If
    /// the observer cannot fork ([`SimObserver::fork`] returns `None`)
    /// the run silently falls back to the sequential path, which is
    /// result-identical by the determinism contract.
    pub fn run_reported<O: SimObserver>(
        &self,
        rate: f64,
        ws: &mut SimWorkspace,
        obs: &mut O,
    ) -> (SimResult, Option<StallReport>) {
        self.run_profiled(rate, ws, obs, &mut NoopProfiler)
    }

    /// Like [`Simulator::run_reported`], with an [`EngineProfiler`]
    /// attributing each shard worker's wall-clock to the cycle loop's
    /// phases and counting its boundary traffic.  The engine is
    /// monomorphized per profiler type; [`NoopProfiler`] (what every other
    /// entry point passes) compiles to the unprofiled loop, and a real
    /// profiler ([`EngineProf`]) is observational only — the `SimResult`
    /// and `StallReport` are bit-identical either way (pinned by
    /// `tests/profile.rs`).
    pub fn run_profiled<O: SimObserver, P: EngineProfiler>(
        &self,
        rate: f64,
        ws: &mut SimWorkspace,
        obs: &mut O,
        prof: &mut P,
    ) -> (SimResult, Option<StallReport>) {
        let (result, stall, _) = self.run_instrumented(rate, ws, obs, prof);
        (result, stall)
    }

    /// [`Simulator::run_profiled`] plus the checkpoint events
    /// (writes/restores) the run performed, for trace-span emission.  With
    /// `cfg.checkpoint = None` (the default) the event list is empty and
    /// the run is bit-identical to one on a build without checkpointing.
    ///
    /// With `Some`, the run first restores from the newest valid
    /// checkpoint in the configured directory (cold-starting when there is
    /// none), then writes a checkpoint every `every` cycles.  Restore is
    /// bit-for-bit: the resumed run's result equals the uninterrupted
    /// run's, at any valid shard count — the checkpoint is canonical
    /// (keyed by group/channel ownership), so the writer's and reader's
    /// shard counts are independent.  If the observer does not implement
    /// [`SimObserver::snapshot`], checkpointing is disabled for the job
    /// with a warning (results unaffected), mirroring the fork fallback.
    pub(crate) fn run_instrumented<O: SimObserver, P: EngineProfiler>(
        &self,
        rate: f64,
        ws: &mut SimWorkspace,
        obs: &mut O,
        prof: &mut P,
    ) -> (SimResult, Option<StallReport>, Vec<CkptEvent>) {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "injection rate {rate} out of (0,1]"
        );
        let groups = self.topo.num_groups() as u32;
        if let Err(e) = self.cfg.validate_shards(groups) {
            panic!("invalid shard configuration: {e}");
        }

        // Fork one observer per shard; an observer that cannot fork runs
        // the whole simulation sequentially instead (bit-identical, just
        // not parallel).
        let want = self.cfg.shards as usize;
        let mut forks: Vec<O> = Vec::new();
        if want > 1 {
            for _ in 0..want {
                match obs.fork() {
                    Some(f) => forks.push(f),
                    None => {
                        forks.clear();
                        break;
                    }
                }
            }
        }
        let exec = if want > 1 && forks.len() == want {
            want
        } else {
            1
        };

        ws.reset(&self.topo, &self.cfg, exec);
        let n_network = self.topo.num_network_channels();
        let nodes = self.topo.num_nodes();
        let snap = (self.routing == RoutingAlgorithm::UgalG).then(|| Snap::new(n_network));

        // Checkpoint coordinator: built only when configured, the observer
        // can snapshot, and the directory is usable — otherwise a typed
        // warning and the run proceeds unchanged (checkpointing is purely
        // additive, never load-bearing for results).
        let mut ck_events: Vec<CkptEvent> = Vec::new();
        let ckrun = match &self.cfg.checkpoint {
            None => None,
            Some(_) if obs.snapshot().is_none() => {
                eprintln!("warning: {}", CkptWarning::ObserverSnapshotUnsupported);
                None
            }
            Some(cc) => {
                let shape = CkptShape {
                    groups,
                    n_chan: self.topo.num_channels() as u64,
                    n_buf: (self.topo.num_channels() * self.cfg.num_vcs as usize) as u64,
                    n_switches: self.topo.num_switches() as u64,
                };
                let topo_key = format!("{:?}{}", self.topo.params(), self.topo.shape_suffix());
                let fp = ckpt::fingerprint(
                    &topo_key,
                    self.routing,
                    &self.cfg,
                    self.faults.as_deref(),
                    rate,
                );
                match CkptRun::new(cc, fp, shape, exec) {
                    Ok(run) => Some(run),
                    Err(e) => {
                        eprintln!("warning: checkpoint directory {} unusable: {e}", cc.dir);
                        None
                    }
                }
            }
        };
        // Restore: newest valid checkpoint (corrupt candidates fall back
        // to the previous retained file, then to a cold start).  State is
        // applied per shard by ownership, so the writer's shard count is
        // irrelevant — except for observer blobs, which are per-fork; a
        // non-empty blob set must match the shard count to apply.
        let mut resume: Option<ResumeCtx> = None;
        if let Some(ck) = &ckrun {
            let t0 = std::time::Instant::now();
            if let Some((chk, bytes, checksum)) = ck.load() {
                let blobs_empty = chk.obs_blobs.iter().all(|b| b.is_empty());
                if !blobs_empty && chk.obs_blobs.len() != exec {
                    eprintln!(
                        "warning: {}",
                        CkptWarning::ObserverShardMismatch {
                            blobs: chk.obs_blobs.len(),
                            shards: exec,
                        }
                    );
                } else {
                    let ring_mask = SimWorkspace::ring_size_for(&self.cfg) as u64 - 1;
                    for st in ws.shards.iter_mut() {
                        ckpt::apply_shard(&chk, st, ring_mask);
                    }
                    if !blobs_empty {
                        if exec == 1 {
                            obs.restore(&chk.obs_blobs[0]);
                        } else {
                            for (f, b) in forks.iter_mut().zip(&chk.obs_blobs) {
                                f.restore(b);
                            }
                        }
                    }
                    ck_events.push(CkptEvent {
                        kind: CkptEventKind::Restore,
                        cycle: chk.next_cycle,
                        shards: exec as u32,
                        bytes,
                        checksum,
                        elapsed_ms: t0.elapsed().as_millis() as u64,
                    });
                    resume = Some(ResumeCtx::from_checkpoint(&chk));
                }
            }
        }
        let ckr = ckrun.as_ref();
        let res = resume.as_ref();

        let (mut outs, global_in_flight) = if exec == 1 {
            let eng = Engine::new(
                self,
                rate,
                &mut ws.shards[0],
                obs,
                prof,
                None,
                snap.as_ref(),
                ckr,
                res,
            );
            let out = eng.run();
            let gif = out.in_flight;
            (vec![out], gif)
        } else {
            let mut pforks: Vec<P> = (0..exec).map(|_| prof.fork()).collect();
            let shared = SharedRun::new(exec);
            let joined: Vec<(ShardOutcome, O, P)> = std::thread::scope(|scope| {
                let shared = &shared;
                let snap = snap.as_ref();
                let mut handles = Vec::with_capacity(exec);
                for ((st, fork), pfork) in ws
                    .shards
                    .iter_mut()
                    .zip(forks.drain(..))
                    .zip(pforks.drain(..))
                {
                    handles.push(scope.spawn(move || {
                        let mut fork = fork;
                        let mut pfork = pfork;
                        let eng = Engine::new(
                            self,
                            rate,
                            st,
                            &mut fork,
                            &mut pfork,
                            Some(shared),
                            snap,
                            ckr,
                            res,
                        );
                        (eng.run(), fork, pfork)
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });
            let mut outs = Vec::with_capacity(exec);
            for (out, fork, pfork) in joined {
                obs.absorb(fork);
                prof.absorb(pfork);
                outs.push(out);
            }
            // Boundary messages nobody drained before the run stopped: the
            // exact gap between the shards' sent and received counters
            // (cold path, and only when a real profiler is attached).
            if P::ENABLED {
                let (mut uf, mut uc) = (0u64, 0u64);
                for mb in &shared.boxes {
                    for (_, msgs) in mb.lock().unwrap().iter() {
                        for m in msgs {
                            match m {
                                Msg::Flit { .. } => uf += 1,
                                Msg::Credit { .. } => uc += 1,
                            }
                        }
                    }
                }
                prof.note_undrained(uf, uc);
            }
            // Global in-flight population: per-shard pools plus flits
            // still sitting in mailboxes (sent but never drained).
            let gif = outs.iter().map(|o| o.in_flight + o.sent).sum::<u64>()
                - outs.iter().map(|o| o.recv).sum::<u64>();
            (outs, gif)
        };

        // Deterministic reduction in shard order.
        let mut partials = Vec::new();
        if let Some(p) = outs[0].stall.take() {
            partials.push(p);
        }
        let (first, rest) = outs.split_at_mut(1);
        let first = &mut first[0];
        for o in rest {
            debug_assert_eq!(o.kind, first.kind, "shards disagree on the stop decision");
            debug_assert_eq!(o.now, first.now, "shards disagree on the stop cycle");
            first.stats.merge(&o.stats);
            if let Some(p) = o.stall.take() {
                partials.push(p);
            }
        }
        let now = first.now;
        obs.on_run_end(now, global_in_flight);

        // Per-channel flit counts: each shard increments only channels
        // whose send side it owns, so the per-shard vectors sum disjointly.
        let merged_flits;
        let chan_flits: &[u32] = if ws.shards.len() == 1 {
            &ws.shards[0].chan_flits
        } else {
            let mut acc = vec![0u32; self.topo.num_channels()];
            for st in &ws.shards {
                for (a, &f) in acc.iter_mut().zip(&st.chan_flits) {
                    *a += f;
                }
            }
            merged_flits = acc;
            &merged_flits
        };

        let result = first.stats.finalize(
            &self.cfg,
            rate,
            now,
            nodes,
            chan_flits,
            &ws.shards[0].is_global,
            n_network,
        );
        let stall = first.kind.map(|kind| {
            StallReport::assemble(
                kind,
                now,
                first.stats.last_delivery,
                ConservationLedger {
                    injected: first.stats.total_injected,
                    delivered: first.stats.total_delivered,
                    dropped: first.stats.total_dropped,
                    in_flight: global_in_flight,
                },
                RoutingCounters {
                    routed: first.stats.routed,
                    vlb_chosen: first.stats.vlb_chosen,
                },
                partials,
            )
        });
        if let Some(ck) = &ckrun {
            ck_events.extend(ck.take_events());
        }
        (result, stall, ck_events)
    }
}

pub(crate) struct Engine<'a, O: SimObserver, P: EngineProfiler> {
    pub(crate) sim: &'a Simulator,
    pub(crate) ws: &'a mut ShardState,
    pub(crate) obs: &'a mut O,
    /// The profiling seam: every hook is an inline no-op for
    /// [`NoopProfiler`], so the unprofiled engine is unchanged.
    pub(crate) prof: &'a mut P,
    pub(crate) rate: f64,
    pub(crate) now: u64,
    /// One RNG stream per *owned group* (index = group − `ws.group_lo`).
    /// Keying randomness by group — injection by the node's group, routing
    /// draws by the deciding switch's group — makes every stream's
    /// consumption independent of the shard count.
    pub(crate) rngs: Vec<SmallRng>,
    pub(crate) v: usize, // num VCs
    pub(crate) in_flight: usize,
    /// Flits handed to other shards' mailboxes / received from them
    /// (global in-flight accounting: Σ in_flight + Σ sent − Σ recv).
    pub(crate) sent: u64,
    pub(crate) recv: u64,
    /// `ring_size - 1`; ring sizes are powers of two, so calendar slots
    /// are computed with a mask instead of a per-event division.
    pub(crate) ring_mask: u64,
    /// Channels below this index are switch-to-switch (credit-managed on
    /// both sides); injection channels return no upstream credit (their
    /// upstream is the source queue).
    pub(crate) n_network: usize,
    pub(crate) stats: Stats,
    /// True when a non-empty fault schedule is attached; every fault code
    /// path is behind this flag, so fault-free runs stay bit-identical.
    pub(crate) fault_on: bool,
    /// Next unapplied event of the fault schedule.
    next_event: usize,
    /// `Some` for multi-shard runs; `None` compiles the sequential path
    /// with no barriers or mailbox traffic.
    shared: Option<&'a SharedRun>,
    /// Per-destination-shard outgoing message batches, flushed at the end
    /// of every cycle (empty and untouched on the sequential path).
    pub(crate) outbox: Vec<Vec<Msg>>,
    /// UGAL-G queue snapshot (`None` for every other routing algorithm).
    snap: Option<&'a Snap>,
    /// Checkpoint coordinator (`None` keeps the loop's checkpoint test to
    /// a single `Option` check per cycle).
    ckpt: Option<&'a CkptRun>,
    /// Wall-clock milliseconds accumulated before a restored run started;
    /// added to every published elapsed sample so watchdog wall ceilings
    /// span restarts instead of resetting at each resume.
    wall_offset_ms: u64,
    /// Flight-recorder ring (empty unless an armed watchdog sets
    /// `flight_recorder > 0`): the last `fr_cap` cycles' frames, oldest at
    /// `fr_pos` once the ring wraps.
    fr_ring: Vec<FlightFrame>,
    fr_pos: usize,
    fr_cap: usize,
}

impl<'a, O: SimObserver, P: EngineProfiler> Engine<'a, O, P> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        sim: &'a Simulator,
        rate: f64,
        st: &'a mut ShardState,
        obs: &'a mut O,
        prof: &'a mut P,
        shared: Option<&'a SharedRun>,
        snap: Option<&'a Snap>,
        ckpt: Option<&'a CkptRun>,
        resume: Option<&'a ResumeCtx>,
    ) -> Self {
        let cfg = &sim.cfg;
        let groups_owned = ((st.node_hi - st.node_lo) / st.nodes_per_group) as usize;
        // On resume every group's RNG stream continues exactly where the
        // checkpoint froze it; states are stored per *group*, so any
        // reader shard count picks up its owned slice.
        let rngs = match resume {
            None => (0..groups_owned)
                .map(|k| group_rng(cfg.seed, st.group_lo + k as u32))
                .collect(),
            Some(r) => (0..groups_owned)
                .map(|k| SmallRng::from_state(r.rngs[st.group_lo as usize + k]))
                .collect(),
        };
        // Restored stats live whole on shard 0 (the merge in shard order
        // then reproduces the writer's global counters exactly); the
        // other shards start fresh, keeping only the `measuring` flag the
        // merge asserts on.
        let stats = match resume {
            None => Stats::new(),
            Some(r) if st.id == 0 => r.stats.unpack(),
            Some(r) => {
                let mut s = Stats::new();
                s.measuring = r.stats.measuring;
                s
            }
        };
        let outbox = (0..st.n_shards).map(|_| Vec::new()).collect();
        Engine {
            sim,
            // `apply_shard` pre-populated the pool on resume; every pooled
            // packet is live (the restore never fills the free list).
            in_flight: st.packets.len(),
            ws: st,
            obs,
            prof,
            rate,
            now: resume.map_or(0, |r| r.next_cycle),
            rngs,
            v: cfg.num_vcs as usize,
            sent: 0,
            recv: 0,
            ring_mask: SimWorkspace::ring_size_for(cfg) as u64 - 1,
            n_network: sim.topo.num_network_channels(),
            stats,
            fault_on: sim.faults.as_ref().is_some_and(|f| !f.is_empty()),
            next_event: resume.map_or(0, |r| r.next_event as usize),
            shared,
            outbox,
            snap,
            ckpt,
            wall_offset_ms: resume.map_or(0, |r| r.elapsed_ms),
            fr_ring: Vec::new(),
            fr_pos: 0,
            fr_cap: 0,
        }
    }

    /// RNG-stream index of the group owning switch `s` (the switch must be
    /// owned by this shard — routing decisions always run at the packet's
    /// current switch).
    #[inline]
    pub(crate) fn gi_of_switch(&self, s: tugal_topology::SwitchId) -> usize {
        (self.sim.topo.group_of(s).0 - self.ws.group_lo) as usize
    }

    pub(crate) fn alloc_packet(&mut self, p: Packet) -> u32 {
        self.in_flight += 1;
        if let Some(i) = self.ws.free.pop() {
            self.ws.packets[i as usize] = p;
            i
        } else {
            self.ws.packets.push(p);
            // The route slab and FIFO-link array stay parallel to the
            // pool; the new slots' contents are filled before use.
            self.ws.paths.push(Path::default());
            self.ws.next_pkt.push(u32::MAX);
            (self.ws.packets.len() - 1) as u32
        }
    }

    /// The packet's current source route (its slot in the route slab).
    #[inline]
    pub(crate) fn packet_path(&self, pi: u32) -> &Path {
        &self.ws.paths[pi as usize]
    }

    /// Copies a freshly sampled candidate into the packet's route slot,
    /// interned or owned alike.  The draw has just loaded the candidate,
    /// so the 18-byte copy is nearly free; from here on every per-hop
    /// read stays in the slab instead of dereferencing the provider's
    /// arena at a random index.
    #[inline]
    pub(crate) fn set_packet_path(&mut self, pi: u32, path: PathRef<'_>) {
        self.ws.paths[pi as usize] = *path.path();
    }

    pub(crate) fn free_packet(&mut self, i: u32) {
        self.in_flight -= 1;
        self.ws.free.push(i);
    }

    /// Returns the input-buffer credit of `idx` (buffer of channel
    /// `in_ch`) upstream: locally through the credit calendar when this
    /// shard owns the channel's send side, otherwise as a mailbox message
    /// to the owning shard.  Injection-channel credits never return (their
    /// upstream is the uncredit-managed source queue).
    #[inline]
    pub(crate) fn return_credit(&mut self, idx: usize, in_ch: usize) {
        if in_ch >= self.n_network {
            return;
        }
        let due = self.now + self.ws.latency[in_ch] as u64;
        if self.ws.owns_send[in_ch] {
            self.ws.credit_ring[(due & self.ring_mask) as usize].push(idx as u32);
        } else {
            self.prof.credit_sent();
            self.outbox[self.ws.src_shard[in_ch] as usize].push(Msg::Credit {
                idx: idx as u32,
                due,
            });
        }
    }

    fn run(mut self) -> ShardOutcome {
        self.prof.shard_start(self.ws.id);
        let cfg = self.sim.cfg.clone();
        let warmup = cfg.warmup_windows as u64 * cfg.window as u64;
        let total = cfg.total_cycles();
        let nodes = self.sim.topo.num_nodes();
        let inflight_cap = (nodes * INFLIGHT_CAP_PER_NODE) as u64;
        let watchdog =
            (cfg.window as u64).max(64 * (cfg.global_latency as u64 + cfg.local_latency as u64));

        // Opt-in configurable watchdog: a single `Option` test per cycle
        // when disarmed (the default).  Every armed check is read-only, so
        // a non-tripping armed run is bit-identical to a disarmed one
        // (pinned by the watchdog-armed golden variants).
        let wd = self.sim.cfg.watchdog.filter(|w| w.armed());
        let wall_armed = wd.as_ref().is_some_and(|w| w.wall_limit_ms > 0);
        // Flight recorder: active only under an armed watchdog, so the
        // default configuration allocates nothing and records nothing.
        self.fr_cap = wd.as_ref().map_or(0, |w| w.flight_recorder as usize);
        self.fr_ring = Vec::with_capacity(self.fr_cap);
        let wd_start = std::time::Instant::now();
        let mut kind: Option<StallKind> = None;
        let mut stall: Option<StallPartial> = None;

        // The schedule is applied lazily as the clock reaches each event
        // (an event at cycle 0 degrades the network before any traffic).
        let sched = if self.fault_on {
            self.sim.faults.clone()
        } else {
            None
        };

        while self.now < total {
            if self.shared.is_some() {
                self.drain_mailboxes(self.now);
                self.prof.mark(profile::Phase::Drain);
            }
            if let Some(sched) = &sched {
                let events = sched.events();
                while self.next_event < events.len() && events[self.next_event].cycle <= self.now {
                    self.apply_faults(&events[self.next_event].faults);
                    self.next_event += 1;
                }
            }
            if self.now == warmup {
                self.stats.open_window();
                self.obs.on_measurement_start(self.now);
            }
            self.step();
            if let Some(sh) = self.shared {
                self.flush_outbox(sh);
                self.prof.mark(profile::Phase::Flush);
                self.publish(sh, wall_armed, &wd_start);
                self.prof.mark(profile::Phase::Publish);
                sh.barrier.wait();
                self.prof.mark(profile::Phase::Barrier);
            }
            // Every shard evaluates the stop conditions on the *same*
            // published global counters, so all workers break together.
            let g = self.globals(wall_armed, &wd_start);
            if self.fr_cap > 0 {
                self.record_frame(&g);
            }
            if g.in_flight > inflight_cap {
                self.stats.saturated_early = true;
                break;
            }
            // Deadlock watchdog: with packets in flight, *something* must
            // eject within a generous horizon; a correctly configured VC
            // scheme guarantees it.  A trip marks the run instead of
            // spinning to the end of the window.
            if g.in_flight > 0 && self.now.saturating_sub(g.last_delivery) > watchdog {
                self.stats.deadlock_suspected = true;
                self.stats.saturated_early = true;
                break;
            }
            if let Some(w) = &wd {
                if let Some(k) = self.watchdog_check(w, &g) {
                    stall = Some(self.stall_partial());
                    kind = Some(k);
                    self.stats.saturated_early = true;
                    break;
                }
            }
            self.prof.mark(profile::Phase::Stop);
            self.prof.cycle_done();
            // Checkpoint cadence: `due` is a pure function of the cycle,
            // so every shard takes this step (and its barrier) together.
            if let Some(ck) = self.ckpt {
                if ck.due(self.now, total) {
                    self.checkpoint_write(ck, &wd_start);
                }
            }
            self.now += 1;
        }
        self.prof.shard_end();

        ShardOutcome {
            stats: self.stats,
            kind,
            stall,
            in_flight: self.in_flight as u64,
            sent: self.sent,
            recv: self.recv,
            now: self.now,
        }
    }

    /// Ingests boundary messages from every other shard: batches stamped
    /// before `bound`, in ascending source-shard order (the fixed drain
    /// order of the determinism contract).  A neighbour running one cycle
    /// ahead may already have flushed its next batch; the stamp filter
    /// leaves it queued for the next cycle.  The loop top drains with
    /// `bound = now`; the checkpoint step drains with `bound = now + 1` to
    /// fold this cycle's flushed batches — exactly what the next cycle's
    /// drain would take — so the canonical checkpoint sees empty
    /// mailboxes.
    fn drain_mailboxes(&mut self, bound: u64) {
        let sh = self.shared.expect("mailboxes exist only on sharded runs");
        let me = self.ws.id as usize;
        for src in 0..sh.n {
            if src == me {
                continue;
            }
            loop {
                let batch = {
                    // With a real profiler attached, probe the lock first
                    // to count contended acquisitions; the same lock is
                    // taken either way, so results are unchanged.  The
                    // disabled profiler compiles this branch away.
                    let mbox = &sh.boxes[src * sh.n + me];
                    let mut q = if P::ENABLED {
                        match mbox.try_lock() {
                            Ok(q) => q,
                            Err(std::sync::TryLockError::WouldBlock) => {
                                self.prof.mailbox_stall();
                                mbox.lock().unwrap()
                            }
                            Err(std::sync::TryLockError::Poisoned(e)) => {
                                panic!("mailbox poisoned: {e}")
                            }
                        }
                    } else {
                        mbox.lock().unwrap()
                    };
                    match q.front() {
                        Some((stamp, _)) if *stamp < bound => q.pop_front(),
                        _ => None,
                    }
                };
                let Some((_, msgs)) = batch else { break };
                for msg in msgs {
                    match msg {
                        Msg::Flit { due, pkt, path } => {
                            self.prof.flit_recv();
                            let pi = self.alloc_packet(pkt);
                            self.ws.paths[pi as usize] = path;
                            self.recv += 1;
                            self.ws.arrivals[(due & self.ring_mask) as usize].push(pi);
                        }
                        Msg::Credit { idx, due } => {
                            self.prof.credit_recv();
                            self.ws.credit_ring[(due & self.ring_mask) as usize].push(idx);
                        }
                    }
                }
            }
        }
    }

    /// End-of-cycle checkpoint step: folds pending boundary messages (so
    /// the canonical state has empty mailboxes), builds this shard's
    /// delta, and commits the merged checkpoint — from shard 0 on sharded
    /// runs, after a barrier guaranteeing every delta is staged.  Every
    /// shard always executes this step when `CkptRun::due` holds (a pure
    /// function of the cycle), so barrier generations never diverge, even
    /// after a write error kills further file output.
    fn checkpoint_write(&mut self, ck: &CkptRun, wd_start: &std::time::Instant) {
        let elapsed_ms = wd_start.elapsed().as_millis() as u64 + self.wall_offset_ms;
        match self.shared {
            None => {
                let delta = self.build_delta(elapsed_ms);
                if !ck.is_dead() {
                    ck.commit(vec![delta], self.now + 1);
                }
            }
            Some(sh) => {
                // Fold boundary messages exactly as the next cycle's drain
                // would: every shard flushed its cycle-`now` batches before
                // the publish barrier, and none can flush newer ones until
                // after the staging barrier below.
                self.drain_mailboxes(self.now + 1);
                let delta = self.build_delta(elapsed_ms);
                *ck.stage[self.ws.id as usize].lock().unwrap() = Some(delta);
                sh.barrier.wait();
                // Shard 0 writes while the others run ahead; they park at
                // the next cycle's publish barrier until the write (and
                // shard 0's next cycle) completes, so staging slots cannot
                // be overwritten mid-drain.
                if self.ws.id == 0 {
                    let deltas: Vec<ckpt::ShardDelta> = ck
                        .stage
                        .iter()
                        .map(|s| s.lock().unwrap().take().expect("all shards staged a delta"))
                        .collect();
                    if !ck.is_dead() {
                        ck.commit(deltas, self.now + 1);
                    }
                }
            }
        }
    }

    /// Captures everything this shard owns into a [`ckpt::ShardDelta`]:
    /// sparse against the reset defaults (`credits == buf_size`,
    /// `wait == u32::MAX`, `rr == 0`, zero send-side scalars), FIFOs
    /// walked head-to-tail, calendar rings converted to absolute due
    /// cycles (every pending due lies in `[now + 1, now + ring_size]`, so
    /// the slot index recovers the cycle exactly).
    fn build_delta(&self, elapsed_ms: u64) -> ckpt::ShardDelta {
        let mut d = ckpt::ShardDelta {
            stats: ckpt::StatsSnap::pack(&self.stats),
            obs_blob: self.obs.snapshot().unwrap_or_default(),
            next_event: self.next_event as u64,
            elapsed_ms,
            ..Default::default()
        };
        for (k, rng) in self.rngs.iter().enumerate() {
            d.rngs.push((self.ws.group_lo + k as u32, rng.state()));
        }
        let buf_size = self.sim.cfg.buf_size;
        let n_chan = self.ws.stg_head.len();
        for ch in 0..n_chan {
            if self.ws.owns_send[ch] {
                if self.ws.stg_len[ch] > 0 {
                    let mut recs = Vec::with_capacity(self.ws.stg_len[ch] as usize);
                    let mut pi = self.ws.stg_head[ch];
                    while pi != u32::MAX {
                        recs.push(self.pk_rec(pi));
                        pi = self.ws.next_pkt[pi as usize];
                    }
                    d.staging.push((ch as u32, recs));
                }
                if self.ws.next_free[ch] != 0
                    || self.ws.cred_used[ch] != 0
                    || self.ws.chan_flits[ch] != 0
                {
                    d.chan_send.push(ckpt::ChanSend {
                        ch: ch as u32,
                        next_free: self.ws.next_free[ch],
                        cred_used: self.ws.cred_used[ch],
                        chan_flits: self.ws.chan_flits[ch],
                    });
                }
                for vc in 0..self.v {
                    let idx = ch * self.v + vc;
                    if self.ws.credits[idx] != buf_size {
                        d.credits.push((idx as u32, self.ws.credits[idx]));
                    }
                }
            }
            if self.ws.owns_recv[ch] {
                for vc in 0..self.v {
                    let idx = ch * self.v + vc;
                    let mut pi = self.ws.inb_head[idx];
                    if pi != u32::MAX {
                        let mut recs = Vec::new();
                        while pi != u32::MAX {
                            recs.push(self.pk_rec(pi));
                            pi = self.ws.next_pkt[pi as usize];
                        }
                        d.inbufs.push((idx as u32, recs));
                    }
                    if self.ws.wait[idx] != u32::MAX {
                        d.wait.push((idx as u32, self.ws.wait[idx]));
                    }
                }
            }
        }
        let base = self.now + 1;
        for (slot, pis) in self.ws.arrivals.iter().enumerate() {
            if pis.is_empty() {
                continue;
            }
            let due = base + ((slot as u64).wrapping_sub(base) & self.ring_mask);
            for &pi in pis {
                debug_assert!(self.ws.owns_recv[self.ws.packets[pi as usize].cur_chan as usize]);
                d.arrivals.push((due, self.pk_rec(pi)));
            }
        }
        for (slot, idxs) in self.ws.credit_ring.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let due = base + ((slot as u64).wrapping_sub(base) & self.ring_mask);
            for &idx in idxs {
                d.credit_events.push((due, idx));
            }
        }
        for sw in self.ws.switch_lo..self.ws.switch_hi {
            if self.ws.rr[sw as usize] != 0 {
                d.rr.push((sw, self.ws.rr[sw as usize] as u64));
            }
            if !self.ws.ready[sw as usize].is_empty() {
                d.ready.push((sw, self.ws.ready[sw as usize].clone()));
            }
        }
        // The dead masks are replicated on every shard; the merge takes
        // them from shard 0's delta, so only it captures them.
        if self.fault_on && self.ws.id == 0 {
            d.chan_dead = (0..n_chan as u32)
                .filter(|&ch| self.ws.chan_dead[ch as usize])
                .collect();
            d.switch_dead = (0..self.ws.switch_dead.len() as u32)
                .filter(|&sw| self.ws.switch_dead[sw as usize])
                .collect();
        }
        d
    }

    /// Pool-independent checkpoint record of live packet `pi`.
    fn pk_rec(&self, pi: u32) -> ckpt::PkRec {
        ckpt::PkRec::capture(&self.ws.packets[pi as usize], self.packet_path(pi))
    }

    /// Flushes this cycle's outgoing batches, stamped with the current
    /// cycle, into the destination shards' mailboxes.
    fn flush_outbox(&mut self, sh: &SharedRun) {
        let me = self.ws.id as usize;
        for d in 0..self.outbox.len() {
            if self.outbox[d].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.outbox[d]);
            self.prof.batch_flushed(batch.len());
            let mbox = &sh.boxes[me * sh.n + d];
            let mut q = if P::ENABLED {
                match mbox.try_lock() {
                    Ok(q) => q,
                    Err(std::sync::TryLockError::WouldBlock) => {
                        self.prof.mailbox_stall();
                        mbox.lock().unwrap()
                    }
                    Err(std::sync::TryLockError::Poisoned(e)) => panic!("mailbox poisoned: {e}"),
                }
            } else {
                mbox.lock().unwrap()
            };
            q.push_back((self.now, batch));
        }
    }

    /// Publishes this shard's cycle-end counters into its (cycle-parity)
    /// publication cell.
    fn publish(&self, sh: &SharedRun, wall_armed: bool, start: &std::time::Instant) {
        let slot = &sh.cells[self.ws.id as usize][(self.now & 1) as usize];
        slot.in_flight.store(self.in_flight as u64, Relaxed);
        slot.sent.store(self.sent, Relaxed);
        slot.recv.store(self.recv, Relaxed);
        slot.last_delivery.store(self.stats.last_delivery, Relaxed);
        slot.injected.store(self.stats.total_injected, Relaxed);
        slot.delivered.store(self.stats.total_delivered, Relaxed);
        slot.dropped.store(self.stats.total_dropped, Relaxed);
        // Only shard 0 samples the wall clock (and only at the watchdog's
        // coarse cadence): every shard then reads the *same* elapsed time,
        // so the wall-limit trip decision is global and deterministic
        // within the run.
        let elapsed = if self.ws.id == 0 && wall_armed && self.now & 1023 == 0 {
            start.elapsed().as_millis() as u64 + self.wall_offset_ms
        } else {
            0
        };
        slot.elapsed_ms.store(elapsed, Relaxed);
    }

    /// The global end-of-cycle counters: summed from the published cells
    /// on sharded runs, this shard's own counters otherwise.
    fn globals(&self, wall_armed: bool, start: &std::time::Instant) -> CycleGlobals {
        match self.shared {
            None => CycleGlobals {
                in_flight: self.in_flight as u64,
                last_delivery: self.stats.last_delivery,
                injected: self.stats.total_injected,
                delivered: self.stats.total_delivered,
                dropped: self.stats.total_dropped,
                elapsed_ms: if wall_armed && self.now & 1023 == 0 {
                    start.elapsed().as_millis() as u64 + self.wall_offset_ms
                } else {
                    0
                },
            },
            Some(sh) => {
                let par = (self.now & 1) as usize;
                let mut g = CycleGlobals::default();
                let (mut sent, mut recv) = (0u64, 0u64);
                for cell in &sh.cells {
                    let s = &cell[par];
                    g.in_flight += s.in_flight.load(Relaxed);
                    sent += s.sent.load(Relaxed);
                    recv += s.recv.load(Relaxed);
                    g.last_delivery = g.last_delivery.max(s.last_delivery.load(Relaxed));
                    g.injected += s.injected.load(Relaxed);
                    g.delivered += s.delivered.load(Relaxed);
                    g.dropped += s.dropped.load(Relaxed);
                    g.elapsed_ms += s.elapsed_ms.load(Relaxed);
                }
                // Flits inside mailboxes are in flight but in no shard's
                // pool.
                g.in_flight += sent - recv;
                g
            }
        }
    }

    /// Runs the armed watchdog checks for the cycle that just completed,
    /// against the globally agreed counters.  Called off the hot path only
    /// when a [`WatchdogConfig`] is armed.
    fn watchdog_check(&self, w: &WatchdogConfig, g: &CycleGlobals) -> Option<StallKind> {
        if w.stall_cycles > 0
            && g.in_flight > 0
            && self.now.saturating_sub(g.last_delivery) > w.stall_cycles
        {
            return Some(StallKind::Livelock);
        }
        if w.conservation_every > 0
            && self.now.is_multiple_of(w.conservation_every)
            && g.injected != g.delivered + g.dropped + g.in_flight
        {
            return Some(StallKind::ConservationViolation);
        }
        if w.max_cycles > 0 && self.now + 1 >= w.max_cycles {
            return Some(StallKind::CycleCeiling);
        }
        if w.wall_limit_ms > 0 && self.now & 1023 == 0 && g.elapsed_ms >= w.wall_limit_ms {
            return Some(StallKind::WallClockExceeded);
        }
        None
    }

    /// Captures one flight-recorder frame for the cycle that just
    /// completed: the globally agreed counters plus this shard's
    /// cumulative boundary traffic.  Read-only with respect to simulation
    /// state, so an armed recorder cannot perturb results.
    fn record_frame(&mut self, g: &CycleGlobals) {
        let frame = FlightFrame {
            cycle: self.now,
            shard: self.ws.id,
            in_flight: g.in_flight,
            injected: g.injected,
            delivered: g.delivered,
            dropped: g.dropped,
            boundary_sent: self.sent,
            boundary_recv: self.recv,
        };
        if self.fr_ring.len() < self.fr_cap {
            self.fr_ring.push(frame);
        } else {
            self.fr_ring[self.fr_pos] = frame;
            self.fr_pos = (self.fr_pos + 1) % self.fr_cap;
        }
    }

    /// The flight-recorder ring in chronological order (oldest first).
    fn drain_frames(&self) -> Vec<FlightFrame> {
        let mut recent = Vec::with_capacity(self.fr_ring.len());
        recent.extend_from_slice(&self.fr_ring[self.fr_pos..]);
        recent.extend_from_slice(&self.fr_ring[..self.fr_pos]);
        recent
    }

    /// This shard's contribution to the trip report: occupancy of the
    /// input buffers it owns and its oldest live packet.  Cold path —
    /// runs once per trip; merged deterministically by
    /// [`StallReport::assemble`].
    fn stall_partial(&self) -> StallPartial {
        let mut occupancy = Vec::new();
        for ch in 0..self.n_network {
            if !self.ws.owns_recv[ch] {
                continue;
            }
            for vc in 0..self.v {
                let occ = self.ws.vc_occupancy(ch, self.v, vc);
                if occ > 0 {
                    occupancy.push(VcSnapshot {
                        chan: ch as u32,
                        vc: vc as u8,
                        occupancy: occ,
                    });
                }
            }
        }

        // Oldest live packet: the pool minus its free list.  The (birth,
        // src, dst) key is unique (one injection draw per node per cycle)
        // and shard-count-invariant, unlike pool order.
        let mut live = vec![true; self.ws.packets.len()];
        for &f in &self.ws.free {
            live[f as usize] = false;
        }
        let oldest = self
            .ws
            .packets
            .iter()
            .zip(live)
            .filter(|(_, alive)| *alive)
            .map(|(p, _)| p)
            .min_by_key(|p| (p.birth, p.src_node, p.dst_node))
            .map(|p| OldestPacket {
                birth: p.birth,
                age: self.now.saturating_sub(p.birth),
                src: p.src_node,
                dst: p.dst_node,
                hops_taken: p.hops_taken,
                cur_chan: p.cur_chan,
            });

        StallPartial {
            occupancy,
            oldest,
            recent: self.drain_frames(),
        }
    }

    fn step(&mut self) {
        self.obs.on_cycle(self.now);

        // Observer-driven occupancy sampling: a zero cadence (the
        // `NoopObserver` default) lets monomorphization compile the whole
        // block out of the hot loop.  Shards sample the input buffers they
        // own — disjoint, jointly exhaustive across shards.
        let cadence = self.obs.occupancy_cadence();
        if cadence != 0 && self.now.is_multiple_of(cadence) {
            for ch in 0..self.n_network {
                if !self.ws.owns_recv[ch] {
                    continue;
                }
                for vc in 0..self.v {
                    let occ = self.ws.vc_occupancy(ch, self.v, vc);
                    self.obs
                        .on_vc_occupancy_sample(self.now, ch as u32, vc as u8, occ);
                }
            }
        }

        let slot = (self.now & self.ring_mask) as usize;

        // Calendar slots are drained by *swapping* with a scratch buffer
        // instead of `mem::take`-ing the Vec: taking would drop the slot's
        // capacity every cycle (an alloc/dealloc pair per non-empty slot);
        // swapping circulates the capacity forever.  Entries pushed while
        // draining land in the slot's (empty, capacity-bearing) new Vec —
        // never in the scratch — because every push targets a future slot
        // (all latencies are ≥ 1).

        // 1. Credit returns.
        let mut credits_due = std::mem::take(&mut self.ws.credit_scratch);
        std::mem::swap(&mut credits_due, &mut self.ws.credit_ring[slot]);
        for &idx in &credits_due {
            self.ws.credits[idx as usize] += 1;
            self.ws.cred_used[self.ws.chan_of_buf[idx as usize] as usize] -= 1;
        }
        credits_due.clear();
        self.ws.credit_scratch = credits_due;

        // 2. Arrivals, in canonical (channel) order: a channel delivers at
        // most one flit per cycle, so `cur_chan` totally orders the slot.
        // Slot insertion order differs between shard counts (mailbox
        // drains vs. local transmit order); the sort erases that.  The
        // sort runs on packed `cur_chan << 32 | packet` keys, so comparing
        // two entries needs no packet load; the keys are unique, so the
        // order is the same as sorting the packets by channel.
        let mut arrived = std::mem::take(&mut self.ws.arrival_scratch);
        std::mem::swap(&mut arrived, &mut self.ws.arrivals[slot]);
        let mut keys = std::mem::take(&mut self.ws.arrival_keys);
        keys.extend(
            arrived
                .iter()
                .map(|&pi| (self.ws.packets[pi as usize].cur_chan as u64) << 32 | pi as u64),
        );
        keys.sort_unstable();
        debug_assert!(
            keys.windows(2).all(|w| w[0] >> 32 < w[1] >> 32),
            "two flits arrived on one channel in one cycle"
        );
        for &key in &keys {
            let pi = key as u32;
            let p = &self.ws.packets[pi as usize];
            let ch = p.cur_chan as usize;
            let cur_vc = p.cur_vc;
            let dst = self.ws.dst_switch[ch];
            if dst == u32::MAX {
                // Ejection: delivered.
                let (birth, hops) = (p.birth, p.hops_taken);
                self.stats.record_delivery(self.now, birth, hops);
                self.obs.on_deliver(self.now, self.now - birth, hops);
                self.free_packet(pi);
            } else if self.fault_on && self.ws.switch_dead[dst as usize] {
                // The flit was already on the wire when its downstream
                // switch died; it arrives at a dead router and is lost.
                self.drop_in_network(pi);
            } else {
                let idx = ch * self.v + cur_vc as usize;
                self.ws.inb_push(idx, pi);
                self.ws.buf_occ[ch] += 1;
                if !self.ws.in_ready[idx] {
                    self.ws.in_ready[idx] = true;
                    self.ws.ready[dst as usize].push(idx as u32);
                }
            }
        }
        arrived.clear();
        self.ws.arrival_scratch = arrived;
        keys.clear();
        self.ws.arrival_keys = keys;
        self.prof.mark(profile::Phase::Advance);

        // 3. Injection.
        self.inject();
        self.prof.mark(profile::Phase::Inject);

        // 3b. UGAL-G snapshot: each owner publishes its staged-flit and
        // buffer-occupancy counters; a barrier separates the writes from
        // the reads routing makes during allocation.
        if let Some(snap) = self.snap {
            for ch in 0..self.n_network {
                if self.ws.owns_send[ch] {
                    snap.stg[ch].store(self.ws.stg_len[ch], Relaxed);
                }
                if self.ws.owns_recv[ch] {
                    snap.occ[ch].store(self.ws.buf_occ[ch], Relaxed);
                }
            }
            if let Some(sh) = self.shared {
                sh.barrier.wait();
            }
            self.prof.mark(profile::Phase::Snapshot);
        }

        // 4. Switch allocation.
        self.allocate();
        self.prof.mark(profile::Phase::Alloc);

        // 5. Wire transmission (1 flit/cycle/channel).
        self.transmit();
        self.prof.mark(profile::Phase::Transmit);
    }

    /// The UGAL-G snapshot value for `chan` (staged flits + downstream
    /// buffer occupancy at the start of this cycle's allocation phase).
    #[inline]
    pub(crate) fn snap_q(&self, chan: u32) -> u64 {
        let snap = self.snap.expect("UGAL-G runs allocate a snapshot");
        snap.stg[chan as usize].load(Relaxed) as u64 + snap.occ[chan as usize].load(Relaxed) as u64
    }
}
