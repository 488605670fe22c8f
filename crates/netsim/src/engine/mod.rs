//! The cycle-driven simulation engine, layered into focused submodules:
//!
//! * [`state`] — flow-control state (packet pool, buffers, credits,
//!   calendar rings) behind the reusable [`SimWorkspace`],
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
//! ## One thread per job
//!
//! A run is one sequential engine over one [`SimWorkspace`], driven on
//! the caller's thread: no worker threads, locks or atomics inside a
//! simulation.  The paper's results come from many independent (series,
//! rate, seed) points, and the experiment runner already executes those
//! jobs in parallel, which keeps every core busy.  Three choices still
//! shape the results and stay fixed: every dragonfly group draws from its
//! own RNG stream ([`group_rng`]), arrivals are processed in channel order,
//! and UGAL-G reads a snapshot of the queues taken before allocation.
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

use crate::config::{Config, RoutingAlgorithm};
use crate::fault::FaultSchedule;
use crate::stats::SimResult;
pub(crate) use collect::Stats;
use rand::rngs::SmallRng;
use rand::SeedableRng;
pub(crate) use state::Packet;
use std::sync::Arc;
use tugal_routing::{Path, PathProvider};
use tugal_topology::Dragonfly;
use tugal_traffic::TrafficPattern;

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
/// every dragonfly group draws from its own `SmallRng` stream (injection
/// by the source node's group, routing draws by the deciding switch's
/// group).  The golden fixtures pin this stream layout.
const GROUP_SEED_MIX: u64 = 0x9E3779B97F4A7C15;

fn group_rng(seed: u64, group: u32) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ GROUP_SEED_MIX.wrapping_mul(group as u64 + 1))
}

/// Start-of-allocation snapshot of the UGAL-G queue inputs: staged-flit
/// counts (sender side) and input-buffer occupancy (receiver side) per
/// network channel, copied after injection.  Routing decisions during
/// allocation read this snapshot, not the live counters that allocation
/// itself updates: the "global genie" sees the queues as they stood when
/// the allocation phase began.  Allocated only for UGAL-G runs.
struct Snap {
    stg: Vec<u32>,
    occ: Vec<u32>,
}

/// The end-of-cycle counters the stop decisions (saturation cap, deadlock
/// heuristic, armed watchdog checks) evaluate.
struct CycleGlobals {
    in_flight: u64,
    last_delivery: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    elapsed_ms: u64,
}

/// What one [`Simulator::run_in`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The measurement.
    pub result: SimResult,
    /// The watchdog's report when it stopped the run (`None` when the
    /// watchdog is off or never fired).
    pub stall: Option<StallReport>,
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
    /// configured cycles (see the `fault` module).  The schedule is shared,
    /// so a sweep attaches one to many jobs without copying it.  An empty
    /// schedule leaves the engine on the pristine fast path — results are
    /// bit-identical to a simulator without one.
    pub fn with_faults(mut self, schedule: Arc<FaultSchedule>) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Runs the configured warmup + measurement windows at `rate`
    /// packets/cycle/node (`0 < rate ≤ 1`) in a freshly allocated
    /// workspace, with no observer or profiler.  Sweeps should prefer
    /// [`Simulator::run_in`] with a reused [`SimWorkspace`].
    pub fn run(&self, rate: f64) -> SimResult {
        self.run_in(
            rate,
            &mut SimWorkspace::new(),
            &mut NoopObserver,
            &mut NoopProfiler,
        )
        .result
    }

    /// Runs at `rate` inside `ws`, with `obs` receiving cycle-level events
    /// and `prof` attributing wall-clock to the cycle loop's phases.
    ///
    /// * The workspace is reset first, so results are identical whether
    ///   `ws` is fresh or previously used (for any topology/config — shape
    ///   changes reallocate transparently).
    /// * The engine is monomorphized per observer and profiler type:
    ///   [`NoopObserver`] and [`NoopProfiler`] compile to the
    ///   uninstrumented loop, and a real observer or profiler
    ///   ([`EngineProf`]) never changes the result (pinned by
    ///   `tests/profile.rs`).
    /// * [`RunOutput::stall`] carries the [`StallReport`] when the
    ///   configured watchdog tripped.
    pub fn run_in<O: SimObserver, P: EngineProfiler>(
        &self,
        rate: f64,
        ws: &mut SimWorkspace,
        obs: &mut O,
        prof: &mut P,
    ) -> RunOutput {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "injection rate {rate} out of (0,1]"
        );
        ws.reset(&self.topo, &self.cfg);
        let (result, stall) = Engine::new(self, rate, ws, obs, prof).run();
        RunOutput { result, stall }
    }
}

pub(crate) struct Engine<'a, O: SimObserver, P: EngineProfiler> {
    pub(crate) sim: &'a Simulator,
    pub(crate) ws: &'a mut SimWorkspace,
    pub(crate) obs: &'a mut O,
    /// The profiling seam: every hook is an inline no-op for
    /// [`NoopProfiler`], so the unprofiled engine is unchanged.
    pub(crate) prof: &'a mut P,
    pub(crate) rate: f64,
    pub(crate) now: u64,
    /// One RNG stream per dragonfly group (see [`group_rng`]).
    pub(crate) rngs: Vec<SmallRng>,
    pub(crate) v: usize, // num VCs
    pub(crate) in_flight: usize,
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
    /// UGAL-G queue snapshot (`None` for every other routing algorithm).
    snap: Option<Snap>,
    /// Flight-recorder ring (empty unless an armed watchdog sets
    /// `flight_recorder > 0`): the last `fr_cap` cycles' frames, oldest at
    /// `fr_pos` once the ring wraps.
    fr_ring: Vec<FlightFrame>,
    fr_pos: usize,
    fr_cap: usize,
}

impl<'a, O: SimObserver, P: EngineProfiler> Engine<'a, O, P> {
    fn new(
        sim: &'a Simulator,
        rate: f64,
        ws: &'a mut SimWorkspace,
        obs: &'a mut O,
        prof: &'a mut P,
    ) -> Self {
        let cfg = &sim.cfg;
        let n_network = sim.topo.num_network_channels();
        Engine {
            sim,
            in_flight: 0,
            ws,
            obs,
            prof,
            rate,
            now: 0,
            rngs: (0..sim.topo.num_groups() as u32)
                .map(|g| group_rng(cfg.seed, g))
                .collect(),
            v: cfg.num_vcs as usize,
            ring_mask: SimWorkspace::ring_size_for(cfg) as u64 - 1,
            n_network,
            stats: Stats::new(),
            fault_on: sim.faults.as_ref().is_some_and(|f| !f.is_empty()),
            next_event: 0,
            snap: (sim.routing == RoutingAlgorithm::UgalG).then(|| Snap {
                stg: vec![0; n_network],
                occ: vec![0; n_network],
            }),
            fr_ring: Vec::new(),
            fr_pos: 0,
            fr_cap: 0,
        }
    }

    /// RNG-stream index of the group owning switch `s` (routing decisions
    /// draw from the stream of the switch that takes them).
    #[inline]
    pub(crate) fn gi_of_switch(&self, s: tugal_topology::SwitchId) -> usize {
        self.sim.topo.group_of(s).0 as usize
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

    /// Stores a freshly sampled candidate in the packet's route slot;
    /// from here on every per-hop read stays in the slab.
    #[inline]
    pub(crate) fn set_packet_path(&mut self, pi: u32, path: Path) {
        self.ws.paths[pi as usize] = path;
    }

    pub(crate) fn free_packet(&mut self, i: u32) {
        self.in_flight -= 1;
        self.ws.free.push(i);
    }

    /// Returns the input-buffer credit of `idx` (buffer of channel
    /// `in_ch`) upstream through the credit calendar.  Injection-channel
    /// credits never return (their upstream is the uncredit-managed
    /// source queue).
    #[inline]
    pub(crate) fn return_credit(&mut self, idx: usize, in_ch: usize) {
        if in_ch >= self.n_network {
            return;
        }
        let due = self.now + self.ws.latency[in_ch] as u64;
        self.ws.credit_ring[(due & self.ring_mask) as usize].push(idx as u32);
    }

    /// Runs the cycle loop to completion (or to an early stop) and
    /// finalizes the result, plus the stall report when an armed watchdog
    /// tripped.
    fn run(mut self) -> (SimResult, Option<StallReport>) {
        self.prof.run_start();
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

        // The schedule is applied lazily as the clock reaches each event
        // (an event at cycle 0 degrades the network before any traffic).
        let sched = if self.fault_on {
            self.sim.faults.clone()
        } else {
            None
        };

        while self.now < total {
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
            // scheme guarantees it.  The horizon runs from the later of the
            // last delivery and the birth of the oldest live packet, so the
            // first packet after a long idle stretch (a very low rate) is
            // not taken for a deadlock.  A trip marks the run instead of
            // spinning to the end of the window.
            if g.in_flight > 0
                && self.now.saturating_sub(g.last_delivery) > watchdog
                && self
                    .oldest_live()
                    .is_some_and(|p| self.now.saturating_sub(p.birth) > watchdog)
            {
                self.stats.deadlock_suspected = true;
                self.stats.saturated_early = true;
                break;
            }
            if let Some(w) = &wd {
                if let Some(k) = self.watchdog_check(w, &g) {
                    kind = Some(k);
                    self.stats.saturated_early = true;
                    break;
                }
            }
            self.prof.mark(profile::Phase::Stop);
            self.prof.cycle_done();
            self.now += 1;
        }
        self.prof.run_end();

        let stall = kind.map(|k| self.stall_report(k));
        self.obs.on_run_end(self.now, self.in_flight as u64);
        let result = self.stats.finalize(
            &cfg,
            self.rate,
            self.now,
            nodes,
            &self.ws.chan_flits,
            &self.ws.is_global,
            self.n_network,
        );
        (result, stall)
    }

    /// The end-of-cycle counters of the cycle that just completed.  The
    /// wall clock is sampled only at the watchdog's 1024-cycle cadence.
    fn globals(&self, wall_armed: bool, start: &std::time::Instant) -> CycleGlobals {
        CycleGlobals {
            in_flight: self.in_flight as u64,
            last_delivery: self.stats.last_delivery,
            injected: self.stats.total_injected,
            delivered: self.stats.total_delivered,
            dropped: self.stats.total_dropped,
            elapsed_ms: if wall_armed && self.now & 1023 == 0 {
                start.elapsed().as_millis() as u64
            } else {
                0
            },
        }
    }

    /// Runs the armed watchdog checks for the cycle that just completed.
    /// Called off the hot path only when a [`WatchdogConfig`] is armed.
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
    /// completed.  Read-only with respect to simulation state, so an armed
    /// recorder cannot perturb results.
    fn record_frame(&mut self, g: &CycleGlobals) {
        let frame = FlightFrame {
            cycle: self.now,
            in_flight: g.in_flight,
            injected: g.injected,
            delivered: g.delivered,
            dropped: g.dropped,
        };
        if self.fr_ring.len() < self.fr_cap {
            self.fr_ring.push(frame);
        } else {
            self.fr_ring[self.fr_pos] = frame;
            self.fr_pos = (self.fr_pos + 1) % self.fr_cap;
        }
    }

    /// The oldest live packet: the pool minus its free list, keyed by the
    /// unique (birth, src, dst) — one injection draw per node per cycle —
    /// so the choice does not depend on pool layout.
    fn oldest_live(&self) -> Option<&Packet> {
        let mut live = vec![true; self.ws.packets.len()];
        for &f in &self.ws.free {
            live[f as usize] = false;
        }
        self.ws
            .packets
            .iter()
            .zip(live)
            .filter(|(_, alive)| *alive)
            .map(|(p, _)| p)
            .min_by_key(|p| (p.birth, p.src_node, p.dst_node))
    }

    /// The trip report: ledger, occupancy of every non-empty input buffer
    /// (densest first, then by channel and VC, capped), the oldest live
    /// packet, the routing counters and the flight-recorder frames in
    /// chronological order.  Cold path — runs once per trip.
    fn stall_report(&self, kind: StallKind) -> StallReport {
        let mut occupancy = Vec::new();
        for ch in 0..self.n_network {
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
        occupancy.sort_unstable_by(|a, b| {
            b.occupancy
                .cmp(&a.occupancy)
                .then(a.chan.cmp(&b.chan))
                .then(a.vc.cmp(&b.vc))
        });
        occupancy.truncate(StallReport::MAX_OCCUPANCY_ENTRIES);

        let oldest = self.oldest_live().map(|p| OldestPacket {
            birth: p.birth,
            age: self.now.saturating_sub(p.birth),
            src: p.src_node,
            dst: p.dst_node,
            hops_taken: p.hops_taken,
            cur_chan: p.cur_chan,
        });

        let mut recent = Vec::with_capacity(self.fr_ring.len());
        recent.extend_from_slice(&self.fr_ring[self.fr_pos..]);
        recent.extend_from_slice(&self.fr_ring[..self.fr_pos]);

        StallReport {
            kind,
            cycle: self.now,
            last_delivery: self.stats.last_delivery,
            ledger: ConservationLedger {
                injected: self.stats.total_injected,
                delivered: self.stats.total_delivered,
                dropped: self.stats.total_dropped,
                in_flight: self.in_flight as u64,
            },
            occupancy,
            oldest,
            decisions: RoutingCounters {
                routed: self.stats.routed,
                vlb_chosen: self.stats.vlb_chosen,
            },
            recent,
        }
    }

    fn step(&mut self) {
        self.obs.on_cycle(self.now);

        // Observer-driven occupancy sampling: a zero cadence (the
        // `NoopObserver` default) lets monomorphization compile the whole
        // block out of the hot loop.
        let cadence = self.obs.occupancy_cadence();
        if cadence != 0 && self.now.is_multiple_of(cadence) {
            for ch in 0..self.n_network {
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
        // most one flit per cycle, so `cur_chan` totally orders the slot,
        // independent of the order transmissions filled it.  The sort runs
        // on packed `cur_chan << 32 | packet` keys, so comparing two entries
        // needs no packet load; the keys are unique, so the order is the
        // same as sorting the packets by channel.
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

        // 3b. UGAL-G snapshot: staged-flit and buffer-occupancy counters
        // as they stand before allocation, which routing decisions read.
        if let Some(snap) = &mut self.snap {
            snap.stg.copy_from_slice(&self.ws.stg_len[..self.n_network]);
            snap.occ.copy_from_slice(&self.ws.buf_occ[..self.n_network]);
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
        let snap = self.snap.as_ref().expect("UGAL-G runs allocate a snapshot");
        snap.stg[chan as usize] as u64 + snap.occ[chan as usize] as u64
    }
}
