//! Engine self-profiling: per-phase wall-clock timers.
//!
//! The [`EngineProfiler`] seam mirrors the [`super::observer::SimObserver`]
//! pattern: the engine is monomorphized per profiler type and every hook on
//! [`NoopProfiler`] is an inline empty body, so a run without profiling
//! executes the exact same instructions as before the seam existed, and
//! stays bit-for-bit identical on every golden fixture.
//!
//! With [`EngineProf`] attached, the run attributes its wall-clock to the
//! named [`Phase`]s of the cycle loop.  The phases tile the loop — every
//! `mark` charges the time since the previous mark — so the summed phase
//! times account for essentially all of the run's wall-clock.  The result
//! is a [`ProfileReport`]; reports of several runs add up with
//! [`ProfileReport::absorb`].
//!
//! Profiling is *observational only*: the hooks never touch simulation
//! state, so a profiled run returns bit-identical results (pinned by
//! `tests/profile.rs`).

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Number of named phases ([`Phase::ALL`] has this length).
pub const PHASE_COUNT: usize = 10;

/// One phase of the engine's cycle loop.  The phases tile the loop body in
/// this order.
///
/// `Drain`, `Flush`, `Publish` and `Barrier` named the exchange steps of
/// the removed multi-threaded engine.  The sequential engine never marks
/// them, so they always read zero; they stay so that existing exhaustive
/// matches over `Phase` (such as the pipeline benchmark's) keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Never marked (see the type docs).
    Drain,
    /// Cycle bookkeeping: credit returns, arrival sorting, deliveries and
    /// buffer pushes (plus observer occupancy sampling when armed).
    Advance,
    /// Source-queue injection draws.
    Inject,
    /// Taking the UGAL-G queue snapshot; absent for every other routing
    /// algorithm.
    Snapshot,
    /// Switch allocation (routing decisions run here, at queue heads).
    Alloc,
    /// Wire transmission.
    Transmit,
    /// Never marked (see the type docs).
    Flush,
    /// Never marked (see the type docs).
    Publish,
    /// Never marked (see the type docs).
    Barrier,
    /// Evaluating the stop conditions (saturation cap, deadlock
    /// heuristic, armed watchdog checks, flight-recorder capture).
    Stop,
}

impl Phase {
    /// Every phase, in loop order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Drain,
        Phase::Advance,
        Phase::Inject,
        Phase::Snapshot,
        Phase::Alloc,
        Phase::Transmit,
        Phase::Flush,
        Phase::Publish,
        Phase::Barrier,
        Phase::Stop,
    ];

    /// Short stable name (JSON/trace friendly).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Drain => "drain",
            Phase::Advance => "advance",
            Phase::Inject => "inject",
            Phase::Snapshot => "snapshot",
            Phase::Alloc => "alloc",
            Phase::Transmit => "transmit",
            Phase::Flush => "flush",
            Phase::Publish => "publish",
            Phase::Barrier => "barrier",
            Phase::Stop => "stop",
        }
    }
}

/// The profiling seam of the cycle engine.  All hooks default to inline
/// no-ops; [`NoopProfiler`] (the default everywhere) therefore compiles to
/// the unprofiled engine.  Implementations must be cheap — `mark` runs up
/// to six times per simulated cycle.
pub trait EngineProfiler {
    /// The run is starting.
    #[inline]
    fn run_start(&mut self) {}

    /// The phase that just ended; charges the time since the previous
    /// mark (or since `run_start`) to it.
    #[inline]
    fn mark(&mut self, _phase: Phase) {}

    /// One full cycle of the loop completed (not counted on early breaks).
    #[inline]
    fn cycle_done(&mut self) {}

    /// The run is done; closes its wall-clock.
    #[inline]
    fn run_end(&mut self) {}
}

/// The do-nothing profiler: every run that does not opt into profiling is
/// monomorphized against this, compiling the seam away entirely.
pub struct NoopProfiler;

impl EngineProfiler for NoopProfiler {}

/// One run's profile: wall-clock attributed to phases.  All times are
/// nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardProfile {
    /// Wall-clock of the run, `run_start` to `run_end`.
    pub wall_ns: u64,
    /// Full cycles completed (early-break cycles are not counted).
    pub cycles: u64,
    /// Nanoseconds attributed to each phase, indexed like [`Phase::ALL`].
    pub phase_ns: [u64; PHASE_COUNT],
}

impl ShardProfile {
    /// Nanoseconds attributed to named phases (≤ `wall_ns` by
    /// construction — marks only ever charge elapsed wall time).
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    fn add(&mut self, other: &ShardProfile) {
        self.wall_ns += other.wall_ns;
        self.cycles += other.cycles;
        for (a, b) in self.phase_ns.iter_mut().zip(&other.phase_ns) {
            *a += b;
        }
    }
}

/// The profile of one run, or the element-wise sum of several runs (see
/// [`ProfileReport::absorb`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// The run's profile: one entry for a report of one or more runs, none
    /// for an empty report.  (A list because consumers such as the
    /// pipeline benchmark read it as one.)
    pub shards: Vec<ShardProfile>,
}

impl ProfileReport {
    /// Total profiled wall-clock (the denominator of the attribution
    /// table).
    pub fn wall_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.wall_ns).sum()
    }

    /// Nanoseconds attributed to `phase`.
    pub fn phase_total(&self, phase: Phase) -> u64 {
        self.shards.iter().map(|s| s.phase_ns[phase as usize]).sum()
    }

    /// Fraction of wall-clock attributed to named phases (the acceptance
    /// bar is ≥ 0.95; misses mean a gap in the marks).
    pub fn attributed_fraction(&self) -> f64 {
        let wall = self.wall_ns();
        if wall == 0 {
            return 1.0;
        }
        self.shards.iter().map(|s| s.attributed_ns()).sum::<u64>() as f64 / wall as f64
    }

    /// Element-wise accumulation of another report (entries matched by
    /// index; extra entries are appended), for aggregating the jobs of one
    /// scenario into one attribution table.
    pub fn absorb(&mut self, other: &ProfileReport) {
        for (i, s) in other.shards.iter().enumerate() {
            if i < self.shards.len() {
                self.shards[i].add(s);
            } else {
                self.shards.push(s.clone());
            }
        }
    }

    /// The `k` costliest phases as `"alloc 62% / advance 21% / inject 9%"`
    /// (phases with zero share are skipped).
    pub fn top_phases(&self, k: usize) -> String {
        let wall = self.wall_ns().max(1);
        let mut totals: Vec<(Phase, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p, self.phase_total(p)))
            .collect();
        totals.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        totals
            .iter()
            .take(k)
            .filter(|(_, ns)| *ns > 0)
            .map(|(p, ns)| format!("{} {:.0}%", p.name(), 100.0 * *ns as f64 / wall as f64))
            .collect::<Vec<_>>()
            .join(" / ")
    }
}

/// The real profiler: wall-clock phase attribution via monotonic
/// timestamps.
#[derive(Debug)]
pub struct EngineProf {
    cur: ShardProfile,
    start: Instant,
    last: Instant,
}

impl Default for EngineProf {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineProf {
    /// A fresh profiler, ready to attach to one run.
    pub fn new() -> Self {
        let now = Instant::now();
        EngineProf {
            cur: ShardProfile::default(),
            start: now,
            last: now,
        }
    }

    /// The run's report.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            shards: vec![self.cur.clone()],
        }
    }
}

impl EngineProfiler for EngineProf {
    #[inline]
    fn run_start(&mut self) {
        self.start = Instant::now();
        self.last = self.start;
    }

    #[inline]
    fn mark(&mut self, phase: Phase) {
        let now = Instant::now();
        self.cur.phase_ns[phase as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    #[inline]
    fn cycle_done(&mut self) {
        self.cur.cycles += 1;
    }

    #[inline]
    fn run_end(&mut self) {
        self.cur.wall_ns = self.start.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_all_is_dense_and_named() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn marks_tile_wallclock() {
        let mut prof = EngineProf::new();
        prof.run_start();
        prof.mark(Phase::Advance);
        std::thread::sleep(std::time::Duration::from_millis(2));
        prof.mark(Phase::Alloc);
        prof.cycle_done();
        prof.run_end();
        let rep = prof.report();
        assert_eq!(rep.shards.len(), 1);
        let s = &rep.shards[0];
        assert_eq!(s.cycles, 1);
        assert!(s.phase_ns[Phase::Alloc as usize] >= 2_000_000);
        assert!(s.attributed_ns() <= s.wall_ns);
        assert!(
            rep.attributed_fraction() > 0.5,
            "{}",
            rep.attributed_fraction()
        );
    }

    #[test]
    fn reports_of_several_runs_add_up() {
        let run = |cycles: u64| {
            let mut prof = EngineProf::new();
            prof.run_start();
            for _ in 0..cycles {
                prof.mark(Phase::Alloc);
                prof.cycle_done();
            }
            prof.run_end();
            prof.report()
        };
        let (a, b) = (run(2), run(3));
        let mut acc = ProfileReport::default();
        acc.absorb(&a);
        acc.absorb(&b);
        assert_eq!(acc.shards.len(), 1);
        assert_eq!(acc.shards[0].cycles, 5);
        assert_eq!(acc.wall_ns(), a.wall_ns() + b.wall_ns());
        assert_eq!(
            acc.phase_total(Phase::Alloc),
            a.phase_total(Phase::Alloc) + b.phase_total(Phase::Alloc)
        );
    }

    #[test]
    fn top_phases_ranks_by_share() {
        let mut rep = ProfileReport::default();
        let mut s = ShardProfile {
            wall_ns: 100,
            ..ShardProfile::default()
        };
        s.phase_ns[Phase::Alloc as usize] = 60;
        s.phase_ns[Phase::Advance as usize] = 30;
        rep.shards.push(s);
        let line = rep.top_phases(2);
        assert!(line.starts_with("alloc 60%"), "{line}");
        assert!(line.contains("advance 30%"), "{line}");
        assert_eq!(rep.phase_total(Phase::Alloc), 60);
        assert!((rep.attributed_fraction() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut prof = EngineProf::new();
        prof.run_start();
        prof.mark(Phase::Advance);
        prof.run_end();
        let rep = prof.report();
        let json = serde_json::to_string(&rep).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }
}
