//! Fault schedules: *when* the failures of a
//! [`FaultSet`](tugal_topology::FaultSet) strike during a run.
//!
//! A [`FaultSchedule`] is a list of [`FaultEvent`]s, each naming a cycle
//! and the components that die at that cycle.  Faults are cumulative —
//! later events add to the dead set, nothing ever heals.  An event at
//! cycle 0 models a degraded topology that was broken before traffic
//! started; later events model mid-run failures, which exercise the
//! engine's reroute-or-drop machinery on packets already in flight (see
//! the "Fault model" section of `DESIGN.md`).

use tugal_topology::FaultSet;

/// One batch of failures striking at a given cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the components die (applied before that cycle's
    /// phases run).
    pub cycle: u64,
    /// The components that die.
    pub faults: FaultSet,
}

/// An ordered list of fault events for one simulation run.
///
/// An empty schedule (or one whose every event carries an empty
/// [`FaultSet`]) leaves the engine on its pristine fast path: no per-cycle
/// checks run and results are bit-identical to an unscheduled run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// All of `faults` dead from cycle 0 (a pre-degraded network).
    pub fn immediate(faults: FaultSet) -> Self {
        Self::at(0, faults)
    }

    /// All of `faults` dead from `cycle` onwards.
    pub fn at(cycle: u64, faults: FaultSet) -> Self {
        FaultSchedule {
            events: vec![FaultEvent { cycle, faults }],
        }
    }

    /// True when no event kills anything (the engine then skips all fault
    /// machinery).
    pub fn is_empty(&self) -> bool {
        self.events.iter().all(|e| e.faults.is_empty())
    }

    /// The events, sorted by cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}
