//! Tracing probes.
//!
//! The engine emits a stream of [`TraceEvent`]s describing scheduling
//! decisions, core activity, and frequency changes — the simulator's
//! equivalent of the paper's `trace-cmd` + frequency traces. Metrics
//! collectors implement [`Probe`] and subscribe to the stream; the engine
//! itself never aggregates anything, keeping measurement strictly separate
//! from mechanism.
//!
//! A probe holds its own results. To read them after the run, share it:
//! an `Rc<RefCell<P>>` is itself a [`Probe`], so the engine drives one
//! clone while the caller keeps the other.

use std::cell::RefCell;
use std::rc::Rc;

use crate::ids::{CoreId, TaskId};
use crate::json::Json;
use crate::time::Time;
use crate::units::Freq;

/// Which placement path chose a core for a task.
///
/// `Nest*` variants only occur under the Nest policy; `SmoveParent` only
/// under Smove. Tests use these to verify which mechanism fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PlacementPath {
    /// CFS fork-time idlest-group/idlest-core descent.
    CfsFork,
    /// CFS wakeup-time die-local idle search.
    CfsWakeup,
    /// An idle core found in Nest's primary nest.
    NestPrimary,
    /// An idle core found in Nest's reserve nest.
    NestReserve,
    /// Nest fell back to CFS (the chosen core may join the reserve nest).
    NestFallback,
    /// Smove placed the task on its parent's (waker's) core.
    SmoveParent,
    /// The task was migrated by load balancing.
    LoadBalance,
    /// The Smove timer expired and moved the task to CFS's original choice.
    SmoveTimer,
}

impl PlacementPath {
    /// Every placement path, in a stable display order. Dense per-path
    /// counters index by position in this array ([`PlacementPath::index`]).
    pub const ALL: [PlacementPath; 8] = [
        PlacementPath::CfsFork,
        PlacementPath::CfsWakeup,
        PlacementPath::NestPrimary,
        PlacementPath::NestReserve,
        PlacementPath::NestFallback,
        PlacementPath::SmoveParent,
        PlacementPath::LoadBalance,
        PlacementPath::SmoveTimer,
    ];

    /// The dense index of this path within [`PlacementPath::ALL`].
    pub fn index(self) -> usize {
        PlacementPath::ALL
            .iter()
            .position(|p| *p == self)
            .expect("ALL lists every variant")
    }
}

/// Why a task stopped running on a core.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum StopReason {
    /// The task blocked (sleep, wait, barrier, empty channel).
    Block,
    /// The task was preempted by another runnable task.
    Preempt,
    /// The task yielded voluntarily.
    Yield,
    /// The task exited.
    Exit,
}

/// One event in the simulation trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A task was created (initial task or fork).
    TaskCreated {
        /// The new task.
        task: TaskId,
        /// The task's label, for trace readability.
        label: String,
        /// The forking task, if any.
        parent: Option<TaskId>,
    },
    /// A task exited.
    TaskExited {
        /// The exiting task.
        task: TaskId,
    },
    /// A placement decision: `task` will be enqueued on `core`.
    Placed {
        /// The placed task.
        task: TaskId,
        /// The chosen core.
        core: CoreId,
        /// Which mechanism chose the core.
        path: PlacementPath,
    },
    /// A task started running on a core.
    RunStart {
        /// The task now running.
        task: TaskId,
        /// The core it runs on.
        core: CoreId,
    },
    /// A task stopped running on a core.
    RunStop {
        /// The task that stopped.
        task: TaskId,
        /// The core it ran on.
        core: CoreId,
        /// Why it stopped.
        reason: StopReason,
    },
    /// A task became runnable after blocking (before placement).
    Woken {
        /// The woken task.
        task: TaskId,
    },
    /// The number of runnable tasks (running + queued) changed.
    RunnableCount {
        /// The new count.
        count: u32,
    },
    /// A core's frequency changed.
    FreqChange {
        /// The core.
        core: CoreId,
        /// Its new frequency.
        freq: Freq,
    },
    /// A core's idle loop began spinning to keep the core warm (Nest).
    SpinStart {
        /// The spinning core.
        core: CoreId,
    },
    /// A core's idle spin ended (timeout, placement, or busy hyperthread).
    SpinEnd {
        /// The core that stopped spinning.
        core: CoreId,
    },
    /// A core entered the primary nest (reserve promotion or impatient
    /// growth; Nest policy only).
    NestExpand {
        /// The promoted core.
        core: CoreId,
        /// Primary-nest size after the transition.
        primary: u32,
        /// Reserve-nest size after the transition.
        reserve: u32,
    },
    /// A core left the primary nest (demoted to the reserve, or discarded
    /// when the reserve is full or disabled; Nest policy only).
    NestShrink {
        /// The demoted core.
        core: CoreId,
        /// Primary-nest size after the transition.
        primary: u32,
        /// Reserve-nest size after the transition.
        reserve: u32,
    },
    /// A stale primary core was demoted by lazy compaction (§3.1): a task
    /// tried to use it after `P_remove` idle ticks (Nest policy only).
    NestCompaction {
        /// The compacted core.
        core: CoreId,
        /// Primary-nest size after the transition.
        primary: u32,
        /// Reserve-nest size after the transition.
        reserve: u32,
    },
    /// A core was taken offline by fault injection. Emitted after the
    /// policy has shed the core from its structures and before any
    /// displaced work is re-placed; from this point no new activity
    /// (placement, run start, spin) may target the core.
    CoreOffline {
        /// The offlined core.
        core: CoreId,
    },
    /// A previously offlined core came back online and may be used again.
    CoreOnline {
        /// The onlined core.
        core: CoreId,
    },
    /// Fault injection changed a socket's thermal-throttle factor.
    SocketThrottle {
        /// The throttled socket's index.
        socket: usize,
        /// The new cap factor in `(0, 1]`; `1.0` means the throttle was
        /// lifted.
        factor: f64,
    },
}

/// A subscriber to the simulation trace.
pub trait Probe {
    /// Called for every trace event, in simulation order.
    fn on_event(&mut self, now: Time, event: &TraceEvent);

    /// Called once when the simulation finishes, with the final time.
    fn on_finish(&mut self, _now: Time) {}

    /// Serializes the probe's accumulated state for a snapshot, as a
    /// `(kind, state)` pair, or `None` if this probe cannot be
    /// checkpointed.
    ///
    /// The engine refuses to snapshot while a non-checkpointable probe
    /// is attached (failing loudly beats silently dropping half the
    /// metrics). `kind` names the probe type; on restore the caller
    /// rebuilds the probe rig in the original attachment order and
    /// feeds each saved state back via [`Probe::snap_restore`].
    fn snap(&self) -> Option<(&'static str, Json)> {
        None
    }

    /// Restores state captured by [`Probe::snap`] into a freshly
    /// constructed probe of the same kind.
    ///
    /// The default rejects any state, matching the default `snap` of
    /// `None`.
    fn snap_restore(&mut self, _state: &Json) -> Result<(), String> {
        Err("probe does not support snapshot restore".to_string())
    }
}

/// A shared probe: the engine drives one handle while the caller keeps
/// another to read the probe's results (after the run, or between engine
/// steps).
impl<P: Probe + ?Sized> Probe for Rc<RefCell<P>> {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        self.borrow_mut().on_event(now, event);
    }

    fn on_finish(&mut self, now: Time) {
        self.borrow_mut().on_finish(now);
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        self.borrow().snap()
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        self.borrow_mut().snap_restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::snap::Snap;

    /// Counts wakeups and finishes; snapshots its wakeup count.
    #[derive(Default)]
    struct Tally {
        woken: u64,
        finished: bool,
    }

    impl Probe for Tally {
        fn on_event(&mut self, _now: Time, event: &TraceEvent) {
            if let TraceEvent::Woken { .. } = event {
                self.woken += 1;
            }
        }

        fn on_finish(&mut self, _now: Time) {
            self.finished = true;
        }

        fn snap(&self) -> Option<(&'static str, Json)> {
            Some(("test.tally", self.woken.save()))
        }

        fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
            self.woken = u64::load(state)?;
            Ok(())
        }
    }

    #[test]
    fn a_shared_probe_is_driven_through_either_handle() {
        let tally = Rc::new(RefCell::new(Tally::default()));
        let mut engine_side: Box<dyn Probe> = Box::new(Rc::clone(&tally));
        let woken = TraceEvent::Woken { task: TaskId(3) };
        engine_side.on_event(Time::from_nanos(5), &woken);
        engine_side.on_event(Time::from_nanos(6), &TraceEvent::RunnableCount { count: 1 });
        assert_eq!(tally.borrow().woken, 1);

        let (kind, state) = engine_side.snap().expect("the tally snapshots");
        assert_eq!(kind, "test.tally");
        engine_side.on_event(Time::from_nanos(7), &woken);
        assert_eq!(tally.borrow().woken, 2);
        engine_side.snap_restore(&state).unwrap();
        assert_eq!(tally.borrow().woken, 1, "restore reaches the shared probe");

        engine_side.on_finish(Time::from_nanos(8));
        assert!(tally.borrow().finished);
    }

    #[test]
    fn placement_paths_are_distinct() {
        for (i, a) in PlacementPath::ALL.iter().enumerate() {
            for (j, b) in PlacementPath::ALL.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }

    #[test]
    fn placement_path_index_is_dense() {
        for (i, p) in PlacementPath::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
