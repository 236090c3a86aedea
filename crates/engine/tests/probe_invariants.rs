//! Invariants of the probe event stream.
//!
//! Every observer in the repo — decision metrics, the trace exporter,
//! the figure probes — leans on ordering guarantees the engine never
//! states per call site. This suite pins them down over full runs:
//!
//! 1. Timestamps are monotonically non-decreasing.
//! 2. Every `RunStart` is preceded by a `Placed` for that task since its
//!    creation or last blocking `RunStop` (preemption and yield re-runs
//!    legitimately reuse the old placement).
//! 3. `SpinStart`/`SpinEnd` strictly alternate per core.
//!
//! The stream is captured with the real `nest-obs` collector, so these
//! tests also cover the capture path the `nest-sim trace` exporter uses.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use nest_engine::{Engine, EngineConfig};
use nest_obs::TraceCollector;
use nest_sched::{Cfs, Nest, SchedPolicy};
use nest_simcore::{Action, CoreId, StopReason, TaskId, TaskSpec, Time, TraceEvent};
use nest_topology::presets;

fn compute_ms_at_1ghz(ms: u64) -> Action {
    Action::Compute {
        cycles: ms * 1_000_000,
    }
}

/// A fork/sleep/yield mix: exercises fork and wakeup placements,
/// preemption re-runs, and (under Nest) idle spinning.
fn spawn_workload(eng: &mut Engine) {
    let mut script = Vec::new();
    for i in 0..24 {
        script.push(Action::Fork {
            child: TaskSpec::script(
                format!("c{i}"),
                vec![
                    compute_ms_at_1ghz(2),
                    Action::Sleep { ns: 700_000 },
                    compute_ms_at_1ghz(1),
                    Action::Yield,
                    compute_ms_at_1ghz(1),
                ],
            ),
        });
        script.push(compute_ms_at_1ghz(1));
    }
    script.push(Action::WaitChildren);
    eng.spawn(TaskSpec::script("root", script));
}

fn captured_stream(policy: Box<dyn SchedPolicy>) -> Vec<(Time, TraceEvent)> {
    let cfg = EngineConfig::new(presets::xeon_6130(2));
    let mut eng = Engine::new(cfg, policy);
    let collector = Rc::new(RefCell::new(TraceCollector::new(
        TraceCollector::DEFAULT_CAPACITY,
    )));
    eng.add_probe(Box::new(Rc::clone(&collector)));
    spawn_workload(&mut eng);
    let out = eng.run();
    assert_eq!(out.live_tasks, 0, "workload must drain");
    let log = std::mem::take(&mut collector.borrow_mut().log);
    assert_eq!(log.dropped, 0, "capture must be lossless for this check");
    assert!(!log.events.is_empty());
    log.events
}

fn check_invariants(events: &[(Time, TraceEvent)]) {
    let mut last = Time::ZERO;
    // Tasks that may not run again until a new `Placed` arrives.
    let mut needs_placement: HashSet<TaskId> = HashSet::new();
    let mut spinning: HashSet<CoreId> = HashSet::new();
    for (now, ev) in events {
        assert!(
            *now >= last,
            "timestamps regressed: {now} after {last} at {ev:?}"
        );
        last = *now;
        match ev {
            TraceEvent::TaskCreated { task, .. } => {
                needs_placement.insert(*task);
            }
            TraceEvent::Placed { task, .. } => {
                needs_placement.remove(task);
            }
            TraceEvent::RunStart { task, .. } => {
                assert!(
                    !needs_placement.contains(task),
                    "{task:?} started running without a placement"
                );
            }
            // Blocking forfeits the placement; preempt/yield re-runs
            // keep it (the task stays on its core's queue).
            TraceEvent::RunStop { task, reason, .. } if *reason == StopReason::Block => {
                needs_placement.insert(*task);
            }
            TraceEvent::SpinStart { core } => {
                assert!(spinning.insert(*core), "{core:?} started spinning twice");
            }
            TraceEvent::SpinEnd { core } => {
                assert!(
                    spinning.remove(core),
                    "{core:?} ended a spin it never began"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn cfs_stream_upholds_probe_invariants() {
    let events = captured_stream(Box::new(Cfs::new()));
    check_invariants(&events);
}

#[test]
fn nest_stream_upholds_probe_invariants() {
    let machine = presets::xeon_6130(2);
    let events = captured_stream(Box::new(Nest::new(machine.n_cores())));
    check_invariants(&events);
    // The mix above blocks and wakes constantly; Nest must have spun and
    // must have reported nest lifecycle transitions through the policy
    // trace plumbing.
    let spun = events
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::SpinStart { .. }));
    assert!(spun, "Nest never spun on this blocking-heavy mix");
    let nest_events = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::NestExpand { .. }
                    | TraceEvent::NestShrink { .. }
                    | TraceEvent::NestCompaction { .. }
            )
        })
        .count();
    assert!(nest_events > 0, "no nest lifecycle events surfaced");
}
