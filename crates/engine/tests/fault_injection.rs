//! Behavioural tests for fault injection: hotplug, throttling,
//! stragglers, timer jitter, watchdogs, and the empty-plan inertness
//! guarantee.

use std::cell::RefCell;
use std::rc::Rc;

use nest_engine::{Engine, EngineConfig};
use nest_faults::FaultPlan;
use nest_sched::{Cfs, Nest, Smove};
use nest_simcore::{Action, Behavior, Probe, SimRng, TaskSpec, Time, TraceEvent};
use nest_topology::presets;

fn compute_ms_at_1ghz(ms: u64) -> Action {
    Action::Compute {
        cycles: ms * 1_000_000,
    }
}

/// A churny fork/sleep workload that keeps placements happening while
/// faults fire.
fn churn_script(n_children: usize) -> TaskSpec {
    let mut script = Vec::new();
    for i in 0..n_children {
        script.push(Action::Fork {
            child: TaskSpec::script(
                format!("c{i}"),
                vec![
                    compute_ms_at_1ghz(3),
                    Action::Sleep { ns: 2_000_000 },
                    compute_ms_at_1ghz(3),
                    Action::Sleep { ns: 1_000_000 },
                    compute_ms_at_1ghz(2),
                ],
            ),
        });
        script.push(compute_ms_at_1ghz(1));
    }
    script.push(Action::WaitChildren);
    // Keep the run alive past every fault window (recovery events only
    // fire while tasks are live).
    script.push(Action::Sleep { ns: 60_000_000 });
    TaskSpec::script("root", script)
}

/// Tracks per-core online state from the trace and records any event
/// that targets an offline core with new activity.
#[derive(Default)]
struct OfflineStats {
    offline: std::collections::HashSet<u32>,
    ever_offline: std::collections::HashSet<u32>,
    offlines: usize,
    onlines: usize,
    violations: Vec<String>,
}

impl Probe for OfflineStats {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        match event {
            TraceEvent::CoreOffline { core } => {
                self.offline.insert(core.0);
                self.ever_offline.insert(core.0);
                self.offlines += 1;
            }
            TraceEvent::CoreOnline { core } => {
                self.offline.remove(&core.0);
                self.onlines += 1;
            }
            TraceEvent::Placed { core, .. }
            | TraceEvent::RunStart { core, .. }
            | TraceEvent::SpinStart { core }
                if self.offline.contains(&core.0) =>
            {
                self.violations
                    .push(format!("{event:?} on offline core at {now}"));
            }
            _ => {}
        }
    }
}

fn run_with_faults(
    policy: &str,
    spec: &str,
    seed: u64,
) -> (nest_engine::RunOutcome, Rc<RefCell<OfflineStats>>) {
    let machine = presets::xeon_6130(2);
    let n = machine.n_cores();
    let cfg = EngineConfig::new(machine)
        .seed(seed)
        .faults(FaultPlan::parse(spec).expect("valid fault spec"));
    let mut eng = match policy {
        "cfs" => Engine::new(cfg, Box::new(Cfs::new())),
        "nest" => Engine::new(cfg, Box::new(Nest::new(n))),
        "smove" => Engine::new(cfg, Box::new(Smove::new())),
        _ => unreachable!(),
    };
    let stats = Rc::new(RefCell::new(OfflineStats::default()));
    eng.add_probe(Box::new(Rc::clone(&stats)));
    eng.spawn(churn_script(24));
    let out = eng.run();
    (out, stats)
}

#[test]
fn hotplug_offlines_then_onlines_and_nothing_lands_on_dead_cores() {
    for policy in ["cfs", "nest", "smove"] {
        let (out, stats) = run_with_faults(policy, "faults:hotplug=4@5ms:20ms", 7);
        let s = stats.borrow();
        assert_eq!(out.live_tasks, 0, "{policy}: run did not complete");
        assert_eq!(s.offlines, 4, "{policy}: expected 4 offline events");
        assert_eq!(s.onlines, 4, "{policy}: expected 4 online events");
        assert!(
            s.violations.is_empty(),
            "{policy}: activity on offline cores: {:?}",
            s.violations
        );
    }
}

#[test]
fn permanent_hotplug_still_completes() {
    let (out, stats) = run_with_faults("nest", "faults:hotplug=8@2ms", 3);
    let s = stats.borrow();
    assert_eq!(out.live_tasks, 0);
    assert_eq!(s.offlines, 8);
    assert_eq!(s.onlines, 0, "no duration: cores stay down");
    assert!(s.violations.is_empty(), "{:?}", s.violations);
}

#[test]
fn throttle_caps_frequencies_on_the_faulted_socket() {
    #[derive(Default)]
    struct ThrottleStats {
        throttles: Vec<(usize, f64)>,
        max_khz_while_throttled: u64,
        throttled: bool,
        busy: std::collections::HashSet<u32>,
    }
    impl Probe for ThrottleStats {
        fn on_event(&mut self, _now: Time, event: &TraceEvent) {
            match event {
                TraceEvent::SocketThrottle { socket, factor } => {
                    self.throttles.push((*socket, *factor));
                    self.throttled = *factor < 1.0;
                }
                TraceEvent::RunStart { core, .. } => {
                    self.busy.insert(core.0);
                }
                TraceEvent::RunStop { core, .. } => {
                    self.busy.remove(&core.0);
                }
                // Only busy cores are pinned under the cap: an idle core
                // merely decays through it (its clock is gated anyway).
                TraceEvent::FreqChange { core, freq }
                    if core.0 < 32 && self.throttled && self.busy.contains(&core.0) =>
                {
                    self.max_khz_while_throttled = self.max_khz_while_throttled.max(freq.as_khz());
                }
                _ => {}
            }
        }
    }
    let machine = presets::xeon_6130(2);
    let cfg = EngineConfig::new(machine)
        .seed(5)
        .faults(FaultPlan::parse("faults:throttle=s0:0.5@5ms:40ms").unwrap());
    let mut eng = Engine::new(cfg, Box::new(Cfs::new()));
    let stats = Rc::new(RefCell::new(ThrottleStats::default()));
    eng.add_probe(Box::new(Rc::clone(&stats)));
    eng.spawn(churn_script(24));
    let out = eng.run();
    assert_eq!(out.live_tasks, 0);
    let s = stats.borrow();
    assert_eq!(s.throttles, vec![(0, 0.5), (0, 1.0)]);
    // 0.5 × 3.7 GHz: nothing on socket 0 may exceed 1.85 GHz while the
    // throttle holds.
    assert!(
        s.max_khz_while_throttled <= 1_850_000,
        "freq {} kHz exceeds the throttled cap",
        s.max_khz_while_throttled
    );
}

#[test]
fn stragglers_spawn_run_and_exit() {
    let machine = presets::xeon_6130(2);
    let n = machine.n_cores();
    let cfg = EngineConfig::new(machine)
        .seed(11)
        .faults(FaultPlan::parse("faults:stragglers=4@3ms:10ms").unwrap());
    let mut eng = Engine::new(cfg, Box::new(Nest::new(n)));
    eng.spawn(churn_script(8));
    let out = eng.run();
    assert_eq!(out.live_tasks, 0, "stragglers must exit");
    assert_eq!(out.total_tasks, 8 + 1 + 4, "root + children + stragglers");
}

#[test]
fn fault_runs_are_deterministic_and_differ_from_fault_free() {
    fn fingerprint(spec: &str) -> (u64, f64, usize) {
        let machine = presets::xeon_6130(2);
        let n = machine.n_cores();
        let cfg = EngineConfig::new(machine)
            .seed(42)
            .faults(FaultPlan::parse(spec).unwrap());
        let mut eng = Engine::new(cfg, Box::new(Nest::new(n)));
        eng.spawn(churn_script(24));
        let out = eng.run();
        (
            out.finished_at.as_nanos(),
            out.energy_joules,
            out.total_tasks,
        )
    }
    let spec = "faults:hotplug=2@5ms:10ms,throttle=s0:0.8@8ms,jitter=200us";
    let a = fingerprint(spec);
    let b = fingerprint(spec);
    assert_eq!(a, b, "same plan, same seed: identical run");
    let free = fingerprint("faults");
    assert_ne!(a.0, free.0, "faults must actually perturb the run");
}

#[test]
fn empty_plan_matches_unconfigured_run_exactly() {
    fn fingerprint(configure: bool) -> (u64, f64, usize) {
        let machine = presets::xeon_6130(2);
        let n = machine.n_cores();
        let mut cfg = EngineConfig::new(machine).seed(9);
        if configure {
            cfg = cfg.faults(FaultPlan::parse("faults").unwrap());
        }
        let mut eng = Engine::new(cfg, Box::new(Nest::new(n)));
        eng.spawn(churn_script(16));
        let out = eng.run();
        (
            out.finished_at.as_nanos(),
            out.energy_joules,
            out.total_tasks,
        )
    }
    assert_eq!(fingerprint(false), fingerprint(true));
}

#[test]
fn event_budget_aborts_runaway_run_with_partial_results() {
    struct Forever;
    impl Behavior for Forever {
        fn next(&mut self, _rng: &mut SimRng) -> Action {
            Action::Compute { cycles: 1_000_000 }
        }
    }
    let cfg = EngineConfig::new(presets::xeon_6130(2)).event_budget(Some(5_000));
    let mut eng = Engine::new(cfg, Box::new(Cfs::new()));
    eng.spawn(TaskSpec::new("forever", Box::new(Forever)));
    let out = eng.run();
    assert!(out.aborted, "budget must abort the run");
    assert!(!out.hit_horizon);
    assert_eq!(out.live_tasks, 1);
    assert!(out.finished_at > Time::ZERO, "partial results survive");
}

#[test]
fn smove_timer_does_not_migrate_onto_dead_fallback() {
    // Offline half the machine early under Smove; its armed timers whose
    // fallback died must be dropped, and the run must still finish.
    let (out, stats) = run_with_faults("smove", "faults:hotplug=16@1ms", 13);
    assert_eq!(out.live_tasks, 0);
    let s = stats.borrow();
    assert!(s.violations.is_empty(), "{:?}", s.violations);
}

#[test]
fn offline_core_zero_is_never_chosen() {
    // Core 0 hosts initial task launch; the schedule generator must never
    // pick it, over many seeds.
    for seed in 0..16 {
        let (out, stats) = run_with_faults("nest", "faults:hotplug=8@1ms", seed);
        assert_eq!(out.live_tasks, 0);
        let s = stats.borrow();
        assert!(s.violations.is_empty());
        assert!(
            !s.ever_offline.contains(&0),
            "core 0 offlined at seed {seed}"
        );
    }
}
