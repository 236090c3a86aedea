//! Behavioural tests for the discrete-event engine: task lifecycle,
//! synchronization, preemption, spinning, determinism.

use std::cell::RefCell;
use std::rc::Rc;

use nest_engine::{Engine, EngineConfig};
use nest_freq::Governor;
use nest_sched::{Cfs, Nest};
use nest_simcore::{
    Action, BarrierId, Behavior, ChannelId, Probe, SimRng, SimSetup, TaskSpec, Time, TraceEvent,
};
use nest_topology::presets;

fn engine_cfs() -> Engine {
    let cfg = EngineConfig::new(presets::xeon_6130(2));
    Engine::new(cfg, Box::new(Cfs::new()))
}

fn engine_nest() -> Engine {
    let machine = presets::xeon_6130(2);
    let n = machine.n_cores();
    let cfg = EngineConfig::new(machine);
    Engine::new(cfg, Box::new(Nest::new(n)))
}

/// Trace events counted by discriminant.
#[derive(Default)]
struct Counts {
    run_starts: usize,
    run_stops: usize,
    placed: usize,
    spins: usize,
    woken: usize,
    max_runnable: u32,
}

/// A probe that counts into [`Counts`] the test still holds.
struct Counter(Rc<RefCell<Counts>>);

impl Probe for Counter {
    fn on_event(&mut self, _now: Time, event: &TraceEvent) {
        let mut c = self.0.borrow_mut();
        match event {
            TraceEvent::RunStart { .. } => c.run_starts += 1,
            TraceEvent::RunStop { .. } => c.run_stops += 1,
            TraceEvent::Placed { .. } => c.placed += 1,
            TraceEvent::SpinStart { .. } => c.spins += 1,
            TraceEvent::Woken { .. } => c.woken += 1,
            TraceEvent::RunnableCount { count } => {
                c.max_runnable = c.max_runnable.max(*count);
            }
            _ => {}
        }
    }
}

/// Attaches a [`Counter`] to `eng` and returns its counts.
fn count_events(eng: &mut Engine) -> Rc<RefCell<Counts>> {
    let counts = Rc::new(RefCell::new(Counts::default()));
    eng.add_probe(Box::new(Counter(counts.clone())));
    counts
}

fn compute_ms_at_1ghz(ms: u64) -> Action {
    // 1 GHz = 1e6 cycles per ms.
    Action::Compute {
        cycles: ms * 1_000_000,
    }
}

#[test]
fn single_task_computes_and_exits() {
    let mut eng = engine_cfs();
    let counts = count_events(&mut eng);
    eng.spawn(TaskSpec::script("solo", vec![compute_ms_at_1ghz(100)]));
    let out = eng.run();
    assert_eq!(out.live_tasks, 0);
    assert!(!out.hit_horizon);
    assert_eq!(out.total_tasks, 1);
    // 100 M cycles at ≥1 GHz finish within 100 ms; the core ramps up so
    // it should be well under that but above the at-max-turbo bound.
    let at_max = 100_000_000f64 / 3.7e9;
    assert!(out.finished_at.as_secs_f64() >= at_max);
    assert!(out.finished_at.as_secs_f64() <= 0.1);
    assert!(out.energy_joules > 0.0);
    let c = counts.borrow();
    assert_eq!((c.placed, c.run_starts, c.run_stops), (1, 1, 1));
}

#[test]
fn frequency_ramp_makes_later_work_faster() {
    // Identical work in two chunks: the second chunk runs on a warmed-up
    // core and must complete faster than the first.
    struct Chunks {
        issued: usize,
    }
    impl Behavior for Chunks {
        fn next(&mut self, _rng: &mut SimRng) -> Action {
            self.issued += 1;
            if self.issued <= 2 {
                compute_ms_at_1ghz(50)
            } else {
                Action::Exit
            }
        }
    }
    let mut eng = engine_cfs();
    eng.spawn(TaskSpec::new("ramp", Box::new(Chunks { issued: 0 })));
    let out = eng.run();
    // 100 M cycles: all at fmin would take 100 ms; the ramp to 3.7 GHz
    // must bring it far down.
    assert!(
        out.finished_at < Time::from_millis(60),
        "no ramp benefit: {}",
        out.finished_at
    );
}

#[test]
fn fork_and_wait_children() {
    let mut eng = engine_cfs();
    let children: Vec<Action> = (0..10)
        .map(|i| Action::Fork {
            child: TaskSpec::script(format!("child{i}"), vec![compute_ms_at_1ghz(5)]),
        })
        .collect();
    let mut script = children;
    script.push(Action::WaitChildren);
    script.push(compute_ms_at_1ghz(1));
    eng.spawn(TaskSpec::script("parent", script));
    let out = eng.run();
    assert_eq!(out.total_tasks, 11);
    assert_eq!(out.live_tasks, 0);
}

#[test]
fn sleep_wakes_up_and_finishes() {
    let mut eng = engine_cfs();
    eng.spawn(TaskSpec::script(
        "sleeper",
        vec![
            compute_ms_at_1ghz(1),
            Action::Sleep { ns: 50_000_000 },
            compute_ms_at_1ghz(1),
        ],
    ));
    let out = eng.run();
    assert!(out.finished_at >= Time::from_millis(50));
    assert!(out.finished_at < Time::from_millis(80));
}

#[test]
fn barrier_releases_all_parties() {
    let mut eng = engine_cfs();
    let b: BarrierId = eng.create_barrier(4);
    for i in 0..4 {
        // Different compute lengths so arrivals are staggered.
        eng.spawn(TaskSpec::script(
            format!("w{i}"),
            vec![
                compute_ms_at_1ghz(1 + i),
                Action::Barrier { id: b },
                compute_ms_at_1ghz(1),
            ],
        ));
    }
    let out = eng.run();
    assert_eq!(out.live_tasks, 0);
}

#[test]
fn channel_ping_pong() {
    let mut eng = engine_cfs();
    let ping: ChannelId = eng.create_channel();
    let pong: ChannelId = eng.create_channel();
    let n = 100u32;
    let mut a = Vec::new();
    let mut b = Vec::new();
    for _ in 0..n {
        a.push(Action::Send { ch: ping, msgs: 1 });
        a.push(Action::Recv { ch: pong });
        b.push(Action::Recv { ch: ping });
        b.push(Action::Send { ch: pong, msgs: 1 });
    }
    eng.spawn(TaskSpec::script("a", a));
    eng.spawn(TaskSpec::script("b", b));
    let out = eng.run();
    assert_eq!(out.live_tasks, 0, "ping-pong deadlocked");
}

#[test]
fn preemption_shares_a_core() {
    // Pin contention: 80 CPU-bound tasks on a 64-core machine must all
    // finish (some cores run two tasks alternately).
    let mut eng = engine_cfs();
    let counts = count_events(&mut eng);
    for i in 0..80 {
        eng.spawn(TaskSpec::script(
            format!("t{i}"),
            vec![compute_ms_at_1ghz(20)],
        ));
    }
    let out = eng.run();
    assert_eq!(out.live_tasks, 0);
    let c = counts.borrow();
    assert_eq!(c.run_starts, c.run_stops);
    assert_eq!(c.max_runnable, 80);
    // Preemption itself is unasserted: see ROADMAP.md "Tick preemption never fires".
}

#[test]
fn yield_requeues_and_completes() {
    let mut eng = engine_cfs();
    eng.spawn(TaskSpec::script(
        "yielder",
        vec![compute_ms_at_1ghz(1), Action::Yield, compute_ms_at_1ghz(1)],
    ));
    let out = eng.run();
    assert_eq!(out.live_tasks, 0);
}

#[test]
fn nest_spins_after_block() {
    let mut eng = engine_nest();
    let counts = count_events(&mut eng);
    eng.spawn(TaskSpec::script(
        "blocky",
        vec![
            compute_ms_at_1ghz(5),
            Action::Sleep { ns: 2_000_000 },
            compute_ms_at_1ghz(5),
        ],
    ));
    let out = eng.run();
    assert_eq!(out.live_tasks, 0);
    let c = counts.borrow();
    assert!(c.spins > 0, "no core spun after the block");
    assert_eq!(c.woken, 1);
}

#[test]
fn horizon_stops_nonterminating_workload() {
    struct Forever;
    impl Behavior for Forever {
        fn next(&mut self, _rng: &mut SimRng) -> Action {
            Action::Compute { cycles: 1_000_000 }
        }
    }
    let cfg = EngineConfig::new(presets::xeon_6130(2)).horizon(Time::from_millis(50));
    let mut eng = Engine::new(cfg, Box::new(Cfs::new()));
    eng.spawn(TaskSpec::new("forever", Box::new(Forever)));
    let out = eng.run();
    assert!(out.hit_horizon);
    assert_eq!(out.live_tasks, 1);
}

#[test]
fn identical_seeds_are_deterministic() {
    fn fingerprint(seed: u64) -> (u64, f64, usize) {
        let machine = presets::xeon_5218();
        let n = machine.n_cores();
        let cfg = EngineConfig::new(machine).seed(seed);
        let mut eng = Engine::new(cfg, Box::new(Nest::new(n)));
        // Children draw their compute sizes from their RNG stream, so the
        // seed genuinely matters.
        struct JitteryChild {
            steps: usize,
        }
        impl Behavior for JitteryChild {
            fn next(&mut self, rng: &mut SimRng) -> Action {
                if self.steps == 0 {
                    return Action::Exit;
                }
                self.steps -= 1;
                if self.steps.is_multiple_of(2) {
                    Action::Compute {
                        cycles: rng.jitter(2_000_000, 0.5),
                    }
                } else {
                    Action::Sleep {
                        ns: rng.jitter(1_000_000, 0.5),
                    }
                }
            }
        }
        let mut script = Vec::new();
        for i in 0..30 {
            script.push(Action::Fork {
                child: TaskSpec::new(format!("c{i}"), Box::new(JitteryChild { steps: 4 })),
            });
            script.push(compute_ms_at_1ghz(1));
        }
        script.push(Action::WaitChildren);
        eng.spawn(TaskSpec::script("root", script));
        let out = eng.run();
        (
            out.finished_at.as_nanos(),
            out.energy_joules,
            out.total_tasks,
        )
    }
    let a = fingerprint(42);
    let b = fingerprint(42);
    assert_eq!(a, b);
    let c = fingerprint(43);
    assert_ne!(a.0, c.0, "different seeds should differ in timing");
}

#[test]
fn governor_performance_is_no_slower_for_serial_chain() {
    fn run(gov: Governor) -> Time {
        let cfg = EngineConfig::new(presets::e7_8870_v4()).governor(gov);
        let mut eng = Engine::new(cfg, Box::new(Cfs::new()));
        // A chain of short tasks with gaps — the worst case for schedutil
        // on the E7 (§5.2).
        let mut script = Vec::new();
        for _ in 0..20 {
            script.push(compute_ms_at_1ghz(2));
            script.push(Action::Sleep { ns: 3_000_000 });
        }
        eng.spawn(TaskSpec::script("chain", script));
        eng.run().finished_at
    }
    let sched = run(Governor::Schedutil);
    let perf = run(Governor::Performance);
    assert!(
        perf <= sched,
        "performance governor slower than schedutil: {perf} vs {sched}"
    );
}

#[test]
fn all_events_have_monotonic_time() {
    struct MonotonicCheck {
        last: Time,
    }
    impl Probe for MonotonicCheck {
        fn on_event(&mut self, now: Time, event: &TraceEvent) {
            assert!(now >= self.last, "{event:?} at {now} after {}", self.last);
            self.last = now;
        }
    }
    let mut eng = engine_nest();
    eng.add_probe(Box::new(MonotonicCheck { last: Time::ZERO }));
    let mut script = Vec::new();
    for i in 0..20 {
        script.push(Action::Fork {
            child: TaskSpec::script(
                format!("c{i}"),
                vec![
                    compute_ms_at_1ghz(3),
                    Action::Sleep { ns: 500_000 },
                    compute_ms_at_1ghz(1),
                ],
            ),
        });
    }
    script.push(Action::WaitChildren);
    eng.spawn(TaskSpec::script("root", script));
    assert_eq!(eng.run().live_tasks, 0);
}

#[test]
fn keepalive_engine_pauses_empty_and_accepts_live_injections() {
    // With keepalive on, a taskless engine can start and idle at a pause
    // point instead of refusing to run; work arrives later through
    // inject_live and drives normally.
    let mut eng = engine_cfs();
    eng.set_keepalive(true);
    assert!(
        eng.run_to(Time::from_nanos(1_000_000)).is_none(),
        "keepalive engine pauses instead of finishing"
    );
    eng.inject_live(
        Time::from_nanos(2_000_000),
        TaskSpec::script("late", vec![compute_ms_at_1ghz(1)]),
    );
    assert!(eng.run_to(Time::from_nanos(50_000_000)).is_none());
    assert!(eng.now() >= Time::from_nanos(2_000_000));
    eng.set_keepalive(false);
    let out = eng.resume();
    assert_eq!(out.total_tasks, 1);
    assert_eq!(out.live_tasks, 0);
    assert!(!out.hit_horizon);
}

#[test]
fn abandon_ends_a_run_without_draining() {
    // Crash semantics: a long-running task is simply cut off; the
    // outcome reports it still live at the abandonment time.
    let mut eng = engine_cfs();
    eng.set_keepalive(true);
    eng.spawn(TaskSpec::script(
        "forever",
        vec![compute_ms_at_1ghz(10_000)],
    ));
    assert!(eng.run_to(Time::from_nanos(5_000_000)).is_none());
    let out = eng.abandon();
    assert_eq!(out.live_tasks, 1, "the task never finished");
    assert!(out.finished_at >= Time::from_nanos(4_000_000));
}

#[test]
fn keepalive_engines_refuse_snapshots() {
    let mut eng = engine_cfs();
    eng.set_keepalive(true);
    eng.spawn(TaskSpec::script("t", vec![compute_ms_at_1ghz(5)]));
    assert!(eng.run_to(Time::from_nanos(1_000_000)).is_none());
    let err = eng.snapshot().unwrap_err();
    assert!(err.contains("keepalive"), "{err}");
}
