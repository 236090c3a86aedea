//! The discrete-event OS simulator.
//!
//! [`Engine`] executes task behaviours on a simulated machine under a
//! pluggable [`SchedPolicy`]. It owns the event queue, the kernel state
//! (runqueues), the frequency model, and the synchronization objects
//! (barriers, channels), and emits the trace that metrics collectors
//! consume.
//!
//! Fidelity notes, mapped to the paper:
//!
//! * Placement is two-phase (select → commit after
//!   [`PLACEMENT_LATENCY_NS`]); selections made inside the
//!   window can collide on a core unless the policy honours the pending
//!   flag — reproducing §3.4.
//! * Compute progress scales with the physical core's current frequency;
//!   frequency ticks re-time in-flight segments.
//! * The idle loop can spin (Nest §3.2); spinning registers as hardware
//!   activity and aborts as soon as the hyperthread gets work.
//! * Smove's migration timer is honoured via [`Placement::smove_fallback`].

use std::collections::VecDeque;
use std::rc::Rc;

use nest_faults::{FaultAction, FaultSchedule};
use nest_freq::{Activity, FreqModel};
use nest_sched::kernel::KernelState;
use nest_sched::policy::{IdleReason, Placement, SchedEnv, SchedPolicy};
use nest_simcore::json::{self, Json};
use nest_simcore::snap::{self, field, load, tagged, Snap};
use nest_simcore::{
    profile, snap_struct, Action, BarrierId, BehaviorRegistry, ChannelId, CoreId, EventQueue, Freq,
    PlacementPath, Probe, SimRng, SimSetup, StopReason, TaskId, TaskSpec, Time, TraceEvent,
    MICROSEC, MILLISEC, TICK_NS,
};
use nest_topology::Topology;

use crate::config::EngineConfig;

/// Serialization cost of successive wakeups issued by one task (the
/// per-`wake_up` overhead on the waking core, ~1 µs). Mass wakeups
/// (barrier releases, batched sends) are staggered by this much so that
/// placement selections interleave with commits, as on real hardware.
const WAKEUP_STRIDE_NS: u64 = 1_000;

/// Delay between core selection and enqueue — the §3.4 race window in
/// which concurrent placements can collide on one core.
pub const PLACEMENT_LATENCY_NS: u64 = 1_500;

/// Core on which initial tasks are launched (where the workload's
/// launching shell "runs"); also Nest's reserve-search anchor.
const LAUNCH_CORE: CoreId = CoreId(0);

/// Outcome of a completed run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Time at which the last task exited (or the horizon).
    pub finished_at: Time,
    /// Total CPU energy consumed, in joules.
    pub energy_joules: f64,
    /// Tasks still alive at the end (0 unless the horizon cut the run).
    pub live_tasks: usize,
    /// Total tasks created over the run.
    pub total_tasks: usize,
    /// `true` if the run ended at the horizon rather than by completion.
    pub hit_horizon: bool,
    /// `true` if a watchdog ([`EngineConfig::event_budget`] or
    /// [`EngineConfig::wall_limit`]) cut the run short; the other fields
    /// then describe the partial run up to the abort.
    pub aborted: bool,
}

#[derive(Debug)]
enum Event {
    /// A selected placement lands on its runqueue.
    Commit { task: TaskId, gen: u64 },
    /// The running task's compute segment completes.
    SegmentDone { task: TaskId, gen: u64 },
    /// A blocked task becomes runnable.
    Wakeup { task: TaskId, waker_core: CoreId },
    /// Per-core scheduler ticks (4 ms), processed machine-wide.
    GlobalTick,
    /// Frequency-model update (1 ms).
    FreqTick,
    /// The idle spin loop times out.
    SpinStop { core: CoreId, gen: u64 },
    /// A spin-wait barrier released; the waiting task resumes in place.
    BarrierContinue { task: TaskId },
    /// Smove's migration timer fires.
    SmoveExpire {
        task: TaskId,
        from: CoreId,
        to: CoreId,
        gen: u64,
    },
    /// An injected fault fires (index into the materialized
    /// [`FaultSchedule`]).
    Fault(usize),
    /// A pre-registered task injection fires (index into
    /// `Engine::injections`).
    Inject(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Selected, waiting for its enqueue to commit.
    Placing,
    /// On a runqueue.
    Queued,
    /// Executing on a core.
    Running(CoreId),
    /// Blocked (sleep, wait-children, barrier, channel).
    Blocked,
    /// Finished.
    Exited,
}

struct SimTask {
    label: String,
    behavior: Box<dyn nest_simcore::Behavior>,
    rng: SimRng,
    state: TaskState,
    /// Remaining cycles of the current compute segment.
    remaining_cycles: u64,
    /// When the current running stint (re)started and at which frequency.
    seg_resumed_at: Time,
    seg_freq: Freq,
    seg_gen: u64,
    commit_gen: u64,
    smove_gen: u64,
    parent: Option<TaskId>,
    live_children: u32,
    waiting_children: bool,
    /// Busy-waiting at a barrier (OpenMP-style spin wait): the task keeps
    /// its core and does not go through wakeup placement on release.
    in_barrier: bool,
}

struct Barrier {
    parties: u32,
    waiting: Vec<TaskId>,
}

#[derive(Default)]
struct Channel {
    msgs: u64,
    waiting: VecDeque<TaskId>,
}

/// The simulator.
pub struct Engine {
    cfg: EngineConfig,
    now: Time,
    queue: EventQueue<Event>,
    kernel: KernelState,
    policy: Box<dyn SchedPolicy>,
    freq: FreqModel,
    topo: Rc<Topology>,
    tasks: Vec<SimTask>,
    barriers: Vec<Barrier>,
    channels: Vec<Channel>,
    probes: Vec<Box<dyn Probe>>,
    rng: SimRng,
    live_tasks: usize,
    runnable: u32,
    spinning: Vec<bool>,
    spin_gen: Vec<u64>,
    /// Maps a task index to the core its in-flight placement targets.
    pending_core: std::collections::HashMap<usize, CoreId>,
    /// Reusable buffer for draining policy-queued trace events.
    policy_trace: Vec<TraceEvent>,
    /// Materialized fault actions (empty for an empty plan).
    fault_schedule: FaultSchedule,
    /// Randomness reserved for fault effects (tick jitter). Seeded from
    /// the plan and the run seed; never drawn from on fault-free runs, so
    /// the main stream — and the run — stay byte-identical.
    fault_rng: SimRng,
    /// Timed task injections registered before the run (open-loop request
    /// arrivals). Each spec is taken when its event fires.
    injections: Vec<(Time, Option<TaskSpec>)>,
    /// Injections not yet fired; keeps the run loop alive while the
    /// machine is idle between arrivals.
    pending_injections: usize,
    started: bool,
    /// Keeps the event loop running even with no live tasks or pending
    /// injections (the periodic ticks self-reschedule, so the queue never
    /// drains). A fleet co-simulation sets this so host engines can idle
    /// between externally routed arrivals; never serialized — fleet runs
    /// are not snapshotable.
    keepalive: bool,
    /// Cumulative events dispatched since the run began — *including*
    /// events dispatched before a snapshot was taken, so the
    /// [`EngineConfig::event_budget`] watchdog behaves identically on a
    /// restored run and an uninterrupted one.
    events_dispatched: u64,
    /// Value of `events_dispatched` when this engine instance started
    /// (0, or the snapshot's count after a restore); the self-profiler
    /// records only the delta this instance actually dispatched.
    events_at_start: u64,
    hit_horizon: bool,
    aborted: bool,
}

impl SimSetup for Engine {
    fn create_barrier(&mut self, parties: u32) -> BarrierId {
        assert!(parties > 0, "a barrier needs at least one party");
        let id = BarrierId::from_index(self.barriers.len());
        self.barriers.push(Barrier {
            parties,
            waiting: Vec::new(),
        });
        id
    }

    fn create_channel(&mut self) -> ChannelId {
        let id = ChannelId::from_index(self.channels.len());
        self.channels.push(Channel::default());
        id
    }

    fn n_cores(&self) -> usize {
        self.topo.n_cores()
    }
}

impl Engine {
    /// Creates an engine for `cfg` under the given policy.
    pub fn new(cfg: EngineConfig, policy: Box<dyn SchedPolicy>) -> Engine {
        let topo = Rc::new(Topology::new(cfg.machine.clone()));
        let freq = FreqModel::new(&cfg.machine, cfg.governor);
        let kernel = KernelState::new(Rc::clone(&topo));
        let n = topo.n_cores();
        let fault_schedule = FaultSchedule::materialize(&cfg.faults, &topo, cfg.seed);
        let fault_rng = SimRng::new(nest_simcore::rng::mix64(
            nest_simcore::rng::hash_str(&cfg.faults.canonical()),
            cfg.seed ^ 0xFA17,
        ));
        Engine {
            rng: SimRng::new(cfg.seed),
            fault_schedule,
            fault_rng,
            freq,
            kernel,
            topo,
            now: Time::ZERO,
            queue: EventQueue::new(),
            policy,
            tasks: Vec::new(),
            barriers: Vec::new(),
            channels: Vec::new(),
            probes: Vec::new(),
            live_tasks: 0,
            runnable: 0,
            spinning: vec![false; n],
            spin_gen: vec![0; n],
            pending_core: std::collections::HashMap::new(),
            policy_trace: Vec::new(),
            injections: Vec::new(),
            pending_injections: 0,
            started: false,
            keepalive: false,
            events_dispatched: 0,
            events_at_start: 0,
            hit_horizon: false,
            aborted: false,
            cfg,
        }
    }

    /// Registers a metrics probe. Probes see every trace event in
    /// registration order.
    pub fn add_probe(&mut self, probe: Box<dyn Probe>) {
        self.probes.push(probe);
    }

    /// Returns the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Returns the policy name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    fn emit(&mut self, ev: TraceEvent) {
        let _span = profile::span(profile::Subsystem::TraceProbes);
        for p in &mut self.probes {
            p.on_event(self.now, &ev);
        }
    }

    /// Emits the trace events the policy queued during its last callback
    /// (e.g. Nest-lifecycle transitions), timestamped at the current time.
    fn drain_policy_trace(&mut self) {
        let mut buf = std::mem::take(&mut self.policy_trace);
        self.policy.drain_trace(&mut buf);
        for ev in buf.drain(..) {
            self.emit(ev);
        }
        self.policy_trace = buf;
    }

    fn env<'a>(
        topo: &'a Topology,
        freq: &'a FreqModel,
        rng: &'a mut SimRng,
        now: Time,
    ) -> SchedEnv<'a> {
        SchedEnv {
            now,
            topo,
            freq,
            rng,
        }
    }

    /// Launches an initial task (before or during the run). The placement
    /// goes through the policy's fork path from the launch core
    /// (core 0).
    pub fn spawn(&mut self, spec: TaskSpec) -> TaskId {
        self.create_task(spec, None, LAUNCH_CORE)
    }

    /// Registers a task to be created at simulated time `at` (an open-loop
    /// arrival). Must be called before [`Engine::run`]; the run stays
    /// alive until every registered injection has fired (or the horizon
    /// cuts it), even if the machine goes fully idle between arrivals.
    ///
    /// # Panics
    ///
    /// Panics if the engine has already started running.
    pub fn inject_at(&mut self, at: Time, spec: TaskSpec) {
        assert!(!self.started, "inject_at must precede run()");
        self.injections.push((at, Some(spec)));
        self.pending_injections += 1;
    }

    /// Keeps (or stops keeping) the run alive when no tasks are live and
    /// no injections are pending. While set, [`Engine::run_to`] pauses at
    /// the requested time instead of finishing, so an external driver —
    /// the fleet co-simulation — can feed arrivals with
    /// [`Engine::inject_live`] between pauses. Clear it before the final
    /// [`Engine::resume`] to let the run drain and finish.
    pub fn set_keepalive(&mut self, on: bool) {
        self.keepalive = on;
    }

    /// Registers a task arrival at simulated time `at` on a *running*
    /// engine (paused via [`Engine::run_to`]). The arrival must not lie in
    /// the past; it enters through the same injection path as
    /// [`Engine::inject_at`], so the task is created exactly as a
    /// pre-registered arrival at the same time would be.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the engine's current time.
    pub fn inject_live(&mut self, at: Time, spec: TaskSpec) {
        if !self.started {
            self.inject_at(at, spec);
            return;
        }
        assert!(at >= self.now, "inject_live arrival lies in the past");
        let idx = self.injections.len();
        self.injections.push((at, Some(spec)));
        self.pending_injections += 1;
        self.queue.schedule(at, Event::Inject(idx));
    }

    /// Ends a run *without* draining remaining work: flushes the profiler,
    /// notifies probes, and builds the outcome from the current state. The
    /// fleet layer uses this when a host crashes mid-run — whatever was in
    /// flight on the host is simply lost. The engine must not be driven
    /// again afterwards.
    pub fn abandon(&mut self) -> RunOutcome {
        assert!(self.started, "nothing to abandon: the engine never ran");
        self.finish()
    }

    fn create_task(
        &mut self,
        spec: TaskSpec,
        parent: Option<TaskId>,
        parent_core: CoreId,
    ) -> TaskId {
        let id = TaskId::from_index(self.tasks.len());
        let rng = self.rng.fork(id.index() as u64);
        self.tasks.push(SimTask {
            label: spec.label.clone(),
            behavior: spec.behavior,
            rng,
            state: TaskState::Placing,
            remaining_cycles: 0,
            seg_resumed_at: Time::ZERO,
            seg_freq: Freq::ZERO,
            seg_gen: 0,
            commit_gen: 0,
            smove_gen: 0,
            parent,
            live_children: 0,
            waiting_children: false,
            in_barrier: false,
        });
        self.kernel.register_task(id, self.now);
        self.live_tasks += 1;
        if let Some(p) = parent {
            self.tasks[p.index()].live_children += 1;
        }
        self.emit(TraceEvent::TaskCreated {
            task: id,
            label: spec.label,
            parent,
        });
        self.set_runnable_delta(1);
        let placement = {
            let mut env = Self::env(&self.topo, &self.freq, &mut self.rng, self.now);
            self.policy
                .select_core_fork(&mut self.kernel, &mut env, id, parent_core)
        };
        self.drain_policy_trace();
        self.place(id, placement);
        id
    }

    fn set_runnable_delta(&mut self, delta: i32) {
        self.runnable = self
            .runnable
            .checked_add_signed(delta)
            .expect("runnable count underflow");
        let count = self.runnable;
        self.emit(TraceEvent::RunnableCount { count });
    }

    /// Begins the two-phase placement of a runnable task.
    fn place(&mut self, task: TaskId, placement: Placement) {
        let Placement {
            core,
            path,
            smove_fallback,
        } = placement;
        self.kernel.begin_placement(core);
        self.tasks[task.index()].state = TaskState::Placing;
        self.emit(TraceEvent::Placed { task, core, path });
        self.tasks[task.index()].commit_gen += 1;
        let gen = self.tasks[task.index()].commit_gen;
        self.queue
            .schedule(self.now + PLACEMENT_LATENCY_NS, Event::Commit { task, gen });
        // Stash where the commit will land; Commit reads it back.
        self.tasks[task.index()].seg_resumed_at = self.now;
        self.pending_core.insert(task.index(), core);
        if let Some(arm) = smove_fallback {
            self.tasks[task.index()].smove_gen += 1;
            let sgen = self.tasks[task.index()].smove_gen;
            self.queue.schedule(
                self.now + arm.delay_ns,
                Event::SmoveExpire {
                    task,
                    from: core,
                    to: arm.fallback,
                    gen: sgen,
                },
            );
        }
    }

    /// Runs the simulation to completion (all tasks exited) or to the
    /// horizon.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or with no spawned tasks.
    pub fn run(&mut self) -> RunOutcome {
        self.start();
        self.drive(None);
        self.finish()
    }

    /// Runs the simulation until the next pending event lies strictly
    /// after `pause_at` (every event with `t <= pause_at` has been
    /// dispatched). Returns `None` while paused — continue with
    /// [`Engine::resume`] (or snapshot first) — or the completed
    /// [`RunOutcome`] if the run ended before reaching the pause point.
    ///
    /// The pause inspects the queue without popping, so
    /// pause-snapshot-restore-continue dispatches exactly the event
    /// sequence an uninterrupted run would.
    pub fn run_to(&mut self, pause_at: Time) -> Option<RunOutcome> {
        if !self.started {
            self.start();
        }
        if self.drive(Some(pause_at)) {
            None
        } else {
            Some(self.finish())
        }
    }

    /// Resumes a paused (or freshly restored) run to completion.
    pub fn resume(&mut self) -> RunOutcome {
        assert!(self.started, "nothing to resume: the engine never ran");
        self.drive(None);
        self.finish()
    }

    /// Schedules the periodic ticks, fault plan, and registered
    /// injections, and marks the engine started.
    fn start(&mut self) {
        assert!(!self.started, "engine can only run once");
        assert!(
            !self.tasks.is_empty() || self.pending_injections > 0 || self.keepalive,
            "no tasks spawned or injections registered"
        );
        self.started = true;
        self.queue.schedule(self.now + TICK_NS, Event::GlobalTick);
        self.queue.schedule(self.now + MILLISEC, Event::FreqTick);
        for i in 0..self.fault_schedule.actions().len() {
            let at = self.fault_schedule.actions()[i].at;
            self.queue.schedule(at, Event::Fault(i));
        }
        for i in 0..self.injections.len() {
            let at = self.injections[i].0;
            self.queue.schedule(at, Event::Inject(i));
        }
    }

    /// The event loop. Returns `true` if it stopped at `pause_at` with
    /// the run still in progress, `false` if the run is over (done,
    /// horizon, or watchdog abort).
    fn drive(&mut self, pause_at: Option<Time>) -> bool {
        let wall_start = std::time::Instant::now();
        // Dispatched events are tallied in a plain field and flushed to
        // the profiler once per run: the loop body stays free of atomics.
        while self.live_tasks > 0 || self.pending_injections > 0 || self.keepalive {
            if let Some(pause) = pause_at {
                // Peek, never pop: a popped event could not go back, and
                // the snapshot must keep it.
                if self.queue.peek_time().is_some_and(|t| t > pause) {
                    return true;
                }
            }
            let Some((t, ev)) = self.queue.pop() else {
                panic!("deadlock: {} live tasks but no events", self.live_tasks);
            };
            if t > self.cfg.horizon {
                self.hit_horizon = true;
                break;
            }
            if let Some(budget) = self.cfg.event_budget {
                if self.events_dispatched >= budget {
                    self.aborted = true;
                    break;
                }
            }
            if self.events_dispatched & 0xFFFF == 0xFFFF {
                // Checked every 64 Ki events: the syscall stays off the
                // hot path, and fault-free runs (no wall limit) never
                // reach it at all.
                if let Some(limit) = self.cfg.wall_limit {
                    if wall_start.elapsed() >= limit {
                        self.aborted = true;
                        break;
                    }
                }
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.events_dispatched += 1;
            let _span = profile::span(profile::Subsystem::EventDispatch);
            self.dispatch(ev);
        }
        false
    }

    /// Flushes the profiler and notifies probes; builds the outcome.
    fn finish(&mut self) -> RunOutcome {
        profile::add_events(self.events_dispatched - self.events_at_start);
        let finished_at = self.now;
        for p in &mut self.probes {
            p.on_finish(finished_at);
        }
        RunOutcome {
            finished_at,
            energy_joules: self.freq.energy_joules(finished_at),
            live_tasks: self.live_tasks,
            total_tasks: self.tasks.len(),
            hit_horizon: self.hit_horizon,
            aborted: self.aborted,
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Commit { task, gen } => self.on_commit(task, gen),
            Event::SegmentDone { task, gen } => self.on_segment_done(task, gen),
            Event::Wakeup { task, waker_core } => self.on_wakeup(task, waker_core),
            Event::GlobalTick => self.on_global_tick(),
            Event::FreqTick => self.on_freq_tick(),
            Event::SpinStop { core, gen } => self.on_spin_stop(core, gen),
            Event::BarrierContinue { task } => self.on_barrier_continue(task),
            Event::SmoveExpire {
                task,
                from,
                to,
                gen,
            } => self.on_smove_expire(task, from, to, gen),
            Event::Fault(idx) => self.on_fault(idx),
            Event::Inject(idx) => self.on_inject(idx),
        }
    }

    /// The launch core, or the first online core while it is offline:
    /// where injected tasks and stragglers fork from.
    fn online_launch_core(&self) -> CoreId {
        if self.kernel.is_online(LAUNCH_CORE) {
            LAUNCH_CORE
        } else {
            self.kernel
                .online_cores()
                .first()
                .expect("at least one core online")
        }
    }

    /// Fires a registered injection: the task enters through the policy's
    /// fork path from the launch core (or the first online core if it is
    /// offline), like a straggler spawn.
    fn on_inject(&mut self, idx: usize) {
        let spec = self.injections[idx].1.take().expect("injection fires once");
        self.pending_injections -= 1;
        let parent_core = self.online_launch_core();
        self.create_task(spec, None, parent_core);
    }

    // ---- fault injection ---------------------------------------------

    fn on_fault(&mut self, idx: usize) {
        match self.fault_schedule.actions()[idx].action {
            FaultAction::CoreOffline(core) => self.offline_core(core),
            FaultAction::CoreOnline(core) => self.online_core(core),
            FaultAction::ThrottleStart { socket, factor } => {
                self.set_throttle(socket.index(), factor)
            }
            FaultAction::ThrottleEnd { socket } => self.set_throttle(socket.index(), 1.0),
            FaultAction::SpawnStragglers { count, duration_ns } => {
                self.spawn_stragglers(count, duration_ns)
            }
        }
    }

    /// Takes `core` offline: sheds it from the policy's core sets,
    /// migrates the running task and drains the queue, and marks the
    /// hardware idle. Ordering matters for the invariant checker: the
    /// policy shed (and its `NestShrink` trace) lands *before* the
    /// `CoreOffline` marker, and every displacement after it.
    fn offline_core(&mut self, core: CoreId) {
        if !self.kernel.is_online(core) {
            return;
        }
        // Drop from the online mask first: nothing selected from here on
        // can land on the core.
        self.kernel.set_online(core, false);
        {
            let mut env = Self::env(&self.topo, &self.freq, &mut self.rng, self.now);
            self.policy
                .on_core_offline(&mut self.kernel, &mut env, core);
        }
        self.drain_policy_trace();
        self.emit(TraceEvent::CoreOffline { core });
        self.stop_spin(core);
        // Migrate the task running there, then drain the queue; each
        // displaced task is re-placed through the policy.
        if self.kernel.core(core).curr.is_some() {
            self.account_running_segment(core);
            let prev = self.kernel.put_curr(self.now, core);
            self.cancel_segment_event(prev);
            self.tasks[prev.index()].state = TaskState::Queued;
            self.emit(TraceEvent::RunStop {
                task: prev,
                core,
                reason: StopReason::Preempt,
            });
            self.replace_displaced(prev, core);
        }
        while let Some(task) = self.kernel.steal_queued(core) {
            self.replace_displaced(task, core);
        }
        let changed = self.freq.set_activity(self.now, core, Activity::Idle);
        self.emit_freq_changes(&changed);
        self.retime_after_freq_change(&changed);
    }

    /// Brings `core` back online and lets the policy pull work onto it.
    fn online_core(&mut self, core: CoreId) {
        if self.kernel.is_online(core) {
            return;
        }
        self.kernel.set_online(core, true);
        self.emit(TraceEvent::CoreOnline { core });
        self.core_went_idle(core, IdleReason::Other);
    }

    /// Migrates a task displaced by a core offlining onto a live core
    /// chosen by the policy (an emergency load-balance move, not a
    /// two-phase placement: the dead core must be empty *now*).
    fn replace_displaced(&mut self, task: TaskId, from: CoreId) {
        let placement = {
            let mut env = Self::env(&self.topo, &self.freq, &mut self.rng, self.now);
            self.policy
                .select_core_wakeup(&mut self.kernel, &mut env, task, from)
        };
        self.drain_policy_trace();
        let target = placement.core;
        debug_assert!(self.kernel.is_online(target), "policy chose a dead core");
        self.emit(TraceEvent::Placed {
            task,
            core: target,
            path: PlacementPath::LoadBalance,
        });
        self.tasks[task.index()].state = TaskState::Queued;
        self.kernel.enqueue(self.now, task, target);
        if self.kernel.core(target).curr.is_none() {
            self.schedule_core(target);
        }
    }

    fn set_throttle(&mut self, socket: usize, factor: f64) {
        let changed = self.freq.set_socket_throttle(self.now, socket, factor);
        self.emit(TraceEvent::SocketThrottle { socket, factor });
        self.emit_freq_changes(&changed);
        self.retime_after_freq_change(&changed);
    }

    fn spawn_stragglers(&mut self, count: u32, duration_ns: u64) {
        let parent_core = self.online_launch_core();
        for i in 0..count {
            self.create_task(
                TaskSpec {
                    label: format!("straggler{i}"),
                    behavior: Box::new(Straggler::new(duration_ns)),
                },
                None,
                parent_core,
            );
        }
    }

    // ---- placement commit -------------------------------------------

    fn on_commit(&mut self, task: TaskId, gen: u64) {
        if self.tasks[task.index()].commit_gen != gen
            || self.tasks[task.index()].state != TaskState::Placing
        {
            return;
        }
        let core = self
            .pending_core
            .remove(&task.index())
            .expect("no pending core");
        if !self.kernel.is_online(core) {
            // The target died while the placement was in flight: release
            // the §3.4 reservation (it must never leak) and re-select.
            self.kernel.cancel_placement(core);
            let placement = {
                let mut env = Self::env(&self.topo, &self.freq, &mut self.rng, self.now);
                self.policy
                    .select_core_wakeup(&mut self.kernel, &mut env, task, core)
            };
            self.drain_policy_trace();
            self.place(task, placement);
            return;
        }
        let preempt = self.kernel.commit_placement(self.now, task, core);
        self.tasks[task.index()].state = TaskState::Queued;
        self.stop_spin(core);
        if self.kernel.core(core).curr.is_none() {
            self.schedule_core(core);
        } else if preempt {
            self.preempt(core);
        }
    }

    /// Preempts the running task on `core` and runs the queue head.
    fn preempt(&mut self, core: CoreId) {
        self.account_running_segment(core);
        let prev = self.kernel.put_curr(self.now, core);
        self.cancel_segment_event(prev);
        self.tasks[prev.index()].state = TaskState::Queued;
        self.emit(TraceEvent::RunStop {
            task: prev,
            core,
            reason: StopReason::Preempt,
        });
        self.kernel.requeue(self.now, prev, core);
        self.schedule_core(core);
    }

    // ---- running / segments ------------------------------------------

    /// Picks and starts the next task on `core`; falls to the idle path
    /// if the queue is empty.
    fn schedule_core(&mut self, core: CoreId) {
        match self.kernel.pick_next(self.now, core) {
            Some(task) => self.start_running(task, core),
            None => self.core_went_idle(core, IdleReason::Other),
        }
    }

    fn start_running(&mut self, task: TaskId, core: CoreId) {
        self.tasks[task.index()].state = TaskState::Running(core);
        self.stop_spin(core);
        let sibling = self.topo.sibling(core);
        self.stop_spin(sibling);
        let changed = self.freq.set_activity(self.now, core, Activity::Busy);
        self.emit_freq_changes(&changed);
        self.retime_after_freq_change(&changed);
        self.emit(TraceEvent::RunStart { task, core });
        if self.tasks[task.index()].in_barrier {
            // Still spin-waiting: sit on the core until the release.
            return;
        }
        if self.tasks[task.index()].remaining_cycles > 0 {
            self.begin_segment(task, core);
        } else {
            self.advance_behavior(task, core);
        }
    }

    /// Schedules the completion of the current compute segment at the
    /// core's current frequency.
    fn begin_segment(&mut self, task: TaskId, core: CoreId) {
        let f = self.freq.freq_of(core);
        let t = &mut self.tasks[task.index()];
        t.seg_resumed_at = self.now;
        t.seg_freq = f;
        t.seg_gen += 1;
        let gen = t.seg_gen;
        let dur = f.nanos_for_cycles(t.remaining_cycles);
        self.queue
            .schedule(self.now + dur, Event::SegmentDone { task, gen });
    }

    /// Folds the elapsed portion of the running segment into
    /// `remaining_cycles` (used before preemption or re-timing).
    fn account_running_segment(&mut self, core: CoreId) {
        if let Some(task) = self.kernel.core(core).curr {
            let t = &mut self.tasks[task.index()];
            if t.remaining_cycles > 0 {
                let elapsed = self.now.saturating_since(t.seg_resumed_at);
                let done = t.seg_freq.cycles_in_nanos(elapsed);
                t.remaining_cycles = t.remaining_cycles.saturating_sub(done);
                t.seg_resumed_at = self.now;
            }
        }
    }

    fn cancel_segment_event(&mut self, task: TaskId) {
        // Generation bump invalidates any scheduled SegmentDone.
        self.tasks[task.index()].seg_gen += 1;
    }

    fn on_segment_done(&mut self, task: TaskId, gen: u64) {
        if self.tasks[task.index()].seg_gen != gen {
            return;
        }
        let TaskState::Running(core) = self.tasks[task.index()].state else {
            return;
        };
        self.kernel.clock_curr(self.now, core);
        self.tasks[task.index()].remaining_cycles = 0;
        self.advance_behavior(task, core);
    }

    // ---- behaviour interpretation ------------------------------------

    /// Drives the task's behaviour until it computes, blocks, or exits.
    /// The task is running on `core`.
    fn advance_behavior(&mut self, task: TaskId, core: CoreId) {
        loop {
            let action = {
                let t = &mut self.tasks[task.index()];
                t.behavior.next(&mut t.rng)
            };
            match action {
                Action::Compute { cycles } => {
                    if cycles == 0 {
                        continue;
                    }
                    self.tasks[task.index()].remaining_cycles = cycles;
                    self.begin_segment(task, core);
                    return;
                }
                Action::Sleep { ns } => {
                    self.block_current(task, core);
                    self.queue.schedule(
                        self.now + ns,
                        Event::Wakeup {
                            task,
                            waker_core: core,
                        },
                    );
                    return;
                }
                Action::Fork { child } => {
                    self.create_task(child, Some(task), core);
                    // The parent keeps running; loop for its next action.
                }
                Action::WaitChildren => {
                    if self.tasks[task.index()].live_children == 0 {
                        continue;
                    }
                    self.tasks[task.index()].waiting_children = true;
                    self.block_current(task, core);
                    return;
                }
                Action::Barrier { id } => {
                    // OpenMP-style spin-wait barrier (OMP_WAIT_POLICY
                    // active): waiters burn their core rather than
                    // sleeping, so releases do not go through wakeup
                    // placement — this is why the paper's NAS results are
                    // placement-neutral on machines where forks land
                    // cleanly (§5.4).
                    let b = &mut self.barriers[id.index()];
                    if b.waiting.len() + 1 == b.parties as usize {
                        let woken = std::mem::take(&mut b.waiting);
                        for w in woken {
                            self.tasks[w.index()].in_barrier = false;
                            self.queue
                                .schedule(self.now, Event::BarrierContinue { task: w });
                        }
                        continue;
                    }
                    b.waiting.push(task);
                    self.tasks[task.index()].in_barrier = true;
                    // The task stays on its core, busy-waiting.
                    return;
                }
                Action::Send { ch, msgs } => {
                    let mut nth = 0u64;
                    for _ in 0..msgs {
                        let c = &mut self.channels[ch.index()];
                        if let Some(r) = c.waiting.pop_front() {
                            self.queue.schedule(
                                self.now + nth * WAKEUP_STRIDE_NS,
                                Event::Wakeup {
                                    task: r,
                                    waker_core: core,
                                },
                            );
                            nth += 1;
                        } else {
                            c.msgs += 1;
                        }
                    }
                }
                Action::Recv { ch } => {
                    let c = &mut self.channels[ch.index()];
                    if c.msgs > 0 {
                        c.msgs -= 1;
                        continue;
                    }
                    c.waiting.push_back(task);
                    self.block_current(task, core);
                    return;
                }
                Action::Yield => {
                    self.account_running_segment(core);
                    let prev = self.kernel.put_curr(self.now, core);
                    debug_assert_eq!(prev, task);
                    self.cancel_segment_event(task);
                    self.tasks[task.index()].state = TaskState::Queued;
                    self.emit(TraceEvent::RunStop {
                        task,
                        core,
                        reason: StopReason::Yield,
                    });
                    self.kernel.requeue(self.now, task, core);
                    self.schedule_core(core);
                    return;
                }
                Action::Exit => {
                    self.exit_current(task, core);
                    return;
                }
            }
        }
    }

    /// Blocks the running task (it stops being runnable).
    fn block_current(&mut self, task: TaskId, core: CoreId) {
        let prev = self.kernel.put_curr(self.now, core);
        debug_assert_eq!(prev, task);
        self.cancel_segment_event(task);
        self.tasks[task.index()].state = TaskState::Blocked;
        self.emit(TraceEvent::RunStop {
            task,
            core,
            reason: StopReason::Block,
        });
        self.set_runnable_delta(-1);
        if self.kernel.core(core).rq.is_empty() {
            self.core_went_idle(core, IdleReason::TaskBlocked);
        } else {
            self.schedule_core(core);
        }
    }

    fn exit_current(&mut self, task: TaskId, core: CoreId) {
        let prev = self.kernel.put_curr(self.now, core);
        debug_assert_eq!(prev, task);
        self.cancel_segment_event(task);
        self.tasks[task.index()].state = TaskState::Exited;
        self.live_tasks -= 1;
        self.emit(TraceEvent::RunStop {
            task,
            core,
            reason: StopReason::Exit,
        });
        self.emit(TraceEvent::TaskExited { task });
        self.set_runnable_delta(-1);
        // Notify the parent.
        if let Some(parent) = self.tasks[task.index()].parent {
            let p = &mut self.tasks[parent.index()];
            p.live_children -= 1;
            if p.live_children == 0 && p.waiting_children {
                p.waiting_children = false;
                self.queue.schedule(
                    self.now,
                    Event::Wakeup {
                        task: parent,
                        waker_core: core,
                    },
                );
            }
        }
        if self.kernel.core(core).rq.is_empty() {
            self.core_went_idle(core, IdleReason::TaskExited);
        } else {
            self.schedule_core(core);
        }
    }

    // ---- wakeups ------------------------------------------------------

    /// Resumes a task whose spin-wait barrier released. If it was
    /// preempted while spinning, it resumes when next picked.
    fn on_barrier_continue(&mut self, task: TaskId) {
        if let TaskState::Running(core) = self.tasks[task.index()].state {
            if !self.tasks[task.index()].in_barrier {
                self.kernel.clock_curr(self.now, core);
                self.advance_behavior(task, core);
            }
        }
    }

    fn on_wakeup(&mut self, task: TaskId, waker_core: CoreId) {
        if self.tasks[task.index()].state != TaskState::Blocked {
            return;
        }
        self.emit(TraceEvent::Woken { task });
        self.set_runnable_delta(1);
        let placement = {
            let mut env = Self::env(&self.topo, &self.freq, &mut self.rng, self.now);
            self.policy
                .select_core_wakeup(&mut self.kernel, &mut env, task, waker_core)
        };
        self.drain_policy_trace();
        self.place(task, placement);
    }

    fn on_smove_expire(&mut self, task: TaskId, from: CoreId, to: CoreId, gen: u64) {
        if self.tasks[task.index()].smove_gen != gen {
            return;
        }
        // Only act if the task is still waiting (queued) on the tentative
        // core.
        if self.tasks[task.index()].state != TaskState::Queued {
            return;
        }
        if !self.kernel.is_online(to) {
            // The fallback core died after arming: keep the task where
            // it is rather than migrating onto a dead core.
            return;
        }
        if !self.kernel.remove_queued(task, from) {
            return;
        }
        self.emit(TraceEvent::Placed {
            task,
            core: to,
            path: PlacementPath::SmoveTimer,
        });
        self.kernel.enqueue(self.now, task, to);
        if self.kernel.core(to).curr.is_none() {
            self.schedule_core(to);
        }
    }

    // ---- idle / spinning ----------------------------------------------

    fn core_went_idle(&mut self, core: CoreId, reason: IdleReason) {
        debug_assert!(self.kernel.core(core).is_idle());
        let action = {
            let mut env = Self::env(&self.topo, &self.freq, &mut self.rng, self.now);
            self.policy
                .on_core_idle(&mut self.kernel, &mut env, core, reason)
        };
        self.drain_policy_trace();
        if let Some(src) = action.pull_from {
            if let Some(stolen) = self.kernel.steal_queued(src) {
                self.emit(TraceEvent::Placed {
                    task: stolen,
                    core,
                    path: PlacementPath::LoadBalance,
                });
                self.kernel.enqueue(self.now, stolen, core);
                self.schedule_core(core);
                return;
            }
        }
        if action.spin_ticks > 0 && !self.sibling_busy(core) {
            self.start_spin(core, action.spin_ticks);
        } else {
            let changed = self.freq.set_activity(self.now, core, Activity::Idle);
            self.emit_freq_changes(&changed);
            self.retime_after_freq_change(&changed);
        }
    }

    fn sibling_busy(&mut self, core: CoreId) -> bool {
        let sib = self.topo.sibling(core);
        self.kernel.core(sib).curr.is_some()
    }

    fn start_spin(&mut self, core: CoreId, ticks: u32) {
        self.spinning[core.index()] = true;
        self.spin_gen[core.index()] += 1;
        let gen = self.spin_gen[core.index()];
        let changed = self.freq.set_activity(self.now, core, Activity::Spinning);
        self.emit_freq_changes(&changed);
        self.retime_after_freq_change(&changed);
        self.emit(TraceEvent::SpinStart { core });
        self.queue.schedule(
            self.now + ticks as u64 * TICK_NS,
            Event::SpinStop { core, gen },
        );
    }

    /// Ends a spin (task placed here, hyperthread became busy, or
    /// timeout). Harmless if the core is not spinning.
    fn stop_spin(&mut self, core: CoreId) {
        if !self.spinning[core.index()] {
            return;
        }
        self.spinning[core.index()] = false;
        self.spin_gen[core.index()] += 1;
        self.emit(TraceEvent::SpinEnd { core });
        if self.kernel.core(core).curr.is_none() {
            let changed = self.freq.set_activity(self.now, core, Activity::Idle);
            self.emit_freq_changes(&changed);
            self.retime_after_freq_change(&changed);
        }
    }

    fn on_spin_stop(&mut self, core: CoreId, gen: u64) {
        if self.spin_gen[core.index()] != gen || !self.spinning[core.index()] {
            return;
        }
        self.stop_spin(core);
    }

    // ---- ticks ----------------------------------------------------------

    fn on_global_tick(&mut self) {
        let _span = profile::span(profile::Subsystem::TickLoop);
        // Timer-jitter fault: perturb the tick period. Fault-free runs
        // take the zero branch and draw nothing from the fault stream.
        let jitter = if self.cfg.faults.jitter_ns > 0 {
            self.fault_rng.uniform_u64(0, self.cfg.faults.jitter_ns)
        } else {
            0
        };
        self.queue
            .schedule(self.now + TICK_NS + jitter, Event::GlobalTick);
        self.freq.sample_observed();
        for i in 0..self.topo.n_cores() {
            let core = CoreId::from_index(i);
            if !self.kernel.is_online(core) {
                continue;
            }
            self.kernel.clock_curr(self.now, core);
            // Spinning cores stop as soon as the hyperthread has work.
            if self.spinning[i] && self.sibling_busy(core) {
                self.stop_spin(core);
            }
            if self.kernel.tick_preempt_due(self.now, core) {
                self.preempt(core);
            }
            // Periodic balancing can only pull from a core with queued
            // tasks, and every policy's `on_tick` is a read-only scan for
            // such a source (no RNG draws, no state changes), so when the
            // queued set is empty — the common case on an underloaded
            // machine — skipping the call is behavior-identical.
            // Re-checked per core: a preempt or steal above may requeue.
            if self.kernel.queued_cores().is_empty() {
                continue;
            }
            let pull = {
                let mut env = Self::env(&self.topo, &self.freq, &mut self.rng, self.now);
                self.policy.on_tick(&mut self.kernel, &mut env, core)
            };
            self.drain_policy_trace();
            if let Some(src) = pull {
                if self.kernel.core(core).is_idle() {
                    if let Some(stolen) = self.kernel.steal_queued(src) {
                        self.stop_spin(core);
                        self.emit(TraceEvent::Placed {
                            task: stolen,
                            core,
                            path: PlacementPath::LoadBalance,
                        });
                        self.kernel.enqueue(self.now, stolen, core);
                        self.schedule_core(core);
                    }
                }
            }
        }
    }

    fn on_freq_tick(&mut self) {
        let _span = profile::span(profile::Subsystem::FreqModel);
        self.queue.schedule(self.now + MILLISEC, Event::FreqTick);
        let changed = {
            let kernel = &self.kernel;
            let topo = &self.topo;
            let now = self.now;
            self.freq.advance(now, MILLISEC, &mut |rep: CoreId| {
                // schedutil's input: the physical core's rq utilization,
                // raised to the running task's own (migrated) utilization
                // — Linux's util_est means a warm task requests a high
                // frequency immediately on a cold core, while a core
                // hosting only fractional activity requests less. This is
                // what makes *concentration* (Nest) reach higher
                // frequencies than dispersal (CFS) at equal load.
                let mut u: f64 = 0.0;
                for core in [rep, topo.sibling(rep)] {
                    u = u.max(kernel.core(core).util.value(now));
                    if let Some(t) = kernel.core(core).curr {
                        u = u.max(kernel.task(t).util.value(now));
                    }
                }
                u
            })
        };
        self.emit_freq_changes(&changed);
        self.retime_after_freq_change(&changed);
    }

    fn emit_freq_changes(&mut self, reps: &[CoreId]) {
        for &rep in reps {
            let f = self.freq.freq_of(rep);
            let sib = self.topo.sibling(rep);
            self.emit(TraceEvent::FreqChange { core: rep, freq: f });
            if sib != rep {
                self.emit(TraceEvent::FreqChange { core: sib, freq: f });
            }
        }
    }

    /// Re-times in-flight compute segments on physical cores whose
    /// frequency changed.
    fn retime_after_freq_change(&mut self, reps: &[CoreId]) {
        for &rep in reps {
            let sib = self.topo.sibling(rep);
            let pair = [rep, sib];
            // SMT-1 machines are their own siblings; re-time once.
            let cores = if sib == rep { &pair[..1] } else { &pair[..] };
            for &core in cores {
                if let Some(task) = self.kernel.core(core).curr {
                    if self.tasks[task.index()].remaining_cycles > 0 {
                        self.account_running_segment(core);
                        self.cancel_segment_event(task);
                        if self.tasks[task.index()].remaining_cycles > 0 {
                            self.begin_segment(task, core);
                        } else {
                            // The segment finished exactly at the change.
                            self.queue.schedule(
                                self.now,
                                Event::SegmentDone {
                                    task,
                                    gen: self.tasks[task.index()].seg_gen,
                                },
                            );
                        }
                    }
                }
            }
        }
    }
}

// `pending_core` is split out to keep `place`/`on_commit` simple: it maps a
// task index to the core its in-flight placement targets.
impl Engine {
    /// Current simulated time (diagnostics, tests).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Cumulative events dispatched. Restores carry the saved tally
    /// forward, so the count compares across a pause/restore boundary.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }
}

// ---- snapshot / restore ----------------------------------------------

/// Registry kind under which [`Straggler`] snapshots itself.
const STRAGGLER_KIND: &str = "straggler";

/// Registers the engine-defined behaviours (the straggler interference
/// task spawned by fault injection) with a restore registry.
pub fn register_behaviors(reg: &mut BehaviorRegistry) {
    reg.register(STRAGGLER_KIND, |state, _| {
        Ok(Box::new(Straggler::load(state)?))
    });
}

impl Snap for Event {
    fn save(&self) -> Json {
        match self {
            Event::Commit { task, gen } => {
                tagged("commit", vec![("task", task.save()), ("gen", gen.save())])
            }
            Event::SegmentDone { task, gen } => {
                tagged("seg_done", vec![("task", task.save()), ("gen", gen.save())])
            }
            Event::Wakeup { task, waker_core } => tagged(
                "wakeup",
                vec![("task", task.save()), ("waker", waker_core.save())],
            ),
            Event::GlobalTick => tagged("tick", vec![]),
            Event::FreqTick => tagged("freq_tick", vec![]),
            Event::SpinStop { core, gen } => tagged(
                "spin_stop",
                vec![("core", core.save()), ("gen", gen.save())],
            ),
            Event::BarrierContinue { task } => tagged("barrier_cont", vec![("task", task.save())]),
            Event::SmoveExpire {
                task,
                from,
                to,
                gen,
            } => tagged(
                "smove",
                vec![
                    ("task", task.save()),
                    ("from", from.save()),
                    ("to", to.save()),
                    ("gen", gen.save()),
                ],
            ),
            Event::Fault(idx) => tagged("fault", vec![("idx", idx.save())]),
            Event::Inject(idx) => tagged("inject", vec![("idx", idx.save())]),
        }
    }

    fn load(j: &Json) -> Result<Event, String> {
        match load::<String>(j, "t")?.as_str() {
            "commit" => Ok(Event::Commit {
                task: load(j, "task")?,
                gen: load(j, "gen")?,
            }),
            "seg_done" => Ok(Event::SegmentDone {
                task: load(j, "task")?,
                gen: load(j, "gen")?,
            }),
            "wakeup" => Ok(Event::Wakeup {
                task: load(j, "task")?,
                waker_core: load(j, "waker")?,
            }),
            "tick" => Ok(Event::GlobalTick),
            "freq_tick" => Ok(Event::FreqTick),
            "spin_stop" => Ok(Event::SpinStop {
                core: load(j, "core")?,
                gen: load(j, "gen")?,
            }),
            "barrier_cont" => Ok(Event::BarrierContinue {
                task: load(j, "task")?,
            }),
            "smove" => Ok(Event::SmoveExpire {
                task: load(j, "task")?,
                from: load(j, "from")?,
                to: load(j, "to")?,
                gen: load(j, "gen")?,
            }),
            "fault" => Ok(Event::Fault(load(j, "idx")?)),
            "inject" => Ok(Event::Inject(load(j, "idx")?)),
            other => Err(format!("unknown event tag \"{other}\"")),
        }
    }
}

impl Snap for TaskState {
    fn save(&self) -> Json {
        match self {
            TaskState::Placing => tagged("placing", vec![]),
            TaskState::Queued => tagged("queued", vec![]),
            TaskState::Running(core) => tagged("running", vec![("core", core.save())]),
            TaskState::Blocked => tagged("blocked", vec![]),
            TaskState::Exited => tagged("exited", vec![]),
        }
    }

    fn load(j: &Json) -> Result<TaskState, String> {
        match load::<String>(j, "t")?.as_str() {
            "placing" => Ok(TaskState::Placing),
            "queued" => Ok(TaskState::Queued),
            "running" => Ok(TaskState::Running(load(j, "core")?)),
            "blocked" => Ok(TaskState::Blocked),
            "exited" => Ok(TaskState::Exited),
            other => Err(format!("unknown task state \"{other}\"")),
        }
    }
}

snap_struct!(Barrier {
    "parties": parties,
    "waiting": waiting,
});

snap_struct!(Channel {
    "msgs": msgs,
    "waiting": waiting,
});

impl Engine {
    /// Serializes the full mutable simulation state: clock, event queue,
    /// kernel, policy, frequency model, tasks (behaviour cursors and RNG
    /// streams included), synchronization objects, and probes.
    ///
    /// Call only while paused at a [`Engine::run_to`] boundary. Fails
    /// loudly — naming the offender — if any live behaviour or attached
    /// probe does not support snapshots (e.g. the trace collector).
    pub fn snapshot(&self) -> Result<Json, String> {
        if !self.started {
            return Err("snapshot requires a started run (pause with run_to first)".to_string());
        }
        if self.keepalive {
            return Err("fleet host engines (keepalive mode) do not support snapshots".to_string());
        }
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for (i, t) in self.tasks.iter().enumerate() {
            // Exited tasks never act again; their behaviour state is
            // irrelevant (and possibly unsnapshotable), so store null.
            let behavior = if t.state == TaskState::Exited {
                Json::Null
            } else {
                snap::behavior_to_json(t.behavior.as_ref()).ok_or_else(|| {
                    format!(
                        "task #{i} (\"{}\") runs a behaviour that does not support snapshots",
                        t.label
                    )
                })?
            };
            tasks.push(json::obj(vec![
                ("label", t.label.save()),
                ("behavior", behavior),
                ("rng", t.rng.save()),
                ("state", t.state.save()),
                ("cycles", t.remaining_cycles.save()),
                ("seg_resumed_at", t.seg_resumed_at.save()),
                ("seg_freq", t.seg_freq.save()),
                ("seg_gen", t.seg_gen.save()),
                ("commit_gen", t.commit_gen.save()),
                ("smove_gen", t.smove_gen.save()),
                ("parent", t.parent.save()),
                ("live_children", t.live_children.save()),
                ("waiting_children", t.waiting_children.save()),
                ("in_barrier", t.in_barrier.save()),
            ]));
        }
        let injections = self
            .injections
            .iter()
            .enumerate()
            .map(|(i, (at, spec))| {
                let spec_j = match spec {
                    None => Json::Null,
                    Some(s) => snap::task_spec_to_json(s).ok_or_else(|| {
                        format!(
                            "injection #{i} carries a behaviour that does not support snapshots"
                        )
                    })?,
                };
                Ok(json::obj(vec![("at", at.save()), ("spec", spec_j)]))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let queue = self
            .queue
            .pending_in_schedule_order()
            .into_iter()
            .map(|(at, ev)| json::obj(vec![("at", at.save()), ("ev", ev.save())]))
            .collect();
        let mut probes = Vec::with_capacity(self.probes.len());
        for (i, p) in self.probes.iter().enumerate() {
            let (kind, state) = p.snap().ok_or_else(|| {
                format!("probe #{i} does not support snapshots (rerun without it)")
            })?;
            probes.push(json::obj(vec![("kind", Json::str(kind)), ("state", state)]));
        }
        Ok(json::obj(vec![
            ("now", self.now.save()),
            ("events", self.events_dispatched.save()),
            ("faults", self.cfg.faults.canonical().save()),
            ("rng", self.rng.save()),
            ("fault_rng", self.fault_rng.save()),
            ("live_tasks", self.live_tasks.save()),
            ("runnable", self.runnable.save()),
            ("pending_injections", self.pending_injections.save()),
            ("kernel", self.kernel.save()),
            ("policy", self.policy.save()),
            ("freq", self.freq.save()),
            ("tasks", Json::Arr(tasks)),
            ("barriers", self.barriers.save()),
            ("channels", self.channels.save()),
            ("spinning", self.spinning.save()),
            ("spin_gen", self.spin_gen.save()),
            ("pending_core", self.pending_core.save()),
            ("injections", Json::Arr(injections)),
            ("queue", Json::Arr(queue)),
            ("probes", Json::Arr(probes)),
        ]))
    }

    /// Restores state captured by [`Engine::snapshot`] into a freshly
    /// built engine (same config, same probe rig, nothing spawned).
    ///
    /// If the engine's fault plan differs from the snapshot's, the saved
    /// pending `Fault` events are dropped and the new plan's actions are
    /// scheduled at `max(action time, now)` with the fresh fault RNG —
    /// a valid *what-if future* branched at the snapshot point, not a
    /// byte-replay. With an identical plan the saved queue order and
    /// fault RNG are preserved and the continuation is byte-exact.
    pub fn restore(&mut self, body: &Json, reg: &BehaviorRegistry) -> Result<(), String> {
        if self.started {
            return Err("restore requires a freshly built engine (this one already ran)".into());
        }
        if !self.tasks.is_empty() {
            return Err("restore requires an engine with no spawned tasks".into());
        }
        let n_cores = self.topo.n_cores();
        self.now = load(body, "now")?;
        self.events_dispatched = load(body, "events")?;
        self.events_at_start = self.events_dispatched;
        self.kernel.load(field(body, "kernel")?)?;
        self.policy.load(&self.topo, field(body, "policy")?)?;
        self.freq.load(field(body, "freq")?)?;
        self.rng = load(body, "rng")?;

        let tasks_j = snap::get_arr(body, "tasks")?;
        let mut tasks = Vec::with_capacity(tasks_j.len());
        for (i, j) in tasks_j.iter().enumerate() {
            let label: String = load(j, "label")?;
            let state: TaskState = load(j, "state")?;
            if let TaskState::Running(c) = state {
                if c.index() >= n_cores {
                    return Err(format!(
                        "task #{i} runs on core {c}, but the machine has {n_cores} cores"
                    ));
                }
            }
            let behavior_j = field(j, "behavior")?;
            let behavior: Box<dyn nest_simcore::Behavior> = if behavior_j.is_null() {
                if state != TaskState::Exited {
                    return Err(format!(
                        "task #{i} (\"{label}\") has no behaviour state but has not exited"
                    ));
                }
                Box::new(nest_simcore::ScriptBehavior::new(Vec::new()))
            } else {
                snap::behavior_from_json(behavior_j, reg)
                    .map_err(|e| format!("task #{i} (\"{label}\"): {e}"))?
            };
            tasks.push(SimTask {
                label,
                behavior,
                rng: load(j, "rng")?,
                state,
                remaining_cycles: load(j, "cycles")?,
                seg_resumed_at: load(j, "seg_resumed_at")?,
                seg_freq: load(j, "seg_freq")?,
                seg_gen: load(j, "seg_gen")?,
                commit_gen: load(j, "commit_gen")?,
                smove_gen: load(j, "smove_gen")?,
                parent: load(j, "parent")?,
                live_children: load(j, "live_children")?,
                waiting_children: load(j, "waiting_children")?,
                in_barrier: load(j, "in_barrier")?,
            });
        }
        self.tasks = tasks;
        if self.kernel.tasks.len() != self.tasks.len() {
            return Err(format!(
                "kernel snapshot tracks {} tasks, engine snapshot {}",
                self.kernel.tasks.len(),
                self.tasks.len()
            ));
        }

        self.barriers = load(body, "barriers")?;
        self.channels = load(body, "channels")?;
        self.live_tasks = load(body, "live_tasks")?;
        self.runnable = load(body, "runnable")?;
        self.pending_injections = load(body, "pending_injections")?;
        self.spinning = snap::load_len(body, "spinning", n_cores)?;
        self.spin_gen = snap::load_len(body, "spin_gen", n_cores)?;
        self.pending_core = load(body, "pending_core")?;

        self.injections = snap::get_arr(body, "injections")?
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let spec_j = field(j, "spec")?;
                let spec = if spec_j.is_null() {
                    None
                } else {
                    Some(
                        snap::task_spec_from_json(spec_j, reg)
                            .map_err(|e| format!("injection #{i}: {e}"))?,
                    )
                };
                Ok((load(j, "at")?, spec))
            })
            .collect::<Result<_, String>>()?;

        let saved_faults: String = load(body, "faults")?;
        let same_faults = saved_faults == self.cfg.faults.canonical();
        if same_faults {
            self.fault_rng = load(body, "fault_rng")?;
        }
        for (idx, j) in snap::get_arr(body, "queue")?.iter().enumerate() {
            let at = load(j, "at")?;
            let ev = load(j, "ev").map_err(|e| format!("queue[{idx}]: {e}"))?;
            match ev {
                Event::Fault(i) if !same_faults => {
                    // The saved event indexes the *old* plan's schedule;
                    // the override's actions are scheduled below.
                    let _ = i;
                    continue;
                }
                Event::Fault(i) if i >= self.fault_schedule.actions().len() => {
                    return Err(format!("queue[{idx}] references unknown fault action {i}"));
                }
                Event::Inject(i) if i >= self.injections.len() => {
                    return Err(format!("queue[{idx}] references unknown injection {i}"));
                }
                _ => {}
            }
            self.queue.schedule(at, ev);
        }
        if !same_faults {
            for i in 0..self.fault_schedule.actions().len() {
                let at = self.fault_schedule.actions()[i].at.max(self.now);
                self.queue.schedule(at, Event::Fault(i));
            }
        }

        let probes_j = snap::get_arr(body, "probes")?;
        if probes_j.len() != self.probes.len() {
            return Err(format!(
                "snapshot carries {} probes, the restore rig attached {}",
                probes_j.len(),
                self.probes.len()
            ));
        }
        for (i, (p, j)) in self.probes.iter_mut().zip(probes_j).enumerate() {
            let kind: String = load(j, "kind")?;
            let own = p.snap().map(|(k, _)| k);
            if own != Some(kind.as_str()) {
                return Err(format!(
                    "probe #{i} is \"{}\", but the snapshot carries \"{kind}\"",
                    own.unwrap_or("unsupported")
                ));
            }
            p.snap_restore(field(j, "state")?)
                .map_err(|e| format!("probe #{i} (\"{kind}\"): {e}"))?;
        }

        self.started = true;
        Ok(())
    }
}

/// Background interference task injected by the straggler fault: bursts
/// of compute interleaved with short sleeps (so it generates wakeups,
/// not just occupancy) until its busy-time budget is spent.
struct Straggler {
    /// Remaining compute budget in cycles, at a 2 GHz reference.
    remaining_cycles: u64,
    sleep_next: bool,
}

snap_struct!(Straggler {
    "remaining": remaining_cycles,
    "sleep_next": sleep_next,
});

impl Straggler {
    fn new(duration_ns: u64) -> Straggler {
        Straggler {
            remaining_cycles: duration_ns.saturating_mul(2),
            sleep_next: false,
        }
    }
}

impl nest_simcore::Behavior for Straggler {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.remaining_cycles == 0 {
            return Action::Exit;
        }
        if self.sleep_next {
            self.sleep_next = false;
            return Action::Sleep { ns: 50 * MICROSEC };
        }
        // 0.25–1 ms bursts at the reference frequency.
        let burst = self
            .remaining_cycles
            .min(rng.uniform_u64(500_000, 2_000_000));
        self.remaining_cycles -= burst;
        self.sleep_next = true;
        Action::Compute { cycles: burst }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((STRAGGLER_KIND, self.save()))
    }
}
