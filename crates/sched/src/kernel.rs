//! Shared scheduler state: runqueues, task accounting, vruntime.
//!
//! [`KernelState`] is the part of the scheduler every policy shares — the
//! analogue of the core CFS machinery that Nest leaves untouched
//! (vruntime-ordered runqueues, PELT averages, min-vruntime placement,
//! preemption checks). Policies (CFS, Nest, Smove) only differ in *core
//! selection*, exactly as the paper describes: "Most of the implementation
//! of Nest amounts to a single block of code placed in front of the core
//! selection function of CFS" (§7).
//!
//! Placement is two-phase, mirroring Linux: a core is *selected* first and
//! the task is *enqueued* after a short delay. The count of in-flight
//! placements per core ([`CoreK::pending`]) is the substrate for the
//! paper's §3.4 collision discussion — CFS ignores it (and collides), Nest
//! checks it with compare-and-swap semantics.

use std::collections::BTreeSet;
use std::rc::Rc;

use nest_simcore::json::{self, Json};
use nest_simcore::{profile, snap_in_place, snap_struct, CoreId, TaskId, Time};
use nest_topology::{CpuSet, Topology};

use crate::pelt::Pelt;

/// Target scheduling slice before tick preemption, in nanoseconds.
pub const SLICE_NS: u64 = 4_000_000;

/// Wakeup preemption granularity in vruntime nanoseconds.
pub const WAKEUP_GRANULARITY_NS: u64 = 1_000_000;

/// Sleeper credit: a newly enqueued task's vruntime is clamped to
/// `min_vruntime - SLICE_NS` so sleepers get a small scheduling boost
/// without starving the queue.
const SLEEPER_CREDIT_NS: u64 = SLICE_NS;

/// Per-task scheduler state.
#[derive(Clone, Debug)]
pub struct TaskSched {
    /// Weighted runtime; the runqueue sort key.
    pub vruntime: u64,
    /// The task's own PELT utilization.
    pub util: Pelt,
    /// Core of the previous execution.
    pub prev_core: Option<CoreId>,
    /// Core of the execution before that; `prev == prev_prev` means the
    /// task is *attached* to that core (Nest §3.3).
    pub prev_prev_core: Option<CoreId>,
    /// Consecutive wakeups that found the previous core busy (Nest §3.1).
    pub impatience: u32,
}

snap_struct!(TaskSched {
    "vruntime": vruntime,
    "util": util,
    "prev": prev_core,
    "prev_prev": prev_prev_core,
    "impatience": impatience,
});

/// Utilization a newly forked task starts with. Linux initializes new
/// entities from the parent/cpu average (`post_init_entity_util_avg`);
/// a moderate value makes `schedutil` request a mid-range frequency for
/// fresh tasks until their own history builds up.
pub const NEW_TASK_UTIL: f64 = 0.75;

impl TaskSched {
    fn new(now: Time) -> TaskSched {
        TaskSched {
            vruntime: 0,
            util: Pelt::with_initial(now, NEW_TASK_UTIL),
            prev_core: None,
            prev_prev_core: None,
            impatience: 0,
        }
    }

    /// Returns the core this task is attached to, if its last two
    /// executions used the same core (history of size 2, §3.3).
    pub fn attached_core(&self) -> Option<CoreId> {
        match (self.prev_core, self.prev_prev_core) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Records that an execution on `core` ended, shifting the history.
    pub fn push_core_history(&mut self, core: CoreId) {
        self.prev_prev_core = self.prev_core;
        self.prev_core = Some(core);
    }
}

/// Per-core runqueue state.
#[derive(Clone, Debug)]
pub struct CoreK {
    /// The running task, if any.
    pub curr: Option<TaskId>,
    /// Queued runnable tasks ordered by `(vruntime, id)`.
    pub rq: BTreeSet<(u64, TaskId)>,
    /// PELT average of "something was running here" — the core's
    /// utilization, feeding both CFS load comparisons and `schedutil`.
    pub util: Pelt,
    /// Monotonic floor for vruntime placement.
    pub min_vruntime: u64,
    /// In-flight placements: selected for this core, not yet enqueued.
    pub pending: u32,
    /// Last time a task ran on, or was enqueued on, this core.
    pub last_used: Time,
    /// When the current task started its stint.
    pub curr_started: Time,
}

impl CoreK {
    fn new(now: Time) -> CoreK {
        CoreK {
            curr: None,
            rq: BTreeSet::new(),
            util: Pelt::new(now),
            min_vruntime: 0,
            pending: 0,
            last_used: now,
            curr_started: now,
        }
    }

    /// Number of runnable tasks on this core (running + queued).
    pub fn nr_running(&self) -> usize {
        self.rq.len() + usize::from(self.curr.is_some())
    }

    /// `true` if nothing is running or queued here. Pending placements do
    /// **not** make a core non-idle: that is the §3.4 race window.
    pub fn is_idle(&self) -> bool {
        self.curr.is_none() && self.rq.is_empty()
    }
}

snap_struct!(CoreK {
    "curr": curr,
    "rq": rq,
    "util": util,
    "min_vruntime": min_vruntime,
    "pending": pending,
    "last_used": last_used,
    "curr_started": curr_started,
});

/// Cached per-socket statistics used by CFS's top-level fork descent.
///
/// Linux recomputes group statistics from per-core data that is itself
/// updated periodically; between refreshes the view is stale, which is why
/// rapid fork storms on large machines can stack tasks (§5.4, Lepers et
/// al.). The cache refresh interval models that staleness.
#[derive(Clone, Copy, Debug, Default)]
pub struct SocketStats {
    /// Idle cores in the socket at the last refresh.
    pub idle: usize,
    /// Sum of core loads at the last refresh.
    pub load: f64,
}

snap_struct!(SocketStats {
    "idle": idle,
    "load": load,
});

/// How often the socket-stats cache refreshes, in nanoseconds.
pub const GROUP_STATS_REFRESH_NS: u64 = 250_000;

/// The shared scheduler state.
///
/// Besides the per-core and per-task records, the state maintains three
/// *derived core indexes* — bitsets kept incrementally in sync by every
/// mutator so that placement and balancing scans touch only the cores that
/// can match instead of walking the whole machine:
///
/// * [`KernelState::idle_cores`] — cores with no current task and an empty
///   runqueue (exactly [`CoreK::is_idle`]);
/// * [`KernelState::idle_unreserved_cores`] — idle cores with no in-flight
///   placement either (`pending == 0`), the candidates honored by the
///   reservation-flag path;
/// * [`KernelState::queued_cores`] — cores with at least one *queued*
///   (not running) task, the only possible load-balance sources.
///
/// The indexes are pure acceleration structures: they never influence a
/// decision beyond skipping cores a naive scan would have rejected, which
/// is what keeps results bit-identical to the unindexed implementation
/// (see DESIGN.md §4.2 and the `placement_equivalence` test).
pub struct KernelState {
    /// The machine topology.
    pub topo: Rc<Topology>,
    /// Per-core state, indexed by core id.
    pub cores: Vec<CoreK>,
    /// Per-task state, indexed by task id.
    pub tasks: Vec<TaskSched>,
    socket_cache: Vec<SocketStats>,
    domain_cache: Vec<SocketStats>,
    socket_cache_at: Option<Time>,
    idle: CpuSet,
    idle_free: CpuSet,
    queued: CpuSet,
    online: CpuSet,
}

// `online` has its own encoding (`CpuSet::load` checks each member
// against the machine) and is saved after these keys.
snap_in_place!(KernelState {
    "cores": cores [len],
    "tasks": tasks,
    "socket_cache": socket_cache [len],
    "domain_cache": domain_cache [len],
    "socket_cache_at": socket_cache_at,
});

impl KernelState {
    /// Creates the state for a machine with all cores idle.
    pub fn new(topo: Rc<Topology>) -> KernelState {
        let n = topo.n_cores();
        KernelState {
            cores: (0..n).map(|_| CoreK::new(Time::ZERO)).collect(),
            tasks: Vec::new(),
            socket_cache: vec![SocketStats::default(); topo.n_sockets()],
            domain_cache: vec![SocketStats::default(); topo.n_ccx()],
            socket_cache_at: None,
            idle: CpuSet::full(n),
            idle_free: CpuSet::full(n),
            queued: CpuSet::new(n),
            online: CpuSet::full(n),
            topo,
        }
    }

    /// Re-derives `core`'s bits in the three indexes from its state. Called
    /// by every mutator that can change idleness, pending placements, or
    /// queue occupancy; O(1).
    #[inline]
    fn reindex(&mut self, core: CoreId) {
        let c = &self.cores[core.index()];
        let online = self.online.contains(core);
        let idle = online && c.curr.is_none() && c.rq.is_empty();
        let idle_free = idle && c.pending == 0;
        let queued = online && !c.rq.is_empty();
        if idle {
            self.idle.insert(core);
        } else {
            self.idle.remove(core);
        }
        if idle_free {
            self.idle_free.insert(core);
        } else {
            self.idle_free.remove(core);
        }
        if queued {
            self.queued.insert(core);
        } else {
            self.queued.remove(core);
        }
    }

    /// Cores that are idle ([`CoreK::is_idle`]), maintained incrementally.
    pub fn idle_cores(&self) -> &CpuSet {
        &self.idle
    }

    /// Idle cores with no in-flight placement (`pending == 0`) — the
    /// candidate set when the reservation flag is honored.
    pub fn idle_unreserved_cores(&self) -> &CpuSet {
        &self.idle_free
    }

    /// Cores with at least one queued (not running) task — the only
    /// possible sources for load balancing.
    pub fn queued_cores(&self) -> &CpuSet {
        &self.queued
    }

    /// Cores currently online. All cores start online; fault injection
    /// is the only mutator (via [`KernelState::set_online`]).
    pub fn online_cores(&self) -> &CpuSet {
        &self.online
    }

    /// `true` if `core` is online.
    pub fn is_online(&self, core: CoreId) -> bool {
        self.online.contains(core)
    }

    /// Takes a core offline or brings it back online.
    ///
    /// Offlining only flips the mask and drops the core from the derived
    /// indexes (so no scan can select it); the engine is responsible for
    /// migrating the running task and draining the runqueue. The cached
    /// socket statistics are invalidated: hotplug is a machine-level
    /// reconfiguration the kernel reacts to immediately, unlike ordinary
    /// load changes which it observes with staleness.
    pub fn set_online(&mut self, core: CoreId, online: bool) {
        if online {
            self.online.insert(core);
        } else {
            self.online.remove(core);
        }
        self.reindex(core);
        self.invalidate_socket_stats();
    }

    /// Registers a task id (ids are dense and allocated by the engine).
    ///
    /// # Panics
    ///
    /// Panics if ids are registered out of order.
    pub fn register_task(&mut self, task: TaskId, now: Time) {
        assert_eq!(task.index(), self.tasks.len(), "task ids must be dense");
        self.tasks.push(TaskSched::new(now));
    }

    /// Serializes the full kernel state for a snapshot.
    ///
    /// Everything behaviorally visible is captured — including the
    /// *stale* socket-statistics cache and its refresh timestamp, since
    /// CFS's fork descent reads the cache as-is and a restore that
    /// invalidated it would make different placement decisions than the
    /// uninterrupted run. The three derived bitset indexes are *not*
    /// stored; [`KernelState::load`] re-derives them per core, which is
    /// exact by construction.
    pub fn save(&self) -> Json {
        let mut entries = self.snap_entries();
        entries.push(("online", self.online.save()));
        json::obj(entries)
    }

    /// Restores state captured by [`KernelState::save`] into a freshly
    /// constructed `KernelState` for the same topology.
    pub fn load(&mut self, state: &Json) -> Result<(), String> {
        let n = self.cores.len();
        self.load_entries(state)?;
        self.online = CpuSet::load(state, "online", n)?;
        // Re-derive the acceleration indexes from the restored state.
        self.idle = CpuSet::new(n);
        self.idle_free = CpuSet::new(n);
        self.queued = CpuSet::new(n);
        for i in 0..n {
            self.reindex(CoreId(i as u32));
        }
        Ok(())
    }

    /// Returns the per-task state.
    pub fn task(&self, task: TaskId) -> &TaskSched {
        &self.tasks[task.index()]
    }

    /// Returns the per-task state mutably.
    pub fn task_mut(&mut self, task: TaskId) -> &mut TaskSched {
        &mut self.tasks[task.index()]
    }

    /// Returns the per-core state.
    pub fn core(&self, core: CoreId) -> &CoreK {
        &self.cores[core.index()]
    }

    /// Core load as CFS compares it: the decaying utilization plus the
    /// runnable count. A long-idle core scores ~0; a recently vacated one
    /// keeps a residual — making CFS prefer the long-idle (cold) core.
    pub fn core_load(&self, now: Time, core: CoreId) -> f64 {
        let c = &self.cores[core.index()];
        c.util.value(now) + c.nr_running() as f64
    }

    /// Marks the start of a placement targeting `core`.
    pub fn begin_placement(&mut self, core: CoreId) {
        self.cores[core.index()].pending += 1;
        self.reindex(core);
    }

    /// Abandons a pending placement (e.g. an Smove timer re-route).
    ///
    /// # Panics
    ///
    /// Panics if no placement was pending.
    pub fn cancel_placement(&mut self, core: CoreId) {
        let c = &mut self.cores[core.index()];
        assert!(c.pending > 0, "no pending placement on {core}");
        c.pending -= 1;
        self.reindex(core);
    }

    /// Commits a placement: enqueues `task` on `core`.
    ///
    /// Returns `true` if the newly enqueued task should preempt the
    /// running task (wakeup preemption).
    ///
    /// # Panics
    ///
    /// Panics if no placement was pending on `core`.
    pub fn commit_placement(&mut self, now: Time, task: TaskId, core: CoreId) -> bool {
        self.cancel_placement(core);
        self.enqueue(now, task, core)
    }

    /// Enqueues `task` on `core` (no pending bookkeeping); returns the
    /// wakeup-preemption decision.
    pub fn enqueue(&mut self, now: Time, task: TaskId, core: CoreId) -> bool {
        let min_vr = self.cores[core.index()].min_vruntime;
        let t = &mut self.tasks[task.index()];
        t.vruntime = t.vruntime.max(min_vr.saturating_sub(SLEEPER_CREDIT_NS));
        let vr = t.vruntime;
        let c = &mut self.cores[core.index()];
        let inserted = c.rq.insert((vr, task));
        assert!(inserted, "task {task} already queued on {core}");
        c.last_used = now;
        c.util.set_running(now, true);
        let preempt = match c.curr {
            Some(curr) => {
                let curr_vr = self.tasks[curr.index()].vruntime;
                curr_vr > vr + WAKEUP_GRANULARITY_NS
            }
            None => true,
        };
        self.reindex(core);
        preempt
    }

    /// Accounts the running task's progress up to `now` (vruntime and
    /// PELT), without descheduling it.
    pub fn clock_curr(&mut self, now: Time, core: CoreId) {
        let c = &mut self.cores[core.index()];
        if let Some(curr) = c.curr {
            let ran = now.saturating_since(c.curr_started);
            if ran > 0 {
                let t = &mut self.tasks[curr.index()];
                t.vruntime += ran;
                c.curr_started = now;
                c.min_vruntime = c.min_vruntime.max(t.vruntime);
                c.last_used = now;
            }
        }
        c.util.update(now);
    }

    /// Removes the running task from the core (block, exit, migration or
    /// preemption hand-off), recording core history.
    ///
    /// # Panics
    ///
    /// Panics if no task is running on `core`.
    pub fn put_curr(&mut self, now: Time, core: CoreId) -> TaskId {
        self.clock_curr(now, core);
        let c = &mut self.cores[core.index()];
        let task = c.curr.take().expect("no current task");
        self.tasks[task.index()].util.set_running(now, false);
        self.tasks[task.index()].push_core_history(core);
        let c = &mut self.cores[core.index()];
        if c.rq.is_empty() && c.curr.is_none() {
            c.util.set_running(now, false);
        }
        self.reindex(core);
        task
    }

    /// Re-queues a preempted task on its own core (it remains runnable).
    pub fn requeue(&mut self, now: Time, task: TaskId, core: CoreId) {
        let vr = self.tasks[task.index()].vruntime;
        let c = &mut self.cores[core.index()];
        let inserted = c.rq.insert((vr, task));
        assert!(inserted, "task {task} already queued on {core}");
        c.util.set_running(now, true);
        self.reindex(core);
    }

    /// Picks the next task to run on `core` (lowest vruntime), if any.
    pub fn pick_next(&mut self, now: Time, core: CoreId) -> Option<TaskId> {
        let c = &mut self.cores[core.index()];
        assert!(c.curr.is_none(), "pick_next with a task still running");
        let first = c.rq.iter().next().copied()?;
        c.rq.remove(&first);
        let (vr, task) = first;
        c.curr = Some(task);
        c.curr_started = now;
        c.min_vruntime = c.min_vruntime.max(vr);
        c.last_used = now;
        c.util.set_running(now, true);
        self.tasks[task.index()].util.set_running(now, true);
        self.reindex(core);
        Some(task)
    }

    /// `true` if the tick should preempt the running task: something is
    /// waiting and the current task has consumed its slice.
    pub fn tick_preempt_due(&self, now: Time, core: CoreId) -> bool {
        let c = &self.cores[core.index()];
        c.curr.is_some() && !c.rq.is_empty() && now.saturating_since(c.curr_started) >= SLICE_NS
    }

    /// Removes a specific queued (not running) task from `core`'s
    /// runqueue; `true` if it was there. Used by Smove's migration timer.
    pub fn remove_queued(&mut self, task: TaskId, core: CoreId) -> bool {
        let vr = self.tasks[task.index()].vruntime;
        let removed = self.cores[core.index()].rq.remove(&(vr, task));
        if removed {
            self.reindex(core);
        }
        removed
    }

    /// Steals the queued task with the highest vruntime from `core`
    /// (load balancing never migrates the running task).
    pub fn steal_queued(&mut self, core: CoreId) -> Option<TaskId> {
        let c = &mut self.cores[core.index()];
        let last = c.rq.iter().next_back().copied()?;
        c.rq.remove(&last);
        self.reindex(core);
        Some(last.1)
    }

    /// Returns per-socket statistics, refreshed at most every
    /// [`GROUP_STATS_REFRESH_NS`]. The staleness is intentional (see type
    /// docs).
    pub fn socket_stats(&mut self, now: Time) -> &[SocketStats] {
        let fresh = matches!(self.socket_cache_at, Some(at) if now.saturating_since(at) < GROUP_STATS_REFRESH_NS);
        if !fresh {
            let _span = profile::span(profile::Subsystem::SocketStats);
            let topo = Rc::clone(&self.topo);
            self.domain_cache.fill(SocketStats::default());
            for s in topo.sockets() {
                let span = topo.socket_span(s);
                let mut idle = 0;
                let mut load = 0.0;
                for core in span.iter() {
                    if !self.online.contains(core) {
                        continue;
                    }
                    // The per-CCX accumulators ride along in the same pass;
                    // the socket running sum keeps its exact ascending-core
                    // order so existing f64 results stay bit-identical.
                    let core_load = self.core_load(now, core);
                    let ccx = &mut self.domain_cache[topo.ccx_of(core).index()];
                    if self.cores[core.index()].is_idle() {
                        idle += 1;
                        ccx.idle += 1;
                    }
                    load += core_load;
                    ccx.load += core_load;
                }
                self.socket_cache[s.index()] = SocketStats { idle, load };
            }
            self.socket_cache_at = Some(now);
        }
        &self.socket_cache
    }

    /// Returns per-CCX (last-level-cache domain) statistics, refreshed in
    /// the same pass and with the same staleness as
    /// [`KernelState::socket_stats`]. Indexed by [`nest_simcore::CcxId`].
    ///
    /// On degenerate trees (one CCX per socket — every Table 2 machine)
    /// this mirrors the socket cache exactly: both sums visit the same
    /// cores in the same order.
    pub fn domain_stats(&mut self, now: Time) -> &[SocketStats] {
        self.socket_stats(now);
        &self.domain_cache
    }

    /// Forces the socket-stats cache to refresh on next read; tests use
    /// this to bypass staleness.
    pub fn invalidate_socket_stats(&mut self) {
        self.socket_cache_at = None;
    }

    /// Returns the busiest core in `set` by queued-task count, if any has
    /// at least `min_queued` tasks waiting.
    ///
    /// For `min_queued >= 1` only cores in the queued index can qualify,
    /// so the scan covers `set ∩ queued` — usually empty or tiny — instead
    /// of the whole span. Both scans run in ascending core order with a
    /// strictly-greater comparison, so ties keep resolving to the
    /// lowest-numbered core, exactly as the full scan did.
    pub fn busiest_core_in(
        &self,
        set: &nest_topology::CpuSet,
        min_queued: usize,
    ) -> Option<CoreId> {
        let mut best: Option<(usize, CoreId)> = None;
        let mut consider = |q: usize, core: CoreId| {
            if q >= min_queued && best.is_none_or(|(bq, _)| q > bq) {
                best = Some((q, core));
            }
        };
        if min_queued == 0 {
            for core in set.iter_masked(&self.online) {
                consider(self.cores[core.index()].rq.len(), core);
            }
        } else {
            for core in set.iter_masked(&self.queued) {
                consider(self.cores[core.index()].rq.len(), core);
            }
        }
        best.map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_topology::presets;

    fn kernel() -> KernelState {
        KernelState::new(Rc::new(Topology::new(presets::xeon_6130(2))))
    }

    fn new_task(k: &mut KernelState, now: Time) -> TaskId {
        let id = TaskId::from_index(k.tasks.len());
        k.register_task(id, now);
        id
    }

    #[test]
    fn enqueue_pick_run_cycle() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let task = new_task(&mut k, t0);
        let core = CoreId(3);
        k.begin_placement(core);
        assert_eq!(k.core(core).pending, 1);
        let preempt = k.commit_placement(t0, task, core);
        assert!(preempt, "idle core always 'preempts'");
        assert_eq!(k.core(core).pending, 0);
        assert_eq!(k.core(core).nr_running(), 1);
        assert!(!k.core(core).is_idle());

        let picked = k.pick_next(t0, core).unwrap();
        assert_eq!(picked, task);
        assert_eq!(k.core(core).curr, Some(task));

        let t1 = Time::from_millis(2);
        let put = k.put_curr(t1, core);
        assert_eq!(put, task);
        assert!(k.core(core).is_idle());
        assert_eq!(k.task(task).vruntime, 2_000_000);
        assert_eq!(k.task(task).prev_core, Some(core));
    }

    #[test]
    fn rq_orders_by_vruntime() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let a = new_task(&mut k, t0);
        let b = new_task(&mut k, t0);
        let core = CoreId(0);
        k.tasks[a.index()].vruntime = 100;
        k.tasks[b.index()].vruntime = 50;
        k.enqueue(t0, a, core);
        k.enqueue(t0, b, core);
        assert_eq!(k.pick_next(t0, core), Some(b));
    }

    #[test]
    fn sleeper_credit_bounds_vruntime() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let core = CoreId(0);
        let a = new_task(&mut k, t0);
        k.cores[core.index()].min_vruntime = 100_000_000;
        k.enqueue(t0, a, core);
        assert_eq!(k.task(a).vruntime, 100_000_000 - SLICE_NS);
    }

    #[test]
    fn wakeup_preemption_decision() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let core = CoreId(0);
        let running = new_task(&mut k, t0);
        k.tasks[running.index()].vruntime = 10_000_000;
        k.enqueue(t0, running, core);
        k.pick_next(t0, core);
        // A much "younger" task preempts...
        let young = new_task(&mut k, t0);
        k.tasks[young.index()].vruntime = 1_000_000;
        assert!(k.enqueue(t0, young, core));
        // ...but a near-equal one does not.
        let close = new_task(&mut k, t0);
        k.tasks[close.index()].vruntime = 9_800_000;
        assert!(!k.enqueue(t0, close, core));
    }

    #[test]
    fn tick_preempt_requires_waiters_and_elapsed_slice() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let core = CoreId(0);
        let a = new_task(&mut k, t0);
        k.enqueue(t0, a, core);
        k.pick_next(t0, core);
        assert!(
            !k.tick_preempt_due(Time::from_millis(10), core),
            "no waiter"
        );
        let b = new_task(&mut k, t0);
        k.enqueue(t0, b, core);
        assert!(
            !k.tick_preempt_due(Time::from_millis(3), core),
            "slice not used"
        );
        assert!(k.tick_preempt_due(Time::from_millis(4), core));
    }

    #[test]
    fn attachment_semantics() {
        let mut k = kernel();
        let t = new_task(&mut k, Time::ZERO);
        let ts = k.task_mut(t);
        // Never ran: no attachment.
        assert_eq!(ts.attached_core(), None);
        // Ran once on core 5: not yet attached (history of 2 required).
        ts.push_core_history(CoreId(5));
        assert_eq!(ts.attached_core(), None);
        // Ran there twice: attached.
        ts.push_core_history(CoreId(5));
        assert_eq!(ts.attached_core(), Some(CoreId(5)));
        // Migrated: attachment broken until the history re-stabilizes.
        ts.push_core_history(CoreId(6));
        assert_eq!(ts.attached_core(), None);
        ts.push_core_history(CoreId(6));
        assert_eq!(ts.attached_core(), Some(CoreId(6)));
    }

    #[test]
    fn core_load_decays_after_use() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let core = CoreId(0);
        let a = new_task(&mut k, t0);
        k.enqueue(t0, a, core);
        k.pick_next(t0, core);
        let t1 = Time::from_millis(64);
        k.put_curr(t1, core);
        let just_after = k.core_load(t1, core);
        assert!(just_after > 0.5, "{just_after}");
        let much_later = k.core_load(t1 + 320 * 1_000_000, core);
        assert!(much_later < 0.01, "{much_later}");
    }

    #[test]
    fn steal_takes_highest_vruntime() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let core = CoreId(0);
        let a = new_task(&mut k, t0);
        let b = new_task(&mut k, t0);
        k.tasks[a.index()].vruntime = 10;
        k.tasks[b.index()].vruntime = 20;
        k.enqueue(t0, a, core);
        k.enqueue(t0, b, core);
        assert_eq!(k.steal_queued(core), Some(b));
        assert_eq!(k.steal_queued(core), Some(a));
        assert_eq!(k.steal_queued(core), None);
    }

    #[test]
    fn socket_stats_are_stale_between_refreshes() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let stats = k.socket_stats(t0);
        assert_eq!(stats[0].idle, 32);
        // Occupy a core; within the refresh window the cache still claims
        // 32 idle cores.
        let a = new_task(&mut k, t0);
        k.enqueue(t0, a, CoreId(0));
        k.pick_next(t0, CoreId(0));
        let stats = k.socket_stats(t0 + 100_000);
        assert_eq!(stats[0].idle, 32, "stale view expected");
        let stats = k.socket_stats(t0 + GROUP_STATS_REFRESH_NS);
        assert_eq!(stats[0].idle, 31, "refreshed view expected");
    }

    #[test]
    fn busiest_core_respects_min_queued() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let a = new_task(&mut k, t0);
        let b = new_task(&mut k, t0);
        let c = new_task(&mut k, t0);
        k.enqueue(t0, a, CoreId(4));
        k.enqueue(t0, b, CoreId(4));
        k.enqueue(t0, c, CoreId(9));
        let all = k.topo.all_cores().clone();
        assert_eq!(k.busiest_core_in(&all, 2), Some(CoreId(4)));
        assert_eq!(k.busiest_core_in(&all, 3), None);
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn double_enqueue_panics() {
        let mut k = kernel();
        let a = new_task(&mut k, Time::ZERO);
        k.enqueue(Time::ZERO, a, CoreId(0));
        k.enqueue(Time::ZERO, a, CoreId(0));
    }

    /// Recomputes the three core indexes from scratch and compares with
    /// the incrementally maintained ones.
    fn assert_indexes_consistent(k: &KernelState) {
        for (i, c) in k.cores.iter().enumerate() {
            let core = CoreId::from_index(i);
            let on = k.is_online(core);
            assert_eq!(
                k.idle_cores().contains(core),
                on && c.is_idle(),
                "idle[{i}]"
            );
            assert_eq!(
                k.idle_unreserved_cores().contains(core),
                on && c.is_idle() && c.pending == 0,
                "idle_free[{i}]"
            );
            assert_eq!(
                k.queued_cores().contains(core),
                on && !c.rq.is_empty(),
                "queued[{i}]"
            );
        }
    }

    #[test]
    fn offline_cores_leave_every_index() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let core = CoreId(7);
        assert!(k.is_online(core));
        k.set_online(core, false);
        assert_indexes_consistent(&k);
        assert!(!k.idle_cores().contains(core));
        assert!(!k.idle_unreserved_cores().contains(core));
        assert!(!k.online_cores().contains(core));
        // Mechanical mutations still work while offline (the engine
        // drains displaced tasks through them) but never re-index the
        // core as available.
        let a = new_task(&mut k, t0);
        k.enqueue(t0, a, core);
        assert!(!k.queued_cores().contains(core));
        assert_eq!(k.steal_queued(core), Some(a));
        k.set_online(core, true);
        assert_indexes_consistent(&k);
        assert!(k.idle_cores().contains(core));
    }

    #[test]
    fn socket_stats_and_busiest_skip_offline_cores() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        k.set_online(CoreId(3), false);
        let stats = k.socket_stats(t0);
        assert_eq!(stats[0].idle, 31, "offline core is not idle capacity");
        let all = k.topo.all_cores().clone();
        let a = new_task(&mut k, t0);
        k.enqueue(t0, a, CoreId(3));
        assert_eq!(
            k.busiest_core_in(&all, 0),
            Some(CoreId(0)),
            "min_queued=0 scan must skip the offline core"
        );
        assert_eq!(k.busiest_core_in(&all, 1), None);
    }

    #[test]
    fn core_indexes_track_every_mutation() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        assert_eq!(k.idle_cores().len(), 64);
        assert_eq!(k.idle_unreserved_cores().len(), 64);
        assert!(k.queued_cores().is_empty());

        let a = new_task(&mut k, t0);
        let b = new_task(&mut k, t0);
        let c = new_task(&mut k, t0);
        let core = CoreId(5);

        k.begin_placement(core);
        assert_indexes_consistent(&k);
        assert!(k.idle_cores().contains(core));
        assert!(!k.idle_unreserved_cores().contains(core));

        k.commit_placement(t0, a, core);
        assert_indexes_consistent(&k);
        assert!(!k.idle_cores().contains(core));
        assert!(k.queued_cores().contains(core));

        k.pick_next(t0, core);
        assert_indexes_consistent(&k);
        assert!(!k.queued_cores().contains(core), "rq drained");

        k.enqueue(t0, b, core);
        k.enqueue(t0, c, core);
        assert_indexes_consistent(&k);

        assert_eq!(k.steal_queued(core), Some(c));
        assert!(k.remove_queued(b, core));
        assert_indexes_consistent(&k);

        let t1 = Time::from_millis(1);
        k.put_curr(t1, core);
        assert_indexes_consistent(&k);
        assert!(k.idle_cores().contains(core));
        assert!(k.idle_unreserved_cores().contains(core));

        k.begin_placement(core);
        k.cancel_placement(core);
        assert_indexes_consistent(&k);
        assert!(k.idle_unreserved_cores().contains(core));

        // Requeue path (preemption hand-off).
        k.enqueue(t1, a, core);
        k.pick_next(t1, core);
        let prev = k.put_curr(t1, core);
        k.requeue(t1, prev, core);
        assert_indexes_consistent(&k);
        assert!(k.queued_cores().contains(core));
    }

    #[test]
    fn domain_stats_refine_socket_stats() {
        use nest_topology::NumaKind;
        // 2 sockets × 2 CCX × 4 phys, SMT-1: CCXs are cores 0-3, 4-7,
        // 8-11, 12-15.
        let mut k = KernelState::new(Rc::new(Topology::new(presets::synth(
            2,
            2,
            4,
            1,
            NumaKind::Flat,
        ))));
        let t0 = Time::ZERO;
        let a = new_task(&mut k, t0);
        k.enqueue(t0, a, CoreId(5));
        k.pick_next(t0, CoreId(5));
        k.invalidate_socket_stats();
        let domains = k.domain_stats(t0).to_vec();
        assert_eq!(domains.len(), 4);
        assert_eq!(domains[0].idle, 4);
        assert_eq!(domains[1].idle, 3, "core 5 is busy in CCX 1");
        assert_eq!(domains[2].idle, 4);
        assert_eq!(domains[3].idle, 4);
        // Per-socket counts are the sum of their CCXs.
        let sockets = k.socket_stats(t0).to_vec();
        assert_eq!(sockets[0].idle, domains[0].idle + domains[1].idle);
        assert_eq!(sockets[1].idle, domains[2].idle + domains[3].idle);
        assert_eq!(
            sockets[0].load.to_bits(),
            (domains[0].load + domains[1].load).to_bits()
        );
    }

    #[test]
    fn domain_stats_mirror_sockets_on_degenerate_trees() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        let a = new_task(&mut k, t0);
        k.enqueue(t0, a, CoreId(2));
        let sockets = k.socket_stats(t0).to_vec();
        let domains = k.domain_stats(t0).to_vec();
        assert_eq!(sockets.len(), domains.len());
        for (s, d) in sockets.iter().zip(&domains) {
            assert_eq!(s.idle, d.idle);
            assert_eq!(s.load.to_bits(), d.load.to_bits());
        }
    }

    #[test]
    fn busiest_core_fast_path_matches_full_scan() {
        let mut k = kernel();
        let t0 = Time::ZERO;
        for (core, n) in [(3u32, 2usize), (9, 3), (40, 3)] {
            for _ in 0..n {
                let t = new_task(&mut k, t0);
                k.enqueue(t0, t, CoreId(core));
            }
        }
        let all = k.topo.all_cores().clone();
        // Ties (9 and 40 both have 3 queued) resolve to the lower core.
        assert_eq!(k.busiest_core_in(&all, 1), Some(CoreId(9)));
        assert_eq!(k.busiest_core_in(&all, 3), Some(CoreId(9)));
        assert_eq!(k.busiest_core_in(&all, 4), None);
        // min_queued == 0 exercises the full-scan path; same answer.
        assert_eq!(k.busiest_core_in(&all, 0), Some(CoreId(9)));
    }
}
