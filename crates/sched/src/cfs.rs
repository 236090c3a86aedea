//! The CFS baseline: Linux v5.9's placement heuristics as §2.1 describes
//! them.
//!
//! **Fork** descends the scheduling domains from the top: choose the
//! idlest socket from *cached* (hence slightly stale) group statistics,
//! then the best core within it, scanning in numerical order from the
//! forking core and preferring, among idle cores, the one with the lowest
//! decaying load — which disfavors recently used (warm) cores and causes
//! the dispersal the paper's Figure 2(a) shows.
//!
//! **Wakeup** considers only the target LLC domain: first a fully idle
//! SMT pair, then a budget-limited scan for any idle core, then the
//! target's hyperthread, else the target itself. It is *not* work
//! conserving; Nest optionally extends the search to all domains (§3.4).
//!
//! **Load balancing** is shared by all policies: newidle pulls from the
//! busiest core of the same LLC domain, and periodic ticks pull first
//! within the domain, at a longer period across the machine — resolving
//! overloads only gradually (§5.4).
//!
//! The "die" of the paper's Table 2 machines is both the socket and the
//! last-level cache; on those degenerate trees every domain-scoped scan
//! below visits exactly the cores (in exactly the order) the socket scan
//! did. On multi-CCX machines the scans narrow to the CCX — Linux's
//! `sd_llc` — and the fork descent gains a middle level (socket → CCX →
//! core), so no single decision walks more than one CCX plus the
//! per-domain statistics vector.

use nest_simcore::{profile, CcxId, CoreId, PlacementPath, TaskId};
use nest_topology::CpuSet;

use crate::kernel::KernelState;
use crate::policy::{IdleAction, IdleReason, Placement, SchedEnv, SchedPolicy};

/// Tunables for the CFS heuristics.
#[derive(Clone, Debug)]
pub struct CfsParams {
    /// Maximum cores examined by the wakeup idle scan once no fully idle
    /// SMT pair exists (`select_idle_cpu`'s bounded effort).
    pub wakeup_scan_budget: usize,
    /// Ticks between same-die periodic balance attempts by idle cores.
    pub die_balance_ticks: u64,
    /// Ticks between machine-wide periodic balance attempts by idle cores.
    pub numa_balance_ticks: u64,
}

impl Default for CfsParams {
    fn default() -> CfsParams {
        CfsParams {
            wakeup_scan_budget: 8,
            die_balance_ticks: 4,
            numa_balance_ticks: 32,
        }
    }
}

/// The CFS policy.
pub struct Cfs {
    params: CfsParams,
}

impl Cfs {
    /// Creates CFS with default parameters.
    pub fn new() -> Cfs {
        Cfs {
            params: CfsParams::default(),
        }
    }

    /// Creates CFS with explicit parameters.
    pub fn with_params(params: CfsParams) -> Cfs {
        Cfs { params }
    }
}

impl Default for Cfs {
    fn default() -> Cfs {
        Cfs::new()
    }
}

/// `true` if `core` can receive a placement: online, idle, and (when
/// `respect_pending`) no in-flight placement targets it. CFS passes
/// `false` — ignoring in-flight placements is exactly the §3.4 race — and
/// Nest passes `true` (its compare-and-swap reservation flag).
pub fn idle_ok(k: &KernelState, core: CoreId, respect_pending: bool) -> bool {
    let c = k.core(core);
    k.is_online(core) && c.is_idle() && (!respect_pending || c.pending == 0)
}

/// CFS fork-time selection (`find_idlest_group`/`find_idlest_cpu`).
pub fn select_fork(
    k: &mut KernelState,
    env: &mut SchedEnv<'_>,
    parent_core: CoreId,
    respect_pending: bool,
) -> CoreId {
    let _span = profile::span(profile::Subsystem::CfsFork);
    // Top level: idlest socket from the (stale) cached statistics; ties
    // favor the local socket, as Linux prefers not to migrate at fork.
    let topo = env.topo;
    let home = topo.socket_of(parent_core);
    // Sockets with no online core cannot host anything; under hotplug a
    // fully dead home socket forfeits its tie-breaking privilege.
    let online_socks: u64 = topo
        .sockets()
        .filter(|&s| topo.socket_span(s).intersects(k.online_cores()))
        .fold(0, |m, s| m | 1 << s.index());
    let has_online = |s: nest_simcore::SocketId| online_socks & (1 << s.index()) != 0;
    let stats = k.socket_stats(env.now);
    let mut best = if has_online(home) {
        home
    } else {
        topo.sockets()
            .find(|&s| has_online(s))
            .expect("at least one core online")
    };
    let mut best_key = (stats[best.index()].idle, -stats[best.index()].load);
    for s in topo.sockets() {
        if !has_online(s) {
            continue;
        }
        let key = (stats[s.index()].idle, -stats[s.index()].load);
        if key > best_key {
            best = s;
            best_key = key;
        }
    }
    if !topo.has_subsocket_domains() {
        return select_idlest_in(k, env, topo.socket_span(best), parent_core, respect_pending);
    }
    // Middle level (multi-CCX machines only): the idlest CCX within the
    // chosen socket, from the same stale cache and with the same
    // `(idle, -load)` key; the parent's CCX keeps the home tie-breaking
    // privilege when it lies in the chosen socket. The final core scan
    // then covers one CCX, not a whole socket.
    let dstats = k.domain_stats(env.now).to_vec();
    let ccx_online = |cx: CcxId| topo.ccx_span(cx).intersects(k.online_cores());
    let home_ccx = topo.ccx_of(parent_core);
    let mut best_ccx = if topo.domains().socket_of_ccx(home_ccx) == best && ccx_online(home_ccx) {
        home_ccx
    } else {
        topo.domains()
            .ccxs_in_socket(best)
            .find(|&cx| ccx_online(cx))
            .expect("chosen socket has an online core")
    };
    let mut best_ccx_key = (
        dstats[best_ccx.index()].idle,
        -dstats[best_ccx.index()].load,
    );
    for cx in topo.domains().ccxs_in_socket(best) {
        if !ccx_online(cx) {
            continue;
        }
        let key = (dstats[cx.index()].idle, -dstats[cx.index()].load);
        if key > best_ccx_key {
            best_ccx = cx;
            best_ccx_key = key;
        }
    }
    select_idlest_in(
        k,
        env,
        topo.ccx_span(best_ccx),
        parent_core,
        respect_pending,
    )
}

/// Load differences below this margin are ties (Linux compares group and
/// core loads against imbalance thresholds, not exactly). Ties resolve to
/// the earlier core in scan order, so the fork search cycles within a
/// bounded set of cores whose load has decayed — the "pattern repeats"
/// behaviour of Figure 2(a) — instead of walking the whole machine.
const LOAD_EPSILON: f64 = 0.18;

/// Picks the best core within a span: among idle cores, prefer those
/// whose hyperthread is also idle, then lowest decaying load (long-idle
/// beats recently used, up to [`LOAD_EPSILON`]), scanning numerically
/// from `from`. Without idle cores, the least-loaded core wins.
fn select_idlest_in(
    k: &mut KernelState,
    env: &mut SchedEnv<'_>,
    span: &CpuSet,
    from: CoreId,
    respect_pending: bool,
) -> CoreId {
    let mut best_pair: Option<(f64, CoreId)> = None;
    let mut best_idle: Option<(f64, CoreId)> = None;
    let better =
        |load: f64, best: &Option<(f64, CoreId)>| best.is_none_or(|(l, _)| load + LOAD_EPSILON < l);
    // Only idle cores can win the pair/idle tiers, so the scan walks the
    // kernel's idle-core bitset intersected with the span instead of
    // testing `idle_ok` core by core — same cores, same order.
    let idle_set = idle_set(k, respect_pending);
    for core in span.iter_wrapping_from_masked(idle_set, from) {
        let load = k.core_load(env.now, core);
        let sib = env.topo.sibling(core);
        if idle_ok(k, sib, respect_pending) && better(load, &best_pair) {
            best_pair = Some((load, core));
        }
        if better(load, &best_idle) {
            best_idle = Some((load, core));
        }
    }
    if let Some((_, c)) = best_pair.or(best_idle) {
        return c;
    }
    // No idle core in the span: fall back to the least-loaded online
    // core. The naive scan computed this bound alongside the idle tiers;
    // splitting it out keeps the common case (idle cores exist) off the
    // full span.
    let mut best_any: Option<(f64, CoreId)> = None;
    for core in span.iter_wrapping_from(from) {
        if !k.is_online(core) {
            continue;
        }
        let any_key = k.core_load(env.now, core) + k.core(core).nr_running() as f64;
        if better(any_key, &best_any) {
            best_any = Some((any_key, core));
        }
    }
    best_any
        .map(|(_, c)| c)
        .or_else(|| k.online_cores().first())
        .expect("at least one core online")
}

/// The kernel idle-core index matching `idle_ok(_, _, respect_pending)`:
/// membership in the returned set is equivalent to the predicate.
fn idle_set(k: &KernelState, respect_pending: bool) -> &CpuSet {
    if respect_pending {
        k.idle_unreserved_cores()
    } else {
        k.idle_cores()
    }
}

/// CFS wakeup-time selection (`select_task_rq_fair` +
/// `select_idle_sibling`). With `work_conserving` (Nest's extension), the
/// idle search continues onto the other dies when the target die has no
/// idle core.
pub fn select_wakeup(
    k: &mut KernelState,
    env: &mut SchedEnv<'_>,
    task: TaskId,
    waker_core: CoreId,
    params: &CfsParams,
    work_conserving: bool,
    respect_pending: bool,
) -> CoreId {
    let _span = profile::span(profile::Subsystem::CfsWakeup);
    let topo = env.topo;
    let prev = k.task(task).prev_core.unwrap_or(waker_core);
    // Under hotplug, an offlined previous core no longer anchors the
    // search; fall back to the waker's side.
    let prev = if k.is_online(prev) { prev } else { waker_core };
    // Wake-affine: prefer the previous core's LLC domain, unless it is
    // saturated while the waker's has idle capacity. "Has an idle core"
    // is one bitset intersection against the kernel's idle index.
    let prev_llc = topo.ccx_of(prev);
    let waker_llc = topo.ccx_of(waker_core);
    let target = if prev_llc != waker_llc {
        let prev_idle = topo
            .ccx_span(prev_llc)
            .intersects(idle_set(k, respect_pending));
        let waker_idle = topo
            .ccx_span(waker_llc)
            .intersects(idle_set(k, respect_pending));
        if !prev_idle && waker_idle {
            waker_core
        } else {
            prev
        }
    } else {
        prev
    };

    if idle_ok(k, target, respect_pending) {
        return target;
    }
    let die = topo.ccx_span(topo.ccx_of(target));
    if let Some(core) = search_die_for_idle(
        k,
        env,
        die,
        target,
        Some(params.wakeup_scan_budget),
        respect_pending,
    ) {
        return core;
    }
    if work_conserving {
        // Nest §3.4: examine all other LLC domains, unbounded, nearest
        // (by NUMA distance) first.
        for &cx in topo.ccxs_nearest_first(target) {
            if cx == topo.ccx_of(target) {
                continue;
            }
            let span = topo.ccx_span(cx);
            if let Some(core) = search_die_for_idle(k, env, span, target, None, respect_pending) {
                return core;
            }
        }
    }
    let sib = topo.sibling(target);
    if idle_ok(k, sib, respect_pending) {
        return sib;
    }
    if k.is_online(target) {
        return target;
    }
    // Hotplug last resort: both the anchor and its sibling are gone;
    // queue on the lowest-numbered online core.
    k.online_cores().first().expect("at least one core online")
}

/// Searches one die: fully idle SMT pair first (full scan), then any idle
/// core under the scan budget (`None` = unbounded).
fn search_die_for_idle(
    k: &mut KernelState,
    env: &mut SchedEnv<'_>,
    die: &CpuSet,
    from: CoreId,
    budget: Option<usize>,
    respect_pending: bool,
) -> Option<CoreId> {
    let idle = idle_set(k, respect_pending);
    // Dies with no idle core at all — the common case under load — cost
    // one bitset intersection instead of two failed scans.
    if !die.intersects(idle) {
        return None;
    }
    // select_idle_core: a core whose hyperthread is idle too. The masked
    // iterator visits exactly the idle die members, in the same wrapping
    // order the naive filter scan produced.
    for core in die.iter_wrapping_from_masked(idle, from) {
        if idle_ok(k, env.topo.sibling(core), respect_pending) {
            return Some(core);
        }
    }
    // select_idle_cpu: bounded scan for any idle core. The budget counts
    // *visited* die members, idle or not (`select_idle_cpu`'s cost model),
    // so the bounded pass must walk the raw span.
    match budget {
        Some(limit) => die
            .iter_wrapping_from(from)
            .take(limit)
            .find(|&core| idle_ok(k, core, respect_pending)),
        None => die.iter_wrapping_from_masked(idle, from).next(),
    }
}

/// Newidle balancing: a core that just went idle pulls one queued task
/// from the busiest core of its LLC domain.
pub fn newidle_pull_source(
    k: &mut KernelState,
    env: &mut SchedEnv<'_>,
    core: CoreId,
) -> Option<CoreId> {
    let _span = profile::span(profile::Subsystem::LoadBalance);
    let die = env.topo.ccx_span(env.topo.ccx_of(core));
    let src = k.busiest_core_in(die, 1)?;
    (src != core).then_some(src)
}

/// Periodic balancing from an idle core's tick: same-die pulls every
/// `die_balance_ticks`, machine-wide pulls every `numa_balance_ticks`
/// (staggered by core number).
pub fn periodic_pull_source(
    k: &mut KernelState,
    env: &mut SchedEnv<'_>,
    core: CoreId,
    params: &CfsParams,
) -> Option<CoreId> {
    if !k.core(core).is_idle() {
        return None;
    }
    let _span = profile::span(profile::Subsystem::LoadBalance);
    let topo = env.topo;
    let tick = env.now.tick_index() + core.index() as u64;
    if tick.is_multiple_of(params.numa_balance_ticks) {
        if let Some(src) = k.busiest_core_in(topo.all_cores(), 1) {
            if src != core {
                return Some(src);
            }
        }
    }
    if tick.is_multiple_of(params.die_balance_ticks) {
        let die = topo.ccx_span(topo.ccx_of(core));
        if let Some(src) = k.busiest_core_in(die, 1) {
            if src != core {
                return Some(src);
            }
        }
    }
    None
}

impl SchedPolicy for Cfs {
    fn name(&self) -> &'static str {
        "CFS"
    }

    fn select_core_fork(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        _task: TaskId,
        parent_core: CoreId,
    ) -> Placement {
        let core = select_fork(k, env, parent_core, false);
        Placement::simple(core, PlacementPath::CfsFork)
    }

    fn select_core_wakeup(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        task: TaskId,
        waker_core: CoreId,
    ) -> Placement {
        let core = select_wakeup(k, env, task, waker_core, &self.params, false, false);
        Placement::simple(core, PlacementPath::CfsWakeup)
    }

    fn on_core_idle(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        core: CoreId,
        _reason: IdleReason,
    ) -> IdleAction {
        IdleAction {
            pull_from: newidle_pull_source(k, env, core),
            spin_ticks: 0,
        }
    }

    fn on_tick(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        core: CoreId,
    ) -> Option<CoreId> {
        periodic_pull_source(k, env, core, &self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    use nest_freq::{FreqModel, Governor};
    use nest_simcore::{SimRng, Time};
    use nest_topology::{presets, Topology};

    struct Fixture {
        k: KernelState,
        topo: Rc<Topology>,
        freq: FreqModel,
        rng: SimRng,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture::with_spec(presets::xeon_6130(2))
        }

        fn with_spec(spec: nest_topology::MachineSpec) -> Fixture {
            let topo = Rc::new(Topology::new(spec.clone()));
            Fixture {
                k: KernelState::new(Rc::clone(&topo)),
                freq: FreqModel::new(&spec, Governor::Schedutil),
                topo,
                rng: SimRng::new(1),
            }
        }

        // Kept for fixture parity with the nest/smove test modules.
        #[allow(dead_code)]
        fn env(&mut self, now: Time) -> SchedEnv<'_> {
            SchedEnv {
                now,
                topo: &self.topo,
                freq: &self.freq,
                rng: &mut self.rng,
            }
        }

        fn spawn(&mut self, now: Time) -> TaskId {
            let id = TaskId::from_index(self.k.tasks.len());
            self.k.register_task(id, now);
            id
        }

        /// Puts a task running on `core`.
        fn occupy(&mut self, now: Time, core: CoreId) -> TaskId {
            let t = self.spawn(now);
            self.k.enqueue(now, t, core);
            self.k.pick_next(now, core);
            t
        }
    }

    #[test]
    fn fork_on_empty_machine_prefers_local_socket() {
        let mut f = Fixture::new();
        let t = f.spawn(Time::ZERO);
        let mut env = SchedEnv {
            now: Time::ZERO,
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        let mut cfs = Cfs::new();
        let p = cfs.select_core_fork(&mut f.k, &mut env, t, CoreId(40));
        assert_eq!(env.topo.socket_of(p.core).index(), 1);
        assert_eq!(p.path, PlacementPath::CfsFork);
    }

    #[test]
    fn fork_prefers_long_idle_over_recently_used() {
        let mut f = Fixture::new();
        // Run a task on core 1 for a while, then free it: core 1 keeps
        // residual load.
        let t0 = Time::ZERO;
        f.occupy(t0, CoreId(1));
        let t1 = Time::from_millis(64);
        f.k.put_curr(t1, CoreId(1));
        f.k.invalidate_socket_stats();
        let forker = f.occupy(t1, CoreId(0));
        let _ = forker;
        let child = f.spawn(t1);
        let mut env = SchedEnv {
            now: t1,
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        let core = {
            let mut cfs = Cfs::new();
            cfs.select_core_fork(&mut f.k, &mut env, child, CoreId(0))
                .core
        };
        // Core 1 was just used (still warm); CFS skips it for a colder one.
        assert_ne!(core, CoreId(1), "CFS should disfavor the warm core");
        assert_ne!(core, CoreId(0), "parent core is busy");
    }

    #[test]
    fn fork_stale_stats_keep_choosing_local_socket() {
        let mut f = Fixture::new();
        let t0 = Time::ZERO;
        // Prime the cache.
        f.k.socket_stats(t0);
        // Fill socket 0 entirely (32 threads busy).
        for c in 0..32 {
            f.occupy(t0, CoreId(c));
        }
        let child = f.spawn(t0);
        let mut env = SchedEnv {
            now: t0 + 100_000, // within the 1 ms staleness window
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        let mut cfs = Cfs::new();
        let p = cfs.select_core_fork(&mut f.k, &mut env, child, CoreId(0));
        // The stale cache still sees socket 0 as idle as socket 1, so the
        // local socket wins the tie despite being full.
        assert_eq!(env.topo.socket_of(p.core).index(), 0);
    }

    #[test]
    fn wakeup_prefers_previous_core_when_idle() {
        let mut f = Fixture::new();
        let t0 = Time::ZERO;
        let t = f.spawn(t0);
        f.k.task_mut(t).prev_core = Some(CoreId(7));
        let mut env = SchedEnv {
            now: t0,
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        let mut cfs = Cfs::new();
        let p = cfs.select_core_wakeup(&mut f.k, &mut env, t, CoreId(0));
        assert_eq!(p.core, CoreId(7));
    }

    #[test]
    fn wakeup_is_not_work_conserving_across_dies() {
        let mut f = Fixture::new();
        let t0 = Time::ZERO;
        // Fill socket 0 completely; socket 1 fully idle.
        for c in 0..32 {
            f.occupy(t0, CoreId(c));
        }
        let t = f.spawn(t0);
        f.k.task_mut(t).prev_core = Some(CoreId(5));
        let params = CfsParams::default();
        let mut env = SchedEnv {
            now: t0,
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        // Plain CFS with the waker on the same (full) die: stays there.
        let core = select_wakeup(&mut f.k, &mut env, t, CoreId(6), &params, false, false);
        assert_eq!(env.topo.socket_of(core).index(), 0, "CFS stacked the task");
        // Work-conserving extension escapes to socket 1.
        let core = select_wakeup(&mut f.k, &mut env, t, CoreId(6), &params, true, false);
        assert_eq!(env.topo.socket_of(core).index(), 1);
    }

    #[test]
    fn wakeup_prefers_fully_idle_smt_pair() {
        let mut f = Fixture::new();
        let t0 = Time::ZERO;
        // Occupy prev core 0 and thread 17 (sibling of 1), leaving core 1
        // half-busy and core 2 fully idle.
        f.occupy(t0, CoreId(0));
        f.occupy(t0, CoreId(17));
        let t = f.spawn(t0);
        f.k.task_mut(t).prev_core = Some(CoreId(0));
        let params = CfsParams::default();
        let mut env = SchedEnv {
            now: t0,
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        let core = select_wakeup(&mut f.k, &mut env, t, CoreId(0), &params, false, false);
        assert_eq!(core, CoreId(2), "expected the fully idle pair after 0/1");
    }

    #[test]
    fn wakeup_respect_pending_skips_reserved_core() {
        let mut f = Fixture::new();
        let t0 = Time::ZERO;
        let t = f.spawn(t0);
        f.k.task_mut(t).prev_core = Some(CoreId(3));
        f.k.begin_placement(CoreId(3));
        let params = CfsParams::default();
        let mut env = SchedEnv {
            now: t0,
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        // CFS happily collides with the pending placement...
        let c = select_wakeup(&mut f.k, &mut env, t, CoreId(3), &params, false, false);
        assert_eq!(c, CoreId(3));
        // ...the reservation-aware path does not.
        let c = select_wakeup(&mut f.k, &mut env, t, CoreId(3), &params, false, true);
        assert_ne!(c, CoreId(3));
    }

    #[test]
    fn newidle_pulls_from_same_die_busiest() {
        let mut f = Fixture::new();
        let t0 = Time::ZERO;
        // Core 4 has a running task and two queued.
        f.occupy(t0, CoreId(4));
        let q1 = f.spawn(t0);
        let q2 = f.spawn(t0);
        f.k.enqueue(t0, q1, CoreId(4));
        f.k.enqueue(t0, q2, CoreId(4));
        let mut env = SchedEnv {
            now: t0,
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        let src = newidle_pull_source(&mut f.k, &mut env, CoreId(9));
        assert_eq!(src, Some(CoreId(4)));
        // A core on the other socket does not see it via newidle.
        let src = newidle_pull_source(&mut f.k, &mut env, CoreId(40));
        assert_eq!(src, None);
    }

    /// Naive reference implementations of the scan paths that were
    /// rewritten on top of the kernel's idle/queued core bitsets. Each is
    /// a direct filter scan over the raw span — the shape the code had
    /// before the indexes — kept here as the oracle for the seeded
    /// equivalence trace below.
    mod naive {
        use super::*;

        /// `select_idlest_in` as one full-span filter scan.
        pub fn select_idlest_in(
            k: &KernelState,
            env: &SchedEnv<'_>,
            span: &CpuSet,
            from: CoreId,
            respect_pending: bool,
        ) -> CoreId {
            let better = |load: f64, best: &Option<(f64, CoreId)>| {
                best.is_none_or(|(l, _)| load + LOAD_EPSILON < l)
            };
            let mut best_pair: Option<(f64, CoreId)> = None;
            let mut best_idle: Option<(f64, CoreId)> = None;
            let mut best_any: Option<(f64, CoreId)> = None;
            for core in span.iter_wrapping_from(from) {
                if !k.is_online(core) {
                    continue;
                }
                let load = k.core_load(env.now, core);
                let any_key = load + k.core(core).nr_running() as f64;
                if better(any_key, &best_any) {
                    best_any = Some((any_key, core));
                }
                if !idle_ok(k, core, respect_pending) {
                    continue;
                }
                if idle_ok(k, env.topo.sibling(core), respect_pending) && better(load, &best_pair) {
                    best_pair = Some((load, core));
                }
                if better(load, &best_idle) {
                    best_idle = Some((load, core));
                }
            }
            best_pair
                .or(best_idle)
                .or(best_any)
                .map(|(_, c)| c)
                .or_else(|| k.online_cores().first())
                .expect("at least one core online")
        }

        /// `search_die_for_idle` as two raw-span filter scans.
        pub fn search_die_for_idle(
            k: &KernelState,
            env: &SchedEnv<'_>,
            die: &CpuSet,
            from: CoreId,
            budget: Option<usize>,
            respect_pending: bool,
        ) -> Option<CoreId> {
            for core in die.iter_wrapping_from(from) {
                if idle_ok(k, core, respect_pending)
                    && idle_ok(k, env.topo.sibling(core), respect_pending)
                {
                    return Some(core);
                }
            }
            match budget {
                Some(limit) => die
                    .iter_wrapping_from(from)
                    .take(limit)
                    .find(|&core| idle_ok(k, core, respect_pending)),
                None => die
                    .iter_wrapping_from(from)
                    .find(|&core| idle_ok(k, core, respect_pending)),
            }
        }

        /// `select_wakeup` built from the naive pieces, with the
        /// wake-affine "die has an idle core" checks as filter scans.
        pub fn select_wakeup(
            k: &KernelState,
            env: &SchedEnv<'_>,
            task: TaskId,
            waker_core: CoreId,
            params: &CfsParams,
            work_conserving: bool,
            respect_pending: bool,
        ) -> CoreId {
            let topo = env.topo;
            let prev = k.task(task).prev_core.unwrap_or(waker_core);
            let prev = if k.is_online(prev) { prev } else { waker_core };
            let has_idle = |cx| {
                topo.ccx_span(cx)
                    .iter()
                    .any(|c| idle_ok(k, c, respect_pending))
            };
            let prev_llc = topo.ccx_of(prev);
            let waker_llc = topo.ccx_of(waker_core);
            let target = if prev_llc != waker_llc && !has_idle(prev_llc) && has_idle(waker_llc) {
                waker_core
            } else {
                prev
            };
            if idle_ok(k, target, respect_pending) {
                return target;
            }
            let die = topo.ccx_span(topo.ccx_of(target));
            if let Some(core) = search_die_for_idle(
                k,
                env,
                die,
                target,
                Some(params.wakeup_scan_budget),
                respect_pending,
            ) {
                return core;
            }
            if work_conserving {
                for &cx in topo.ccxs_nearest_first(target) {
                    if cx == topo.ccx_of(target) {
                        continue;
                    }
                    let span = topo.ccx_span(cx);
                    if let Some(core) =
                        search_die_for_idle(k, env, span, target, None, respect_pending)
                    {
                        return core;
                    }
                }
            }
            let sib = topo.sibling(target);
            if idle_ok(k, sib, respect_pending) {
                return sib;
            }
            if k.is_online(target) {
                return target;
            }
            k.online_cores().first().expect("at least one core online")
        }
    }

    /// Drives a seeded pseudo-random trace of kernel mutations and
    /// checks, at every step, that the bitset-indexed, domain-sharded
    /// scan paths choose exactly the core the naive full-span reference
    /// scans choose — the regression guard for the indexed rewrite
    /// (occupancy, reservations, and queued tasks all vary).
    fn run_indexed_vs_naive_trace(mut f: Fixture, seed: u64, steps: u64) {
        let last = f.topo.n_cores() as u64 - 1;
        let mut rng = SimRng::new(seed);
        let mut busy: Vec<CoreId> = Vec::new();
        let mut reserved: Vec<CoreId> = Vec::new();
        let mut offline: Vec<CoreId> = Vec::new();
        let mut now = Time::ZERO;
        for step in 0..steps {
            now += rng.uniform_u64(10_000, 2_000_000);
            match rng.uniform_u64(0, 99) {
                // Occupy an idle core.
                0..=34 => {
                    let idle: Vec<CoreId> = f.topo.all_cores().iter().collect::<Vec<_>>();
                    let idle: Vec<CoreId> = idle
                        .into_iter()
                        .filter(|&c| f.k.is_online(c) && f.k.core(c).is_idle())
                        .collect();
                    if !idle.is_empty() {
                        let c = idle[rng.uniform_u64(0, idle.len() as u64 - 1) as usize];
                        let t = f.spawn(now);
                        f.k.enqueue(now, t, c);
                        f.k.pick_next(now, c);
                        busy.push(c);
                    }
                }
                // Free a busy core (the task blocks and is dropped).
                35..=64 => {
                    if !busy.is_empty() {
                        let i = rng.uniform_u64(0, busy.len() as u64 - 1) as usize;
                        let c = busy.swap_remove(i);
                        f.k.put_curr(now, c);
                    }
                }
                // Queue an extra (not running) task on a busy core.
                65..=79 => {
                    if !busy.is_empty() {
                        let i = rng.uniform_u64(0, busy.len() as u64 - 1) as usize;
                        let t = f.spawn(now);
                        f.k.enqueue(now, t, busy[i]);
                    }
                }
                // Reserve a core (in-flight placement).
                80..=84 => {
                    let c = CoreId(rng.uniform_u64(0, last) as u32);
                    f.k.begin_placement(c);
                    reserved.push(c);
                }
                // Release a reservation.
                85..=89 => {
                    if !reserved.is_empty() {
                        let i = rng.uniform_u64(0, reserved.len() as u64 - 1) as usize;
                        f.k.cancel_placement(reserved.swap_remove(i));
                    }
                }
                // Hotplug: offline an idle, unreserved core (what the
                // engine guarantees after draining).
                90..=94 => {
                    let candidates: Vec<CoreId> = f
                        .topo
                        .all_cores()
                        .iter()
                        .filter(|&c| {
                            f.k.is_online(c) && f.k.core(c).is_idle() && f.k.core(c).pending == 0
                        })
                        .collect();
                    if candidates.len() > 8 {
                        let c =
                            candidates[rng.uniform_u64(0, candidates.len() as u64 - 1) as usize];
                        f.k.set_online(c, false);
                        offline.push(c);
                    }
                }
                // Hotplug: bring an offlined core back.
                _ => {
                    if !offline.is_empty() {
                        let i = rng.uniform_u64(0, offline.len() as u64 - 1) as usize;
                        f.k.set_online(offline.swap_remove(i), true);
                    }
                }
            }
            let from = CoreId(rng.uniform_u64(0, last) as u32);
            let waker = CoreId(rng.uniform_u64(0, last) as u32);
            let prev = CoreId(rng.uniform_u64(0, last) as u32);
            let probe = f.spawn(now);
            f.k.task_mut(probe).prev_core = Some(prev);
            let params = CfsParams::default();
            for respect_pending in [false, true] {
                let mut env = SchedEnv {
                    now,
                    topo: &f.topo,
                    freq: &f.freq,
                    rng: &mut f.rng,
                };
                let span = match step % 3 {
                    0 => env.topo.all_cores(),
                    1 => env.topo.socket_span(env.topo.socket_of(from)),
                    _ => env.topo.ccx_span(env.topo.ccx_of(from)),
                };
                let die = env.topo.ccx_span(env.topo.ccx_of(from));
                assert_eq!(
                    select_idlest_in(&mut f.k, &mut env, span, from, respect_pending),
                    naive::select_idlest_in(&f.k, &env, span, from, respect_pending),
                    "select_idlest_in diverged at step {step}"
                );
                for budget in [Some(params.wakeup_scan_budget), None] {
                    assert_eq!(
                        search_die_for_idle(&mut f.k, &mut env, die, from, budget, respect_pending),
                        naive::search_die_for_idle(&f.k, &env, die, from, budget, respect_pending),
                        "search_die_for_idle (budget {budget:?}) diverged at step {step}"
                    );
                }
                for work_conserving in [false, true] {
                    assert_eq!(
                        select_wakeup(
                            &mut f.k,
                            &mut env,
                            probe,
                            waker,
                            &params,
                            work_conserving,
                            respect_pending
                        ),
                        naive::select_wakeup(
                            &f.k,
                            &env,
                            probe,
                            waker,
                            &params,
                            work_conserving,
                            respect_pending
                        ),
                        "select_wakeup (wc {work_conserving}) diverged at step {step}"
                    );
                }
            }
            // The incremental indexes must agree with first-principles
            // per-core state after every mutation.
            for c in f.topo.all_cores().iter() {
                let core = f.k.core(c);
                let on = f.k.is_online(c);
                assert_eq!(f.k.idle_cores().contains(c), on && core.is_idle());
                assert_eq!(
                    f.k.idle_unreserved_cores().contains(c),
                    on && core.is_idle() && core.pending == 0
                );
                assert_eq!(f.k.queued_cores().contains(c), on && !core.rq.is_empty());
            }
        }
    }

    #[test]
    fn indexed_scans_match_naive_reference_on_seeded_trace() {
        let f = Fixture::new();
        assert_eq!(f.topo.n_cores(), 64);
        run_indexed_vs_naive_trace(f, 0x5EED_64C0, 600);
    }

    /// Satellite for the hierarchical-domain refactor: the same oracle on
    /// a 256-core multi-CCX synthetic machine (4 sockets × 4 CCX × 8
    /// phys, SMT-2, ring NUMA), where the CCX-scoped scans genuinely
    /// narrow the search instead of degenerating to socket spans.
    #[test]
    fn indexed_scans_match_naive_reference_on_multi_ccx_machine() {
        use nest_topology::NumaKind;
        let f = Fixture::with_spec(presets::synth(4, 4, 8, 2, NumaKind::Ring));
        assert_eq!(f.topo.n_cores(), 256);
        assert!(f.topo.has_subsocket_domains());
        run_indexed_vs_naive_trace(f, 0x5EED_256C, 250);
    }

    #[test]
    fn periodic_pull_reaches_across_sockets() {
        let mut f = Fixture::new();
        let t0 = Time::from_millis(0);
        f.occupy(t0, CoreId(4));
        let q = f.spawn(t0);
        f.k.enqueue(t0, q, CoreId(4));
        let params = CfsParams::default();
        // Pick a tick where (tick + core) % numa_balance_ticks == 0.
        let now = Time::from_millis(4 * 24); // tick 24; core 40: 64 % 8 == 0
        let mut env = SchedEnv {
            now,
            topo: &f.topo,
            freq: &f.freq,
            rng: &mut f.rng,
        };
        let src = periodic_pull_source(&mut f.k, &mut env, CoreId(40), &params);
        assert_eq!(src, Some(CoreId(4)));
    }
}
