//! The Nest scheduling policy (§3, §4 of the paper).
//!
//! Nest maintains two CPU sets: the **primary nest** (cores in use or
//! recently used, expected to be warm) and the **reserve nest** (cores that
//! left the primary nest, or that CFS chose recently and that have not yet
//! proved their necessity). Core selection searches the primary nest, then
//! the reserve nest, then falls back to CFS — a "block of code placed in
//! front of the core selection function of CFS" (§7).
//!
//! Movements between the nests (Figure 1):
//! * reserve hit → promoted to primary;
//! * CFS fallback → chosen core joins the reserve (if it has room);
//! * primary core unused for `P_remove` ticks → demoted to reserve (or
//!   discarded if full) as soon as a task tries to use it (compaction);
//! * task exits leaving its core idle → immediate demotion to reserve;
//! * impatient task (previous core busy more than `R_impatient` times in a
//!   row) skips the primary search and its chosen core joins the primary
//!   nest directly, growing it.
//!
//! Each mechanism has a feature flag so the §5.2/§5.3 ablation studies can
//! disable it.

use nest_simcore::json::{self, Json};
use nest_simcore::{profile, snap, CcxId, CoreId, PlacementPath, TaskId, TraceEvent, TICK_NS};
use nest_topology::{CpuSet, Topology};

use crate::cfs::{self, idle_ok, CfsParams};
use crate::kernel::KernelState;
use crate::policy::{IdleAction, IdleReason, Placement, SchedEnv, SchedPolicy};

/// The domain a nest is local to.
///
/// The paper's Nest is machine-global: one primary and one reserve nest
/// whose searches range over the whole machine, nearest die first. On
/// multi-CCX machines that lets a nest straddle last-level caches, so the
/// domain-local variant confines patient tasks to the nest members of
/// their own CCX; only *impatient* tasks (previous core busy more than
/// `R_impatient` consecutive wakeups) overflow, searching the other CCXs
/// nearest-by-NUMA-distance first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NestDomain {
    /// One machine-wide nest (the paper's behavior).
    #[default]
    Machine,
    /// Per-CCX nests with impatience-driven overflow to nearby CCXs.
    Ccx,
}

/// Nest tunables (paper Table 1) and ablation feature flags.
#[derive(Clone, Debug)]
pub struct NestParams {
    /// Ticks an idle primary-nest core may stay unused before it becomes
    /// eligible for compaction (Table 1: 2 ticks = 8 ms).
    pub p_remove_ticks: u64,
    /// Maximum size of the reserve nest (Table 1: 5).
    pub r_max: usize,
    /// Consecutive busy-previous-core wakeups tolerated before a task is
    /// labeled impatient (Table 1: 2).
    pub r_impatient: u32,
    /// Maximum idle-spin duration in ticks (Table 1: 2).
    pub s_max_ticks: u32,
    /// Core from which reserve-nest searches start (the core where the
    /// Nest "system call" ran, §3.1); fixed to reduce dispersal.
    pub anchor_core: CoreId,
    /// The domain nests are local to ([`NestDomain::Machine`] is the
    /// paper's machine-global behavior).
    pub domain: NestDomain,
    /// Ablation: use the reserve nest at all.
    pub enable_reserve: bool,
    /// Ablation: apply nest compaction.
    pub enable_compaction: bool,
    /// Ablation: spin on newly idle cores.
    pub enable_spin: bool,
    /// Ablation: favor the attached core (history of 2, §3.3).
    pub enable_attachment: bool,
    /// Ablation: extend CFS wakeup search to all dies (§3.4).
    pub enable_wakeup_work_conservation: bool,
    /// Ablation: the compare-and-swap placement reservation flag (§3.4).
    pub enable_reservation_flag: bool,
}

impl Default for NestParams {
    fn default() -> NestParams {
        NestParams {
            p_remove_ticks: 2,
            r_max: 5,
            r_impatient: 2,
            s_max_ticks: 2,
            anchor_core: CoreId(0),
            domain: NestDomain::Machine,
            enable_reserve: true,
            enable_compaction: true,
            enable_spin: true,
            enable_attachment: true,
            enable_wakeup_work_conservation: true,
            enable_reservation_flag: true,
        }
    }
}

/// One nest (primary or reserve): the full membership set plus a
/// per-CCX decomposition maintained incrementally on every insert and
/// remove. Searches iterate exactly the nest members of one LLC domain
/// instead of filtering the whole span core by core (DESIGN.md §4.2). On
/// the Table 2 machines the CCX *is* the socket, so the decomposition is
/// exactly the per-socket one the code used to keep.
///
/// The per-domain sets are allocated lazily on first mutation (the
/// topology is not available at construction time); until then every
/// domain reads as empty, matching the empty `all` set.
#[derive(Clone, Debug)]
struct NestSet {
    all: CpuSet,
    per_domain: Vec<CpuSet>,
}

impl NestSet {
    fn new(n_cores: usize) -> NestSet {
        NestSet {
            all: CpuSet::new(n_cores),
            per_domain: Vec::new(),
        }
    }

    fn ensure_domains(&mut self, topo: &Topology) {
        if self.per_domain.is_empty() {
            self.per_domain = vec![CpuSet::new(self.all.capacity()); topo.n_ccx()];
        }
    }

    fn insert(&mut self, topo: &Topology, core: CoreId) -> bool {
        self.ensure_domains(topo);
        let added = self.all.insert(core);
        if added {
            self.per_domain[topo.ccx_of(core).index()].insert(core);
        }
        added
    }

    fn remove(&mut self, topo: &Topology, core: CoreId) -> bool {
        let removed = self.all.remove(core);
        if removed {
            self.per_domain[topo.ccx_of(core).index()].remove(core);
        }
        removed
    }

    fn contains(&self, core: CoreId) -> bool {
        self.all.contains(core)
    }

    fn len(&self) -> usize {
        self.all.len()
    }

    /// The members in CCX `cx` (`None` while no mutation has happened
    /// yet, i.e. the nest is empty).
    fn domain_members(&self, cx: CcxId) -> Option<&CpuSet> {
        self.per_domain.get(cx.index())
    }
}

/// The Nest policy.
pub struct Nest {
    params: NestParams,
    cfs_params: CfsParams,
    primary: NestSet,
    reserve: NestSet,
    /// Reusable buffer for one CCX's primary members; the search may
    /// demote cores mid-iteration, so it walks a copy.
    scratch_order: Vec<CoreId>,
    /// Nest-lifecycle trace events queued for the engine, which drains
    /// them via [`SchedPolicy::drain_trace`] after each callback.
    trace: Vec<TraceEvent>,
}

impl Nest {
    /// Creates Nest with the paper's Table 1 parameters.
    pub fn new(n_cores: usize) -> Nest {
        Nest::with_params(n_cores, NestParams::default())
    }

    /// Creates Nest with explicit parameters.
    pub fn with_params(n_cores: usize, params: NestParams) -> Nest {
        Nest {
            params,
            cfs_params: CfsParams::default(),
            primary: NestSet::new(n_cores),
            reserve: NestSet::new(n_cores),
            scratch_order: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Returns the current primary nest (for tests and metrics).
    pub fn primary(&self) -> &CpuSet {
        &self.primary.all
    }

    /// Returns the current reserve nest (for tests and metrics).
    pub fn reserve(&self) -> &CpuSet {
        &self.reserve.all
    }

    /// Returns the parameters.
    pub fn params(&self) -> &NestParams {
        &self.params
    }

    fn respect_pending(&self) -> bool {
        self.params.enable_reservation_flag
    }

    /// Current `(primary, reserve)` sizes, for trace-event payloads.
    fn sizes(&self) -> (u32, u32) {
        (self.primary.len() as u32, self.reserve.len() as u32)
    }

    /// Demotes a primary core to the reserve, or discards it if the
    /// reserve is full (or disabled).
    fn demote(&mut self, topo: &Topology, core: CoreId) {
        self.demote_as(topo, core, false);
    }

    /// Demotion body; `compaction` selects the trace-event flavor.
    fn demote_as(&mut self, topo: &Topology, core: CoreId, compaction: bool) {
        if !self.primary.remove(topo, core) {
            return;
        }
        if self.params.enable_reserve && self.reserve.len() < self.params.r_max {
            self.reserve.insert(topo, core);
        }
        let (primary, reserve) = self.sizes();
        self.trace.push(if compaction {
            TraceEvent::NestCompaction {
                core,
                primary,
                reserve,
            }
        } else {
            TraceEvent::NestShrink {
                core,
                primary,
                reserve,
            }
        });
    }

    /// Promotes a core into the primary nest, removing it from the
    /// reserve if present.
    fn promote(&mut self, topo: &Topology, core: CoreId) {
        self.reserve.remove(topo, core);
        if self.primary.insert(topo, core) {
            let (primary, reserve) = self.sizes();
            self.trace.push(TraceEvent::NestExpand {
                core,
                primary,
                reserve,
            });
        }
    }

    /// `true` if an idle primary core has been unused long enough for
    /// compaction (§3.1).
    fn compaction_eligible(&self, k: &KernelState, env: &SchedEnv<'_>, core: CoreId) -> bool {
        self.params.enable_compaction
            && k.core(core).is_idle()
            && env.now.saturating_since(k.core(core).last_used)
                >= self.params.p_remove_ticks * TICK_NS
    }

    /// Searches the primary nest, applying lazy compaction.
    ///
    /// Search order: same LLC domain as `ref_core` first (wrapping from
    /// `ref_core`), then the other domains nearest-by-distance — iterating
    /// the per-CCX membership sets directly. With `confine`, only that
    /// CCX's members are considered (the domain-local variant's patient
    /// path). Compaction demotes cores mid-search, so each CCX's members
    /// are copied into a reusable buffer before they are walked, one CCX
    /// at a time: the search stops at the first idle core without
    /// touching the CCXs after it. A demotion only removes the core from
    /// its own CCX's set, so the order equals a snapshot of the whole
    /// nest taken up front.
    fn search_primary(
        &mut self,
        k: &KernelState,
        env: &SchedEnv<'_>,
        ref_core: CoreId,
        confine: Option<CcxId>,
    ) -> Option<CoreId> {
        let _prof = profile::span(profile::Subsystem::NestPrimaryScan);
        let respect = self.respect_pending();
        let domains = match &confine {
            Some(cx) => std::slice::from_ref(cx),
            None => env.topo.ccxs_nearest_first(ref_core),
        };
        let mut order = std::mem::take(&mut self.scratch_order);
        let mut found = None;
        'search: for &cx in domains {
            let Some(members) = self.primary.domain_members(cx) else {
                continue;
            };
            order.clear();
            order.extend(members.iter_wrapping_from(ref_core));
            for &core in &order {
                if self.compaction_eligible(k, env, core) {
                    // A task tried to use a stale core: demote it instead.
                    self.demote_as(env.topo, core, true);
                    continue;
                }
                if idle_ok(k, core, respect) {
                    found = Some(core);
                    break 'search;
                }
            }
        }
        self.scratch_order = order;
        found
    }

    /// Searches the reserve nest, starting from the fixed anchor. The
    /// search only reads the nest, so it iterates the per-CCX sets in
    /// place — no snapshot, no allocation. With `confine`, only that
    /// CCX's members are considered.
    fn search_reserve(
        &mut self,
        k: &KernelState,
        env: &SchedEnv<'_>,
        ref_core: CoreId,
        confine: Option<CcxId>,
    ) -> Option<CoreId> {
        if !self.params.enable_reserve {
            return None;
        }
        let _prof = profile::span(profile::Subsystem::NestReserveScan);
        let respect = self.respect_pending();
        let anchor = self.params.anchor_core;
        let hit = |members: &CpuSet| {
            members
                .iter_wrapping_from(anchor)
                .find(|&core| idle_ok(k, core, respect))
        };
        match confine {
            Some(cx) => self.reserve.domain_members(cx).and_then(hit),
            None => env
                .topo
                .ccxs_nearest_first(ref_core)
                .iter()
                .find_map(|&cx| self.reserve.domain_members(cx).and_then(hit)),
        }
    }

    /// The shared selection path for forks and wakeups.
    fn select(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        task: TaskId,
        ref_core: CoreId,
        waker_core: Option<CoreId>,
    ) -> Placement {
        let is_fork = waker_core.is_none();
        let impatient = !is_fork && k.task(task).impatience > self.params.r_impatient;
        // Domain-local nests: a patient task only sees the nest members
        // of its own CCX; impatience lifts the confinement (overflow to
        // the nearest domains by distance). Machine-global mode never
        // confines, which on the degenerate Table 2 trees makes both
        // modes — and the old per-socket code — coincide.
        let confine = match self.params.domain {
            NestDomain::Machine => None,
            NestDomain::Ccx if impatient => None,
            NestDomain::Ccx => Some(env.topo.ccx_of(ref_core)),
        };

        if !impatient {
            // First choice: the attached core, which may even be
            // reclaimed while compaction-eligible (§3.3).
            if self.params.enable_attachment && !is_fork {
                if let Some(att) = k.task(task).attached_core() {
                    if self.primary.contains(att) && idle_ok(k, att, self.respect_pending()) {
                        return Placement::simple(att, PlacementPath::NestPrimary);
                    }
                }
            }
            if let Some(core) = self.search_primary(k, env, ref_core, confine) {
                return Placement::simple(core, PlacementPath::NestPrimary);
            }
        }

        if let Some(core) = self.search_reserve(k, env, ref_core, confine) {
            self.promote(env.topo, core);
            if impatient {
                k.task_mut(task).impatience = 0;
            }
            return Placement::simple(core, PlacementPath::NestReserve);
        }

        // Fall back to CFS (with Nest's wakeup work-conservation
        // extension), still honoring the reservation flag. A confined
        // (patient, domain-local) wakeup also forgoes work conservation,
        // keeping the scan inside the target LLC domain.
        let core = match waker_core {
            None => cfs::select_fork(k, env, ref_core, self.respect_pending()),
            Some(waker) => cfs::select_wakeup(
                k,
                env,
                task,
                waker,
                &self.cfs_params,
                self.params.enable_wakeup_work_conservation && confine.is_none(),
                self.respect_pending(),
            ),
        };
        if impatient {
            // Grow the primary nest directly (§3.1).
            self.promote(env.topo, core);
            k.task_mut(task).impatience = 0;
        } else if !self.primary.contains(core)
            && !self.reserve.contains(core)
            && self.params.enable_reserve
            && self.reserve.len() < self.params.r_max
        {
            self.reserve.insert(env.topo, core);
        }
        Placement::simple(core, PlacementPath::NestFallback)
    }
}

impl SchedPolicy for Nest {
    fn name(&self) -> &'static str {
        "Nest"
    }

    fn select_core_fork(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        task: TaskId,
        parent_core: CoreId,
    ) -> Placement {
        self.select(k, env, task, parent_core, None)
    }

    fn select_core_wakeup(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        task: TaskId,
        waker_core: CoreId,
    ) -> Placement {
        // Impatience accounting: did this wakeup find the previous core
        // busy?
        let ref_core = k.task(task).prev_core.unwrap_or(waker_core);
        if let Some(prev) = k.task(task).prev_core {
            if idle_ok(k, prev, self.respect_pending()) {
                k.task_mut(task).impatience = 0;
            } else {
                k.task_mut(task).impatience += 1;
            }
        }
        self.select(k, env, task, ref_core, Some(waker_core))
    }

    fn on_core_idle(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        core: CoreId,
        reason: IdleReason,
    ) -> IdleAction {
        if reason == IdleReason::TaskExited {
            // The core is no longer considered useful (§3.1).
            self.demote(env.topo, core);
        }
        let pull_from = cfs::newidle_pull_source(k, env, core);
        let spin_ticks = if pull_from.is_none()
            && self.params.enable_spin
            && reason == IdleReason::TaskBlocked
        {
            self.params.s_max_ticks
        } else {
            0
        };
        IdleAction {
            pull_from,
            spin_ticks,
        }
    }

    fn on_tick(
        &mut self,
        k: &mut KernelState,
        env: &mut SchedEnv<'_>,
        core: CoreId,
    ) -> Option<CoreId> {
        cfs::periodic_pull_source(k, env, core, &self.cfs_params)
    }

    fn on_core_offline(&mut self, k: &mut KernelState, env: &mut SchedEnv<'_>, core: CoreId) {
        let _ = k;
        // An offlined core leaves both nests outright — it must not be
        // parked in the reserve the way a demotion would, because no
        // future search may return it.
        let in_primary = self.primary.remove(env.topo, core);
        let in_reserve = self.reserve.remove(env.topo, core);
        if in_primary || in_reserve {
            let (primary, reserve) = self.sizes();
            self.trace.push(TraceEvent::NestShrink {
                core,
                primary,
                reserve,
            });
        }
    }

    fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.trace);
    }

    fn save(&self) -> Json {
        // The nests are the only decision state Nest carries across
        // events: `scratch_order` is a reusable buffer and `trace` is
        // drained by the engine after every callback, so both are empty
        // between events. Membership is stored as sorted core-index
        // lists; `load` replays the inserts, which also rebuilds the
        // lazily allocated per-socket decomposition.
        json::obj(vec![
            ("kind", Json::str("nest")),
            ("primary", self.primary.all.save()),
            ("reserve", self.reserve.all.save()),
        ])
    }

    fn load(&mut self, topo: &Topology, state: &Json) -> Result<(), String> {
        let kind: String = snap::load(state, "kind")?;
        if kind != "nest" {
            return Err(format!(
                "snapshot carries \"{kind}\" policy state, but the scenario runs Nest"
            ));
        }
        let read_set = |key: &str| -> Result<NestSet, String> {
            let mut set = NestSet::new(topo.n_cores());
            for core in CpuSet::load(state, key, topo.n_cores())?.iter() {
                set.insert(topo, core);
            }
            Ok(set)
        };
        self.primary = read_set("primary")?;
        self.reserve = read_set("reserve")?;
        self.scratch_order.clear();
        self.trace.clear();
        Ok(())
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

        fn spawn(&mut self, now: Time) -> TaskId {
            let id = TaskId::from_index(self.k.tasks.len());
            self.k.register_task(id, now);
            id
        }

        fn occupy(&mut self, now: Time, core: CoreId) -> TaskId {
            let t = self.spawn(now);
            self.k.enqueue(now, t, core);
            self.k.pick_next(now, core);
            t
        }
    }

    macro_rules! env {
        ($f:expr, $now:expr) => {
            SchedEnv {
                now: $now,
                topo: &$f.topo,
                freq: &$f.freq,
                rng: &mut $f.rng,
            }
        };
    }

    /// Seeded regression for the incremental per-CCX nest sets and the
    /// searches built on them: a pseudo-random promote/demote and
    /// occupancy trace, checked at every step against a naive model
    /// (flat membership sets, searches as filter scans over raw domain
    /// spans — the pre-index shape of the code). Compaction is disabled
    /// so the searches are read-only and the two implementations can be
    /// compared on identical state.
    fn run_nest_vs_naive_trace(mut f: Fixture, seed: u64, steps: u64) {
        use std::collections::BTreeSet;

        let last = f.topo.n_cores() as u64 - 1;
        let params = NestParams {
            enable_compaction: false,
            ..NestParams::default()
        };
        let mut nest = Nest::with_params(f.topo.n_cores(), params);
        let mut primary_model: BTreeSet<u32> = BTreeSet::new();
        let mut reserve_model: BTreeSet<u32> = BTreeSet::new();
        let mut rng = SimRng::new(seed);
        let mut busy: Vec<CoreId> = Vec::new();
        let mut now = Time::ZERO;
        for step in 0..steps {
            now += rng.uniform_u64(10_000, 2_000_000);
            let core = CoreId(rng.uniform_u64(0, last) as u32);
            match rng.uniform_u64(0, 99) {
                // Promote: into primary, out of reserve.
                0..=29 => {
                    nest.promote(&f.topo, core);
                    reserve_model.remove(&core.0);
                    primary_model.insert(core.0);
                }
                // Demote: out of primary, into reserve if it has room.
                30..=59 => {
                    nest.demote(&f.topo, core);
                    if primary_model.remove(&core.0) && reserve_model.len() < nest.params().r_max {
                        reserve_model.insert(core.0);
                    }
                }
                // Occupy an idle core.
                60..=79 => {
                    if f.k.core(core).is_idle() {
                        f.occupy(now, core);
                        busy.push(core);
                    }
                }
                // Free a busy core.
                _ => {
                    if !busy.is_empty() {
                        let i = rng.uniform_u64(0, busy.len() as u64 - 1) as usize;
                        let c = busy.swap_remove(i);
                        f.k.put_curr(now, c);
                    }
                }
            }

            // Membership: the incremental sets must equal the flat model,
            // and the per-socket decomposition must partition `all`.
            let got: BTreeSet<u32> = nest.primary().iter().map(|c| c.0).collect();
            assert_eq!(got, primary_model, "primary diverged at step {step}");
            let got: BTreeSet<u32> = nest.reserve().iter().map(|c| c.0).collect();
            assert_eq!(got, reserve_model, "reserve diverged at step {step}");
            for (set, name) in [(&nest.primary, "primary"), (&nest.reserve, "reserve")] {
                for cx in f.topo.ccxs() {
                    if let Some(members) = set.domain_members(cx) {
                        for c in members.iter() {
                            assert_eq!(
                                f.topo.ccx_of(c),
                                cx,
                                "{name} CCX set holds foreign core at step {step}"
                            );
                            assert!(set.all.contains(c));
                        }
                    }
                }
                let per_domain_total: usize = f
                    .topo
                    .ccxs()
                    .filter_map(|cx| set.domain_members(cx))
                    .map(|m| m.len())
                    .sum();
                if !set.all.is_empty() {
                    assert_eq!(per_domain_total, set.all.len());
                }
            }

            // Searches: per-CCX iteration must pick the same core as a
            // filter scan over each raw domain span, for the unconfined
            // search and the domain-local confined one.
            let ref_core = CoreId(rng.uniform_u64(0, last) as u32);
            let respect = nest.respect_pending();
            let anchor = nest.params().anchor_core;
            let env = env!(f, now);
            let home = f.topo.ccx_of(ref_core);
            for confine in [None, Some(home)] {
                let domains = match &confine {
                    Some(cx) => std::slice::from_ref(cx),
                    None => f.topo.ccxs_nearest_first(ref_core),
                };
                let naive_primary = domains
                    .iter()
                    .flat_map(|&cx| {
                        f.topo
                            .ccx_span(cx)
                            .iter_wrapping_from(ref_core)
                            .filter(|&c| nest.primary().contains(c))
                            .collect::<Vec<_>>()
                    })
                    .find(|&c| idle_ok(&f.k, c, respect));
                let naive_reserve = domains.iter().find_map(|&cx| {
                    f.topo
                        .ccx_span(cx)
                        .iter_wrapping_from(anchor)
                        .filter(|&c| nest.reserve().contains(c))
                        .find(|&c| idle_ok(&f.k, c, respect))
                });
                assert_eq!(
                    nest.search_primary(&f.k, &env, ref_core, confine),
                    naive_primary,
                    "search_primary (confine {confine:?}) diverged at step {step}"
                );
                assert_eq!(
                    nest.search_reserve(&f.k, &env, ref_core, confine),
                    naive_reserve,
                    "search_reserve (confine {confine:?}) diverged at step {step}"
                );
            }
        }
    }

    /// Seeded regression for the lazy primary scan with compaction on:
    /// cores age past `p_remove_ticks`, so searches demote mid-scan. The
    /// reference is the snapshot-first algorithm: take the whole
    /// nearest-first order of primary members up front (filter scans
    /// over raw CCX spans), demote each eligible core, return the first
    /// idle one. Chosen core, both nests and the emitted trace events
    /// must agree at every step.
    fn run_lazy_scan_vs_snapshot_trace(mut f: Fixture, seed: u64, steps: u64) {
        use std::collections::BTreeSet;

        let last = f.topo.n_cores() as u64 - 1;
        let mut nest = Nest::new(f.topo.n_cores());
        let (r_max, p_remove) = (nest.params().r_max, nest.params().p_remove_ticks);
        let mut primary_model: BTreeSet<u32> = BTreeSet::new();
        let mut reserve_model: BTreeSet<u32> = BTreeSet::new();
        let mut rng = SimRng::new(seed);
        let mut busy: Vec<CoreId> = Vec::new();
        let mut now = Time::ZERO;
        for step in 0..steps {
            now += rng.uniform_u64(10_000, 2_000_000);
            let core = CoreId(rng.uniform_u64(0, last) as u32);
            match rng.uniform_u64(0, 99) {
                0..=34 => {
                    nest.promote(&f.topo, core);
                    reserve_model.remove(&core.0);
                    primary_model.insert(core.0);
                }
                35..=44 => {
                    nest.demote(&f.topo, core);
                    if primary_model.remove(&core.0) && reserve_model.len() < r_max {
                        reserve_model.insert(core.0);
                    }
                }
                45..=69 => {
                    if f.k.core(core).is_idle() {
                        f.occupy(now, core);
                        busy.push(core);
                    }
                }
                70..=84 => {
                    if !busy.is_empty() {
                        let i = rng.uniform_u64(0, busy.len() as u64 - 1) as usize;
                        let c = busy.swap_remove(i);
                        f.k.put_curr(now, c);
                    }
                }
                // Touch a core so it is not compaction-eligible.
                _ => f.k.cores[core.index()].last_used = now,
            }
            nest.trace.clear();

            let ref_core = CoreId(rng.uniform_u64(0, last) as u32);
            let respect = nest.respect_pending();
            let home = f.topo.ccx_of(ref_core);
            for confine in [None, Some(home)] {
                let domains = match &confine {
                    Some(cx) => std::slice::from_ref(cx),
                    None => f.topo.ccxs_nearest_first(ref_core),
                };
                let order: Vec<CoreId> = domains
                    .iter()
                    .flat_map(|&cx| f.topo.ccx_span(cx).iter_wrapping_from(ref_core))
                    .filter(|c| primary_model.contains(&c.0))
                    .collect();
                let mut want_trace = Vec::new();
                let mut want = None;
                for core in order {
                    let eligible = f.k.core(core).is_idle()
                        && now.saturating_since(f.k.core(core).last_used) >= p_remove * TICK_NS;
                    if eligible {
                        primary_model.remove(&core.0);
                        if reserve_model.len() < r_max {
                            reserve_model.insert(core.0);
                        }
                        want_trace.push(TraceEvent::NestCompaction {
                            core,
                            primary: primary_model.len() as u32,
                            reserve: reserve_model.len() as u32,
                        });
                        continue;
                    }
                    if idle_ok(&f.k, core, respect) {
                        want = Some(core);
                        break;
                    }
                }
                let env = env!(f, now);
                let got = nest.search_primary(&f.k, &env, ref_core, confine);
                assert_eq!(
                    got, want,
                    "chosen core (confine {confine:?}) at step {step}"
                );
                let got: BTreeSet<u32> = nest.primary().iter().map(|c| c.0).collect();
                assert_eq!(
                    got, primary_model,
                    "primary (confine {confine:?}) at step {step}"
                );
                let got: BTreeSet<u32> = nest.reserve().iter().map(|c| c.0).collect();
                assert_eq!(
                    got, reserve_model,
                    "reserve (confine {confine:?}) at step {step}"
                );
                assert_eq!(
                    std::mem::take(&mut nest.trace),
                    want_trace,
                    "trace (confine {confine:?}) at step {step}"
                );
            }
        }
    }

    #[test]
    fn lazy_primary_scan_matches_snapshot_reference_with_compaction() {
        let f = Fixture::new();
        run_lazy_scan_vs_snapshot_trace(f, 0x1A27_5CA7, 600);
    }

    #[test]
    fn lazy_primary_scan_matches_snapshot_reference_on_multi_ccx_machine() {
        use nest_topology::NumaKind;
        let f = Fixture::with_spec(presets::synth(4, 4, 8, 2, NumaKind::Ring));
        run_lazy_scan_vs_snapshot_trace(f, 0x1A27_256C, 400);
    }

    #[test]
    fn nest_sets_and_searches_match_naive_reference_on_seeded_trace() {
        let f = Fixture::new();
        assert_eq!(f.topo.n_cores(), 64);
        run_nest_vs_naive_trace(f, 0x4E57_7E57, 600);
    }

    /// Satellite for the hierarchical-domain refactor: the same oracle on
    /// a 256-core multi-CCX synthetic machine where the per-CCX nest
    /// decomposition genuinely refines sockets.
    #[test]
    fn nest_sets_and_searches_match_naive_reference_on_multi_ccx_machine() {
        use nest_topology::NumaKind;
        let f = Fixture::with_spec(presets::synth(4, 4, 8, 2, NumaKind::Ring));
        assert_eq!(f.topo.n_cores(), 256);
        run_nest_vs_naive_trace(f, 0x4E57_256C, 250);
    }

    #[test]
    fn nests_start_empty_and_stay_disjoint() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        assert!(nest.primary().is_empty());
        assert!(nest.reserve().is_empty());
        let t0 = Time::ZERO;
        // Drive a number of forks and check the invariant.
        for i in 0..20 {
            let parent = CoreId(i % 4);
            let task = f.spawn(t0);
            let mut e = env!(f, t0);
            let p = nest.select_core_fork(&mut f.k, &mut e, task, parent);
            f.k.begin_placement(p.core);
            f.k.commit_placement(t0, task, p.core);
            f.k.pick_next(t0, p.core);
            assert!(
                nest.primary().is_disjoint(nest.reserve()),
                "nests overlap after fork {i}"
            );
            assert!(nest.reserve().len() <= nest.params().r_max);
        }
    }

    #[test]
    fn cfs_fallback_feeds_reserve_then_promotion() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        let t0 = Time::ZERO;
        let task = f.spawn(t0);
        let mut e = env!(f, t0);
        // Empty nests: first placement must fall back to CFS and the core
        // joins the reserve.
        let p = nest.select_core_fork(&mut f.k, &mut e, task, CoreId(0));
        assert_eq!(p.path, PlacementPath::NestFallback);
        assert!(nest.reserve().contains(p.core));
        assert!(!nest.primary().contains(p.core));
        // The next placement finds it idle in the reserve and promotes it.
        let task2 = f.spawn(t0);
        let mut e = env!(f, t0);
        let p2 = nest.select_core_wakeup(&mut f.k, &mut e, task2, CoreId(0));
        assert_eq!(p2.core, p.core);
        assert_eq!(p2.path, PlacementPath::NestReserve);
        assert!(nest.primary().contains(p.core));
        assert!(!nest.reserve().contains(p.core));
    }

    #[test]
    fn primary_hit_prefers_same_die_and_prev_neighborhood() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        // Seed the primary nest with cores on both sockets.
        nest.promote(&f.topo, CoreId(2));
        nest.promote(&f.topo, CoreId(40));
        let now = Time::ZERO;
        let task = f.spawn(now);
        f.k.task_mut(task).push_core_history(CoreId(3));
        f.k.task_mut(task).push_core_history(CoreId(1));
        f.occupy(now, CoreId(1));
        // Touch the cores so they are not compaction-eligible.
        f.k.cores[2].last_used = now;
        f.k.cores[40].last_used = now;
        let mut e = env!(f, now);
        let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(1));
        assert_eq!(p.core, CoreId(2), "same-die primary core expected");
        assert_eq!(p.path, PlacementPath::NestPrimary);
    }

    #[test]
    fn attachment_beats_search_order() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        nest.promote(&f.topo, CoreId(2));
        nest.promote(&f.topo, CoreId(9));
        let now = Time::ZERO;
        let task = f.spawn(now);
        // Task ran twice on core 9: attached.
        f.k.task_mut(task).push_core_history(CoreId(9));
        f.k.task_mut(task).push_core_history(CoreId(9));
        f.k.cores[2].last_used = now;
        f.k.cores[9].last_used = now;
        let mut e = env!(f, now);
        let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(1));
        assert_eq!(p.core, CoreId(9), "attached core must be first choice");
    }

    #[test]
    fn compaction_demotes_stale_primary_core() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        nest.promote(&f.topo, CoreId(5));
        nest.promote(&f.topo, CoreId(6));
        // Core 5 unused for 3 ticks (> P_remove = 2); core 6 fresh.
        let now = Time::from_nanos(3 * TICK_NS);
        f.k.cores[6].last_used = now;
        let task = f.spawn(now);
        // Two different previous cores: no attachment; and occupy core 4
        // so the search cannot simply return the previous core.
        f.k.task_mut(task).push_core_history(CoreId(7));
        f.k.task_mut(task).push_core_history(CoreId(4));
        f.occupy(now, CoreId(4));
        let mut e = env!(f, now);
        let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(4));
        // The stale core was demoted to the reserve rather than used, and
        // the search continued to the fresh primary core.
        assert!(!nest.primary().contains(CoreId(5)));
        assert!(nest.reserve().contains(CoreId(5)));
        assert_eq!(p.core, CoreId(6));
        assert_eq!(p.path, PlacementPath::NestPrimary);
    }

    #[test]
    fn compaction_demotion_then_reserve_repromotes_lone_core() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        nest.promote(&f.topo, CoreId(5));
        let now = Time::from_nanos(3 * TICK_NS);
        let task = f.spawn(now);
        f.k.task_mut(task).push_core_history(CoreId(7));
        f.k.task_mut(task).push_core_history(CoreId(4));
        f.occupy(now, CoreId(4));
        let mut e = env!(f, now);
        let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(4));
        // The only nest core: demoted by compaction, then immediately
        // found idle in the reserve and promoted back.
        assert_eq!(p.core, CoreId(5));
        assert_eq!(p.path, PlacementPath::NestReserve);
        assert!(nest.primary().contains(CoreId(5)));
        assert!(!nest.reserve().contains(CoreId(5)));
    }

    #[test]
    fn attached_task_reclaims_compaction_eligible_core() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        nest.promote(&f.topo, CoreId(5));
        let now = Time::from_nanos(3 * TICK_NS);
        let task = f.spawn(now);
        f.k.task_mut(task).push_core_history(CoreId(5));
        f.k.task_mut(task).push_core_history(CoreId(5));
        let mut e = env!(f, now);
        let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(4));
        assert_eq!(p.core, CoreId(5));
        assert_eq!(p.path, PlacementPath::NestPrimary);
        assert!(
            nest.primary().contains(CoreId(5)),
            "reclaim keeps it primary"
        );
    }

    #[test]
    fn task_exit_demotes_core_immediately() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        nest.promote(&f.topo, CoreId(3));
        let now = Time::ZERO;
        let mut e = env!(f, now);
        nest.on_core_idle(&mut f.k, &mut e, CoreId(3), IdleReason::TaskExited);
        assert!(!nest.primary().contains(CoreId(3)));
        assert!(nest.reserve().contains(CoreId(3)));
    }

    #[test]
    fn blocked_idle_spins_exited_does_not() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        let now = Time::ZERO;
        let mut e = env!(f, now);
        let a = nest.on_core_idle(&mut f.k, &mut e, CoreId(3), IdleReason::TaskBlocked);
        assert_eq!(a.spin_ticks, 2);
        let mut e = env!(f, now);
        let a = nest.on_core_idle(&mut f.k, &mut e, CoreId(3), IdleReason::TaskExited);
        assert_eq!(a.spin_ticks, 0);
    }

    #[test]
    fn impatient_task_skips_primary_and_grows_it() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        let now = Time::ZERO;
        // Primary nest holds one core, kept busy by another task.
        nest.promote(&f.topo, CoreId(2));
        f.occupy(now, CoreId(2));
        let task = f.spawn(now);
        f.k.task_mut(task).prev_core = Some(CoreId(2));
        // Keep waking the task while its previous core is busy; it must
        // eventually escape the (busy) primary nest via CFS with the core
        // joining the primary nest directly.
        let mut grew = false;
        for _ in 0..4 {
            let mut e = env!(f, now);
            let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(2));
            if p.path == PlacementPath::NestFallback && nest.primary().contains(p.core) {
                grew = true;
                assert_eq!(f.k.task(task).impatience, 0, "impatience resets");
                break;
            }
            // Not placed: simulate that the chosen core did not work out
            // (we do not enqueue), so prev stays busy.
        }
        assert!(grew, "primary nest never grew for the impatient task");
        assert!(nest.primary().len() >= 2);
    }

    #[test]
    fn domain_local_patient_task_stays_in_home_ccx() {
        use nest_topology::NumaKind;
        // 1 socket × 2 CCX × 4 phys, SMT-1: CCX 0 = cores 0-3, CCX 1 =
        // cores 4-7.
        let mut f = Fixture::with_spec(presets::synth(1, 2, 4, 1, NumaKind::Flat));
        let params = NestParams {
            domain: NestDomain::Ccx,
            ..NestParams::default()
        };
        let mut nest = Nest::with_params(8, params);
        // The only primary-nest member is idle — but in the other CCX.
        nest.promote(&f.topo, CoreId(5));
        let now = Time::ZERO;
        f.k.cores[5].last_used = now;
        f.occupy(now, CoreId(1));
        let task = f.spawn(now);
        f.k.task_mut(task).prev_core = Some(CoreId(1));
        let mut e = env!(f, now);
        let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(0));
        assert_ne!(p.core, CoreId(5), "patient task must not cross the CCX");
        assert_eq!(
            e.topo.ccx_of(p.core).index(),
            0,
            "confined fallback stays in the home CCX"
        );
        // The machine-global default would have taken the warm core.
        let mut global = Nest::with_params(8, NestParams::default());
        global.promote(&f.topo, CoreId(5));
        let task2 = f.spawn(now);
        f.k.task_mut(task2).prev_core = Some(CoreId(1));
        let mut e = env!(f, now);
        let p = global.select_core_wakeup(&mut f.k, &mut e, task2, CoreId(0));
        assert_eq!(p.core, CoreId(5));
    }

    #[test]
    fn domain_local_impatience_overflows_to_nearest_ccx() {
        use nest_topology::NumaKind;
        // 2 sockets × 2 CCX × 2 phys, SMT-1: CCXs are {0,1} {2,3} {4,5}
        // {6,7}; CCX 1 shares task's socket, CCX 2/3 are remote.
        let mut f = Fixture::with_spec(presets::synth(2, 2, 2, 1, NumaKind::Flat));
        let params = NestParams {
            domain: NestDomain::Ccx,
            ..NestParams::default()
        };
        let mut nest = Nest::with_params(8, params);
        nest.promote(&f.topo, CoreId(2)); // same socket, next CCX
        nest.promote(&f.topo, CoreId(4)); // remote socket
        let now = Time::ZERO;
        f.k.cores[2].last_used = now;
        f.k.cores[4].last_used = now;
        // The home CCX is fully busy, so every wake finds prev occupied.
        f.occupy(now, CoreId(0));
        f.occupy(now, CoreId(1));
        let task = f.spawn(now);
        f.k.task_mut(task).prev_core = Some(CoreId(0));
        let mut placed = None;
        for _ in 0..4 {
            let mut e = env!(f, now);
            let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(0));
            if e.topo.ccx_of(p.core).index() != 0 {
                placed = Some(p);
                break;
            }
        }
        let p = placed.expect("impatience never lifted the confinement");
        assert_eq!(
            f.topo.ccx_of(p.core).index(),
            1,
            "overflow must reach the nearest CCX, not the remote socket"
        );
        assert_eq!(f.k.task(task).impatience, 0, "impatience resets");
        assert!(
            nest.primary().contains(p.core),
            "the overflow core joins the primary nest"
        );
    }

    #[test]
    fn reserve_respects_r_max() {
        let mut f = Fixture::new();
        let params = NestParams {
            r_max: 2,
            ..NestParams::default()
        };
        let mut nest = Nest::with_params(64, params);
        let t0 = Time::ZERO;
        // Repeated CFS fallbacks: keep every chosen core busy so the next
        // fork falls back again.
        for _ in 0..6 {
            let task = f.spawn(t0);
            let mut e = env!(f, t0);
            let p = nest.select_core_fork(&mut f.k, &mut e, task, CoreId(0));
            f.k.begin_placement(p.core);
            f.k.commit_placement(t0, task, p.core);
            f.k.pick_next(t0, p.core);
            assert!(nest.reserve().len() <= 2);
        }
    }

    #[test]
    fn ablation_no_reserve_discards_demotions() {
        let mut f = Fixture::new();
        let params = NestParams {
            enable_reserve: false,
            ..NestParams::default()
        };
        let mut nest = Nest::with_params(64, params);
        nest.promote(&f.topo, CoreId(3));
        let now = Time::ZERO;
        let mut e = env!(f, now);
        nest.on_core_idle(&mut f.k, &mut e, CoreId(3), IdleReason::TaskExited);
        assert!(nest.primary().is_empty());
        assert!(nest.reserve().is_empty(), "reserve disabled");
    }

    #[test]
    fn ablation_no_spin() {
        let mut f = Fixture::new();
        let params = NestParams {
            enable_spin: false,
            ..NestParams::default()
        };
        let mut nest = Nest::with_params(64, params);
        let mut e = env!(f, Time::ZERO);
        let a = nest.on_core_idle(&mut f.k, &mut e, CoreId(0), IdleReason::TaskBlocked);
        assert_eq!(a.spin_ticks, 0);
    }

    #[test]
    fn ablation_no_compaction_keeps_stale_cores() {
        let mut f = Fixture::new();
        let params = NestParams {
            enable_compaction: false,
            ..NestParams::default()
        };
        let mut nest = Nest::with_params(64, params);
        nest.promote(&f.topo, CoreId(5));
        let now = Time::from_nanos(100 * TICK_NS);
        let task = f.spawn(now);
        f.k.task_mut(task).push_core_history(CoreId(7));
        f.k.task_mut(task).push_core_history(CoreId(4));
        f.occupy(now, CoreId(4));
        let mut e = env!(f, now);
        let p = nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(4));
        assert_eq!(p.core, CoreId(5), "stale core used when compaction off");
        assert_eq!(p.path, PlacementPath::NestPrimary);
    }

    #[test]
    fn core_offline_sheds_from_both_nests_with_one_shrink_event() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        nest.promote(&f.topo, CoreId(5));
        nest.promote(&f.topo, CoreId(6));
        nest.demote(&f.topo, CoreId(6)); // now in the reserve
        let mut drained = Vec::new();
        nest.drain_trace(&mut drained);

        let now = Time::ZERO;
        f.k.set_online(CoreId(5), false);
        let mut e = env!(f, now);
        nest.on_core_offline(&mut f.k, &mut e, CoreId(5));
        assert!(!nest.primary().contains(CoreId(5)));
        assert!(
            !nest.reserve().contains(CoreId(5)),
            "offline core must not be parked in the reserve"
        );
        drained.clear();
        nest.drain_trace(&mut drained);
        assert_eq!(
            drained,
            vec![TraceEvent::NestShrink {
                core: CoreId(5),
                primary: 0,
                reserve: 1,
            }]
        );

        // Shedding a reserve member also traces.
        f.k.set_online(CoreId(6), false);
        let mut e = env!(f, now);
        nest.on_core_offline(&mut f.k, &mut e, CoreId(6));
        assert!(nest.reserve().is_empty());
        drained.clear();
        nest.drain_trace(&mut drained);
        assert_eq!(drained.len(), 1);

        // A core in neither nest sheds silently.
        let mut e = env!(f, now);
        nest.on_core_offline(&mut f.k, &mut e, CoreId(7));
        drained.clear();
        nest.drain_trace(&mut drained);
        assert!(drained.is_empty());
    }

    #[test]
    fn selection_never_returns_offline_cores() {
        let mut f = Fixture::new();
        let mut nest = Nest::new(64);
        let now = Time::ZERO;
        // Offline all of socket 1 plus a few socket-0 cores, shedding as
        // the engine would.
        let offline: Vec<CoreId> = (1u32..8).chain(32..64).map(CoreId).collect();
        for &c in &offline {
            f.k.set_online(c, false);
            let mut e = env!(f, now);
            nest.on_core_offline(&mut f.k, &mut e, c);
        }
        // Drive forks and wakeups; every placement must land online.
        for i in 0..40 {
            let task = f.spawn(now);
            let mut e = env!(f, now);
            let p = if i % 2 == 0 {
                nest.select_core_fork(&mut f.k, &mut e, task, CoreId(i % 64))
            } else {
                f.k.task_mut(task).push_core_history(CoreId(40)); // offline prev
                nest.select_core_wakeup(&mut f.k, &mut e, task, CoreId(2))
            };
            assert!(
                f.k.is_online(p.core),
                "placement {i} chose offline {:?}",
                p.core
            );
            assert!(nest.primary().is_disjoint(nest.reserve()));
            for c in nest.primary().iter().chain(nest.reserve().iter()) {
                assert!(f.k.is_online(c), "nest holds offline {c:?}");
            }
            f.k.begin_placement(p.core);
            f.k.commit_placement(now, task, p.core);
            if f.k.core(p.core).curr.is_none() {
                f.k.pick_next(now, p.core);
            }
        }
    }
}
