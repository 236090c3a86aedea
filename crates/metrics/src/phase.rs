//! Per-request latency attribution.
//!
//! [`PhaseBreakdownProbe`] watches one run's trace for the request tasks
//! the serve subsystem injects (labels starting with
//! [`nest_serve::REQUEST_LABEL_PREFIX`]) and decomposes each request's
//! arrival→completion latency into exhaustive, ns-exact phases. The probe
//! keeps a tiny state machine per in-flight request; every trace event
//! that changes a request's state closes the elapsed span into exactly
//! one phase, so the phase durations of a completed request sum *exactly*
//! (in integer nanoseconds) to its measured latency — the accounting
//! identity the phase-sum property test asserts.
//!
//! The phases, in [`PHASE_NAMES`] order:
//!
//! * **arrival_queue** — creation (the arrival event) to first run start.
//! * **runqueue_wait** — runnable-but-not-running spans from preemption,
//!   yields, or wakeups with no warmer explanation.
//! * **service_fmax** — on-CPU time converted to what it *would* have
//!   cost at fmax ([`nest_freq::ns_at_reference`]).
//! * **ramp_penalty** — the rest of the on-CPU time: the cost of running
//!   below fmax while the hardware ramps. This is the phase the paper's
//!   mechanism targets — Nest's warm cores should shrink it.
//! * **spin_overlap** — wakeup-to-run spans where placement chose a core
//!   that was spin-waiting (the handoff a warm nest core absorbs).
//! * **migration_stall** — wakeup-to-run spans that resumed on a
//!   different CCX than the request last ran on.
//! * **merge_wait** — blocked spans: a fan-out parent waiting for its
//!   sub-tasks before the merge step.
//!
//! On-CPU spans are split at every frequency change of the running
//! physical core, mirroring the engine's own segment re-timing, so the
//! fmax/ramp split uses the exact frequency trajectory. The probe
//! reconstructs everything from the existing [`TraceEvent`] stream — the
//! engine needed no new event variants, and runs without serve plans pay
//! only a label prefix check per task creation.

use std::collections::HashMap;

use nest_freq::ns_at_reference;
use nest_serve::REQUEST_LABEL_PREFIX;
use nest_simcore::json::{obj, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{CoreId, Freq, Probe, StopReason, TaskId, Time, TraceEvent};
use nest_topology::MachineSpec;

use crate::tail::TailHistogram;

/// The attribution phases, in accounting order. Phase indices throughout
/// this module are positions in this array.
pub const PHASE_NAMES: [&str; N_PHASES] = [
    "arrival_queue",
    "runqueue_wait",
    "service_fmax",
    "ramp_penalty",
    "spin_overlap",
    "migration_stall",
    "merge_wait",
];

/// Number of attribution phases.
pub const N_PHASES: usize = 7;

const ARRIVAL_QUEUE: usize = 0;
const RUNQUEUE_WAIT: usize = 1;
const SERVICE_FMAX: usize = 2;
const RAMP_PENALTY: usize = 3;
const SPIN_OVERLAP: usize = 4;
const MIGRATION_STALL: usize = 5;
const MERGE_WAIT: usize = 6;

/// Aggregated per-phase latency attribution over one or more runs.
///
/// Every field is an order-independent sum (histograms merge
/// bucket-wise), so merging in any grouping yields the same values —
/// the same discipline as `decision_metrics` and `serve_metrics`.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseMetrics {
    /// Runs merged into this aggregate.
    pub runs: u64,
    /// Total simulated nanoseconds across the merged runs.
    pub sim_ns: u64,
    /// Completed requests attributed across those runs.
    pub requests: u64,
    /// Requests whose phase durations did not sum to their measured
    /// latency. Always zero unless the state machine desynchronized
    /// from the engine; the identity property test asserts on it.
    pub identity_violations: u64,
    /// Arrival→completion latency histogram (every attributed request).
    pub total: TailHistogram,
    /// One histogram per phase, indexed like [`PHASE_NAMES`]; each
    /// request records into every phase (zeros included), so per-phase
    /// sample counts equal `requests`.
    pub phases: Vec<TailHistogram>,
}

impl Default for PhaseMetrics {
    fn default() -> PhaseMetrics {
        PhaseMetrics {
            runs: 0,
            sim_ns: 0,
            requests: 0,
            identity_violations: 0,
            total: TailHistogram::default(),
            phases: vec![TailHistogram::default(); N_PHASES],
        }
    }
}

impl PhaseMetrics {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &PhaseMetrics) {
        self.runs += other.runs;
        self.sim_ns += other.sim_ns;
        self.requests += other.requests;
        self.identity_violations += other.identity_violations;
        self.total.merge(&other.total);
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
    }

    /// Fraction of all attributed nanoseconds spent in phase `i`.
    pub fn share(&self, i: usize) -> Option<f64> {
        (self.total.sum > 0).then(|| self.phases[i].sum as f64 / self.total.sum as f64)
    }

    /// Serializes the metrics as the `phase_metrics` telemetry block:
    /// a `total` percentile block plus one per phase, with each phase's
    /// exact ns sum and share of the total.
    pub fn to_json(&self) -> Json {
        let block = |h: &TailHistogram| {
            obj(vec![
                ("p50_ns", Json::opt_u64(h.quantile(0.50))),
                ("p99_ns", Json::opt_u64(h.quantile(0.99))),
                ("p999_ns", Json::opt_u64(h.quantile(0.999))),
                ("mean_ns", Json::opt_f64(h.mean())),
                ("sum_ns", Json::u64(h.sum)),
                ("samples", Json::u64(h.len())),
            ])
        };
        let phases = PHASE_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut b = block(&self.phases[i]);
                if let Json::Obj(fields) = &mut b {
                    fields.push(("share".to_string(), Json::opt_f64(self.share(i))));
                }
                (name.to_string(), b)
            })
            .collect();
        obj(vec![
            ("runs", Json::u64(self.runs)),
            ("sim_ns", Json::u64(self.sim_ns)),
            ("requests", Json::u64(self.requests)),
            ("identity_violations", Json::u64(self.identity_violations)),
            ("total", block(&self.total)),
            ("phases", Json::Obj(phases)),
        ])
    }
}

/// Where a tracked request currently is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReqState {
    /// Created, never run: accruing arrival queueing.
    Arrival,
    /// Runnable (queued), accruing one of the wait phases.
    Runnable,
    /// On CPU on this core, accruing service/ramp time.
    Running(CoreId),
    /// Blocked (a fan-out parent in its merge wait).
    Blocked,
    /// Stopped with [`StopReason::Exit`]; awaiting the exit event.
    Exiting,
}

struct InFlight {
    created: Time,
    /// Start of the currently accruing span.
    since: Time,
    state: ReqState,
    /// The current runnable span began with a wakeup (not a preemption).
    woken: bool,
    /// That wakeup's placement chose a core that was spin-waiting.
    wake_spin: bool,
    /// CCX the request last ran on, for migration classification.
    last_ccx: Option<u32>,
    /// Accumulated nanoseconds per phase, indexed like [`PHASE_NAMES`].
    acc: [u64; N_PHASES],
}

impl InFlight {
    fn new(now: Time) -> InFlight {
        InFlight {
            created: now,
            since: now,
            state: ReqState::Arrival,
            woken: false,
            wake_spin: false,
            last_ccx: None,
            acc: [0; N_PHASES],
        }
    }
}

/// A probe computing [`PhaseMetrics`] over one run.
///
/// Mirrors the frequency model's per-physical-core frequency from the
/// `FreqChange` stream (starting at nominal, like the warm machine) so
/// on-CPU spans can be split into at-fmax service and ramp penalty, and
/// the per-core spin flags so wakeups into spinning cores are credited
/// to `spin_overlap`.
pub struct PhaseBreakdownProbe {
    /// The run's attribution; `runs` and `sim_ns` are stamped when the
    /// run finishes.
    pub metrics: PhaseMetrics,
    fmax: Freq,
    /// CCX index of each logical core (from the topology).
    ccx_of: Vec<u32>,
    /// Physical-core index behind each logical core.
    phys_of: Vec<usize>,
    /// The (one or two) hardware threads of each physical core.
    threads_of_phys: Vec<(usize, usize)>,
    /// Mirrored current frequency per physical core.
    phys_freq: Vec<Freq>,
    /// Mirrored spin flag per logical core.
    spinning: Vec<bool>,
    /// The tracked request running on each logical core, if any.
    running: Vec<Option<TaskId>>,
    inflight: HashMap<TaskId, InFlight>,
}

impl PhaseBreakdownProbe {
    /// Creates a probe for `spec` with the per-core CCX table (as
    /// computed by the topology).
    pub fn new(spec: &MachineSpec, ccx_of: Vec<u32>) -> PhaseBreakdownProbe {
        let n_cores = spec.n_cores();
        assert_eq!(ccx_of.len(), n_cores, "ccx table must cover every core");
        let pps = spec.phys_per_socket;
        let cps = spec.cores_per_socket();
        let n_phys = spec.sockets * pps;
        let phys_of = (0..n_cores)
            .map(|c| (c / cps) * pps + (c % cps) % pps)
            .collect();
        let threads_of_phys = (0..n_phys)
            .map(|phys| {
                let (socket, p) = (phys / pps, phys % pps);
                let t0 = socket * cps + p;
                let t1 = if spec.smt == 2 { t0 + pps } else { t0 };
                (t0, t1)
            })
            .collect();
        PhaseBreakdownProbe {
            metrics: PhaseMetrics::default(),
            fmax: spec.freq.fmax(),
            ccx_of,
            phys_of,
            threads_of_phys,
            phys_freq: vec![spec.freq.fnominal; n_phys],
            spinning: vec![false; n_cores],
            running: vec![None; n_cores],
            inflight: HashMap::new(),
        }
    }

    /// Splits an on-CPU span at frequency `freq` into at-fmax service
    /// and ramp penalty.
    fn run_segment(acc: &mut [u64; N_PHASES], freq: Freq, fmax: Freq, dt: u64) {
        let at_fmax = ns_at_reference(freq, fmax, dt).min(dt);
        acc[SERVICE_FMAX] += at_fmax;
        acc[RAMP_PENALTY] += dt - at_fmax;
    }
}

nest_simcore::snap_in_place!(PhaseBreakdownProbe {
    "requests": metrics.requests,
    "identity_violations": metrics.identity_violations,
    "total": metrics.total,
    "phases": metrics.phases [len],
    "phys_freq": phys_freq [len],
    "spinning": spinning [len],
});

impl Probe for PhaseBreakdownProbe {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        match event {
            TraceEvent::TaskCreated { task, label, .. }
                if label.starts_with(REQUEST_LABEL_PREFIX) =>
            {
                self.inflight.insert(*task, InFlight::new(now));
            }
            TraceEvent::Woken { task } => {
                if let Some(r) = self.inflight.get_mut(task) {
                    if r.state == ReqState::Blocked {
                        r.acc[MERGE_WAIT] += now.saturating_since(r.since);
                        r.since = now;
                        r.state = ReqState::Runnable;
                        r.woken = true;
                        r.wake_spin = false;
                    }
                }
            }
            TraceEvent::Placed { task, core, .. } => {
                // Placement is decided while the chosen core still spins
                // (the spin ends when the placement commits), so this
                // reads the flag at exactly the decision instant.
                let spin = self.spinning[core.index()];
                if let Some(r) = self.inflight.get_mut(task) {
                    if r.state == ReqState::Runnable && r.woken && spin {
                        r.wake_spin = true;
                    }
                }
            }
            TraceEvent::RunStart { task, core } => {
                let ccx = self.ccx_of[core.index()];
                if let Some(r) = self.inflight.get_mut(task) {
                    let dt = now.saturating_since(r.since);
                    match r.state {
                        ReqState::Arrival => r.acc[ARRIVAL_QUEUE] += dt,
                        ReqState::Runnable => {
                            let phase = if r.woken && r.last_ccx.is_some_and(|c| c != ccx) {
                                MIGRATION_STALL
                            } else if r.woken && r.wake_spin {
                                SPIN_OVERLAP
                            } else {
                                RUNQUEUE_WAIT
                            };
                            r.acc[phase] += dt;
                        }
                        // Defensive: unmatched starts still keep the
                        // identity (the span lands in *a* phase).
                        ReqState::Blocked | ReqState::Exiting => r.acc[MERGE_WAIT] += dt,
                        ReqState::Running(prev) => {
                            let f = self.phys_freq[self.phys_of[prev.index()]];
                            Self::run_segment(&mut r.acc, f, self.fmax, dt);
                            self.running[prev.index()] = None;
                        }
                    }
                    r.since = now;
                    r.state = ReqState::Running(*core);
                    r.woken = false;
                    r.wake_spin = false;
                    r.last_ccx = Some(ccx);
                    self.running[core.index()] = Some(*task);
                }
            }
            TraceEvent::RunStop { task, reason, .. } => {
                if let Some(r) = self.inflight.get_mut(task) {
                    if let ReqState::Running(c) = r.state {
                        let dt = now.saturating_since(r.since);
                        let f = self.phys_freq[self.phys_of[c.index()]];
                        Self::run_segment(&mut r.acc, f, self.fmax, dt);
                        self.running[c.index()] = None;
                    }
                    r.since = now;
                    r.woken = false;
                    r.wake_spin = false;
                    r.state = match reason {
                        StopReason::Block => ReqState::Blocked,
                        StopReason::Preempt | StopReason::Yield => ReqState::Runnable,
                        StopReason::Exit => ReqState::Exiting,
                    };
                }
            }
            TraceEvent::TaskExited { task } => {
                if let Some(mut r) = self.inflight.remove(task) {
                    let dt = now.saturating_since(r.since);
                    match r.state {
                        ReqState::Arrival => r.acc[ARRIVAL_QUEUE] += dt,
                        ReqState::Runnable => r.acc[RUNQUEUE_WAIT] += dt,
                        ReqState::Running(c) => {
                            let f = self.phys_freq[self.phys_of[c.index()]];
                            Self::run_segment(&mut r.acc, f, self.fmax, dt);
                            self.running[c.index()] = None;
                        }
                        ReqState::Blocked | ReqState::Exiting => r.acc[MERGE_WAIT] += dt,
                    }
                    let total = now.saturating_since(r.created);
                    if r.acc.iter().sum::<u64>() != total {
                        self.metrics.identity_violations += 1;
                    }
                    self.metrics.requests += 1;
                    self.metrics.total.record(total);
                    for (i, h) in self.metrics.phases.iter_mut().enumerate() {
                        h.record(r.acc[i]);
                    }
                }
            }
            TraceEvent::FreqChange { core, freq } => {
                let p = self.phys_of[core.index()];
                if self.phys_freq[p] != *freq {
                    let (t0, t1) = self.threads_of_phys[p];
                    let old = self.phys_freq[p];
                    for t in std::iter::once(t0).chain((t1 != t0).then_some(t1)) {
                        if let Some(task) = self.running[t] {
                            if let Some(r) = self.inflight.get_mut(&task) {
                                let dt = now.saturating_since(r.since);
                                Self::run_segment(&mut r.acc, old, self.fmax, dt);
                                r.since = now;
                            }
                        }
                    }
                    self.phys_freq[p] = *freq;
                }
            }
            TraceEvent::SpinStart { core } => self.spinning[core.index()] = true,
            TraceEvent::SpinEnd { core } => self.spinning[core.index()] = false,
            _ => {}
        }
    }

    fn on_finish(&mut self, now: Time) {
        self.metrics.sim_ns = now.as_nanos();
        self.metrics.runs = 1;
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        // The machine shape (fmax, ccx/phys tables) comes from
        // construction; only accumulated counters, the mirrored hardware
        // view, and in-flight request states travel — the latter sorted
        // by task id for stable bytes. A request's state is a code plus
        // its core (+1, 0 for none), and its last CCX is likewise +1.
        // `running` is rebuilt on restore from the `Running` states.
        let mut inflight: Vec<(&TaskId, &InFlight)> = self.inflight.iter().collect();
        inflight.sort_by_key(|(task, _)| task.0);
        let inflight = inflight
            .into_iter()
            .map(|(task, r)| {
                let (state, core) = match r.state {
                    ReqState::Arrival => (0u64, 0usize),
                    ReqState::Runnable => (1, 0),
                    ReqState::Running(c) => (2, c.index() + 1),
                    ReqState::Blocked => (3, 0),
                    ReqState::Exiting => (4, 0),
                };
                obj(vec![
                    ("task", task.save()),
                    ("created", r.created.save()),
                    ("since", r.since.save()),
                    ("state", state.save()),
                    ("core", core.save()),
                    ("woken", r.woken.save()),
                    ("wake_spin", r.wake_spin.save()),
                    ("last_ccx", r.last_ccx.map_or(0, |c| c + 1).save()),
                    ("acc", r.acc.save()),
                ])
            })
            .collect();
        let mut entries = self.snap_entries();
        entries.push(("inflight", Json::Arr(inflight)));
        Some(("metrics.phase", obj(entries)))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        self.load_entries(state)?;
        self.inflight.clear();
        self.running = vec![None; self.running.len()];
        for entry in snap::get_arr(state, "inflight")? {
            let task: TaskId = snap::load(entry, "task")?;
            let core: usize = snap::load(entry, "core")?;
            let state = match snap::load::<u64>(entry, "state")? {
                0 => ReqState::Arrival,
                1 => ReqState::Runnable,
                2 => {
                    if core == 0 || core > self.running.len() {
                        return Err(format!(
                            "running request on core slot {core} is out of range"
                        ));
                    }
                    self.running[core - 1] = Some(task);
                    ReqState::Running(CoreId::from_index(core - 1))
                }
                3 => ReqState::Blocked,
                4 => ReqState::Exiting,
                other => return Err(format!("unknown request state code {other}")),
            };
            let last_ccx: u32 = snap::load(entry, "last_ccx")?;
            self.inflight.insert(
                task,
                InFlight {
                    created: snap::load(entry, "created")?,
                    since: snap::load(entry, "since")?,
                    state,
                    woken: snap::load(entry, "woken")?,
                    wake_spin: snap::load(entry, "wake_spin")?,
                    last_ccx: last_ccx.checked_sub(1),
                    acc: snap::load(entry, "acc")?,
                },
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_topology::presets;

    fn probe() -> PhaseBreakdownProbe {
        let spec = presets::xeon_6130(1);
        // Pretend the socket splits into two CCXs so migration stalls
        // are observable on an Intel preset.
        let n = spec.n_cores();
        let ccx_of = (0..n).map(|c| ((c % 32) / 16) as u32).collect();
        PhaseBreakdownProbe::new(&spec, ccx_of)
    }

    fn created(task: u32) -> TraceEvent {
        TraceEvent::TaskCreated {
            task: TaskId(task),
            label: format!("req:0:{task}"),
            parent: None,
        }
    }

    fn start(task: u32, core: u32) -> TraceEvent {
        TraceEvent::RunStart {
            task: TaskId(task),
            core: CoreId(core),
        }
    }

    fn stop(task: u32, core: u32, reason: StopReason) -> TraceEvent {
        TraceEvent::RunStop {
            task: TaskId(task),
            core: CoreId(core),
            reason,
        }
    }

    fn exited(task: u32) -> TraceEvent {
        TraceEvent::TaskExited { task: TaskId(task) }
    }

    fn idx(name: &str) -> usize {
        PHASE_NAMES.iter().position(|n| *n == name).unwrap()
    }

    #[test]
    fn simple_request_splits_into_arrival_service_and_ramp() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(t(100), &created(1));
        p.on_event(t(300), &start(1, 0));
        p.on_event(t(800), &stop(1, 0, StopReason::Exit));
        p.on_event(t(800), &exited(1));
        p.on_finish(t(1_000));
        let m = &p.metrics;
        assert_eq!(m.requests, 1);
        assert_eq!(m.identity_violations, 0);
        assert_eq!(m.phases[idx("arrival_queue")].sum, 200);
        // 500 ns at nominal (2.1 GHz) vs fmax (3.7 GHz): some of the
        // span is service, the strictly positive rest is ramp penalty.
        let service = m.phases[idx("service_fmax")].sum;
        let ramp = m.phases[idx("ramp_penalty")].sum;
        assert!(service > 0 && ramp > 0, "{service} {ramp}");
        assert_eq!(service + ramp, 500);
        assert_eq!(m.total.sum, 700);
    }

    #[test]
    fn at_fmax_there_is_no_ramp_penalty() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(
            t(0),
            &TraceEvent::FreqChange {
                core: CoreId(0),
                freq: Freq::from_ghz(3.7),
            },
        );
        p.on_event(t(0), &created(1));
        p.on_event(t(0), &start(1, 0));
        p.on_event(t(1_000_000), &stop(1, 0, StopReason::Exit));
        p.on_event(t(1_000_000), &exited(1));
        p.on_finish(t(1_000_000));
        let m = &p.metrics;
        assert_eq!(m.phases[idx("service_fmax")].sum, 1_000_000);
        assert_eq!(m.phases[idx("ramp_penalty")].sum, 0);
    }

    #[test]
    fn freq_change_splits_the_running_segment() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(t(0), &created(1));
        p.on_event(t(0), &start(1, 0));
        // Half the span at nominal, half at fmax.
        p.on_event(
            t(1_000),
            &TraceEvent::FreqChange {
                core: CoreId(0),
                freq: Freq::from_ghz(3.7),
            },
        );
        p.on_event(t(2_000), &stop(1, 0, StopReason::Exit));
        p.on_event(t(2_000), &exited(1));
        p.on_finish(t(2_000));
        let m = &p.metrics;
        let service = m.phases[idx("service_fmax")].sum;
        let ramp = m.phases[idx("ramp_penalty")].sum;
        assert_eq!(service + ramp, 2_000);
        // The fmax half contributes no penalty; the nominal half does.
        assert!(ramp > 0 && ramp < 1_000, "{ramp}");
        assert_eq!(m.identity_violations, 0);
    }

    #[test]
    fn fanout_block_is_merge_wait_and_wake_classifies() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(t(0), &created(1));
        p.on_event(t(0), &start(1, 0));
        p.on_event(t(1_000), &stop(1, 0, StopReason::Block));
        p.on_event(t(5_000), &TraceEvent::Woken { task: TaskId(1) });
        // Placement chooses a spinning core on the same CCX.
        p.on_event(t(5_000), &TraceEvent::SpinStart { core: CoreId(2) });
        p.on_event(
            t(5_000),
            &TraceEvent::Placed {
                task: TaskId(1),
                core: CoreId(2),
                path: nest_simcore::PlacementPath::NestPrimary,
            },
        );
        p.on_event(t(5_000), &TraceEvent::SpinEnd { core: CoreId(2) });
        p.on_event(t(5_400), &start(1, 2));
        p.on_event(t(6_400), &stop(1, 2, StopReason::Exit));
        p.on_event(t(6_400), &exited(1));
        p.on_finish(t(10_000));
        let m = &p.metrics;
        assert_eq!(m.phases[idx("merge_wait")].sum, 4_000);
        assert_eq!(m.phases[idx("spin_overlap")].sum, 400);
        assert_eq!(m.phases[idx("migration_stall")].sum, 0);
        assert_eq!(m.identity_violations, 0);
        assert_eq!(m.total.sum, 6_400);
    }

    #[test]
    fn cross_ccx_resume_is_a_migration_stall() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(t(0), &created(1));
        p.on_event(t(0), &start(1, 0)); // CCX 0
        p.on_event(t(1_000), &stop(1, 0, StopReason::Block));
        p.on_event(t(2_000), &TraceEvent::Woken { task: TaskId(1) });
        p.on_event(t(2_500), &start(1, 16)); // CCX 1
        p.on_event(t(3_000), &stop(1, 16, StopReason::Exit));
        p.on_event(t(3_000), &exited(1));
        p.on_finish(t(3_000));
        let m = &p.metrics;
        assert_eq!(m.phases[idx("migration_stall")].sum, 500);
        assert_eq!(m.phases[idx("merge_wait")].sum, 1_000);
        assert_eq!(m.identity_violations, 0);
    }

    #[test]
    fn preemption_wait_is_runqueue_time() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(t(0), &created(1));
        p.on_event(t(0), &start(1, 0));
        p.on_event(t(1_000), &stop(1, 0, StopReason::Preempt));
        p.on_event(t(4_000), &start(1, 0));
        p.on_event(t(5_000), &stop(1, 0, StopReason::Exit));
        p.on_event(t(5_000), &exited(1));
        p.on_finish(t(5_000));
        let m = &p.metrics;
        assert_eq!(m.phases[idx("runqueue_wait")].sum, 3_000);
        assert_eq!(m.identity_violations, 0);
    }

    #[test]
    fn non_request_tasks_are_ignored() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(
            t(0),
            &TraceEvent::TaskCreated {
                task: TaskId(7),
                label: "worker-1".to_string(),
                parent: None,
            },
        );
        p.on_event(t(0), &start(7, 0));
        p.on_event(t(500), &stop(7, 0, StopReason::Exit));
        p.on_event(t(500), &exited(7));
        p.on_finish(t(500));
        assert_eq!(p.metrics.requests, 0);
    }

    #[test]
    fn merge_is_order_independent_and_json_round_trips() {
        let mk = |latency: u64| {
            let mut p = probe();
            let t = Time::from_nanos;
            p.on_event(t(0), &created(1));
            p.on_event(t(10), &start(1, 0));
            p.on_event(t(latency), &stop(1, 0, StopReason::Exit));
            p.on_event(t(latency), &exited(1));
            p.on_finish(t(latency));
            p.metrics
        };
        let a = mk(5_000);
        let b = mk(50_000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.runs, 2);
        assert_eq!(ab.requests, 2);
        let json = ab.to_json();
        for key in ["runs", "requests", "identity_violations", "total", "phases"] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        for name in PHASE_NAMES {
            assert!(
                json.get("phases").and_then(|p| p.get(name)).is_some(),
                "missing phase {name}"
            );
        }
        let text = json.to_pretty();
        assert_eq!(nest_simcore::json::parse(&text).unwrap(), json);
    }

    #[test]
    fn snapshot_round_trip_preserves_inflight_attribution() {
        let t = Time::from_nanos;
        let feed_first_half = |p: &mut PhaseBreakdownProbe| {
            p.on_event(t(0), &created(1));
            p.on_event(t(100), &start(1, 0));
            p.on_event(t(900), &stop(1, 0, StopReason::Block));
            p.on_event(t(950), &TraceEvent::SpinStart { core: CoreId(3) });
            p.on_event(t(1_000), &created(2));
        };
        let feed_second_half = |p: &mut PhaseBreakdownProbe| {
            p.on_event(t(2_000), &TraceEvent::Woken { task: TaskId(1) });
            p.on_event(t(2_400), &start(1, 16));
            p.on_event(t(3_000), &stop(1, 16, StopReason::Exit));
            p.on_event(t(3_000), &exited(1));
            p.on_event(t(3_500), &start(2, 3));
            p.on_event(t(4_000), &stop(2, 3, StopReason::Exit));
            p.on_event(t(4_000), &exited(2));
            p.on_finish(t(4_000));
        };

        let mut straight = probe();
        feed_first_half(&mut straight);
        let (kind, state) = straight.snap().unwrap();
        assert_eq!(kind, "metrics.phase");

        let mut restored = probe();
        restored.snap_restore(&state).unwrap();
        feed_second_half(&mut straight);
        feed_second_half(&mut restored);
        assert_eq!(straight.metrics, restored.metrics);
        assert_eq!(restored.metrics.requests, 2);
        assert_eq!(restored.metrics.identity_violations, 0);
    }
}
