//! Single-run simulation driver.
//!
//! [`run_once`] wires an [`Engine`] with the standard probe set
//! (underload, frequency residency, placement counts, wakeup latency,
//! optionally a full execution trace), executes a workload, and returns a
//! [`RunResult`] carrying every metric the paper's figures need.

use std::cell::RefCell;
use std::rc::Rc;

use nest_engine::{Engine, EngineConfig, RunOutcome};
use nest_faults::FaultPlan;
use nest_freq::Governor;
use nest_metrics::{
    ExecutionTrace, FreqResidency, FreqResidencyProbe, PhaseBreakdownProbe, PhaseMetrics,
    PlacementCounts, ServeMetrics, ServeMetricsProbe, UnderloadData, UnderloadProbe,
    WakeupLatencies, WakeupLatencyProbe,
};
use nest_metrics::{FleetRunStats, FleetSummary, LatencySummary, RunSummary, ServeSummary};
use nest_obs::{
    DecisionMetrics, DecisionMetricsProbe, EventClass, InvariantChecker, InvariantCounts,
    TimeSeries, TimeSeriesSampler, TraceCollector,
};
use nest_sched::{Cfs, CfsParams, Nest, NestParams, SchedPolicy, Smove, SmoveParams};
use nest_simcore::rng::mix64;
use nest_simcore::{CoreId, Freq, Probe, SimRng, Time};
use nest_topology::MachineSpec;
use nest_workloads::Workload;

/// Which scheduling policy to run.
#[derive(Clone, Debug)]
pub enum PolicyKind {
    /// Linux CFS baseline (§2.1).
    Cfs,
    /// CFS with explicit parameters.
    CfsWith(CfsParams),
    /// The Nest scheduler with Table 1 defaults (§3).
    Nest,
    /// Nest with explicit parameters (ablations, §5.2/5.3).
    NestWith(NestParams),
    /// The Smove baseline (§2.2).
    Smove,
    /// Smove with explicit parameters.
    SmoveWith(SmoveParams),
}

impl PolicyKind {
    /// Short label used in figures ("CFS", "Nest", "Smove").
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Cfs | PolicyKind::CfsWith(_) => "CFS",
            PolicyKind::Nest | PolicyKind::NestWith(_) => "Nest",
            PolicyKind::Smove | PolicyKind::SmoveWith(_) => "Smove",
        }
    }

    fn build(&self, n_cores: usize) -> Box<dyn SchedPolicy> {
        match self {
            PolicyKind::Cfs => Box::new(Cfs::new()),
            PolicyKind::CfsWith(p) => Box::new(Cfs::with_params(p.clone())),
            PolicyKind::Nest => Box::new(Nest::new(n_cores)),
            PolicyKind::NestWith(p) => Box::new(Nest::with_params(n_cores, p.clone())),
            PolicyKind::Smove => Box::new(Smove::new()),
            PolicyKind::SmoveWith(p) => Box::new(Smove::with_params(p.clone())),
        }
    }
}

/// Configuration of a simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine preset (Table 2).
    pub machine: MachineSpec,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Power governor.
    pub governor: Governor,
    /// Base RNG seed; [`run_seed`] derives per-run seeds from it.
    pub seed: u64,
    /// Safety horizon.
    pub horizon: Time,
    /// Collect a full execution trace (memory-heavy; figures 2/8 only).
    pub collect_trace: bool,
    /// Fault-injection plan. The default (empty) plan adds no events and
    /// draws no randomness, leaving runs byte-identical to a build
    /// without fault support.
    pub faults: FaultPlan,
    /// Deterministic watchdog: abort the run (keeping partial results)
    /// after dispatching this many engine events.
    pub event_budget: Option<u64>,
    /// Wall-clock watchdog; aborted results are *not* deterministic.
    pub wall_limit: Option<std::time::Duration>,
}

impl SimConfig {
    /// A CFS-schedutil configuration for `machine` (the paper's baseline).
    pub fn new(machine: MachineSpec) -> SimConfig {
        SimConfig {
            machine,
            policy: PolicyKind::Cfs,
            governor: Governor::Schedutil,
            seed: 1,
            horizon: Time::from_secs(600),
            collect_trace: false,
            faults: FaultPlan::default(),
            event_budget: None,
            wall_limit: None,
        }
    }

    /// Sets the policy.
    pub fn policy(mut self, policy: PolicyKind) -> SimConfig {
        self.policy = policy;
        self
    }

    /// Sets the governor.
    pub fn governor(mut self, governor: Governor) -> SimConfig {
        self.governor = governor;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Sets the horizon.
    pub fn horizon(mut self, horizon: Time) -> SimConfig {
        self.horizon = horizon;
        self
    }

    /// Enables execution-trace collection.
    pub fn with_trace(mut self) -> SimConfig {
        self.collect_trace = true;
        self
    }

    /// Sets the fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> SimConfig {
        self.faults = faults;
        self
    }

    /// Sets the deterministic event-budget watchdog.
    pub fn event_budget(mut self, budget: Option<u64>) -> SimConfig {
        self.event_budget = budget;
        self
    }

    /// Sets the wall-clock watchdog.
    pub fn wall_limit(mut self, limit: Option<std::time::Duration>) -> SimConfig {
        self.wall_limit = limit;
        self
    }

    /// Figure label like `"Nest sched"`.
    pub fn label(&self) -> String {
        format!("{} {}", self.policy.label(), self.governor.short_name())
    }
}

/// All metrics from one run.
#[derive(Debug)]
pub struct RunResult {
    /// Wall-clock completion time in (simulated) seconds.
    pub time_s: f64,
    /// CPU energy in joules.
    pub energy_j: f64,
    /// Underload data (§5.2).
    pub underload: UnderloadData,
    /// Frequency residency (Figures 6/11).
    pub freq: FreqResidency,
    /// Placement accounting.
    pub placements: PlacementCounts,
    /// Wakeup latencies (schbench).
    pub latency: WakeupLatencies,
    /// Execution trace, when requested.
    pub trace: Option<ExecutionTrace>,
    /// Scheduling-decision metrics (telemetry only; deliberately not part
    /// of [`RunSummary`], which is cached and serialized into artifacts).
    pub decision: DecisionMetrics,
    /// Request-serving metrics. Default (all-zero) unless the workload
    /// carried serve specs; the scalar [`ServeSummary`] projection *does*
    /// travel in [`RunSummary`], so serving figures work from the cache.
    pub serve: ServeMetrics,
    /// Total tasks created.
    pub total_tasks: usize,
    /// Whether the horizon cut the run short.
    pub hit_horizon: bool,
    /// Whether a watchdog aborted the run (partial results).
    pub aborted: bool,
    /// Kernel-state invariant tallies from the always-on counting
    /// checker (telemetry only, like `decision`).
    pub invariants: InvariantCounts,
    /// Per-request latency-phase breakdown (§PAPER Fig. 2's "where did
    /// the time go" lens). Default (all-zero) unless the workload served
    /// requests; telemetry only, never part of [`RunSummary`].
    pub phases: PhaseMetrics,
    /// Interval-sampled machine state (utilization, frequency, nest
    /// occupancy, power). Always collected; telemetry only.
    pub timeseries: TimeSeries,
    /// Fleet (multi-host) client-side statistics. `None` unless the
    /// workload ran under a `fleet:` front-end; for fleet runs, see
    /// [`crate::fleet`] for what the merged single-host fields mean.
    pub fleet: Option<FleetRunStats>,
}

impl RunResult {
    /// Reduces the run to its plain-data summary (the form the experiment
    /// harness caches and serializes). The execution trace and raw latency
    /// samples are dropped; everything a non-trace figure reads survives.
    pub fn summarize(&self) -> RunSummary {
        let mut placements: Vec<(String, u64)> = self
            .placements
            .by_path
            .iter()
            .map(|(p, n)| (format!("{p:?}"), *n))
            .collect();
        placements.sort();
        RunSummary {
            time_s: self.time_s,
            energy_j: self.energy_j,
            underload_per_s: self.underload.underload_per_second(),
            total_underload: self.underload.total_underload(),
            freq_edges_ghz: self.freq.edges_ghz.clone(),
            freq_busy_ns: self.freq.busy_ns.clone(),
            placements,
            distinct_cores: self.placements.distinct_cores(),
            latency: LatencySummary::from_latencies(&self.latency),
            total_tasks: self.total_tasks,
            hit_horizon: self.hit_horizon,
            serve: (self.serve.runs > 0).then(|| ServeSummary::from_metrics(&self.serve)),
            fleet: self.fleet.as_ref().map(FleetSummary::from_stats),
        }
    }
}

/// Moves one result out of a shared probe once the run is over.
fn take<P, T: Default>(probe: &Rc<RefCell<P>>, result: impl FnOnce(&mut P) -> &mut T) -> T {
    std::mem::take(result(&mut probe.borrow_mut()))
}

/// Attaches `probe` to `engine` and returns the caller's handle to it.
fn attach<P: Probe + 'static>(engine: &mut Engine, probe: P) -> Rc<RefCell<P>> {
    let shared = Rc::new(RefCell::new(probe));
    engine.add_probe(Box::new(Rc::clone(&shared)));
    shared
}

/// The standard probe rig, shared with the engine that drives it; each
/// probe keeps its result until [`collect_result`] moves it out.
///
/// The rig is built by [`build_engine`] in one fixed attachment order —
/// the order [`Engine::snapshot`] records and
/// [`crate::snapshot::restore`] must replay exactly.
pub(crate) struct ProbeRig {
    underload: Rc<RefCell<UnderloadProbe>>,
    freq: Rc<RefCell<FreqResidencyProbe>>,
    placements: Rc<RefCell<PlacementCounts>>,
    latency: Rc<RefCell<WakeupLatencyProbe>>,
    decision: Rc<RefCell<DecisionMetricsProbe>>,
    invariants: Rc<RefCell<InvariantChecker>>,
    serve: Option<Rc<RefCell<ServeMetricsProbe>>>,
    phases: Option<Rc<RefCell<PhaseBreakdownProbe>>>,
    /// The run/frequency capture of a traced run, with each core's
    /// starting frequency.
    trace: Option<(Rc<RefCell<TraceCollector>>, Vec<Freq>)>,
    timeseries: Rc<RefCell<TimeSeriesSampler>>,
}

/// Builds an [`Engine`] for `cfg` with the standard probe rig attached
/// (in the fixed order snapshot restore relies on), plus any caller
/// probes. `serve_slos` carries the per-spec SLOs when the workload
/// serves requests; the serve probe is attached only then, so
/// non-serving runs draw the same probe set (and bytes) as before the
/// serving subsystem existed.
pub(crate) fn build_engine(
    cfg: &SimConfig,
    serve_slos: Vec<u64>,
    extra_probes: Vec<Box<dyn Probe>>,
) -> (Engine, ProbeRig) {
    let n_cores = cfg.machine.n_cores();
    let engine_cfg = EngineConfig::new(cfg.machine.clone())
        .governor(cfg.governor)
        .seed(cfg.seed)
        .horizon(cfg.horizon)
        .faults(cfg.faults.clone())
        .event_budget(cfg.event_budget)
        .wall_limit(cfg.wall_limit);
    let mut engine = Engine::new(engine_cfg, cfg.policy.build(n_cores));

    let underload = attach(&mut engine, UnderloadProbe::new(n_cores));
    let initial_freq = cfg.governor.idle_floor(&cfg.machine.freq);
    let freq = attach(
        &mut engine,
        FreqResidencyProbe::new(
            n_cores,
            &cfg.machine.freq.residency_buckets_ghz,
            initial_freq,
        ),
    );
    let placements = attach(&mut engine, PlacementCounts::new(n_cores));
    let latency = attach(&mut engine, WakeupLatencyProbe::default());
    let topo = nest_topology::Topology::new(cfg.machine.clone());
    let (ccx_of, socket_of): (Vec<u32>, Vec<u32>) = (0..n_cores)
        .map(|c| {
            let core = CoreId::from_index(c);
            (
                topo.ccx_of(core).index() as u32,
                topo.socket_of(core).index() as u32,
            )
        })
        .unzip();
    let decision = attach(
        &mut engine,
        DecisionMetricsProbe::new(ccx_of.clone(), socket_of.clone()),
    );
    let invariants = attach(
        &mut engine,
        InvariantChecker::new(
            n_cores,
            cfg.machine.freq.fmin.as_khz(),
            cfg.machine.freq.fmax().as_khz(),
        ),
    );
    let (serve, phases) = if serve_slos.is_empty() {
        (None, None)
    } else {
        let serve = attach(&mut engine, ServeMetricsProbe::new(serve_slos));
        let phases = attach(
            &mut engine,
            PhaseBreakdownProbe::new(&cfg.machine, ccx_of.clone()),
        );
        (Some(serve), Some(phases))
    };
    let trace = cfg.collect_trace.then(|| {
        let collector =
            TraceCollector::new(usize::MAX).with_classes(&[EventClass::Run, EventClass::Freq]);
        (attach(&mut engine, collector), vec![initial_freq; n_cores])
    });
    let timeseries = attach(
        &mut engine,
        TimeSeriesSampler::new(&cfg.machine, ccx_of, socket_of),
    );
    for p in extra_probes {
        engine.add_probe(p);
    }

    let rig = ProbeRig {
        underload,
        freq,
        placements,
        latency,
        decision,
        invariants,
        serve,
        phases,
        trace,
        timeseries,
    };
    (engine, rig)
}

/// Builds the workload's tasks into `engine` and injects materialized
/// request arrivals. Fresh runs only — a restored engine repopulates
/// tasks and pending injections from the snapshot instead.
pub(crate) fn setup_workload(engine: &mut Engine, cfg: &SimConfig, workload: &dyn Workload) {
    let spawned = spawn_tasks(engine, cfg.seed, workload);
    let serve_specs = workload.serve_specs();
    assert!(
        spawned > 0 || !serve_specs.is_empty(),
        "workload built no tasks"
    );
    // Requests arrive through the engine's event queue at materialized
    // times: a pure function of (spec, plan index, base seed), never of
    // engine state, so arrival streams are byte-identical at any worker
    // count and under any colocation.
    for (plan, spec) in serve_specs.iter().enumerate() {
        for (at_ns, task) in nest_serve::materialize(spec, plan, cfg.seed) {
            engine.inject_at(Time::from_nanos(at_ns), task);
        }
    }
}

/// Builds the workload's tasks from its RNG stream for `seed` and
/// spawns them into `engine`; returns how many it spawned.
pub(crate) fn spawn_tasks(engine: &mut Engine, seed: u64, workload: &dyn Workload) -> usize {
    let mut wl_rng = SimRng::new(seed ^ 0xD00D_F00D);
    let tasks = workload.build(engine, &mut wl_rng);
    let spawned = tasks.len();
    for t in tasks {
        engine.spawn(t);
    }
    spawned
}

/// Drains the probe rig into a [`RunResult`] once the run is over.
pub(crate) fn collect_result(outcome: &RunOutcome, rig: ProbeRig) -> RunResult {
    let serve = match rig.serve {
        Some(p) => ServeMetrics {
            energy_j: outcome.energy_joules,
            ..take(&p, |p| &mut p.metrics)
        },
        None => ServeMetrics::default(),
    };
    RunResult {
        time_s: outcome.finished_at.as_secs_f64(),
        energy_j: outcome.energy_joules,
        underload: take(&rig.underload, |p| &mut p.data),
        freq: take(&rig.freq, |p| &mut p.residency),
        placements: take(&rig.placements, |p| p),
        latency: take(&rig.latency, |p| &mut p.latencies),
        trace: rig.trace.map(|(collector, freq)| {
            let log = take(&collector, |c| &mut c.log);
            ExecutionTrace::from_events(freq, &log.events, log.duration)
        }),
        decision: take(&rig.decision, |p| &mut p.metrics),
        serve,
        total_tasks: outcome.total_tasks,
        hit_horizon: outcome.hit_horizon,
        aborted: outcome.aborted,
        invariants: take(&rig.invariants, |p| &mut p.counts),
        phases: rig
            .phases
            .map(|p| take(&p, |p| &mut p.metrics))
            .unwrap_or_default(),
        timeseries: take(&rig.timeseries, |p| &mut p.series),
        fleet: None,
    }
}

/// Runs `workload` once under `cfg`.
pub fn run_once(cfg: &SimConfig, workload: &dyn Workload) -> RunResult {
    run_once_with(cfg, workload, Vec::new())
}

/// Runs `workload` once under `cfg` with additional caller probes
/// attached alongside the standard set (e.g. `nest-sim trace`'s
/// `TraceCollector`). Probes only observe, so extra probes cannot change
/// the simulation outcome.
pub fn run_once_with(
    cfg: &SimConfig,
    workload: &dyn Workload,
    extra_probes: Vec<Box<dyn Probe>>,
) -> RunResult {
    if let Some(fleet) = workload.fleet_spec() {
        return crate::fleet::run_fleet(cfg, workload, &fleet, extra_probes);
    }
    let slos = workload.serve_specs().iter().map(|s| s.slo_ns).collect();
    let (mut engine, rig) = build_engine(cfg, slos, extra_probes);
    setup_workload(&mut engine, cfg, workload);
    let outcome = engine.run();
    collect_result(&outcome, rig)
}

/// Derives the seed of run `i` from a base seed.
///
/// A SplitMix-style mix rather than an additive offset, so per-run streams
/// are statistically independent and a run's seed is a pure function of
/// `(base, i)` — the property the parallel harness relies on to produce
/// byte-identical results regardless of worker count or completion order.
pub fn run_seed(base: u64, i: usize) -> u64 {
    mix64(base, i as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_topology::presets;
    use nest_workloads::configure::Configure;

    fn quick_cfg() -> SimConfig {
        SimConfig::new(presets::xeon_5218())
    }

    #[test]
    fn run_once_produces_metrics() {
        let r = run_once(&quick_cfg(), &Configure::named("gdb"));
        assert!(r.time_s > 0.0);
        assert!(r.energy_j > 0.0);
        assert!(r.total_tasks > 50);
        assert!(!r.hit_horizon);
        assert!(r.freq.total_busy_ns() > 0);
        assert!(r.placements.total() > 0);
        assert!(r.trace.is_none());
        assert_eq!(r.phases.runs, 0, "non-serving runs skip the phase probe");
        assert!(!r.timeseries.is_empty(), "time series always sampled");
    }

    #[test]
    fn trace_collection_is_optional() {
        let cfg = quick_cfg().with_trace();
        let r = run_once(&cfg, &Configure::named("gdb"));
        let trace = r.trace.expect("trace requested");
        assert!(!trace.spans.is_empty());
    }

    #[test]
    fn run_seeds_vary_runs() {
        let cfg = quick_cfg();
        let rs: Vec<RunResult> = (0..3)
            .map(|i| {
                run_once(
                    &cfg.clone().seed(run_seed(cfg.seed, i)),
                    &Configure::named("gdb"),
                )
            })
            .collect();
        assert_eq!(rs.len(), 3);
        // With jittered workloads, times should not be all identical.
        let t0 = rs[0].time_s;
        assert!(rs.iter().any(|r| (r.time_s - t0).abs() > 1e-12));
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(quick_cfg().label(), "CFS sched");
        assert_eq!(
            quick_cfg()
                .policy(PolicyKind::Nest)
                .governor(Governor::Performance)
                .label(),
            "Nest perf"
        );
    }

    #[test]
    fn builder_setters_cover_engine_fields() {
        let cfg = quick_cfg()
            .horizon(Time::from_secs(30))
            .event_budget(Some(1_000))
            .wall_limit(Some(std::time::Duration::from_secs(5)));
        assert_eq!(cfg.horizon, Time::from_secs(30));
        assert_eq!(cfg.event_budget, Some(1_000));
        assert_eq!(cfg.wall_limit, Some(std::time::Duration::from_secs(5)));
    }

    #[test]
    fn decision_metrics_are_collected() {
        let cfg = quick_cfg().policy(PolicyKind::Nest);
        let r = run_once(&cfg, &Configure::named("gdb"));
        assert_eq!(r.decision.runs, 1);
        assert!(r.decision.sim_ns > 0);
        assert!(r.decision.total_placements() > 0);
        assert!(r.decision.latency_samples > 0);
        assert!(r.decision.nest_transitions > 0, "nest lifecycle traced");
    }

    #[test]
    fn extra_probes_observe_without_perturbing() {
        let cfg = quick_cfg();
        let base = run_once(&cfg, &Configure::named("gdb"));
        let collector = Rc::new(RefCell::new(TraceCollector::new(1 << 16)));
        let r = run_once_with(
            &cfg,
            &Configure::named("gdb"),
            vec![Box::new(Rc::clone(&collector))],
        );
        assert_eq!(r.time_s, base.time_s);
        assert_eq!(r.energy_j, base.energy_j);
        assert!(!collector.borrow().log.events.is_empty());
    }

    #[test]
    fn invariants_hold_on_clean_and_faulted_runs() {
        let clean = run_once(
            &quick_cfg().policy(PolicyKind::Nest),
            &Configure::named("gdb"),
        );
        assert_eq!(clean.invariants.violations, 0, "{:?}", clean.invariants);
        assert!(clean.invariants.completed);
        assert!(!clean.aborted);

        let faulted_cfg = quick_cfg()
            .policy(PolicyKind::Nest)
            .faults(FaultPlan::parse("faults:hotplug=2@50ms:100ms,throttle=s0:0.8@80ms").unwrap());
        let faulted = run_once(&faulted_cfg, &Configure::named("gdb"));
        assert_eq!(faulted.invariants.violations, 0, "{:?}", faulted.invariants);
        assert!(faulted.invariants.completed);
    }

    #[test]
    fn empty_fault_plan_leaves_runs_byte_identical() {
        let base = run_once(&quick_cfg(), &Configure::named("gdb"));
        let cfg = quick_cfg()
            .faults(FaultPlan::default())
            .event_budget(None)
            .wall_limit(None);
        let same = run_once(&cfg, &Configure::named("gdb"));
        assert_eq!(base.time_s, same.time_s);
        assert_eq!(base.energy_j, same.energy_j);
    }

    #[test]
    fn event_budget_surfaces_as_aborted() {
        let cfg = quick_cfg().event_budget(Some(200));
        let r = run_once(&cfg, &Configure::named("gdb"));
        assert!(r.aborted);
        assert!(r.time_s > 0.0, "partial results survive");
    }

    #[test]
    fn serving_run_measures_requests() {
        use nest_workloads::{ServeLoad, ServeSpec};
        let spec = ServeSpec {
            rate: 2_000.0,
            requests: 300,
            service_ms: 0.5,
            ..ServeSpec::default()
        };
        let cfg = quick_cfg().policy(PolicyKind::Nest);
        let r = run_once(&cfg, &ServeLoad::new(spec));
        assert_eq!(r.serve.runs, 1);
        assert_eq!(r.serve.offered, 300);
        assert_eq!(r.serve.completed, 300, "all requests finish");
        assert_eq!(r.serve.hist.len(), 300);
        assert!(r.serve.hist.quantile(0.99).is_some());
        assert!(r.serve.energy_j > 0.0);
        assert_eq!(r.phases.runs, 1, "serving runs attribute latency");
        assert_eq!(r.phases.requests, 300);
        assert_eq!(r.phases.identity_violations, 0);
        assert_eq!(
            r.phases.total.sum,
            (0..nest_metrics::N_PHASES)
                .map(|i| r.phases.phases[i].sum)
                .sum::<u64>(),
            "phase durations sum to measured latency"
        );
        let summary = r.summarize();
        let s = summary.serve.expect("serving summary present");
        assert_eq!(s.offered, 300);
        assert!(s.p999_ns.unwrap() >= s.p50_ns.unwrap());
    }

    #[test]
    fn serving_runs_are_deterministic_and_colocate() {
        use nest_workloads::{Multi, ServeLoad, ServeSpec, Workload};
        let mk = || {
            let spec = ServeSpec {
                rate: 1_000.0,
                requests: 100,
                fanout: 3,
                ..ServeSpec::default()
            };
            Multi::new(vec![
                Box::new(ServeLoad::new(spec)) as Box<dyn Workload>,
                Box::new(nest_workloads::hackbench::Hackbench::new(Default::default())),
            ])
        };
        let a = run_once(&quick_cfg(), &mk());
        let b = run_once(&quick_cfg(), &mk());
        assert_eq!(a.serve, b.serve);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.serve.offered, 100);
        assert_eq!(a.serve.completed, 100, "fan-out requests complete");
    }

    #[test]
    fn non_serving_runs_carry_no_serve_block() {
        let r = run_once(&quick_cfg(), &Configure::named("gdb"));
        assert_eq!(r.serve.runs, 0);
        assert!(r.summarize().serve.is_none());
    }

    #[test]
    fn nest_policy_builds_and_runs() {
        let cfg = quick_cfg().policy(PolicyKind::Nest);
        let r = run_once(&cfg, &Configure::named("gdb"));
        assert!(!r.hit_horizon);
        // Nest must actually use its nest paths.
        use nest_simcore::PlacementPath;
        let nest_hits = r.placements.count(PlacementPath::NestPrimary)
            + r.placements.count(PlacementPath::NestReserve);
        assert!(nest_hits > 0, "nest never used its nests");
    }
}
