//! The parallel, deterministic experiment runner.
//!
//! A [`Matrix`] holds a list of experiments — each one a `(machine ×
//! scheduler setups × workload × runs)` block — and executes the flattened
//! cell list across worker threads. Three properties make the fan-out
//! safe and reproducible:
//!
//! 1. **Per-cell seeds are pure functions of coordinates.** Every cell's
//!    seed is a SplitMix chain over `(base seed, workload, machine, setup
//!    identity, run index)`, so a cell computes the same result whether it
//!    runs first on one thread or last on sixteen.
//! 2. **Engine graphs never cross threads.** The simulation engine is an
//!    `Rc`/`RefCell` object graph; each worker constructs its workload and
//!    engine locally and only the plain-data [`RunResult`] escapes.
//! 3. **Results are placed by cell index, not completion order.** Workers
//!    pull cells from an atomic cursor and write into a preallocated slot
//!    table; one fold consumes the table in index order.
//!
//! Consequently `NEST_JOBS=1` and `NEST_JOBS=8` produce byte-identical
//! comparisons and artifacts — a property the determinism tests pin down.
//!
//! The runner is also *hardened*: each cell executes under
//! `catch_unwind`, so one panicking simulation is recorded as a failed
//! cell in [`Telemetry`] while every other cell completes; watchdogs
//! from `NEST_EVENT_BUDGET` (deterministic) and `NEST_WATCHDOG_S`
//! (wall-clock) abort runaway cells with partial results; and the
//! always-on invariant checker's tallies are merged into telemetry.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nest_core::experiment::{Comparison, SchedulerSetup};
use nest_core::{run_once, RunResult, SimConfig};
use nest_faults::FaultPlan;
use nest_metrics::{FleetMetrics, PhaseMetrics, RunSummary, ServeMetrics};
use nest_obs::{DecisionMetrics, InvariantCounts, TimeSeries};
use nest_scenario::{Scenario, ScenarioError};
use nest_simcore::profile;
use nest_simcore::rng::{hash_str, mix64};
use nest_simcore::Time;
use nest_topology::MachineSpec;
use nest_workloads::Workload;

use crate::cache::{cell_identity, cell_key, scenario_cell_identity, Cache};
use crate::progress::Progress;

/// Constructs a fresh workload inside a worker thread. Factories capture
/// only plain specs; the (possibly `Rc`-laden) workload itself never
/// crosses a thread boundary.
pub type WorkloadFactory = Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>;

/// How many per-cell time series one telemetry artifact keeps. Every
/// simulated cell samples a [`TimeSeries`]; keeping them all would make
/// large matrices' telemetry files enormous, so [`Matrix::run`] keeps the
/// lexicographically first few by cell label (an order-independent
/// selection), [`run_raw`] the first few cells, and both count the rest
/// as dropped.
pub const TELEMETRY_TIMESERIES_CAP: usize = 4;

/// Number of worker threads, from `NEST_JOBS` (default: the machine's
/// available parallelism).
pub fn jobs() -> usize {
    std::env::var("NEST_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&j| j > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One `(machine × setups × workload)` block of the matrix.
struct Experiment {
    machine: MachineSpec,
    setups: Vec<SchedulerSetup>,
    runs: usize,
    workload: String,
    factory: WorkloadFactory,
    /// Per-setup scenario cache scopes, when the block was added via
    /// [`Matrix::add_scenarios`]; cache keys then derive from the
    /// scenario identity instead of the legacy field list.
    scopes: Option<Vec<String>>,
    /// Base-seed override (scenario blocks carry their own seed).
    seed: Option<u64>,
    /// Horizon override (scenario blocks carry their own horizon).
    horizon: Option<Time>,
    /// Fault plan (scenario blocks; the legacy path never injects).
    faults: Option<FaultPlan>,
}

/// One simulation to execute: coordinates plus the derived seed and cache
/// key, all precomputed on the main thread.
struct Cell {
    exp: usize,
    setup: usize,
    run: usize,
    seed: u64,
    key: String,
}

/// Execution statistics of one [`Matrix::run`] call. Wall-clock and cache
/// hits vary across hosts and runs, so this lives in the separate
/// telemetry artifact, never in the deterministic figure artifact.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Worker threads used.
    pub jobs: usize,
    /// Total cells in the matrix.
    pub cells_total: usize,
    /// Cells satisfied from the result cache.
    pub cells_cached: usize,
    /// Wall-clock seconds for the whole matrix.
    pub wall_s: f64,
    /// Simulation events dispatched during the run (cached cells
    /// contribute nothing — their simulations never execute).
    pub events_total: u64,
    /// Engine throughput: `events_total / wall_s`.
    pub events_per_sec: f64,
    /// Scheduling-decision metrics merged (in cell-index order) over the
    /// cells that actually simulated; cache hits contribute nothing, so
    /// on a fully cached run every count is zero.
    pub decision_metrics: DecisionMetrics,
    /// Request-serving metrics merged the same way; all-zero unless some
    /// simulated cell carried serve specs.
    pub serve_metrics: ServeMetrics,
    /// Per-request latency-phase breakdowns merged the same way; all-zero
    /// unless some simulated cell carried serve specs.
    pub phase_metrics: PhaseMetrics,
    /// Multi-host fleet metrics merged the same way; all-zero unless some
    /// simulated cell ran under a `fleet:` front-end.
    pub fleet_metrics: FleetMetrics,
    /// Interval-sampled machine-state series of up to
    /// [`TELEMETRY_TIMESERIES_CAP`] simulated cells, keyed by cell label
    /// (cache hits sample nothing).
    pub timeseries: Vec<(String, TimeSeries)>,
    /// Sampled cells beyond the cap whose series were dropped.
    pub timeseries_dropped: usize,
    /// Per-subsystem profile delta, present when `NEST_PROFILE=1`.
    pub profile: Option<profile::Snapshot>,
    /// Cells whose simulation panicked; the panic was contained and the
    /// rest of the matrix completed. Empty on a healthy run.
    pub failures: Vec<CellFailure>,
    /// Cells a watchdog aborted (partial results kept).
    pub cells_aborted: usize,
    /// Kernel-state invariant tallies merged over the cells that
    /// simulated (cache hits contribute nothing).
    pub invariants: InvariantCounts,
}

/// One contained per-cell failure.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Which cell failed: `workload/machine/setup[run N]`.
    pub cell: String,
    /// The panic message.
    pub message: String,
}

impl Telemetry {
    /// Whether every cell completed without panicking.
    pub fn all_cells_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// An empty fold over `cells_total` cells. The invariant tallies
    /// start `completed` (an empty fold has no incomplete run), which
    /// `InvariantCounts::default()` does not.
    fn new(cells_total: usize) -> Telemetry {
        Telemetry {
            jobs: 0,
            cells_total,
            cells_cached: 0,
            wall_s: 0.0,
            events_total: 0,
            events_per_sec: 0.0,
            decision_metrics: DecisionMetrics::default(),
            serve_metrics: ServeMetrics::default(),
            phase_metrics: PhaseMetrics::default(),
            fleet_metrics: FleetMetrics::default(),
            timeseries: Vec::new(),
            timeseries_dropped: 0,
            profile: None,
            failures: Vec::new(),
            cells_aborted: 0,
            invariants: InvariantCounts {
                completed: true,
                ..InvariantCounts::default()
            },
        }
    }

    /// Folds one simulated cell in. Callers fold in cell-index order: the
    /// merges are order-independent sums except the decision metrics'
    /// occupancy timeline, which belongs to the first contributor.
    fn absorb(&mut self, label: String, r: &RunResult) {
        self.decision_metrics.merge(&r.decision);
        self.serve_metrics.merge(&r.serve);
        self.phase_metrics.merge(&r.phases);
        if let Some(f) = &r.fleet {
            self.fleet_metrics.merge(&f.metrics);
        }
        self.invariants.merge(&r.invariants);
        self.cells_aborted += usize::from(r.aborted);
        if !r.timeseries.is_empty() {
            self.timeseries.push((label, r.timeseries.clone()));
        }
    }

    /// Closes the fold: records the worker count, the wall-clock and
    /// event deltas since `started`/`prof_before`, and keeps the first
    /// [`TELEMETRY_TIMESERIES_CAP`] series in their current order.
    fn finish(&mut self, jobs: usize, started: Instant, prof_before: &profile::Snapshot) {
        let wall_s = started.elapsed().as_secs_f64();
        let delta = profile::snapshot().since(prof_before);
        self.jobs = jobs;
        self.wall_s = wall_s;
        self.events_total = delta.events;
        self.events_per_sec = if wall_s > 0.0 {
            delta.events as f64 / wall_s
        } else {
            0.0
        };
        self.profile = profile::enabled().then_some(delta);
        self.timeseries_dropped = self
            .timeseries
            .len()
            .saturating_sub(TELEMETRY_TIMESERIES_CAP);
        self.timeseries.truncate(TELEMETRY_TIMESERIES_CAP);
    }
}

/// The one worker pool: runs `work(i)` for every `i < n` on up to `jobs`
/// scoped threads that pull indices from a shared cursor, and hands each
/// result to `fold` in index order. A result that finishes ahead of an
/// earlier, slower cell waits in its slot until the fold reaches it, so
/// only that out-of-order window is ever held. Returns the worker count.
///
/// A panic in `work` propagates once every worker has stopped.
fn fan_out<T: Send>(
    n: usize,
    jobs: usize,
    work: impl Fn(usize) -> T + Sync,
    fold: impl FnMut(usize, T) + Send,
) -> usize {
    let workers = jobs.clamp(1, n.max(1));
    let cursor = AtomicUsize::new(0);
    // (next index to fold, the slot table, the fold itself)
    let state = Mutex::new((0, (0..n).map(|_| None).collect::<Vec<Option<T>>>(), fold));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = work(i);
                let mut guard = state.lock().expect("fold panicked");
                let (next, slots, fold) = &mut *guard;
                slots[i] = Some(out);
                while let Some(out) = slots.get_mut(*next).and_then(Option::take) {
                    fold(*next, out);
                    *next += 1;
                }
            });
        }
    });
    workers
}

/// Watchdog limits from the environment: `NEST_EVENT_BUDGET` (events per
/// cell, deterministic) and `NEST_WATCHDOG_S` (wall-clock seconds per
/// cell; aborted results are nondeterministic). Unset means no limit.
pub fn watchdogs_from_env() -> (Option<u64>, Option<std::time::Duration>) {
    let budget = std::env::var("NEST_EVENT_BUDGET")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let wall = std::env::var("NEST_WATCHDOG_S")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(std::time::Duration::from_secs);
    (budget, wall)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The deterministic seed of one cell.
///
/// A SplitMix chain over every coordinate: independent workloads, machines,
/// setups, and runs get statistically independent streams, and the value
/// depends on nothing but the coordinates themselves.
pub fn cell_seed(
    base: u64,
    workload: &str,
    machine: &str,
    setup_identity: &str,
    run: usize,
) -> u64 {
    let mut s = mix64(base, hash_str(workload));
    s = mix64(s, hash_str(machine));
    s = mix64(s, hash_str(setup_identity));
    mix64(s, run as u64)
}

/// What one successfully executed cell produced.
struct CellDone {
    summary: RunSummary,
    /// The full result of a simulated cell; `None` for a cache hit. Held
    /// only until the in-order fold reaches the cell.
    run: Option<RunResult>,
}

/// A batch of experiments executed together across one worker pool.
pub struct Matrix {
    base_seed: u64,
    jobs: usize,
    cache: Cache,
    progress: Progress,
    experiments: Vec<Experiment>,
}

impl Matrix {
    /// A matrix configured from the environment: `NEST_JOBS` workers and
    /// the `NEST_CACHE` cache policy. `label` names the figure in progress
    /// output.
    pub fn new(label: &str, base_seed: u64) -> Matrix {
        Matrix {
            base_seed,
            jobs: jobs(),
            cache: Cache::from_env(),
            progress: Progress::from_env(label),
            experiments: Vec::new(),
        }
    }

    /// Overrides the worker count (tests use this to pin `jobs`).
    pub fn with_jobs(mut self, jobs: usize) -> Matrix {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the cache (tests use a disabled or scratch cache).
    pub fn with_cache(mut self, cache: Cache) -> Matrix {
        self.cache = cache;
        self
    }

    /// Overrides the progress reporter (tests silence it).
    pub fn with_progress(mut self, progress: Progress) -> Matrix {
        self.progress = progress;
        self
    }

    /// Does nothing. Harness warm-start is gone: every cell is a cache
    /// hit or a full `run_once`. `None` is the only value the argument can
    /// take; the method stays only because perfbench still calls
    /// `.with_warm_start(None)`, and goes at the next change to the
    /// benchmark.
    pub fn with_warm_start(self, _off: Option<std::convert::Infallible>) -> Matrix {
        self
    }

    /// Adds one experiment: run `factory`'s workload under every setup on
    /// `machine`, `runs` times each. Experiments appear in the result in
    /// the order they were added.
    pub fn add(
        &mut self,
        machine: MachineSpec,
        setups: &[SchedulerSetup],
        runs: usize,
        factory: WorkloadFactory,
    ) -> &mut Matrix {
        assert!(!setups.is_empty(), "experiment needs at least one setup");
        assert!(runs > 0, "experiment needs at least one run");
        let workload = factory().name();
        self.experiments.push(Experiment {
            machine,
            setups: setups.to_vec(),
            runs,
            workload,
            factory,
            scopes: None,
            seed: None,
            horizon: None,
            faults: None,
        });
        self
    }

    /// Adds one experiment described by [`Scenario`]s: one comparison row
    /// per scenario, in input order. The scenarios must agree on
    /// everything but policy and governor (one block = one machine, one
    /// workload, one seed/runs/horizon), mirroring how the paper compares
    /// scheduler setups on otherwise identical experiments.
    ///
    /// Cell seeds derive from the same coordinates `add` uses — workload
    /// name, machine name, setup Debug identity — so a scenario-built
    /// block reproduces a hand-wired one bit for bit. Cache keys,
    /// however, scope on the scenario's canonical identity string, which
    /// extends caching to any expressible scenario.
    pub fn add_scenarios(&mut self, scenarios: &[Scenario]) -> Result<&mut Matrix, ScenarioError> {
        let first = scenarios
            .first()
            .ok_or_else(|| ScenarioError::MalformedSpec {
                spec: String::new(),
                reason: "experiment needs at least one scenario".into(),
            })?;
        for s in scenarios {
            let shared = (
                s.machine(),
                s.workload(),
                s.seed(),
                s.runs(),
                s.horizon_s(),
                s.faults(),
            );
            let want = (
                first.machine(),
                first.workload(),
                first.seed(),
                first.runs(),
                first.horizon_s(),
                first.faults(),
            );
            if shared != want {
                return Err(ScenarioError::MalformedSpec {
                    spec: s.identity(),
                    reason: format!(
                        "scenarios in one experiment must share machine, workload, \
                         seed, runs, horizon, and faults (expected those of \"{}\")",
                        first.identity()
                    ),
                });
            }
        }
        let workload_spec = first.workload_spec();
        let workload = workload_spec.name();
        self.experiments.push(Experiment {
            machine: first.resolve_machine(),
            setups: scenarios.iter().map(|s| s.setup()).collect(),
            runs: first.runs(),
            workload,
            factory: Box::new(move || workload_spec.build()),
            scopes: Some(scenarios.iter().map(|s| s.cache_scope()).collect()),
            seed: Some(first.seed()),
            horizon: Some(Time::from_secs(first.horizon_s())),
            faults: Some(first.resolve_faults()),
        });
        Ok(self)
    }

    fn flatten(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (ei, e) in self.experiments.iter().enumerate() {
            let machine_debug = format!("{:?}", e.machine);
            let base_seed = e.seed.unwrap_or(self.base_seed);
            let horizon_ns = e
                .horizon
                .unwrap_or_else(|| SimConfig::new(e.machine.clone()).horizon)
                .as_nanos();
            for (si, s) in e.setups.iter().enumerate() {
                let identity = s.identity();
                for run in 0..e.runs {
                    let seed = cell_seed(base_seed, &e.workload, &e.machine.name, &identity, run);
                    let cell_id = match &e.scopes {
                        Some(scopes) => {
                            scenario_cell_identity(&scopes[si], &machine_debug, run, seed)
                        }
                        None => cell_identity(
                            &machine_debug,
                            &identity,
                            &e.workload,
                            run,
                            seed,
                            horizon_ns,
                        ),
                    };
                    cells.push(Cell {
                        exp: ei,
                        setup: si,
                        run,
                        seed,
                        key: cell_key(&cell_id),
                    });
                }
            }
        }
        cells
    }

    /// Executes every cell and assembles one [`Comparison`] per experiment
    /// (in insertion order), plus run telemetry.
    pub fn run(&self) -> (Vec<Comparison>, Telemetry) {
        let started = Instant::now();
        let prof_before = profile::snapshot();
        let cells = self.flatten();
        let total = cells.len();
        let finished = AtomicUsize::new(0);
        // Cells were flattened experiment-major, setup-major, run-minor;
        // the fold consumes them back in the same index order.
        let mut per_exp: Vec<Vec<Vec<RunSummary>>> = self
            .experiments
            .iter()
            .map(|e| {
                e.setups
                    .iter()
                    .map(|_| Vec::with_capacity(e.runs))
                    .collect()
            })
            .collect();
        let mut telemetry = Telemetry::new(total);
        let workers = fan_out(
            total,
            self.jobs,
            |i| {
                // One panicking simulation must not take down the
                // matrix: contain it and record the cell as failed.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.execute(&cells[i])
                }))
                .map_err(panic_message);
                self.progress
                    .cell_done(finished.fetch_add(1, Ordering::Relaxed) + 1, total);
                outcome
            },
            |i, outcome| {
                let cell = &cells[i];
                let e = &self.experiments[cell.exp];
                let label = format!(
                    "{}/{}/{}[run {}]",
                    e.workload,
                    e.machine.name,
                    e.setups[cell.setup].label(),
                    cell.run
                );
                let done = match outcome {
                    Ok(done) => done,
                    Err(message) => {
                        telemetry.failures.push(CellFailure {
                            cell: label,
                            message,
                        });
                        return;
                    }
                };
                match &done.run {
                    Some(r) => telemetry.absorb(label, r),
                    None => telemetry.cells_cached += 1,
                }
                per_exp[cell.exp][cell.setup].push(done.summary);
            },
        );
        // A comparison needs at least one surviving run per setup; an
        // experiment that lost a whole setup is dropped (and recorded),
        // while every other experiment's section is kept.
        let mut comparisons = Vec::new();
        for (e, summaries) in self.experiments.iter().zip(per_exp) {
            if summaries.iter().all(|runs| !runs.is_empty()) {
                comparisons.push(Comparison::from_summaries(
                    &e.workload,
                    &e.machine.name,
                    &e.setups,
                    summaries,
                ));
            } else {
                telemetry.failures.push(CellFailure {
                    cell: format!("{}/{}", e.workload, e.machine.name),
                    message: "every run of at least one setup failed; comparison dropped"
                        .to_string(),
                });
            }
        }

        // Keep the series of the lexicographically first cell labels (an
        // order-independent selection).
        telemetry.timeseries.sort_by(|a, b| a.0.cmp(&b.0));
        telemetry.finish(workers, started, &prof_before);
        self.progress.finished(&telemetry);
        (comparisons, telemetry)
    }

    /// Runs one cell: cache lookup, else simulate and store. Cache hits
    /// carry no decision metrics or invariant tallies (the simulation
    /// never executed).
    fn execute(&self, cell: &Cell) -> CellDone {
        if let Some(summary) = self.cache.lookup(&cell.key) {
            return CellDone { summary, run: None };
        }
        let e = &self.experiments[cell.exp];
        let setup = &e.setups[cell.setup];
        let (event_budget, wall_limit) = watchdogs_from_env();
        let mut cfg = SimConfig::new(e.machine.clone())
            .policy(setup.policy.clone())
            .governor(setup.governor)
            .seed(cell.seed)
            .event_budget(event_budget)
            .wall_limit(wall_limit);
        if let Some(h) = e.horizon {
            cfg = cfg.horizon(h);
        }
        if let Some(f) = &e.faults {
            cfg = cfg.faults(f.clone());
        }
        let result = run_once(&cfg, (e.factory)().as_ref());
        let summary = result.summarize();
        // An aborted (watchdog-cut) cell keeps its partial summary but
        // is never cached: a rerun with a different budget must recompute.
        if !result.aborted {
            self.cache.store(&cell.key, &summary);
        }
        CellDone {
            summary,
            run: Some(result),
        }
    }
}

/// One raw simulation for trace figures (2, 3, 8): full [`RunResult`]s are
/// too heavy to cache but the fan-out and seed discipline still apply.
pub struct RawCell {
    /// Fully-specified configuration (seed already derived by the caller).
    pub cfg: SimConfig,
    /// Workload constructor, invoked inside the worker.
    pub make: WorkloadFactory,
}

/// Executes raw cells across `jobs` workers, returning results in input
/// order plus run telemetry (raw cells never hit the cache). Used by the
/// trace figures, which consume full [`RunResult`]s (execution traces,
/// raw latency samples) that the caching path drops.
pub fn run_raw(cells: Vec<RawCell>, jobs: usize) -> (Vec<RunResult>, Telemetry) {
    let started = Instant::now();
    let prof_before = profile::snapshot();
    let mut telemetry = Telemetry::new(cells.len());
    let mut results = Vec::with_capacity(cells.len());
    let workers = fan_out(
        cells.len(),
        jobs,
        |i| run_once(&cells[i].cfg, (cells[i].make)().as_ref()),
        |i, r| {
            telemetry.absorb(format!("cell {i}"), &r);
            results.push(r);
        },
    );
    telemetry.finish(workers, started, &prof_before);
    (results, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_core::Governor;
    use nest_core::PolicyKind;
    use nest_topology::presets;
    use nest_workloads::configure::Configure;

    fn gdb_factory() -> WorkloadFactory {
        Box::new(|| Box::new(Configure::named("gdb")))
    }

    fn small_matrix(jobs: usize) -> Matrix {
        let mut m = Matrix::new("test", 7)
            .with_jobs(jobs)
            .with_cache(Cache::disabled())
            .with_progress(Progress::quiet());
        m.add(
            presets::xeon_5218(),
            &[
                SchedulerSetup::new(PolicyKind::Cfs, Governor::Schedutil),
                SchedulerSetup::new(PolicyKind::Nest, Governor::Schedutil),
            ],
            2,
            gdb_factory(),
        );
        m
    }

    #[test]
    fn cell_seed_is_coordinate_pure() {
        let a = cell_seed(42, "w", "m", "s", 0);
        assert_eq!(a, cell_seed(42, "w", "m", "s", 0));
        assert_ne!(a, cell_seed(43, "w", "m", "s", 0));
        assert_ne!(a, cell_seed(42, "x", "m", "s", 0));
        assert_ne!(a, cell_seed(42, "w", "n", "s", 0));
        assert_ne!(a, cell_seed(42, "w", "m", "t", 0));
        assert_ne!(a, cell_seed(42, "w", "m", "s", 1));
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let (serial, t1) = small_matrix(1).run();
        let (parallel, t4) = small_matrix(4).run();
        assert_eq!(t1.jobs, 1);
        assert_eq!(t4.jobs, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.workload, b.workload);
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(ra.runs, rb.runs, "{}", ra.label);
                assert_eq!(ra.time.mean, rb.time.mean);
            }
        }
    }

    #[test]
    fn telemetry_carries_decision_metrics() {
        let (_, t) = small_matrix(2).run();
        // Cache disabled: every cell simulated, so every run contributed.
        assert_eq!(t.decision_metrics.runs as usize, t.cells_total);
        assert!(t.decision_metrics.total_placements() > 0);
        assert!(t.decision_metrics.sim_ns > 0);
        // The Nest rows must have produced nest-lifecycle transitions.
        assert!(t.decision_metrics.nest_transitions > 0);
    }

    #[test]
    fn scenario_block_reproduces_hand_wired_block() {
        // The same experiment, described twice: once with hand-wired
        // setups + factory, once as scenarios. Comparisons must be
        // bit-identical — the byte-identity contract of the refactor.
        let (legacy, _) = small_matrix(2).run();

        let base = Scenario::parse("5218", "cfs", "schedutil", "configure:gdb")
            .unwrap()
            .with_seed(7)
            .with_runs(2);
        let nest = Scenario::parse("5218", "nest", "sched", "configure:gdb")
            .unwrap()
            .with_seed(7)
            .with_runs(2);
        let mut m = Matrix::new("test-scenario", 7)
            .with_jobs(2)
            .with_cache(Cache::disabled())
            .with_progress(Progress::quiet());
        m.add_scenarios(&[base, nest]).unwrap();
        let (scenic, _) = m.run();

        assert_eq!(legacy.len(), scenic.len());
        for (a, b) in legacy.iter().zip(&scenic) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.machine, b.machine);
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(ra.label, rb.label);
                assert_eq!(ra.runs.len(), rb.runs.len());
                for (sa, sb) in ra.runs.iter().zip(&rb.runs) {
                    assert_eq!(sa, sb, "{}", ra.label);
                }
            }
        }
    }

    #[test]
    fn mismatched_scenario_blocks_are_rejected() {
        let a = Scenario::parse("5218", "cfs", "sched", "configure:gdb").unwrap();
        let b = Scenario::parse("6130-2", "nest", "sched", "configure:gdb").unwrap();
        let mut m = Matrix::new("test-mismatch", 7)
            .with_cache(Cache::disabled())
            .with_progress(Progress::quiet());
        assert!(m.add_scenarios(&[a.clone(), b]).is_err());
        assert!(m.add_scenarios(&[]).is_err());
        let c = a.clone().with_runs(5);
        assert!(m.add_scenarios(&[a, c]).is_err());
    }

    #[test]
    fn a_panicking_cell_is_contained_and_reported() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        /// Panics on the Nth build; other builds delegate to configure:gdb.
        struct PanicOnNth {
            counter: Arc<AtomicUsize>,
            nth: usize,
        }
        impl nest_workloads::Workload for PanicOnNth {
            fn name(&self) -> String {
                "panic_on_nth".to_string()
            }
            fn build(
                &self,
                setup: &mut dyn nest_simcore::SimSetup,
                rng: &mut nest_simcore::SimRng,
            ) -> Vec<nest_simcore::TaskSpec> {
                if self.counter.fetch_add(1, Ordering::SeqCst) + 1 == self.nth {
                    panic!("injected cell failure");
                }
                Configure::named("gdb").build(setup, rng)
            }
        }

        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let mut m = Matrix::new("test-panic", 7)
            .with_jobs(1)
            .with_cache(Cache::disabled())
            .with_progress(Progress::quiet());
        m.add(
            presets::xeon_5218(),
            &[
                SchedulerSetup::new(PolicyKind::Cfs, Governor::Schedutil),
                SchedulerSetup::new(PolicyKind::Nest, Governor::Schedutil),
            ],
            2,
            Box::new(move || {
                Box::new(PanicOnNth {
                    counter: Arc::clone(&c2),
                    nth: 2,
                })
            }),
        );
        let (comps, t) = m.run();
        assert_eq!(t.failures.len(), 1, "exactly one cell failed");
        assert!(t.failures[0].message.contains("injected cell failure"));
        assert!(
            t.failures[0].cell.contains("run 1"),
            "{}",
            t.failures[0].cell
        );
        assert!(!t.all_cells_ok());
        // The other three cells completed and still assemble: the CFS row
        // keeps its surviving run, the Nest row both.
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].rows[0].runs.len(), 1);
        assert_eq!(comps[0].rows[1].runs.len(), 2);
    }

    #[test]
    fn losing_every_run_of_a_setup_drops_the_comparison() {
        struct AlwaysPanics;
        impl nest_workloads::Workload for AlwaysPanics {
            fn name(&self) -> String {
                "always_panics".to_string()
            }
            fn build(
                &self,
                _setup: &mut dyn nest_simcore::SimSetup,
                _rng: &mut nest_simcore::SimRng,
            ) -> Vec<nest_simcore::TaskSpec> {
                panic!("doomed workload");
            }
        }
        let mut m = Matrix::new("test-doomed", 7)
            .with_jobs(2)
            .with_cache(Cache::disabled())
            .with_progress(Progress::quiet());
        m.add(
            presets::xeon_5218(),
            &[SchedulerSetup::new(PolicyKind::Cfs, Governor::Schedutil)],
            2,
            Box::new(|| Box::new(AlwaysPanics)),
        );
        // A healthy second experiment must survive untouched.
        m.add(
            presets::xeon_5218(),
            &[SchedulerSetup::new(PolicyKind::Nest, Governor::Schedutil)],
            1,
            gdb_factory(),
        );
        let (comps, t) = m.run();
        assert_eq!(comps.len(), 1, "doomed comparison dropped, healthy kept");
        assert_eq!(comps[0].workload, "gdb");
        // Two cell failures plus the dropped-comparison record.
        assert_eq!(t.failures.len(), 3);
    }

    #[test]
    fn telemetry_merges_invariant_counts() {
        let (_, t) = small_matrix(2).run();
        assert_eq!(t.invariants.violations, 0, "{:?}", t.invariants);
        assert!(t.invariants.events_checked > 0);
        assert!(t.invariants.completed);
    }

    #[test]
    fn scenario_blocks_carry_their_fault_plan() {
        let free = Scenario::parse("5218", "nest", "sched", "configure:gdb")
            .unwrap()
            .with_seed(7)
            .with_runs(1);
        let faulted = free
            .clone()
            .with_faults("faults:hotplug=2@50ms:100ms,throttle=s0:0.6")
            .unwrap();
        let run_one = |s: &Scenario| {
            let mut m = Matrix::new("test-faults", 7)
                .with_jobs(1)
                .with_cache(Cache::disabled())
                .with_progress(Progress::quiet());
            m.add_scenarios(std::slice::from_ref(s)).unwrap();
            m.run()
        };
        let (a, ta) = run_one(&free);
        let (b, tb) = run_one(&faulted);
        assert_ne!(
            a[0].rows[0].time.mean, b[0].rows[0].time.mean,
            "fault plan must reach the simulation"
        );
        assert_eq!(ta.invariants.violations, 0);
        assert_eq!(tb.invariants.violations, 0, "{:?}", tb.invariants);

        // Mixed fault plans in one block are rejected.
        let mut m = Matrix::new("test-mixed", 7)
            .with_cache(Cache::disabled())
            .with_progress(Progress::quiet());
        assert!(m.add_scenarios(&[free, faulted]).is_err());
    }

    #[test]
    fn matrix_and_raw_paths_fold_alike() {
        let scenarios: Vec<Scenario> = ["cfs", "nest"]
            .iter()
            .map(|p| {
                Scenario::parse(
                    "5218",
                    p,
                    "schedutil",
                    "fleet:hosts=2+serve:rate=2000,requests=150",
                )
                .unwrap()
                .with_seed(7)
                .with_runs(2)
            })
            .collect();
        let mut m = Matrix::new("test-fold", 7)
            .with_jobs(2)
            .with_cache(Cache::disabled())
            .with_progress(Progress::quiet());
        m.add_scenarios(&scenarios).unwrap();
        let (_, via_matrix) = m.run();

        // The same cells in the matrix's flattening order (setup-major,
        // run-minor) with the matrix's per-cell seeds.
        let machine = scenarios[0].resolve_machine().name;
        let workload = scenarios[0].workload_spec().name();
        let cells: Vec<RawCell> = scenarios
            .iter()
            .flat_map(|s| (0..s.runs()).map(move |run| (s, run)))
            .map(|(s, run)| {
                let seed = cell_seed(7, &workload, &machine, &s.setup().identity(), run);
                let spec = s.workload_spec();
                RawCell {
                    cfg: s.sim_config().seed(seed),
                    make: Box::new(move || spec.build()),
                }
            })
            .collect();
        let (_, via_raw) = run_raw(cells, 2);

        assert_eq!(via_matrix.cells_total, via_raw.cells_total);
        assert_eq!(via_matrix.decision_metrics, via_raw.decision_metrics);
        assert_eq!(via_matrix.serve_metrics, via_raw.serve_metrics);
        assert_eq!(via_matrix.phase_metrics, via_raw.phase_metrics);
        assert_eq!(via_matrix.fleet_metrics, via_raw.fleet_metrics);
        assert_eq!(via_matrix.invariants, via_raw.invariants);
        assert!(via_raw.fleet_metrics.runs > 0 && via_raw.serve_metrics.runs > 0);
        assert!(via_raw.invariants.completed);
    }

    #[test]
    fn run_raw_preserves_input_order() {
        let machine = presets::xeon_5218();
        let cells: Vec<RawCell> = [3u64, 11, 3]
            .iter()
            .map(|&seed| RawCell {
                cfg: SimConfig::new(machine.clone()).seed(seed),
                make: gdb_factory(),
            })
            .collect();
        let (out, telemetry) = run_raw(cells, 4);
        assert_eq!(telemetry.cells_total, 3);
        assert!(telemetry.events_total > 0, "runs dispatch events");
        assert_eq!(out.len(), 3);
        // Same seed → same result; different seed → (almost surely) not.
        assert_eq!(out[0].time_s, out[2].time_s);
        assert_ne!(out[0].time_s, out[1].time_s);
    }
}
