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

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nest_core::experiment::{Comparison, SchedulerSetup};
use nest_core::snapshot as snap;
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
use crate::json::Json;
use crate::progress::Progress;

/// Warm-start configuration: pause every cold cell at `pause`, snapshot
/// it into `dir`, and let later runs of the same cell restore the
/// snapshot instead of re-simulating the prefix.
///
/// Warm-start never changes results: the determinism suite pins
/// pause/snapshot/restore/continue byte-equal to a straight run, so the
/// comparisons and figure artifacts are identical with it on or off —
/// only wall-clock (and the telemetry describing it) differs. It
/// complements the summary cache: a summary hit skips the whole cell,
/// while a warm hit accelerates cells that must simulate (for example
/// after `NEST_CACHE=off`, a cleared cache, or a bumped cache schema).
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// Simulated time at which cold cells snapshot.
    pub pause: Time,
    /// Directory holding `<key>.snap` files.
    pub dir: PathBuf,
}

impl WarmStart {
    /// Warm-start at `pause` with snapshots under the default directory
    /// (`results/cache/warm`, or `$NEST_CACHE_DIR/warm`).
    pub fn at(pause: Time) -> WarmStart {
        let cache_dir = std::env::var("NEST_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| Path::new("results").join("cache"));
        WarmStart {
            pause,
            dir: cache_dir.join("warm"),
        }
    }

    /// Reads `NEST_WARM_START` (pause point in simulated seconds, > 0);
    /// unset, unparseable, or non-positive means warm-start is off.
    pub fn from_env() -> Option<WarmStart> {
        let secs = std::env::var("NEST_WARM_START")
            .ok()?
            .parse::<f64>()
            .ok()
            .filter(|&s| s > 0.0 && s.is_finite())?;
        Some(WarmStart::at(Time::from_nanos((secs * 1e9) as u64)))
    }

    /// The snapshot identity of one cell: the full cell identity plus the
    /// pause point and the snapshot schema, so a snapshot taken for a
    /// different cell, pause point, or format version can never restore.
    fn identity(&self, cell_id: &str) -> String {
        format!(
            "warm;snap_schema={};pause_ns={};{cell_id}",
            snap::SNAPSHOT_SCHEMA,
            self.pause.as_nanos()
        )
    }

    /// Path of one cell's snapshot file.
    fn path(&self, warm_key: &str) -> PathBuf {
        self.dir.join(format!("{warm_key}.snap"))
    }
}

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
    /// The canonical identity string behind `key`, kept so warm-start can
    /// derive its own (pause-point-qualified) snapshot identity.
    id: String,
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
    /// Warm-start accounting, present when warm-start was enabled
    /// (`NEST_WARM_START` or [`Matrix::with_warm_start`]).
    pub warm: Option<WarmTelemetry>,
}

/// Warm-start accounting for one [`Matrix::run`] call.
#[derive(Clone, Debug, Default)]
pub struct WarmTelemetry {
    /// The configured pause point, in simulated seconds.
    pub pause_s: f64,
    /// Cells that resumed from a cached snapshot instead of simulating
    /// their prefix.
    pub cells_warm: usize,
    /// Simulation events skipped by restoring (the sum of each restored
    /// snapshot's dispatched-event tally).
    pub events_saved: u64,
    /// Snapshots written by cold cells this run (warming the next run).
    pub snapshots_written: usize,
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
    fn new(cells_total: usize, warm: Option<WarmTelemetry>) -> Telemetry {
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
            warm,
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
    /// `Some(events)` when the cell resumed from a warm snapshot that had
    /// already dispatched `events` events.
    warm_restored: Option<u64>,
    /// Whether the cell wrote a warm snapshot for future runs.
    warm_written: bool,
}

/// A batch of experiments executed together across one worker pool.
pub struct Matrix {
    base_seed: u64,
    jobs: usize,
    cache: Cache,
    progress: Progress,
    warm: Option<WarmStart>,
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
            warm: WarmStart::from_env(),
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

    /// Overrides the warm-start configuration (`None` disables it
    /// regardless of `NEST_WARM_START`).
    pub fn with_warm_start(mut self, warm: Option<WarmStart>) -> Matrix {
        self.warm = warm;
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
                        id: cell_id,
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
        let warm = self.warm.as_ref().map(|w| WarmTelemetry {
            pause_s: w.pause.as_secs_f64(),
            ..WarmTelemetry::default()
        });
        let mut telemetry = Telemetry::new(total, warm);
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
                if let Some(w) = telemetry.warm.as_mut() {
                    if let Some(events) = done.warm_restored {
                        w.cells_warm += 1;
                        w.events_saved += events;
                    }
                    w.snapshots_written += usize::from(done.warm_written);
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
        // Keep the warm snapshot directory within its configured budget.
        // Eviction happens after the run, so this run's warm hits were
        // unaffected; the oldest snapshots lose their head start first.
        if let (Some(w), Some(cap)) = (&self.warm, warm_cache_cap_from_env()) {
            prune_warm_cache(&w.dir, cap);
        }
        telemetry.finish(workers, started, &prof_before);
        self.progress.finished(&telemetry);
        (comparisons, telemetry)
    }

    /// Runs one cell: cache lookup, else simulate and store. Cache hits
    /// carry no decision metrics or invariant tallies (the simulation
    /// never executed).
    fn execute(&self, cell: &Cell) -> CellDone {
        if let Some(summary) = self.cache.lookup(&cell.key) {
            return CellDone {
                summary,
                run: None,
                warm_restored: None,
                warm_written: false,
            };
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
        let workload = (e.factory)();
        let mut warm_restored = None;
        let mut warm_written = false;
        let result = match &self.warm {
            Some(w) => self
                .simulate_warm(w, cell, &cfg, workload.as_ref())
                .map(|(result, restored, written)| {
                    warm_restored = restored;
                    warm_written = written;
                    result
                })
                // No snapshot and the run finished before the pause point
                // — `simulate_warm` already produced the full result.
                .unwrap_or_else(|r| *r),
            None => run_once(&cfg, workload.as_ref()),
        };
        let summary = result.summarize();
        // An aborted (watchdog-cut) cell keeps its partial summary but
        // is never cached: a rerun with a different budget must recompute.
        if !result.aborted {
            self.cache.store(&cell.key, &summary);
        }
        CellDone {
            summary,
            run: Some(result),
            warm_restored,
            warm_written,
        }
    }

    /// Simulates one cell under warm-start: restore the cell's snapshot
    /// if a valid one exists, else run to the pause point, snapshot, and
    /// continue. Returns `Err(result)` when the simulation finished
    /// before the pause point (nothing to snapshot).
    ///
    /// Snapshot trouble is never fatal: an unreadable, corrupt, or
    /// mismatched snapshot is deleted and the cell re-simulates from
    /// scratch (exactly like a result-cache miss), and a failed write
    /// only costs the next run its warm hit.
    fn simulate_warm(
        &self,
        w: &WarmStart,
        cell: &Cell,
        cfg: &SimConfig,
        workload: &dyn Workload,
    ) -> Result<(RunResult, Option<u64>, bool), Box<RunResult>> {
        let identity = w.identity(&cell.id);
        let path = w.path(&cell_key(&identity));
        if let Ok(text) = std::fs::read_to_string(&path) {
            match snap::restore(cfg, workload, &text, &identity) {
                Ok(paused) => {
                    let events = paused.events_dispatched();
                    return Ok((paused.resume(), Some(events), false));
                }
                // Corruption or a stale identity is a miss, never an
                // error: drop the bad file and fall through to simulate.
                Err(_) => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        match snap::run_until(cfg, workload, w.pause) {
            snap::Progress::Done(result) => Err(result),
            snap::Progress::Paused(paused) => {
                let written = match paused.snapshot(&identity, Json::Null) {
                    Ok(text) => write_snapshot(&w.dir, &path, &text),
                    Err(_) => false,
                };
                Ok((paused.resume(), None, written))
            }
        }
    }
}

/// Atomically writes one warm snapshot (temp file + rename, the same
/// discipline as cache entries: concurrent writers of one key produce
/// identical bytes, so last-rename-wins is safe). Returns success.
fn write_snapshot(dir: &Path, path: &Path, text: &str) -> bool {
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let tmp = dir.join(format!("{name}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, path).is_ok()
}

/// Warm-cache size cap in bytes, from `NEST_WARM_CACHE_MB` (whole
/// megabytes; unset or unparseable means uncapped). `0` is a valid cap:
/// it evicts every snapshot, effectively disabling the warm cache
/// without turning warm-start itself off.
pub fn warm_cache_cap_from_env() -> Option<u64> {
    std::env::var("NEST_WARM_CACHE_MB")
        .ok()?
        .parse::<u64>()
        .ok()
        .map(|mb| mb.saturating_mul(1024 * 1024))
}

/// Prunes the warm snapshot directory down to at most `cap_bytes` of
/// `.snap` files by deleting the oldest-modified first (ties broken by
/// file name, so the order is deterministic on coarse-grained
/// filesystems). Non-snapshot files are never touched. Returns how many
/// snapshots were evicted.
pub fn prune_warm_cache(dir: &Path, cap_bytes: u64) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut snaps: Vec<(std::time::SystemTime, String, PathBuf, u64)> = Vec::new();
    let mut total: u64 = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("snap") {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        total += meta.len();
        snaps.push((
            mtime,
            entry.file_name().to_string_lossy().into_owned(),
            path,
            meta.len(),
        ));
    }
    snaps.sort();
    let mut evicted = 0;
    for (_, _, path, len) in snaps {
        if total <= cap_bytes {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total = total.saturating_sub(len);
            evicted += 1;
        }
    }
    evicted
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
    let mut telemetry = Telemetry::new(cells.len(), None);
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

    fn assert_same_comparisons(a: &[Comparison], b: &[Comparison]) {
        assert_eq!(a.len(), b.len());
        for (ca, cb) in a.iter().zip(b) {
            assert_eq!(ca.workload, cb.workload);
            for (ra, rb) in ca.rows.iter().zip(&cb.rows) {
                assert_eq!(ra.label, rb.label);
                assert_eq!(ra.runs, rb.runs, "{}", ra.label);
            }
        }
    }

    fn warm_at(dir: &std::path::Path) -> Option<WarmStart> {
        Some(WarmStart {
            pause: Time::from_millis(40),
            dir: dir.to_path_buf(),
        })
    }

    #[test]
    fn warm_start_changes_no_results_and_skips_the_prefix() {
        let dir = std::env::temp_dir().join(format!(
            "nest-warm-test-{}-{:x}",
            std::process::id(),
            nest_simcore::rng::splitmix64(0x3A3A)
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let (cold, tc) = small_matrix(2).with_warm_start(None).run();
        assert!(tc.warm.is_none(), "warm-start off leaves telemetry bare");

        // First warm run: no snapshots yet, every cell simulates in full
        // but pauses, snapshots, and resumes — results must not move.
        let (first, t1) = small_matrix(2).with_warm_start(warm_at(&dir)).run();
        let w1 = t1.warm.expect("warm telemetry present");
        assert_eq!(w1.cells_warm, 0, "nothing to restore on the first run");
        assert_eq!(w1.snapshots_written, t1.cells_total);
        assert_eq!(w1.events_saved, 0);
        assert_same_comparisons(&cold, &first);

        // Second warm run: every cell restores its snapshot and resumes —
        // same results again, with the prefix's events skipped.
        let (second, t2) = small_matrix(2).with_warm_start(warm_at(&dir)).run();
        let w2 = t2.warm.expect("warm telemetry present");
        assert_eq!(w2.cells_warm, t2.cells_total, "every cell restored");
        assert!(w2.events_saved > 0, "restores skip dispatched events");
        assert_eq!(w2.snapshots_written, 0, "snapshots already on disk");
        assert_same_comparisons(&cold, &second);

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_warm_snapshots_fall_back_to_cold_simulation() {
        let dir = std::env::temp_dir().join(format!(
            "nest-warm-corrupt-{}-{:x}",
            std::process::id(),
            nest_simcore::rng::splitmix64(0xBAD5)
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let (first, _) = small_matrix(1).with_warm_start(warm_at(&dir)).run();
        let mut snaps = 0;
        for entry in std::fs::read_dir(&dir).expect("warm dir exists") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "snap") {
                std::fs::write(&path, "not a snapshot").unwrap();
                snaps += 1;
            }
        }
        assert!(snaps > 0, "first run wrote snapshots");

        // Corruption is a warm miss: cells re-simulate from scratch,
        // results hold, and fresh snapshots replace the bad files.
        let (second, t2) = small_matrix(1).with_warm_start(warm_at(&dir)).run();
        let w2 = t2.warm.expect("warm telemetry present");
        assert_eq!(w2.cells_warm, 0, "corrupt snapshots never restore");
        assert_eq!(w2.snapshots_written, t2.cells_total);
        assert_same_comparisons(&first, &second);

        // And the rewritten snapshots restore on the third run.
        let (third, t3) = small_matrix(1).with_warm_start(warm_at(&dir)).run();
        assert_eq!(t3.warm.expect("warm").cells_warm, t3.cells_total);
        assert_same_comparisons(&first, &third);

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_start_pause_past_the_end_degrades_gracefully() {
        let dir = std::env::temp_dir().join(format!(
            "nest-warm-late-{}-{:x}",
            std::process::id(),
            nest_simcore::rng::splitmix64(0x1A7E)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let warm = Some(WarmStart {
            // Far beyond any gdb run: every cell completes before the
            // pause, so nothing is snapshotted and nothing restores.
            pause: Time::from_secs(10_000),
            dir: dir.clone(),
        });
        let (cold, _) = small_matrix(1).with_warm_start(None).run();
        let (warm_run, t) = small_matrix(1).with_warm_start(warm.clone()).run();
        let w = t.warm.expect("warm telemetry present");
        assert_eq!(w.cells_warm, 0);
        assert_eq!(w.snapshots_written, 0);
        assert_same_comparisons(&cold, &warm_run);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_cache_cap_evicts_oldest_snapshots_first() {
        let dir = std::env::temp_dir().join(format!(
            "nest-warm-cap-{}-{:x}",
            std::process::id(),
            nest_simcore::rng::splitmix64(0xCA9B)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Four 100-byte snapshots with staggered ages (b and c share an
        // mtime, so the name breaks the tie), plus a bystander file the
        // pruner must never touch.
        let base = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        let stamp = |name: &str, age_back_s: u64| {
            let path = dir.join(name);
            std::fs::write(&path, [0u8; 100]).unwrap();
            let f = std::fs::File::options().write(true).open(&path).unwrap();
            f.set_modified(base - std::time::Duration::from_secs(age_back_s))
                .unwrap();
        };
        stamp("a.snap", 30); // oldest → evicted first
        stamp("c.snap", 20); // tied with b; "b" sorts first
        stamp("b.snap", 20);
        stamp("d.snap", 10); // newest → kept longest
        stamp("not-a-snapshot.txt", 99);

        // Cap of 250 bytes over 400 bytes of snapshots: evict a (oldest),
        // then b (tie broken by name) — 200 bytes remain.
        assert_eq!(prune_warm_cache(&dir, 250), 2);
        assert!(!dir.join("a.snap").exists());
        assert!(!dir.join("b.snap").exists());
        assert!(dir.join("c.snap").exists());
        assert!(dir.join("d.snap").exists());
        assert!(dir.join("not-a-snapshot.txt").exists());

        // Already under budget: nothing more to do.
        assert_eq!(prune_warm_cache(&dir, 250), 0);
        // A zero cap empties the snapshot set but spares other files.
        assert_eq!(prune_warm_cache(&dir, 0), 2);
        assert!(dir.join("not-a-snapshot.txt").exists());

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_start_env_parses() {
        // Pure parsing helpers — no env mutation (tests run in parallel).
        let w = WarmStart::at(Time::from_millis(250));
        assert_eq!(w.pause.as_nanos(), 250_000_000);
        let id_a = w.identity("cell-a");
        assert_ne!(id_a, w.identity("cell-b"));
        assert!(id_a.contains("pause_ns=250000000"), "{id_a}");
        assert!(id_a.contains("snap_schema="), "{id_a}");
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
