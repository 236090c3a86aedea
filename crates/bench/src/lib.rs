#![deny(missing_docs)]

//! Shared harness utilities for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the Nest
//! paper and prints the same rows/series the paper reports. Since PR 1 the
//! binaries describe their experiment matrices to `nest-harness`, which
//! fans the cells across worker threads with result caching, and each
//! binary emits a structured JSON artifact under `results/` next to its
//! ASCII output. Common knobs come from the environment:
//!
//! * `NEST_RUNS` — measured runs per configuration (default 3; the paper
//!   uses 10 after 2 warmups).
//! * `NEST_QUICK=1` — restrict to the two-socket machines and one run,
//!   for smoke testing.
//! * `NEST_SEED` — base seed (default 42).
//! * `NEST_JOBS` / `NEST_CACHE` / `NEST_RESULTS_DIR` — see `nest-harness`.

use nest_core::experiment::{Comparison, SchedulerSetup};
use nest_harness::{Artifact, Json, Matrix, Telemetry, WorkloadFactory};
use nest_scenario::Scenario;
use nest_topology::MachineSpec;
use nest_workloads::Workload;

/// Measured runs per configuration.
pub fn runs() -> usize {
    std::env::var("NEST_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// `true` in quick (smoke-test) mode.
pub fn quick() -> bool {
    std::env::var("NEST_QUICK").is_ok_and(|v| v == "1")
}

/// Base seed.
pub fn seed() -> u64 {
    std::env::var("NEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Registry keys of the machines a figure sweeps over (Table 2 set, or a
/// subset in quick mode).
pub fn figure_machine_keys() -> Vec<&'static str> {
    if quick() {
        vec!["5218"]
    } else {
        nest_scenario::paper_machine_keys().to_vec()
    }
}

/// The machines a figure sweeps over, resolved through the registry.
pub fn figure_machines() -> Vec<MachineSpec> {
    figure_machine_keys()
        .iter()
        .map(|k| nest_scenario::machine(k).expect("figure machines are registered"))
        .collect()
}

/// The `(policy, governor)` registry pairs of the paper's standard
/// comparison (CFS/Nest × schedutil/performance).
pub fn paper_setup_pairs() -> Vec<(&'static str, &'static str)> {
    vec![
        ("cfs", "schedutil"),
        ("cfs", "performance"),
        ("nest", "schedutil"),
        ("nest", "performance"),
    ]
}

/// The §5.2 configure comparison: the paper set plus Smove-schedutil.
pub fn configure_setup_pairs() -> Vec<(&'static str, &'static str)> {
    let mut pairs = paper_setup_pairs();
    pairs.push(("smove", "schedutil"));
    pairs
}

/// The scheduler sets used by the figures, resolved through the registry.
pub fn paper_schedulers() -> Vec<SchedulerSetup> {
    setups_of(&paper_setup_pairs())
}

/// Resolves `(policy, governor)` registry pairs to scheduler setups.
pub fn setups_of(pairs: &[(&str, &str)]) -> Vec<SchedulerSetup> {
    pairs
        .iter()
        .map(|(p, g)| {
            SchedulerSetup::new(
                nest_scenario::policy(p).expect("figure policies are registered"),
                nest_scenario::governor(g).expect("figure governors are registered"),
            )
        })
        .collect()
}

/// One [`Scenario`] from registry strings, with the environment's seed
/// and run count applied. Figure binaries compose known-good strings, so
/// a registry error here is a bug — fail loudly.
pub fn scenario(machine: &str, policy: &str, governor: &str, workload: &str) -> Scenario {
    Scenario::parse(machine, policy, governor, workload)
        .unwrap_or_else(|e| panic!("figure scenario invalid: {e}"))
        .with_seed(seed())
        .with_runs(runs())
}

/// One scenario per `(policy, governor)` pair — the rows of one
/// comparison block — on one machine/workload.
pub fn scenario_block(machine: &str, pairs: &[(&str, &str)], workload: &str) -> Vec<Scenario> {
    pairs
        .iter()
        .map(|(p, g)| scenario(machine, p, g, workload))
        .collect()
}

/// Adds one scenario block to `m` (a comparison row per pair), with an
/// optional run-count override (`None` = the environment's).
pub fn add_block(
    m: &mut Matrix,
    machine: &str,
    pairs: &[(&str, &str)],
    workload: &str,
    runs_override: Option<usize>,
) {
    let block: Vec<Scenario> = scenario_block(machine, pairs, workload)
        .into_iter()
        .map(|s| match runs_override {
            Some(n) => s.with_runs(n),
            None => s,
        })
        .collect();
    m.add_scenarios(&block)
        .unwrap_or_else(|e| panic!("figure scenario block invalid: {e}"));
}

/// Prints the standard figure banner.
pub fn banner(figure: &str, what: &str) {
    println!("==================================================================");
    println!("{figure}: {what}");
    println!(
        "(runs per config: {}, seed: {}{})",
        runs(),
        seed(),
        if quick() { ", QUICK mode" } else { "" }
    );
    println!("==================================================================");
}

/// An empty experiment matrix for `figure`, seeded from `NEST_SEED` and
/// configured (`NEST_JOBS`, `NEST_CACHE`) from the environment.
pub fn matrix(figure: &str) -> Matrix {
    Matrix::new(figure, seed())
}

/// Wraps a cheap `Fn() -> impl Workload` closure as a harness factory.
pub fn factory<W, F>(make: F) -> WorkloadFactory
where
    W: Workload + 'static,
    F: Fn() -> W + Send + Sync + 'static,
{
    Box::new(move || Box::new(make()))
}

/// Runs the full §5.2 configure matrix: 11 benchmarks × machines ×
/// scheduler pairs, as one harness matrix. Returns `(machine name,
/// benchmark comparisons)` pairs plus the run telemetry.
pub fn configure_matrix(
    figure: &str,
    pairs: &[(&str, &str)],
) -> (Vec<(String, Vec<Comparison>)>, Telemetry) {
    let machine_keys = figure_machine_keys();
    let members = nest_scenario::suite_members("configure").expect("configure is registered");
    let mut m = matrix(figure);
    for key in &machine_keys {
        for member in &members {
            add_block(&mut m, key, pairs, &format!("configure:{member}"), None);
        }
    }
    let (comps, telemetry) = m.run();
    let grouped = machine_keys
        .iter()
        .zip(comps.chunks(members.len()))
        .map(|(key, chunk)| {
            let name = nest_scenario::machine(key)
                .expect("figure machines are registered")
                .name
                .to_string();
            (name, chunk.to_vec())
        })
        .collect();
    (grouped, telemetry)
}

/// Writes the figure's JSON artifact (and its telemetry sidecar, when the
/// figure ran through a matrix) and prints where they went.
///
/// The main artifact is deterministic for a given seed — comparisons plus
/// any figure-specific `extra` fields; nondeterministic wall-clock/cache
/// telemetry goes only to the sidecar.
pub fn emit_artifact(
    figure: &str,
    comparisons: &[Comparison],
    extra: Vec<(&str, Json)>,
    telemetry: Option<&Telemetry>,
) {
    let mut a = Artifact::new(figure, seed());
    a.push("runs_per_config", Json::usize(runs()));
    a.push("quick", Json::Bool(quick()));
    for (k, v) in extra {
        a.push(k, v);
    }
    if !comparisons.is_empty() {
        a.comparisons(comparisons);
    }
    match a.write() {
        Ok(path) => println!("\nartifact: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {figure} artifact: {e}"),
    }
    if let Some(t) = telemetry {
        match a.write_telemetry(t) {
            Ok(path) => println!("telemetry: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {figure} telemetry: {e}"),
        }
    }
}

/// Averages each row's per-run frequency-residency fractions; returns
/// `(bucket labels, per-row fractions)` for residency figures (6 and 11).
pub fn mean_freq_fractions(c: &Comparison) -> (Vec<String>, Vec<Vec<f64>>) {
    let labels = c.rows[0].runs[0].freq_labels();
    let rows = c
        .rows
        .iter()
        .map(|r| {
            let n = r.runs.len() as f64;
            let mut acc = vec![0.0; labels.len()];
            for run in &r.runs {
                for (a, f) in acc.iter_mut().zip(run.freq_fractions()) {
                    *a += f / n;
                }
            }
            acc
        })
        .collect();
    (labels, rows)
}

/// Formats a per-benchmark metric row: benchmark name then one value per
/// scheduler.
pub fn metric_row(name: &str, values: &[String]) -> String {
    let mut s = format!("{name:<14}");
    for v in values {
        s.push_str(&format!(" {v:>12}"));
    }
    s
}
