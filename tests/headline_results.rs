//! End-to-end assertions of the paper's headline claims, as automated
//! regression tests: if a refactor breaks the reproduction, these fail.
//!
//! Thresholds are deliberately looser than the printed figures so the
//! tests assert *shape* (who wins, roughly by how much) without being
//! brittle to calibration nudges.

use nest_repro::{presets, run_once, run_seed, Governor, PolicyKind, SimConfig};
use nest_workloads::{configure::Configure, dacapo::Dacapo, nas::Nas};

fn mean_time(cfg: &SimConfig, w: &dyn nest_repro::Workload, runs: usize) -> f64 {
    (0..runs)
        .map(|i| run_once(&cfg.clone().seed(run_seed(cfg.seed, i)), w).time_s)
        .sum::<f64>()
        / runs as f64
}

#[test]
fn nest_speeds_up_configure_on_the_5218() {
    // §5.2: "Speedups compared to CFS-schedutil exceed 5% except on
    // NodeJS".
    let machine = presets::xeon_5218();
    let w = Configure::named("gdb");
    let cfs = mean_time(&SimConfig::new(machine.clone()), &w, 2);
    let nest = mean_time(&SimConfig::new(machine).policy(PolicyKind::Nest), &w, 2);
    let speedup = nest_metrics::speedup_pct(cfs, nest);
    assert!(speedup > 5.0, "Nest configure speedup only {speedup:.1}%");
    assert!(speedup < 60.0, "implausibly large speedup {speedup:.1}%");
}

#[test]
fn nodejs_configure_is_trivial_for_nest() {
    // §5.2: nodejs is dominated by long single tasks; Nest gains little.
    let machine = presets::xeon_5218();
    let w = Configure::named("nodejs");
    let cfs = mean_time(&SimConfig::new(machine.clone()), &w, 2);
    let nest = mean_time(&SimConfig::new(machine).policy(PolicyKind::Nest), &w, 2);
    let speedup = nest_metrics::speedup_pct(cfs, nest);
    assert!(
        speedup.abs() < 10.0,
        "nodejs should be near-neutral, got {speedup:.1}%"
    );
}

#[test]
fn nest_nearly_eliminates_underload() {
    // Figure 4's shape: CFS positive, Nest near zero.
    let machine = presets::xeon_5218();
    let w = Configure::named("llvm_ninja");
    let cfs = run_once(&SimConfig::new(machine.clone()), &w);
    let nest = run_once(&SimConfig::new(machine).policy(PolicyKind::Nest), &w);
    let u_cfs = cfs.underload.underload_per_second();
    let u_nest = nest.underload.underload_per_second();
    assert!(u_cfs > 1.0, "CFS underload unexpectedly low: {u_cfs:.2}");
    assert!(
        u_nest < 0.2 * u_cfs,
        "Nest underload not eliminated: {u_nest:.2} vs {u_cfs:.2}"
    );
}

#[test]
fn cfs_performance_gains_little_on_cascade_lake_configure() {
    // §5.2: "CFS-performance gives little speedup (never more than 5%)"
    // on the 6130/5218 because CFS-schedutil already reaches turbo.
    let machine = presets::xeon_5218();
    let w = Configure::named("llvm_ninja");
    let sched = mean_time(&SimConfig::new(machine.clone()), &w, 2);
    let perf = mean_time(
        &SimConfig::new(machine).governor(Governor::Performance),
        &w,
        2,
    );
    let speedup = nest_metrics::speedup_pct(sched, perf);
    assert!(
        speedup < 10.0,
        "CFS-perf should gain little on the 5218, got {speedup:.1}%"
    );
}

#[test]
fn cfs_performance_matters_on_the_e7() {
    // §5.2: on the older E7, performance gives substantial speedups
    // because schedutil drops to subturbo whenever there are gaps.
    let machine = presets::e7_8870_v4();
    let w = Configure::named("gdb");
    let sched = mean_time(&SimConfig::new(machine.clone()), &w, 2);
    let perf = mean_time(
        &SimConfig::new(machine).governor(Governor::Performance),
        &w,
        2,
    );
    let speedup = nest_metrics::speedup_pct(sched, perf);
    assert!(
        speedup > 8.0,
        "CFS-perf should matter on the E7, got {speedup:.1}%"
    );
}

#[test]
fn smove_underperforms_nest_on_configure() {
    // §5.2: "As Smove does not perform as well as Nest even in this
    // [best-case] scenario…".
    let machine = presets::xeon_5218();
    let w = Configure::named("mplayer");
    let cfs = mean_time(&SimConfig::new(machine.clone()), &w, 2);
    let nest = mean_time(
        &SimConfig::new(machine.clone()).policy(PolicyKind::Nest),
        &w,
        2,
    );
    let smove = mean_time(&SimConfig::new(machine).policy(PolicyKind::Smove), &w, 2);
    let s_nest = nest_metrics::speedup_pct(cfs, nest);
    let s_smove = nest_metrics::speedup_pct(cfs, smove);
    assert!(
        s_nest > s_smove,
        "Nest ({s_nest:.1}%) should beat Smove ({s_smove:.1}%)"
    );
}

#[test]
fn nas_parity_on_two_socket_machines() {
    // §5.4: "on the two-socket 6130 and 5218, CFS and Nest have
    // essentially the same performance".
    let machine = presets::xeon_6130(2);
    let w = Nas::named("is.C.x");
    let cfs = mean_time(&SimConfig::new(machine.clone()), &w, 2);
    let nest = mean_time(&SimConfig::new(machine).policy(PolicyKind::Nest), &w, 2);
    let speedup = nest_metrics::speedup_pct(cfs, nest);
    assert!(
        speedup.abs() < 10.0,
        "NAS 2-socket should be near parity, got {speedup:.1}%"
    );
}

#[test]
fn single_task_dacapo_unharmed() {
    // §5.3: applications with one or a few tasks stay within ±5-6%.
    let machine = presets::xeon_6130(2);
    let w = Dacapo::named("fop");
    let cfs = mean_time(&SimConfig::new(machine.clone()), &w, 2);
    let nest = mean_time(&SimConfig::new(machine).policy(PolicyKind::Nest), &w, 2);
    let speedup = nest_metrics::speedup_pct(cfs, nest);
    assert!(
        speedup > -8.0,
        "Nest must not hurt single-task apps much, got {speedup:.1}%"
    );
}

#[test]
fn nest_speeds_up_h2_on_four_socket_6130() {
    // §5.3: h2 gains ~20% on the 4-socket 6130.
    let machine = presets::xeon_6130(4);
    let w = Dacapo::named("h2");
    let cfs = mean_time(&SimConfig::new(machine.clone()), &w, 1);
    let nest = mean_time(&SimConfig::new(machine).policy(PolicyKind::Nest), &w, 1);
    let speedup = nest_metrics::speedup_pct(cfs, nest);
    assert!(speedup > 8.0, "h2 should gain with Nest, got {speedup:.1}%");
}

#[test]
fn nest_does_not_burn_more_energy_on_configure() {
    // §5.2 / Figure 7: Nest provides speedups *and* energy savings.
    let machine = presets::xeon_5218();
    let w = Configure::named("php");
    let cfs = run_once(&SimConfig::new(machine.clone()), &w);
    let nest = run_once(&SimConfig::new(machine).policy(PolicyKind::Nest), &w);
    assert!(
        nest.energy_j <= cfs.energy_j * 1.05,
        "Nest energy {:.0}J vs CFS {:.0}J",
        nest.energy_j,
        cfs.energy_j
    );
}

#[test]
fn results_are_deterministic_for_a_seed() {
    let machine = presets::xeon_5218();
    let cfg = SimConfig::new(machine).policy(PolicyKind::Nest).seed(77);
    let w = Configure::named("gcc");
    let a = run_once(&cfg, &w);
    let b = run_once(&cfg, &w);
    assert_eq!(a.time_s, b.time_s);
    assert_eq!(a.energy_j, b.energy_j);
    assert_eq!(a.total_tasks, b.total_tasks);
    assert_eq!(a.placements.total(), b.placements.total());
}
