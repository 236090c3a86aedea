//! Chaos soak: randomized short fault plans against every policy, with
//! the kernel-state invariant checker in fail-fast mode. A violation —
//! a task running on two cores, a placement onto an offline core, a
//! frequency outside the (possibly throttled) envelope — panics with the
//! rule name and simulated time, failing the test on the spot.
//!
//! The plans are drawn from a seeded [`SimRng`], so the soak is as
//! deterministic as every other test in the repo: a failure reproduces
//! by rerunning, and the corpus only changes when this file does.

use std::cell::RefCell;
use std::rc::Rc;

use nest_core::{presets, run_once_with, PolicyKind, SimConfig};
use nest_faults::FaultPlan;
use nest_obs::InvariantChecker;
use nest_scenario::Scenario;
use nest_simcore::{SimRng, Time};
use nest_workloads::hackbench::{Hackbench, HackbenchSpec};

/// Draws one short random plan: each fault kind appears with its own
/// probability, parameters in ranges that keep runs quick but make the
/// perturbation real (cores actually lost, caps actually lowered).
fn random_plan(rng: &mut SimRng, n_sockets: u64) -> String {
    let mut clauses = Vec::new();
    if rng.uniform_f64() < 0.8 {
        let n = rng.uniform_u64(1, 12);
        let at = rng.uniform_u64(1, 80);
        let dur = rng.uniform_u64(5, 250);
        clauses.push(format!("hotplug={n}@{at}ms:{dur}ms"));
    }
    if rng.uniform_f64() < 0.7 {
        let socket = rng.uniform_u64(0, n_sockets - 1);
        let factor = rng.uniform_u64(50, 95);
        let at = rng.uniform_u64(0, 60);
        clauses.push(format!("throttle=s{socket}:0.{factor:02}@{at}ms"));
    }
    if rng.uniform_f64() < 0.5 {
        let us = rng.uniform_u64(5, 300);
        clauses.push(format!("jitter={us}us"));
    }
    if rng.uniform_f64() < 0.5 {
        let n = rng.uniform_u64(1, 6);
        let at = rng.uniform_u64(1, 50);
        let dur = rng.uniform_u64(10, 200);
        clauses.push(format!("stragglers={n}@{at}ms:{dur}ms"));
    }
    clauses.join(",")
}

/// Builds a fail-fast invariant checker for `machine`, shared so the
/// test can read its tallies after the run.
fn checker_for(machine: &nest_core::MachineSpec) -> Rc<RefCell<InvariantChecker>> {
    let checker = InvariantChecker::new(
        machine.n_cores(),
        machine.freq.fmin.as_khz(),
        machine.freq.fmax().as_khz(),
    );
    Rc::new(RefCell::new(checker.fail_fast()))
}

#[test]
fn randomized_fault_plans_never_break_invariants() {
    let machine = presets::xeon_5218();
    let n_sockets = machine.sockets as u64;
    let workload = Hackbench::new(HackbenchSpec {
        groups: 4,
        fan: 4,
        loops: 30,
        msg_cycles: 20_000,
    });
    let mut rng = SimRng::new(0xC4A05);
    for round in 0..6 {
        let spec = random_plan(&mut rng, n_sockets);
        let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("bad plan {spec:?}: {e}"));
        for policy in [PolicyKind::Cfs, PolicyKind::Nest, PolicyKind::Smove] {
            let cfg = SimConfig::new(machine.clone())
                .policy(policy.clone())
                .seed(100 + round)
                .horizon(Time::from_secs(120))
                .faults(plan.clone());
            // Fail-fast: any violation panics with rule + time + plan.
            let checker = checker_for(&machine);
            let result = run_once_with(&cfg, &workload, vec![Box::new(Rc::clone(&checker))]);
            let counts = &checker.borrow().counts;
            assert_eq!(
                counts.violations, 0,
                "policy {policy:?}, plan {spec:?}: {counts:?}"
            );
            assert!(counts.events_checked > 0);
            // The always-on counting checker inside run_once_with must
            // agree with our fail-fast copy.
            assert_eq!(result.invariants.violations, 0);
        }
    }
}

#[test]
fn synthetic_512_core_domain_soak_never_breaks_invariants() {
    // A 4-socket × 8-CCX × 16-core synthetic machine (512 cores) under
    // the CCX-sharded Nest policy: domain-local nests, per-CCX turbo
    // ladders, and fault plans that hotplug whole swaths of cores must
    // all hold the same kernel-state invariants as the Table 2 presets.
    let s = Scenario::parse(
        "synth:sockets=4,ccx=8,cores=16,numa=ring",
        "nest:domain=ccx",
        "schedutil",
        "hackbench:g=4,fan=4,loops=10",
    )
    .expect("soak scenario parses");
    let machine = s.sim_config().machine.clone();
    let mut rng = SimRng::new(0x512C0);
    for round in 0..2 {
        let spec = random_plan(&mut rng, machine.sockets as u64);
        let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("bad plan {spec:?}: {e}"));
        let cfg = s
            .sim_config()
            .seed(7_000 + round)
            .horizon(Time::from_secs(120))
            .faults(plan);
        let checker = checker_for(&machine);
        let workload = s.build_workload();
        let result = run_once_with(&cfg, workload.as_ref(), vec![Box::new(Rc::clone(&checker))]);
        let counts = &checker.borrow().counts;
        assert_eq!(counts.violations, 0, "plan {spec:?}: {counts:?}");
        assert!(counts.events_checked > 0);
        assert_eq!(result.invariants.violations, 0, "plan {spec:?}");
    }
}

#[test]
fn two_host_fleet_soak_never_breaks_invariants() {
    // A 2-host fleet with the full robustness surface live at once —
    // warmth routing, retries, hedging, a mid-run crash + cold restart,
    // and a degraded (throttled) survivor. The fail-fast checker rides
    // host 0 (extra probes attach to the first host's first epoch); the
    // always-on counting checkers inside every host cell merge into
    // `result.invariants`, so the assertion below spans both hosts and
    // the restarted epoch.
    let s = Scenario::parse(
        "5218",
        "nest",
        "schedutil",
        "fleet:hosts=2,lb=warmth,retry=2,timeout=20ms,hedge=p95,\
         hostdown=1@30ms:40ms,degrade=h1:0.8@10ms\
         +serve:rate=1500,dist=lognorm,requests=200+hackbench:g=2",
    )
    .expect("fleet soak scenario parses");
    let machine = s.sim_config().machine.clone();
    for seed in [11u64, 12] {
        let cfg = s.sim_config().seed(seed).horizon(Time::from_secs(120));
        let checker = checker_for(&machine);
        let workload = s.build_workload();
        let result = run_once_with(&cfg, workload.as_ref(), vec![Box::new(Rc::clone(&checker))]);
        let counts = &checker.borrow().counts;
        assert_eq!(counts.violations, 0, "seed {seed}: {counts:?}");
        assert!(counts.events_checked > 0);
        assert_eq!(result.invariants.violations, 0, "seed {seed}");
        // The fleet's request accounting must close even through the
        // crash: every offered request completes, fails, or is shed.
        let fleet = result.fleet.as_ref().expect("fleet workload ran");
        let m = &fleet.metrics;
        assert_eq!(m.offered, 200, "seed {seed}");
        assert_eq!(
            m.completed + m.failed + m.shed,
            m.offered,
            "seed {seed}: accounting leak"
        );
        assert_eq!(m.crashes, 1, "seed {seed}");
        assert_eq!(m.restarts, 1, "seed {seed}");
    }
}
