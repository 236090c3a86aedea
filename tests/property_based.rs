//! Property-based tests over the public API: arbitrary (small) workloads
//! must run to completion deterministically with sane metrics, under
//! every policy.
//!
//! Each property runs over `CASES` inputs drawn from [`SimRng`] seeded
//! with `mix64(SEED, case)`, so every case is reproducible from the seed
//! its failure message prints. Every case is a full simulation, so the
//! case count is small.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use nest_repro::{presets, run_once, PolicyKind, SimConfig, Workload};
use nest_simcore::rng::mix64;
use nest_simcore::{Action, SimRng, SimSetup, TaskSpec};

const SEED: u64 = 0x5EED_0005;
const CASES: u64 = 64;

/// Runs `prop` on `cases` inputs drawn by `gen`, one seed per case; a
/// failing case reports its seed and the drawn input.
fn check<T: Debug>(cases: u64, gen: impl Fn(&mut SimRng) -> T, prop: impl Fn(&T)) {
    for case in 0..cases {
        let seed = mix64(SEED, case);
        let input = gen(&mut SimRng::new(seed));
        if panic::catch_unwind(AssertUnwindSafe(|| prop(&input))).is_err() {
            panic!("case {case} (seed {seed:#x}) failed on input {input:?}");
        }
    }
}

/// A uniform draw from the half-open range `r`.
fn draw(rng: &mut SimRng, r: Range<u64>) -> u64 {
    rng.uniform_u64(r.start, r.end - 1)
}

/// A vector whose length is drawn from `len` and whose elements come
/// from `elem`.
fn vec_of<T>(rng: &mut SimRng, len: Range<u64>, mut elem: impl FnMut(&mut SimRng) -> T) -> Vec<T> {
    let n = draw(rng, len);
    (0..n).map(|_| elem(rng)).collect()
}

/// A small scripted workload the generator can draw.
#[derive(Clone, Debug)]
struct MiniWorkload {
    tasks: Vec<Vec<Step>>,
}

#[derive(Clone, Debug)]
enum Step {
    Compute(u64),
    Sleep(u64),
    ForkChild(u64),
    Wait,
    Yield,
}

impl Workload for MiniWorkload {
    fn name(&self) -> String {
        "mini".into()
    }

    fn build(&self, _setup: &mut dyn SimSetup, _rng: &mut SimRng) -> Vec<TaskSpec> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, steps)| {
                let mut actions = Vec::new();
                let mut forked = false;
                for s in steps {
                    match s {
                        Step::Compute(c) => actions.push(Action::Compute { cycles: *c }),
                        Step::Sleep(ns) => actions.push(Action::Sleep { ns: *ns }),
                        Step::ForkChild(c) => {
                            forked = true;
                            actions.push(Action::Fork {
                                child: TaskSpec::script(
                                    "child",
                                    vec![Action::Compute { cycles: *c }],
                                ),
                            });
                        }
                        Step::Wait => {
                            if forked {
                                actions.push(Action::WaitChildren);
                            }
                        }
                        Step::Yield => actions.push(Action::Yield),
                    }
                }
                TaskSpec::script(format!("t{i}"), actions)
            })
            .collect()
    }
}

fn step(rng: &mut SimRng) -> Step {
    match draw(rng, 0..5) {
        0 => Step::Compute(draw(rng, 1_000..200_000_000)),
        1 => Step::Sleep(draw(rng, 1_000..50_000_000)),
        2 => Step::ForkChild(draw(rng, 1_000..50_000_000)),
        3 => Step::Wait,
        _ => Step::Yield,
    }
}

fn workload(rng: &mut SimRng) -> MiniWorkload {
    MiniWorkload {
        tasks: vec_of(rng, 1..6, |r| vec_of(r, 1..8, step)),
    }
}

#[test]
fn any_workload_completes_under_any_policy() {
    check(
        CASES,
        |rng| (workload(rng), draw(rng, 0..3), draw(rng, 0..1000)),
        |(w, policy_idx, seed)| {
            let policy = match policy_idx {
                0 => PolicyKind::Cfs,
                1 => PolicyKind::Nest,
                _ => PolicyKind::Smove,
            };
            let cfg = SimConfig::new(presets::xeon_5218())
                .policy(policy)
                .seed(*seed);
            let r = run_once(&cfg, w);
            assert!(!r.hit_horizon, "workload did not finish");
            assert!(r.time_s > 0.0);
            assert!(r.energy_j > 0.0);
            assert!(r.freq.fractions().iter().all(|f| (0.0..=1.0).contains(f)));
            let total: f64 = r.freq.fractions().iter().sum();
            assert!(total == 0.0 || (total - 1.0).abs() < 1e-9);
        },
    );
}

#[test]
fn identical_config_identical_outcome() {
    check(
        CASES,
        |rng| (workload(rng), draw(rng, 0..1000)),
        |(w, seed)| {
            let cfg = SimConfig::new(presets::xeon_5218())
                .policy(PolicyKind::Nest)
                .seed(*seed);
            let a = run_once(&cfg, w);
            let b = run_once(&cfg, w);
            assert_eq!(a.time_s, b.time_s);
            assert_eq!(a.energy_j, b.energy_j);
            assert_eq!(a.total_tasks, b.total_tasks);
        },
    );
}

#[test]
fn underload_never_negative_and_bounded_by_cores() {
    check(CASES, workload, |w| {
        let cfg = SimConfig::new(presets::xeon_5218());
        let r = run_once(&cfg, w);
        for i in &r.underload.intervals {
            assert!(i.cores_used as usize <= 64);
            assert!(i.underload() <= i.cores_used);
        }
    });
}
