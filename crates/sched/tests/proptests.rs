//! Property-based tests for the scheduler substrate: PELT bounds, kernel
//! runqueue consistency, and Nest's structural invariants under random
//! operation sequences.
//!
//! Each property runs over `CASES` inputs drawn from [`SimRng`] seeded
//! with `mix64(SEED, case)`, so every case is reproducible from the seed
//! its failure message prints.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use nest_freq::{FreqModel, Governor};
use nest_sched::{policy::IdleReason, KernelState, Nest, NestParams, Pelt, SchedEnv, SchedPolicy};
use nest_simcore::rng::mix64;
use nest_simcore::{CoreId, SimRng, TaskId, Time};
use nest_topology::{presets, Topology};

const SEED: u64 = 0x5EED_0004;
const CASES: u64 = 256;

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

/// PELT stays in [0, 1] and is monotone while continuously running /
/// idle, for arbitrary event sequences.
#[test]
fn pelt_bounded_and_monotone() {
    check(
        CASES,
        |rng| vec_of(rng, 1..100, |r| (draw(r, 1..100_000_000), r.chance(0.5))),
        |steps| {
            let mut p = Pelt::new(Time::ZERO);
            let mut t = Time::ZERO;
            let mut prev = 0.0f64;
            let mut prev_running = false;
            for &(dt, running) in steps {
                t += dt;
                let v = p.value(t);
                assert!((0.0..=1.0).contains(&v), "{v}");
                if prev_running {
                    assert!(v >= prev - 1e-12, "running must not decrease");
                } else {
                    assert!(v <= prev + 1e-12, "idle must not increase");
                }
                p.set_running(t, running);
                prev = v;
                prev_running = running;
            }
        },
    );
}

/// Kernel enqueue/pick/put sequences never lose or duplicate tasks.
#[test]
fn kernel_conserves_tasks() {
    check(
        CASES,
        |rng| {
            vec_of(rng, 1..300, |r| {
                (draw(r, 0..8) as u32, draw(r, 0..16) as u32)
            })
        },
        |ops| {
            let topo = Rc::new(Topology::new(presets::xeon_6130(2)));
            let mut k = KernelState::new(topo);
            let mut now = Time::ZERO;
            let n_tasks = 16usize;
            // Track each task's location: None = outside, Some(core) = on core.
            let mut queued: Vec<Option<u32>> = vec![None; n_tasks];
            let mut running: Vec<Option<u32>> = vec![None; n_tasks];
            for i in 0..n_tasks {
                k.register_task(TaskId::from_index(i), now);
            }
            for &(op, tid) in ops {
                now += 100_000;
                let task = TaskId(tid % n_tasks as u32);
                let ti = task.index();
                let core = CoreId(tid % 64);
                match op {
                    0..=2 => {
                        // Enqueue if the task is currently outside.
                        if queued[ti].is_none() && running[ti].is_none() {
                            k.enqueue(now, task, core);
                            queued[ti] = Some(core.0);
                        }
                    }
                    3..=4 => {
                        // Pick on a core with no current task.
                        if k.core(core).curr.is_none() {
                            if let Some(picked) = k.pick_next(now, core) {
                                assert_eq!(queued[picked.index()], Some(core.0));
                                queued[picked.index()] = None;
                                running[picked.index()] = Some(core.0);
                            }
                        }
                    }
                    5..=6 => {
                        // Put the current task (block).
                        if k.core(core).curr.is_some() {
                            let put = k.put_curr(now, core);
                            assert_eq!(running[put.index()], Some(core.0));
                            running[put.index()] = None;
                        }
                    }
                    _ => {
                        // Steal from the core's queue.
                        if let Some(stolen) = k.steal_queued(core) {
                            assert_eq!(queued[stolen.index()], Some(core.0));
                            queued[stolen.index()] = None;
                        }
                    }
                }
                // Cross-check counts per core.
                for c in 0..64u32 {
                    let nq = queued.iter().filter(|&&q| q == Some(c)).count();
                    assert_eq!(k.core(CoreId(c)).rq.len(), nq);
                }
            }
        },
    );
}

/// Nest's structural invariants hold under arbitrary select/idle
/// sequences: nests stay disjoint, reserve bounded by R_max, chosen
/// cores are in range.
#[test]
fn nest_structural_invariants() {
    check(
        CASES,
        |rng| {
            let ops = vec_of(rng, 1..200, |r| {
                (
                    draw(r, 0..4) as u32,
                    draw(r, 0..64) as u32,
                    draw(r, 0..32) as u32,
                )
            });
            (ops, draw(rng, 0..8) as usize)
        },
        |(ops, r_max)| {
            let r_max = *r_max;
            let spec = presets::xeon_6130(2);
            let topo = Rc::new(Topology::new(spec.clone()));
            let mut k = KernelState::new(Rc::clone(&topo));
            let freq = FreqModel::new(&spec, Governor::Schedutil);
            let mut rng = SimRng::new(5);
            let params = NestParams {
                r_max,
                ..NestParams::default()
            };
            let mut nest = Nest::with_params(64, params);
            let mut now = Time::ZERO;
            let mut n_tasks = 0usize;
            for &(op, core, tid) in ops {
                now += 500_000;
                let core = CoreId(core);
                // Ensure the referenced task exists.
                while n_tasks <= tid as usize {
                    k.register_task(TaskId::from_index(n_tasks), now);
                    n_tasks += 1;
                }
                let task = TaskId(tid);
                let mut env = SchedEnv {
                    now,
                    topo: &topo,
                    freq: &freq,
                    rng: &mut rng,
                };
                match op {
                    0 => {
                        let p = nest.select_core_fork(&mut k, &mut env, task, core);
                        assert!(p.core.index() < 64);
                        // Occupy the chosen core if free, so future searches
                        // see a realistic machine.
                        if k.core(p.core).is_idle()
                            && k.task(task).prev_core.is_none()
                            && !k.cores[p.core.index()].rq.iter().any(|&(_, t)| t == task)
                        {
                            k.enqueue(now, task, p.core);
                            k.pick_next(now, p.core);
                        }
                    }
                    1 => {
                        let p = nest.select_core_wakeup(&mut k, &mut env, task, core);
                        assert!(p.core.index() < 64);
                    }
                    2 => {
                        if k.core(core).curr.is_some() {
                            k.put_curr(now, core);
                            nest.on_core_idle(&mut k, &mut env, core, IdleReason::TaskExited);
                        }
                    }
                    _ => {
                        if k.core(core).is_idle() {
                            nest.on_core_idle(&mut k, &mut env, core, IdleReason::TaskBlocked);
                        }
                    }
                }
                assert!(nest.primary().is_disjoint(nest.reserve()), "nests overlap");
                assert!(nest.reserve().len() <= r_max, "reserve overflow");
            }
        },
    );
}
