//! NAS Parallel Benchmarks (§5.4): OpenMP HPC kernels, class C.
//!
//! Each kernel forks one task per hardware thread; workers iterate
//! `compute chunk → barrier`. In the optimal placement every task gets its
//! own core at fork time and never moves. Slight per-iteration jitter
//! desynchronizes workers so stragglers make the others sleep at the
//! barrier — which is where wakeup placement quality matters, and where
//! CFS's fork collisions on large machines cause the overloads Lepers et
//! al. observed.

use nest_simcore::json::{self, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{
    snap_struct, Action, BarrierId, Behavior, BehaviorRegistry, SimRng, SimSetup, TaskSpec,
};

use crate::{ms_at_ghz, Workload};

const WORKER_KIND: &str = "nas.worker";
const MASTER_KIND: &str = "nas.master";

pub(crate) fn register(reg: &mut BehaviorRegistry) {
    reg.register(WORKER_KIND, |state, _| {
        Ok(Box::new(NasWorker::load(state)?))
    });
    reg.register(MASTER_KIND, |state, reg| {
        let script = snap::get_arr(state, "script")?
            .iter()
            .map(|a| snap::action_from_json(a, reg))
            .collect::<Result<Vec<Action>, String>>()?;
        Ok(Box::new(MasterBehavior {
            script: script.into_iter(),
            worker: snap::load(state, "worker")?,
            in_worker_phase: snap::load(state, "in_worker_phase")?,
            waited: snap::load(state, "waited")?,
        }))
    });
}

/// Parameters of one NAS kernel (class C sizing).
#[derive(Clone, Debug)]
pub struct NasSpec {
    /// Kernel name as the paper prints it (e.g. `"bt.C.x"`).
    pub name: &'static str,
    /// Barrier-delimited iterations.
    pub iterations: u32,
    /// Compute per task per iteration, ms at 3 GHz (on a 64-thread run;
    /// scaled by thread count so total work is machine-independent).
    pub chunk_ms_at_64: f64,
    /// Relative jitter between workers within an iteration.
    pub jitter: f64,
    /// Serial setup work before the parallel region, ms at 3 GHz.
    pub setup_ms: f64,
}

/// The nine kernels of Figure 12 (DC is omitted, as in the paper).
pub fn all_specs() -> Vec<NasSpec> {
    fn spec(name: &'static str, iterations: u32, chunk_ms_at_64: f64, jitter: f64) -> NasSpec {
        NasSpec {
            name,
            iterations,
            chunk_ms_at_64,
            jitter,
            setup_ms: 120.0,
        }
    }
    // Iterations are barrier-delimited *phases*: BT/LU/SP synchronize at
    // millisecond granularity (pipelined sweeps), EP only once at the
    // end, FT after each large transform step.
    vec![
        spec("bt.C.x", 3_200, 9.5, 0.04),
        spec("cg.C.x", 1_900, 4.3, 0.05),
        spec("ep.C.x", 16, 180.0, 0.03),
        spec("ft.C.x", 66, 115.0, 0.05),
        spec("is.C.x", 110, 6.3, 0.05),
        spec("lu.C.x", 6_000, 3.5, 0.06),
        spec("mg.C.x", 700, 4.1, 0.05),
        spec("sp.C.x", 6_400, 3.6, 0.05),
        spec("ua.C.x", 2_500, 9.6, 0.06),
    ]
}

/// Looks a spec up by name.
pub fn by_name(name: &str) -> Option<NasSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

/// One OpenMP worker: iterate compute → barrier.
struct NasWorker {
    iterations: u32,
    chunk_cycles: u64,
    jitter: f64,
    barrier: BarrierId,
    at_barrier: bool,
}

snap_struct!(NasWorker {
    "iterations": iterations,
    "chunk_cycles": chunk_cycles,
    "jitter": jitter,
    "barrier": barrier,
    "at_barrier": at_barrier,
});

impl Behavior for NasWorker {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.at_barrier {
            self.at_barrier = false;
            return Action::Barrier { id: self.barrier };
        }
        if self.iterations == 0 {
            return Action::Exit;
        }
        self.iterations -= 1;
        self.at_barrier = true;
        Action::Compute {
            cycles: rng.jitter(self.chunk_cycles, self.jitter).max(1),
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((WORKER_KIND, self.save()))
    }
}

/// A NAS workload instance.
pub struct Nas {
    spec: NasSpec,
}

impl Nas {
    /// Creates the workload from a spec.
    pub fn new(spec: NasSpec) -> Nas {
        Nas { spec }
    }

    /// Creates the workload by kernel name.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn named(name: &str) -> Nas {
        Nas::new(by_name(name).unwrap_or_else(|| panic!("unknown NAS kernel {name}")))
    }
}

impl Workload for Nas {
    fn name(&self) -> String {
        self.spec.name.to_string()
    }

    fn build(&self, setup: &mut dyn SimSetup, _rng: &mut SimRng) -> Vec<TaskSpec> {
        let n = setup.n_cores() as u32;
        let barrier = setup.create_barrier(n);
        // Fixed total work: scale the per-task chunk by 64/n.
        let chunk_cycles = ms_at_ghz(self.spec.chunk_ms_at_64 * 64.0 / n as f64, 3.0);
        // The OpenMP master does serial setup, then forks the team in a
        // tight loop (one fork per worker, tiny stride in between — this
        // burst is what trips CFS's stale group statistics on big
        // machines), then participates itself.
        let mut script = vec![Action::Compute {
            cycles: ms_at_ghz(self.spec.setup_ms, 3.0),
        }];
        for w in 1..n {
            script.push(Action::Fork {
                child: TaskSpec::new(
                    format!("{}-{w}", self.spec.name),
                    Box::new(NasWorker {
                        iterations: self.spec.iterations,
                        chunk_cycles,
                        jitter: self.spec.jitter,
                        barrier,
                        at_barrier: false,
                    }),
                ),
            });
            // pthread_create + OpenMP team setup stride (~40 µs at 3 GHz).
            script.push(Action::Compute {
                cycles: ms_at_ghz(0.040, 3.0),
            });
        }
        // The master is worker 0.
        let master_worker = NasWorker {
            iterations: self.spec.iterations,
            chunk_cycles,
            jitter: self.spec.jitter,
            barrier,
            at_barrier: false,
        };
        vec![TaskSpec::new(
            format!("{}-master", self.spec.name),
            Box::new(MasterBehavior {
                script: script.into_iter(),
                worker: master_worker,
                in_worker_phase: false,
                waited: false,
            }),
        )]
    }
}

/// Runs the setup script, then becomes a worker, then waits for the team.
struct MasterBehavior {
    script: std::vec::IntoIter<Action>,
    worker: NasWorker,
    in_worker_phase: bool,
    waited: bool,
}

impl Behavior for MasterBehavior {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if !self.in_worker_phase {
            if let Some(a) = self.script.next() {
                return a;
            }
            self.in_worker_phase = true;
        }
        match self.worker.next(rng) {
            Action::Exit => {
                if self.waited {
                    Action::Exit
                } else {
                    self.waited = true;
                    Action::WaitChildren
                }
            }
            other => other,
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        let script: Option<Vec<Json>> = self
            .script
            .as_slice()
            .iter()
            .map(snap::action_to_json)
            .collect();
        Some((
            MASTER_KIND,
            json::obj(vec![
                ("script", Json::Arr(script?)),
                ("worker", self.worker.save()),
                ("in_worker_phase", self.in_worker_phase.save()),
                ("waited", self.waited.save()),
            ]),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingSetup {
        barriers: Vec<u32>,
    }
    impl SimSetup for CountingSetup {
        fn create_barrier(&mut self, parties: u32) -> BarrierId {
            self.barriers.push(parties);
            BarrierId(self.barriers.len() as u32 - 1)
        }
        fn create_channel(&mut self) -> nest_simcore::ChannelId {
            unreachable!()
        }
        fn n_cores(&self) -> usize {
            64
        }
    }

    #[test]
    fn nine_kernels() {
        let names: Vec<&str> = all_specs().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "bt.C.x", "cg.C.x", "ep.C.x", "ft.C.x", "is.C.x", "lu.C.x", "mg.C.x", "sp.C.x",
                "ua.C.x"
            ]
        );
    }

    #[test]
    fn barrier_spans_all_cores() {
        let w = Nas::named("mg.C.x");
        let mut setup = CountingSetup { barriers: vec![] };
        let mut rng = SimRng::new(0);
        let tasks = w.build(&mut setup, &mut rng);
        assert_eq!(tasks.len(), 1);
        assert_eq!(setup.barriers, vec![64]);
    }

    #[test]
    fn worker_alternates_compute_and_barrier() {
        let mut w = NasWorker {
            iterations: 3,
            chunk_cycles: 1000,
            jitter: 0.0,
            barrier: BarrierId(0),
            at_barrier: false,
        };
        let mut rng = SimRng::new(0);
        let mut seq = Vec::new();
        loop {
            match w.next(&mut rng) {
                Action::Compute { .. } => seq.push('C'),
                Action::Barrier { .. } => seq.push('B'),
                Action::Exit => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seq.iter().collect::<String>(), "CBCBCB");
    }

    #[test]
    fn master_forks_n_minus_one_workers() {
        let w = Nas::named("is.C.x");
        let mut setup = CountingSetup { barriers: vec![] };
        let mut rng = SimRng::new(0);
        let mut beh = w
            .build(&mut setup, &mut rng)
            .into_iter()
            .next()
            .unwrap()
            .behavior;
        let mut forks = 0;
        // Drive through the setup script; stop once the worker phase's
        // first barrier shows up.
        loop {
            match beh.next(&mut rng) {
                Action::Fork { .. } => forks += 1,
                Action::Barrier { .. } => break,
                _ => {}
            }
        }
        assert_eq!(forks, 63);
    }

    #[test]
    fn total_work_is_machine_independent() {
        // chunk at 64 threads vs 128 threads: per-task halves.
        let spec = by_name("ft.C.x").unwrap();
        let at64 = ms_at_ghz(spec.chunk_ms_at_64 * 64.0 / 64.0, 3.0);
        let at128 = ms_at_ghz(spec.chunk_ms_at_64 * 64.0 / 128.0, 3.0);
        assert_eq!(at64, 2 * at128);
    }
}
