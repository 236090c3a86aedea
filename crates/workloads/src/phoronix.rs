//! Phoronix multicore suite models (§5.5, Figure 13, Table 4).
//!
//! Each named test of Figure 13 gets a behavioural pattern matching the
//! §5.5 narrative: zstd compression is a storm of very short tasks, the
//! cpuminer/oneDNN/oidn tests keep every core busy in synchronized
//! rounds, Rodinia uses 36 cores, libavif's encoder threads drift between
//! sockets, the libgav1 decoders use a frame pipeline of moderate width.
//!
//! Because the full 222-test corpus cannot be run here, the Table 4
//! overview additionally samples parameterized *archetype families*
//! ([`archetype_suite`]) spanning the same behaviour space; DESIGN.md
//! documents the substitution.

use nest_simcore::json::Json;
use nest_simcore::snap::Snap;
use nest_simcore::{snap_struct, Action, Behavior, BehaviorRegistry, SimRng, SimSetup, TaskSpec};

use crate::{ms_at_ghz, Workload};

const STORM_KIND: &str = "px.storm";
const BARRIER_KIND: &str = "px.barrier";

pub(crate) fn register(reg: &mut BehaviorRegistry) {
    reg.register(STORM_KIND, |state, _| Ok(Box::new(StormRoot::load(state)?)));
    reg.register(BARRIER_KIND, |state, _| {
        Ok(Box::new(BarrierWorker::load(state)?))
    });
}

/// How a test's tasks behave.
#[derive(Clone, Debug)]
pub enum Pattern {
    /// A stream of very short tasks forked by a coordinator, `concurrent`
    /// at a time (zstd, graphics-magick).
    Storm {
        /// Concurrent in-flight tasks.
        concurrent: u32,
        /// Task length, ms at 3 GHz.
        task_ms: f64,
        /// Total tasks.
        count: u32,
    },
    /// A pool of threads alternating compute and short sleeps
    /// (ffmpeg, libgav1, libavif, cassandra).
    Pool {
        /// Threads; 0 = one per hardware thread.
        threads: u32,
        /// Chunk, ms at 3 GHz.
        chunk_ms: f64,
        /// Sleep between chunks, ms.
        sleep_ms: f64,
        /// Work per thread, ms at 3 GHz.
        work_ms: f64,
    },
    /// Barrier-synchronized iterations (cpuminer, oneDNN, oidn, rodinia,
    /// arrayfire, askap).
    Barrier {
        /// Threads; 0 = one per hardware thread.
        threads: u32,
        /// Chunk per iteration, ms at 3 GHz.
        chunk_ms: f64,
        /// Worker desynchronization.
        jitter: f64,
        /// Iterations.
        iters: u32,
    },
}

/// A named Phoronix test.
#[derive(Clone, Debug)]
pub struct PhoronixSpec {
    /// Test label as in Figure 13 (e.g. `"zstd compression 7"`).
    pub name: String,
    /// Behaviour pattern.
    pub pattern: Pattern,
}

/// The 27 tests of Figure 13 / Table 5.
pub fn figure13_specs() -> Vec<PhoronixSpec> {
    fn t(name: &str, pattern: Pattern) -> PhoronixSpec {
        PhoronixSpec {
            name: name.to_string(),
            pattern,
        }
    }
    use Pattern::*;
    vec![
        t(
            "arrayfire 2",
            Barrier {
                threads: 0,
                chunk_ms: 1.2,
                jitter: 0.05,
                iters: 500,
            },
        ),
        t(
            "arrayfire 3",
            Barrier {
                threads: 0,
                chunk_ms: 0.8,
                jitter: 0.08,
                iters: 700,
            },
        ),
        t(
            "askap 5",
            Barrier {
                threads: 0,
                chunk_ms: 3.0,
                jitter: 0.05,
                iters: 300,
            },
        ),
        t(
            "cassandra 1",
            Pool {
                threads: 32,
                chunk_ms: 0.8,
                sleep_ms: 0.6,
                work_ms: 2_500.0,
            },
        ),
        t(
            "cpuminer-opt 6",
            Barrier {
                threads: 0,
                chunk_ms: 6.0,
                jitter: 0.02,
                iters: 250,
            },
        ),
        t(
            "cpuminer-opt 7",
            Barrier {
                threads: 0,
                chunk_ms: 6.0,
                jitter: 0.02,
                iters: 225,
            },
        ),
        t(
            "cpuminer-opt 8",
            Barrier {
                threads: 0,
                chunk_ms: 6.0,
                jitter: 0.02,
                iters: 240,
            },
        ),
        t(
            "cpuminer-opt 9",
            Barrier {
                threads: 0,
                chunk_ms: 6.0,
                jitter: 0.02,
                iters: 210,
            },
        ),
        t(
            "cpuminer-opt 11",
            Barrier {
                threads: 0,
                chunk_ms: 6.0,
                jitter: 0.02,
                iters: 230,
            },
        ),
        t(
            "ffmpeg 1",
            Pool {
                threads: 12,
                chunk_ms: 2.5,
                sleep_ms: 0.5,
                work_ms: 2_200.0,
            },
        ),
        t(
            "graphics-magick 4",
            Storm {
                concurrent: 4,
                task_ms: 6.0,
                count: 500,
            },
        ),
        t(
            "libavif avifenc 1",
            Pool {
                threads: 24,
                chunk_ms: 1.8,
                sleep_ms: 1.4,
                work_ms: 3_200.0,
            },
        ),
        t(
            "libgav1 1",
            Pool {
                threads: 8,
                chunk_ms: 1.2,
                sleep_ms: 0.4,
                work_ms: 2_800.0,
            },
        ),
        t(
            "libgav1 2",
            Pool {
                threads: 8,
                chunk_ms: 1.0,
                sleep_ms: 0.4,
                work_ms: 2_300.0,
            },
        ),
        t(
            "libgav1 3",
            Pool {
                threads: 10,
                chunk_ms: 1.2,
                sleep_ms: 0.5,
                work_ms: 3_000.0,
            },
        ),
        t(
            "libgav1 4",
            Pool {
                threads: 10,
                chunk_ms: 1.0,
                sleep_ms: 0.5,
                work_ms: 2_600.0,
            },
        ),
        t(
            "oidn 1",
            Barrier {
                threads: 0,
                chunk_ms: 4.0,
                jitter: 0.04,
                iters: 200,
            },
        ),
        t(
            "oidn 2",
            Barrier {
                threads: 0,
                chunk_ms: 4.0,
                jitter: 0.04,
                iters: 200,
            },
        ),
        t(
            "oidn 3",
            Barrier {
                threads: 0,
                chunk_ms: 5.0,
                jitter: 0.04,
                iters: 160,
            },
        ),
        t(
            "onednn 4",
            Barrier {
                threads: 0,
                chunk_ms: 0.6,
                jitter: 0.10,
                iters: 220,
            },
        ),
        t(
            "onednn 5",
            Barrier {
                threads: 0,
                chunk_ms: 0.5,
                jitter: 0.10,
                iters: 220,
            },
        ),
        t(
            "onednn 7",
            Barrier {
                threads: 0,
                chunk_ms: 2.2,
                jitter: 0.06,
                iters: 140,
            },
        ),
        t(
            "onednn 11",
            Barrier {
                threads: 0,
                chunk_ms: 2.0,
                jitter: 0.06,
                iters: 140,
            },
        ),
        t(
            "onednn 14",
            Barrier {
                threads: 0,
                chunk_ms: 2.0,
                jitter: 0.06,
                iters: 140,
            },
        ),
        t(
            "rodinia 5",
            Barrier {
                threads: 36,
                chunk_ms: 2.4,
                jitter: 0.08,
                iters: 120,
            },
        ),
        t(
            "zstd compression 7",
            Storm {
                concurrent: 6,
                task_ms: 2.2,
                count: 1_800,
            },
        ),
        t(
            "zstd compression 10",
            Storm {
                concurrent: 6,
                task_ms: 2.6,
                count: 1_500,
            },
        ),
    ]
}

/// Looks a Figure 13 spec up by name.
pub fn by_name(name: &str) -> Option<PhoronixSpec> {
    figure13_specs().into_iter().find(|s| s.name == name)
}

/// Generates `n` archetype tests spanning the suite's behaviour space,
/// for the Table 4 aggregate.
pub fn archetype_suite(n: usize, rng: &mut SimRng) -> Vec<PhoronixSpec> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let kind = rng.weighted_index(&[0.25, 0.35, 0.40]);
        let pattern = match kind {
            0 => Pattern::Storm {
                concurrent: rng.uniform_u64(1, 8) as u32,
                task_ms: 1.0 + rng.uniform_f64() * 8.0,
                count: rng.uniform_u64(200, 1200) as u32,
            },
            1 => Pattern::Pool {
                threads: rng.uniform_u64(4, 48) as u32,
                chunk_ms: 0.5 + rng.uniform_f64() * 6.0,
                sleep_ms: 0.1 + rng.uniform_f64() * 1.5,
                work_ms: 800.0 + rng.uniform_f64() * 2_500.0,
            },
            _ => Pattern::Barrier {
                threads: if rng.chance(0.6) {
                    0
                } else {
                    rng.uniform_u64(8, 48) as u32
                },
                chunk_ms: 0.5 + rng.uniform_f64() * 6.0,
                jitter: 0.02 + rng.uniform_f64() * 0.1,
                iters: rng.uniform_u64(30, 200) as u32,
            },
        };
        out.push(PhoronixSpec {
            name: format!("archetype {i}"),
            pattern,
        });
    }
    out
}

/// Storm coordinator: keeps `concurrent` short tasks in flight.
struct StormRoot {
    task_cycles: u64,
    concurrent: u32,
    remaining: u32,
    phase: u8,
    to_fork: u32,
}

snap_struct!(StormRoot {
    "task_cycles": task_cycles,
    "concurrent": concurrent,
    "remaining": remaining,
    "phase": phase,
    "to_fork": to_fork,
});

impl Behavior for StormRoot {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        loop {
            if self.to_fork > 0 {
                self.to_fork -= 1;
                self.remaining -= 1;
                return Action::Fork {
                    child: TaskSpec::script(
                        "storm-task",
                        vec![Action::Compute {
                            cycles: rng.jitter(self.task_cycles, 0.4).max(1),
                        }],
                    ),
                };
            }
            match self.phase {
                0 => {
                    if self.remaining == 0 {
                        return Action::Exit;
                    }
                    self.to_fork = self.concurrent.min(self.remaining);
                    self.phase = 1;
                }
                _ => {
                    self.phase = 0;
                    return Action::WaitChildren;
                }
            }
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((STORM_KIND, self.save()))
    }
}

/// A Phoronix workload instance.
pub struct Phoronix {
    spec: PhoronixSpec,
}

impl Phoronix {
    /// Creates the workload from a spec.
    pub fn new(spec: PhoronixSpec) -> Phoronix {
        Phoronix { spec }
    }

    /// Creates the workload by Figure 13 test name.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn named(name: &str) -> Phoronix {
        Phoronix::new(by_name(name).unwrap_or_else(|| panic!("unknown Phoronix test {name}")))
    }
}

impl Workload for Phoronix {
    fn name(&self) -> String {
        self.spec.name.clone()
    }

    fn build(&self, setup: &mut dyn SimSetup, rng: &mut SimRng) -> Vec<TaskSpec> {
        match self.spec.pattern {
            Pattern::Storm {
                concurrent,
                task_ms,
                count,
            } => vec![TaskSpec::new(
                format!("{}-root", self.spec.name),
                Box::new(StormRoot {
                    task_cycles: ms_at_ghz(task_ms, 3.0),
                    concurrent,
                    remaining: count,
                    phase: 0,
                    to_fork: 0,
                }),
            )],
            Pattern::Pool {
                threads,
                chunk_ms,
                sleep_ms,
                work_ms,
            } => {
                let spec = crate::dacapo::DacapoSpec {
                    name: "phoronix-pool",
                    workers: threads,
                    single_task: false,
                    chunk_ms,
                    sleep_ms,
                    work_per_worker_ms: work_ms,
                    background_threads: 0,
                    jitter: 0.4,
                    burst_chunks: 0,
                    queue_tokens: 0,
                };
                crate::dacapo::Dacapo::new(spec).build(setup, rng)
            }
            Pattern::Barrier {
                threads,
                chunk_ms,
                jitter,
                iters,
            } => {
                let n = if threads == 0 {
                    setup.n_cores() as u32
                } else {
                    threads
                };
                let barrier = setup.create_barrier(n);
                let chunk = ms_at_ghz(chunk_ms, 3.0);
                // A launcher forks the team (fork burst), then waits.
                let mut script = vec![Action::Compute {
                    cycles: ms_at_ghz(10.0, 3.0),
                }];
                for w in 0..n {
                    script.push(Action::Fork {
                        child: TaskSpec::new(
                            format!("{}-{w}", self.spec.name),
                            Box::new(BarrierWorker {
                                iterations: iters,
                                chunk_cycles: chunk,
                                jitter,
                                barrier,
                                at_barrier: false,
                            }),
                        ),
                    });
                    script.push(Action::Compute {
                        cycles: ms_at_ghz(0.02, 3.0),
                    });
                }
                script.push(Action::WaitChildren);
                vec![TaskSpec::script(format!("{}-root", self.spec.name), script)]
            }
        }
    }
}

/// Same structure as the NAS worker; duplicated locally to keep the
/// Phoronix module self-contained with its own iteration semantics.
struct BarrierWorker {
    iterations: u32,
    chunk_cycles: u64,
    jitter: f64,
    barrier: nest_simcore::BarrierId,
    at_barrier: bool,
}

snap_struct!(BarrierWorker {
    "iterations": iterations,
    "chunk_cycles": chunk_cycles,
    "jitter": jitter,
    "barrier": barrier,
    "at_barrier": at_barrier,
});

impl Behavior for BarrierWorker {
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
        Some((BARRIER_KIND, self.save()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Setup {
        barriers: Vec<u32>,
    }
    impl SimSetup for Setup {
        fn create_barrier(&mut self, parties: u32) -> nest_simcore::BarrierId {
            self.barriers.push(parties);
            nest_simcore::BarrierId(self.barriers.len() as u32 - 1)
        }
        fn create_channel(&mut self) -> nest_simcore::ChannelId {
            unreachable!()
        }
        fn n_cores(&self) -> usize {
            64
        }
    }

    #[test]
    fn twenty_seven_named_tests() {
        assert_eq!(figure13_specs().len(), 27);
        assert!(by_name("rodinia 5").is_some());
        assert!(by_name("zstd compression 7").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn rodinia_uses_36_threads() {
        let spec = by_name("rodinia 5").unwrap();
        match spec.pattern {
            Pattern::Barrier { threads, .. } => assert_eq!(threads, 36),
            _ => panic!("rodinia should be a barrier pattern"),
        }
    }

    #[test]
    fn storm_root_forks_count_tasks_in_batches() {
        let mut root = StormRoot {
            task_cycles: 100,
            concurrent: 4,
            remaining: 10,
            phase: 0,
            to_fork: 0,
        };
        let mut rng = SimRng::new(0);
        let mut forks = 0;
        let mut waits = 0;
        loop {
            match root.next(&mut rng) {
                Action::Fork { .. } => forks += 1,
                Action::WaitChildren => waits += 1,
                Action::Exit => break,
                _ => {}
            }
        }
        assert_eq!(forks, 10);
        assert_eq!(waits, 3, "10 tasks in batches of 4 → 3 waits");
    }

    #[test]
    fn barrier_pattern_allocates_machine_wide_team() {
        let w = Phoronix::named("cpuminer-opt 6");
        let mut setup = Setup { barriers: vec![] };
        let mut rng = SimRng::new(0);
        let tasks = w.build(&mut setup, &mut rng);
        assert_eq!(tasks.len(), 1);
        assert_eq!(setup.barriers, vec![64]);
    }

    #[test]
    fn archetype_suite_is_deterministic_and_sized() {
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        let a = archetype_suite(50, &mut r1);
        let b = archetype_suite(50, &mut r2);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{:?}", x.pattern), format!("{:?}", y.pattern));
        }
    }
}
