//! Software-configuration workloads (§5.2).
//!
//! A configure script is a shell process that forks hundreds of mostly
//! short-lived tasks — compiler probes, feature tests, tool lookups —
//! usually one or two at a time, occasionally small compile chains
//! (`cc → as → ld`). The root task computes a little (shell parsing)
//! between forks and periodically waits for its children, so the number of
//! concurrent tasks hovers between one and three. This frequent forking of
//! short tasks that mostly run alone is the paper's "ideal case for Nest".
//!
//! The eleven benchmarks are the Phoronix Timed Code Compilation packages
//! the paper uses (Figure 4-7); per-package parameters are calibrated so
//! CFS-schedutil runtimes land near the values printed atop Figure 5.

use nest_simcore::json::{self, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{Action, Behavior, BehaviorRegistry, SimRng, SimSetup, TaskSpec};

use crate::{ms_at_ghz, Workload};

const ROOT_KIND: &str = "cfg.root";

pub(crate) fn register(reg: &mut BehaviorRegistry) {
    reg.register(ROOT_KIND, |state, reg| {
        let name: String = snap::load(state, "spec")?;
        let spec = by_name(&name)
            .ok_or_else(|| format!("snapshot names unknown configure benchmark \"{name}\""))?;
        let phase = match snap::load::<String>(state, "phase")?.as_str() {
            "shell" => RootPhase::Shell,
            "fork_and_wait" => RootPhase::ForkAndWait,
            "tail" => RootPhase::Tail,
            "done" => RootPhase::Done,
            other => return Err(format!("unknown configure root phase \"{other}\"")),
        };
        let pendings = snap::get_arr(state, "pendings")?
            .iter()
            .map(|a| snap::action_from_json(a, reg))
            .collect::<Result<Vec<Action>, String>>()?;
        Ok(Box::new(ConfigureRoot {
            spec,
            tests_left: snap::load(state, "tests_left")?,
            tail_left: snap::load(state, "tail_left")?,
            phase,
            pendings,
        }))
    });
}

/// Parameters of one configure benchmark.
#[derive(Clone, Debug)]
pub struct ConfigureSpec {
    /// Benchmark name (Figure 4/5 x-axis label).
    pub name: &'static str,
    /// Number of feature tests the script runs.
    pub n_tests: u32,
    /// Shell work between forks, ms at 3 GHz.
    pub shell_ms: f64,
    /// Mean test-task length, ms at 3 GHz.
    pub test_ms: f64,
    /// Relative jitter on test length (0..1).
    pub jitter: f64,
    /// Probability that a test is a compile *chain* (sequential cc → as →
    /// ld children rather than a single probe).
    pub chain_prob: f64,
    /// Probability that a test runs a small parallel burst (2-3 tests at
    /// once), as some configure scripts overlap probes.
    pub burst_prob: f64,
    /// Extra long-running single tasks appended at the end (count, ms at
    /// 3 GHz each) — e.g. nodejs's configure is dominated by a few long
    /// python steps, making it "trivial" for Nest (§5.2).
    pub long_tail: Option<(u32, f64)>,
}

impl ConfigureSpec {
    fn test_cycles(&self, rng: &mut SimRng) -> u64 {
        rng.jitter(ms_at_ghz(self.test_ms, 3.0), self.jitter)
    }
}

/// The eleven §5.2 configure benchmarks.
///
/// `n_tests × test_ms` targets the Figure 5 CFS-schedutil runtimes on the
/// two-socket machines (order-of-magnitude calibration).
pub fn all_specs() -> Vec<ConfigureSpec> {
    fn spec(
        name: &'static str,
        n_tests: u32,
        test_ms: f64,
        chain_prob: f64,
        long_tail: Option<(u32, f64)>,
    ) -> ConfigureSpec {
        ConfigureSpec {
            name,
            n_tests,
            shell_ms: 0.6,
            test_ms,
            jitter: 0.6,
            chain_prob,
            burst_prob: 0.08,
            long_tail,
        }
    }
    vec![
        // name           tests  ms   chains  tail
        spec("erlang", 700, 16.0, 0.30, None),
        spec("ffmpeg", 350, 13.0, 0.35, None),
        spec("gcc", 90, 12.0, 0.30, None),
        spec("gdb", 80, 12.0, 0.30, None),
        spec("imagemagick", 800, 16.0, 0.30, None),
        spec("linux", 140, 14.0, 0.40, None),
        spec("llvm_ninja", 500, 17.0, 0.30, None),
        spec("llvm_unix", 620, 17.0, 0.30, None),
        spec("mplayer", 520, 16.0, 0.35, None),
        spec("nodejs", 14, 10.0, 0.20, Some((3, 450.0))),
        spec("php", 680, 16.0, 0.30, None),
    ]
}

/// Looks a spec up by name.
pub fn by_name(name: &str) -> Option<ConfigureSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

/// The root shell task's behaviour.
///
/// Behaviours return one action per call, but a burst needs several forks
/// followed by a wait; `pendings` queues the overflow.
struct ConfigureRoot {
    spec: ConfigureSpec,
    tests_left: u32,
    tail_left: u32,
    phase: RootPhase,
    pendings: Vec<Action>,
}

#[derive(PartialEq)]
enum RootPhase {
    Shell,
    ForkAndWait,
    Tail,
    Done,
}

impl ConfigureRoot {
    fn new(spec: ConfigureSpec) -> ConfigureRoot {
        let tail = spec.long_tail.map_or(0, |(n, _)| n);
        ConfigureRoot {
            tests_left: spec.n_tests,
            tail_left: tail,
            phase: RootPhase::Shell,
            spec,
            pendings: Vec::new(),
        }
    }
}

impl Behavior for ConfigureRoot {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if !self.pendings.is_empty() {
            return self.pendings.remove(0);
        }
        loop {
            match self.phase {
                RootPhase::Shell => {
                    if self.tests_left == 0 {
                        self.phase = RootPhase::Tail;
                        continue;
                    }
                    self.phase = RootPhase::ForkAndWait;
                    return Action::Compute {
                        cycles: rng.jitter(ms_at_ghz(self.spec.shell_ms, 3.0), 0.5),
                    };
                }
                RootPhase::ForkAndWait => {
                    // Fork this round's test(s); the *next* call emits the
                    // wait so children are placed first.
                    let burst = if rng.chance(self.spec.burst_prob) {
                        rng.uniform_u64(2, 3) as u32
                    } else {
                        1
                    };
                    let n = burst.min(self.tests_left).max(1);
                    self.tests_left -= n;
                    self.phase = RootPhase::Shell;
                    // Fork n-1 immediately via nested forks in the child
                    // list; emit one Fork per call: queue them.
                    let mut forks: Vec<TaskSpec> = Vec::new();
                    for _ in 0..n {
                        forks.push(make_test_task(&self.spec, rng));
                    }
                    // Chain the fork actions through a one-shot script:
                    // emit the first here, stash the rest.
                    if forks.len() == 1 {
                        self.pendings.push(Action::WaitChildren);
                    } else {
                        for f in forks.drain(1..) {
                            self.pendings.push(Action::Fork { child: f });
                        }
                        self.pendings.push(Action::WaitChildren);
                    }
                    return Action::Fork {
                        child: forks.pop().expect("at least one fork"),
                    };
                }
                RootPhase::Tail => {
                    if self.tail_left == 0 {
                        self.phase = RootPhase::Done;
                        continue;
                    }
                    self.tail_left -= 1;
                    let (_, ms) = self.spec.long_tail.expect("tail phase without tail");
                    self.pendings.push(Action::WaitChildren);
                    return Action::Fork {
                        child: TaskSpec::script(
                            format!("{}-tail", self.spec.name),
                            vec![Action::Compute {
                                cycles: rng.jitter(ms_at_ghz(ms, 3.0), 0.2),
                            }],
                        ),
                    };
                }
                RootPhase::Done => return Action::Exit,
            }
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        // The spec travels as its registry name; restore looks it up via
        // `by_name`, so hand-built specs outside `all_specs()` are not
        // snapshotable (the scenario registry only ever uses named ones).
        by_name(self.spec.name)?;
        let pendings: Option<Vec<Json>> = self.pendings.iter().map(snap::action_to_json).collect();
        let phase = match self.phase {
            RootPhase::Shell => "shell",
            RootPhase::ForkAndWait => "fork_and_wait",
            RootPhase::Tail => "tail",
            RootPhase::Done => "done",
        };
        Some((
            ROOT_KIND,
            json::obj(vec![
                ("spec", Json::str(self.spec.name)),
                ("tests_left", self.tests_left.save()),
                ("tail_left", self.tail_left.save()),
                ("phase", Json::str(phase)),
                ("pendings", Json::Arr(pendings?)),
            ]),
        ))
    }
}

fn make_test_task(spec: &ConfigureSpec, rng: &mut SimRng) -> TaskSpec {
    let cycles = spec.test_cycles(rng);
    if rng.chance(spec.chain_prob) {
        // A compile chain: cc forks as, which forks ld; each stage is
        // sequential (parent waits), modeling `cc | as | ld` style tests.
        let ld = TaskSpec::script("ld", vec![Action::Compute { cycles: cycles / 4 }]);
        let as_ = TaskSpec::script(
            "as",
            vec![
                Action::Compute { cycles: cycles / 4 },
                Action::Fork { child: ld },
                Action::WaitChildren,
            ],
        );
        TaskSpec::script(
            "cc",
            vec![
                Action::Compute { cycles: cycles / 2 },
                Action::Fork { child: as_ },
                Action::WaitChildren,
            ],
        )
    } else {
        TaskSpec::script("probe", vec![Action::Compute { cycles }])
    }
}

/// A configure workload instance.
pub struct Configure {
    spec: ConfigureSpec,
}

impl Configure {
    /// Creates the workload from a spec.
    pub fn new(spec: ConfigureSpec) -> Configure {
        Configure { spec }
    }

    /// Creates the workload by benchmark name.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn named(name: &str) -> Configure {
        Configure::new(by_name(name).unwrap_or_else(|| panic!("unknown configure test {name}")))
    }
}

impl Workload for Configure {
    fn name(&self) -> String {
        self.spec.name.to_string()
    }

    fn build(&self, _setup: &mut dyn SimSetup, _rng: &mut SimRng) -> Vec<TaskSpec> {
        vec![TaskSpec::new(
            format!("configure-{}", self.spec.name),
            Box::new(ConfigureRoot::new(self.spec.clone())),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DummySetup;
    impl SimSetup for DummySetup {
        fn create_barrier(&mut self, _parties: u32) -> nest_simcore::BarrierId {
            unreachable!("configure uses no barriers")
        }
        fn create_channel(&mut self) -> nest_simcore::ChannelId {
            unreachable!("configure uses no channels")
        }
        fn n_cores(&self) -> usize {
            64
        }
    }

    #[test]
    fn all_eleven_benchmarks_present() {
        let names: Vec<&str> = all_specs().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "erlang",
                "ffmpeg",
                "gcc",
                "gdb",
                "imagemagick",
                "linux",
                "llvm_ninja",
                "llvm_unix",
                "mplayer",
                "nodejs",
                "php"
            ]
        );
    }

    #[test]
    fn by_name_roundtrip() {
        assert_eq!(by_name("gcc").unwrap().name, "gcc");
        assert!(by_name("notabenchmark").is_none());
    }

    #[test]
    fn build_returns_single_root() {
        let w = Configure::named("gcc");
        let mut rng = SimRng::new(0);
        let tasks = w.build(&mut DummySetup, &mut rng);
        assert_eq!(tasks.len(), 1);
        assert_eq!(w.name(), "gcc");
    }

    #[test]
    fn root_behavior_forks_expected_test_count() {
        // Drive the root behaviour manually and count forked children
        // (chains count as one top-level test).
        let spec = ConfigureSpec {
            burst_prob: 0.0,
            chain_prob: 0.0,
            long_tail: None,
            n_tests: 25,
            ..by_name("gcc").unwrap()
        };
        let mut b = ConfigureRoot::new(spec);
        let mut rng = SimRng::new(1);
        let mut forks = 0;
        loop {
            match b.next(&mut rng) {
                Action::Fork { .. } => forks += 1,
                Action::Exit => break,
                _ => {}
            }
        }
        assert_eq!(forks, 25);
    }

    #[test]
    fn bursts_fork_multiple_then_wait() {
        let spec = ConfigureSpec {
            burst_prob: 1.0,
            chain_prob: 0.0,
            long_tail: None,
            n_tests: 6,
            ..by_name("gcc").unwrap()
        };
        let mut b = ConfigureRoot::new(spec);
        let mut rng = SimRng::new(2);
        let mut saw_consecutive_forks = false;
        let mut prev_was_fork = false;
        loop {
            match b.next(&mut rng) {
                Action::Fork { .. } => {
                    if prev_was_fork {
                        saw_consecutive_forks = true;
                    }
                    prev_was_fork = true;
                }
                Action::Exit => break,
                _ => prev_was_fork = false,
            }
        }
        assert!(saw_consecutive_forks, "bursts should fork back-to-back");
    }

    #[test]
    fn nodejs_has_long_tail() {
        let spec = by_name("nodejs").unwrap();
        assert!(spec.long_tail.is_some());
        let mut b = ConfigureRoot::new(spec);
        let mut rng = SimRng::new(3);
        let mut max_fork_cycles = 0u64;
        loop {
            match b.next(&mut rng) {
                Action::Fork { child } => {
                    // Inspect by running the child's behaviour.
                    let mut beh = child.behavior;
                    if let Action::Compute { cycles } = beh.next(&mut rng) {
                        max_fork_cycles = max_fork_cycles.max(cycles);
                    }
                }
                Action::Exit => break,
                _ => {}
            }
        }
        // The tail tasks are hundreds of ms: > 1e9 cycles at 3 GHz.
        assert!(max_fork_cycles > 1_000_000_000, "{max_fork_cycles}");
    }
}
