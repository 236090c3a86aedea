//! DaCapo-style Java application workloads (§5.3).
//!
//! Each application is modeled as a pool of worker threads that alternate
//! compute chunks with short sleeps (lock waits, I/O, inter-thread
//! synchronization) plus JVM background threads (GC, JIT) that wake
//! briefly and periodically. Apps the paper marks as involving "only one
//! or a few tasks" (blue in Figure 10) are single-threaded plus background
//! threads.
//!
//! Pool sizes and sleep cadences are set so the underload character
//! matches the labels atop Figure 10 (e.g. tradebeans u:23 on the
//! two-socket 6130 — many threads bouncing; biojava u:0.1 — one long
//! task). Total work targets the Figure 10 CFS-schedutil runtimes,
//! capped at ~40 s of simulated time for the very long benchmarks
//! (batik/biojava/eclipse run 100-200 s in the paper; the cap keeps the
//! full experiment matrix tractable and does not affect relative
//! speedups, which are rate-based).

use nest_simcore::json::Json;
use nest_simcore::snap::Snap;
use nest_simcore::{snap_struct, Action, Behavior, BehaviorRegistry, SimRng, SimSetup, TaskSpec};

use crate::{ms_at_ghz, Workload};

const POOL_KIND: &str = "dc.pool";
const QUEUE_KIND: &str = "dc.queue";
const BACKGROUND_KIND: &str = "dc.background";

pub(crate) fn register(reg: &mut BehaviorRegistry) {
    reg.register(POOL_KIND, |state, _| Ok(Box::new(PoolWorker::load(state)?)));
    reg.register(QUEUE_KIND, |state, _| {
        Ok(Box::new(QueueWorker::load(state)?))
    });
    reg.register(BACKGROUND_KIND, |state, _| {
        Ok(Box::new(BackgroundThread::load(state)?))
    });
}

/// Parameters of one DaCapo application model.
#[derive(Clone, Debug)]
pub struct DacapoSpec {
    /// Application name (Figure 10 x-axis label).
    pub name: &'static str,
    /// Worker threads; 0 means "one per hardware thread".
    pub workers: u32,
    /// `true` for the paper's blue (single/few task) applications.
    pub single_task: bool,
    /// Compute chunk between sleeps, ms at 3 GHz.
    pub chunk_ms: f64,
    /// Sleep between chunks, ms.
    pub sleep_ms: f64,
    /// Total compute per worker, ms at 3 GHz.
    pub work_per_worker_ms: f64,
    /// JVM background (GC/JIT) threads.
    pub background_threads: u32,
    /// Relative jitter on chunk and sleep lengths.
    pub jitter: f64,
    /// Queue-driven mode (h2, tradebeans, graphchi, tomcat): workers
    /// block on a shared work queue instead of timers, so wakeups come
    /// *from other threads* — engaging CFS's wake-affine/idle-pair
    /// dispersal (the Figure 8 bouncing) and Nest's packing. The value is
    /// the number of compute chunks per request burst (0 = timer mode).
    pub burst_chunks: u32,
    /// Queue-driven mode: number of request tokens circulating — the
    /// application's steady concurrency level.
    pub queue_tokens: u32,
}

/// The 21 applications of Figure 10 (original + "-eval" suites the paper
/// runs), with pool size / cadence calibrated to the figure's underload
/// labels.
pub fn all_specs() -> Vec<DacapoSpec> {
    fn multi(
        name: &'static str,
        workers: u32,
        chunk_ms: f64,
        sleep_ms: f64,
        work_per_worker_ms: f64,
    ) -> DacapoSpec {
        DacapoSpec {
            name,
            workers,
            single_task: false,
            chunk_ms,
            sleep_ms,
            work_per_worker_ms,
            background_threads: 2,
            jitter: 0.5,
            burst_chunks: 0,
            queue_tokens: 0,
        }
    }
    /// Queue-driven app: `tokens` request tokens circulate among
    /// `workers` threads; every burst completion wakes the next waiter
    /// *from another thread's core*, engaging wake-affine placement.
    fn queue(
        name: &'static str,
        workers: u32,
        chunk_ms: f64,
        burst_chunks: u32,
        tokens: u32,
        work_per_worker_ms: f64,
    ) -> DacapoSpec {
        DacapoSpec {
            name,
            workers,
            single_task: false,
            chunk_ms,
            sleep_ms: 0.0,
            work_per_worker_ms,
            background_threads: 2,
            jitter: 0.5,
            burst_chunks,
            queue_tokens: tokens,
        }
    }

    fn single(name: &'static str, work_ms: f64, chunk_ms: f64, sleep_ms: f64) -> DacapoSpec {
        DacapoSpec {
            name,
            workers: 1,
            single_task: true,
            chunk_ms,
            sleep_ms,
            work_per_worker_ms: work_ms,
            background_threads: 2,
            jitter: 0.4,
            burst_chunks: 0,
            queue_tokens: 0,
        }
    }
    vec![
        // Blue (single/few task) apps first, as in Figure 10's layout.
        multi("avrora", 8, 1.2, 1.6, 2_600.0),
        single("batik-eval", 33_000.0, 40.0, 2.0),
        single("biojava-eval", 38_000.0, 60.0, 1.0),
        multi("eclipse-eval", 6, 8.0, 2.0, 6_500.0),
        single("fop", 2_800.0, 3.0, 0.3),
        multi("jme-eval", 4, 10.0, 3.0, 8_000.0),
        single("jython", 19_000.0, 15.0, 1.0),
        multi("kafka-eval", 8, 2.0, 3.0, 5_500.0),
        single("luindex", 4_200.0, 4.0, 0.7),
        multi("tradesoap-eval", 8, 1.5, 1.0, 5_800.0),
        // Multithreaded apps.
        multi("cassandra-eval", 8, 1.5, 1.2, 6_200.0),
        queue("graphchi-eval", 16, 1.0, 3, 6, 2_200.0),
        queue("h2", 24, 0.8, 4, 8, 3_000.0),
        multi("lusearch", 0, 1.5, 0.15, 350.0),
        multi("lusearch-fix", 0, 1.5, 0.15, 350.0),
        multi("pmd", 16, 0.8, 1.2, 1_600.0),
        multi("sunflow", 0, 12.0, 0.3, 700.0),
        queue("tomcat-eval", 24, 0.7, 2, 8, 1_700.0),
        queue("tradebeans", 32, 0.6, 4, 10, 2_600.0),
        multi("xalan", 0, 0.9, 0.2, 450.0),
        multi("zxing-eval", 12, 1.4, 1.2, 2_300.0),
    ]
}

/// Looks a spec up by name.
pub fn by_name(name: &str) -> Option<DacapoSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

/// A pool worker: compute chunks separated by short sleeps.
struct PoolWorker {
    chunk_cycles: u64,
    sleep_ns: u64,
    remaining_cycles: u64,
    jitter: f64,
    compute_next: bool,
}

snap_struct!(PoolWorker {
    "chunk_cycles": chunk_cycles,
    "sleep_ns": sleep_ns,
    "remaining_cycles": remaining_cycles,
    "jitter": jitter,
    "compute_next": compute_next,
});

impl Behavior for PoolWorker {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.remaining_cycles == 0 {
            return Action::Exit;
        }
        if self.compute_next {
            self.compute_next = false;
            let c = rng
                .jitter(self.chunk_cycles, self.jitter)
                .min(self.remaining_cycles)
                .max(1);
            self.remaining_cycles -= c;
            Action::Compute { cycles: c }
        } else {
            self.compute_next = true;
            Action::Sleep {
                ns: rng.jitter(self.sleep_ns, self.jitter).max(1_000),
            }
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((POOL_KIND, self.save()))
    }
}

/// A queue-driven worker: receive a request token, execute a burst of
/// compute chunks, return the token (waking the next waiter from *this*
/// core — a cross-thread wakeup).
struct QueueWorker {
    ch: nest_simcore::ChannelId,
    quota: u32,
    burst_chunks: u32,
    chunk_cycles: u64,
    jitter: f64,
    /// 0 = recv next, 1..=burst = computing, burst+1 = send.
    phase: u32,
}

snap_struct!(QueueWorker {
    "ch": ch,
    "quota": quota,
    "burst_chunks": burst_chunks,
    "chunk_cycles": chunk_cycles,
    "jitter": jitter,
    "phase": phase,
});

impl Behavior for QueueWorker {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.phase == 0 {
            if self.quota == 0 {
                return Action::Exit;
            }
            self.phase = 1;
            return Action::Recv { ch: self.ch };
        }
        if self.phase <= self.burst_chunks {
            self.phase += 1;
            return Action::Compute {
                cycles: rng.jitter(self.chunk_cycles, self.jitter).max(1),
            };
        }
        self.phase = 0;
        self.quota -= 1;
        Action::Send {
            ch: self.ch,
            msgs: 1,
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((QUEUE_KIND, self.save()))
    }
}

/// A JVM background thread: long sleeps, brief activity bursts.
struct BackgroundThread {
    iterations: u32,
    period_ns: u64,
    burst_cycles: u64,
}

snap_struct!(BackgroundThread {
    "iterations": iterations,
    "period_ns": period_ns,
    "burst_cycles": burst_cycles,
});

impl Behavior for BackgroundThread {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.iterations == 0 {
            return Action::Exit;
        }
        self.iterations -= 1;
        if self.iterations % 2 == 1 {
            Action::Sleep {
                ns: rng.jitter(self.period_ns, 0.5).max(1_000),
            }
        } else {
            Action::Compute {
                cycles: rng.jitter(self.burst_cycles, 0.5).max(1),
            }
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((BACKGROUND_KIND, self.save()))
    }
}

/// A DaCapo workload instance.
pub struct Dacapo {
    spec: DacapoSpec,
}

impl Dacapo {
    /// Creates the workload from a spec.
    pub fn new(spec: DacapoSpec) -> Dacapo {
        Dacapo { spec }
    }

    /// Creates the workload by application name.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn named(name: &str) -> Dacapo {
        Dacapo::new(by_name(name).unwrap_or_else(|| panic!("unknown DaCapo app {name}")))
    }

    /// Estimated serial duration per worker in ms (used to size
    /// background threads).
    fn est_duration_ms(&self) -> f64 {
        let chunks = self.spec.work_per_worker_ms / self.spec.chunk_ms;
        self.spec.work_per_worker_ms + chunks * self.spec.sleep_ms
    }
}

impl Dacapo {
    /// Builds the queue-driven variant (h2, tradebeans, graphchi-eval,
    /// tomcat-eval).
    fn build_queue_driven(
        &self,
        setup: &mut dyn SimSetup,
        rng: &mut SimRng,
        workers: u32,
    ) -> Vec<TaskSpec> {
        let ch = setup.create_channel();
        let burst_ms = self.spec.chunk_ms * self.spec.burst_chunks as f64;
        let quota = (self.spec.work_per_worker_ms / burst_ms).ceil() as u32;
        let mut forks: Vec<Action> = Vec::new();
        for w in 0..workers {
            forks.push(Action::Fork {
                child: TaskSpec::new(
                    format!("{}-w{w}", self.spec.name),
                    Box::new(QueueWorker {
                        ch,
                        quota: rng.jitter(quota as u64, 0.1).max(1) as u32,
                        burst_chunks: self.spec.burst_chunks,
                        chunk_cycles: ms_at_ghz(self.spec.chunk_ms, 3.0),
                        jitter: self.spec.jitter,
                        phase: 0,
                    }),
                ),
            });
        }
        let duration_ms =
            self.spec.work_per_worker_ms * workers as f64 / self.spec.queue_tokens.max(1) as f64;
        for g in 0..self.spec.background_threads {
            let period_ns = 40_000_000u64;
            let iterations = ((duration_ms * 1e6 / period_ns as f64) * 2.0) as u32;
            forks.push(Action::Fork {
                child: TaskSpec::new(
                    format!("{}-bg{g}", self.spec.name),
                    Box::new(BackgroundThread {
                        iterations: iterations.max(2),
                        period_ns,
                        burst_cycles: ms_at_ghz(1.5, 3.0),
                    }),
                ),
            });
        }
        let mut script = vec![Action::Compute {
            cycles: ms_at_ghz(30.0, 3.0),
        }];
        script.extend(forks);
        // Seed the queue with the steady-state token count.
        script.push(Action::Send {
            ch,
            msgs: self.spec.queue_tokens.max(1),
        });
        script.push(Action::WaitChildren);
        vec![TaskSpec::script(format!("{}-main", self.spec.name), script)]
    }
}

impl Workload for Dacapo {
    fn name(&self) -> String {
        self.spec.name.to_string()
    }

    fn build(&self, setup: &mut dyn SimSetup, rng: &mut SimRng) -> Vec<TaskSpec> {
        let workers = if self.spec.workers == 0 {
            setup.n_cores() as u32
        } else {
            self.spec.workers
        };
        if self.spec.burst_chunks > 0 {
            return self.build_queue_driven(setup, rng, workers);
        }
        // The JVM main thread forks the pool and the background threads,
        // then waits — so every worker goes through fork placement.
        let mut forks: Vec<Action> = Vec::new();
        for w in 0..workers {
            let chunk_cycles = ms_at_ghz(self.spec.chunk_ms, 3.0);
            let total = ms_at_ghz(self.spec.work_per_worker_ms, 3.0);
            forks.push(Action::Fork {
                child: TaskSpec::new(
                    format!("{}-w{w}", self.spec.name),
                    Box::new(PoolWorker {
                        chunk_cycles,
                        sleep_ns: (self.spec.sleep_ms * 1e6) as u64,
                        remaining_cycles: rng.jitter(total, 0.1),
                        jitter: self.spec.jitter,
                        compute_next: true,
                    }),
                ),
            });
        }
        let duration_ms = self.est_duration_ms();
        for g in 0..self.spec.background_threads {
            let period_ns = 40_000_000u64; // ~40 ms GC/JIT cadence
            let iterations = ((duration_ms * 1e6 / period_ns as f64) * 2.0) as u32;
            forks.push(Action::Fork {
                child: TaskSpec::new(
                    format!("{}-bg{g}", self.spec.name),
                    Box::new(BackgroundThread {
                        iterations: iterations.max(2),
                        period_ns,
                        burst_cycles: ms_at_ghz(1.5, 3.0),
                    }),
                ),
            });
        }
        // JVM startup work, then the forks, then wait.
        let mut script = vec![Action::Compute {
            cycles: ms_at_ghz(30.0, 3.0),
        }];
        script.extend(forks);
        script.push(Action::WaitChildren);
        vec![TaskSpec::script(format!("{}-main", self.spec.name), script)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DummySetup;
    impl SimSetup for DummySetup {
        fn create_barrier(&mut self, _parties: u32) -> nest_simcore::BarrierId {
            unreachable!()
        }
        fn create_channel(&mut self) -> nest_simcore::ChannelId {
            unreachable!()
        }
        fn n_cores(&self) -> usize {
            64
        }
    }

    #[test]
    fn twenty_one_apps() {
        assert_eq!(all_specs().len(), 21);
        let names: std::collections::HashSet<&str> = all_specs().iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 21, "duplicate app names");
        for key in ["h2", "tradebeans", "graphchi-eval", "fop", "lusearch"] {
            assert!(names.contains(key), "{key} missing");
        }
    }

    #[test]
    fn blue_apps_are_single_task() {
        for name in ["fop", "luindex", "jython", "batik-eval", "biojava-eval"] {
            assert!(by_name(name).unwrap().single_task, "{name}");
        }
        assert!(!by_name("h2").unwrap().single_task);
    }

    #[test]
    fn zero_workers_means_one_per_core() {
        let w = Dacapo::named("lusearch");
        let mut rng = SimRng::new(0);
        let tasks = w.build(&mut DummySetup, &mut rng);
        assert_eq!(tasks.len(), 1, "one main task that forks the pool");
        // Count forks in the main script.
        let mut beh = tasks.into_iter().next().unwrap().behavior;
        let mut forks = 0;
        loop {
            match beh.next(&mut rng) {
                Action::Fork { .. } => forks += 1,
                Action::Exit => break,
                _ => {}
            }
        }
        // 64 workers + 2 background threads.
        assert_eq!(forks, 66);
    }

    #[test]
    fn pool_worker_alternates_and_finishes() {
        let mut w = PoolWorker {
            chunk_cycles: 100,
            sleep_ns: 1_000_000,
            remaining_cycles: 250,
            jitter: 0.0,
            compute_next: true,
        };
        let mut rng = SimRng::new(0);
        let mut computed = 0u64;
        let mut actions = 0;
        loop {
            match w.next(&mut rng) {
                Action::Compute { cycles } => computed += cycles,
                Action::Sleep { .. } => {}
                Action::Exit => break,
                other => panic!("unexpected action {other:?}"),
            }
            actions += 1;
            assert!(actions < 100, "did not terminate");
        }
        assert_eq!(computed, 250, "all work accounted");
    }

    #[test]
    fn background_thread_terminates() {
        let mut b = BackgroundThread {
            iterations: 10,
            period_ns: 1000,
            burst_cycles: 10,
        };
        let mut rng = SimRng::new(0);
        let mut n = 0;
        while !matches!(b.next(&mut rng), Action::Exit) {
            n += 1;
            assert!(n < 100);
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn tradebeans_has_many_more_workers_than_fop() {
        assert!(by_name("tradebeans").unwrap().workers > 8 * by_name("fop").unwrap().workers);
    }
}
