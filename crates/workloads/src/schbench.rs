//! Schbench (§5.6): wakeup-latency microbenchmark.
//!
//! Message threads dispatch requests to worker threads; each worker
//! receives a request, "thinks" (computes), and replies. The benchmark
//! reports the 99.9th-percentile wakeup latency — pair this workload with
//! the metrics crate's `WakeupLatencyProbe` to extract it. The paper tests
//! 2-32 message threads and 2-32 workers per message thread via the
//! Phoronix harness.

use nest_serve::ServiceWorker;
use nest_simcore::json::Json;
use nest_simcore::snap::Snap;
use nest_simcore::{
    snap_struct, Action, Behavior, BehaviorRegistry, ChannelId, SimRng, SimSetup, TaskSpec,
};

use crate::{ms_at_ghz, Workload};

const DISPATCHER_KIND: &str = "sch.dispatcher";

pub(crate) fn register(reg: &mut BehaviorRegistry) {
    reg.register(DISPATCHER_KIND, |state, _| {
        Ok(Box::new(Dispatcher::load(state)?))
    });
}

/// Schbench parameters.
#[derive(Clone, Debug)]
pub struct SchbenchSpec {
    /// Message (dispatcher) threads.
    pub message_threads: u32,
    /// Workers per message thread.
    pub workers_per_message: u32,
    /// Requests each worker processes.
    pub requests_per_worker: u32,
    /// Worker think time per request, ms at 3 GHz (schbench default is
    /// ~30 ms cpu time; scaled down for simulation).
    pub think_ms: f64,
}

impl Default for SchbenchSpec {
    fn default() -> SchbenchSpec {
        SchbenchSpec {
            message_threads: 8,
            workers_per_message: 8,
            requests_per_worker: 50,
            think_ms: 3.0,
        }
    }
}

/// Dispatcher: saturates its worker pool with an initial batch, then
/// keeps one request in flight per received reply (schbench keeps every
/// worker busy so wakeup latency reflects contention, not idleness).
struct Dispatcher {
    request_ch: ChannelId,
    reply_ch: ChannelId,
    batch: u32,
    outstanding: u32,
    phase: u8,
}

snap_struct!(Dispatcher {
    "request_ch": request_ch,
    "reply_ch": reply_ch,
    "batch": batch,
    "outstanding": outstanding,
    "phase": phase,
});

impl Behavior for Dispatcher {
    fn next(&mut self, _rng: &mut SimRng) -> Action {
        if self.phase == 0 {
            self.phase = 1;
            return Action::Send {
                ch: self.request_ch,
                msgs: self.batch,
            };
        }
        if self.outstanding == 0 {
            return Action::Exit;
        }
        if self.phase == 1 {
            self.phase = 2;
            return Action::Recv { ch: self.reply_ch };
        }
        self.phase = 1;
        self.outstanding -= 1;
        if self.outstanding >= self.batch {
            Action::Send {
                ch: self.request_ch,
                msgs: 1,
            }
        } else {
            // Tail: no refill, just drain the remaining replies.
            Action::Compute { cycles: 1 }
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((DISPATCHER_KIND, self.save()))
    }
}

/// The schbench workload. The worker (receive → think → reply) is the
/// shared [`nest_serve::ServiceWorker`] with a reply channel; only the
/// saturating `Dispatcher` is schbench-specific.
pub struct Schbench {
    spec: SchbenchSpec,
}

impl Schbench {
    /// Creates schbench with the given parameters.
    pub fn new(spec: SchbenchSpec) -> Schbench {
        Schbench { spec }
    }
}

impl Default for Schbench {
    fn default() -> Schbench {
        Schbench::new(SchbenchSpec::default())
    }
}

impl Workload for Schbench {
    fn name(&self) -> String {
        format!(
            "schbench-m{}-w{}",
            self.spec.message_threads, self.spec.workers_per_message
        )
    }

    fn build(&self, setup: &mut dyn SimSetup, _rng: &mut SimRng) -> Vec<TaskSpec> {
        let mut tasks = Vec::new();
        for m in 0..self.spec.message_threads {
            let request_ch = setup.create_channel();
            let reply_ch = setup.create_channel();
            let w = self.spec.workers_per_message;
            // Each dispatcher keeps its pool saturated: total requests =
            // workers × requests_per_worker.
            tasks.push(TaskSpec::new(
                format!("sch-msg{m}"),
                Box::new(Dispatcher {
                    request_ch,
                    reply_ch,
                    batch: w,
                    outstanding: w * self.spec.requests_per_worker,
                    phase: 0,
                }),
            ));
            for i in 0..w {
                tasks.push(TaskSpec::new(
                    format!("sch-m{m}-w{i}"),
                    Box::new(ServiceWorker {
                        request_ch,
                        reply_ch: Some(reply_ch),
                        quota: self.spec.requests_per_worker,
                        service_cycles: ms_at_ghz(self.spec.think_ms, 3.0),
                        jitter: 0.3,
                        phase: 0,
                    }),
                ));
            }
        }
        tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Setup {
        channels: u32,
    }
    impl SimSetup for Setup {
        fn create_barrier(&mut self, _parties: u32) -> nest_simcore::BarrierId {
            unreachable!()
        }
        fn create_channel(&mut self) -> ChannelId {
            self.channels += 1;
            ChannelId(self.channels - 1)
        }
        fn n_cores(&self) -> usize {
            64
        }
    }

    #[test]
    fn builds_dispatchers_and_workers() {
        let s = Schbench::new(SchbenchSpec {
            message_threads: 2,
            workers_per_message: 3,
            requests_per_worker: 5,
            think_ms: 1.0,
        });
        let mut setup = Setup { channels: 0 };
        let mut rng = SimRng::new(0);
        let tasks = s.build(&mut setup, &mut rng);
        assert_eq!(tasks.len(), 2 * (1 + 3));
        assert_eq!(setup.channels, 4);
    }

    #[test]
    fn request_reply_counts_balance() {
        // Dispatcher sends w*r requests and waits for w*r replies; workers
        // collectively consume and reply exactly that many.
        let w = 3u32;
        let r = 5u32;
        let mut d = Dispatcher {
            request_ch: ChannelId(0),
            reply_ch: ChannelId(1),
            batch: w,
            outstanding: w * r,
            phase: 0,
        };
        let mut rng = SimRng::new(0);
        let mut sends = 0;
        let mut recvs = 0;
        loop {
            match d.next(&mut rng) {
                Action::Send { msgs, .. } => sends += msgs,
                Action::Recv { .. } => recvs += 1,
                Action::Exit => break,
                _ => {}
            }
        }
        assert_eq!(sends, w * r, "every request sent exactly once");
        assert_eq!(recvs, w * r, "every reply consumed");
    }

    #[test]
    fn worker_cycle_is_recv_think_send() {
        let mut w = ServiceWorker {
            request_ch: ChannelId(0),
            reply_ch: Some(ChannelId(1)),
            quota: 2,
            service_cycles: 100,
            jitter: 0.3,
            phase: 0,
        };
        let mut rng = SimRng::new(0);
        let mut seq = String::new();
        loop {
            match w.next(&mut rng) {
                Action::Recv { .. } => seq.push('R'),
                Action::Compute { .. } => seq.push('C'),
                Action::Send { .. } => seq.push('S'),
                Action::Exit => break,
                _ => {}
            }
        }
        assert_eq!(seq, "RCSRCS");
    }
}
