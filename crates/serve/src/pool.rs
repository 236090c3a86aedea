//! Request-driver and service-worker behaviours.
//!
//! The closed-loop `server` and `schbench` workload models in
//! `nest-workloads` used to carry near-identical copies of these state
//! machines; they now share this module (re-exported from
//! `nest-workloads`). The behaviours are draw-for-draw identical to the
//! originals so existing scenarios stay byte-deterministic.

use nest_simcore::json::Json;
use nest_simcore::snap::Snap;
use nest_simcore::{snap_struct, Action, Behavior, BehaviorRegistry, ChannelId, SimRng};

/// Registry kind under which [`OpenLoopDriver`] snapshots itself.
const DRIVER_KIND: &str = "serve.driver";
/// Registry kind under which [`ServiceWorker`] snapshots itself.
const WORKER_KIND: &str = "serve.worker";

/// Registers this crate's behaviours with a snapshot-restore registry.
pub fn register_behaviors(reg: &mut BehaviorRegistry) {
    reg.register(DRIVER_KIND, |state, _| {
        Ok(Box::new(OpenLoopDriver::load(state)?))
    });
    reg.register(WORKER_KIND, |state, _| {
        Ok(Box::new(ServiceWorker::load(state)?))
    });
}

/// Open-loop request injector: alternates an exponential inter-arrival
/// sleep with a one-message send until `remaining` requests have been
/// issued, then exits. Constructed with `send_next = false` so the first
/// action is a sleep (requests never arrive at exactly t = 0).
pub struct OpenLoopDriver {
    /// Channel the requests are sent on.
    pub ch: ChannelId,
    /// Requests left to inject.
    pub remaining: u32,
    /// Mean inter-arrival time, µs (exponential).
    pub interarrival_us: f64,
    /// `true` when the next action is the send half of the cycle.
    pub send_next: bool,
}

impl Behavior for OpenLoopDriver {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.remaining == 0 {
            return Action::Exit;
        }
        if self.send_next {
            self.send_next = false;
            self.remaining -= 1;
            Action::Send {
                ch: self.ch,
                msgs: 1,
            }
        } else {
            self.send_next = true;
            Action::Sleep {
                ns: (rng.exponential(self.interarrival_us) * 1_000.0).max(100.0) as u64,
            }
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((DRIVER_KIND, self.save()))
    }
}

snap_struct!(OpenLoopDriver {
    "ch": ch,
    "remaining": remaining,
    "interarrival_us": interarrival_us,
    "send_next": send_next,
});

/// Service worker with a fixed request quota: receive → compute, with an
/// optional reply send closing each iteration (`reply_ch`).
///
/// Without a reply channel this is the `server` worker (receive, service,
/// loop); with one it is the `schbench` worker (receive, think, reply).
/// The jittered compute draw happens once per iteration in both modes, so
/// the RNG stream matches the pre-unification behaviours exactly.
pub struct ServiceWorker {
    /// Channel requests arrive on.
    pub request_ch: ChannelId,
    /// Channel to acknowledge each request on, if the protocol replies.
    pub reply_ch: Option<ChannelId>,
    /// Requests left to service.
    pub quota: u32,
    /// Mean service demand per request, cycles.
    pub service_cycles: u64,
    /// Relative jitter applied to each request's demand (see
    /// [`SimRng::jitter`]).
    pub jitter: f64,
    /// Internal phase: 0 = receive, 1 = compute, 2 = reply.
    pub phase: u8,
}

impl Behavior for ServiceWorker {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.quota == 0 {
            return Action::Exit;
        }
        match self.phase {
            0 => {
                self.phase = 1;
                Action::Recv {
                    ch: self.request_ch,
                }
            }
            1 => {
                let work = Action::Compute {
                    cycles: rng.jitter(self.service_cycles, self.jitter).max(1),
                };
                match self.reply_ch {
                    Some(_) => self.phase = 2,
                    None => {
                        self.phase = 0;
                        self.quota -= 1;
                    }
                }
                work
            }
            _ => {
                self.phase = 0;
                self.quota -= 1;
                Action::Send {
                    ch: self.reply_ch.expect("phase 2 only exists with a reply"),
                    msgs: 1,
                }
            }
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((WORKER_KIND, self.save()))
    }
}

snap_struct!(ServiceWorker {
    "request_ch": request_ch,
    "reply_ch": reply_ch,
    "quota": quota,
    "service_cycles": service_cycles,
    "jitter": jitter,
    "phase": phase,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn action_seq(mut b: impl Behavior) -> String {
        let mut rng = SimRng::new(0);
        let mut seq = String::new();
        loop {
            match b.next(&mut rng) {
                Action::Recv { .. } => seq.push('R'),
                Action::Compute { .. } => seq.push('C'),
                Action::Send { .. } => seq.push('S'),
                Action::Sleep { .. } => seq.push('Z'),
                Action::Exit => break,
                _ => seq.push('?'),
            }
        }
        seq
    }

    #[test]
    fn driver_alternates_sleep_and_send() {
        let d = OpenLoopDriver {
            ch: ChannelId(0),
            remaining: 3,
            interarrival_us: 10.0,
            send_next: false,
        };
        assert_eq!(action_seq(d), "ZSZSZS");
    }

    #[test]
    fn worker_without_reply_loops_recv_compute() {
        let w = ServiceWorker {
            request_ch: ChannelId(0),
            reply_ch: None,
            quota: 3,
            service_cycles: 100,
            jitter: 0.6,
            phase: 0,
        };
        assert_eq!(action_seq(w), "RCRCRC");
    }

    #[test]
    fn worker_with_reply_loops_recv_compute_send() {
        let w = ServiceWorker {
            request_ch: ChannelId(0),
            reply_ch: Some(ChannelId(1)),
            quota: 2,
            service_cycles: 100,
            jitter: 0.3,
            phase: 0,
        };
        assert_eq!(action_seq(w), "RCSRCS");
    }

    #[test]
    fn compute_draw_matches_plain_jitter_stream() {
        // One jitter draw per iteration, nothing else: the worker's
        // compute sizes must replay a bare jitter sequence.
        let mut w = ServiceWorker {
            request_ch: ChannelId(0),
            reply_ch: None,
            quota: 4,
            service_cycles: 1_000,
            jitter: 0.6,
            phase: 0,
        };
        let mut wr = SimRng::new(5);
        let mut seen = Vec::new();
        loop {
            match w.next(&mut wr) {
                Action::Compute { cycles } => seen.push(cycles),
                Action::Exit => break,
                _ => {}
            }
        }
        let mut refr = SimRng::new(5);
        let expected: Vec<u64> = (0..4).map(|_| refr.jitter(1_000, 0.6).max(1)).collect();
        assert_eq!(seen, expected);
    }
}
