//! Hackbench (§5.6): groups of sender/receiver pairs exchanging messages.
//!
//! `hackbench -g G -l L` creates `G` groups of 20 senders and 20
//! receivers; every sender sends `L` messages spread over the group's
//! receivers. Execution time is dominated by scheduling (96 % system time
//! with CFS in the paper), and the constant wake/block churn is an
//! adversarial case for Nest. The default sizes here are scaled down from
//! the paper's `-g 100 -l 10000` to keep simulation tractable; the
//! *structure* (pairs, message batching, full-machine churn) is preserved.

use nest_simcore::json::Json;
use nest_simcore::snap::Snap;
use nest_simcore::{
    snap_struct, Action, Behavior, BehaviorRegistry, ChannelId, SimRng, SimSetup, TaskSpec,
};

use crate::Workload;

const SENDER_KIND: &str = "hb.sender";
const RECEIVER_KIND: &str = "hb.receiver";

pub(crate) fn register(reg: &mut BehaviorRegistry) {
    reg.register(SENDER_KIND, |state, _| Ok(Box::new(Sender::load(state)?)));
    reg.register(RECEIVER_KIND, |state, _| {
        Ok(Box::new(Receiver::load(state)?))
    });
}

/// Hackbench parameters.
#[derive(Clone, Debug)]
pub struct HackbenchSpec {
    /// Number of groups.
    pub groups: u32,
    /// Senders (and receivers) per group; hackbench uses 20.
    pub fan: u32,
    /// Messages each sender sends.
    pub loops: u32,
    /// Per-message compute (copy cost), cycles.
    pub msg_cycles: u64,
}

impl Default for HackbenchSpec {
    fn default() -> HackbenchSpec {
        HackbenchSpec {
            groups: 16,
            fan: 10,
            loops: 1_000,
            msg_cycles: 30_000, // ~10 µs at 3 GHz per message
        }
    }
}

struct Sender {
    ch: ChannelId,
    loops: u32,
    msg_cycles: u64,
    send_next: bool,
}

snap_struct!(Sender {
    "ch": ch,
    "loops": loops,
    "msg_cycles": msg_cycles,
    "send_next": send_next,
});

impl Behavior for Sender {
    fn next(&mut self, _rng: &mut SimRng) -> Action {
        if self.send_next {
            self.send_next = false;
            return Action::Send {
                ch: self.ch,
                msgs: 1,
            };
        }
        if self.loops == 0 {
            return Action::Exit;
        }
        self.send_next = true;
        self.loops -= 1;
        Action::Compute {
            cycles: self.msg_cycles,
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((SENDER_KIND, self.save()))
    }
}

struct Receiver {
    ch: ChannelId,
    msgs: u32,
    msg_cycles: u64,
    recv_next: bool,
}

snap_struct!(Receiver {
    "ch": ch,
    "msgs": msgs,
    "msg_cycles": msg_cycles,
    "recv_next": recv_next,
});

impl Behavior for Receiver {
    fn next(&mut self, _rng: &mut SimRng) -> Action {
        if self.msgs == 0 {
            return Action::Exit;
        }
        if self.recv_next {
            self.recv_next = false;
            Action::Recv { ch: self.ch }
        } else {
            self.recv_next = true;
            self.msgs -= 1;
            Action::Compute {
                cycles: self.msg_cycles,
            }
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((RECEIVER_KIND, self.save()))
    }
}

/// The hackbench workload.
pub struct Hackbench {
    spec: HackbenchSpec,
}

impl Hackbench {
    /// Creates hackbench with the given parameters.
    pub fn new(spec: HackbenchSpec) -> Hackbench {
        Hackbench { spec }
    }
}

impl Default for Hackbench {
    fn default() -> Hackbench {
        Hackbench::new(HackbenchSpec::default())
    }
}

impl Workload for Hackbench {
    fn name(&self) -> String {
        format!("hackbench-g{}-l{}", self.spec.groups, self.spec.loops)
    }

    fn build(&self, setup: &mut dyn SimSetup, _rng: &mut SimRng) -> Vec<TaskSpec> {
        let mut tasks = Vec::new();
        for g in 0..self.spec.groups {
            // One shared channel per group; every sender's messages are
            // competed for by the group's receivers (hackbench uses a
            // socket pair matrix; the contention pattern is the same).
            let ch = setup.create_channel();
            for s in 0..self.spec.fan {
                tasks.push(TaskSpec::new(
                    format!("hb-g{g}-send{s}"),
                    Box::new(Sender {
                        ch,
                        loops: self.spec.loops,
                        msg_cycles: self.spec.msg_cycles,
                        send_next: false,
                    }),
                ));
            }
            // Total messages sent into the group, split among receivers.
            let total = self.spec.loops * self.spec.fan;
            let per_recv = total / self.spec.fan;
            for r in 0..self.spec.fan {
                tasks.push(TaskSpec::new(
                    format!("hb-g{g}-recv{r}"),
                    Box::new(Receiver {
                        ch,
                        msgs: per_recv,
                        msg_cycles: self.spec.msg_cycles,
                        recv_next: true,
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
    fn builds_2_fan_tasks_per_group() {
        let hb = Hackbench::new(HackbenchSpec {
            groups: 3,
            fan: 5,
            loops: 10,
            msg_cycles: 100,
        });
        let mut setup = Setup { channels: 0 };
        let mut rng = SimRng::new(0);
        let tasks = hb.build(&mut setup, &mut rng);
        assert_eq!(tasks.len(), 3 * (5 + 5));
        assert_eq!(setup.channels, 3);
    }

    #[test]
    fn sender_message_count_matches_loops() {
        let mut s = Sender {
            ch: ChannelId(0),
            loops: 4,
            msg_cycles: 10,
            send_next: false,
        };
        let mut rng = SimRng::new(0);
        let mut sends = 0;
        loop {
            match s.next(&mut rng) {
                Action::Send { msgs, .. } => sends += msgs,
                Action::Exit => break,
                _ => {}
            }
        }
        assert_eq!(sends, 4);
    }

    #[test]
    fn receiver_consumes_expected_messages() {
        let mut r = Receiver {
            ch: ChannelId(0),
            msgs: 4,
            msg_cycles: 10,
            recv_next: true,
        };
        let mut rng = SimRng::new(0);
        let mut recvs = 0;
        loop {
            match r.next(&mut rng) {
                Action::Recv { .. } => recvs += 1,
                Action::Exit => break,
                _ => {}
            }
        }
        assert_eq!(recvs, 4);
    }

    #[test]
    fn messages_balance_group_wide() {
        let spec = HackbenchSpec::default();
        let sent = spec.loops * spec.fan;
        let received = (spec.loops * spec.fan / spec.fan) * spec.fan;
        assert_eq!(sent, received, "group would deadlock");
    }
}
