//! Cross-crate invariant tests: whatever the workload and policy, the
//! engine must conserve tasks, keep the trace well-formed, and respect
//! the machine's frequency envelope.

use std::cell::RefCell;
use std::rc::Rc;

use nest_engine::Engine;
use nest_repro::{presets, EngineConfig, Workload};
use nest_sched::{Cfs, Nest, SchedPolicy, Smove};
use nest_simcore::{Probe, SimRng, Time, TraceEvent};
use nest_workloads::{
    configure::Configure,
    hackbench::{Hackbench, HackbenchSpec},
    nas::Nas,
    schbench::{Schbench, SchbenchSpec},
    server::{Server, ServerSpec},
};

/// Checks trace well-formedness: RunStart/RunStop pairing per core, no
/// frequency outside the machine envelope, monotonic time.
struct InvariantProbe {
    errors: Vec<String>,
    running: Vec<Option<u32>>,
    fmin_khz: u64,
    fmax_khz: u64,
    last: Time,
}

impl Probe for InvariantProbe {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        if now < self.last {
            self.errors.push(format!("time went backwards at {now}"));
        }
        self.last = now;
        let error = match event {
            TraceEvent::RunStart { task, core } => {
                let slot = &mut self.running[core.index()];
                let error = slot.map(|t| format!("core {core} started {task} while running {t}"));
                *slot = Some(task.0);
                error
            }
            TraceEvent::RunStop { task, core, .. } => {
                let slot = &mut self.running[core.index()];
                let error = (*slot != Some(task.0))
                    .then(|| format!("core {core} stopped {task} but ran {slot:?}"));
                *slot = None;
                error
            }
            TraceEvent::FreqChange { core, freq } => {
                let khz = freq.as_khz();
                (khz < self.fmin_khz || khz > self.fmax_khz)
                    .then(|| format!("core {core} at {freq} outside envelope"))
            }
            TraceEvent::SpinStart { core } if self.running[core.index()].is_some() => {
                Some(format!("core {core} spinning while running a task"))
            }
            _ => None,
        };
        self.errors.extend(error);
    }
}

fn check(workload: &dyn Workload, policy: Box<dyn SchedPolicy>) {
    let machine = presets::xeon_6130(2);
    let mut cfg = EngineConfig::new(machine.clone());
    cfg.horizon = Time::from_secs(120);
    let mut engine = Engine::new(cfg, policy);
    let probe = Rc::new(RefCell::new(InvariantProbe {
        errors: Vec::new(),
        running: vec![None; machine.n_cores()],
        fmin_khz: machine.freq.fmin.as_khz(),
        fmax_khz: machine.freq.fmax().as_khz(),
        last: Time::ZERO,
    }));
    engine.add_probe(Box::new(Rc::clone(&probe)));
    let mut rng = SimRng::new(3);
    let tasks = workload.build(&mut engine, &mut rng);
    let spawned = tasks.len();
    for t in tasks {
        engine.spawn(t);
    }
    let out = engine.run();
    assert!(
        !out.hit_horizon,
        "{}: did not finish (deadlock or runaway)",
        workload.name()
    );
    assert_eq!(out.live_tasks, 0, "{}: tasks leaked", workload.name());
    assert!(out.total_tasks >= spawned);
    assert!(out.energy_joules > 0.0);
    let errs = &probe.borrow().errors;
    assert!(
        errs.is_empty(),
        "{}: {:?}",
        workload.name(),
        &errs[..errs.len().min(5)]
    );
}

#[test]
fn invariants_configure_under_all_policies() {
    let w = Configure::named("gdb");
    check(&w, Box::new(Cfs::new()));
    check(&w, Box::new(Nest::new(64)));
    check(&w, Box::new(Smove::new()));
}

#[test]
fn invariants_nas_barriers() {
    check(&Nas::named("is.C.x"), Box::new(Nest::new(64)));
    check(&Nas::named("is.C.x"), Box::new(Cfs::new()));
}

#[test]
fn invariants_hackbench_channels() {
    let hb = Hackbench::new(HackbenchSpec {
        groups: 4,
        fan: 5,
        loops: 50,
        msg_cycles: 20_000,
    });
    check(&hb, Box::new(Nest::new(64)));
    check(&hb, Box::new(Cfs::new()));
}

#[test]
fn invariants_schbench_request_reply() {
    let sb = Schbench::new(SchbenchSpec {
        message_threads: 4,
        workers_per_message: 4,
        requests_per_worker: 20,
        think_ms: 1.0,
    });
    check(&sb, Box::new(Nest::new(64)));
}

#[test]
fn invariants_server_open_loop() {
    check(&Server::new(ServerSpec::redis()), Box::new(Nest::new(64)));
    check(&Server::new(ServerSpec::nginx(100)), Box::new(Cfs::new()));
}

#[test]
fn invariants_queue_driven_dacapo() {
    use nest_workloads::dacapo::Dacapo;
    check(&Dacapo::named("graphchi-eval"), Box::new(Nest::new(64)));
}
