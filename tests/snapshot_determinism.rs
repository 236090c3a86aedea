//! The snapshot/restore correctness bar, pinned as tests: for every
//! scheduling policy, with and without fault injection and request
//! serving, a run that pauses mid-flight, snapshots, restores from the
//! snapshot text, and continues must be indistinguishable from a run
//! that never paused — and the snapshot itself must round-trip through
//! restore to byte-identical text.
//!
//! These are the end-to-end guarantees behind `nest-sim replay`: a
//! what-if branched from a snapshot starts from exactly the state a
//! straight run would have reached.

use nest_repro::scenario::Scenario;
use nest_repro::{restore, run_once, run_until, PausedSim, Progress, SnapError};
use nest_simcore::Time;

/// Every `(policy × variant)` combination the correctness bar covers:
/// a plain batch workload, the same workload under a fault plan, and an
/// open-loop serving workload, all under schedutil; plus the batch
/// workload under the performance governor for CFS and Nest, which
/// completes the {cfs, nest} × {schedutil, performance} setups of fig04.
fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for policy in ["cfs", "nest", "smove"] {
        let plain = Scenario::parse("5218", policy, "schedutil", "configure:gdb")
            .expect("plain scenario parses")
            .with_seed(2022);
        let faulted = plain
            .clone()
            .with_faults("faults:hotplug=2@50ms:120ms,throttle=s0:0.7")
            .expect("fault plan parses");
        let serving = Scenario::parse("5218", policy, "schedutil", "serve:requests=300,rate=2000")
            .expect("serving scenario parses")
            .with_seed(2022);
        out.extend([plain, faulted, serving]);
    }
    for policy in ["cfs", "nest"] {
        out.push(
            Scenario::parse("5218", policy, "performance", "configure:gdb")
                .expect("performance scenario parses")
                .with_seed(2022),
        );
    }
    out
}

/// Runs `s` to the pause point, asserting it actually pauses (the whole
/// suite is vacuous if the workload ends first).
fn pause(s: &Scenario, at: Time) -> PausedSim {
    let wl = s.build_workload();
    match run_until(&s.sim_config(), wl.as_ref(), at) {
        Progress::Paused(p) => *p,
        Progress::Done(_) => panic!("{} finished before the {at} pause point", s.identity()),
    }
}

#[test]
fn pause_restore_continue_matches_straight_run_everywhere() {
    let at = Time::from_millis(60);
    for s in scenarios() {
        let id = s.identity();
        let wl = s.build_workload();
        let direct = run_once(&s.sim_config(), wl.as_ref());

        let text = pause(&s, at)
            .snapshot(&id, s.to_json())
            .expect("snapshot serializes");
        let resumed = restore(&s.sim_config(), wl.as_ref(), &text, &id)
            .expect("snapshot restores")
            .resume();

        assert!(!direct.aborted && !resumed.aborted, "{id}");
        assert_eq!(
            direct.summarize(),
            resumed.summarize(),
            "restored continuation diverged from the straight run: {id}"
        );
        assert_eq!(direct.time_s, resumed.time_s, "{id}");
        assert_eq!(direct.energy_j, resumed.energy_j, "{id}");
    }
}

#[test]
fn snapshots_round_trip_to_identical_bytes_everywhere() {
    let at = Time::from_millis(60);
    for s in scenarios() {
        let id = s.identity();
        let wl = s.build_workload();
        let text = pause(&s, at)
            .snapshot(&id, s.to_json())
            .expect("snapshot serializes");
        let again = restore(&s.sim_config(), wl.as_ref(), &text, &id)
            .expect("snapshot restores")
            .snapshot(&id, s.to_json())
            .expect("restored state re-serializes");
        assert_eq!(text, again, "snapshot → restore → snapshot moved: {id}");
    }
}

#[test]
fn a_snapshot_never_restores_onto_a_different_scenario() {
    let at = Time::from_millis(60);
    let nest = Scenario::parse("5218", "nest", "schedutil", "configure:gdb")
        .unwrap()
        .with_seed(2022);
    let cfs = Scenario::parse("5218", "cfs", "schedutil", "configure:gdb")
        .unwrap()
        .with_seed(2022);
    let text = pause(&nest, at)
        .snapshot(&nest.identity(), nest.to_json())
        .expect("snapshot serializes");
    // Claiming the snapshot belongs to the CFS scenario must fail loudly
    // (the header records the nest identity), not silently misrestore.
    let err = restore(
        &cfs.sim_config(),
        cfs.build_workload().as_ref(),
        &text,
        &cfs.identity(),
    )
    .err()
    .expect("mismatched identity refused");
    assert!(
        matches!(err, SnapError::IdentityMismatch { .. }),
        "unexpected error kind: {err}"
    );
}

/// One pinned snapshot: `(machine, policy, governor, workload, faults,
/// pause ms, body checksum, document length)`.
type Pin = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    u64,
    &'static str,
    usize,
);

/// Snapshot bodies pinned byte for byte (seed 42, no scenario block).
/// Together the rows cover every probe, behaviour kind, policy, fault
/// kind and the per-CCX kernel caches, so a change made symmetrically to
/// a component's save and load — invisible to the round-trip tests above
/// — still fails here. The last row is an 8-socket ring machine: the
/// energy integrator in its body sums power over more than four
/// sockets.
#[rustfmt::skip]
const PINS: [Pin; 11] = [
    ("5218", "nest", "schedutil", "serve:rate=800,dist=lognorm,requests=200", "", 125, "ee085b914ccda5ba", 284384),
    ("5218", "nest", "schedutil", "configure:gdb", "", 50, "3130b33dacdccc06", 73938),
    ("5218", "smove", "schedutil", "configure:gdb", "", 50, "9f4a35c110e56118", 74198),
    ("5218", "cfs", "performance", "hackbench", "", 20, "4933e595d00b111f", 409502),
    ("6130-2", "nest", "schedutil", "dacapo:h2", "", 200, "1135d90db9482bd8", 150840),
    ("6130-2", "nest", "schedutil", "nas:bt.C.x", "", 200, "9fa305d4aaa537fd", 173897),
    ("5218", "nest", "schedutil", "schbench:mt=4,w=4", "", 50, "e4cf85315381722c", 107713),
    ("5218", "nest", "schedutil", "phoronix:zstd compression 7", "", 50, "4215a9824e782598", 183442),
    ("5218", "nest", "schedutil", "configure:gdb", "hotplug=2@20ms:100ms,throttle=s0:0.8,jitter=50us,stragglers=2@10ms:100ms", 60, "774ea603ed3b418a", 92509),
    ("synth:sockets=2,ccx=4,cores=8", "nest:domain=ccx", "schedutil", "schbench:mt=8,w=8,requests=20", "", 50, "9026f7ff2b7df237", 257926),
    ("synth:sockets=8,ccx=2,cores=2,smt=2,numa=ring", "nest", "schedutil", "hackbench", "", 20, "30a3d5464f096c64", 659771),
];

#[test]
fn snapshot_bytes_are_pinned() {
    let mut drift = Vec::new();
    for (machine, policy, governor, workload, faults, pause_ms, checksum, bytes) in PINS {
        let s = Scenario::parse(machine, policy, governor, workload)
            .expect("pinned scenario parses")
            .with_seed(42)
            .with_faults(faults)
            .expect("pinned fault plan parses");
        let text = pause(&s, Time::from_millis(pause_ms))
            .snapshot(&s.identity(), nest_simcore::json::Json::Null)
            .expect("snapshot serializes");
        let (header, _) = nest_repro::read_header(&text).expect("snapshot header reads");
        if (header.checksum.as_str(), text.len()) != (checksum, bytes) {
            drift.push(format!(
                "{machine} {policy} {governor} {workload} {faults}: checksum {} bytes {}, pinned {checksum} {bytes}",
                header.checksum,
                text.len()
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "snapshot bytes moved:\n{}",
        drift.join("\n")
    );
}
