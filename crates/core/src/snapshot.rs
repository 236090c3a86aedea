//! Checkpoint and restore of whole simulations.
//!
//! A snapshot captures *everything* a run will ever read again — clock,
//! event queue, kernel and policy state, frequency model, per-task
//! behaviour cursors and RNG streams, synchronization objects, and the
//! standard probe rig — so that
//!
//! > run to the end  ≡  pause at `T`, snapshot, restore, continue
//!
//! holds **byte-for-byte** on every artifact and telemetry field. The
//! document is the in-tree JSON codec (`DESIGN.md` §4.7 specifies the
//! format): a [`SnapshotHeader`] carrying the schema version, the
//! scenario identity, and an FNV checksum of the body, an opaque
//! `scenario` block the CLI uses to rebuild configs, and the engine body.
//! Restoring onto the wrong scenario, a different schema, or a corrupted
//! body fails loudly with a typed [`SnapError`].
//!
//! Three entry points:
//!
//! * [`run_until`] — run a fresh simulation, pausing once every event at
//!   `t <= pause_at` has been dispatched;
//! * [`PausedSim::snapshot`] — serialize the paused simulation;
//! * [`restore`] — rebuild a paused simulation from snapshot text and
//!   [`PausedSim::resume`] it to completion.
//!
//! Restoring with a *different* fault plan than the snapshot's is the
//! supported "branching what-if" mode: the pending fault events are
//! replaced by the override plan's (scheduled no earlier than the pause
//! point) while everything else continues unchanged, so a faulted and a
//! fault-free future can be compared from one shared warm prefix.

use std::fmt;

use nest_simcore::json::{self, Json};
use nest_simcore::rng::hash_str;
use nest_simcore::snap::{self, Snap};
use nest_simcore::{BehaviorRegistry, Time};
use nest_workloads::Workload;

use crate::sim::{build_engine, collect_result, setup_workload, ProbeRig, RunResult, SimConfig};
use nest_engine::Engine;

/// Version of the snapshot container format. Bumped on any change to
/// the serialized layout; restore refuses other versions.
///
/// v2: hierarchical scheduling domains — the kernel state carries a
/// per-CCX statistics cache alongside the per-socket one, and the
/// frequency model keys its active-core windows by turbo domain.
///
/// v3: latency attribution — the standard probe rig grew the
/// time-series sampler (always) and the per-request phase-breakdown
/// probe (serving runs), both of which serialize their in-flight state
/// into the probe block.
pub const SNAPSHOT_SCHEMA: u64 = 3;

/// Key of the header block inside a snapshot document.
const HEADER_KEY: &str = "nest_snapshot";

/// Why a snapshot could not be written or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The text is not a snapshot document (bad JSON, missing fields).
    Parse(String),
    /// The snapshot was written under a different container schema.
    SchemaMismatch {
        /// Schema version recorded in the file.
        found: u64,
        /// Schema version this build reads ([`SNAPSHOT_SCHEMA`]).
        expect: u64,
    },
    /// The snapshot captures a different scenario than the restore
    /// target (machine, policy, workload, seed, … differ).
    IdentityMismatch {
        /// Identity recorded in the file.
        found: String,
        /// Identity of the scenario being restored onto.
        expect: String,
    },
    /// The body does not hash to the header's checksum — the file was
    /// truncated or edited.
    ChecksumMismatch {
        /// Checksum of the body as read.
        found: String,
        /// Checksum recorded in the header.
        expect: String,
    },
    /// The body is structurally valid but describes impossible state
    /// (unknown behaviour kind, core out of range, probe rig mismatch),
    /// or the live simulation contains unsnapshotable parts.
    State(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Parse(e) => write!(f, "not a snapshot document: {e}"),
            SnapError::SchemaMismatch { found, expect } => write!(
                f,
                "snapshot schema v{found} is not readable by this build (expects v{expect})"
            ),
            SnapError::IdentityMismatch { found, expect } => write!(
                f,
                "snapshot was taken from a different scenario:\n  snapshot: {found}\n  restore:  {expect}"
            ),
            SnapError::ChecksumMismatch { found, expect } => write!(
                f,
                "snapshot body is corrupted: checksum {found}, header records {expect}"
            ),
            SnapError::State(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// The versioned header of a snapshot document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Container schema version ([`SNAPSHOT_SCHEMA`]).
    pub schema: u64,
    /// Canonical identity of the captured scenario/config.
    pub identity: String,
    /// Simulated time of the pause point, in nanoseconds.
    pub at_ns: u64,
    /// Events dispatched up to the pause point — exactly the work a
    /// restore skips.
    pub events: u64,
    /// FNV-1a/SplitMix digest of the pretty-printed body, hex.
    pub checksum: String,
}

nest_simcore::snap_struct!(SnapshotHeader {
    "schema": schema,
    "identity": identity,
    "at_ns": at_ns,
    "events": events,
    "checksum": checksum,
});

/// Builds the full behaviour-restore registry: simcore's script
/// behaviour plus every engine, serving, and workload behaviour kind.
/// Anything [`Engine::snapshot`] can emit, this registry can revive.
pub fn behavior_registry() -> BehaviorRegistry {
    let mut reg = BehaviorRegistry::new();
    nest_engine::register_behaviors(&mut reg);
    nest_serve::register_behaviors(&mut reg);
    nest_workloads::register_behaviors(&mut reg);
    reg
}

/// Digest of a snapshot body: FNV-1a over the pretty-printed text,
/// SplitMix-finalized, rendered as 16 hex digits.
fn body_checksum(body_text: &str) -> String {
    format!("{:016x}", hash_str(body_text))
}

/// Either a finished run or a simulation paused mid-flight.
pub enum Progress {
    /// The run ended at or before the pause point.
    Done(Box<RunResult>),
    /// Paused with events still pending: snapshot and/or resume.
    Paused(Box<PausedSim>),
}

/// A simulation paused at a [`run_until`] boundary (or rebuilt by
/// [`restore`]): every event at `t <= pause_at` dispatched, the next
/// event still queued.
pub struct PausedSim {
    engine: Engine,
    rig: ProbeRig,
}

impl PausedSim {
    /// Simulated time reached by the pause.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// Events dispatched so far (cumulative across restores).
    pub fn events_dispatched(&self) -> u64 {
        self.engine.events_dispatched()
    }

    /// Serializes the paused simulation into snapshot text.
    ///
    /// `identity` is the canonical scenario/config identity restore will
    /// insist on; `scenario` is an opaque block stored verbatim (the CLI
    /// embeds the scenario JSON so `nest-sim replay --from` can rebuild
    /// the config without re-specified flags; pass `Json::Null` when
    /// there is nothing to embed).
    ///
    /// Fails with [`SnapError::State`] — naming the offender — if any
    /// live behaviour or attached probe does not support snapshots
    /// (e.g. the execution-trace probe of `--trace` runs).
    pub fn snapshot(&self, identity: &str, scenario: Json) -> Result<String, SnapError> {
        let body = self.engine.snapshot().map_err(SnapError::State)?;
        let body_text = body.to_pretty();
        let header = SnapshotHeader {
            schema: SNAPSHOT_SCHEMA,
            identity: identity.to_string(),
            at_ns: self.engine.now().as_nanos(),
            events: self.engine.events_dispatched(),
            checksum: body_checksum(&body_text),
        };
        let doc = json::obj(vec![
            (HEADER_KEY, header.save()),
            ("scenario", scenario),
            ("body", body),
        ]);
        Ok(doc.to_pretty())
    }

    /// Resumes the paused simulation to completion.
    pub fn resume(self) -> RunResult {
        let PausedSim { mut engine, rig } = self;
        let outcome = engine.resume();
        collect_result(&outcome, rig)
    }
}

/// Runs `workload` under `cfg` until the next pending event lies
/// strictly after `pause_at`. Returns [`Progress::Paused`] at the
/// boundary, or [`Progress::Done`] if the run finished first.
///
/// The pause is a pure observation point: resuming (with or without a
/// snapshot/restore round-trip in between) dispatches exactly the event
/// sequence an uninterrupted [`crate::run_once`] would, so results are
/// byte-identical.
pub fn run_until(cfg: &SimConfig, workload: &dyn Workload, pause_at: Time) -> Progress {
    // Fleet runs are not snapshotable (keepalive host engines refuse to
    // serialize); run the whole fleet and report it as already done, so
    // replay degrades gracefully instead of panicking.
    if let Some(fleet) = workload.fleet_spec() {
        let result = crate::fleet::run_fleet(cfg, workload, &fleet, Vec::new());
        return Progress::Done(Box::new(result));
    }
    let slos = workload.serve_specs().iter().map(|s| s.slo_ns).collect();
    let (mut engine, rig) = build_engine(cfg, slos, Vec::new());
    setup_workload(&mut engine, cfg, workload);
    match engine.run_to(pause_at) {
        Some(outcome) => Progress::Done(Box::new(collect_result(&outcome, rig))),
        None => Progress::Paused(Box::new(PausedSim { engine, rig })),
    }
}

/// Parses and validates a snapshot's header (schema and checksum, not
/// identity), returning it with the embedded scenario block. Cheap
/// relative to [`restore`]; the CLI uses it to rebuild the scenario
/// before deciding the restore config.
pub fn read_header(text: &str) -> Result<(SnapshotHeader, Json), SnapError> {
    let doc = json::parse(text).map_err(SnapError::Parse)?;
    let header = doc
        .get(HEADER_KEY)
        .ok_or_else(|| SnapError::Parse(format!("missing \"{HEADER_KEY}\" header block")))?;
    // The schema is checked before anything else is read: an older
    // header may differ in more than its version.
    let schema: u64 = snap::load(header, "schema").map_err(SnapError::Parse)?;
    if schema != SNAPSHOT_SCHEMA {
        return Err(SnapError::SchemaMismatch {
            found: schema,
            expect: SNAPSHOT_SCHEMA,
        });
    }
    let parsed = SnapshotHeader::load(header).map_err(SnapError::Parse)?;
    let body = doc
        .get("body")
        .ok_or_else(|| SnapError::Parse("missing \"body\" block".to_string()))?;
    let found = body_checksum(&body.to_pretty());
    if found != parsed.checksum {
        return Err(SnapError::ChecksumMismatch {
            found,
            expect: parsed.checksum,
        });
    }
    let scenario = doc.get("scenario").cloned().unwrap_or(Json::Null);
    Ok((parsed, scenario))
}

/// Rebuilds a paused simulation from snapshot text.
///
/// `cfg` and `workload` must describe the run the snapshot came from —
/// `expect_identity` (the canonical identity of that scenario/config) is
/// checked against the header and mismatches are refused, so a snapshot
/// can never silently continue a different experiment. The workload is
/// *not* re-built or re-run; it only shapes the probe rig (its serve
/// SLO table), while tasks, cursors, and pending events all come from
/// the snapshot.
///
/// The one sanctioned divergence is the fault plan: a `cfg` whose plan
/// differs from the snapshot's branches a what-if future at the pause
/// point (see the module docs). Policy *parameters* may likewise be
/// overridden for branching; the policy *kind* must match or
/// [`SnapError::State`] is returned by the policy's own restore.
pub fn restore(
    cfg: &SimConfig,
    workload: &dyn Workload,
    text: &str,
    expect_identity: &str,
) -> Result<PausedSim, SnapError> {
    let (header, _) = read_header(text)?;
    if header.identity != expect_identity {
        return Err(SnapError::IdentityMismatch {
            found: header.identity,
            expect: expect_identity.to_string(),
        });
    }
    let doc = json::parse(text).map_err(SnapError::Parse)?;
    let body = doc
        .get("body")
        .ok_or_else(|| SnapError::Parse("missing \"body\" block".to_string()))?;
    let slos = workload.serve_specs().iter().map(|s| s.slo_ns).collect();
    let (mut engine, rig) = build_engine(cfg, slos, Vec::new());
    engine
        .restore(body, &behavior_registry())
        .map_err(SnapError::State)?;
    Ok(PausedSim { engine, rig })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_once, PolicyKind};
    use nest_topology::presets;
    use nest_workloads::configure::Configure;
    use nest_workloads::{Multi, ServeLoad, ServeSpec};

    fn cfg() -> SimConfig {
        SimConfig::new(presets::xeon_5218()).policy(PolicyKind::Nest)
    }

    const IDENTITY: &str = "test-scenario";

    fn snap_at(pause: Time) -> String {
        snap_of(&Configure::named("gdb"), pause)
    }

    fn snap_of(workload: &dyn Workload, pause: Time) -> String {
        match run_until(&cfg(), workload, pause) {
            Progress::Paused(p) => p.snapshot(IDENTITY, Json::Null).unwrap(),
            Progress::Done(_) => panic!("run finished before the pause point"),
        }
    }

    #[test]
    fn pause_snapshot_restore_continue_matches_straight_run() {
        let direct = run_once(&cfg(), &Configure::named("gdb"));
        let text = snap_at(Time::from_millis(40));
        let resumed = restore(&cfg(), &Configure::named("gdb"), &text, IDENTITY)
            .unwrap()
            .resume();
        assert_eq!(direct.time_s, resumed.time_s);
        assert_eq!(direct.energy_j, resumed.energy_j);
        assert_eq!(direct.summarize(), resumed.summarize());
    }

    #[test]
    fn snapshot_round_trips_on_a_synthetic_multi_ccx_machine() {
        // The domain-sharded state (per-CCX kernel stats, CCX-keyed turbo
        // windows, domain-local nest membership) must survive
        // pause/restore on a machine whose tree is NOT degenerate.
        use nest_sched::{NestDomain, NestParams};
        use nest_topology::NumaKind;
        let cfg = SimConfig::new(presets::synth(2, 4, 4, 1, NumaKind::Ring)).policy(
            PolicyKind::NestWith(NestParams {
                domain: NestDomain::Ccx,
                ..NestParams::default()
            }),
        );
        let direct = run_once(&cfg, &Configure::named("gdb"));
        let text = match run_until(&cfg, &Configure::named("gdb"), Time::from_millis(40)) {
            Progress::Paused(p) => p.snapshot(IDENTITY, Json::Null).unwrap(),
            Progress::Done(_) => panic!("run finished before the pause point"),
        };
        let restored = restore(&cfg, &Configure::named("gdb"), &text, IDENTITY).unwrap();
        let again = restored.snapshot(IDENTITY, Json::Null).unwrap();
        assert_eq!(text, again, "snapshot→restore→snapshot drifted");
        let resumed = restore(&cfg, &Configure::named("gdb"), &text, IDENTITY)
            .unwrap()
            .resume();
        assert_eq!(direct.time_s, resumed.time_s);
        assert_eq!(direct.energy_j, resumed.energy_j);
        assert_eq!(direct.summarize(), resumed.summarize());
    }

    #[test]
    fn run_until_past_the_end_completes() {
        let direct = run_once(&cfg(), &Configure::named("gdb"));
        match run_until(&cfg(), &Configure::named("gdb"), Time::from_secs(500)) {
            Progress::Done(r) => assert_eq!(r.time_s, direct.time_s),
            Progress::Paused(_) => panic!("pause point lies beyond the run"),
        }
    }

    #[test]
    fn snapshot_round_trips_to_identical_bytes() {
        let text = snap_at(Time::from_millis(40));
        let again = restore(&cfg(), &Configure::named("gdb"), &text, IDENTITY)
            .unwrap()
            .snapshot(IDENTITY, Json::Null)
            .unwrap();
        assert_eq!(text, again, "snapshot→restore→snapshot drifted");
    }

    #[test]
    fn header_records_the_pause() {
        let text = snap_at(Time::from_millis(40));
        let (h, scenario) = read_header(&text).unwrap();
        assert_eq!(h.schema, SNAPSHOT_SCHEMA);
        assert_eq!(h.identity, IDENTITY);
        assert_eq!(h.at_ns, 40_000_000);
        assert!(h.events > 0);
        assert!(scenario.is_null());
    }

    #[test]
    fn wrong_identity_is_refused() {
        let text = snap_at(Time::from_millis(40));
        let err = restore(&cfg(), &Configure::named("gdb"), &text, "other-scenario")
            .err()
            .unwrap();
        assert!(matches!(err, SnapError::IdentityMismatch { .. }), "{err}");
    }

    #[test]
    fn corrupted_body_is_refused() {
        let original = snap_at(Time::from_millis(40));
        let text = original.replace("\"kernel\"", "\"kernell\"");
        assert_ne!(original, text, "corruption must actually hit");
        let err = restore(&cfg(), &Configure::named("gdb"), &text, IDENTITY)
            .err()
            .unwrap();
        assert!(matches!(err, SnapError::ChecksumMismatch { .. }), "{err}");
    }

    /// The field `key` of a JSON object, mutably.
    fn field_mut<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
        match obj {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("not an object: {other:?}"),
        }
    }

    /// A snapshot whose body `edit` changed, with the header's checksum
    /// recomputed so the edit reaches the body's own validation.
    fn edited_snapshot(edit: impl FnOnce(&mut Json)) -> String {
        edit_snapshot(&snap_at(Time::from_millis(40)), edit)
    }

    /// `text` with its body changed by `edit`, checksum recomputed.
    fn edit_snapshot(text: &str, edit: impl FnOnce(&mut Json)) -> String {
        let mut doc = json::parse(text).unwrap();
        let body = field_mut(&mut doc, "body");
        edit(body);
        let checksum = Json::str(&body_checksum(&body.to_pretty()));
        *field_mut(field_mut(&mut doc, HEADER_KEY), "checksum") = checksum;
        doc.to_pretty()
    }

    /// The snapshot's probe entries, mutably.
    fn probes_mut(body: &mut Json) -> &mut Vec<Json> {
        match field_mut(body, "probes") {
            Json::Arr(probes) => probes,
            other => panic!("probes is not an array: {other:?}"),
        }
    }

    fn restore_err(text: &str) -> SnapError {
        restore(&cfg(), &Configure::named("gdb"), text, IDENTITY)
            .err()
            .expect("the edited snapshot must be refused")
    }

    /// The state block of the probe of `kind`, mutably.
    fn probe_state_mut<'a>(body: &'a mut Json, kind: &str) -> &'a mut Json {
        let probe = probes_mut(body)
            .iter_mut()
            .find(|p| p.get("kind").and_then(Json::as_str) == Some(kind))
            .unwrap_or_else(|| panic!("no probe of kind {kind}"));
        field_mut(probe, "state")
    }

    #[test]
    fn machine_shaped_state_is_length_and_range_checked() {
        // Each array sized by the machine (cores, sockets, CCXs,
        // buckets, phases) must be refused when one entry is missing,
        // with an error that names its key, and each saved core or
        // interval index must be refused when out of range. A serving
        // run attaches all nine standard probes.
        let workload = Multi::new(vec![
            Box::new(Configure::named("gdb")),
            Box::new(ServeLoad::new(ServeSpec {
                rate: 2000.0,
                requests: 300,
                ..ServeSpec::default()
            })),
        ]);
        let text = snap_of(&workload, Time::from_millis(40));
        let cases: &[(&str, &[&str])] = &[
            ("kernel", &["cores"]),
            ("kernel", &["socket_cache"]),
            ("kernel", &["domain_cache"]),
            ("freq", &["activity"]),
            ("freq", &["phys"]),
            ("freq", &["domain_active"]),
            ("freq", &["throttle"]),
            ("metrics.underload", &["ticks", "used_mark"]),
            ("metrics.underload", &["seconds", "used_mark"]),
            ("metrics.underload", &["busy"]),
            ("metrics.freq_residency", &["busy"]),
            ("metrics.freq_residency", &["freq_khz"]),
            ("metrics.freq_residency", &["since"]),
            ("metrics.freq_residency", &["acc"]),
            ("metrics.placement", &["by_path"]),
            ("metrics.placement", &["by_core"]),
            ("obs.decision_metrics", &["latency_counts"]),
            ("obs.decision_metrics", &["placements"]),
            ("obs.decision_metrics", &["spin_ns"]),
            ("obs.decision_metrics", &["nest_ccx_primary_ns"]),
            ("obs.decision_metrics", &["nest_member"]),
            ("obs.decision_metrics", &["spin_since"]),
            ("obs.invariants", &["online"]),
            ("obs.invariants", &["spinning"]),
            ("obs.invariants", &["running"]),
            ("metrics.phase", &["phases"]),
            ("metrics.phase", &["phys_freq"]),
            ("metrics.phase", &["spinning"]),
            ("obs.timeseries", &["socket_util"]),
            ("obs.timeseries", &["ccx_util"]),
            ("obs.timeseries", &["busy"]),
            ("obs.timeseries", &["spinning"]),
            ("obs.timeseries", &["phys_freq"]),
        ];
        for &(block, path) in cases {
            let edited = edit_snapshot(&text, |body| {
                let mut at = if block.contains('.') {
                    probe_state_mut(body, block)
                } else {
                    field_mut(body, block)
                };
                for key in path {
                    at = field_mut(at, key);
                }
                match at {
                    Json::Arr(entries) => assert!(entries.pop().is_some(), "{block}/{path:?}"),
                    other => panic!("{block}/{path:?} is not an array: {other:?}"),
                }
            });
            let key = path.last().unwrap();
            let err = restore(&cfg(), &workload, &edited, IDENTITY)
                .err()
                .unwrap_or_else(|| panic!("{block}/{key}: a short array was accepted"));
            assert!(matches!(err, SnapError::State(_)), "{block}/{key}: {err}");
            assert!(
                err.to_string().contains(&format!("\"{key}\" has")),
                "{block}/{key}: {err}"
            );
        }
        let ranges = [
            ("kernel", "online", "[9999]", "names core 9999"),
            (
                "obs.decision_metrics",
                "last_core",
                "[[0, 9999]]",
                "names core 9999",
            ),
            (
                "metrics.phase",
                "inflight",
                r#"[{"task": 0, "core": 9999, "state": 2}]"#,
                "slot 9999",
            ),
        ];
        for (block, key, value, want) in ranges {
            let edited = edit_snapshot(&text, |body| {
                let at = if block.contains('.') {
                    probe_state_mut(body, block)
                } else {
                    field_mut(body, block)
                };
                *field_mut(at, key) = json::parse(value).unwrap();
            });
            let err = restore(&cfg(), &workload, &edited, IDENTITY)
                .err()
                .unwrap_or_else(|| panic!("{block}/{key}: an out-of-range index was accepted"));
            assert!(matches!(err, SnapError::State(_)), "{block}/{key}: {err}");
            assert!(err.to_string().contains(want), "{block}/{key}: {err}");
        }
        let edited = edit_snapshot(&text, |body| {
            let ticks = field_mut(probe_state_mut(body, "metrics.underload"), "ticks");
            *field_mut(ticks, "cur_interval") = Json::u64(1 << 40);
        });
        let err = restore(&cfg(), &workload, &edited, IDENTITY).err().unwrap();
        assert!(
            err.to_string().contains("current interval is out of range"),
            "{err}"
        );
    }

    #[test]
    fn an_out_of_range_core_is_a_state_error_not_a_panic() {
        // A body that passes the checksum but names a core the machine
        // does not have must be refused by the kernel's own bound check.
        let text = edited_snapshot(|body| {
            *field_mut(field_mut(body, "kernel"), "online") = json::parse("[9999]").unwrap();
        });
        let err = restore_err(&text);
        assert!(matches!(err, SnapError::State(_)), "{err}");
        assert!(err.to_string().contains("9999"), "{err}");
    }

    #[test]
    fn a_missing_probe_is_a_state_error() {
        let mut attached = 0;
        let text = edited_snapshot(|body| {
            let probes = probes_mut(body);
            attached = probes.len();
            probes.pop();
        });
        let err = restore_err(&text);
        assert!(matches!(err, SnapError::State(_)), "{err}");
        assert_eq!(
            err.to_string(),
            format!(
                "snapshot carries {} probes, the restore rig attached {attached}",
                attached - 1
            )
        );
    }

    #[test]
    fn probes_out_of_attachment_order_are_a_state_error() {
        let text = edited_snapshot(|body| probes_mut(body).swap(0, 1));
        let err = restore_err(&text);
        assert!(matches!(err, SnapError::State(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "probe #0 is \"metrics.underload\", but the snapshot carries \"metrics.freq_residency\""
        );
    }

    #[test]
    fn wrong_schema_is_refused() {
        let text = snap_at(Time::from_millis(40)).replace("\"schema\": 3", "\"schema\": 999");
        let err = read_header(&text).err().unwrap();
        assert!(matches!(
            err,
            SnapError::SchemaMismatch {
                found: 999,
                expect: SNAPSHOT_SCHEMA
            }
        ));
    }

    #[test]
    fn older_schema_snapshots_are_refused_with_a_clear_error() {
        // Snapshots from builds with older container schemas (v1 wrote a
        // flat body, v2 predates domain sharding) must be refused at the
        // header — a typed SchemaMismatch, never a parse panic from
        // decoding a body this build no longer understands. The message
        // is pinned because `nest-sim replay` surfaces it verbatim.
        for old in [1u64, 2] {
            let text = snap_at(Time::from_millis(40))
                .replace("\"schema\": 3", &format!("\"schema\": {old}"));
            let err = restore(&cfg(), &Configure::named("gdb"), &text, IDENTITY)
                .err()
                .unwrap();
            assert!(
                matches!(
                    err,
                    SnapError::SchemaMismatch {
                        found,
                        expect: SNAPSHOT_SCHEMA
                    } if found == old
                ),
                "{err}"
            );
            assert_eq!(
                err.to_string(),
                format!(
                    "snapshot schema v{old} is not readable by this build (expects v{SNAPSHOT_SCHEMA})"
                )
            );
        }
    }

    #[test]
    fn garbage_is_a_parse_error() {
        assert!(matches!(
            read_header("not json").err().unwrap(),
            SnapError::Parse(_)
        ));
        assert!(matches!(
            read_header("{\"x\": 1}").err().unwrap(),
            SnapError::Parse(_)
        ));
    }

    #[test]
    fn trace_runs_refuse_to_snapshot() {
        let traced = cfg().with_trace();
        match run_until(&traced, &Configure::named("gdb"), Time::from_millis(40)) {
            Progress::Paused(p) => {
                let err = p.snapshot(IDENTITY, Json::Null).err().unwrap();
                assert!(matches!(err, SnapError::State(_)), "{err}");
            }
            Progress::Done(_) => panic!("run finished before the pause point"),
        }
    }
}
