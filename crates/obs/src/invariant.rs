//! Runtime invariant checking over the trace stream.
//!
//! [`InvariantChecker`] is a [`Probe`] that replays the engine's
//! kernel-state machine from the trace alone and validates consistency
//! on every event:
//!
//! * a task runs on at most one core, and a core runs at most one task
//!   (RunStart/RunStop pairing, per task *and* per core);
//! * no new activity — placement, run start, spin start — ever targets
//!   an offline core (run *stops* on a dead core are legal: the engine
//!   emits them while migrating its victims);
//! * Nest's primary nest stays inside the online set: a core must have
//!   been shed (NestShrink) before its CoreOffline, and NestExpand must
//!   target an online core; the primary-size payloads must agree with
//!   the set the trace implies;
//! * every frequency reported by FreqChange lies within the machine's
//!   `[fmin, fmax]` envelope — throttling caps are floored at `fmin`, so
//!   even faulted runs must respect it;
//! * spin sessions pair up (no double SpinStart, no SpinEnd without a
//!   spin, no spin on a busy core);
//! * throttle factors stay in `(0, 1]`.
//!
//! Two modes: **fail-fast** panics on the first violation (for tests:
//! the panic message names the rule, the event, and the simulation
//! time), while the default **counting** mode tallies violations per
//! rule into its [`InvariantCounts`], which the harness merges into
//! `.telemetry.json`. Like every probe, the checker only observes —
//! attaching it cannot perturb a run.

use std::collections::{BTreeMap, HashMap, HashSet};

use nest_simcore::json::{obj, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{Probe, TaskId, Time, TraceEvent};

/// Every rule name the checker can tally. Restore maps snapshot strings
/// back to these `&'static str`s (the [`InvariantCounts::by_rule`] keys),
/// so a new rule must be added here too — the round-trip test catches a
/// missing entry.
const RULE_NAMES: &[&str] = &[
    "core-out-of-range",
    "double-occupancy",
    "double-offline",
    "double-online",
    "double-spin-start",
    "exit-while-running",
    "freq-out-of-range",
    "nest-expand-offline",
    "nest-size-mismatch",
    "offline-core-in-primary",
    "placed-offline",
    "run-start-offline",
    "run-start-while-spinning",
    "run-stop-mismatch",
    "spin-end-without-spin",
    "spin-start-offline",
    "spin-while-running",
    "task-on-two-cores",
    "throttle-factor-out-of-range",
];

/// Violation tallies produced by a counting-mode [`InvariantChecker`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InvariantCounts {
    /// Total trace events inspected.
    pub events_checked: u64,
    /// Total violations across all rules.
    pub violations: u64,
    /// Violations per rule name, in stable (sorted) order.
    pub by_rule: BTreeMap<&'static str, u64>,
    /// Tasks that were woken but never placed by the end of the run.
    /// On a *completed* run this is always zero (a task with a pending
    /// wakeup is live, and live tasks keep the run going); on a
    /// horizon-truncated run a wakeup caught mid-flight is benign, so
    /// this is reported separately rather than counted as a violation.
    pub woken_unplaced_at_finish: u64,
    /// Tasks with a placement still in flight (Placed, but no RunStart,
    /// further placement, or exit) when the run ended. Same caveat as
    /// [`InvariantCounts::woken_unplaced_at_finish`]: only suspicious
    /// when the run completed, which the engine itself precludes.
    pub placed_unstarted_at_finish: u64,
    /// Whether every created task had exited when the run finished.
    pub completed: bool,
}

impl InvariantCounts {
    /// Serializes the tallies as the `invariants` telemetry block.
    pub fn to_json(&self) -> Json {
        let rules: Vec<(String, Json)> = self
            .by_rule
            .iter()
            .map(|(rule, n)| (rule.to_string(), Json::u64(*n)))
            .collect();
        obj(vec![
            ("events_checked", Json::u64(self.events_checked)),
            ("violations", Json::u64(self.violations)),
            ("by_rule", Json::Obj(rules)),
            (
                "woken_unplaced_at_finish",
                Json::u64(self.woken_unplaced_at_finish),
            ),
            (
                "placed_unstarted_at_finish",
                Json::u64(self.placed_unstarted_at_finish),
            ),
            ("completed", Json::Bool(self.completed)),
        ])
    }

    /// Merges another run's tallies into this one (rule-wise sums; the
    /// finish-time diagnostics add, `completed` ANDs).
    pub fn merge(&mut self, other: &InvariantCounts) {
        self.events_checked += other.events_checked;
        self.violations += other.violations;
        for (rule, n) in &other.by_rule {
            *self.by_rule.entry(rule).or_insert(0) += n;
        }
        self.woken_unplaced_at_finish += other.woken_unplaced_at_finish;
        self.placed_unstarted_at_finish += other.placed_unstarted_at_finish;
        self.completed &= other.completed;
    }
}

/// A [`Probe`] that validates kernel-state consistency on every event.
///
/// Construct with [`InvariantChecker::new`] (counting mode) and opt into
/// panics with [`InvariantChecker::fail_fast`]. One checker validates
/// one engine run; attach a fresh one per run.
pub struct InvariantChecker {
    fail_fast: bool,
    lo_khz: u64,
    hi_khz: u64,
    online: Vec<bool>,
    spinning: Vec<bool>,
    running: Vec<Option<TaskId>>,
    task_core: HashMap<TaskId, usize>,
    primary: HashSet<u32>,
    woken_pending: HashSet<TaskId>,
    placed_pending: HashSet<TaskId>,
    created: u64,
    exited: u64,
    /// The tallies, live as the run progresses and final once the engine
    /// calls `on_finish`.
    pub counts: InvariantCounts,
}

impl InvariantChecker {
    /// A counting-mode checker for a machine of `n_cores` whose valid
    /// frequency envelope is `[freq_lo_khz, freq_hi_khz]` (pass `fmin`
    /// and the single-core turbo limit `fmax`).
    pub fn new(n_cores: usize, freq_lo_khz: u64, freq_hi_khz: u64) -> InvariantChecker {
        InvariantChecker {
            fail_fast: false,
            lo_khz: freq_lo_khz,
            hi_khz: freq_hi_khz,
            online: vec![true; n_cores],
            spinning: vec![false; n_cores],
            running: vec![None; n_cores],
            task_core: HashMap::new(),
            primary: HashSet::new(),
            woken_pending: HashSet::new(),
            placed_pending: HashSet::new(),
            created: 0,
            exited: 0,
            counts: InvariantCounts::default(),
        }
    }

    /// Switches the checker to fail-fast mode: the first violation
    /// panics with the rule name, the offending event, and the
    /// simulation time. Use in tests where any inconsistency should
    /// abort loudly.
    pub fn fail_fast(mut self) -> InvariantChecker {
        self.fail_fast = true;
        self
    }

    fn violation(&mut self, now: Time, rule: &'static str, detail: String) {
        if self.fail_fast {
            panic!("invariant violation [{rule}] at {now}: {detail}");
        }
        self.counts.violations += 1;
        *self.counts.by_rule.entry(rule).or_insert(0) += 1;
    }

    fn check_online(&mut self, now: Time, core: u32, rule: &'static str, what: &str) {
        let idx = core as usize;
        if idx >= self.online.len() {
            self.violation(now, "core-out-of-range", format!("{what} on core {core}"));
        } else if !self.online[idx] {
            self.violation(now, rule, format!("{what} on offline core {core}"));
        }
    }
}

impl Probe for InvariantChecker {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        self.counts.events_checked += 1;
        match *event {
            TraceEvent::TaskCreated { .. } => self.created += 1,
            TraceEvent::TaskExited { task } => {
                self.exited += 1;
                if let Some(core) = self.task_core.remove(&task) {
                    self.violation(
                        now,
                        "exit-while-running",
                        format!("{task:?} exited while still running on core {core}"),
                    );
                    self.running[core] = None;
                }
                self.woken_pending.remove(&task);
                self.placed_pending.remove(&task);
            }
            TraceEvent::Placed { task, core, .. } => {
                self.check_online(now, core.0, "placed-offline", "placement");
                self.woken_pending.remove(&task);
                self.placed_pending.insert(task);
            }
            TraceEvent::RunStart { task, core } => {
                self.check_online(now, core.0, "run-start-offline", "run start");
                let idx = core.0 as usize;
                if idx < self.running.len() {
                    if self.spinning[idx] {
                        self.violation(
                            now,
                            "run-start-while-spinning",
                            format!("core {core:?} started {task:?} without ending its spin"),
                        );
                        self.spinning[idx] = false;
                    }
                    if let Some(prev) = self.running[idx] {
                        self.violation(
                            now,
                            "double-occupancy",
                            format!("core {core:?} started {task:?} while running {prev:?}"),
                        );
                    }
                    self.running[idx] = Some(task);
                }
                if let Some(other) = self.task_core.insert(task, idx) {
                    if other != idx {
                        self.violation(
                            now,
                            "task-on-two-cores",
                            format!("{task:?} started on core {core:?} while on core {other}"),
                        );
                        if other < self.running.len() && self.running[other] == Some(task) {
                            self.running[other] = None;
                        }
                    }
                }
                self.woken_pending.remove(&task);
                self.placed_pending.remove(&task);
            }
            TraceEvent::RunStop { task, core, .. } => {
                let idx = core.0 as usize;
                if idx < self.running.len() && self.running[idx] == Some(task) {
                    self.running[idx] = None;
                    self.task_core.remove(&task);
                } else {
                    let actual = self.running.get(idx).copied().flatten();
                    self.violation(
                        now,
                        "run-stop-mismatch",
                        format!("RunStop for {task:?} on core {core:?}, which runs {actual:?}"),
                    );
                }
            }
            TraceEvent::Woken { task } => {
                self.woken_pending.insert(task);
            }
            TraceEvent::SpinStart { core } => {
                self.check_online(now, core.0, "spin-start-offline", "spin start");
                let idx = core.0 as usize;
                if idx < self.spinning.len() {
                    if self.spinning[idx] {
                        self.violation(
                            now,
                            "double-spin-start",
                            format!("core {core:?} started a spin while already spinning"),
                        );
                    }
                    if self.running[idx].is_some() {
                        self.violation(
                            now,
                            "spin-while-running",
                            format!("core {core:?} started a spin while running a task"),
                        );
                    }
                    self.spinning[idx] = true;
                }
            }
            TraceEvent::SpinEnd { core } => {
                let idx = core.0 as usize;
                if idx < self.spinning.len() && !self.spinning[idx] {
                    self.violation(
                        now,
                        "spin-end-without-spin",
                        format!("core {core:?} ended a spin it never started"),
                    );
                }
                if idx < self.spinning.len() {
                    self.spinning[idx] = false;
                }
            }
            TraceEvent::FreqChange { core, freq } => {
                let khz = freq.as_khz();
                if khz < self.lo_khz || khz > self.hi_khz {
                    self.violation(
                        now,
                        "freq-out-of-range",
                        format!(
                            "core {core:?} at {khz} kHz, outside [{}, {}]",
                            self.lo_khz, self.hi_khz
                        ),
                    );
                }
            }
            TraceEvent::NestExpand {
                core,
                primary: size,
                ..
            } => {
                self.check_online(now, core.0, "nest-expand-offline", "nest expansion");
                self.primary.insert(core.0);
                if self.primary.len() != size as usize {
                    self.violation(
                        now,
                        "nest-size-mismatch",
                        format!(
                            "NestExpand reports primary={size}, trace implies {}",
                            self.primary.len()
                        ),
                    );
                }
            }
            TraceEvent::NestShrink {
                core,
                primary: size,
                ..
            }
            | TraceEvent::NestCompaction {
                core,
                primary: size,
                ..
            } => {
                // A shrink may concern the reserve nest only, in which
                // case the primary set is untouched and remove() no-ops;
                // the size payload must agree either way.
                self.primary.remove(&core.0);
                if self.primary.len() != size as usize {
                    self.violation(
                        now,
                        "nest-size-mismatch",
                        format!(
                            "nest shrink reports primary={size}, trace implies {}",
                            self.primary.len()
                        ),
                    );
                }
            }
            TraceEvent::CoreOffline { core } => {
                let idx = core.0 as usize;
                if idx < self.online.len() && !self.online[idx] {
                    self.violation(
                        now,
                        "double-offline",
                        format!("core {core:?} offlined while already offline"),
                    );
                }
                if self.primary.contains(&core.0) {
                    self.violation(
                        now,
                        "offline-core-in-primary",
                        format!("core {core:?} went offline while still in the primary nest"),
                    );
                    self.primary.remove(&core.0);
                }
                if idx < self.online.len() {
                    self.online[idx] = false;
                }
            }
            TraceEvent::CoreOnline { core } => {
                let idx = core.0 as usize;
                if idx < self.online.len() && self.online[idx] {
                    self.violation(
                        now,
                        "double-online",
                        format!("core {core:?} onlined while already online"),
                    );
                }
                if idx < self.online.len() {
                    self.online[idx] = true;
                }
            }
            TraceEvent::SocketThrottle { socket, factor } => {
                if !(factor > 0.0 && factor <= 1.0) {
                    self.violation(
                        now,
                        "throttle-factor-out-of-range",
                        format!("socket {socket} throttled to {factor}"),
                    );
                }
            }
            TraceEvent::RunnableCount { .. } => {}
        }
    }

    fn on_finish(&mut self, _now: Time) {
        let c = &mut self.counts;
        c.woken_unplaced_at_finish = self.woken_pending.len() as u64;
        c.placed_unstarted_at_finish = self.placed_pending.len() as u64;
        c.completed = self.created > 0 && self.created == self.exited;
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        let c = &self.counts;
        let by_rule: Vec<(String, u64)> = c
            .by_rule
            .iter()
            .map(|(rule, &n)| (rule.to_string(), n))
            .collect();
        Some((
            "obs.invariants",
            obj(vec![
                ("online", self.online.save()),
                ("spinning", self.spinning.save()),
                ("running", self.running.save()),
                ("task_core", self.task_core.save()),
                ("primary", self.primary.save()),
                ("woken_pending", self.woken_pending.save()),
                ("placed_pending", self.placed_pending.save()),
                ("created", self.created.save()),
                ("exited", self.exited.save()),
                ("events_checked", c.events_checked.save()),
                ("violations", c.violations.save()),
                ("by_rule", by_rule.save()),
            ]),
        ))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        self.online = snap::load_len(state, "online", self.online.len())?;
        self.spinning = snap::load_len(state, "spinning", self.spinning.len())?;
        self.running = snap::load_len(state, "running", self.running.len())?;
        self.task_core = snap::load(state, "task_core")?;
        self.primary = snap::load(state, "primary")?;
        self.woken_pending = snap::load(state, "woken_pending")?;
        self.placed_pending = snap::load(state, "placed_pending")?;
        self.created = snap::load(state, "created")?;
        self.exited = snap::load(state, "exited")?;
        let c = &mut self.counts;
        c.events_checked = snap::load(state, "events_checked")?;
        c.violations = snap::load(state, "violations")?;
        c.by_rule.clear();
        for (name, n) in snap::load::<Vec<(String, u64)>>(state, "by_rule")? {
            let rule = RULE_NAMES
                .iter()
                .find(|r| **r == name)
                .ok_or_else(|| format!("snapshot tallies unknown invariant rule \"{name}\""))?;
            c.by_rule.insert(rule, n);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::{CoreId, PlacementPath, StopReason};

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    fn feed(events: &[(u64, TraceEvent)]) -> InvariantCounts {
        let mut checker = InvariantChecker::new(4, 1_000_000, 3_900_000);
        for (ns, ev) in events {
            checker.on_event(t(*ns), ev);
        }
        checker.on_finish(t(events.last().map(|(ns, _)| *ns).unwrap_or(0)));
        checker.counts
    }

    fn lifecycle(task: u32, core: u32) -> Vec<(u64, TraceEvent)> {
        vec![
            (
                0,
                TraceEvent::TaskCreated {
                    task: TaskId(task),
                    label: format!("t{task}"),
                    parent: None,
                },
            ),
            (
                10,
                TraceEvent::Placed {
                    task: TaskId(task),
                    core: CoreId(core),
                    path: PlacementPath::CfsFork,
                },
            ),
            (
                20,
                TraceEvent::RunStart {
                    task: TaskId(task),
                    core: CoreId(core),
                },
            ),
            (
                30,
                TraceEvent::RunStop {
                    task: TaskId(task),
                    core: CoreId(core),
                    reason: StopReason::Exit,
                },
            ),
            (30, TraceEvent::TaskExited { task: TaskId(task) }),
        ]
    }

    #[test]
    fn clean_lifecycle_has_no_violations() {
        let c = feed(&lifecycle(1, 2));
        assert_eq!(c.violations, 0);
        assert_eq!(c.events_checked, 5);
        assert!(c.completed);
        assert_eq!(c.woken_unplaced_at_finish, 0);
        assert_eq!(c.placed_unstarted_at_finish, 0);
    }

    #[test]
    fn double_occupancy_and_two_cores_are_caught() {
        let events = vec![
            (
                0,
                TraceEvent::RunStart {
                    task: TaskId(1),
                    core: CoreId(0),
                },
            ),
            // Second task on the same core.
            (
                5,
                TraceEvent::RunStart {
                    task: TaskId(2),
                    core: CoreId(0),
                },
            ),
            // Task 2 also starts on core 1 without stopping.
            (
                9,
                TraceEvent::RunStart {
                    task: TaskId(2),
                    core: CoreId(1),
                },
            ),
        ];
        let c = feed(&events);
        assert_eq!(c.by_rule["double-occupancy"], 1);
        assert_eq!(c.by_rule["task-on-two-cores"], 1);
        assert_eq!(c.violations, 2);
    }

    #[test]
    fn activity_on_offline_cores_is_caught() {
        let events = vec![
            (0, TraceEvent::CoreOffline { core: CoreId(3) }),
            (
                1,
                TraceEvent::Placed {
                    task: TaskId(1),
                    core: CoreId(3),
                    path: PlacementPath::LoadBalance,
                },
            ),
            (
                2,
                TraceEvent::RunStart {
                    task: TaskId(1),
                    core: CoreId(3),
                },
            ),
            (3, TraceEvent::SpinStart { core: CoreId(3) }),
            // A stop on the dead core is legal: migration in progress.
            (
                4,
                TraceEvent::RunStop {
                    task: TaskId(1),
                    core: CoreId(3),
                    reason: StopReason::Preempt,
                },
            ),
        ];
        let c = feed(&events);
        assert_eq!(c.by_rule["placed-offline"], 1);
        assert_eq!(c.by_rule["run-start-offline"], 1);
        assert_eq!(c.by_rule["spin-start-offline"], 1);
        assert!(!c.by_rule.contains_key("run-stop-mismatch"));
    }

    #[test]
    fn primary_nest_must_be_shed_before_offline() {
        let events = vec![
            (
                0,
                TraceEvent::NestExpand {
                    core: CoreId(2),
                    primary: 1,
                    reserve: 0,
                },
            ),
            (5, TraceEvent::CoreOffline { core: CoreId(2) }),
        ];
        let c = feed(&events);
        assert_eq!(c.by_rule["offline-core-in-primary"], 1);

        // The compliant ordering: shed first, then offline.
        let ok = vec![
            (
                0,
                TraceEvent::NestExpand {
                    core: CoreId(2),
                    primary: 1,
                    reserve: 0,
                },
            ),
            (
                5,
                TraceEvent::NestShrink {
                    core: CoreId(2),
                    primary: 0,
                    reserve: 1,
                },
            ),
            (5, TraceEvent::CoreOffline { core: CoreId(2) }),
        ];
        assert_eq!(feed(&ok).violations, 0);
    }

    #[test]
    fn freq_envelope_and_throttle_factor_are_checked() {
        use nest_simcore::Freq;
        let events = vec![
            (
                0,
                TraceEvent::FreqChange {
                    core: CoreId(0),
                    freq: Freq::from_khz(900_000),
                },
            ),
            (
                1,
                TraceEvent::FreqChange {
                    core: CoreId(0),
                    freq: Freq::from_khz(4_000_000),
                },
            ),
            (
                2,
                TraceEvent::FreqChange {
                    core: CoreId(0),
                    freq: Freq::from_khz(2_000_000),
                },
            ),
            (
                3,
                TraceEvent::SocketThrottle {
                    socket: 0,
                    factor: 0.0,
                },
            ),
        ];
        let c = feed(&events);
        assert_eq!(c.by_rule["freq-out-of-range"], 2);
        assert_eq!(c.by_rule["throttle-factor-out-of-range"], 1);
    }

    #[test]
    fn spin_pairing_is_checked() {
        let events = vec![
            (0, TraceEvent::SpinStart { core: CoreId(1) }),
            (1, TraceEvent::SpinStart { core: CoreId(1) }),
            (2, TraceEvent::SpinEnd { core: CoreId(1) }),
            (3, TraceEvent::SpinEnd { core: CoreId(1) }),
        ];
        let c = feed(&events);
        assert_eq!(c.by_rule["double-spin-start"], 1);
        assert_eq!(c.by_rule["spin-end-without-spin"], 1);
    }

    #[test]
    fn lost_wakeup_is_reported_at_finish() {
        let events = vec![
            (
                0,
                TraceEvent::TaskCreated {
                    task: TaskId(1),
                    label: "t".to_string(),
                    parent: None,
                },
            ),
            (5, TraceEvent::Woken { task: TaskId(1) }),
        ];
        let c = feed(&events);
        assert_eq!(c.woken_unplaced_at_finish, 1);
        assert!(!c.completed);
    }

    #[test]
    #[should_panic(expected = "invariant violation [double-occupancy]")]
    fn fail_fast_panics_with_rule_name() {
        let mut checker = InvariantChecker::new(4, 1_000_000, 3_900_000).fail_fast();
        checker.on_event(
            t(0),
            &TraceEvent::RunStart {
                task: TaskId(1),
                core: CoreId(0),
            },
        );
        checker.on_event(
            t(1),
            &TraceEvent::RunStart {
                task: TaskId(2),
                core: CoreId(0),
            },
        );
    }

    #[test]
    fn merge_sums_rule_wise() {
        let mut a = feed(&lifecycle(1, 0));
        let b = feed(&[(0, TraceEvent::SpinEnd { core: CoreId(0) })]);
        a.merge(&b);
        assert_eq!(a.by_rule["spin-end-without-spin"], 1);
        assert_eq!(a.violations, 1);
        assert_eq!(a.events_checked, 6);
        assert!(!a.completed, "merge ANDs completion");
    }

    #[test]
    fn to_json_round_trips_the_counts() {
        let c = feed(&[(0, TraceEvent::SpinEnd { core: CoreId(2) })]);
        let json = c.to_json();
        let text = json.to_pretty();
        assert!(text.contains("\"violations\": 1"), "{text}");
        assert!(text.contains("spin-end-without-spin"), "{text}");
    }
}
