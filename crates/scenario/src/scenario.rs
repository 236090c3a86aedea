//! The declarative [`Scenario`]: one fully specified experiment.
//!
//! A scenario pins machine, policy, governor, workload, base seed, run
//! count, and horizon. Construction canonicalizes every registry string,
//! so two scenarios describe the same experiment *iff* their
//! [`identity`](Scenario::identity) strings are equal — the property the
//! harness cache and the `nest-sim` CLI rely on. Scenarios round-trip
//! through the in-tree JSON codec without loss.

use nest_core::experiment::SchedulerSetup;
use nest_core::{Governor, PolicyKind, SimConfig};
use nest_simcore::json::{self, Json};
use nest_simcore::Time;
use nest_topology::MachineSpec;
use nest_workloads::Workload;

use crate::error::ScenarioError;
use crate::faults::{canonical_faults, faults};
use crate::governor::{canonical_governor, governor};
use crate::machine::{canonical_machine, machine};
use crate::policy::{canonical_policy, policy};
use crate::workload::{canonical_workload, parse_workload, WorkloadSpec};

/// Default base seed (the repo-wide `NEST_SEED` default).
pub const DEFAULT_SEED: u64 = 42;
/// Default number of runs per scheduler setup.
pub const DEFAULT_RUNS: usize = 3;
/// Default safety horizon in simulated seconds (mirrors [`SimConfig`]).
pub const DEFAULT_HORIZON_S: u64 = 600;

/// One fully specified experiment. Fields are canonical registry
/// strings; resolution back to concrete structs cannot fail.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    machine: String,
    policy: String,
    governor: String,
    workload: String,
    seed: u64,
    runs: usize,
    horizon_s: u64,
    faults: String,
}

impl Scenario {
    /// Builds a scenario from registry strings, canonicalizing each part.
    /// Seed, runs, and horizon start at the defaults; override with
    /// [`with_seed`](Scenario::with_seed) and friends.
    pub fn parse(
        machine: &str,
        policy: &str,
        governor: &str,
        workload: &str,
    ) -> Result<Scenario, ScenarioError> {
        Ok(Scenario {
            machine: canonical_machine(machine)?,
            policy: canonical_policy(policy)?,
            governor: canonical_governor(governor)?.to_string(),
            workload: canonical_workload(workload)?,
            seed: DEFAULT_SEED,
            runs: DEFAULT_RUNS,
            horizon_s: DEFAULT_HORIZON_S,
            faults: String::new(),
        })
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Sets the run count (must be ≥ 1).
    pub fn with_runs(mut self, runs: usize) -> Scenario {
        assert!(runs > 0, "scenario needs at least one run");
        self.runs = runs;
        self
    }

    /// Sets the safety horizon in simulated seconds.
    pub fn with_horizon_s(mut self, horizon_s: u64) -> Scenario {
        self.horizon_s = horizon_s;
        self
    }

    /// Sets the fault-injection spec, canonicalizing it. The empty plan
    /// (`""` or `"faults"`) leaves the scenario — and its identity —
    /// exactly as if faults were never mentioned.
    pub fn with_faults(mut self, spec: &str) -> Result<Scenario, ScenarioError> {
        self.faults = canonical_faults(spec)?;
        Ok(self)
    }

    /// Canonical machine key (e.g. `"5218"`).
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// Canonical policy spec (e.g. `"nest:spin=off"`).
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// Canonical governor key (`"performance"` or `"schedutil"`).
    pub fn governor(&self) -> &str {
        &self.governor
    }

    /// Canonical workload spec (e.g. `"configure:gdb"`).
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs per setup.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Safety horizon in simulated seconds.
    pub fn horizon_s(&self) -> u64 {
        self.horizon_s
    }

    /// Canonical fault spec (`""` when no faults are configured).
    pub fn faults(&self) -> &str {
        &self.faults
    }

    /// Resolves the machine preset.
    pub fn resolve_machine(&self) -> MachineSpec {
        machine(&self.machine).expect("canonical key resolves")
    }

    /// Resolves the policy.
    pub fn resolve_policy(&self) -> PolicyKind {
        policy(&self.policy).expect("canonical spec resolves")
    }

    /// Resolves the governor.
    pub fn resolve_governor(&self) -> Governor {
        governor(&self.governor).expect("canonical key resolves")
    }

    /// Resolves the fault plan.
    pub fn resolve_faults(&self) -> nest_faults::FaultPlan {
        faults(&self.faults).expect("canonical spec resolves")
    }

    /// Resolves the workload spec.
    pub fn workload_spec(&self) -> WorkloadSpec {
        parse_workload(&self.workload).expect("canonical spec resolves")
    }

    /// Constructs the workload.
    pub fn build_workload(&self) -> Box<dyn Workload> {
        self.workload_spec().build()
    }

    /// The `(policy, governor)` scheduler setup — the unit the paper's
    /// comparison tables row on.
    pub fn setup(&self) -> SchedulerSetup {
        SchedulerSetup::new(self.resolve_policy(), self.resolve_governor())
    }

    /// A single-run [`SimConfig`] for this scenario (base seed; callers
    /// doing multi-run statistics derive per-run seeds themselves, as the
    /// harness does).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::new(self.resolve_machine())
            .policy(self.resolve_policy())
            .governor(self.resolve_governor())
            .seed(self.seed)
            .horizon(Time::from_secs(self.horizon_s))
            .faults(self.resolve_faults())
    }

    /// Figure-style label, e.g. `"Nest perf"`.
    pub fn label(&self) -> String {
        self.setup().label()
    }

    /// The canonical identity string. Equal identities ⇔ same experiment.
    ///
    /// `machine=5218;policy=nest;governor=performance;workload=configure:gdb;seed=42;horizon_s=600;runs=3`
    pub fn identity(&self) -> String {
        format!("{};runs={}", self.cache_scope(), self.runs)
    }

    /// The identity *minus the run count*: the prefix the harness scopes
    /// per-cell cache keys with. Runs are excluded so growing `runs` from
    /// 3 to 10 reuses the first three cells instead of recomputing them.
    pub fn cache_scope(&self) -> String {
        let mut scope = format!(
            "machine={};policy={};governor={};workload={};seed={};horizon_s={}",
            self.machine, self.policy, self.governor, self.workload, self.seed, self.horizon_s
        );
        // Appended only when faults are configured, so every fault-free
        // identity — and with it every cached artifact — is byte-for-byte
        // what it was before fault support existed.
        if !self.faults.is_empty() {
            scope.push_str(";faults=");
            scope.push_str(&self.faults);
        }
        scope
    }

    /// Serializes to the in-tree JSON codec.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("machine", Json::str(&self.machine)),
            ("policy", Json::str(&self.policy)),
            ("governor", Json::str(&self.governor)),
            ("workload", Json::str(&self.workload)),
            ("seed", Json::u64(self.seed)),
            ("runs", Json::usize(self.runs)),
            ("horizon_s", Json::u64(self.horizon_s)),
        ];
        if !self.faults.is_empty() {
            fields.push(("faults", Json::str(&self.faults)));
        }
        json::obj(fields)
    }

    /// Deserializes from the in-tree JSON codec, re-validating every
    /// registry string (hand-edited documents get registry errors, not
    /// panics downstream).
    pub fn from_json(doc: &Json) -> Result<Scenario, ScenarioError> {
        let field = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_str())
                .ok_or_else(|| ScenarioError::BadJson {
                    reason: format!("missing or non-string field \"{key}\""),
                })
        };
        let num = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| ScenarioError::BadJson {
                    reason: format!("missing or non-integer field \"{key}\""),
                })
        };
        let runs = num("runs")? as usize;
        if runs == 0 {
            return Err(ScenarioError::BadJson {
                reason: "\"runs\" must be ≥ 1".into(),
            });
        }
        let scenario = Scenario::parse(
            field("machine")?,
            field("policy")?,
            field("governor")?,
            field("workload")?,
        )?
        .with_seed(num("seed")?)
        .with_runs(runs)
        .with_horizon_s(num("horizon_s")?);
        scenario.with_faults(match doc.get("faults") {
            None => "",
            Some(v) => v.as_str().ok_or_else(|| ScenarioError::BadJson {
                reason: "non-string field \"faults\"".into(),
            })?,
        })
    }

    /// Deserializes from JSON text.
    pub fn from_json_str(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = json::parse(text).map_err(|reason| ScenarioError::BadJson { reason })?;
        Scenario::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gdb_on_5218() -> Scenario {
        Scenario::parse("5218", "nest", "performance", "configure:gdb").unwrap()
    }

    #[test]
    fn construction_canonicalizes_every_part() {
        let s =
            Scenario::parse("I80", "nest:spin=on", "perf", "configure:gdb,jitter=0.25").unwrap();
        assert_eq!(s.machine(), "e7-8870");
        assert_eq!(s.policy(), "nest");
        assert_eq!(s.governor(), "performance");
        assert_eq!(s.workload(), "configure:gdb,jitter=0.25");
    }

    #[test]
    fn identity_is_stable_and_runs_scoped() {
        let s = gdb_on_5218().with_seed(7).with_runs(5).with_horizon_s(120);
        assert_eq!(
            s.identity(),
            "machine=5218;policy=nest;governor=performance;workload=configure:gdb;\
             seed=7;horizon_s=120;runs=5"
        );
        assert_eq!(
            s.cache_scope(),
            "machine=5218;policy=nest;governor=performance;workload=configure:gdb;\
             seed=7;horizon_s=120"
        );
        // Equivalent spellings share one identity.
        let t = Scenario::parse("5218", "nest:spin=on", "perf", "configure:gdb")
            .unwrap()
            .with_seed(7)
            .with_runs(5)
            .with_horizon_s(120);
        assert_eq!(s.identity(), t.identity());
    }

    #[test]
    fn golden_identities_for_the_paper_standard_setups() {
        // The paper's four standard (policy × governor) setups,
        // pinned as golden strings: these are cache-key prefixes, so any
        // drift silently orphans every cached result.
        let golden = [
            ("cfs", "schedutil",
             "machine=5218;policy=cfs;governor=schedutil;workload=configure:gdb;seed=42;horizon_s=600;runs=3"),
            ("cfs", "performance",
             "machine=5218;policy=cfs;governor=performance;workload=configure:gdb;seed=42;horizon_s=600;runs=3"),
            ("nest", "schedutil",
             "machine=5218;policy=nest;governor=schedutil;workload=configure:gdb;seed=42;horizon_s=600;runs=3"),
            ("nest", "performance",
             "machine=5218;policy=nest;governor=performance;workload=configure:gdb;seed=42;horizon_s=600;runs=3"),
        ];
        for (policy, governor, want) in golden {
            let s = Scenario::parse("5218", policy, governor, "configure:gdb").unwrap();
            assert_eq!(s.identity(), want);
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let s = Scenario::parse(
            "6130-4",
            "nest:r_impatient=3",
            "schedutil",
            "schbench:mt=4,w=4",
        )
        .unwrap()
        .with_seed(1234)
        .with_runs(10)
        .with_horizon_s(90);
        let back = Scenario::from_json_str(&s.to_json().to_pretty()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.identity(), back.identity());
    }

    #[test]
    fn from_json_revalidates() {
        let bad = r#"{"machine": "i81", "policy": "cfs", "governor": "schedutil",
                      "workload": "hackbench", "seed": 1, "runs": 1, "horizon_s": 600}"#;
        let msg = Scenario::from_json_str(bad).unwrap_err().to_string();
        assert!(msg.contains("unknown machine"), "{msg}");
        let missing = r#"{"machine": "5218"}"#;
        assert!(Scenario::from_json_str(missing).is_err());
        let zero_runs = r#"{"machine": "5218", "policy": "cfs", "governor": "schedutil",
                            "workload": "hackbench", "seed": 1, "runs": 0, "horizon_s": 600}"#;
        assert!(Scenario::from_json_str(zero_runs).is_err());
    }

    #[test]
    fn fault_free_identity_is_untouched_by_fault_support() {
        let s = gdb_on_5218();
        let t = gdb_on_5218().with_faults("").unwrap();
        let u = gdb_on_5218().with_faults("faults").unwrap();
        assert_eq!(s.identity(), t.identity());
        assert_eq!(s.identity(), u.identity());
        assert!(!s.identity().contains("faults"));
        assert!(!s.to_json().to_pretty().contains("faults"));
    }

    #[test]
    fn faulted_identity_appends_the_canonical_spec() {
        let s = gdb_on_5218()
            .with_faults("faults:jitter=100us,hotplug=2@50ms")
            .unwrap();
        assert_eq!(
            s.identity(),
            "machine=5218;policy=nest;governor=performance;workload=configure:gdb;\
             seed=42;horizon_s=600;faults=hotplug=2@50ms,jitter=100us;runs=3"
        );
        assert!(s
            .cache_scope()
            .ends_with("faults=hotplug=2@50ms,jitter=100us"));
        // Round-trips through JSON.
        let back = Scenario::from_json_str(&s.to_json().to_pretty()).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.faults(), "hotplug=2@50ms,jitter=100us");
        // And resolves to a real plan wired into the sim config.
        assert_eq!(s.resolve_faults().hotplug.unwrap().count, 2);
        assert_eq!(s.sim_config().faults.jitter_ns, 100_000);
    }

    #[test]
    fn bad_fault_specs_are_registry_errors() {
        assert!(gdb_on_5218().with_faults("faults:hotplug=0@1ms").is_err());
        assert!(gdb_on_5218().with_faults("faults:bogus=1").is_err());
    }

    #[test]
    fn resolution_matches_hand_wiring() {
        let s = gdb_on_5218();
        assert_eq!(s.resolve_machine().name, "64-core Intel 5218");
        // The setup identity is the seed-derivation coordinate; it must
        // equal the hand-wired SchedulerSetup's exactly.
        let hand = SchedulerSetup::new(PolicyKind::Nest, Governor::Performance);
        assert_eq!(s.setup().identity(), hand.identity());
        assert_eq!(s.label(), "Nest perf");
        let cfg = s.sim_config();
        assert_eq!(cfg.seed, DEFAULT_SEED);
        assert_eq!(cfg.horizon, Time::from_secs(600));
    }

    #[test]
    fn sim_config_runs_the_scenario() {
        let s = Scenario::parse("5218", "nest", "perf", "configure:gdb")
            .unwrap()
            .with_horizon_s(120);
        let r = nest_core::run_once(&s.sim_config(), s.build_workload().as_ref());
        assert!(r.time_s > 0.0);
        assert!(!r.hit_horizon);
    }
}
