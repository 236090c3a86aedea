//! The fault registry: `faults:` spec strings for [`Scenario`]s.
//!
//! The grammar is [`FaultPlan::parse`]'s — `hotplug=N@TIME[:DUR]`,
//! `throttle=sK:F[@TIME[:DUR]]` (several joined with `+`),
//! `jitter=TIME`, `stragglers=N[@TIME[:DUR]]` — wrapped here so lookups
//! fail with a [`ScenarioError`] like every other registry, and so
//! specs canonicalize to the fixed clause order the cache keys on.
//!
//! Unlike the policy and workload knobs, fault clauses are not a
//! `knobs!` table (see [`crate::spec`]): a clause is an event, not a
//! field with a default to elide. Their `TIME[:DUR]` windows are the
//! shared [`nest_simcore::time::parse_window`] form, as the fleet's are.
//!
//! [`Scenario`]: crate::Scenario

use nest_faults::FaultPlan;

use crate::error::ScenarioError;

/// Parses a fault spec (`faults:hotplug=2@50ms,throttle=s0:0.8`, the
/// bare clause list, or `""`/`"faults"` for the empty plan).
pub fn faults(spec: &str) -> Result<FaultPlan, ScenarioError> {
    FaultPlan::parse(spec).map_err(|e| ScenarioError::MalformedSpec {
        spec: spec.to_string(),
        reason: e.to_string(),
    })
}

/// Canonicalizes a fault spec to its fixed-order clause list; the empty
/// plan canonicalizes to `""`.
pub fn canonical_faults(spec: &str) -> Result<String, ScenarioError> {
    Ok(faults(spec)?.canonical())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_orders_clauses() {
        assert_eq!(
            canonical_faults("faults:jitter=100us,hotplug=2@50ms").unwrap(),
            "hotplug=2@50ms,jitter=100us"
        );
        assert_eq!(canonical_faults("").unwrap(), "");
        assert_eq!(canonical_faults("faults").unwrap(), "");
    }

    #[test]
    fn errors_are_scenario_errors() {
        let msg = faults("faults:hotplug=zero@1ms").unwrap_err().to_string();
        assert!(msg.contains("malformed spec"), "{msg}");
    }

    #[test]
    fn resolves_to_the_engine_plan() {
        let plan = faults("faults:hotplug=2@50ms,throttle=s0:0.8").unwrap();
        assert_eq!(plan.hotplug.as_ref().unwrap().count, 2);
        assert_eq!(plan.throttle.len(), 1);
    }
}
