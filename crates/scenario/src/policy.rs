//! The policy registry: `cfs`, `nest`, `smove`, each with `key=value`
//! parameter overrides (`nest:spin=off,r_impatient=3`).
//!
//! Parsing is *value-normalizing*: a spec whose overrides all equal the
//! defaults resolves to the bare [`PolicyKind`] variant (`nest:spin=on` ≡
//! `nest`), so equivalent specs share one canonical string, one cache
//! key, and one seed stream. Canonical strings list only the parameters
//! that differ from the defaults, in the order of each policy's knob
//! table (see [`crate::spec`]).

use nest_core::PolicyKind;
use nest_sched::{CfsParams, NestDomain, NestParams, SmoveParams};
use nest_simcore::CoreId;

use crate::error::ScenarioError;
use crate::spec::{
    apply_knobs, changed_knobs, knob_names, knobs, parse_spec, Codec, Float, Int, Knob, OnOff,
    ParsedSpec,
};

/// Every canonical policy key.
pub fn policy_keys() -> Vec<&'static str> {
    vec!["cfs", "nest", "smove"]
}

/// `(key, summary)` pairs for `nest-sim list`.
pub fn policy_entries() -> Vec<(&'static str, String)> {
    vec![
        (
            "cfs",
            format!("Linux CFS baseline (§2.1); parameters: {}", knob_names(CFS)),
        ),
        (
            "nest",
            format!(
                "the Nest scheduler (§3, Table 1 defaults); parameters: {}",
                knob_names(NEST)
            ),
        ),
        (
            "smove",
            format!(
                "the Smove baseline (§2.2); parameters: {}",
                knob_names(SMOVE)
            ),
        ),
    ]
}

const CFS: &[Knob<CfsParams>] = knobs!(CfsParams {
    "scan_budget" => wakeup_scan_budget: Int,
    "die_ticks" => die_balance_ticks: Int,
    "numa_ticks" => numa_balance_ticks: Int,
});

const NEST: &[Knob<NestParams>] = knobs!(NestParams {
    "p_remove" => p_remove_ticks: Int,
    "r_max" => r_max: Int,
    "r_impatient" => r_impatient: Int,
    "s_max" => s_max_ticks: Int,
    "anchor" => anchor_core: CoreId,
    "domain" => domain: NestDomain,
    "reserve" => enable_reserve: OnOff,
    "compaction" => enable_compaction: OnOff,
    "spin" => enable_spin: OnOff,
    "attachment" => enable_attachment: OnOff,
    "wwc" => enable_wakeup_work_conservation: OnOff,
    "resflag" => enable_reservation_flag: OnOff,
});

const SMOVE: &[Knob<SmoveParams>] = knobs!(SmoveParams {
    "delay_ns" => timer_delay_ns: Int,
    "low_freq" => low_freq_factor: Float,
});

/// `anchor=N`: a core index.
impl Codec<CoreId> for CoreId {
    const EXPECTED: &'static str = "a non-negative integer";
    fn parse(value: &str) -> Option<CoreId> {
        value.parse().ok().map(CoreId)
    }
    fn render(value: &CoreId) -> String {
        value.0.to_string()
    }
}

/// `domain=machine|ccx`: where Nest searches first.
impl Codec<NestDomain> for NestDomain {
    const EXPECTED: &'static str = "machine or ccx";
    fn parse(value: &str) -> Option<NestDomain> {
        match value {
            "machine" => Some(NestDomain::Machine),
            "ccx" => Some(NestDomain::Ccx),
            _ => None,
        }
    }
    fn render(value: &NestDomain) -> String {
        match value {
            NestDomain::Machine => "machine",
            NestDomain::Ccx => "ccx",
        }
        .to_string()
    }
}

/// Applies `p`'s overrides to the defaults; overrides that all equal
/// the defaults give the `bare` variant, so `nest:spin=on` and `nest`
/// share one canonical string and one seed stream.
fn resolve<S: Default>(
    knobs: &[Knob<S>],
    p: &ParsedSpec,
    bare: PolicyKind,
    with: fn(S) -> PolicyKind,
) -> Result<PolicyKind, ScenarioError> {
    let (mut s, base) = (S::default(), S::default());
    apply_knobs("policy", knobs, p, &mut s)?;
    Ok(
        if changed_knobs(String::new(), ':', knobs, &s, &base).is_empty() {
            bare
        } else {
            with(s)
        },
    )
}

/// The canonical spec string of a resolved [`PolicyKind`]: the registry
/// key plus only the parameters that differ from the defaults.
pub fn policy_spec_of(kind: &PolicyKind) -> String {
    match kind {
        PolicyKind::Cfs => "cfs".to_string(),
        PolicyKind::CfsWith(c) => changed_knobs("cfs".into(), ':', CFS, c, &CfsParams::default()),
        PolicyKind::Nest => "nest".to_string(),
        PolicyKind::NestWith(n) => {
            changed_knobs("nest".into(), ':', NEST, n, &NestParams::default())
        }
        PolicyKind::Smove => "smove".to_string(),
        PolicyKind::SmoveWith(s) => {
            changed_knobs("smove".into(), ':', SMOVE, s, &SmoveParams::default())
        }
    }
}

/// Resolves a policy spec string to a [`PolicyKind`], normalizing
/// default-equal overrides to the bare variant.
pub fn policy(spec: &str) -> Result<PolicyKind, ScenarioError> {
    let p = parse_spec("policy", spec)?;
    if let Some(member) = &p.member {
        return Err(ScenarioError::MalformedSpec {
            spec: spec.trim().to_string(),
            reason: format!("policy parameters must be key=value (got \"{member}\")"),
        });
    }
    match p.head.as_str() {
        "cfs" => resolve(CFS, &p, PolicyKind::Cfs, PolicyKind::CfsWith),
        "nest" => resolve(NEST, &p, PolicyKind::Nest, PolicyKind::NestWith),
        "smove" => resolve(SMOVE, &p, PolicyKind::Smove, PolicyKind::SmoveWith),
        _ => Err(ScenarioError::UnknownEntry {
            kind: "policy",
            name: p.head,
            valid: policy_keys().iter().map(|k| k.to_string()).collect(),
        }),
    }
}

/// Canonicalizes a policy spec string (parse, normalize, re-render).
pub fn canonical_policy(spec: &str) -> Result<String, ScenarioError> {
    Ok(policy_spec_of(&policy(spec)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_keys_resolve_to_bare_variants() {
        assert!(matches!(policy("cfs").unwrap(), PolicyKind::Cfs));
        assert!(matches!(policy("nest").unwrap(), PolicyKind::Nest));
        assert!(matches!(policy("smove").unwrap(), PolicyKind::Smove));
    }

    #[test]
    fn overrides_apply() {
        let PolicyKind::NestWith(n) = policy("nest:spin=off,r_impatient=3").unwrap() else {
            panic!("expected NestWith");
        };
        assert!(!n.enable_spin);
        assert_eq!(n.r_impatient, 3);
        assert_eq!(n.r_max, NestParams::default().r_max);

        let PolicyKind::CfsWith(c) = policy("cfs:scan_budget=2").unwrap() else {
            panic!("expected CfsWith");
        };
        assert_eq!(c.wakeup_scan_budget, 2);

        let PolicyKind::SmoveWith(s) = policy("smove:low_freq=0.9").unwrap() else {
            panic!("expected SmoveWith");
        };
        assert_eq!(s.low_freq_factor, 0.9);
    }

    #[test]
    fn default_equal_overrides_normalize_to_bare() {
        // `spin=on` IS the default, so the variant (and hence the Debug
        // identity that feeds seed derivation) must be the bare one.
        assert!(matches!(policy("nest:spin=on").unwrap(), PolicyKind::Nest));
        assert_eq!(canonical_policy("nest:spin=on").unwrap(), "nest");
        assert_eq!(canonical_policy("smove:low_freq=1.0").unwrap(), "smove");
    }

    #[test]
    fn canonical_orders_by_declaration_not_input() {
        assert_eq!(
            canonical_policy("nest:r_impatient=3,spin=off").unwrap(),
            "nest:r_impatient=3,spin=off"
        );
        assert_eq!(
            canonical_policy("nest:spin=off,r_impatient=3").unwrap(),
            "nest:r_impatient=3,spin=off"
        );
    }

    #[test]
    fn unknown_key_and_param_are_typed_errors() {
        let msg = policy("eevdf").unwrap_err().to_string();
        assert!(msg.contains("cfs, nest, smove"), "{msg}");
        let msg = policy("nest:spinny=off").unwrap_err().to_string();
        assert!(
            msg.contains("valid parameters") && msg.contains("spin"),
            "{msg}"
        );
        assert!(policy("nest:spin=maybe").is_err());
        assert!(policy("nest:gdb").is_err(), "positional member rejected");
    }

    #[test]
    fn domain_knob_selects_the_ccx_local_nest() {
        let PolicyKind::NestWith(n) = policy("nest:domain=ccx").unwrap() else {
            panic!("expected NestWith");
        };
        assert_eq!(n.domain, NestDomain::Ccx);
        assert_eq!(
            canonical_policy("nest:domain=ccx").unwrap(),
            "nest:domain=ccx"
        );
        // `domain=machine` is the default and normalises away.
        assert!(matches!(
            policy("nest:domain=machine").unwrap(),
            PolicyKind::Nest
        ));
        let msg = policy("nest:domain=numa").unwrap_err().to_string();
        assert!(msg.contains("machine or ccx"), "{msg}");
    }

    #[test]
    fn spec_of_covers_every_variant() {
        for (spec, expect) in [
            ("cfs:die_ticks=8", "cfs:die_ticks=8"),
            ("smove:delay_ns=200000", "smove:delay_ns=200000"),
            ("nest:wwc=off,resflag=off", "nest:wwc=off,resflag=off"),
            ("nest:domain=ccx,spin=off", "nest:domain=ccx,spin=off"),
        ] {
            assert_eq!(canonical_policy(spec).unwrap(), expect);
        }
    }
}
