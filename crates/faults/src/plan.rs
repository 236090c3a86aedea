//! The fault-plan spec grammar and its canonical rendering.
//!
//! A plan is a comma-separated list of `key=value` clauses, optionally
//! prefixed by the `faults:` registry head:
//!
//! ```text
//! faults:hotplug=2@50ms,throttle=s0:0.8,jitter=20us,stragglers=4@10ms:80ms
//! ```
//!
//! Clause grammar (`TIME` is an integer with a mandatory `ns`/`us`/`ms`/`s`
//! suffix; `@TIME` is an onset, `:TIME` after an onset is a duration):
//!
//! * `hotplug=N@TIME[:DUR]` — offline `N` cores at `TIME`; back online
//!   after `DUR` (omitted: they stay offline for the rest of the run).
//! * `throttle=sK:F[@TIME[:DUR]][+sK:F…]` — cap socket `K`'s turbo
//!   ceilings at factor `F` (0 < F ≤ 1) from `TIME` (default `0ns`) for
//!   `DUR` (omitted: rest of run). `+` joins clauses for several sockets.
//! * `jitter=TIME` — delay each scheduler tick by a seeded uniform
//!   random amount in `[0, TIME)`.
//! * `stragglers=N[@TIME[:DUR]]` — spawn `N` interference tasks at
//!   `TIME` (default `0ns`), each alternating compute and sleep for
//!   `DUR` (default `50ms`) before exiting.

use std::fmt;

use nest_simcore::time::{format_duration, format_window, parse_duration, parse_window, MILLISEC};

/// An error parsing or validating a fault-plan spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultError {
    clause: String,
    reason: String,
}

impl FaultError {
    fn new(clause: &str, reason: impl Into<String>) -> FaultError {
        FaultError {
            clause: clause.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause \"{}\": {}", self.clause, self.reason)
    }
}

impl std::error::Error for FaultError {}

/// A core-hotplug fault: `count` cores go offline at `at_ns`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotplugFault {
    /// Number of cores to offline (the concrete cores are chosen by
    /// [`crate::FaultSchedule::materialize`] from the seed; core 0 is
    /// never offlined and at least half the machine stays online).
    pub count: u32,
    /// Onset, in nanoseconds since simulation start.
    pub at_ns: u64,
    /// How long the cores stay offline; `None` means the rest of the run.
    pub dur_ns: Option<u64>,
}

/// A thermal-throttling fault: one socket's turbo table is capped.
#[derive(Clone, Debug, PartialEq)]
pub struct ThrottleFault {
    /// Socket index to throttle.
    pub socket: usize,
    /// Cap factor in `(0, 1]`: every turbo-ladder ceiling is scaled by
    /// this factor while the throttle is active (floored at the
    /// machine's minimum frequency).
    pub factor: f64,
    /// Onset, in nanoseconds since simulation start.
    pub at_ns: u64,
    /// Throttle window length; `None` means the rest of the run.
    pub dur_ns: Option<u64>,
}

/// A straggler fault: background interference tasks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StragglerFault {
    /// Number of interference tasks to spawn.
    pub count: u32,
    /// Spawn time, in nanoseconds since simulation start.
    pub at_ns: u64,
    /// How long each straggler alternates compute and sleep before
    /// exiting.
    pub dur_ns: u64,
}

/// Default straggler lifetime when the spec omits a duration.
pub(crate) const DEFAULT_STRAGGLER_DUR_NS: u64 = 50 * MILLISEC;

/// A parsed, validated fault plan.
///
/// The default plan is empty and inert: it renders to `""`, materializes
/// to no actions, and must leave simulation output byte-identical to a
/// run with no fault support at all.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Core-hotplug fault, if configured.
    pub hotplug: Option<HotplugFault>,
    /// Per-socket throttling faults (at most one per socket).
    pub throttle: Vec<ThrottleFault>,
    /// Scheduler-tick jitter amplitude in nanoseconds; `0` disables it.
    pub jitter_ns: u64,
    /// Straggler fault, if configured.
    pub stragglers: Option<StragglerFault>,
}

impl FaultPlan {
    /// Returns `true` if the plan configures no faults at all.
    pub fn is_empty(&self) -> bool {
        self.hotplug.is_none()
            && self.throttle.is_empty()
            && self.jitter_ns == 0
            && self.stragglers.is_none()
    }

    /// Parses a fault spec. Accepts the bare clause list
    /// (`hotplug=2@50ms`), the registry form (`faults:hotplug=2@50ms`),
    /// a lone `faults`, or an empty string (both of which yield the
    /// empty plan).
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultError> {
        let spec = spec.trim();
        let body = match spec.split_once(':') {
            Some((head, rest)) if head.trim().eq_ignore_ascii_case("faults") => rest,
            _ if spec.eq_ignore_ascii_case("faults") || spec.is_empty() => "",
            _ => spec,
        };
        let mut pairs = Vec::new();
        if !body.trim().is_empty() {
            for token in body.split(',') {
                let token = token.trim();
                let (k, v) = token
                    .split_once('=')
                    .ok_or_else(|| FaultError::new(token, "expected key=value"))?;
                pairs.push((k.trim().to_string(), v.trim().to_string()));
            }
        }
        FaultPlan::from_params(&pairs)
    }

    /// Builds a plan from [`FaultPlan::parse`]'s `key=value` pairs.
    fn from_params(params: &[(String, String)]) -> Result<FaultPlan, FaultError> {
        let mut plan = FaultPlan::default();
        for (k, v) in params {
            match k.to_ascii_lowercase().as_str() {
                "hotplug" => {
                    if plan.hotplug.is_some() {
                        return Err(FaultError::new(v, "duplicate hotplug clause"));
                    }
                    plan.hotplug = Some(parse_hotplug(v)?);
                }
                "throttle" => {
                    if !plan.throttle.is_empty() {
                        return Err(FaultError::new(v, "duplicate throttle clause"));
                    }
                    plan.throttle = parse_throttle(v)?;
                }
                "jitter" => {
                    if plan.jitter_ns != 0 {
                        return Err(FaultError::new(v, "duplicate jitter clause"));
                    }
                    plan.jitter_ns = parse_dur(v, v)?;
                    if plan.jitter_ns == 0 {
                        return Err(FaultError::new(v, "jitter must be positive"));
                    }
                }
                "stragglers" => {
                    if plan.stragglers.is_some() {
                        return Err(FaultError::new(v, "duplicate stragglers clause"));
                    }
                    plan.stragglers = Some(parse_stragglers(v)?);
                }
                other => {
                    return Err(FaultError::new(
                        other,
                        "unknown fault key (expected hotplug, throttle, jitter, or stragglers)",
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Renders the plan canonically: fixed clause order
    /// (hotplug, throttle, jitter, stragglers), throttle clauses sorted
    /// by socket, durations in the largest exact unit. The empty plan
    /// renders to `""`. `parse(canonical()) == *self` for any valid plan.
    pub fn canonical(&self) -> String {
        let mut parts = Vec::new();
        if let Some(h) = &self.hotplug {
            parts.push(format!(
                "hotplug={}@{}",
                h.count,
                format_window(h.at_ns, h.dur_ns)
            ));
        }
        if !self.throttle.is_empty() {
            let mut ts = self.throttle.clone();
            ts.sort_by_key(|t| t.socket);
            let joined: Vec<String> = ts
                .iter()
                .map(|t| {
                    let mut s = format!("s{}:{}", t.socket, t.factor);
                    if t.at_ns != 0 || t.dur_ns.is_some() {
                        s.push('@');
                        s.push_str(&format_window(t.at_ns, t.dur_ns));
                    }
                    s
                })
                .collect();
            parts.push(format!("throttle={}", joined.join("+")));
        }
        if self.jitter_ns != 0 {
            parts.push(format!("jitter={}", format_duration(self.jitter_ns)));
        }
        if let Some(s) = &self.stragglers {
            let mut out = format!("stragglers={}", s.count);
            let dur = Some(s.dur_ns).filter(|&d| d != DEFAULT_STRAGGLER_DUR_NS);
            if s.at_ns != 0 || dur.is_some() {
                out.push('@');
                out.push_str(&format_window(s.at_ns, dur));
            }
            parts.push(out);
        }
        parts.join(",")
    }

    /// Renders the plan with the `faults:` registry head, or `""` for
    /// the empty plan.
    pub fn canonical_spec(&self) -> String {
        let body = self.canonical();
        if body.is_empty() {
            String::new()
        } else {
            format!("faults:{body}")
        }
    }
}

fn parse_count(clause: &str, s: &str) -> Result<u32, FaultError> {
    let n: u32 = s
        .parse()
        .map_err(|_| FaultError::new(clause, format!("\"{s}\" is not a count")))?;
    if n == 0 {
        return Err(FaultError::new(clause, "count must be positive"));
    }
    Ok(n)
}

/// `N@TIME[:DUR]`
fn parse_hotplug(v: &str) -> Result<HotplugFault, FaultError> {
    let (count, when) = v
        .split_once('@')
        .ok_or_else(|| FaultError::new(v, "expected N@TIME[:DUR]"))?;
    let count = parse_count(v, count)?;
    let (at_ns, dur_ns) = parse_window(when).map_err(|e| FaultError::new(v, e))?;
    Ok(HotplugFault {
        count,
        at_ns,
        dur_ns,
    })
}

/// `sK:F[@TIME[:DUR]]` joined by `+`
fn parse_throttle(v: &str) -> Result<Vec<ThrottleFault>, FaultError> {
    let mut out: Vec<ThrottleFault> = Vec::new();
    for clause in v.split('+') {
        let clause = clause.trim();
        let (target, rest) = clause
            .split_once(':')
            .ok_or_else(|| FaultError::new(clause, "expected sK:F[@TIME[:DUR]]"))?;
        let socket: usize = target
            .strip_prefix('s')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| FaultError::new(clause, format!("\"{target}\" is not a socket (sK)")))?;
        let (factor_s, when) = match rest.split_once('@') {
            Some((f, w)) => (f, Some(w)),
            None => (rest, None),
        };
        let factor: f64 = factor_s
            .parse()
            .map_err(|_| FaultError::new(clause, format!("\"{factor_s}\" is not a factor")))?;
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(FaultError::new(clause, "factor must be in (0, 1]"));
        }
        let (at, dur) = match when {
            None => (0, None),
            Some(w) => parse_window(w).map_err(|e| FaultError::new(clause, e))?,
        };
        if out.iter().any(|t| t.socket == socket) {
            return Err(FaultError::new(clause, "duplicate socket"));
        }
        out.push(ThrottleFault {
            socket,
            factor,
            at_ns: at,
            dur_ns: dur,
        });
    }
    Ok(out)
}

/// `N[@TIME[:DUR]]`
fn parse_stragglers(v: &str) -> Result<StragglerFault, FaultError> {
    let (count, when) = match v.split_once('@') {
        Some((n, w)) => (n, Some(w)),
        None => (v, None),
    };
    let count = parse_count(v, count)?;
    let (at_ns, dur_ns) = match when {
        None => (0, None),
        Some(w) => parse_window(w).map_err(|e| FaultError::new(v, e))?,
    };
    Ok(StragglerFault {
        count,
        at_ns,
        dur_ns: dur_ns.unwrap_or(DEFAULT_STRAGGLER_DUR_NS),
    })
}

/// Parses a clause's duration, naming the clause on error.
fn parse_dur(clause: &str, s: &str) -> Result<u64, FaultError> {
    parse_duration(s).ok_or_else(|| {
        let s = s.trim();
        FaultError::new(clause, format!("\"{s}\" is not a duration (e.g. 50ms, 2s)"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::time::{MICROSEC, SEC};

    #[test]
    fn empty_plan_is_inert() {
        for spec in ["", "faults", "  "] {
            let p = FaultPlan::parse(spec).unwrap();
            assert!(p.is_empty(), "{spec:?}");
            assert_eq!(p.canonical(), "");
            assert_eq!(p.canonical_spec(), "");
        }
    }

    #[test]
    fn issue_example_parses() {
        let p = FaultPlan::parse("faults:hotplug=2@50ms,throttle=s0:0.8").unwrap();
        let h = p.hotplug.as_ref().unwrap();
        assert_eq!((h.count, h.at_ns, h.dur_ns), (2, 50 * MILLISEC, None));
        assert_eq!(p.throttle.len(), 1);
        assert_eq!(p.throttle[0].socket, 0);
        assert_eq!(p.throttle[0].factor, 0.8);
        assert_eq!(p.throttle[0].at_ns, 0);
        assert_eq!(p.throttle[0].dur_ns, None);
        assert_eq!(p.canonical(), "hotplug=2@50ms,throttle=s0:0.8");
        assert_eq!(p.canonical_spec(), "faults:hotplug=2@50ms,throttle=s0:0.8");
    }

    #[test]
    fn full_grammar_round_trips() {
        let spec = "hotplug=4@100ms:200ms,throttle=s0:0.8@50ms:1s+s1:0.5,\
                    jitter=20us,stragglers=4@10ms:80ms";
        let p = FaultPlan::parse(spec).unwrap();
        let canon = p.canonical();
        assert_eq!(FaultPlan::parse(&canon).unwrap(), p);
        let h = p.hotplug.as_ref().unwrap();
        assert_eq!(h.dur_ns, Some(200 * MILLISEC));
        assert_eq!(p.throttle[0].dur_ns, Some(SEC));
        assert_eq!(p.throttle[1].socket, 1);
        assert_eq!(p.jitter_ns, 20 * MICROSEC);
        let s = p.stragglers.as_ref().unwrap();
        assert_eq!(
            (s.count, s.at_ns, s.dur_ns),
            (4, 10 * MILLISEC, 80 * MILLISEC)
        );
    }

    #[test]
    fn canonical_sorts_throttle_sockets_and_defaults_vanish() {
        let p = FaultPlan::parse("throttle=s2:0.9+s0:0.5@0ns").unwrap();
        assert_eq!(p.canonical(), "throttle=s0:0.5,s2:0.9".replace(',', "+"));
        let s = FaultPlan::parse("stragglers=3@0ns:50ms").unwrap();
        assert_eq!(s.canonical(), "stragglers=3");
    }

    #[test]
    fn durations_render_largest_exact_unit() {
        for (spec, canonical) in [
            ("jitter=1500ns", "jitter=1500ns"),
            ("jitter=2000ns", "jitter=2us"),
            ("hotplug=1@50000us", "hotplug=1@50ms"),
            ("hotplug=1@0s:3000ms", "hotplug=1@0ns:3s"),
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(plan.canonical(), canonical, "{spec}");
        }
        assert_eq!(
            FaultPlan::parse("hotplug=2@50").unwrap_err().to_string(),
            "bad fault clause \"2@50\": \"50\" is not a duration (e.g. 50ms, 2s)"
        );
    }

    #[test]
    fn bad_specs_are_rejected() {
        for spec in [
            "hotplug=2",                    // missing onset
            "hotplug=0@50ms",               // zero count
            "hotplug=2@50",                 // missing unit
            "hotplug=2@50ms:0ms",           // zero window
            "throttle=s0:1.5",              // factor out of range
            "throttle=s0:0",                // factor out of range
            "throttle=0:0.8",               // missing socket prefix
            "throttle=s0:0.8+s0:.9",        // duplicate socket
            "jitter=0ns",                   // zero jitter
            "stragglers=2@1ms:0ms",         // zero duration
            "blorp=1",                      // unknown key
            "hotplug",                      // not key=value
            "hotplug=2@50ms,hotplug=1@9ms", // duplicate clause
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "{spec:?} should fail");
        }
    }

    #[test]
    fn head_is_case_insensitive_and_optional() {
        let a = FaultPlan::parse("FAULTS:jitter=1ms").unwrap();
        let b = FaultPlan::parse("jitter=1ms").unwrap();
        assert_eq!(a, b);
    }
}
