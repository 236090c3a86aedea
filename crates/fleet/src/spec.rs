//! The `fleet:` spec: hosts, balancing policy, robustness knobs, and
//! host-level fault clauses.
//!
//! A fleet spec is the first `+`-part of a workload string:
//!
//! ```text
//! fleet:hosts=4,lb=warmth,retry=2,timeout=50ms,hedge=p95+serve:rate=800
//! ```
//!
//! Knobs at their default drop out of the canonical rendering (the
//! workload-registry convention), so equivalent specs share one cache
//! key. Durations use the shared `nest_simcore::time` suffix grammar
//! (`50ms`, `2s`).

use nest_simcore::time::{format_duration, parse_duration};

/// Default host count.
pub const DEFAULT_HOSTS: u32 = 2;
/// Default per-attempt timeout (50 ms).
pub const DEFAULT_TIMEOUT_NS: u64 = 50_000_000;
/// Default backoff base delay (1 ms).
pub const DEFAULT_BACKOFF_NS: u64 = 1_000_000;
/// Default backoff cap (20 ms).
pub const DEFAULT_CAP_NS: u64 = 20_000_000;
/// Default retry budget per request.
pub const DEFAULT_RETRY: u32 = 1;
/// Hard ceiling on the host count (each host is a full engine cell).
pub const MAX_HOSTS: u32 = 16;

/// A malformed fleet parameter: which knob, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetError {
    /// The offending parameter (e.g. `"hostdown"`).
    pub param: String,
    /// What was wrong with it.
    pub reason: String,
}

impl FleetError {
    fn new(param: &str, reason: impl Into<String>) -> FleetError {
        FleetError {
            param: param.to_string(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet parameter \"{}\": {}", self.param, self.reason)
    }
}

impl std::error::Error for FleetError {}

/// How the balancer picks a host for an attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LbPolicy {
    /// Rotate over eligible hosts.
    #[default]
    RoundRobin,
    /// Fewest outstanding requests (ties to the lowest index).
    LeastOutstanding,
    /// Largest primary nest — route to the *warmest* host (ties to the
    /// least outstanding, then the lowest index).
    Warmth,
}

impl LbPolicy {
    /// The registry key (`rr`, `leastq`, `warmth`).
    pub fn key(&self) -> &'static str {
        match self {
            LbPolicy::RoundRobin => "rr",
            LbPolicy::LeastOutstanding => "leastq",
            LbPolicy::Warmth => "warmth",
        }
    }

    /// Parses a registry key.
    pub fn from_key(key: &str) -> Option<LbPolicy> {
        match key {
            "rr" => Some(LbPolicy::RoundRobin),
            "leastq" => Some(LbPolicy::LeastOutstanding),
            "warmth" => Some(LbPolicy::Warmth),
            _ => None,
        }
    }
}

/// When a duplicate (hedged) attempt launches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HedgeMode {
    /// Never hedge.
    #[default]
    Off,
    /// Hedge after the running p95 of observed request latencies.
    P95,
    /// Hedge after a fixed delay.
    After(u64),
}

/// A host-crash clause: `hostdown=K@TIME[:DUR]`. At `TIME`, the first `K`
/// hosts crash (all warmth and in-flight work lost); after `DUR` they
/// restart *cold*. Without `DUR` they stay down for the rest of the run.
///
/// Crashing the *lowest*-indexed hosts is deliberate: every balancer
/// breaks ties toward low indices, so host 0 is the busiest — and under
/// `lb=warmth` the warmest — host in the fleet. Killing it is the
/// worst-case failover, which is what a failover figure should show.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostDown {
    /// How many hosts crash (the lowest-indexed ones, deterministically).
    pub count: u32,
    /// Crash onset, nanoseconds since run start.
    pub at_ns: u64,
    /// Downtime before the cold restart; `None` = never restarts.
    pub dur_ns: Option<u64>,
}

/// A per-host degraded mode: `degrade=hK:F@TIME[:DUR]` throttles every
/// socket of host `K` by factor `F` (via the existing `nest-faults`
/// throttle clause) starting at `TIME`, for `DUR` (or the rest of the
/// run). Several clauses join with `;`.
#[derive(Clone, Debug, PartialEq)]
pub struct HostDegrade {
    /// Which host degrades.
    pub host: u32,
    /// Frequency cap factor in `(0, 1]`.
    pub factor: f64,
    /// Onset, nanoseconds since run start.
    pub at_ns: u64,
    /// Window length; `None` = the rest of the run.
    pub dur_ns: Option<u64>,
}

/// A fully resolved `fleet:` spec — plain data, cheap to clone.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Number of per-host simulations.
    pub hosts: u32,
    /// Load-balancing policy.
    pub lb: LbPolicy,
    /// Retry budget per request (re-routed to an untried host).
    pub retry: u32,
    /// Per-attempt timeout.
    pub timeout_ns: u64,
    /// Backoff base delay (doubles per retry).
    pub backoff_ns: u64,
    /// Backoff delay cap.
    pub cap_ns: u64,
    /// Hedged-request mode.
    pub hedge: HedgeMode,
    /// SLO-aware load shedding: avoid hosts whose p99 estimate breaches
    /// the SLO, and shed the request when every live host is browned out.
    pub shed: bool,
    /// Host-crash clause.
    pub down: Option<HostDown>,
    /// Per-host degraded-mode clauses.
    pub degrade: Vec<HostDegrade>,
}

impl Default for FleetSpec {
    fn default() -> FleetSpec {
        FleetSpec {
            hosts: DEFAULT_HOSTS,
            lb: LbPolicy::default(),
            retry: DEFAULT_RETRY,
            timeout_ns: DEFAULT_TIMEOUT_NS,
            backoff_ns: DEFAULT_BACKOFF_NS,
            cap_ns: DEFAULT_CAP_NS,
            hedge: HedgeMode::default(),
            shed: false,
            down: None,
            degrade: Vec::new(),
        }
    }
}

fn parse_dur(param: &str, s: &str) -> Result<u64, FleetError> {
    parse_duration(s)
        .ok_or_else(|| FleetError::new(param, format!("\"{s}\" is not a duration like 50ms")))
}

/// Parses `K@TIME[:DUR]`.
fn parse_hostdown(v: &str) -> Result<HostDown, FleetError> {
    let p = "hostdown";
    let (count, when) = v
        .split_once('@')
        .ok_or_else(|| FleetError::new(p, "expected K@TIME[:DUR], e.g. 1@250ms:250ms"))?;
    let count: u32 = count
        .parse()
        .map_err(|_| FleetError::new(p, format!("\"{count}\" is not a host count")))?;
    let (at, dur) = match when.split_once(':') {
        Some((at, dur)) => (parse_dur(p, at)?, Some(parse_dur(p, dur)?)),
        None => (parse_dur(p, when)?, None),
    };
    if count == 0 {
        return Err(FleetError::new(p, "at least one host must crash"));
    }
    Ok(HostDown {
        count,
        at_ns: at,
        dur_ns: dur,
    })
}

/// Parses one `hK:F@TIME[:DUR]` clause.
fn parse_degrade(clause: &str) -> Result<HostDegrade, FleetError> {
    let p = "degrade";
    let err = || FleetError::new(p, "expected hK:F@TIME[:DUR], e.g. h1:0.5@200ms:300ms");
    let rest = clause.strip_prefix('h').ok_or_else(err)?;
    let (host, rest) = rest.split_once(':').ok_or_else(err)?;
    let host: u32 = host.parse().map_err(|_| err())?;
    let (factor, when) = rest.split_once('@').ok_or_else(err)?;
    let factor: f64 = factor.parse().map_err(|_| err())?;
    if !(factor > 0.0 && factor <= 1.0) {
        return Err(FleetError::new(p, "factor must be in (0, 1]"));
    }
    let (at, dur) = match when.split_once(':') {
        Some((at, dur)) => (parse_dur(p, at)?, Some(parse_dur(p, dur)?)),
        None => (parse_dur(p, when)?, None),
    };
    Ok(HostDegrade {
        host,
        factor,
        at_ns: at,
        dur_ns: dur,
    })
}

impl FleetSpec {
    /// Builds a spec from the shared grammar's `key=value` pairs (the
    /// scenario layer splits the string; this validates the semantics).
    pub fn from_params(params: &[(String, String)]) -> Result<FleetSpec, FleetError> {
        let mut s = FleetSpec::default();
        for (k, v) in params {
            match k.as_str() {
                "hosts" => {
                    s.hosts = v
                        .parse()
                        .map_err(|_| FleetError::new(k, "expected a host count"))?
                }
                "lb" => {
                    s.lb = LbPolicy::from_key(v)
                        .ok_or_else(|| FleetError::new(k, "one of rr|leastq|warmth"))?
                }
                "retry" => {
                    s.retry = v
                        .parse()
                        .map_err(|_| FleetError::new(k, "expected a retry count"))?
                }
                "timeout" => s.timeout_ns = parse_dur(k, v)?,
                "backoff" => s.backoff_ns = parse_dur(k, v)?,
                "cap" => s.cap_ns = parse_dur(k, v)?,
                "hedge" => {
                    s.hedge = match v.as_str() {
                        "off" => HedgeMode::Off,
                        "p95" => HedgeMode::P95,
                        other => HedgeMode::After(parse_dur(k, other)?),
                    }
                }
                "shed" => {
                    s.shed = match v.as_str() {
                        "on" => true,
                        "off" => false,
                        _ => return Err(FleetError::new(k, "on|off")),
                    }
                }
                "hostdown" => s.down = Some(parse_hostdown(v)?),
                "degrade" => {
                    s.degrade = v
                        .split(';')
                        .map(parse_degrade)
                        .collect::<Result<Vec<_>, _>>()?
                }
                _ => {
                    return Err(FleetError::new(
                        k,
                        "unknown; valid: hosts, lb, retry, timeout, backoff, cap, \
                         hedge, shed, hostdown, degrade",
                    ))
                }
            }
        }
        s.validate()?;
        Ok(s)
    }

    /// Checks cross-knob consistency.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.hosts == 0 || self.hosts > MAX_HOSTS {
            return Err(FleetError::new(
                "hosts",
                format!("must be 1..={MAX_HOSTS} (each host is a full engine cell)"),
            ));
        }
        if self.retry > 10 {
            return Err(FleetError::new("retry", "at most 10 retries per request"));
        }
        if self.timeout_ns == 0 {
            return Err(FleetError::new("timeout", "must be positive"));
        }
        if self.backoff_ns == 0 {
            return Err(FleetError::new("backoff", "must be positive"));
        }
        if self.cap_ns < self.backoff_ns {
            return Err(FleetError::new("cap", "must be at least the backoff base"));
        }
        if let Some(d) = &self.down {
            if d.count >= self.hosts {
                return Err(FleetError::new(
                    "hostdown",
                    "must leave at least one host alive",
                ));
            }
        }
        for d in &self.degrade {
            if d.host >= self.hosts {
                return Err(FleetError::new(
                    "degrade",
                    format!("host h{} does not exist (hosts={})", d.host, self.hosts),
                ));
            }
        }
        Ok(())
    }

    /// The canonical spec string: `fleet` plus only the knobs that differ
    /// from the defaults, in declaration order.
    pub fn canonical(&self) -> String {
        let base = FleetSpec::default();
        let mut parts = Vec::new();
        if self.hosts != base.hosts {
            parts.push(format!("hosts={}", self.hosts));
        }
        if self.lb != base.lb {
            parts.push(format!("lb={}", self.lb.key()));
        }
        if self.retry != base.retry {
            parts.push(format!("retry={}", self.retry));
        }
        if self.timeout_ns != base.timeout_ns {
            parts.push(format!("timeout={}", format_duration(self.timeout_ns)));
        }
        if self.backoff_ns != base.backoff_ns {
            parts.push(format!("backoff={}", format_duration(self.backoff_ns)));
        }
        if self.cap_ns != base.cap_ns {
            parts.push(format!("cap={}", format_duration(self.cap_ns)));
        }
        match self.hedge {
            HedgeMode::Off => {}
            HedgeMode::P95 => parts.push("hedge=p95".to_string()),
            HedgeMode::After(ns) => parts.push(format!("hedge={}", format_duration(ns))),
        }
        if self.shed {
            parts.push("shed=on".to_string());
        }
        if let Some(d) = &self.down {
            let mut clause = format!("hostdown={}@{}", d.count, format_duration(d.at_ns));
            if let Some(dur) = d.dur_ns {
                clause.push(':');
                clause.push_str(&format_duration(dur));
            }
            parts.push(clause);
        }
        if !self.degrade.is_empty() {
            let clauses: Vec<String> = self
                .degrade
                .iter()
                .map(|d| {
                    let mut c = format!("h{}:{}@{}", d.host, d.factor, format_duration(d.at_ns));
                    if let Some(dur) = d.dur_ns {
                        c.push(':');
                        c.push_str(&format_duration(dur));
                    }
                    c
                })
                .collect();
            parts.push(format!("degrade={}", clauses.join(";")));
        }
        if parts.is_empty() {
            "fleet".to_string()
        } else {
            format!("fleet:{}", parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(s: &[(&str, &str)]) -> Vec<(String, String)> {
        s.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn defaults_render_bare() {
        let s = FleetSpec::from_params(&[]).unwrap();
        assert_eq!(s, FleetSpec::default());
        assert_eq!(s.canonical(), "fleet");
    }

    #[test]
    fn full_spec_round_trips() {
        let s = FleetSpec::from_params(&pairs(&[
            ("hosts", "4"),
            ("lb", "warmth"),
            ("retry", "2"),
            ("timeout", "50ms"),
            ("hedge", "p95"),
            ("shed", "on"),
            ("hostdown", "1@250ms:250ms"),
            ("degrade", "h1:0.5@200ms:300ms"),
        ]))
        .unwrap();
        assert_eq!(s.hosts, 4);
        assert_eq!(s.lb, LbPolicy::Warmth);
        assert_eq!(s.retry, 2);
        assert_eq!(s.hedge, HedgeMode::P95);
        assert!(s.shed);
        let d = s.down.as_ref().unwrap();
        assert_eq!(
            (d.count, d.at_ns, d.dur_ns),
            (1, 250_000_000, Some(250_000_000))
        );
        assert_eq!(s.degrade.len(), 1);
        assert_eq!(s.degrade[0].host, 1);
        assert_eq!(s.degrade[0].factor, 0.5);
        // timeout=50ms is the default, so it canonicalizes away.
        assert_eq!(
            s.canonical(),
            "fleet:hosts=4,lb=warmth,retry=2,hedge=p95,shed=on,\
             hostdown=1@250ms:250ms,degrade=h1:0.5@200ms:300ms"
        );
    }

    #[test]
    fn hedge_accepts_fixed_delay() {
        let s = FleetSpec::from_params(&pairs(&[("hedge", "10ms")])).unwrap();
        assert_eq!(s.hedge, HedgeMode::After(10_000_000));
        assert_eq!(s.canonical(), "fleet:hedge=10ms");
    }

    #[test]
    fn validation_rejects_nonsense() {
        for (k, v, needle) in [
            ("hosts", "0", "1..="),
            ("hosts", "99", "1..="),
            ("retry", "11", "at most 10"),
            ("timeout", "0ms", "positive"),
            ("cap", "1us", "at least the backoff base"),
            ("lb", "random", "rr|leastq|warmth"),
            ("hostdown", "2@1ms", "at least one host alive"),
            ("hostdown", "0@1ms", "at least one host must crash"),
            ("degrade", "h7:0.5@1ms", "does not exist"),
            ("degrade", "h0:1.5@1ms", "(0, 1]"),
            ("frobnicate", "1", "unknown"),
        ] {
            let e = FleetSpec::from_params(&pairs(&[(k, v)])).unwrap_err();
            assert!(e.to_string().contains(needle), "{k}={v}: {e}");
        }
    }

    #[test]
    fn multiple_degrade_clauses_join_with_semicolon() {
        let s = FleetSpec::from_params(&pairs(&[
            ("hosts", "3"),
            ("degrade", "h1:0.5@200ms;h2:0.8@100ms:50ms"),
        ]))
        .unwrap();
        assert_eq!(s.degrade.len(), 2);
        assert_eq!(
            s.canonical(),
            "fleet:hosts=3,degrade=h1:0.5@200ms;h2:0.8@100ms:50ms"
        );
    }
}
