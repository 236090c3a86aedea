//! The `fleet:` spec as plain data: hosts, balancing policy, robustness
//! knobs, and host-level fault clauses.
//!
//! A fleet spec is the first `+`-part of a workload string:
//!
//! ```text
//! fleet:hosts=4,lb=warmth,retry=2,timeout=50ms,hedge=p95+serve:rate=800
//! ```
//!
//! The `key=value` grammar lives in `nest-scenario`, beside the other
//! workload knob tables: it parses and renders [`FleetSpec`]'s fields,
//! and calls [`FleetSpec::validate`] for the checks that span knobs.

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

impl FleetSpec {
    /// Checks the knobs' ranges and the ones that span knobs; returns
    /// the offending description on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 || self.hosts > MAX_HOSTS {
            return Err(format!(
                "hosts must be 1..={MAX_HOSTS} (each host is a full engine cell)"
            ));
        }
        if self.retry > 10 {
            return Err("retry allows at most 10 retries per request".into());
        }
        if self.timeout_ns == 0 {
            return Err("timeout must be positive".into());
        }
        if self.backoff_ns == 0 {
            return Err("backoff must be positive".into());
        }
        if self.cap_ns < self.backoff_ns {
            return Err("cap must be at least the backoff base".into());
        }
        if self.down.as_ref().is_some_and(|d| d.count >= self.hosts) {
            return Err("hostdown must leave at least one host alive".into());
        }
        if let Some(d) = self.degrade.iter().find(|d| d.host >= self.hosts) {
            return Err(format!(
                "degrade: host h{} does not exist (hosts={})",
                d.host, self.hosts
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_nonsense() {
        let down = |count| {
            Some(HostDown {
                count,
                at_ns: 1_000_000,
                dur_ns: None,
            })
        };
        let degrade = |host| {
            vec![HostDegrade {
                host,
                factor: 0.5,
                at_ns: 1_000_000,
                dur_ns: None,
            }]
        };
        let base = FleetSpec::default;
        assert_eq!(base().validate(), Ok(()));
        for (spec, needle) in [
            (FleetSpec { hosts: 0, ..base() }, "1..="),
            (
                FleetSpec {
                    hosts: 99,
                    ..base()
                },
                "1..=",
            ),
            (
                FleetSpec {
                    retry: 11,
                    ..base()
                },
                "at most 10",
            ),
            (
                FleetSpec {
                    timeout_ns: 0,
                    ..base()
                },
                "timeout must be positive",
            ),
            (
                FleetSpec {
                    backoff_ns: 0,
                    ..base()
                },
                "backoff must be positive",
            ),
            (
                FleetSpec {
                    cap_ns: 1_000,
                    ..base()
                },
                "at least the backoff base",
            ),
            (
                FleetSpec {
                    down: down(2),
                    ..base()
                },
                "at least one host alive",
            ),
            (
                FleetSpec {
                    degrade: degrade(7),
                    ..base()
                },
                "does not exist",
            ),
        ] {
            let e = spec.validate().unwrap_err();
            assert!(e.contains(needle), "{spec:?}: {e}");
        }
        let ok = FleetSpec {
            down: down(1),
            degrade: degrade(1),
            ..base()
        };
        assert_eq!(ok.validate(), Ok(()));
    }
}
