//! The workload registry: all eight benchmark suites, with members and
//! sizing knobs, behind one spec grammar.
//!
//! * member suites — `configure:gdb`, `dacapo:h2`, `nas:bt.C.x`,
//!   `phoronix:zstd compression 7`: the member selects a named spec, and
//!   (except for phoronix) `key=value` knobs override its fields;
//! * parametric suites — `hackbench`, `schbench`, `serve`: no member,
//!   knobs override the suite defaults (`schbench:mt=4,w=4`,
//!   `serve:rate=500,dist=lognorm,slo=2ms`);
//! * servers — `server:nginx,c=50` (`c` for the open-loop concurrency of
//!   nginx/apache; `leveldb`/`redis` are fixed);
//! * combinations — `+` joins independent workloads launched together:
//!   `phoronix:zstd compression 7+phoronix:libgav1 4`;
//! * fleets — a leading `fleet:` part routes the remaining parts' serve
//!   streams across N independent host simulations with retry/timeout/
//!   hedging and failover: `fleet:hosts=4,lb=warmth,retry=2+serve:rate=500`.
//!
//! Each suite's knobs, and the fleet's, are declared once, in a table
//! below (see [`crate::spec`]). Canonical strings list only knobs that
//! differ from the member/suite base, in declaration order, so
//! equivalent specs share one cache key.

use nest_serve::{ArrivalKind, ServeSpec, ServiceDist};
use nest_simcore::time::{format_window, parse_duration, parse_window};
use nest_workloads::{
    configure, configure::ConfigureSpec, dacapo, dacapo::DacapoSpec, hackbench::HackbenchSpec, nas,
    nas::NasSpec, phoronix, schbench::SchbenchSpec, server, FleetLoad, FleetSpec, HedgeMode,
    HostDegrade, HostDown, LbPolicy, Multi, ServeLoad, Workload,
};

use crate::error::ScenarioError;
use crate::spec::{
    apply_knobs, changed_knobs, knob_names, knobs, parse_knob, parse_spec, Codec, Dur, Float, Int,
    Knob, OnOff, ParsedSpec,
};

/// Every suite key, registry order.
pub fn workload_suites() -> Vec<&'static str> {
    vec![
        "configure",
        "dacapo",
        "nas",
        "phoronix",
        "hackbench",
        "schbench",
        "serve",
        "server",
        "fleet",
    ]
}

/// `(suite key, summary)` pairs for `nest-sim list`.
pub fn workload_entries() -> Vec<(&'static str, String)> {
    let members = |suite| suite_members(suite).unwrap().join(", ");
    vec![
        (
            "configure",
            format!(
                "software-configuration scripts (§5.2); members: {}; knobs: {}",
                members("configure"),
                knob_names(CONFIGURE)
            ),
        ),
        (
            "dacapo",
            format!(
                "DaCapo Java applications (§5.3); members: {}; knobs: {}",
                members("dacapo"),
                knob_names(DACAPO)
            ),
        ),
        (
            "nas",
            format!(
                "NAS Parallel Benchmarks (§5.4); members: {}; knobs: {}",
                members("nas"),
                knob_names(NAS)
            ),
        ),
        (
            "phoronix",
            format!(
                "Figure 13 / Table 5 multicore tests (§5.5), no knobs; members: {}",
                members("phoronix")
            ),
        ),
        (
            "hackbench",
            format!(
                "scheduler message-churn stress (§5.6); knobs: {}",
                knob_names(HACKBENCH)
            ),
        ),
        (
            "schbench",
            format!(
                "wakeup-latency microbenchmark (§5.6); knobs: {}",
                knob_names(SCHBENCH)
            ),
        ),
        (
            "serve",
            format!(
                "open-loop request serving with a tail-latency/SLO lens; knobs: {}",
                knob_names(SERVE)
            ),
        ),
        (
            "server",
            "request/worker server tests (§5.6); members: nginx, apache (knob: c), \
             leveldb, redis"
                .to_string(),
        ),
        (
            "fleet",
            format!(
                "multi-host front-end prefix (fleet:<knobs>+<workload with serve parts>); \
                 knobs: {}",
                knob_names(FLEET)
            ),
        ),
    ]
}

const CONFIGURE: &[Knob<ConfigureSpec>] = knobs!(ConfigureSpec {
    "tests" => n_tests: Int,
    "shell_ms" => shell_ms: Float,
    "test_ms" => test_ms: Float,
    "jitter" => jitter: Float,
    "chain_prob" => chain_prob: Float,
    "burst_prob" => burst_prob: Float,
});

const DACAPO: &[Knob<DacapoSpec>] = knobs!(DacapoSpec {
    "workers" => workers: Int,
    "chunk_ms" => chunk_ms: Float,
    "sleep_ms" => sleep_ms: Float,
    "work_ms" => work_per_worker_ms: Float,
    "bg" => background_threads: Int,
    "jitter" => jitter: Float,
    "burst_chunks" => burst_chunks: Int,
    "tokens" => queue_tokens: Int,
});

const NAS: &[Knob<NasSpec>] = knobs!(NasSpec {
    "iters" => iterations: Int,
    "chunk_ms" => chunk_ms_at_64: Float,
    "jitter" => jitter: Float,
    "setup_ms" => setup_ms: Float,
});

const HACKBENCH: &[Knob<HackbenchSpec>] = knobs!(HackbenchSpec {
    "g" => groups: Int,
    "fan" => fan: Int,
    "loops" => loops: Int,
    "msg_cycles" => msg_cycles: Int,
});

const SCHBENCH: &[Knob<SchbenchSpec>] = knobs!(SchbenchSpec {
    "mt" => message_threads: Int,
    "w" => workers_per_message: Int,
    "requests" => requests_per_worker: Int,
    "think_ms" => think_ms: Float,
});

const SERVE: &[Knob<ServeSpec>] = knobs!(ServeSpec {
    "rate" => rate: Float,
    "requests" => requests: Int,
    "dist" => dist: ServiceDist,
    "service" => service_ms: Float,
    "sigma" => sigma: Float,
    "heavy" => heavy_ms: Float,
    "p_heavy" => p_heavy: Float,
    "fanout" => fanout: Int,
    "arrival" => arrival: ArrivalKind,
    "burst" => burst: Float,
    "on" => on_ms: Float,
    "off" => off_ms: Float,
    "ramp" => ramp_s: Float,
    "amp" => amp: Float,
    "slo" => slo_ns: Dur,
});

const FLEET: &[Knob<FleetSpec>] = knobs!(FleetSpec {
    "hosts" => hosts: Int,
    "lb" + " (rr|leastq|warmth)" => lb: LbPolicy,
    "retry" => retry: Int,
    "timeout" => timeout_ns: Dur,
    "backoff" => backoff_ns: Dur,
    "cap" => cap_ns: Dur,
    "hedge" + " (off|p95|<dur>)" => hedge: HedgeMode,
    "shed" => shed: OnOff,
    "hostdown" + "=K@T[:D]" => down: HostDown,
    "degrade" + "=hK:F@T[:D]" => degrade: HostDegrade,
});

/// Codecs for enums spelled by their registry keys.
macro_rules! key_codecs {
    ($($ty:ty: $expected:literal),* $(,)?) => {$(
        impl Codec<$ty> for $ty {
            const EXPECTED: &'static str = $expected;
            fn parse(value: &str) -> Option<$ty> {
                <$ty>::from_key(value)
            }
            fn render(value: &$ty) -> String {
                value.key().to_string()
            }
        }
    )*};
}

key_codecs!(
    ServiceDist: "one of det|exp|lognorm|bimodal",
    ArrivalKind: "one of poisson|onoff",
    LbPolicy: "one of rr|leastq|warmth",
);

/// `hedge=off|p95|<dur>`.
impl Codec<HedgeMode> for HedgeMode {
    const EXPECTED: &'static str = "off, p95 or a duration like 10ms";
    fn parse(value: &str) -> Option<HedgeMode> {
        match value {
            "off" => Some(HedgeMode::Off),
            "p95" => Some(HedgeMode::P95),
            _ => parse_duration(value).map(HedgeMode::After),
        }
    }
    fn render(value: &HedgeMode) -> String {
        match value {
            HedgeMode::Off => "off".to_string(),
            HedgeMode::P95 => "p95".to_string(),
            HedgeMode::After(ns) => Dur::render(ns),
        }
    }
}

/// `hostdown=K@TIME[:DUR]`: at least one host, a positive window.
impl Codec<Option<HostDown>> for HostDown {
    const EXPECTED: &'static str = "K@TIME[:DUR] with K >= 1 and DUR > 0, e.g. 1@250ms:250ms";
    fn parse(value: &str) -> Option<Option<HostDown>> {
        let (count, window) = value.split_once('@')?;
        let count = count.parse().ok().filter(|&k| k > 0)?;
        let (at_ns, dur_ns) = parse_window(window).ok()?;
        Some(Some(HostDown {
            count,
            at_ns,
            dur_ns,
        }))
    }
    fn render(value: &Option<HostDown>) -> String {
        value.as_ref().map_or(String::new(), |d| {
            format!("{}@{}", d.count, format_window(d.at_ns, d.dur_ns))
        })
    }
}

/// `degrade=hK:F@TIME[:DUR]`, several clauses joined with `;`.
impl Codec<Vec<HostDegrade>> for HostDegrade {
    const EXPECTED: &'static str =
        "hK:F@TIME[:DUR] clauses joined by ';' with F in (0, 1] and DUR > 0, e.g. h1:0.5@200ms:300ms";
    fn parse(value: &str) -> Option<Vec<HostDegrade>> {
        value
            .split(';')
            .map(|clause| {
                let (host, rest) = clause.strip_prefix('h')?.split_once(':')?;
                let (factor, window) = rest.split_once('@')?;
                let factor = factor.parse().ok().filter(|f| *f > 0.0 && *f <= 1.0)?;
                let (at_ns, dur_ns) = parse_window(window).ok()?;
                Some(HostDegrade {
                    host: host.parse().ok()?,
                    factor,
                    at_ns,
                    dur_ns,
                })
            })
            .collect()
    }
    fn render(value: &Vec<HostDegrade>) -> String {
        let clauses: Vec<String> = value
            .iter()
            .map(|d| {
                let window = format_window(d.at_ns, d.dur_ns);
                format!("h{}:{}@{window}", d.host, d.factor)
            })
            .collect();
        clauses.join(";")
    }
}

/// The member names of a member-selecting suite (`configure`, `dacapo`,
/// `nas`, `phoronix`, `server`).
pub fn suite_members(suite: &str) -> Option<Vec<String>> {
    match suite {
        "configure" => Some(
            configure::all_specs()
                .iter()
                .map(|s| s.name.to_string())
                .collect(),
        ),
        "dacapo" => Some(
            dacapo::all_specs()
                .iter()
                .map(|s| s.name.to_string())
                .collect(),
        ),
        "nas" => Some(
            nas::all_specs()
                .iter()
                .map(|s| s.name.to_string())
                .collect(),
        ),
        "phoronix" => Some(
            phoronix::figure13_specs()
                .iter()
                .map(|s| s.name.clone())
                .collect(),
        ),
        "server" => Some(
            ["nginx", "apache", "leveldb", "redis"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        _ => None,
    }
}

/// A server test: kind plus (for the open-loop pair) client concurrency.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerKind {
    /// nginx-like: many light requests (`c` = concurrency).
    Nginx(u32),
    /// apache-like: heavier requests, wider pool (`c` = concurrency).
    Apache(u32),
    /// leveldb-like key-value store (fixed sizing).
    Leveldb,
    /// redis-like nearly-serial event loop (fixed sizing).
    Redis,
}

impl ServerKind {
    fn to_spec(&self) -> server::ServerSpec {
        match self {
            ServerKind::Nginx(c) => server::ServerSpec::nginx(*c),
            ServerKind::Apache(c) => server::ServerSpec::apache(*c),
            ServerKind::Leveldb => server::ServerSpec::leveldb(),
            ServerKind::Redis => server::ServerSpec::redis(),
        }
    }
}

/// A fully resolved workload: plain data, cheap to clone into the
/// harness's per-cell factories.
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// A §5.2 configure benchmark.
    Configure(ConfigureSpec),
    /// A §5.3 DaCapo application.
    Dacapo(DacapoSpec),
    /// A §5.4 NAS kernel.
    Nas(NasSpec),
    /// A §5.5 Phoronix test.
    Phoronix(phoronix::PhoronixSpec),
    /// The §5.6 hackbench stress.
    Hackbench(HackbenchSpec),
    /// The §5.6 schbench microbenchmark.
    Schbench(SchbenchSpec),
    /// An open-loop serving stream with a tail-latency SLO.
    Serve(ServeSpec),
    /// A §5.6 server test.
    Server(ServerKind),
    /// Several workloads launched together (`+`).
    Multi(Vec<WorkloadSpec>),
    /// A multi-host fleet front-end routing the inner workload's serve
    /// streams (`fleet:<knobs>+<inner>`).
    Fleet(FleetSpec, Box<WorkloadSpec>),
}

fn unknown_member(kind: &'static str, name: &str, suite: &str) -> ScenarioError {
    ScenarioError::UnknownEntry {
        kind,
        name: name.to_string(),
        valid: suite_members(suite).unwrap_or_default(),
    }
}

fn unknown_param(entry: &str, param: &str, valid: &[&str]) -> ScenarioError {
    ScenarioError::UnknownParam {
        kind: "workload",
        entry: entry.to_string(),
        param: param.to_string(),
        valid: valid.iter().map(|p| p.to_string()).collect(),
    }
}

fn require_member(p: &ParsedSpec, spec: &str) -> Result<String, ScenarioError> {
    p.member
        .clone()
        .ok_or_else(|| ScenarioError::MalformedSpec {
            spec: spec.trim().to_string(),
            reason: format!("{} needs a member, e.g. \"{}:<name>\"", p.head, p.head),
        })
}

/// A member suite's spec: the named member (`what` names the registry
/// in errors) with `p`'s knobs applied.
fn member_spec<S>(
    p: &ParsedSpec,
    input: &str,
    what: &'static str,
    by_name: fn(&str) -> Option<S>,
    knobs: &[Knob<S>],
) -> Result<S, ScenarioError> {
    let member = require_member(p, input)?;
    let mut s = by_name(&member).ok_or_else(|| unknown_member(what, &member, &p.head))?;
    apply_knobs("workload", knobs, p, &mut s)?;
    Ok(s)
}

/// A member-less suite's spec: the defaults with `p`'s knobs applied.
fn bare_spec<S: Default>(
    p: &ParsedSpec,
    input: &str,
    knobs: &[Knob<S>],
) -> Result<S, ScenarioError> {
    if p.member.is_some() {
        return Err(ScenarioError::MalformedSpec {
            spec: input.trim().to_string(),
            reason: format!("{} has no members (parameters are key=value)", p.head),
        });
    }
    let mut s = S::default();
    apply_knobs("workload", knobs, p, &mut s)?;
    Ok(s)
}

fn parse_single(input: &str) -> Result<WorkloadSpec, ScenarioError> {
    let p = parse_spec("workload", input)?;
    let malformed = |reason: String| ScenarioError::MalformedSpec {
        spec: input.trim().to_string(),
        reason,
    };
    Ok(match p.head.as_str() {
        "configure" => WorkloadSpec::Configure(member_spec(
            &p,
            input,
            "configure benchmark",
            configure::by_name,
            CONFIGURE,
        )?),
        "dacapo" => WorkloadSpec::Dacapo(member_spec(
            &p,
            input,
            "dacapo application",
            dacapo::by_name,
            DACAPO,
        )?),
        "nas" => WorkloadSpec::Nas(member_spec(&p, input, "nas kernel", nas::by_name, NAS)?),
        "phoronix" => WorkloadSpec::Phoronix(member_spec(
            &p,
            input,
            "phoronix test",
            phoronix::by_name,
            &[],
        )?),
        "hackbench" => WorkloadSpec::Hackbench(bare_spec(&p, input, HACKBENCH)?),
        "schbench" => WorkloadSpec::Schbench(bare_spec(&p, input, SCHBENCH)?),
        "serve" => {
            let s: ServeSpec = bare_spec(&p, input, SERVE)?;
            s.validate().map_err(malformed)?;
            WorkloadSpec::Serve(s)
        }
        "fleet" => {
            return Err(malformed(
                "fleet is a front-end prefix and must come first, followed by the \
                 workload it routes, e.g. \"fleet:hosts=4,lb=warmth+serve:rate=500\""
                    .into(),
            ))
        }
        "server" => {
            let member = require_member(&p, input)?;
            let mut c: Option<u32> = None;
            for (k, v) in &p.params {
                match k.as_str() {
                    "c" => c = Some(parse_knob::<_, Int>(k, v)?),
                    _ => return Err(unknown_param(&p.entry(), k, &["c"])),
                }
            }
            let kind = match member.as_str() {
                "nginx" | "apache" => {
                    let c = c.ok_or_else(|| {
                        malformed(format!("server:{member} requires c=<concurrency>"))
                    })?;
                    if member == "nginx" {
                        ServerKind::Nginx(c)
                    } else {
                        ServerKind::Apache(c)
                    }
                }
                "leveldb" | "redis" => {
                    if c.is_some() {
                        return Err(unknown_param(&p.entry(), "c", &[]));
                    }
                    if member == "leveldb" {
                        ServerKind::Leveldb
                    } else {
                        ServerKind::Redis
                    }
                }
                _ => return Err(unknown_member("server test", &member, "server")),
            };
            WorkloadSpec::Server(kind)
        }
        _ => {
            return Err(ScenarioError::UnknownEntry {
                kind: "workload suite",
                name: p.head,
                valid: workload_suites().iter().map(|k| k.to_string()).collect(),
            })
        }
    })
}

/// Parses a workload spec string; `+` at the top level combines several
/// workloads into a [`WorkloadSpec::Multi`]. A leading `fleet:` part
/// wraps the remaining parts into a [`WorkloadSpec::Fleet`].
pub fn parse_workload(input: &str) -> Result<WorkloadSpec, ScenarioError> {
    let parts: Vec<&str> = input.split('+').collect();
    if let Ok(p) = parse_spec("workload", parts[0]) {
        if p.head == "fleet" && !parts[1..].is_empty() {
            return parse_fleet(input, &p, &parts[1..]);
        }
    }
    if parts.len() == 1 {
        return parse_single(input);
    }
    let specs = parts
        .iter()
        .map(|part| parse_single(part))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WorkloadSpec::Multi(specs))
}

/// Parses the `fleet:` front-end: `p` is the already-parsed first part,
/// `rest` the `+`-separated parts it routes.
fn parse_fleet(input: &str, p: &ParsedSpec, rest: &[&str]) -> Result<WorkloadSpec, ScenarioError> {
    let malformed = |reason: String| ScenarioError::MalformedSpec {
        spec: input.trim().to_string(),
        reason,
    };
    let spec: FleetSpec = bare_spec(p, input, FLEET)?;
    spec.validate().map_err(malformed)?;
    let inner = if rest.len() == 1 {
        parse_single(rest[0])?
    } else {
        WorkloadSpec::Multi(
            rest.iter()
                .map(|part| parse_single(part))
                .collect::<Result<Vec<_>, _>>()?,
        )
    };
    if !inner.has_serve() {
        return Err(malformed(
            "a fleet needs at least one serve part to route, e.g. \
             \"fleet:hosts=4+serve:rate=500\""
                .into(),
        ));
    }
    Ok(WorkloadSpec::Fleet(spec, Box::new(inner)))
}

/// Canonicalizes a workload spec string (parse, normalize, re-render).
pub fn canonical_workload(input: &str) -> Result<String, ScenarioError> {
    Ok(parse_workload(input)?.canonical())
}

impl WorkloadSpec {
    /// The canonical spec string: suite key, member, and only the knobs
    /// that differ from the member/suite base, in declaration order.
    pub fn canonical(&self) -> String {
        const MEMBER: &str = "member came from the registry";
        match self {
            WorkloadSpec::Configure(s) => {
                let base = configure::by_name(s.name).expect(MEMBER);
                changed_knobs(format!("configure:{}", s.name), ',', CONFIGURE, s, &base)
            }
            WorkloadSpec::Dacapo(s) => {
                let base = dacapo::by_name(s.name).expect(MEMBER);
                changed_knobs(format!("dacapo:{}", s.name), ',', DACAPO, s, &base)
            }
            WorkloadSpec::Nas(s) => {
                let base = nas::by_name(s.name).expect(MEMBER);
                changed_knobs(format!("nas:{}", s.name), ',', NAS, s, &base)
            }
            WorkloadSpec::Phoronix(s) => format!("phoronix:{}", s.name),
            WorkloadSpec::Hackbench(s) => {
                changed_knobs("hackbench".into(), ':', HACKBENCH, s, &Default::default())
            }
            WorkloadSpec::Schbench(s) => {
                changed_knobs("schbench".into(), ':', SCHBENCH, s, &Default::default())
            }
            WorkloadSpec::Serve(s) => {
                changed_knobs("serve".into(), ':', SERVE, s, &Default::default())
            }
            WorkloadSpec::Server(kind) => match kind {
                ServerKind::Nginx(c) => format!("server:nginx,c={c}"),
                ServerKind::Apache(c) => format!("server:apache,c={c}"),
                ServerKind::Leveldb => "server:leveldb".to_string(),
                ServerKind::Redis => "server:redis".to_string(),
            },
            WorkloadSpec::Multi(parts) => parts
                .iter()
                .map(|p| p.canonical())
                .collect::<Vec<_>>()
                .join("+"),
            WorkloadSpec::Fleet(f, inner) => {
                let fleet = changed_knobs("fleet".into(), ':', FLEET, f, &Default::default());
                format!("{fleet}+{}", inner.canonical())
            }
        }
    }

    /// Whether this spec (or any part of it) carries an open-loop serve
    /// stream the fleet balancer could route.
    fn has_serve(&self) -> bool {
        match self {
            WorkloadSpec::Serve(_) => true,
            WorkloadSpec::Multi(parts) => parts.iter().any(|p| p.has_serve()),
            WorkloadSpec::Fleet(_, inner) => inner.has_serve(),
            _ => false,
        }
    }

    /// Constructs the workload. Cheap (constructors store specs; tasks
    /// are built later, inside the engine), so the harness calls this
    /// once per cell from a cloned spec.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Configure(s) => Box::new(configure::Configure::new(s.clone())),
            WorkloadSpec::Dacapo(s) => Box::new(dacapo::Dacapo::new(s.clone())),
            WorkloadSpec::Nas(s) => Box::new(nas::Nas::new(s.clone())),
            WorkloadSpec::Phoronix(s) => Box::new(phoronix::Phoronix::new(s.clone())),
            WorkloadSpec::Hackbench(s) => {
                Box::new(nest_workloads::hackbench::Hackbench::new(s.clone()))
            }
            WorkloadSpec::Schbench(s) => {
                Box::new(nest_workloads::schbench::Schbench::new(s.clone()))
            }
            WorkloadSpec::Serve(s) => Box::new(ServeLoad::new(s.clone())),
            WorkloadSpec::Server(kind) => Box::new(server::Server::new(kind.to_spec())),
            WorkloadSpec::Multi(parts) => {
                Box::new(Multi::new(parts.iter().map(|p| p.build()).collect()))
            }
            WorkloadSpec::Fleet(f, inner) => Box::new(FleetLoad::new(f.clone(), inner.build())),
        }
    }

    /// The figure name of the built workload (what seed derivation and
    /// comparison tables use), e.g. `"gdb"` or `"hackbench-g16-l1000"`.
    pub fn name(&self) -> String {
        self.build().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_suites_resolve_with_knobs() {
        let WorkloadSpec::Configure(s) = parse_workload("configure:gdb,tests=40").unwrap() else {
            panic!("expected Configure");
        };
        assert_eq!(s.name, "gdb");
        assert_eq!(s.n_tests, 40);

        let WorkloadSpec::Nas(s) = parse_workload("nas:bt.C.x,iters=3").unwrap() else {
            panic!("expected Nas");
        };
        assert_eq!(s.iterations, 3);

        let WorkloadSpec::Phoronix(s) = parse_workload("phoronix:zstd compression 7").unwrap()
        else {
            panic!("expected Phoronix");
        };
        assert_eq!(s.name, "zstd compression 7");
    }

    #[test]
    fn parametric_suites_resolve() {
        let WorkloadSpec::Schbench(s) = parse_workload("schbench:mt=4,w=4,requests=20").unwrap()
        else {
            panic!("expected Schbench");
        };
        assert_eq!(
            (
                s.message_threads,
                s.workers_per_message,
                s.requests_per_worker
            ),
            (4, 4, 20)
        );
        let WorkloadSpec::Hackbench(h) = parse_workload("hackbench").unwrap() else {
            panic!("expected Hackbench");
        };
        assert_eq!(h.groups, HackbenchSpec::default().groups);
    }

    #[test]
    fn server_kinds_and_concurrency() {
        assert_eq!(
            parse_workload("server:nginx,c=50").unwrap().canonical(),
            "server:nginx,c=50"
        );
        assert_eq!(
            parse_workload("server:redis").unwrap().canonical(),
            "server:redis"
        );
        assert!(parse_workload("server:nginx").is_err(), "c is required");
        assert!(parse_workload("server:redis,c=9").is_err());
        assert!(parse_workload("server:postgres,c=1").is_err());
    }

    #[test]
    fn serve_parses_and_canonicalizes() {
        let WorkloadSpec::Serve(s) = parse_workload("serve:rate=500,dist=lognorm,slo=4ms").unwrap()
        else {
            panic!("expected Serve");
        };
        assert_eq!(s.rate, 500.0);
        assert_eq!(s.dist, ServiceDist::Lognorm);
        assert_eq!(s.slo_ns, 4_000_000);
        // Knob order canonicalizes; knobs at their base value drop out
        // (the default SLO is 2ms).
        assert_eq!(
            canonical_workload("serve:slo=4ms,dist=lognorm,rate=500").unwrap(),
            "serve:rate=500,dist=lognorm,slo=4ms"
        );
        assert_eq!(canonical_workload("serve:slo=2ms").unwrap(), "serve");
        assert_eq!(
            canonical_workload("serve:arrival=onoff,burst=12").unwrap(),
            "serve:arrival=onoff,burst=12"
        );
        assert_eq!(parse_workload("serve").unwrap().name(), "serve-r200");
    }

    #[test]
    fn serve_rejects_bad_specs() {
        let msg = parse_workload("serve:fast").unwrap_err().to_string();
        assert!(msg.contains("no members"), "{msg}");
        let msg = parse_workload("serve:dist=gaussian")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("det|exp|lognorm|bimodal"), "{msg}");
        let msg = parse_workload("serve:slo=2").unwrap_err().to_string();
        assert!(msg.contains("a duration like 2ms"), "{msg}");
        let msg = parse_workload("serve:rate=0").unwrap_err().to_string();
        assert!(msg.contains("rate must be positive"), "{msg}");
        let msg = parse_workload("serve:frobnicate=1")
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("valid parameters") && msg.contains("rate"),
            "{msg}"
        );
    }

    #[test]
    fn serve_colocation_carries_specs_through_multi() {
        let spec = parse_workload("serve:rate=500+hackbench:g=4").unwrap();
        assert_eq!(spec.canonical(), "serve:rate=500+hackbench:g=4");
        let specs = spec.build().serve_specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].rate, 500.0);
        // A non-serving workload carries none.
        assert!(parse_workload("hackbench")
            .unwrap()
            .build()
            .serve_specs()
            .is_empty());
    }

    #[test]
    fn multi_splits_on_plus() {
        let spec = parse_workload("phoronix:zstd compression 7+phoronix:libgav1 4").unwrap();
        let WorkloadSpec::Multi(parts) = &spec else {
            panic!("expected Multi");
        };
        assert_eq!(parts.len(), 2);
        // The built name matches the §5.6 multi-application convention —
        // and therefore the seed stream of the hand-wired original.
        assert_eq!(spec.name(), "zstd compression 7 + libgav1 4");
    }

    #[test]
    fn canonical_drops_default_knobs_and_fixes_order() {
        assert_eq!(
            canonical_workload("configure:gdb,jitter=0.5,tests=40").unwrap(),
            canonical_workload("configure:gdb,tests=40,jitter=0.5").unwrap()
        );
        // A knob written at its base value canonicalizes away.
        let base = configure::by_name("gdb").unwrap();
        assert_eq!(
            canonical_workload(&format!("configure:gdb,tests={}", base.n_tests)).unwrap(),
            "configure:gdb"
        );
        assert_eq!(canonical_workload("schbench").unwrap(), "schbench");
    }

    #[test]
    fn names_match_hand_wired_workloads() {
        for (spec, name) in [
            ("configure:gdb", "gdb"),
            ("hackbench", "hackbench-g16-l1000"),
            ("schbench:mt=4,w=4", "schbench-m4-w4"),
            ("server:nginx,c=200", "nginx-c200"),
            ("nas:bt.C.x", "bt.C.x"),
        ] {
            assert_eq!(parse_workload(spec).unwrap().name(), name, "{spec}");
        }
    }

    #[test]
    fn errors_list_members_and_knobs() {
        let msg = parse_workload("configure:gdbb").unwrap_err().to_string();
        assert!(
            msg.contains("unknown configure benchmark") && msg.contains("gdb"),
            "{msg}"
        );
        let msg = parse_workload("configure").unwrap_err().to_string();
        assert!(msg.contains("needs a member"), "{msg}");
        let msg = parse_workload("configure:gdb,cores=9")
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("valid parameters") && msg.contains("tests"),
            "{msg}"
        );
        let msg = parse_workload("phoronix:zstd compression 7,x=1")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("takes no parameters"), "{msg}");
        let msg = parse_workload("fortnite").unwrap_err().to_string();
        assert!(
            msg.contains("unknown workload suite") && msg.contains("configure"),
            "{msg}"
        );
    }

    #[test]
    fn fleet_prefix_parses_and_canonicalizes() {
        let spec =
            parse_workload("fleet:hosts=4,lb=warmth,retry=2,hedge=p95+serve:rate=500").unwrap();
        let WorkloadSpec::Fleet(f, inner) = &spec else {
            panic!("expected Fleet");
        };
        assert_eq!(f.hosts, 4);
        assert_eq!(f.retry, 2);
        assert!(matches!(**inner, WorkloadSpec::Serve(_)));
        assert_eq!(
            spec.canonical(),
            "fleet:hosts=4,lb=warmth,retry=2,hedge=p95+serve:rate=500"
        );
        // Default knobs drop; knob order normalizes.
        assert_eq!(
            canonical_workload("fleet:retry=1,hosts=2+serve").unwrap(),
            "fleet+serve"
        );
        // The built workload reports the fleet spec and serves.
        let wl = spec.build();
        assert_eq!(wl.fleet_spec().unwrap().hosts, 4);
        assert_eq!(wl.serve_specs().len(), 1);
    }

    #[test]
    fn fleet_colocates_background_work() {
        let spec =
            parse_workload("fleet:hosts=2,hostdown=1@50ms:100ms+serve:rate=500+hackbench:g=4")
                .unwrap();
        let WorkloadSpec::Fleet(f, inner) = &spec else {
            panic!("expected Fleet");
        };
        assert_eq!(f.down.as_ref().unwrap().count, 1);
        let WorkloadSpec::Multi(parts) = &**inner else {
            panic!("expected Multi inner");
        };
        assert_eq!(parts.len(), 2);
        assert_eq!(
            spec.canonical(),
            "fleet:hostdown=1@50ms:100ms+serve:rate=500+hackbench:g=4"
        );
    }

    #[test]
    fn fleet_rejects_bad_shapes() {
        let msg = parse_workload("fleet:hosts=4").unwrap_err().to_string();
        assert!(msg.contains("front-end prefix"), "{msg}");
        let msg = parse_workload("fleet:hosts=4+hackbench")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("at least one serve part"), "{msg}");
        let msg = parse_workload("fleet:hosts=99+serve")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("hosts"), "{msg}");
        let msg = parse_workload("serve+fleet:hosts=2+serve")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("must come first"), "{msg}");
        let msg = parse_workload("fleet:warmth+serve")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("no members"), "{msg}");
    }

    fn fleet(input: &str) -> FleetSpec {
        match parse_workload(input).unwrap() {
            WorkloadSpec::Fleet(f, _) => f,
            other => panic!("expected Fleet, got {other:?}"),
        }
    }

    #[test]
    fn fleet_defaults_render_bare() {
        assert_eq!(fleet("fleet+serve"), FleetSpec::default());
        assert_eq!(canonical_workload("fleet+serve").unwrap(), "fleet+serve");
    }

    #[test]
    fn fleet_full_spec_round_trips() {
        let input = "fleet:hosts=4,lb=warmth,retry=2,timeout=50ms,hedge=p95,shed=on,\
                     hostdown=1@250ms:250ms,degrade=h1:0.5@200ms:300ms+serve";
        let s = fleet(input);
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
        let canonical = "fleet:hosts=4,lb=warmth,retry=2,hedge=p95,shed=on,\
                         hostdown=1@250ms:250ms,degrade=h1:0.5@200ms:300ms+serve";
        assert_eq!(canonical_workload(input).unwrap(), canonical);
        assert_eq!(fleet(canonical), s);
    }

    #[test]
    fn fleet_hedge_accepts_fixed_delay() {
        assert_eq!(
            fleet("fleet:hedge=10ms+serve").hedge,
            HedgeMode::After(10_000_000)
        );
        assert_eq!(
            canonical_workload("fleet:hedge=10ms+serve").unwrap(),
            "fleet:hedge=10ms+serve"
        );
    }

    #[test]
    fn fleet_multiple_degrade_clauses_join_with_semicolon() {
        let input = "fleet:hosts=3,degrade=h1:0.5@200ms;h2:0.8@100ms:50ms+serve";
        assert_eq!(fleet(input).degrade.len(), 2);
        assert_eq!(canonical_workload(input).unwrap(), input);
    }

    #[test]
    fn fleet_knobs_reject_bad_values() {
        for (knobs, needle) in [
            ("hosts=0", "1..="),
            ("hosts=99", "1..="),
            ("retry=11", "at most 10"),
            ("timeout=0ms", "positive"),
            ("timeout=50", "a duration like 2ms"),
            ("cap=1us", "at least the backoff base"),
            ("lb=random", "rr|leastq|warmth"),
            ("hedge=sometimes", "off, p95 or a duration"),
            ("shed=maybe", "on|off"),
            ("hostdown=2@1ms", "at least one host alive"),
            ("hostdown=0@1ms", "K >= 1"),
            ("hostdown=1@50ms:0ms", "DUR > 0"),
            ("degrade=h7:0.5@1ms", "does not exist"),
            ("degrade=h0:1.5@1ms", "(0, 1]"),
            ("degrade=h0:0.5@1ms:0ms", "DUR > 0"),
            ("frobnicate=1", "unknown parameter"),
        ] {
            let e = parse_workload(&format!("fleet:{knobs}+serve")).unwrap_err();
            assert!(e.to_string().contains(needle), "{knobs}: {e}");
        }
        // `shed` takes the shared boolean spelling; it renders `on`.
        assert_eq!(
            canonical_workload("fleet:shed=true+serve").unwrap(),
            "fleet:shed=on+serve"
        );
    }

    #[test]
    fn every_registered_member_round_trips() {
        for suite in ["configure", "dacapo", "nas", "phoronix"] {
            for member in suite_members(suite).unwrap() {
                let spec_str = format!("{suite}:{member}");
                let spec = parse_workload(&spec_str).unwrap();
                assert_eq!(spec.canonical(), spec_str);
                assert!(!spec.name().is_empty());
            }
        }
    }
}
