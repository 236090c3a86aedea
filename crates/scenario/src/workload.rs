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
//! Canonical strings list only knobs that differ from the member/suite
//! base, in declaration order, so equivalent specs share one cache key.

use nest_serve::{ArrivalKind, ServeSpec, ServiceDist};
use nest_simcore::time::{format_duration, parse_duration};
use nest_workloads::{
    configure, dacapo, hackbench::HackbenchSpec, nas, phoronix, schbench::SchbenchSpec, server,
    FleetLoad, FleetSpec, Multi, ServeLoad, Workload,
};

use crate::error::ScenarioError;
use crate::spec::{fmt_f64, parse_f64, parse_spec, parse_u32, parse_u64, ParsedSpec};

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
    vec![
        (
            "configure",
            format!(
                "software-configuration scripts (§5.2); members: {}; knobs: tests, \
                 shell_ms, test_ms, jitter, chain_prob, burst_prob",
                suite_members("configure").unwrap().join(", ")
            ),
        ),
        (
            "dacapo",
            format!(
                "DaCapo Java applications (§5.3); members: {}; knobs: workers, chunk_ms, \
                 sleep_ms, work_ms, bg, jitter, burst_chunks, tokens",
                suite_members("dacapo").unwrap().join(", ")
            ),
        ),
        (
            "nas",
            format!(
                "NAS Parallel Benchmarks (§5.4); members: {}; knobs: iters, chunk_ms, \
                 jitter, setup_ms",
                suite_members("nas").unwrap().join(", ")
            ),
        ),
        (
            "phoronix",
            format!(
                "Figure 13 / Table 5 multicore tests (§5.5), no knobs; members: {}",
                suite_members("phoronix").unwrap().join(", ")
            ),
        ),
        (
            "hackbench",
            "scheduler message-churn stress (§5.6); knobs: g, fan, loops, msg_cycles".to_string(),
        ),
        (
            "schbench",
            "wakeup-latency microbenchmark (§5.6); knobs: mt, w, requests, think_ms".to_string(),
        ),
        (
            "serve",
            "open-loop request serving with a tail-latency/SLO lens; knobs: rate, \
             requests, dist, service, sigma, heavy, p_heavy, fanout, arrival, burst, \
             on, off, ramp, amp, slo"
                .to_string(),
        ),
        (
            "server",
            "request/worker server tests (§5.6); members: nginx, apache (knob: c), \
             leveldb, redis"
                .to_string(),
        ),
        (
            "fleet",
            "multi-host front-end prefix (fleet:<knobs>+<workload with serve parts>); \
             knobs: hosts, lb (rr|leastq|warmth), retry, timeout, backoff, cap, \
             hedge (off|p95|<dur>), shed, hostdown=K@T[:D], degrade=hK:F@T[:D]"
                .to_string(),
        ),
    ]
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
    Configure(configure::ConfigureSpec),
    /// A §5.3 DaCapo application.
    Dacapo(dacapo::DacapoSpec),
    /// A §5.4 NAS kernel.
    Nas(nas::NasSpec),
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

const CONFIGURE_PARAMS: [&str; 6] = [
    "tests",
    "shell_ms",
    "test_ms",
    "jitter",
    "chain_prob",
    "burst_prob",
];
const DACAPO_PARAMS: [&str; 8] = [
    "workers",
    "chunk_ms",
    "sleep_ms",
    "work_ms",
    "bg",
    "jitter",
    "burst_chunks",
    "tokens",
];
const NAS_PARAMS: [&str; 4] = ["iters", "chunk_ms", "jitter", "setup_ms"];
const HACKBENCH_PARAMS: [&str; 4] = ["g", "fan", "loops", "msg_cycles"];
const SCHBENCH_PARAMS: [&str; 4] = ["mt", "w", "requests", "think_ms"];
const SERVE_PARAMS: [&str; 15] = [
    "rate", "requests", "dist", "service", "sigma", "heavy", "p_heavy", "fanout", "arrival",
    "burst", "on", "off", "ramp", "amp", "slo",
];

fn bad_value(param: &str, value: &str, expected: &'static str) -> ScenarioError {
    ScenarioError::BadValue {
        param: param.to_string(),
        value: value.to_string(),
        expected,
    }
}

fn parse_single(input: &str) -> Result<WorkloadSpec, ScenarioError> {
    let p = parse_spec("workload", input)?;
    match p.head.as_str() {
        "configure" => {
            let member = require_member(&p, input)?;
            let mut s = configure::by_name(&member)
                .ok_or_else(|| unknown_member("configure benchmark", &member, "configure"))?;
            for (k, v) in &p.params {
                match k.as_str() {
                    "tests" => s.n_tests = parse_u32(k, v)?,
                    "shell_ms" => s.shell_ms = parse_f64(k, v)?,
                    "test_ms" => s.test_ms = parse_f64(k, v)?,
                    "jitter" => s.jitter = parse_f64(k, v)?,
                    "chain_prob" => s.chain_prob = parse_f64(k, v)?,
                    "burst_prob" => s.burst_prob = parse_f64(k, v)?,
                    _ => {
                        return Err(unknown_param(
                            &format!("configure:{member}"),
                            k,
                            &CONFIGURE_PARAMS,
                        ))
                    }
                }
            }
            Ok(WorkloadSpec::Configure(s))
        }
        "dacapo" => {
            let member = require_member(&p, input)?;
            let mut s = dacapo::by_name(&member)
                .ok_or_else(|| unknown_member("dacapo application", &member, "dacapo"))?;
            for (k, v) in &p.params {
                match k.as_str() {
                    "workers" => s.workers = parse_u32(k, v)?,
                    "chunk_ms" => s.chunk_ms = parse_f64(k, v)?,
                    "sleep_ms" => s.sleep_ms = parse_f64(k, v)?,
                    "work_ms" => s.work_per_worker_ms = parse_f64(k, v)?,
                    "bg" => s.background_threads = parse_u32(k, v)?,
                    "jitter" => s.jitter = parse_f64(k, v)?,
                    "burst_chunks" => s.burst_chunks = parse_u32(k, v)?,
                    "tokens" => s.queue_tokens = parse_u32(k, v)?,
                    _ => {
                        return Err(unknown_param(
                            &format!("dacapo:{member}"),
                            k,
                            &DACAPO_PARAMS,
                        ))
                    }
                }
            }
            Ok(WorkloadSpec::Dacapo(s))
        }
        "nas" => {
            let member = require_member(&p, input)?;
            let mut s = nas::by_name(&member)
                .ok_or_else(|| unknown_member("nas kernel", &member, "nas"))?;
            for (k, v) in &p.params {
                match k.as_str() {
                    "iters" => s.iterations = parse_u32(k, v)?,
                    "chunk_ms" => s.chunk_ms_at_64 = parse_f64(k, v)?,
                    "jitter" => s.jitter = parse_f64(k, v)?,
                    "setup_ms" => s.setup_ms = parse_f64(k, v)?,
                    _ => return Err(unknown_param(&format!("nas:{member}"), k, &NAS_PARAMS)),
                }
            }
            Ok(WorkloadSpec::Nas(s))
        }
        "phoronix" => {
            let member = require_member(&p, input)?;
            let s = phoronix::by_name(&member)
                .ok_or_else(|| unknown_member("phoronix test", &member, "phoronix"))?;
            if let Some((k, _)) = p.params.first() {
                return Err(unknown_param(&format!("phoronix:{member}"), k, &[]));
            }
            Ok(WorkloadSpec::Phoronix(s))
        }
        "hackbench" => {
            if p.member.is_some() {
                return Err(ScenarioError::MalformedSpec {
                    spec: input.trim().to_string(),
                    reason: "hackbench has no members (parameters are key=value)".into(),
                });
            }
            let mut s = HackbenchSpec::default();
            for (k, v) in &p.params {
                match k.as_str() {
                    "g" => s.groups = parse_u32(k, v)?,
                    "fan" => s.fan = parse_u32(k, v)?,
                    "loops" => s.loops = parse_u32(k, v)?,
                    "msg_cycles" => s.msg_cycles = parse_u64(k, v)?,
                    _ => return Err(unknown_param("hackbench", k, &HACKBENCH_PARAMS)),
                }
            }
            Ok(WorkloadSpec::Hackbench(s))
        }
        "schbench" => {
            if p.member.is_some() {
                return Err(ScenarioError::MalformedSpec {
                    spec: input.trim().to_string(),
                    reason: "schbench has no members (parameters are key=value)".into(),
                });
            }
            let mut s = SchbenchSpec::default();
            for (k, v) in &p.params {
                match k.as_str() {
                    "mt" => s.message_threads = parse_u32(k, v)?,
                    "w" => s.workers_per_message = parse_u32(k, v)?,
                    "requests" => s.requests_per_worker = parse_u32(k, v)?,
                    "think_ms" => s.think_ms = parse_f64(k, v)?,
                    _ => return Err(unknown_param("schbench", k, &SCHBENCH_PARAMS)),
                }
            }
            Ok(WorkloadSpec::Schbench(s))
        }
        "serve" => {
            if p.member.is_some() {
                return Err(ScenarioError::MalformedSpec {
                    spec: input.trim().to_string(),
                    reason: "serve has no members (parameters are key=value)".into(),
                });
            }
            let mut s = ServeSpec::default();
            for (k, v) in &p.params {
                match k.as_str() {
                    "rate" => s.rate = parse_f64(k, v)?,
                    "requests" => s.requests = parse_u32(k, v)?,
                    "dist" => {
                        s.dist = ServiceDist::from_key(v)
                            .ok_or_else(|| bad_value(k, v, "one of det|exp|lognorm|bimodal"))?
                    }
                    "service" => s.service_ms = parse_f64(k, v)?,
                    "sigma" => s.sigma = parse_f64(k, v)?,
                    "heavy" => s.heavy_ms = parse_f64(k, v)?,
                    "p_heavy" => s.p_heavy = parse_f64(k, v)?,
                    "fanout" => s.fanout = parse_u32(k, v)?,
                    "arrival" => {
                        s.arrival = ArrivalKind::from_key(v)
                            .ok_or_else(|| bad_value(k, v, "one of poisson|onoff"))?
                    }
                    "burst" => s.burst = parse_f64(k, v)?,
                    "on" => s.on_ms = parse_f64(k, v)?,
                    "off" => s.off_ms = parse_f64(k, v)?,
                    "ramp" => s.ramp_s = parse_f64(k, v)?,
                    "amp" => s.amp = parse_f64(k, v)?,
                    "slo" => {
                        s.slo_ns = parse_duration(v)
                            .ok_or_else(|| bad_value(k, v, "a duration like 2ms"))?
                    }
                    _ => return Err(unknown_param("serve", k, &SERVE_PARAMS)),
                }
            }
            s.validate()
                .map_err(|reason| ScenarioError::MalformedSpec {
                    spec: input.trim().to_string(),
                    reason,
                })?;
            Ok(WorkloadSpec::Serve(s))
        }
        "fleet" => Err(ScenarioError::MalformedSpec {
            spec: input.trim().to_string(),
            reason: "fleet is a front-end prefix and must come first, followed by the \
                     workload it routes, e.g. \"fleet:hosts=4,lb=warmth+serve:rate=500\""
                .into(),
        }),
        "server" => {
            let member = require_member(&p, input)?;
            let mut c: Option<u32> = None;
            for (k, v) in &p.params {
                match k.as_str() {
                    "c" => c = Some(parse_u32(k, v)?),
                    _ => return Err(unknown_param(&format!("server:{member}"), k, &["c"])),
                }
            }
            let kind = match member.as_str() {
                "nginx" | "apache" => {
                    let c = c.ok_or_else(|| ScenarioError::MalformedSpec {
                        spec: input.trim().to_string(),
                        reason: format!("server:{member} requires c=<concurrency>"),
                    })?;
                    if member == "nginx" {
                        ServerKind::Nginx(c)
                    } else {
                        ServerKind::Apache(c)
                    }
                }
                "leveldb" | "redis" => {
                    if c.is_some() {
                        return Err(unknown_param(&format!("server:{member}"), "c", &[]));
                    }
                    if member == "leveldb" {
                        ServerKind::Leveldb
                    } else {
                        ServerKind::Redis
                    }
                }
                _ => return Err(unknown_member("server test", &member, "server")),
            };
            Ok(WorkloadSpec::Server(kind))
        }
        _ => Err(ScenarioError::UnknownEntry {
            kind: "workload suite",
            name: p.head,
            valid: workload_suites().iter().map(|k| k.to_string()).collect(),
        }),
    }
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
    if p.member.is_some() {
        return Err(malformed(
            "fleet has no members (parameters are key=value)".into(),
        ));
    }
    let spec = FleetSpec::from_params(&p.params).map_err(|e| malformed(e.to_string()))?;
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

fn push_if_ne_f64(parts: &mut Vec<String>, key: &str, v: f64, base: f64) {
    if v != base {
        parts.push(format!("{key}={}", fmt_f64(v)));
    }
}

fn push_if_ne_u32(parts: &mut Vec<String>, key: &str, v: u32, base: u32) {
    if v != base {
        parts.push(format!("{key}={v}"));
    }
}

fn render(head: String, parts: Vec<String>) -> String {
    if parts.is_empty() {
        head
    } else {
        format!("{head},{}", parts.join(","))
    }
}

/// Like [`render`], but for the member-less suites, whose first knob
/// attaches with `:` rather than `,`.
fn render_bare(head: &str, parts: Vec<String>) -> String {
    if parts.is_empty() {
        head.to_string()
    } else {
        format!("{head}:{}", parts.join(","))
    }
}

impl WorkloadSpec {
    /// The canonical spec string: suite key, member, and only the knobs
    /// that differ from the member/suite base, in declaration order.
    pub fn canonical(&self) -> String {
        match self {
            WorkloadSpec::Configure(s) => {
                let base = configure::by_name(s.name).expect("member came from the registry");
                let mut parts = Vec::new();
                push_if_ne_u32(&mut parts, "tests", s.n_tests, base.n_tests);
                push_if_ne_f64(&mut parts, "shell_ms", s.shell_ms, base.shell_ms);
                push_if_ne_f64(&mut parts, "test_ms", s.test_ms, base.test_ms);
                push_if_ne_f64(&mut parts, "jitter", s.jitter, base.jitter);
                push_if_ne_f64(&mut parts, "chain_prob", s.chain_prob, base.chain_prob);
                push_if_ne_f64(&mut parts, "burst_prob", s.burst_prob, base.burst_prob);
                render(format!("configure:{}", s.name), parts)
            }
            WorkloadSpec::Dacapo(s) => {
                let base = dacapo::by_name(s.name).expect("member came from the registry");
                let mut parts = Vec::new();
                push_if_ne_u32(&mut parts, "workers", s.workers, base.workers);
                push_if_ne_f64(&mut parts, "chunk_ms", s.chunk_ms, base.chunk_ms);
                push_if_ne_f64(&mut parts, "sleep_ms", s.sleep_ms, base.sleep_ms);
                push_if_ne_f64(
                    &mut parts,
                    "work_ms",
                    s.work_per_worker_ms,
                    base.work_per_worker_ms,
                );
                push_if_ne_u32(
                    &mut parts,
                    "bg",
                    s.background_threads,
                    base.background_threads,
                );
                push_if_ne_f64(&mut parts, "jitter", s.jitter, base.jitter);
                push_if_ne_u32(
                    &mut parts,
                    "burst_chunks",
                    s.burst_chunks,
                    base.burst_chunks,
                );
                push_if_ne_u32(&mut parts, "tokens", s.queue_tokens, base.queue_tokens);
                render(format!("dacapo:{}", s.name), parts)
            }
            WorkloadSpec::Nas(s) => {
                let base = nas::by_name(s.name).expect("member came from the registry");
                let mut parts = Vec::new();
                push_if_ne_u32(&mut parts, "iters", s.iterations, base.iterations);
                push_if_ne_f64(
                    &mut parts,
                    "chunk_ms",
                    s.chunk_ms_at_64,
                    base.chunk_ms_at_64,
                );
                push_if_ne_f64(&mut parts, "jitter", s.jitter, base.jitter);
                push_if_ne_f64(&mut parts, "setup_ms", s.setup_ms, base.setup_ms);
                render(format!("nas:{}", s.name), parts)
            }
            WorkloadSpec::Phoronix(s) => format!("phoronix:{}", s.name),
            WorkloadSpec::Hackbench(s) => {
                let base = HackbenchSpec::default();
                let mut parts = Vec::new();
                push_if_ne_u32(&mut parts, "g", s.groups, base.groups);
                push_if_ne_u32(&mut parts, "fan", s.fan, base.fan);
                push_if_ne_u32(&mut parts, "loops", s.loops, base.loops);
                if s.msg_cycles != base.msg_cycles {
                    parts.push(format!("msg_cycles={}", s.msg_cycles));
                }
                render_bare("hackbench", parts)
            }
            WorkloadSpec::Schbench(s) => {
                let base = SchbenchSpec::default();
                let mut parts = Vec::new();
                push_if_ne_u32(&mut parts, "mt", s.message_threads, base.message_threads);
                push_if_ne_u32(
                    &mut parts,
                    "w",
                    s.workers_per_message,
                    base.workers_per_message,
                );
                push_if_ne_u32(
                    &mut parts,
                    "requests",
                    s.requests_per_worker,
                    base.requests_per_worker,
                );
                push_if_ne_f64(&mut parts, "think_ms", s.think_ms, base.think_ms);
                render_bare("schbench", parts)
            }
            WorkloadSpec::Serve(s) => {
                let base = ServeSpec::default();
                let mut parts = Vec::new();
                push_if_ne_f64(&mut parts, "rate", s.rate, base.rate);
                push_if_ne_u32(&mut parts, "requests", s.requests, base.requests);
                if s.dist != base.dist {
                    parts.push(format!("dist={}", s.dist.key()));
                }
                push_if_ne_f64(&mut parts, "service", s.service_ms, base.service_ms);
                push_if_ne_f64(&mut parts, "sigma", s.sigma, base.sigma);
                push_if_ne_f64(&mut parts, "heavy", s.heavy_ms, base.heavy_ms);
                push_if_ne_f64(&mut parts, "p_heavy", s.p_heavy, base.p_heavy);
                push_if_ne_u32(&mut parts, "fanout", s.fanout, base.fanout);
                if s.arrival != base.arrival {
                    parts.push(format!("arrival={}", s.arrival.key()));
                }
                push_if_ne_f64(&mut parts, "burst", s.burst, base.burst);
                push_if_ne_f64(&mut parts, "on", s.on_ms, base.on_ms);
                push_if_ne_f64(&mut parts, "off", s.off_ms, base.off_ms);
                push_if_ne_f64(&mut parts, "ramp", s.ramp_s, base.ramp_s);
                push_if_ne_f64(&mut parts, "amp", s.amp, base.amp);
                if s.slo_ns != base.slo_ns {
                    parts.push(format!("slo={}", format_duration(s.slo_ns)));
                }
                render_bare("serve", parts)
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
                format!("{}+{}", f.canonical(), inner.canonical())
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
