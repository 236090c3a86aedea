//! The spelling of every registry knob, pinned.
//!
//! Canonical spec strings are byte-critical: they are cache keys,
//! snapshot identities and [`Scenario::identity`] parts, and several
//! feed seed derivation. Most knobs appear in no golden artifact, so
//! [`every_knob_keeps_its_spelling`] is the check that their canonical
//! forms do not drift: one row per knob of every policy, workload, fleet
//! and synthetic-machine table.
//!
//! [`canonical_round_trips_over_every_table`] draws random knob subsets
//! at random valid values, in random order, and checks that
//! canonicalization is idempotent, order-insensitive and lossless, and
//! that default values elide.
//!
//! [`Scenario::identity`]: nest_scenario::Scenario::identity

use std::panic::{self, AssertUnwindSafe};

use nest_core::PolicyKind;
use nest_scenario::{
    canonical_machine, canonical_policy, canonical_workload, machine, parse_workload, policy,
    policy_entries, workload_entries,
};
use nest_simcore::rng::mix64;
use nest_simcore::SimRng;

/// Canonicalizes a policy, workload or `synth:` machine spec.
fn canon(spec: &str) -> String {
    let head = spec.split([':', ',', '+']).next().unwrap();
    match head {
        "cfs" | "nest" | "smove" => canonical_policy(spec),
        "synth" => canonical_machine(spec),
        _ => canonical_workload(spec),
    }
    .unwrap_or_else(|e| panic!("{spec}: {e}"))
}

/// One knob: a spec setting it to a non-default value, that spec's
/// canonical string, and (for knobs that have a default) a spec setting
/// it to its default, which must canonicalize to the bare spec.
type Pin = (&'static str, &'static str, Option<&'static str>);

/// The bare spec of each table, then one row per knob.
const PINS: &[(&str, &[Pin])] = &[
    (
        "cfs",
        &[
            (
                "cfs:scan_budget=2",
                "cfs:scan_budget=2",
                Some("cfs:scan_budget=8"),
            ),
            (
                "cfs:die_ticks=8",
                "cfs:die_ticks=8",
                Some("cfs:die_ticks=4"),
            ),
            (
                "cfs:numa_ticks=64",
                "cfs:numa_ticks=64",
                Some("cfs:numa_ticks=32"),
            ),
        ],
    ),
    (
        "nest",
        &[
            (
                "nest:p_remove=4",
                "nest:p_remove=4",
                Some("nest:p_remove=2"),
            ),
            ("nest:r_max=3", "nest:r_max=3", Some("nest:r_max=5")),
            (
                "nest:r_impatient=3",
                "nest:r_impatient=3",
                Some("nest:r_impatient=2"),
            ),
            ("nest:s_max=4", "nest:s_max=4", Some("nest:s_max=2")),
            ("nest:anchor=5", "nest:anchor=5", Some("nest:anchor=0")),
            (
                "nest:domain=ccx",
                "nest:domain=ccx",
                Some("nest:domain=machine"),
            ),
            (
                "nest:reserve=off",
                "nest:reserve=off",
                Some("nest:reserve=on"),
            ),
            (
                "nest:compaction=0",
                "nest:compaction=off",
                Some("nest:compaction=1"),
            ),
            ("nest:spin=false", "nest:spin=off", Some("nest:spin=true")),
            (
                "nest:attachment=OFF",
                "nest:attachment=off",
                Some("nest:attachment=ON"),
            ),
            ("nest:wwc=off", "nest:wwc=off", Some("nest:wwc=on")),
            (
                "nest:resflag=off",
                "nest:resflag=off",
                Some("nest:resflag=on"),
            ),
        ],
    ),
    (
        "smove",
        &[
            (
                "smove:delay_ns=200000",
                "smove:delay_ns=200000",
                Some("smove:delay_ns=100000"),
            ),
            (
                "smove:low_freq=0.90",
                "smove:low_freq=0.9",
                Some("smove:low_freq=1"),
            ),
        ],
    ),
    (
        "configure:gdb",
        &[
            (
                "configure:gdb,tests=40",
                "configure:gdb,tests=40",
                Some("configure:gdb,tests=80"),
            ),
            (
                "configure:gdb,shell_ms=1.5",
                "configure:gdb,shell_ms=1.5",
                Some("configure:gdb,shell_ms=0.6"),
            ),
            (
                "configure:gdb,test_ms=20.0",
                "configure:gdb,test_ms=20",
                Some("configure:gdb,test_ms=12"),
            ),
            (
                "configure:gdb,jitter=0.50",
                "configure:gdb,jitter=0.5",
                Some("configure:gdb,jitter=0.6"),
            ),
            (
                "configure:gdb,chain_prob=0.25",
                "configure:gdb,chain_prob=0.25",
                Some("configure:gdb,chain_prob=0.3"),
            ),
            (
                "configure:gdb,burst_prob=0.1",
                "configure:gdb,burst_prob=0.1",
                Some("configure:gdb,burst_prob=0.08"),
            ),
        ],
    ),
    (
        "dacapo:h2",
        &[
            (
                "dacapo:h2,workers=8",
                "dacapo:h2,workers=8",
                Some("dacapo:h2,workers=24"),
            ),
            (
                "dacapo:h2,chunk_ms=1.25",
                "dacapo:h2,chunk_ms=1.25",
                Some("dacapo:h2,chunk_ms=0.8"),
            ),
            (
                "dacapo:h2,sleep_ms=2",
                "dacapo:h2,sleep_ms=2",
                Some("dacapo:h2,sleep_ms=0"),
            ),
            (
                "dacapo:h2,work_ms=1500",
                "dacapo:h2,work_ms=1500",
                Some("dacapo:h2,work_ms=3000.0"),
            ),
            ("dacapo:h2,bg=4", "dacapo:h2,bg=4", Some("dacapo:h2,bg=2")),
            (
                "dacapo:h2,jitter=0.25",
                "dacapo:h2,jitter=0.25",
                Some("dacapo:h2,jitter=0.5"),
            ),
            (
                "dacapo:h2,burst_chunks=2",
                "dacapo:h2,burst_chunks=2",
                Some("dacapo:h2,burst_chunks=4"),
            ),
            (
                "dacapo:h2,tokens=16",
                "dacapo:h2,tokens=16",
                Some("dacapo:h2,tokens=8"),
            ),
        ],
    ),
    (
        "nas:bt.C.x",
        &[
            (
                "nas:bt.C.x,iters=3",
                "nas:bt.C.x,iters=3",
                Some("nas:bt.C.x,iters=3200"),
            ),
            (
                "nas:bt.C.x,chunk_ms=4.5",
                "nas:bt.C.x,chunk_ms=4.5",
                Some("nas:bt.C.x,chunk_ms=9.5"),
            ),
            (
                "nas:bt.C.x,jitter=0.1",
                "nas:bt.C.x,jitter=0.1",
                Some("nas:bt.C.x,jitter=0.04"),
            ),
            (
                "nas:bt.C.x,setup_ms=60",
                "nas:bt.C.x,setup_ms=60",
                Some("nas:bt.C.x,setup_ms=120"),
            ),
        ],
    ),
    (
        "hackbench",
        &[
            ("hackbench:g=4", "hackbench:g=4", Some("hackbench:g=16")),
            (
                "hackbench:fan=5",
                "hackbench:fan=5",
                Some("hackbench:fan=10"),
            ),
            (
                "hackbench:loops=200",
                "hackbench:loops=200",
                Some("hackbench:loops=1000"),
            ),
            (
                "hackbench:msg_cycles=60000",
                "hackbench:msg_cycles=60000",
                Some("hackbench:msg_cycles=30000"),
            ),
        ],
    ),
    (
        "schbench",
        &[
            ("schbench:mt=4", "schbench:mt=4", Some("schbench:mt=8")),
            ("schbench:w=4", "schbench:w=4", Some("schbench:w=8")),
            (
                "schbench:requests=20",
                "schbench:requests=20",
                Some("schbench:requests=50"),
            ),
            (
                "schbench:think_ms=1.5",
                "schbench:think_ms=1.5",
                Some("schbench:think_ms=3"),
            ),
        ],
    ),
    (
        "serve",
        &[
            ("serve:rate=500", "serve:rate=500", Some("serve:rate=200")),
            (
                "serve:requests=300",
                "serve:requests=300",
                Some("serve:requests=2000"),
            ),
            (
                "serve:dist=lognorm",
                "serve:dist=lognorm",
                Some("serve:dist=exp"),
            ),
            (
                "serve:service=0.5",
                "serve:service=0.5",
                Some("serve:service=1"),
            ),
            (
                "serve:sigma=0.8",
                "serve:sigma=0.8",
                Some("serve:sigma=0.5"),
            ),
            ("serve:heavy=20", "serve:heavy=20", Some("serve:heavy=10")),
            (
                "serve:p_heavy=0.1",
                "serve:p_heavy=0.1",
                Some("serve:p_heavy=0.05"),
            ),
            ("serve:fanout=4", "serve:fanout=4", Some("serve:fanout=0")),
            (
                "serve:arrival=onoff",
                "serve:arrival=onoff",
                Some("serve:arrival=poisson"),
            ),
            ("serve:burst=12", "serve:burst=12", Some("serve:burst=8")),
            ("serve:on=20", "serve:on=20", Some("serve:on=50")),
            ("serve:off=100", "serve:off=100", Some("serve:off=200")),
            ("serve:ramp=2", "serve:ramp=2", Some("serve:ramp=0")),
            ("serve:amp=0.25", "serve:amp=0.25", Some("serve:amp=0.5")),
            (
                "serve:slo=4000us",
                "serve:slo=4ms",
                Some("serve:slo=2000us"),
            ),
        ],
    ),
    (
        "fleet+serve",
        &[
            (
                "fleet:hosts=4+serve",
                "fleet:hosts=4+serve",
                Some("fleet:hosts=2+serve"),
            ),
            (
                "fleet:lb=warmth+serve",
                "fleet:lb=warmth+serve",
                Some("fleet:lb=rr+serve"),
            ),
            (
                "fleet:retry=2+serve",
                "fleet:retry=2+serve",
                Some("fleet:retry=1+serve"),
            ),
            (
                "fleet:timeout=100000us+serve",
                "fleet:timeout=100ms+serve",
                Some("fleet:timeout=50ms+serve"),
            ),
            (
                "fleet:backoff=2ms+serve",
                "fleet:backoff=2ms+serve",
                Some("fleet:backoff=1000us+serve"),
            ),
            (
                "fleet:cap=40ms+serve",
                "fleet:cap=40ms+serve",
                Some("fleet:cap=20ms+serve"),
            ),
            (
                "fleet:hedge=10000us+serve",
                "fleet:hedge=10ms+serve",
                Some("fleet:hedge=off+serve"),
            ),
            (
                "fleet:shed=on+serve",
                "fleet:shed=on+serve",
                Some("fleet:shed=off+serve"),
            ),
            (
                "fleet:hostdown=1@250000us:250ms+serve",
                "fleet:hostdown=1@250ms:250ms+serve",
                None,
            ),
            (
                "fleet:degrade=h1:0.50@200ms:300ms+serve",
                "fleet:degrade=h1:0.5@200ms:300ms+serve",
                None,
            ),
        ],
    ),
    (
        "synth:sockets=1,ccx=1,cores=1",
        &[
            (
                "synth:ccx=1,cores=1,sockets=4",
                "synth:sockets=4,ccx=1,cores=1",
                None,
            ),
            (
                "synth:cores=1,ccx=8,sockets=1",
                "synth:sockets=1,ccx=8,cores=1",
                None,
            ),
            (
                "synth:sockets=1,cores=16,ccx=1",
                "synth:sockets=1,ccx=1,cores=16",
                None,
            ),
            (
                "synth:sockets=1,ccx=1,cores=1,smt=2",
                "synth:sockets=1,ccx=1,cores=1,smt=2",
                Some("synth:sockets=1,ccx=1,cores=1,smt=1"),
            ),
            (
                "synth:sockets=1,ccx=1,cores=1,numa=ring",
                "synth:sockets=1,ccx=1,cores=1,numa=ring",
                Some("synth:sockets=1,ccx=1,cores=1,numa=flat"),
            ),
        ],
    ),
];

#[test]
fn every_knob_keeps_its_spelling() {
    let rows: usize = PINS.iter().map(|(_, rows)| rows.len()).sum();
    assert_eq!(rows, 73, "one row per knob");
    for (bare, rows) in PINS {
        assert_eq!(canon(bare), *bare);
        for (input, canonical, default) in *rows {
            assert_eq!(canon(input), *canonical, "{input}");
            assert_eq!(canon(canonical), *canonical, "{canonical} is a fixed point");
            if let Some(default) = default {
                assert_eq!(canon(default), *bare, "{default} elides");
            }
        }
    }
}

#[test]
fn registry_listings_are_pinned() {
    let lines = |entries: Vec<(&str, String)>| -> Vec<String> {
        entries.iter().map(|(k, s)| format!("{k}: {s}")).collect()
    };
    assert_eq!(
        lines(policy_entries()),
        [
            "cfs: Linux CFS baseline (§2.1); parameters: scan_budget, die_ticks, numa_ticks",
            "nest: the Nest scheduler (§3, Table 1 defaults); parameters: p_remove, r_max, \
             r_impatient, s_max, anchor, domain, reserve, compaction, spin, attachment, wwc, \
             resflag",
            "smove: the Smove baseline (§2.2); parameters: delay_ns, low_freq",
        ]
    );
    assert_eq!(
        lines(workload_entries()),
        [
            "configure: software-configuration scripts (§5.2); members: erlang, ffmpeg, gcc, \
             gdb, imagemagick, linux, llvm_ninja, llvm_unix, mplayer, nodejs, php; knobs: \
             tests, shell_ms, test_ms, jitter, chain_prob, burst_prob",
            "dacapo: DaCapo Java applications (§5.3); members: avrora, batik-eval, \
             biojava-eval, eclipse-eval, fop, jme-eval, jython, kafka-eval, luindex, \
             tradesoap-eval, cassandra-eval, graphchi-eval, h2, lusearch, lusearch-fix, pmd, \
             sunflow, tomcat-eval, tradebeans, xalan, zxing-eval; knobs: workers, chunk_ms, \
             sleep_ms, work_ms, bg, jitter, burst_chunks, tokens",
            "nas: NAS Parallel Benchmarks (§5.4); members: bt.C.x, cg.C.x, ep.C.x, ft.C.x, \
             is.C.x, lu.C.x, mg.C.x, sp.C.x, ua.C.x; knobs: iters, chunk_ms, jitter, setup_ms",
            "phoronix: Figure 13 / Table 5 multicore tests (§5.5), no knobs; members: \
             arrayfire 2, arrayfire 3, askap 5, cassandra 1, cpuminer-opt 6, cpuminer-opt 7, \
             cpuminer-opt 8, cpuminer-opt 9, cpuminer-opt 11, ffmpeg 1, graphics-magick 4, \
             libavif avifenc 1, libgav1 1, libgav1 2, libgav1 3, libgav1 4, oidn 1, oidn 2, \
             oidn 3, onednn 4, onednn 5, onednn 7, onednn 11, onednn 14, rodinia 5, \
             zstd compression 7, zstd compression 10",
            "hackbench: scheduler message-churn stress (§5.6); knobs: g, fan, loops, msg_cycles",
            "schbench: wakeup-latency microbenchmark (§5.6); knobs: mt, w, requests, think_ms",
            "serve: open-loop request serving with a tail-latency/SLO lens; knobs: rate, \
             requests, dist, service, sigma, heavy, p_heavy, fanout, arrival, burst, on, off, \
             ramp, amp, slo",
            "server: request/worker server tests (§5.6); members: nginx, apache (knob: c), \
             leveldb, redis",
            "fleet: multi-host front-end prefix (fleet:<knobs>+<workload with serve parts>); \
             knobs: hosts, lb (rr|leastq|warmth), retry, timeout, backoff, cap, hedge \
             (off|p95|<dur>), shed, hostdown=K@T[:D], degrade=hK:F@T[:D]",
        ]
    );
}

// ---------------------------------------------------------------------
// Seeded round-trip property over every table.
// ---------------------------------------------------------------------

const SEED: u64 = 0x5EED_0021;
const CASES: u64 = 256;

/// How to draw a valid value for one knob.
#[derive(Clone, Copy, Debug)]
enum Draw {
    /// An integer in `lo..=hi`.
    Int(u64, u64),
    /// A number in `lo/100..=hi/100`, spelled with or without padding.
    Real(u64, u64),
    /// A boolean in any accepted spelling.
    Bool,
    /// A duration in `lo..=hi` milliseconds, spelled in `ms` or `us`.
    Ms(u64, u64),
    /// One of the listed spellings.
    Pick(&'static [&'static str]),
}

/// One knob: key, a spelling of its default (`None` when it has none),
/// and how to draw a valid value.
type Gen = (&'static str, Option<&'static str>, Draw);

/// A knob table as the property sees it: specs are written
/// `head[lead knobs…]tail`, and the first `required` knobs are always set.
struct Table {
    head: &'static str,
    lead: char,
    tail: &'static str,
    required: usize,
    knobs: &'static [Gen],
}

const ONOFF: Draw = Draw::Bool;

const TABLES: &[Table] = &[
    Table {
        head: "cfs",
        lead: ':',
        tail: "",
        required: 0,
        knobs: &[
            ("scan_budget", Some("8"), Draw::Int(0, 64)),
            ("die_ticks", Some("4"), Draw::Int(1, 64)),
            ("numa_ticks", Some("32"), Draw::Int(1, 256)),
        ],
    },
    Table {
        head: "nest",
        lead: ':',
        tail: "",
        required: 0,
        knobs: &[
            ("p_remove", Some("2"), Draw::Int(0, 16)),
            ("r_max", Some("5"), Draw::Int(0, 16)),
            ("r_impatient", Some("2"), Draw::Int(0, 8)),
            ("s_max", Some("2"), Draw::Int(0, 8)),
            ("anchor", Some("0"), Draw::Int(0, 63)),
            ("domain", Some("machine"), Draw::Pick(&["machine", "ccx"])),
            ("reserve", Some("on"), ONOFF),
            ("compaction", Some("true"), ONOFF),
            ("spin", Some("1"), ONOFF),
            ("attachment", Some("ON"), ONOFF),
            ("wwc", Some("on"), ONOFF),
            ("resflag", Some("on"), ONOFF),
        ],
    },
    Table {
        head: "smove",
        lead: ':',
        tail: "",
        required: 0,
        knobs: &[
            ("delay_ns", Some("100000"), Draw::Int(0, 1_000_000)),
            ("low_freq", Some("1.0"), Draw::Real(1, 100)),
        ],
    },
    Table {
        head: "configure:gdb",
        lead: ',',
        tail: "",
        required: 0,
        knobs: &[
            ("tests", Some("80"), Draw::Int(1, 500)),
            ("shell_ms", Some("0.6"), Draw::Real(1, 500)),
            ("test_ms", Some("12"), Draw::Real(1, 5000)),
            ("jitter", Some("0.60"), Draw::Real(0, 100)),
            ("chain_prob", Some("0.3"), Draw::Real(0, 100)),
            ("burst_prob", Some("0.08"), Draw::Real(0, 100)),
        ],
    },
    Table {
        head: "dacapo:h2",
        lead: ',',
        tail: "",
        required: 0,
        knobs: &[
            ("workers", Some("24"), Draw::Int(1, 64)),
            ("chunk_ms", Some("0.8"), Draw::Real(1, 500)),
            ("sleep_ms", Some("0"), Draw::Real(0, 500)),
            ("work_ms", Some("3000"), Draw::Real(100, 500_000)),
            ("bg", Some("2"), Draw::Int(0, 8)),
            ("jitter", Some("0.5"), Draw::Real(0, 100)),
            ("burst_chunks", Some("4"), Draw::Int(1, 16)),
            ("tokens", Some("8"), Draw::Int(1, 32)),
        ],
    },
    Table {
        head: "nas:bt.C.x",
        lead: ',',
        tail: "",
        required: 0,
        knobs: &[
            ("iters", Some("3200"), Draw::Int(1, 5000)),
            ("chunk_ms", Some("9.5"), Draw::Real(1, 2000)),
            ("jitter", Some("0.04"), Draw::Real(0, 50)),
            ("setup_ms", Some("120"), Draw::Real(0, 50_000)),
        ],
    },
    Table {
        head: "hackbench",
        lead: ':',
        tail: "",
        required: 0,
        knobs: &[
            ("g", Some("16"), Draw::Int(1, 64)),
            ("fan", Some("10"), Draw::Int(1, 40)),
            ("loops", Some("1000"), Draw::Int(1, 5000)),
            ("msg_cycles", Some("30000"), Draw::Int(1, 1_000_000)),
        ],
    },
    Table {
        head: "schbench",
        lead: ':',
        tail: "",
        required: 0,
        knobs: &[
            ("mt", Some("8"), Draw::Int(1, 16)),
            ("w", Some("8"), Draw::Int(1, 16)),
            ("requests", Some("50"), Draw::Int(1, 200)),
            ("think_ms", Some("3"), Draw::Real(0, 1000)),
        ],
    },
    Table {
        head: "serve",
        lead: ':',
        tail: "",
        required: 0,
        knobs: &[
            ("rate", Some("200"), Draw::Real(100, 100_000)),
            ("requests", Some("2000"), Draw::Int(1, 5000)),
            (
                "dist",
                Some("exp"),
                Draw::Pick(&["det", "exp", "lognorm", "bimodal"]),
            ),
            ("service", Some("1"), Draw::Real(1, 500)),
            ("sigma", Some("0.5"), Draw::Real(1, 200)),
            ("heavy", Some("10"), Draw::Real(1, 5000)),
            ("p_heavy", Some("0.05"), Draw::Real(0, 100)),
            ("fanout", Some("0"), Draw::Int(0, 8)),
            (
                "arrival",
                Some("poisson"),
                Draw::Pick(&["poisson", "onoff"]),
            ),
            ("burst", Some("8"), Draw::Real(100, 2000)),
            ("on", Some("50"), Draw::Real(1, 10_000)),
            ("off", Some("200"), Draw::Real(1, 10_000)),
            ("ramp", Some("0"), Draw::Real(0, 1000)),
            ("amp", Some("0.5"), Draw::Real(0, 99)),
            ("slo", Some("2ms"), Draw::Ms(1, 100)),
        ],
    },
    Table {
        head: "fleet",
        lead: ':',
        tail: "+serve",
        required: 0,
        knobs: &[
            ("hosts", Some("2"), Draw::Int(2, 16)),
            ("lb", Some("rr"), Draw::Pick(&["rr", "leastq", "warmth"])),
            ("retry", Some("1"), Draw::Int(0, 10)),
            ("timeout", Some("50ms"), Draw::Ms(1, 200)),
            ("backoff", Some("1000us"), Draw::Ms(1, 5)),
            ("cap", Some("20ms"), Draw::Ms(20, 100)),
            (
                "hedge",
                Some("off"),
                Draw::Pick(&["off", "p95", "10ms", "2500us"]),
            ),
            ("shed", Some("off"), ONOFF),
            (
                "hostdown",
                None,
                Draw::Pick(&["1@250ms:250ms", "1@40ms", "1@0ns:3s"]),
            ),
            (
                "degrade",
                None,
                Draw::Pick(&[
                    "h1:0.5@200ms:300ms",
                    "h0:1@0ns",
                    "h1:0.25@1s;h0:0.75@10ms:20ms",
                ]),
            ),
        ],
    },
    Table {
        head: "synth",
        lead: ':',
        tail: "",
        required: 3,
        knobs: &[
            ("sockets", None, Draw::Int(1, 8)),
            ("ccx", None, Draw::Int(1, 8)),
            ("cores", None, Draw::Int(1, 16)),
            ("smt", Some("1"), Draw::Pick(&["1", "2"])),
            ("numa", Some("flat"), Draw::Pick(&["flat", "ring"])),
        ],
    },
];

fn draw(rng: &mut SimRng, d: Draw) -> String {
    match d {
        Draw::Int(lo, hi) => rng.uniform_u64(lo, hi).to_string(),
        Draw::Real(lo, hi) => {
            let v = rng.uniform_u64(lo, hi) as f64 / 100.0;
            if rng.chance(0.5) {
                format!("{v}")
            } else {
                format!("{v:.3}")
            }
        }
        Draw::Bool => {
            let words = ["on", "off", "true", "false", "1", "0", "ON", "Off"];
            words[rng.uniform_u64(0, 7) as usize].to_string()
        }
        Draw::Ms(lo, hi) => {
            let ms = rng.uniform_u64(lo, hi);
            if rng.chance(0.5) {
                format!("{ms}ms")
            } else {
                format!("{}us", ms * 1000)
            }
        }
        Draw::Pick(words) => words[rng.uniform_u64(0, words.len() as u64 - 1) as usize].to_string(),
    }
}

/// Writes `t`'s spec with the given `key=value` tokens.
fn spell(t: &Table, tokens: &[String]) -> String {
    if tokens.is_empty() {
        format!("{}{}", t.head, t.tail)
    } else {
        format!("{}{}{}{}", t.head, t.lead, tokens.join(","), t.tail)
    }
}

/// The resolved value of a spec, in the form seeds and caches see it.
fn resolved(spec: &str) -> String {
    let head = spec.split([':', ',', '+']).next().unwrap();
    match head {
        "cfs" | "nest" | "smove" => format!("{:?}", policy(spec).unwrap()),
        "synth" => format!("{:?}", machine(spec).unwrap()),
        _ => format!("{:?}", parse_workload(spec).unwrap()),
    }
}

/// The knob keys a canonical string lists.
fn listed_keys(canonical: &str) -> Vec<&str> {
    canonical
        .split([':', ',', '+'])
        .filter_map(|t| t.split_once('=').map(|(k, _)| k))
        .collect()
}

/// One drawn case: for every table, a random subset of its knobs (the
/// required ones always), each at a random valid value or at a spelling
/// of its default, in random order.
#[derive(Debug)]
struct Case {
    /// Per table: the `key=value` tokens and which of them spell defaults.
    specs: Vec<Vec<(String, bool)>>,
}

fn draw_case(rng: &mut SimRng) -> Case {
    let specs = TABLES
        .iter()
        .map(|t| {
            let mut tokens = Vec::new();
            for (i, (key, default, d)) in t.knobs.iter().enumerate() {
                if i >= t.required && rng.chance(0.5) {
                    continue;
                }
                match default {
                    Some(dflt) if rng.chance(0.25) => tokens.push((format!("{key}={dflt}"), true)),
                    _ => tokens.push((format!("{key}={}", draw(rng, *d)), false)),
                }
            }
            rng.shuffle(&mut tokens);
            tokens
        })
        .collect();
    Case { specs }
}

#[test]
fn canonical_round_trips_over_every_table() {
    let generated: usize = TABLES.iter().map(|t| t.knobs.len()).sum();
    assert_eq!(generated, 73, "every knob is drawn");
    for case in 0..CASES {
        let seed = mix64(SEED, case);
        let mut rng = SimRng::new(seed);
        let input = draw_case(&mut rng);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            for (t, tokens) in TABLES.iter().zip(&input.specs) {
                check_table(t, tokens, &mut rng);
            }
        }));
        if result.is_err() {
            panic!("case {case} (seed {seed:#x}) failed on input {input:?}");
        }
    }
}

fn check_table(t: &Table, tokens: &[(String, bool)], rng: &mut SimRng) {
    let all: Vec<String> = tokens.iter().map(|(k, _)| k.clone()).collect();
    let spec = spell(t, &all);
    let canonical = canon(&spec);
    // Idempotent, and a fixed point of the parser.
    assert_eq!(canon(&canonical), canonical, "{spec}");
    assert_eq!(resolved(&canonical), resolved(&spec), "{spec}");
    // Order-insensitive.
    let mut shuffled = all.clone();
    rng.shuffle(&mut shuffled);
    assert_eq!(canon(&spell(t, &shuffled)), canonical, "{spec}");
    // Default-valued knobs elide: they are never listed, and dropping
    // them changes nothing.
    let listed = listed_keys(&canonical);
    let mut non_default = Vec::new();
    for (token, is_default) in tokens {
        let key = token.split_once('=').unwrap().0;
        if *is_default {
            assert!(!listed.contains(&key), "{spec}: {key} is at its default");
        } else {
            non_default.push(token.clone());
        }
    }
    assert_eq!(canon(&spell(t, &non_default)), canonical, "{spec}");
    // Only drawn knobs are listed.
    for key in listed.iter().filter(|k| t.knobs.iter().any(|g| g.0 == **k)) {
        assert!(
            all.iter().any(|tok| tok.starts_with(&format!("{key}="))),
            "{spec}: {key}"
        );
    }
    // A policy whose overrides all equal the defaults is the bare variant.
    if matches!(t.head, "cfs" | "nest" | "smove") {
        let bare = canonical == t.head;
        let kind = policy(&spec).unwrap();
        let is_bare = matches!(kind, PolicyKind::Cfs | PolicyKind::Nest | PolicyKind::Smove);
        assert_eq!(bare, is_bare, "{spec}: {kind:?}");
        if non_default.is_empty() {
            assert!(is_bare, "{spec}");
        }
    }
}
