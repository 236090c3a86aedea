//! `fig_scale`: engine throughput and decision quality as the machine
//! grows from 256 to 1024 cores.
//!
//! Sweeps synthetic multi-CCX machines (PR 8's `synth:` presets) crossed
//! with the three policies plus the domain-local Nest variant
//! (`nest:domain=ccx`), under schedutil, on a schbench load scaled to the
//! core count. Two outputs per cell:
//!
//! * **decision quality** (deterministic, main artifact): wakeup-latency
//!   mean, migrations/s split into cross-CCX and cross-socket rates, and
//!   the mean busiest-CCX nest occupancy — the numbers that must stay flat
//!   (or improve) as the scan structures shard by domain;
//! * **throughput** (nondeterministic, printed only): wall seconds and
//!   simulated events/s. Wall-clock regressions are gated by `perfbench`
//!   (its `scale_1024` workload), not by this binary.
//!
//! Quick mode (`NEST_QUICK=1`) restricts to the 256-core machine.

use std::time::Instant;

use nest_bench::{banner, metric_row, quick, seed};
use nest_core::{run_once, SimConfig};
use nest_harness::json::obj;
use nest_harness::{Artifact, Json};
use nest_simcore::profile;

/// `(machine, workload)` pairs: the schbench load scales with the core
/// count so every size runs at comparable per-core pressure.
fn sweep() -> Vec<(&'static str, &'static str)> {
    let all = vec![
        (
            "synth:sockets=4,ccx=8,cores=8,numa=ring",
            "schbench:mt=16,w=15,requests=50",
        ),
        (
            "synth:sockets=4,ccx=8,cores=16,numa=ring",
            "schbench:mt=32,w=15,requests=50",
        ),
        (
            "synth:sockets=8,ccx=8,cores=16,numa=ring",
            "schbench:mt=64,w=15,requests=50",
        ),
    ];
    if quick() {
        all[..1].to_vec()
    } else {
        all
    }
}

const POLICIES: [&str; 4] = ["cfs", "nest", "smove", "nest:domain=ccx"];

struct Cell {
    machine: String,
    n_cores: usize,
    policy: String,
    workload: String,
    // Deterministic decision-quality numbers.
    sim_s: f64,
    latency_mean_us: Option<f64>,
    migrations_per_sec: Option<f64>,
    cross_ccx_per_sec: Option<f64>,
    cross_socket_per_sec: Option<f64>,
    busiest_ccx_nest: f64,
    // Nondeterministic throughput numbers.
    wall_s: f64,
    events_per_sec: f64,
}

fn run_cell(machine_str: &str, policy_str: &str, workload_str: &str) -> Cell {
    let machine = nest_scenario::machine(machine_str).expect("figure machines parse");
    let policy = nest_scenario::policy(policy_str).expect("figure policies are registered");
    let governor = nest_scenario::governor("schedutil").expect("schedutil is registered");
    let workload = nest_scenario::parse_workload(workload_str).expect("figure workloads parse");
    let n_cores = machine.n_cores();
    let cfg = SimConfig::new(machine)
        .policy(policy)
        .governor(governor)
        .seed(seed());

    let events_before = profile::events_total();
    let started = Instant::now();
    let r = run_once(&cfg, &*workload.build());
    let wall_s = started.elapsed().as_secs_f64();
    let events_total = profile::events_total() - events_before;

    let d = &r.decision;
    let busiest_ccx_nest = (0..d.nest_ccx_primary_ns.len())
        .filter_map(|cx| d.mean_nest_primary_in_ccx(cx))
        .fold(0.0, f64::max);
    Cell {
        machine: machine_str.to_string(),
        n_cores,
        policy: policy_str.to_string(),
        workload: workload_str.to_string(),
        sim_s: r.time_s,
        latency_mean_us: d.mean_latency_ns().map(|ns| ns / 1e3),
        migrations_per_sec: d.migrations_per_sec(),
        cross_ccx_per_sec: d.cross_ccx_migrations_per_sec(),
        cross_socket_per_sec: d.cross_socket_migrations_per_sec(),
        busiest_ccx_nest,
        wall_s,
        events_per_sec: if wall_s > 0.0 {
            events_total as f64 / wall_s
        } else {
            0.0
        },
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |x| format!("{x:.1}"))
}

fn main() {
    banner(
        "Figure scale",
        "throughput and decision quality, 256-1024 synthetic cores",
    );
    let mut cells = Vec::new();
    for (machine, workload) in sweep() {
        println!("\n### {machine} ({workload})");
        println!(
            "{}",
            metric_row(
                "policy",
                &[
                    "events/s".to_string(),
                    "wall s".to_string(),
                    "lat us".to_string(),
                    "migr/s".to_string(),
                    "xccx/s".to_string(),
                    "xsock/s".to_string(),
                    "ccx nest".to_string(),
                ],
            )
        );
        for policy in POLICIES {
            let c = run_cell(machine, policy, workload);
            println!(
                "{}",
                metric_row(
                    policy,
                    &[
                        format!("{:.0}", c.events_per_sec),
                        format!("{:.2}", c.wall_s),
                        fmt_opt(c.latency_mean_us),
                        fmt_opt(c.migrations_per_sec),
                        fmt_opt(c.cross_ccx_per_sec),
                        fmt_opt(c.cross_socket_per_sec),
                        format!("{:.2}", c.busiest_ccx_nest),
                    ],
                )
            );
            cells.push(c);
        }
    }
    println!("\nExpected shape: events/s degrades sublinearly with core count");
    println!("(no O(n_cores) decision paths), and nest:domain=ccx keeps");
    println!("cross-CCX migration rates below machine-global nest.");

    // Deterministic decision-quality artifact.
    let mut a = Artifact::new("fig_scale", seed());
    a.push("quick", Json::Bool(quick()));
    a.push(
        "cells",
        Json::Arr(
            cells
                .iter()
                .map(|c| {
                    obj(vec![
                        ("machine", Json::str(&c.machine)),
                        ("n_cores", Json::usize(c.n_cores)),
                        ("policy", Json::str(&c.policy)),
                        ("workload", Json::str(&c.workload)),
                        ("sim_s", Json::f64(c.sim_s)),
                        ("latency_mean_us", Json::opt_f64(c.latency_mean_us)),
                        ("migrations_per_sec", Json::opt_f64(c.migrations_per_sec)),
                        ("cross_ccx_per_sec", Json::opt_f64(c.cross_ccx_per_sec)),
                        (
                            "cross_socket_per_sec",
                            Json::opt_f64(c.cross_socket_per_sec),
                        ),
                        ("busiest_ccx_nest", Json::f64(c.busiest_ccx_nest)),
                    ])
                })
                .collect(),
        ),
    );
    match a.write() {
        Ok(path) => println!("\nartifact: {}", path.display()),
        Err(e) => eprintln!("warning: could not write fig_scale artifact: {e}"),
    }
}
