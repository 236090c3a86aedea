//! Runs every experiment harness in sequence — the one-command
//! reproduction of the paper's evaluation section. Each section's binary
//! can also be run standalone; see DESIGN.md §4 for the index.
//!
//! Respects `NEST_RUNS` / `NEST_QUICK` / `NEST_SEED` / `NEST_JOBS` /
//! `NEST_CACHE` like the individual binaries. Output order follows the
//! paper. A failing section is reported (exit status, elapsed time) and
//! the remaining sections still run; the process exits non-zero if any
//! section failed, with a summary table at the end.
//!
//! The summary table folds in each section's `.telemetry.json` sidecar:
//! simulated events per second (the engine's throughput metric, see
//! EXPERIMENTS.md) and the result-cache hit ratio. Run it with
//! `NEST_CACHE=off NEST_PROFILE=1` to measure fresh-simulation throughput
//! and per-subsystem wall time (see PROFILING.md).

use std::process::Command;
use std::time::Instant;

use nest_harness::{json, results_dir, Json};

const SECTIONS: [&str; 15] = [
    "table23_machines",
    "fig02_trace",
    "fig03_underload_timeline",
    "fig04_underload",
    "fig05_configure_speedup",
    "fig06_configure_freq",
    "fig07_configure_energy",
    "fig08_h2_trace",
    "fig10_dacapo_speedup",
    "fig11_dacapo_freq",
    "fig12_nas_speedup",
    "fig13_phoronix_speedup",
    "table4_overview",
    "ablation",
    "other_apps",
];

struct SectionResult {
    bin: &'static str,
    outcome: Result<(), String>,
    elapsed_s: f64,
    telemetry: Option<SectionTelemetry>,
}

/// The slice of a section's `.telemetry.json` sidecar the summary uses.
struct SectionTelemetry {
    events_total: u64,
    events_per_sec: f64,
    cells_total: u64,
    cells_cached: u64,
    /// Cells whose simulation panicked; the section's harness contained
    /// them and completed the rest, so its results are partial, not gone.
    failed_cells: Vec<String>,
    /// Kernel-state invariant violations counted across the section.
    invariant_violations: u64,
}

fn run(bin: &'static str) -> SectionResult {
    println!("\n################ {bin} ################\n");
    let started = Instant::now();
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join(bin)));
    let outcome = match exe {
        None => Err("could not locate sibling binary".to_string()),
        Some(path) => match Command::new(&path).status() {
            Err(e) => Err(format!("failed to launch: {e}")),
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(match status.code() {
                Some(code) => format!("exit code {code}"),
                None => "terminated by signal".to_string(),
            }),
        },
    };
    SectionResult {
        bin,
        outcome,
        elapsed_s: started.elapsed().as_secs_f64(),
        telemetry: read_section_telemetry(bin),
    }
}

/// Reads the sidecar the section just wrote; `None` when the section does
/// not emit one (or failed before writing it).
fn read_section_telemetry(bin: &str) -> Option<SectionTelemetry> {
    let path = results_dir().join(format!("{bin}.telemetry.json"));
    let root = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let failed_cells = root
        .get("failures")
        .and_then(|j| j.as_arr())
        .map(|arr| {
            arr.iter()
                .filter_map(|f| {
                    let cell = f.get("cell")?.as_str()?;
                    let message = f.get("message")?.as_str()?;
                    Some(format!("{cell}: {message}"))
                })
                .collect()
        })
        .unwrap_or_default();
    let invariant_violations = root
        .get("invariants")
        .and_then(|j| j.get("violations"))
        .and_then(|j| j.as_u64())
        .unwrap_or(0);
    Some(SectionTelemetry {
        events_total: root.get("events_total")?.as_u64()?,
        events_per_sec: root.get("events_per_sec")?.as_f64()?,
        cells_total: root.get("cells_total")?.as_u64()?,
        cells_cached: root.get("cells_cached")?.as_u64()?,
        failed_cells,
        invariant_violations,
    })
}

fn write_summary(results: &[SectionResult], wall_s: f64) {
    let sections = Json::Arr(
        results
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("bin".to_string(), Json::str(r.bin)),
                    ("ok".to_string(), Json::Bool(r.outcome.is_ok())),
                    (
                        "error".to_string(),
                        match &r.outcome {
                            Ok(()) => Json::Null,
                            Err(e) => Json::str(e),
                        },
                    ),
                    ("elapsed_s".to_string(), Json::f64(r.elapsed_s)),
                ];
                if let Some(t) = &r.telemetry {
                    fields.push(("events_total".to_string(), Json::u64(t.events_total)));
                    fields.push(("events_per_sec".to_string(), Json::f64(t.events_per_sec)));
                    fields.push(("cells_total".to_string(), Json::u64(t.cells_total)));
                    fields.push(("cells_cached".to_string(), Json::u64(t.cells_cached)));
                    fields.push((
                        "cells_failed".to_string(),
                        Json::usize(t.failed_cells.len()),
                    ));
                    fields.push((
                        "failed_cells".to_string(),
                        Json::Arr(t.failed_cells.iter().map(|c| Json::str(c)).collect()),
                    ));
                    fields.push((
                        "invariant_violations".to_string(),
                        Json::u64(t.invariant_violations),
                    ));
                }
                Json::Obj(fields)
            })
            .collect(),
    );
    let root = Json::Obj(vec![
        ("figure".to_string(), Json::str("reproduce_all")),
        ("jobs".to_string(), Json::usize(nest_harness::jobs())),
        ("sections".to_string(), sections),
        ("wall_s".to_string(), Json::f64(wall_s)),
    ]);
    write_json(&results_dir().join("reproduce_all.telemetry.json"), root);
}

fn write_json(path: &std::path::Path, root: Json) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut text = root.to_pretty();
    text.push('\n');
    match std::fs::write(path, text) {
        Ok(()) => println!("telemetry: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let started = Instant::now();
    let results: Vec<SectionResult> = SECTIONS.iter().map(|bin| run(bin)).collect();
    let wall_s = started.elapsed().as_secs_f64();

    println!("\n################ summary ################\n");
    println!(
        "{:<26} {:>8} {:>10} {:>12} {:>9} {:>7}",
        "section", "status", "elapsed", "events/s", "cache", "cells"
    );
    for r in &results {
        let (events, cache, cells) = match &r.telemetry {
            Some(t) => (
                format!("{:.0}k", t.events_per_sec / 1e3),
                format!("{}/{}", t.cells_cached, t.cells_total),
                if t.failed_cells.is_empty() {
                    "ok".to_string()
                } else {
                    format!("{} BAD", t.failed_cells.len())
                },
            ),
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        let status = match (&r.outcome, &r.telemetry) {
            (Err(_), _) => "FAILED",
            (Ok(()), Some(t)) if !t.failed_cells.is_empty() => "partial",
            _ => "ok",
        };
        println!(
            "{:<26} {:>8} {:>9.1}s {:>12} {:>9} {:>7}",
            r.bin, status, r.elapsed_s, events, cache, cells
        );
    }
    let failed: Vec<&SectionResult> = results.iter().filter(|r| r.outcome.is_err()).collect();
    println!(
        "\n{} of {} sections succeeded in {:.1}s ({} jobs)",
        results.len() - failed.len(),
        results.len(),
        wall_s,
        nest_harness::jobs(),
    );
    write_summary(&results, wall_s);

    // Cell-level failures: the section's harness contained a panicking
    // cell and finished the rest, so its artifact exists but is partial.
    // Completed sections (and cells) are kept; the run still fails.
    let partial: Vec<&SectionResult> = results
        .iter()
        .filter(|r| {
            r.outcome.is_ok()
                && r.telemetry
                    .as_ref()
                    .is_some_and(|t| !t.failed_cells.is_empty())
        })
        .collect();
    for r in &partial {
        for cell in &r.telemetry.as_ref().unwrap().failed_cells {
            eprintln!("FAILED CELL: {}: {cell}", r.bin);
        }
    }
    let violations: u64 = results
        .iter()
        .filter_map(|r| r.telemetry.as_ref())
        .map(|t| t.invariant_violations)
        .sum();
    if violations > 0 {
        eprintln!("WARNING: {violations} kernel-state invariant violation(s) across sections");
    }

    if failed.is_empty() && partial.is_empty() {
        println!("\nAll experiments completed.");
    } else {
        for r in &failed {
            eprintln!(
                "FAILED: {} ({}) after {:.1}s",
                r.bin,
                r.outcome.as_ref().unwrap_err(),
                r.elapsed_s
            );
        }
        std::process::exit(1);
    }
}
