//! Structured JSON artifacts for figures and tables.
//!
//! Every figure binary emits `results/<figure>.json` next to its ASCII
//! output: the run configuration, each comparison with aggregate stats and
//! the per-run summaries behind them, and any figure-specific series. The
//! artifact is *deterministic* — same seed, same bytes, regardless of
//! `NEST_JOBS` or cache state — so artifacts can be diffed across runs and
//! machines. Wall-clock and cache telemetry, which are inherently
//! nondeterministic, go to a separate `results/<figure>.telemetry.json`.

use std::io;
use std::path::{Path, PathBuf};

use nest_core::experiment::{Comparison, SchedulerOutcome};
use nest_metrics::stats::Stats;

use crate::cache::summary_to_json;
use crate::json::{obj, Json};
use crate::runner::Telemetry;

/// Directory artifacts are written to (`results/`, or `NEST_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var("NEST_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

fn stats_json(s: &Stats) -> Json {
    obj(vec![
        ("mean", Json::f64(s.mean)),
        ("std", Json::f64(s.std)),
        ("n", Json::usize(s.n)),
    ])
}

fn row_json(r: &SchedulerOutcome) -> Json {
    obj(vec![
        ("label", Json::str(&r.label)),
        ("time_s", stats_json(&r.time)),
        ("energy_j", stats_json(&r.energy)),
        ("underload_per_s", Json::f64(r.underload_per_s)),
        (
            "speedup_pct",
            r.speedup_pct.as_ref().map_or(Json::Null, stats_json),
        ),
        ("energy_savings_pct", Json::opt_f64(r.energy_savings_pct)),
        ("top_freq_fraction", Json::f64(r.top_freq_fraction)),
        (
            "runs",
            Json::Arr(r.runs.iter().map(summary_to_json).collect()),
        ),
    ])
}

/// Serializes one comparison: workload, machine, one row per scheduler
/// (baseline first) with aggregates and per-run summaries.
pub fn comparison_json(c: &Comparison) -> Json {
    obj(vec![
        ("workload", Json::str(&c.workload)),
        ("machine", Json::str(&c.machine)),
        ("rows", Json::Arr(c.rows.iter().map(row_json).collect())),
    ])
}

/// Builder for one figure's artifact.
///
/// ```
/// use nest_harness::artifact::Artifact;
/// use nest_harness::json::Json;
///
/// let mut a = Artifact::new("fig99_demo", 42);
/// a.push("note", Json::str("demo"));
/// // a.comparisons(&comps); a.write()?; a.write_telemetry(&telemetry)?;
/// ```
#[derive(Debug)]
pub struct Artifact {
    name: String,
    fields: Vec<(String, Json)>,
}

impl Artifact {
    /// Starts an artifact for figure `name` produced with `seed`.
    pub fn new(name: &str, seed: u64) -> Artifact {
        Artifact {
            name: name.to_string(),
            fields: vec![
                ("figure".to_string(), Json::str(name)),
                ("schema".to_string(), Json::u64(1)),
                ("seed".to_string(), Json::u64(seed)),
            ],
        }
    }

    /// Adds a figure-specific field (series, bands, notes …). Fields keep
    /// insertion order, so the artifact is canonical.
    pub fn push(&mut self, key: &str, value: Json) -> &mut Artifact {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds the standard `comparisons` array.
    pub fn comparisons(&mut self, comps: &[Comparison]) -> &mut Artifact {
        self.push(
            "comparisons",
            Json::Arr(comps.iter().map(comparison_json).collect()),
        )
    }

    /// Writes the deterministic artifact to `results/<name>.json`,
    /// returning its path.
    pub fn write(&self) -> io::Result<PathBuf> {
        let root = Json::Obj(self.fields.clone());
        write_file(&results_dir().join(format!("{}.json", self.name)), &root)
    }

    /// Writes the nondeterministic run telemetry to
    /// `results/<name>.telemetry.json`, including the profile block when
    /// the run carried one (`NEST_PROFILE=1`).
    pub fn write_telemetry(&self, t: &Telemetry) -> io::Result<PathBuf> {
        let mut fields = vec![
            ("figure", Json::str(&self.name)),
            ("jobs", Json::usize(t.jobs)),
            ("cells_total", Json::usize(t.cells_total)),
            ("cells_cached", Json::usize(t.cells_cached)),
            ("wall_s", Json::f64(t.wall_s)),
            ("events_total", Json::u64(t.events_total)),
            ("events_per_sec", Json::f64(t.events_per_sec)),
            ("cells_failed", Json::usize(t.failures.len())),
            (
                "failures",
                Json::Arr(
                    t.failures
                        .iter()
                        .map(|f| {
                            obj(vec![
                                ("cell", Json::str(&f.cell)),
                                ("message", Json::str(&f.message)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cells_aborted", Json::usize(t.cells_aborted)),
            ("invariants", t.invariants.to_json()),
        ];
        fields.extend(metric_blocks(t));
        // Every simulated cell samples a time series; a fully cached run
        // has none and keeps the pre-sampler telemetry shape.
        if !t.timeseries.is_empty() {
            fields.push((
                "timeseries",
                Json::Arr(
                    t.timeseries
                        .iter()
                        .map(|(cell, ts)| {
                            obj(vec![("cell", Json::str(cell)), ("series", ts.to_json())])
                        })
                        .collect(),
                ),
            ));
            fields.push(("timeseries_dropped", Json::usize(t.timeseries_dropped)));
        }
        // Present only when warm-start was enabled, so default-run
        // telemetry keeps its exact shape too.
        if let Some(w) = &t.warm {
            fields.push(("warm_start", Json::Bool(true)));
            fields.push(("warm_pause_s", Json::f64(w.pause_s)));
            fields.push(("cells_warm", Json::usize(w.cells_warm)));
            fields.push(("warm_events_saved", Json::u64(w.events_saved)));
            fields.push(("warm_snapshots_written", Json::usize(w.snapshots_written)));
        }
        if let Some(p) = &t.profile {
            fields.push(("profile", profile_json(p)));
        }
        write_file(
            &results_dir().join(format!("{}.telemetry.json", self.name)),
            &obj(fields),
        )
    }
}

/// The folded metric blocks of a telemetry: `decision_metrics` always,
/// then `serve_metrics`, `phase_metrics` and `fleet_metrics` only when
/// some cell contributed one, so runs without serving or fleets keep
/// their exact shape. Telemetry sidecars and `nest-sim stats --json` both
/// serialize through this.
pub fn metric_blocks(t: &Telemetry) -> Vec<(&'static str, Json)> {
    let mut fields = vec![("decision_metrics", t.decision_metrics.to_json())];
    if t.serve_metrics.runs > 0 {
        fields.push(("serve_metrics", t.serve_metrics.to_json()));
    }
    if t.phase_metrics.runs > 0 {
        fields.push(("phase_metrics", t.phase_metrics.to_json()));
    }
    if t.fleet_metrics.runs > 0 {
        fields.push(("fleet_metrics", t.fleet_metrics.to_json()));
    }
    fields
}

/// Serializes a profiler snapshot: per-subsystem calls, wall time, and
/// mean per-call time, in report order, subsystems with no calls omitted.
fn profile_json(p: &nest_simcore::profile::Snapshot) -> Json {
    let subsystems: Vec<Json> = p
        .entries()
        .filter(|(_, t)| t.calls > 0)
        .map(|(name, t)| {
            obj(vec![
                ("name", Json::str(name)),
                ("calls", Json::u64(t.calls)),
                ("wall_ns", Json::u64(t.nanos)),
                ("mean_ns", Json::f64(t.nanos as f64 / t.calls as f64)),
            ])
        })
        .collect();
    obj(vec![
        ("events", Json::u64(p.events)),
        ("subsystems", Json::Arr(subsystems)),
    ])
}

fn write_file(path: &Path, root: &Json) -> io::Result<PathBuf> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = root.to_pretty();
    text.push('\n');
    std::fs::write(path, text)?;
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn artifact_is_canonical_and_parses_back() {
        let mut a = Artifact::new("unit_test_fig", 7);
        a.push("series", Json::Arr(vec![Json::f64(1.5), Json::f64(2.5)]));
        let root = Json::Obj(a.fields.clone());
        let text = root.to_pretty();
        let back = parse(&text).expect("self-produced JSON parses");
        assert_eq!(
            back.get("figure").unwrap().as_str().unwrap(),
            "unit_test_fig"
        );
        assert_eq!(back.get("seed").unwrap().as_u64().unwrap(), 7);
        // Canonical: re-serializing the parse gives the same bytes.
        assert_eq!(back.to_pretty(), text);
    }
}
