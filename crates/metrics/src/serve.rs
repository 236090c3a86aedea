//! Request-serving tail-latency and SLO metrics.
//!
//! [`ServeMetricsProbe`] watches one run's trace for the request tasks the
//! serve subsystem injects (labels starting with
//! [`nest_serve::REQUEST_LABEL_PREFIX`]) and measures each request's
//! arrival→completion latency: the span from the task's creation event —
//! the instant the open-loop arrival process wakes it — to its exit, which
//! for fan-out requests only happens after every sub-task has finished.
//! Latencies accumulate into a [`TailHistogram`], so per-run metrics merge
//! order-independently into per-cell aggregates exactly like
//! `decision_metrics`, and p50/p99/p999 stay accurate at the tail.
//!
//! [`ServeMetrics`] is the mergeable aggregate written into
//! `.telemetry.json`; [`ServeSummary`] is its plain-scalar projection
//! carried inside `RunSummary` (and therefore through the result cache and
//! figure artifacts).

use std::collections::HashMap;

use nest_serve::REQUEST_LABEL_PREFIX;
use nest_simcore::json::{obj, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{Probe, TaskId, Time, TraceEvent};

use crate::tail::TailHistogram;

/// Aggregated request-serving metrics over one or more runs.
///
/// Every field is an order-independent sum (the histogram merges
/// bucket-wise; `slo_ns` is the first spec's SLO and identical across the
/// runs of one cell), so merging in any grouping yields the same values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeMetrics {
    /// Runs merged into this aggregate.
    pub runs: u64,
    /// Requests that arrived (request tasks created) across those runs.
    pub offered: u64,
    /// Requests that completed (request tasks exited).
    pub completed: u64,
    /// Completed requests whose latency was within their spec's SLO.
    pub within_slo: u64,
    /// The SLO bound (ns) of the first serve spec, for reporting.
    pub slo_ns: u64,
    /// Total simulated nanoseconds across the merged runs.
    pub sim_ns: u64,
    /// CPU energy in joules across the merged runs (filled in by the
    /// run driver from the frequency model's energy integral).
    pub energy_j: f64,
    /// Arrival→completion latency histogram.
    pub hist: TailHistogram,
}

impl ServeMetrics {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &ServeMetrics) {
        self.runs += other.runs;
        self.offered += other.offered;
        self.completed += other.completed;
        self.within_slo += other.within_slo;
        if self.slo_ns == 0 {
            self.slo_ns = other.slo_ns;
        }
        self.sim_ns += other.sim_ns;
        self.energy_j += other.energy_j;
        self.hist.merge(&other.hist);
    }

    /// Simulated seconds across all runs.
    pub fn sim_secs(&self) -> f64 {
        self.sim_ns as f64 / 1e9
    }

    /// SLO-conformant completions per simulated second — the goodput the
    /// serving lens optimizes for.
    pub fn goodput_per_s(&self) -> Option<f64> {
        (self.sim_ns > 0).then(|| self.within_slo as f64 / self.sim_secs())
    }

    /// Requests offered per simulated second (the realized arrival rate).
    pub fn offered_per_s(&self) -> Option<f64> {
        (self.sim_ns > 0).then(|| self.offered as f64 / self.sim_secs())
    }

    /// Joules of CPU energy per completed request.
    pub fn energy_per_request_j(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.energy_j / self.completed as f64)
    }

    /// Fraction of completed requests within their SLO.
    pub fn slo_fraction(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.within_slo as f64 / self.completed as f64)
    }

    /// Serializes the metrics as the `serve_metrics` telemetry block.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("runs", Json::u64(self.runs)),
            ("sim_ns", Json::u64(self.sim_ns)),
            ("offered", Json::u64(self.offered)),
            ("completed", Json::u64(self.completed)),
            ("within_slo", Json::u64(self.within_slo)),
            ("slo_ns", Json::u64(self.slo_ns)),
            (
                "latency",
                obj(vec![
                    ("p50_ns", Json::opt_u64(self.hist.quantile(0.50))),
                    ("p99_ns", Json::opt_u64(self.hist.quantile(0.99))),
                    ("p999_ns", Json::opt_u64(self.hist.quantile(0.999))),
                    ("mean_ns", Json::opt_f64(self.hist.mean())),
                    ("samples", Json::u64(self.hist.len())),
                ]),
            ),
            ("offered_per_s", Json::opt_f64(self.offered_per_s())),
            ("goodput_per_s", Json::opt_f64(self.goodput_per_s())),
            ("slo_fraction", Json::opt_f64(self.slo_fraction())),
            ("energy_j", Json::f64(self.energy_j)),
            (
                "energy_per_request_j",
                Json::opt_f64(self.energy_per_request_j()),
            ),
        ])
    }
}

/// Plain-scalar projection of one run's [`ServeMetrics`], carried inside
/// `RunSummary` so it flows through the result cache and into figure
/// artifacts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeSummary {
    /// Requests that arrived during the run.
    pub offered: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Completions within the SLO.
    pub within_slo: u64,
    /// The SLO bound in nanoseconds.
    pub slo_ns: u64,
    /// Median arrival→completion latency.
    pub p50_ns: Option<u64>,
    /// 99th percentile latency.
    pub p99_ns: Option<u64>,
    /// 99.9th percentile latency — the headline tail metric.
    pub p999_ns: Option<u64>,
    /// Mean latency.
    pub mean_ns: Option<f64>,
    /// SLO-conformant completions per simulated second.
    pub goodput_per_s: Option<f64>,
    /// Joules per completed request.
    pub energy_per_request_j: Option<f64>,
}

impl ServeSummary {
    /// Projects a single run's metrics down to summary scalars.
    pub fn from_metrics(m: &ServeMetrics) -> ServeSummary {
        ServeSummary {
            offered: m.offered,
            completed: m.completed,
            within_slo: m.within_slo,
            slo_ns: m.slo_ns,
            p50_ns: m.hist.quantile(0.50),
            p99_ns: m.hist.quantile(0.99),
            p999_ns: m.hist.quantile(0.999),
            mean_ns: m.hist.mean(),
            goodput_per_s: m.goodput_per_s(),
            energy_per_request_j: m.energy_per_request_j(),
        }
    }
}

/// A probe computing [`ServeMetrics`] over one run.
///
/// Constructed with one SLO bound per serve spec, indexed by the plan
/// index embedded in each request label (`req:{plan}:{i}`), so colocated
/// serve streams with different SLOs are judged against their own bound.
pub struct ServeMetricsProbe {
    /// The run's metrics; `runs`, `sim_ns` and `slo_ns` are stamped when
    /// the run finishes.
    pub metrics: ServeMetrics,
    slos: Vec<u64>,
    arrived: HashMap<TaskId, (Time, u64)>,
}

impl ServeMetricsProbe {
    /// Creates a probe for serve plans with the given SLO bounds (ns).
    pub fn new(slos: Vec<u64>) -> ServeMetricsProbe {
        assert!(!slos.is_empty(), "serve probe needs at least one SLO");
        ServeMetricsProbe {
            metrics: ServeMetrics::default(),
            slos,
            arrived: HashMap::new(),
        }
    }
}

impl Probe for ServeMetricsProbe {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        match event {
            TraceEvent::TaskCreated { task, label, .. } => {
                let Some(rest) = label.strip_prefix(REQUEST_LABEL_PREFIX) else {
                    return;
                };
                let plan: usize = rest
                    .split(':')
                    .next()
                    .and_then(|p| p.parse().ok())
                    .expect("request label must embed its plan index");
                let slo = *self.slos.get(plan).expect("plan index within SLO table");
                self.metrics.offered += 1;
                self.arrived.insert(*task, (now, slo));
            }
            TraceEvent::TaskExited { task } => {
                if let Some((arrived, slo)) = self.arrived.remove(task) {
                    let ns = now.saturating_since(arrived);
                    self.metrics.hist.record(ns);
                    self.metrics.completed += 1;
                    if ns <= slo {
                        self.metrics.within_slo += 1;
                    }
                }
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, now: Time) {
        self.metrics.sim_ns = now.as_nanos();
        self.metrics.runs = 1;
        self.metrics.slo_ns = self.slos[0];
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        // The SLO table comes from construction (it is part of the
        // scenario); only the accumulated counters and in-flight requests
        // travel, the latter as `[task, arrived, slo]` triples sorted by
        // task id for stable bytes.
        let mut arrived: Vec<(TaskId, Time, u64)> = self
            .arrived
            .iter()
            .map(|(&task, &(at, slo))| (task, at, slo))
            .collect();
        arrived.sort_unstable_by_key(|&(task, ..)| task);
        Some((
            "metrics.serve",
            obj(vec![
                ("offered", self.metrics.offered.save()),
                ("completed", self.metrics.completed.save()),
                ("within_slo", self.metrics.within_slo.save()),
                ("hist", self.metrics.hist.save()),
                ("arrived", arrived.save()),
            ]),
        ))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        self.metrics.offered = snap::load(state, "offered")?;
        self.metrics.completed = snap::load(state, "completed")?;
        self.metrics.within_slo = snap::load(state, "within_slo")?;
        self.metrics.hist = snap::load(state, "hist")?;
        let arrived: Vec<(TaskId, Time, u64)> = snap::load(state, "arrived")?;
        self.arrived = arrived
            .into_iter()
            .map(|(task, at, slo)| (task, (at, slo)))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn created(task: u32, label: &str) -> TraceEvent {
        TraceEvent::TaskCreated {
            task: TaskId(task),
            label: label.to_string(),
            parent: None,
        }
    }

    fn exited(task: u32) -> TraceEvent {
        TraceEvent::TaskExited { task: TaskId(task) }
    }

    #[test]
    fn pairs_request_creation_with_exit() {
        let mut p = ServeMetricsProbe::new(vec![1_000_000]);
        let t = Time::from_nanos;
        p.on_event(t(100), &created(1, "req:0:0"));
        p.on_event(t(200), &created(2, "worker-3"));
        p.on_event(t(500_100), &exited(1));
        p.on_event(t(700_000), &exited(2));
        p.on_finish(t(1_000_000));
        let m = &p.metrics;
        assert_eq!(m.offered, 1, "non-request tasks are ignored");
        assert_eq!(m.completed, 1);
        assert_eq!(m.within_slo, 1);
        assert_eq!(m.hist.quantile(1.0), Some(500_000));
        assert_eq!(m.runs, 1);
        assert_eq!(m.sim_ns, 1_000_000);
        assert_eq!(m.slo_ns, 1_000_000);
    }

    #[test]
    fn slo_is_judged_per_plan() {
        let mut p = ServeMetricsProbe::new(vec![1_000, 1_000_000]);
        let t = Time::from_nanos;
        p.on_event(t(0), &created(1, "req:0:0"));
        p.on_event(t(0), &created(2, "req:1:0"));
        // Both take 5 µs: over plan 0's 1 µs SLO, within plan 1's 1 ms.
        p.on_event(t(5_000), &exited(1));
        p.on_event(t(5_000), &exited(2));
        p.on_finish(t(10_000));
        let m = &p.metrics;
        assert_eq!(m.completed, 2);
        assert_eq!(m.within_slo, 1);
        assert_eq!(m.slo_fraction(), Some(0.5));
    }

    #[test]
    fn unfinished_requests_count_as_offered_only() {
        let mut p = ServeMetricsProbe::new(vec![1_000]);
        let t = Time::from_nanos;
        p.on_event(t(0), &created(1, "req:0:0"));
        p.on_finish(t(1_000_000_000));
        let m = &p.metrics;
        assert_eq!(m.offered, 1);
        assert_eq!(m.completed, 0);
        assert_eq!(m.goodput_per_s(), Some(0.0));
        assert_eq!(m.energy_per_request_j(), None);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |latency: u64, within: bool| {
            let mut p = ServeMetricsProbe::new(vec![10_000]);
            let t = Time::from_nanos;
            p.on_event(t(0), &created(1, "req:0:0"));
            p.on_event(t(latency), &exited(1));
            p.on_finish(t(1_000_000));
            let mut m = p.metrics;
            m.energy_j = if within { 1.0 } else { 2.0 };
            m
        };
        let a = mk(5_000, true);
        let b = mk(50_000, false);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.runs, 2);
        assert_eq!(ab.offered, 2);
        assert_eq!(ab.within_slo, 1);
        assert_eq!(ab.energy_j, 3.0);
        assert_eq!(ab.hist.quantile(1.0), Some(50_000));
    }

    #[test]
    fn json_block_has_the_documented_fields_and_round_trips() {
        let mut p = ServeMetricsProbe::new(vec![2_000_000]);
        let t = Time::from_nanos;
        p.on_event(t(0), &created(1, "req:0:0"));
        p.on_event(t(1_500_000), &exited(1));
        p.on_finish(t(1_000_000_000));
        let mut m = p.metrics;
        m.energy_j = 0.5;
        let json = m.to_json();
        for key in [
            "runs",
            "sim_ns",
            "offered",
            "completed",
            "within_slo",
            "slo_ns",
            "latency",
            "offered_per_s",
            "goodput_per_s",
            "slo_fraction",
            "energy_j",
            "energy_per_request_j",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let text = json.to_pretty();
        assert_eq!(nest_simcore::json::parse(&text).unwrap(), json);
    }

    #[test]
    fn summary_projects_the_scalars() {
        let mut p = ServeMetricsProbe::new(vec![2_000_000]);
        let t = Time::from_nanos;
        p.on_event(t(0), &created(1, "req:0:0"));
        p.on_event(t(1_000_000), &exited(1));
        p.on_finish(t(2_000_000_000));
        let mut m = p.metrics;
        m.energy_j = 4.0;
        let s = ServeSummary::from_metrics(&m);
        assert_eq!(s.offered, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.within_slo, 1);
        assert_eq!(s.slo_ns, 2_000_000);
        assert_eq!(s.p50_ns, Some(1_000_000));
        assert_eq!(s.p999_ns, Some(1_000_000));
        assert_eq!(s.goodput_per_s, Some(0.5));
        assert_eq!(s.energy_per_request_j, Some(4.0));
    }
}
