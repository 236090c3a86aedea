//! Multi-run scheduler comparisons following §5.1's protocol.
//!
//! A comparison runs each scheduler configuration `runs` times, averages,
//! and reports speedups relative to the first configuration (the
//! CFS-schedutil baseline in the paper's figures) with the standard
//! deviation of the improvement — exactly how the paper's bar graphs are
//! constructed.
//!
//! The runs themselves are executed elsewhere — fanned out across
//! worker threads and the result cache by `nest-harness` for every
//! figure binary. The *aggregation* ([`Comparison::from_summaries`]) is
//! a pure function over their plain-data [`RunSummary`]s, so it produces
//! identical output however they were run.

use nest_freq::Governor;
use nest_metrics::stats::{improvement_stats, savings_pct, Stats};
use nest_metrics::RunSummary;

use crate::sim::PolicyKind;

/// One scheduler configuration in a comparison.
#[derive(Clone, Debug)]
pub struct SchedulerSetup {
    /// Policy to run.
    pub policy: PolicyKind,
    /// Governor to run it under.
    pub governor: Governor,
}

impl SchedulerSetup {
    /// Convenience constructor.
    pub fn new(policy: PolicyKind, governor: Governor) -> SchedulerSetup {
        SchedulerSetup { policy, governor }
    }

    /// Figure label like `"Nest sched"`.
    pub fn label(&self) -> String {
        format!("{} {}", self.policy.label(), self.governor.short_name())
    }

    /// A canonical identity string covering *every* parameter of the
    /// setup (ablation variants with different `NestParams` must not
    /// collide). Feeds seed derivation and the harness cache key.
    pub fn identity(&self) -> String {
        format!("{:?}|{:?}", self.policy, self.governor)
    }
}

/// Results of one scheduler within a comparison.
#[derive(Clone, Debug)]
pub struct SchedulerOutcome {
    /// The configuration label (`"Nest sched"` …).
    pub label: String,
    /// Running-time statistics over the measured runs (seconds).
    pub time: Stats,
    /// Energy statistics (joules).
    pub energy: Stats,
    /// Mean underload per second.
    pub underload_per_s: f64,
    /// Speedup vs the baseline mean, % (`None` for the baseline row).
    pub speedup_pct: Option<Stats>,
    /// Energy savings vs the baseline mean, %.
    pub energy_savings_pct: Option<f64>,
    /// Mean fraction of busy time in the top two frequency buckets.
    pub top_freq_fraction: f64,
    /// The raw per-run summaries (for figure-specific post-processing).
    pub runs: Vec<RunSummary>,
}

/// A full comparison on one machine and workload.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// Row per scheduler, baseline (index 0) first.
    pub rows: Vec<SchedulerOutcome>,
}

impl Comparison {
    /// Returns the row with the given label.
    pub fn row(&self, label: &str) -> Option<&SchedulerOutcome> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Aggregates per-run summaries into a comparison, one inner vector
    /// per scheduler setup (baseline first), following §5.1: average over
    /// runs, report the standard deviation, normalize speedups against
    /// the baseline *mean*.
    ///
    /// # Panics
    ///
    /// Panics if `summaries` is empty, its length differs from
    /// `schedulers`, or any setup has zero runs.
    pub fn from_summaries(
        workload: &str,
        machine: &str,
        schedulers: &[SchedulerSetup],
        summaries: Vec<Vec<RunSummary>>,
    ) -> Comparison {
        assert!(!schedulers.is_empty(), "need at least a baseline");
        assert_eq!(
            schedulers.len(),
            summaries.len(),
            "one run set per scheduler"
        );
        let mut rows = Vec::new();
        let mut baseline_time_mean = None;
        let mut baseline_energy_mean = None;
        for (s, results) in schedulers.iter().zip(summaries) {
            assert!(!results.is_empty(), "{}: no runs", s.label());
            let times: Vec<f64> = results.iter().map(|r| r.time_s).collect();
            let energies: Vec<f64> = results.iter().map(|r| r.energy_j).collect();
            let time = Stats::from_samples(&times);
            let energy = Stats::from_samples(&energies);
            let underload_per_s =
                results.iter().map(|r| r.underload_per_s).sum::<f64>() / results.len() as f64;
            let top_freq_fraction =
                results.iter().map(|r| r.top_fraction(2)).sum::<f64>() / results.len() as f64;
            let (speedup, savings) = match (baseline_time_mean, baseline_energy_mean) {
                (Some(bt), Some(be)) => (
                    Some(improvement_stats(bt, &times)),
                    Some(savings_pct(be, energy.mean)),
                ),
                _ => {
                    baseline_time_mean = Some(time.mean);
                    baseline_energy_mean = Some(energy.mean);
                    (None, None)
                }
            };
            rows.push(SchedulerOutcome {
                label: s.label(),
                time,
                energy,
                underload_per_s,
                speedup_pct: speedup,
                energy_savings_pct: savings,
                top_freq_fraction,
                runs: results,
            });
        }
        Comparison {
            workload: workload.to_string(),
            machine: machine.to_string(),
            rows,
        }
    }
}

/// Formats a comparison as an aligned text table (the harness output).
pub fn format_table(c: &Comparison) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {} on {}\n", c.workload, c.machine));
    out.push_str(&format!(
        "{:<12} {:>10} {:>7} {:>10} {:>8} {:>9} {:>8}\n",
        "scheduler", "time(s)", "±%", "energy(J)", "u/s", "speedup%", "top-f%"
    ));
    for r in &c.rows {
        out.push_str(&format!(
            "{:<12} {:>10.3} {:>7.1} {:>10.1} {:>8.2} {:>9} {:>8.1}\n",
            r.label,
            r.time.mean,
            r.time.std_pct(),
            r.energy.mean,
            r.underload_per_s,
            r.speedup_pct
                .as_ref()
                .map_or("base".to_string(), |s| format!("{:+.1}", s.mean)),
            100.0 * r.top_freq_fraction,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_once, run_seed, SimConfig};
    use nest_topology::presets;
    use nest_workloads::configure::Configure;

    #[test]
    fn comparison_computes_speedups_vs_baseline() {
        let machine = presets::xeon_5218();
        let schedulers = vec![
            SchedulerSetup::new(PolicyKind::Cfs, Governor::Schedutil),
            SchedulerSetup::new(PolicyKind::Nest, Governor::Schedutil),
        ];
        let summaries = schedulers
            .iter()
            .map(|s| {
                let cfg = SimConfig::new(machine.clone())
                    .policy(s.policy.clone())
                    .governor(s.governor)
                    .seed(11);
                (0..2)
                    .map(|i| {
                        let run = cfg.clone().seed(run_seed(cfg.seed, i));
                        run_once(&run, &Configure::named("gdb")).summarize()
                    })
                    .collect()
            })
            .collect();
        let c = Comparison::from_summaries("gdb", &machine.name, &schedulers, summaries);
        assert_eq!(c.rows.len(), 2);
        assert!(c.rows[0].speedup_pct.is_none());
        assert!(c.rows[1].speedup_pct.is_some());
        assert!(c.row("Nest sched").is_some());
        for r in &c.rows {
            assert!(r.time.mean > 0.0, "{}: nonpositive time", r.label);
        }
        let table = format_table(&c);
        assert!(table.contains("Nest sched"));
        assert!(table.contains("base"));
    }

    #[test]
    fn labels_join_policy_and_governor() {
        let labels = [
            (PolicyKind::Cfs, Governor::Schedutil),
            (PolicyKind::Cfs, Governor::Performance),
            (PolicyKind::Nest, Governor::Schedutil),
            (PolicyKind::Nest, Governor::Performance),
        ]
        .map(|(policy, governor)| SchedulerSetup::new(policy, governor).label());
        assert_eq!(labels, ["CFS sched", "CFS perf", "Nest sched", "Nest perf"]);
    }

    #[test]
    fn identity_distinguishes_parameter_variants() {
        use nest_sched::NestParams;
        let a = SchedulerSetup::new(PolicyKind::Nest, Governor::Schedutil);
        let b = SchedulerSetup::new(
            PolicyKind::NestWith(NestParams {
                r_max: 10,
                ..NestParams::default()
            }),
            Governor::Schedutil,
        );
        // Same figure label, different identity.
        assert_eq!(a.label(), b.label());
        assert_ne!(a.identity(), b.identity());
    }
}
