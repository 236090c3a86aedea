//! Plain-data, serializable summaries of a simulation run.
//!
//! A [`RunSummary`] carries every per-run metric the paper's figures
//! consume — completion time, energy, underload, frequency residency,
//! placement spread, wakeup-latency percentiles — as plain owned data with
//! no interior mutability. That makes it `Send`, comparable, and cheap to
//! serialize, which is what the experiment harness needs to fan runs out
//! across worker threads, memoize them in the on-disk result cache, and
//! emit them into JSON artifacts.
//!
//! Heavy raw data (execution traces, individual latency samples) is
//! deliberately *not* carried: trace figures use the uncached raw-run path.

use crate::fleet::FleetSummary;
use crate::latency::WakeupLatencies;
use crate::serve::ServeSummary;

/// Wakeup-latency percentiles of one run (nanoseconds).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Median, or `None` with no samples.
    pub p50_ns: Option<u64>,
    /// 99th percentile.
    pub p99_ns: Option<u64>,
    /// 99.9th percentile — schbench's headline metric.
    pub p999_ns: Option<u64>,
    /// Mean latency.
    pub mean_ns: Option<f64>,
    /// Number of wakeups observed.
    pub samples: usize,
}

impl LatencySummary {
    /// Summarizes collected latencies.
    pub fn from_latencies(l: &WakeupLatencies) -> LatencySummary {
        LatencySummary {
            p50_ns: l.p50(),
            p99_ns: l.p99(),
            p999_ns: l.p999(),
            mean_ns: l.mean(),
            samples: l.samples.len(),
        }
    }
}

/// Every scalar metric of one run, as plain data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Wall-clock completion time in (simulated) seconds.
    pub time_s: f64,
    /// CPU energy in joules.
    pub energy_j: f64,
    /// The Figure 4 metric: underload per second over 1 s windows.
    pub underload_per_s: f64,
    /// Sum of per-4ms-interval underloads (the Figure 3 total).
    pub total_underload: u64,
    /// Frequency-residency bucket upper edges in GHz.
    pub freq_edges_ghz: Vec<f64>,
    /// Busy nanoseconds attributed to each bucket.
    pub freq_busy_ns: Vec<u64>,
    /// Placements per mechanism, sorted by mechanism label so the order
    /// (and any serialization of it) is deterministic.
    pub placements: Vec<(String, u64)>,
    /// Number of distinct cores that received any placement.
    pub distinct_cores: usize,
    /// Wakeup-latency percentiles.
    pub latency: LatencySummary,
    /// Total tasks created.
    pub total_tasks: usize,
    /// Whether the horizon cut the run short.
    pub hit_horizon: bool,
    /// Request-serving metrics; `None` unless the workload carried serve
    /// specs, so non-serving runs serialize exactly as before.
    pub serve: Option<ServeSummary>,
    /// Fleet (multi-host) metrics; `None` unless the workload ran under a
    /// `fleet:` front-end, so single-host runs serialize exactly as before.
    pub fleet: Option<FleetSummary>,
}

impl RunSummary {
    /// Total busy time across all frequency buckets.
    pub fn total_busy_ns(&self) -> u64 {
        self.freq_busy_ns.iter().sum()
    }

    /// Fraction of busy time per frequency bucket (sums to 1 when any
    /// work ran); mirrors [`crate::FreqResidency::fractions`].
    pub fn freq_fractions(&self) -> Vec<f64> {
        let total = self.total_busy_ns();
        if total == 0 {
            return vec![0.0; self.freq_busy_ns.len()];
        }
        self.freq_busy_ns
            .iter()
            .map(|&ns| ns as f64 / total as f64)
            .collect()
    }

    /// Fraction of busy time spent in the top `n` buckets.
    pub fn top_fraction(&self, n: usize) -> f64 {
        self.freq_fractions().iter().rev().take(n).sum()
    }

    /// Renders bucket labels like `(1.0, 1.6]`; mirrors
    /// [`crate::FreqResidency::labels`].
    pub fn freq_labels(&self) -> Vec<String> {
        let mut lo = 0.0;
        self.freq_edges_ghz
            .iter()
            .map(|&hi| {
                let s = format!("({lo:.1}, {hi:.1}]");
                lo = hi;
                s
            })
            .collect()
    }

    /// Total placements observed.
    pub fn total_placements(&self) -> u64 {
        self.placements.iter().map(|(_, n)| n).sum()
    }

    /// Placement count for the mechanism with the given debug label
    /// (e.g. `"NestPrimary"`).
    pub fn placement_count(&self, path_label: &str) -> u64 {
        self.placements
            .iter()
            .find(|(l, _)| l == path_label)
            .map_or(0, |(_, n)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        RunSummary {
            time_s: 2.0,
            energy_j: 100.0,
            freq_edges_ghz: vec![1.0, 2.0, 3.0],
            freq_busy_ns: vec![100, 300, 600],
            placements: vec![("CfsFork".into(), 3), ("NestPrimary".into(), 7)],
            ..RunSummary::default()
        }
    }

    #[test]
    fn fractions_and_top() {
        let s = sample();
        let f = s.freq_fractions();
        assert!((f[0] - 0.1).abs() < 1e-12);
        assert!((f[2] - 0.6).abs() < 1e-12);
        assert!((s.top_fraction(2) - 0.9).abs() < 1e-12);
        assert_eq!(s.freq_labels()[1], "(1.0, 2.0]");
    }

    #[test]
    fn empty_busy_time_gives_zero_fractions() {
        let s = RunSummary {
            freq_busy_ns: vec![0, 0],
            freq_edges_ghz: vec![1.0, 2.0],
            ..RunSummary::default()
        };
        assert_eq!(s.freq_fractions(), vec![0.0, 0.0]);
        assert_eq!(s.top_fraction(2), 0.0);
    }

    #[test]
    fn placement_lookup() {
        let s = sample();
        assert_eq!(s.total_placements(), 10);
        assert_eq!(s.placement_count("NestPrimary"), 7);
        assert_eq!(s.placement_count("Smove"), 0);
    }
}
