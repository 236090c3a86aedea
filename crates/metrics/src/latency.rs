//! Wakeup-latency measurement (schbench-style, §5.6).
//!
//! Records the delay between a task becoming runnable ([`TraceEvent::Woken`])
//! and it actually starting to run ([`TraceEvent::RunStart`]), and computes
//! percentiles including the 99.9th that schbench reports.

use std::collections::HashMap;

use nest_simcore::json::{self, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{Probe, TaskId, Time, TraceEvent};

/// Wakeup latencies, collected in place by [`WakeupLatencyProbe`].
#[derive(Debug, Default)]
pub struct WakeupLatencies {
    /// All observed latencies in nanoseconds (unordered).
    pub samples: Vec<u64>,
}

impl WakeupLatencies {
    /// Returns the `q`-quantile (0 ≤ q ≤ 1) by nearest-rank, or `None`
    /// with no samples.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let mut v = self.samples.clone();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        Some(v[rank - 1])
    }

    /// Median latency.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile — schbench's headline metric.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Mean latency in nanoseconds.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
    }
}

/// Probe pairing wakeups with run starts.
#[derive(Default)]
pub struct WakeupLatencyProbe {
    /// The latencies observed so far.
    pub latencies: WakeupLatencies,
    pending: HashMap<TaskId, Time>,
}

impl Probe for WakeupLatencyProbe {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        match event {
            TraceEvent::Woken { task } => {
                self.pending.insert(*task, now);
            }
            TraceEvent::RunStart { task, .. } => {
                if let Some(woken) = self.pending.remove(task) {
                    self.latencies.samples.push(now.saturating_since(woken));
                }
            }
            _ => {}
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((
            "metrics.wakeup_latency",
            json::obj(vec![
                ("pending", self.pending.save()),
                ("samples", self.latencies.samples.save()),
            ]),
        ))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        self.pending = snap::load(state, "pending")?;
        self.latencies.samples = snap::load(state, "samples")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::CoreId;

    #[test]
    fn pairs_woken_with_run_start() {
        let mut p = WakeupLatencyProbe::default();
        p.on_event(
            Time::from_nanos(100),
            &TraceEvent::Woken { task: TaskId(1) },
        );
        p.on_event(
            Time::from_nanos(350),
            &TraceEvent::RunStart {
                task: TaskId(1),
                core: CoreId(0),
            },
        );
        p.on_finish(Time::from_nanos(400));
        assert_eq!(p.latencies.samples, vec![250]);
    }

    #[test]
    fn run_start_without_wake_ignored() {
        let mut p = WakeupLatencyProbe::default();
        p.on_event(
            Time::from_nanos(350),
            &TraceEvent::RunStart {
                task: TaskId(1),
                core: CoreId(0),
            },
        );
        p.on_finish(Time::from_nanos(400));
        assert!(p.latencies.samples.is_empty());
        assert_eq!(p.latencies.p999(), None);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let l = WakeupLatencies {
            samples: (1..=1000).collect(),
        };
        assert_eq!(l.p50(), Some(500));
        assert_eq!(l.p99(), Some(990));
        assert_eq!(l.p999(), Some(999));
        assert_eq!(l.quantile(1.0), Some(1000));
        assert!((l.mean().unwrap() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn repeated_wakeups_produce_multiple_samples() {
        let mut p = WakeupLatencyProbe::default();
        for i in 0..5u64 {
            let t0 = Time::from_nanos(i * 1000);
            p.on_event(t0, &TraceEvent::Woken { task: TaskId(7) });
            p.on_event(
                t0 + 10 * (i + 1),
                &TraceEvent::RunStart {
                    task: TaskId(7),
                    core: CoreId(0),
                },
            );
        }
        p.on_finish(Time::from_nanos(10_000));
        assert_eq!(p.latencies.samples.len(), 5);
    }
}
