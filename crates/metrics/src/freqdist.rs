//! Frequency-residency distributions (Figures 2, 6, 8, 11).
//!
//! For every moment a core is busy, the time is attributed to the bucket
//! of that core's current frequency; bucket edges are the per-machine
//! ranges the paper's figures use (e.g. `(0,1.0] (1.0,1.6] … (3.4,3.7]`
//! GHz on the 6130).

use nest_simcore::json::{self, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{Freq, Probe, Time, TraceEvent};

/// Residency histogram, accumulated in place by [`FreqResidencyProbe`].
#[derive(Debug, Default)]
pub struct FreqResidency {
    /// Bucket upper edges in GHz.
    pub edges_ghz: Vec<f64>,
    /// Busy nanoseconds attributed to each bucket.
    pub busy_ns: Vec<u64>,
}

impl FreqResidency {
    /// Total busy time across all buckets.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Fraction of busy time per bucket (sums to 1 when any work ran).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total_busy_ns();
        if total == 0 {
            return vec![0.0; self.busy_ns.len()];
        }
        self.busy_ns
            .iter()
            .map(|&ns| ns as f64 / total as f64)
            .collect()
    }

    /// Fraction of busy time spent in the top `n` buckets.
    pub fn top_fraction(&self, n: usize) -> f64 {
        let f = self.fractions();
        f.iter().rev().take(n).sum()
    }

    /// Renders bucket labels like `(1.0, 1.6]`.
    pub fn labels(&self) -> Vec<String> {
        let mut lo = 0.0;
        self.edges_ghz
            .iter()
            .map(|&hi| {
                let s = format!("({lo:.1}, {hi:.1}]");
                lo = hi;
                s
            })
            .collect()
    }
}

/// Probe accumulating busy time per frequency bucket.
pub struct FreqResidencyProbe {
    /// The residency histogram; complete once the run finishes.
    pub residency: FreqResidency,
    edges_khz: Vec<u64>,
    busy: Vec<bool>,
    freq: Vec<Freq>,
    since: Vec<Time>,
}

impl FreqResidencyProbe {
    /// Creates the probe for a machine with `n_cores` cores and the given
    /// bucket edges (GHz), with all cores initially at `initial` frequency.
    pub fn new(n_cores: usize, edges_ghz: &[f64], initial: Freq) -> FreqResidencyProbe {
        assert!(!edges_ghz.is_empty(), "need at least one bucket");
        FreqResidencyProbe {
            residency: FreqResidency {
                edges_ghz: edges_ghz.to_vec(),
                busy_ns: vec![0; edges_ghz.len()],
            },
            edges_khz: edges_ghz
                .iter()
                .map(|g| (g * 1_000_000.0).round() as u64)
                .collect(),
            busy: vec![false; n_cores],
            freq: vec![initial; n_cores],
            since: vec![Time::ZERO; n_cores],
        }
    }

    fn bucket(&self, f: Freq) -> usize {
        let khz = f.as_khz();
        for (i, &edge) in self.edges_khz.iter().enumerate() {
            if khz <= edge {
                return i;
            }
        }
        self.edges_khz.len() - 1
    }

    fn settle(&mut self, core: usize, now: Time) {
        if self.busy[core] {
            let b = self.bucket(self.freq[core]);
            self.residency.busy_ns[b] += now.saturating_since(self.since[core]);
        }
        self.since[core] = now;
    }
}

impl Probe for FreqResidencyProbe {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        match event {
            TraceEvent::RunStart { core, .. } => {
                let c = core.index();
                self.settle(c, now);
                self.busy[c] = true;
            }
            TraceEvent::RunStop { core, .. } => {
                let c = core.index();
                self.settle(c, now);
                self.busy[c] = false;
            }
            TraceEvent::FreqChange { core, freq } => {
                let c = core.index();
                self.settle(c, now);
                self.freq[c] = *freq;
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, now: Time) {
        for c in 0..self.busy.len() {
            self.settle(c, now);
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        // Bucket edges come from construction; only the accumulators and
        // per-core tracking travel.
        Some((
            "metrics.freq_residency",
            json::obj(vec![
                ("busy", self.busy.save()),
                ("freq_khz", self.freq.save()),
                ("since", self.since.save()),
                ("acc", self.residency.busy_ns.save()),
            ]),
        ))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        self.busy = snap::load_len(state, "busy", self.busy.len())?;
        self.freq = snap::load_len(state, "freq_khz", self.freq.len())?;
        self.since = snap::load_len(state, "since", self.since.len())?;
        self.residency.busy_ns = snap::load_len(state, "acc", self.residency.busy_ns.len())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::{CoreId, StopReason, TaskId};

    fn probe() -> FreqResidencyProbe {
        FreqResidencyProbe::new(4, &[1.0, 2.0, 3.0], Freq::from_ghz(1.0))
    }

    #[test]
    fn attributes_busy_time_to_bucket() {
        let mut p = probe();
        p.on_event(
            Time::ZERO,
            &TraceEvent::RunStart {
                task: TaskId(0),
                core: CoreId(0),
            },
        );
        p.on_event(
            Time::from_millis(10),
            &TraceEvent::RunStop {
                task: TaskId(0),
                core: CoreId(0),
                reason: StopReason::Block,
            },
        );
        p.on_finish(Time::from_millis(20));
        let d = &p.residency;
        assert_eq!(d.busy_ns[0], 10_000_000);
        assert_eq!(d.total_busy_ns(), 10_000_000);
    }

    #[test]
    fn freq_change_splits_attribution() {
        let mut p = probe();
        p.on_event(
            Time::ZERO,
            &TraceEvent::RunStart {
                task: TaskId(0),
                core: CoreId(1),
            },
        );
        p.on_event(
            Time::from_millis(4),
            &TraceEvent::FreqChange {
                core: CoreId(1),
                freq: Freq::from_ghz(2.5),
            },
        );
        p.on_event(
            Time::from_millis(10),
            &TraceEvent::RunStop {
                task: TaskId(0),
                core: CoreId(1),
                reason: StopReason::Exit,
            },
        );
        p.on_finish(Time::from_millis(10));
        let d = &p.residency;
        assert_eq!(d.busy_ns[0], 4_000_000, "1.0 GHz portion");
        assert_eq!(d.busy_ns[2], 6_000_000, "2.5 GHz lands in (2,3]");
        let f = d.fractions();
        assert!((f[0] - 0.4).abs() < 1e-9);
        assert!((f[2] - 0.6).abs() < 1e-9);
        assert!((d.top_fraction(1) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn idle_time_not_counted() {
        let mut p = probe();
        p.on_event(
            Time::from_millis(5),
            &TraceEvent::FreqChange {
                core: CoreId(0),
                freq: Freq::from_ghz(3.0),
            },
        );
        p.on_finish(Time::from_millis(50));
        assert_eq!(p.residency.total_busy_ns(), 0);
    }

    #[test]
    fn above_top_edge_clamps_to_last_bucket() {
        let mut p = probe();
        p.on_event(
            Time::ZERO,
            &TraceEvent::FreqChange {
                core: CoreId(0),
                freq: Freq::from_ghz(9.9),
            },
        );
        p.on_event(
            Time::ZERO,
            &TraceEvent::RunStart {
                task: TaskId(0),
                core: CoreId(0),
            },
        );
        p.on_finish(Time::from_millis(1));
        assert_eq!(p.residency.busy_ns[2], 1_000_000);
    }

    #[test]
    fn labels_render_ranges() {
        let p = probe();
        assert_eq!(
            p.residency.labels(),
            vec!["(0.0, 1.0]", "(1.0, 2.0]", "(2.0, 3.0]"]
        );
    }
}
