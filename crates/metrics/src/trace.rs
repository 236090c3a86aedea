//! Execution traces for the paper's core/frequency trace plots (Figures
//! 2, 8, 9).
//!
//! Rebuilds, for each core, the busy spans with the frequency in effect
//! from a captured run/frequency event stream, splitting spans on
//! frequency changes, and renders an ASCII heat strip usable in harness
//! output.

use nest_simcore::{Freq, Time, TraceEvent};

/// One busy span of a core at a fixed frequency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Core the span ran on.
    pub core: u32,
    /// Span start.
    pub start: Time,
    /// Span end.
    pub end: Time,
    /// Frequency in effect during the span, GHz.
    pub freq_ghz: f64,
}

/// Collected execution trace; build with [`ExecutionTrace::from_events`].
#[derive(Debug, Default)]
pub struct ExecutionTrace {
    /// All busy spans, in completion order.
    pub spans: Vec<Span>,
    /// End of the observation.
    pub duration: Time,
}

impl ExecutionTrace {
    /// Rebuilds the busy spans from a run's `RunStart`, `RunStop` and
    /// `FreqChange` events, in emission order; `freq` holds each core's
    /// frequency at the start. Spans still open at `duration` close
    /// there; zero-length spans and all other events are dropped.
    pub fn from_events(
        freq: Vec<Freq>,
        events: &[(Time, TraceEvent)],
        duration: Time,
    ) -> ExecutionTrace {
        // Per core: when its open busy span started, and its frequency.
        let mut cores: Vec<(Option<Time>, Freq)> = freq.into_iter().map(|f| (None, f)).collect();
        let mut spans = Vec::new();
        // Closes core `c`'s open span at `now`, reopening it when `reopen`.
        let mut close =
            |c: usize, (busy_since, freq): &mut (Option<Time>, Freq), now, reopen: bool| {
                if let Some(start) = *busy_since {
                    if now > start {
                        spans.push(Span {
                            core: c as u32,
                            start,
                            end: now,
                            freq_ghz: freq.as_ghz(),
                        });
                    }
                    *busy_since = reopen.then_some(now);
                }
            };
        for &(now, ref event) in events {
            match *event {
                TraceEvent::RunStart { core, .. } => cores[core.index()].0 = Some(now),
                TraceEvent::RunStop { core, .. } => {
                    close(core.index(), &mut cores[core.index()], now, false)
                }
                TraceEvent::FreqChange { core, freq } => {
                    close(core.index(), &mut cores[core.index()], now, true);
                    cores[core.index()].1 = freq;
                }
                _ => {}
            }
        }
        for (c, state) in cores.iter_mut().enumerate() {
            close(c, state, duration, false);
        }
        ExecutionTrace { spans, duration }
    }

    /// Cores that ran anything, ascending.
    pub fn cores_used(&self) -> Vec<u32> {
        let mut cores: Vec<u32> = self.spans.iter().map(|s| s.core).collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// Fraction of busy time spent within the frequency band `(lo, hi]`
    /// GHz.
    ///
    /// The band is half-open on the *left*: a span running at exactly
    /// `lo` GHz is excluded, one at exactly `hi` GHz is included. This
    /// way adjacent bands `(a, b]`, `(b, c]` partition the busy time —
    /// a span on the shared edge `b` counts toward the lower band only —
    /// which the figure binaries rely on when stacking residency bands.
    /// Returns `0.0` when the trace has no busy time at all.
    pub fn busy_fraction_in(&self, lo: f64, hi: f64) -> f64 {
        let total: u64 = self.spans.iter().map(|s| s.end - s.start).sum();
        if total == 0 {
            return 0.0;
        }
        let in_range: u64 = self
            .spans
            .iter()
            .filter(|s| s.freq_ghz > lo && s.freq_ghz <= hi)
            .map(|s| s.end - s.start)
            .sum();
        in_range as f64 / total as f64
    }

    /// Renders one text row per used core; each column is a time slot of
    /// `slot_ns`, shown as `.` (idle) or a digit 1-9 scaling with
    /// frequency relative to `fmax_ghz`.
    pub fn render_ascii(&self, slot_ns: u64, fmax_ghz: f64) -> String {
        let cores = self.cores_used();
        if cores.is_empty() {
            return String::from("(no activity)\n");
        }
        let slots = (self.duration.as_nanos() / slot_ns + 1) as usize;
        let mut out = String::new();
        for &core in &cores {
            let mut row = vec![b'.'; slots.min(400)];
            let width = row.len();
            for s in self.spans.iter().filter(|s| s.core == core) {
                let a = ((s.start.as_nanos() / slot_ns) as usize).min(width - 1);
                let b = ((s.end.as_nanos() / slot_ns) as usize).min(width - 1);
                let level = ((s.freq_ghz / fmax_ghz) * 9.0).round().clamp(1.0, 9.0) as u8;
                for slot in row.iter_mut().take(b + 1).skip(a) {
                    *slot = b'0' + level;
                }
            }
            out.push_str(&format!("core {core:>4} |"));
            out.push_str(std::str::from_utf8(&row).unwrap());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::{CoreId, StopReason, TaskId};

    fn start(ms: u64, core: u32) -> (Time, TraceEvent) {
        let event = TraceEvent::RunStart {
            task: TaskId(0),
            core: CoreId(core),
        };
        (Time::from_millis(ms), event)
    }

    fn stop(ms: u64, core: u32, reason: StopReason) -> (Time, TraceEvent) {
        let event = TraceEvent::RunStop {
            task: TaskId(0),
            core: CoreId(core),
            reason,
        };
        (Time::from_millis(ms), event)
    }

    #[test]
    fn records_spans_split_on_freq_change() {
        let events = [
            start(0, 2),
            (
                Time::from_millis(3),
                TraceEvent::FreqChange {
                    core: CoreId(2),
                    freq: Freq::from_ghz(3.0),
                },
            ),
            stop(7, 2, StopReason::Exit),
        ];
        let d = ExecutionTrace::from_events(
            vec![Freq::from_ghz(1.0); 4],
            &events,
            Time::from_millis(7),
        );
        assert_eq!(d.spans.len(), 2);
        assert_eq!(d.spans[0].freq_ghz, 1.0);
        assert_eq!(d.spans[1].freq_ghz, 3.0);
        assert_eq!(d.cores_used(), vec![2]);
        // 3 ms at 1 GHz, 4 ms at 3 GHz.
        assert!((d.busy_fraction_in(0.0, 1.5) - 3.0 / 7.0).abs() < 1e-9);
        assert!((d.busy_fraction_in(1.5, 3.5) - 4.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn spans_open_at_the_end_close_there() {
        let d = ExecutionTrace::from_events(
            vec![Freq::from_ghz(2.0); 2],
            &[start(1, 1)],
            Time::from_millis(4),
        );
        assert_eq!(d.spans.len(), 1);
        assert_eq!(d.spans[0].start, Time::from_millis(1));
        assert_eq!(d.spans[0].end, Time::from_millis(4));
    }

    #[test]
    fn busy_fraction_band_is_left_open_right_closed() {
        let span = |freq_ghz: f64, start: u64, end: u64| Span {
            core: 0,
            start: Time::from_millis(start),
            end: Time::from_millis(end),
            freq_ghz,
        };
        let trace = ExecutionTrace {
            // 1 ms at exactly 1.0 GHz, 1 ms at exactly 2.0 GHz.
            spans: vec![span(1.0, 0, 1), span(2.0, 1, 2)],
            duration: Time::from_millis(2),
        };
        // A span at exactly `hi` is included, one at exactly `lo` is not:
        // the shared edge 1.0 belongs to (0.0, 1.0], not (1.0, 2.0].
        assert_eq!(trace.busy_fraction_in(0.0, 1.0), 0.5);
        assert_eq!(trace.busy_fraction_in(1.0, 2.0), 0.5);
        // Adjacent bands partition the busy time without double counting.
        let total = trace.busy_fraction_in(0.0, 1.0) + trace.busy_fraction_in(1.0, 2.0);
        assert_eq!(total, 1.0);
        assert_eq!(ExecutionTrace::default().busy_fraction_in(0.0, 4.0), 0.0);
    }

    #[test]
    fn ascii_render_has_one_row_per_core() {
        let events = [
            start(0, 0),
            stop(1, 0, StopReason::Exit),
            start(0, 3),
            stop(1, 3, StopReason::Exit),
        ];
        let d = ExecutionTrace::from_events(
            vec![Freq::from_ghz(2.0); 4],
            &events,
            Time::from_millis(2),
        );
        let s = d.render_ascii(500_000, 4.0);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("core    0 |"));
        assert!(s.contains('5'), "2.0/4.0 GHz renders as level 5: {s}");
    }

    #[test]
    fn zero_length_spans_are_dropped() {
        let events = [start(0, 0), stop(0, 0, StopReason::Block)];
        let d =
            ExecutionTrace::from_events(vec![Freq::from_ghz(1.0)], &events, Time::from_millis(1));
        assert!(d.spans.is_empty());
    }
}
