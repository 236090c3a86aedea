//! The paper's *underload* metric (§5.2).
//!
//! Underload in a time interval is the difference between the number of
//! cores used at any point in the interval and the maximum number of tasks
//! simultaneously runnable in it. Positive underload means insufficient
//! core reuse: a long-idle (cold, slow) core was chosen although a warm
//! core used earlier in the interval would have sufficed.
//!
//! Two granularities are tracked, matching the paper's two uses:
//!
//! * 4 ms (one tick) intervals for the underload *timeline* (Figure 3);
//! * 1 s windows for the *underload per second* figure-of-merit
//!   (Figure 4): "the average amount of underload occurring within the
//!   execution of an application over 1 second".

use nest_simcore::json::{self, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{snap_struct, Probe, Time, TraceEvent, SEC, TICK_NS};

/// Per-interval usage snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntervalStat {
    /// Distinct cores that ran anything during the interval.
    pub cores_used: u32,
    /// Maximum simultaneously runnable tasks during the interval.
    pub max_runnable: u32,
}

impl IntervalStat {
    /// Positive part of `cores_used - max_runnable`.
    pub fn underload(&self) -> u32 {
        self.cores_used.saturating_sub(self.max_runnable)
    }
}

snap_struct!(IntervalStat {
    "cores_used": cores_used,
    "max_runnable": max_runnable,
});

/// The cursor of one fixed-size-window underload series; the series
/// itself lives in [`UnderloadData`].
struct WindowTracker {
    interval_ns: u64,
    cur_interval: usize,
    used_mark: Vec<Option<usize>>,
}

impl WindowTracker {
    fn new(n_cores: usize, interval_ns: u64) -> WindowTracker {
        WindowTracker {
            interval_ns,
            cur_interval: 0,
            used_mark: vec![None; n_cores],
        }
    }

    fn roll_to(
        &mut self,
        intervals: &mut Vec<IntervalStat>,
        now: Time,
        busy: &[bool],
        cur_runnable: u32,
    ) {
        let idx = (now.as_nanos() / self.interval_ns) as usize;
        while self.cur_interval < idx {
            self.cur_interval += 1;
            let mut stat = IntervalStat {
                cores_used: 0,
                max_runnable: cur_runnable,
            };
            // Cores busy across the boundary count in the new interval.
            for (c, &b) in busy.iter().enumerate() {
                if b {
                    stat.cores_used += 1;
                    self.used_mark[c] = Some(self.cur_interval);
                }
            }
            intervals.push(stat);
        }
    }

    fn mark_used(&mut self, intervals: &mut [IntervalStat], core: usize) {
        if self.used_mark[core] != Some(self.cur_interval) {
            self.used_mark[core] = Some(self.cur_interval);
            intervals[self.cur_interval].cores_used += 1;
        }
    }

    fn note_runnable(&self, intervals: &mut [IntervalStat], count: u32) {
        let cur = &mut intervals[self.cur_interval];
        cur.max_runnable = cur.max_runnable.max(count);
    }

    fn save(&self, intervals: &[IntervalStat]) -> Json {
        json::obj(vec![
            ("cur_interval", self.cur_interval.save()),
            ("used_mark", self.used_mark.save()),
            (
                "intervals",
                Json::Arr(intervals.iter().map(Snap::save).collect()),
            ),
        ])
    }

    fn load(&mut self, intervals: &mut Vec<IntervalStat>, state: &Json) -> Result<(), String> {
        self.cur_interval = snap::load(state, "cur_interval")?;
        self.used_mark = snap::load_len(state, "used_mark", self.used_mark.len())?;
        *intervals = snap::load(state, "intervals")?;
        if self.cur_interval >= intervals.len() {
            return Err("underload snapshot's current interval is out of range".to_string());
        }
        Ok(())
    }
}

/// Underload data, collected in place by [`UnderloadProbe`].
#[derive(Debug, Default)]
pub struct UnderloadData {
    /// One entry per 4 ms tick interval (the Figure 3 timeline).
    pub intervals: Vec<IntervalStat>,
    /// One entry per 1 s window (the Figure 4 metric).
    pub seconds: Vec<IntervalStat>,
    /// Total simulated duration observed.
    pub duration: Time,
}

impl UnderloadData {
    /// Sum of per-tick-interval underloads (timeline total).
    pub fn total_underload(&self) -> u64 {
        self.intervals.iter().map(|i| i.underload() as u64).sum()
    }

    /// The Figure 4 metric: underload accumulated by the 1-second
    /// windows, normalized by the run duration.
    pub fn underload_per_second(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        let total: u64 = self.seconds.iter().map(|i| i.underload() as u64).sum();
        total as f64 / secs
    }

    /// The underload timeline as `(seconds, underload)` pairs (Figure 3),
    /// at tick (4 ms) granularity.
    pub fn series(&self) -> Vec<(f64, u32)> {
        self.intervals
            .iter()
            .enumerate()
            .map(|(i, s)| ((i as u64 * TICK_NS) as f64 / 1e9, s.underload()))
            .collect()
    }
}

/// Probe computing underload from the trace stream.
pub struct UnderloadProbe {
    /// The collected underload, complete once the run finishes.
    pub data: UnderloadData,
    ticks: WindowTracker,
    seconds: WindowTracker,
    busy: Vec<bool>,
    cur_runnable: u32,
}

impl UnderloadProbe {
    /// Creates the probe for a machine of `n_cores` cores.
    pub fn new(n_cores: usize) -> UnderloadProbe {
        UnderloadProbe {
            data: UnderloadData {
                intervals: vec![IntervalStat::default()],
                seconds: vec![IntervalStat::default()],
                duration: Time::ZERO,
            },
            ticks: WindowTracker::new(n_cores, TICK_NS),
            seconds: WindowTracker::new(n_cores, SEC),
            busy: vec![false; n_cores],
            cur_runnable: 0,
        }
    }

    fn roll_to(&mut self, now: Time) {
        let d = &mut self.data;
        self.ticks
            .roll_to(&mut d.intervals, now, &self.busy, self.cur_runnable);
        self.seconds
            .roll_to(&mut d.seconds, now, &self.busy, self.cur_runnable);
    }
}

impl Probe for UnderloadProbe {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        self.roll_to(now);
        let d = &mut self.data;
        match event {
            TraceEvent::RunStart { core, .. } => {
                self.busy[core.index()] = true;
                self.ticks.mark_used(&mut d.intervals, core.index());
                self.seconds.mark_used(&mut d.seconds, core.index());
            }
            TraceEvent::RunStop { core, .. } => {
                self.busy[core.index()] = false;
            }
            TraceEvent::RunnableCount { count } => {
                self.cur_runnable = *count;
                self.ticks.note_runnable(&mut d.intervals, *count);
                self.seconds.note_runnable(&mut d.seconds, *count);
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, now: Time) {
        self.roll_to(now);
        self.data.duration = now;
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some((
            "metrics.underload",
            json::obj(vec![
                ("ticks", self.ticks.save(&self.data.intervals)),
                ("seconds", self.seconds.save(&self.data.seconds)),
                ("busy", self.busy.save()),
                ("cur_runnable", self.cur_runnable.save()),
            ]),
        ))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        let d = &mut self.data;
        self.ticks
            .load(&mut d.intervals, snap::field(state, "ticks")?)?;
        self.seconds
            .load(&mut d.seconds, snap::field(state, "seconds")?)?;
        self.busy = snap::load_len(state, "busy", self.busy.len())?;
        self.cur_runnable = snap::load(state, "cur_runnable")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::{CoreId, TaskId};

    fn run_start(core: u32) -> TraceEvent {
        TraceEvent::RunStart {
            task: TaskId(0),
            core: CoreId(core),
        }
    }

    fn run_stop(core: u32) -> TraceEvent {
        TraceEvent::RunStop {
            task: TaskId(0),
            core: CoreId(core),
            reason: nest_simcore::StopReason::Block,
        }
    }

    #[test]
    fn no_activity_no_underload() {
        let mut p = UnderloadProbe::new(4);
        p.on_finish(Time::from_millis(40));
        assert_eq!(p.data.total_underload(), 0);
        assert_eq!(p.data.intervals.len(), 11);
        assert_eq!(p.data.underload_per_second(), 0.0);
    }

    #[test]
    fn serial_task_bouncing_cores_creates_underload() {
        let mut p = UnderloadProbe::new(8);
        // One runnable task hopping over 3 cores within one tick:
        // 3 used - 1 runnable = 2 underload in the tick timeline.
        p.on_event(Time::ZERO, &TraceEvent::RunnableCount { count: 1 });
        for (i, c) in [0u32, 1, 2].iter().enumerate() {
            let t = Time::from_nanos(i as u64 * 1_000_000);
            p.on_event(t, &run_start(*c));
            p.on_event(t + 500_000, &run_stop(*c));
        }
        p.on_finish(Time::from_nanos(TICK_NS));
        assert_eq!(p.data.total_underload(), 2);
        // The same 2 underload lands in the single 1-second window.
        let dref = &p.data;
        assert_eq!(dref.seconds.len(), 1);
        assert_eq!(dref.seconds[0].underload(), 2);
    }

    #[test]
    fn per_second_windows_aggregate_tick_bounces() {
        let mut p = UnderloadProbe::new(16);
        p.on_event(Time::ZERO, &TraceEvent::RunnableCount { count: 1 });
        // The task visits one *new* core every 100 ms: tick intervals see
        // single-core usage (0 underload each), but the second window
        // sees 10 cores for 1 runnable → 9 underload per second.
        for i in 0..10u64 {
            let t = Time::from_nanos(i * 100 * 1_000_000);
            p.on_event(t, &run_start(i as u32));
            p.on_event(t + 50_000_000, &run_stop(i as u32));
        }
        p.on_finish(Time::from_secs(1));
        let dref = &p.data;
        assert_eq!(dref.total_underload(), 0, "ticks see no bounce");
        assert!((dref.underload_per_second() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_of_one_core_has_zero_underload() {
        let mut p = UnderloadProbe::new(8);
        p.on_event(Time::ZERO, &TraceEvent::RunnableCount { count: 1 });
        for i in 0..3u64 {
            let t = Time::from_nanos(i * 1_000_000);
            p.on_event(t, &run_start(0));
            p.on_event(t + 500_000, &run_stop(0));
        }
        p.on_finish(Time::from_nanos(TICK_NS));
        assert_eq!(p.data.total_underload(), 0);
        assert_eq!(p.data.underload_per_second(), 0.0);
    }

    #[test]
    fn parallel_tasks_are_not_underload() {
        let mut p = UnderloadProbe::new(8);
        p.on_event(Time::ZERO, &TraceEvent::RunnableCount { count: 4 });
        for c in 0..4u32 {
            p.on_event(Time::from_nanos(c as u64 * 1000), &run_start(c));
        }
        p.on_finish(Time::from_nanos(TICK_NS));
        assert_eq!(p.data.total_underload(), 0);
        assert_eq!(p.data.underload_per_second(), 0.0);
    }

    #[test]
    fn busy_core_spans_interval_boundary() {
        let mut p = UnderloadProbe::new(8);
        p.on_event(Time::ZERO, &TraceEvent::RunnableCount { count: 1 });
        p.on_event(Time::ZERO, &run_start(0));
        p.on_event(Time::from_nanos(TICK_NS + 1000), &run_start(1));
        p.on_finish(Time::from_nanos(2 * TICK_NS));
        let d = &p.data;
        assert_eq!(d.intervals[0].underload(), 0);
        assert_eq!(d.intervals[1].cores_used, 2);
        assert_eq!(d.intervals[1].underload(), 1);
    }

    #[test]
    fn underload_per_second_normalizes_by_duration() {
        let mut p = UnderloadProbe::new(8);
        p.on_event(Time::ZERO, &TraceEvent::RunnableCount { count: 1 });
        p.on_event(Time::ZERO, &run_start(0));
        p.on_event(Time::from_nanos(1000), &run_stop(0));
        p.on_event(Time::from_nanos(2000), &run_start(1));
        p.on_event(Time::from_nanos(3000), &run_stop(1));
        p.on_finish(Time::from_secs(2));
        // 1 underload (in the first second window) over 2 seconds.
        assert!((p.data.underload_per_second() - 0.5).abs() < 1e-9);
    }
}
