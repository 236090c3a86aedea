//! Bounded trace capture with class and window filters.

use std::collections::VecDeque;

use nest_simcore::{Probe, Time, TraceEvent};

/// A coarse classification of [`TraceEvent`]s, used by capture filters
/// and the `nest-sim trace --events` flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// Task lifetime: `TaskCreated`, `TaskExited`.
    Task,
    /// Placement decisions: `Placed`, `Woken`.
    Placement,
    /// Core occupancy: `RunStart`, `RunStop`.
    Run,
    /// Frequency changes: `FreqChange`.
    Freq,
    /// Idle spinning: `SpinStart`, `SpinEnd`.
    Spin,
    /// Nest lifecycle: `NestExpand`, `NestShrink`, `NestCompaction`.
    Nest,
    /// Machine-wide runnable count: `RunnableCount`.
    Runnable,
    /// Fault injection: `CoreOffline`, `CoreOnline`, `SocketThrottle`.
    Fault,
}

impl EventClass {
    /// Every class, in display order.
    pub const ALL: [EventClass; 8] = [
        EventClass::Task,
        EventClass::Placement,
        EventClass::Run,
        EventClass::Freq,
        EventClass::Spin,
        EventClass::Nest,
        EventClass::Runnable,
        EventClass::Fault,
    ];

    /// The class of `event`.
    pub fn of(event: &TraceEvent) -> EventClass {
        match event {
            TraceEvent::TaskCreated { .. } | TraceEvent::TaskExited { .. } => EventClass::Task,
            TraceEvent::Placed { .. } | TraceEvent::Woken { .. } => EventClass::Placement,
            TraceEvent::RunStart { .. } | TraceEvent::RunStop { .. } => EventClass::Run,
            TraceEvent::FreqChange { .. } => EventClass::Freq,
            TraceEvent::SpinStart { .. } | TraceEvent::SpinEnd { .. } => EventClass::Spin,
            TraceEvent::NestExpand { .. }
            | TraceEvent::NestShrink { .. }
            | TraceEvent::NestCompaction { .. } => EventClass::Nest,
            TraceEvent::RunnableCount { .. } => EventClass::Runnable,
            TraceEvent::CoreOffline { .. }
            | TraceEvent::CoreOnline { .. }
            | TraceEvent::SocketThrottle { .. } => EventClass::Fault,
        }
    }

    /// The lower-case name used by CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Task => "task",
            EventClass::Placement => "placement",
            EventClass::Run => "run",
            EventClass::Freq => "freq",
            EventClass::Spin => "spin",
            EventClass::Nest => "nest",
            EventClass::Runnable => "runnable",
            EventClass::Fault => "fault",
        }
    }

    /// Parses a CLI class name ([`EventClass::name`]).
    pub fn parse(s: &str) -> Option<EventClass> {
        EventClass::ALL.iter().copied().find(|c| c.name() == s)
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// The captured slice of a run's trace, collected by [`TraceCollector`];
/// its events are settled when the simulation finishes.
#[derive(Default)]
pub struct TraceLog {
    /// Captured `(time, event)` pairs, in emission order.
    pub events: Vec<(Time, TraceEvent)>,
    /// Events that passed the filters but were evicted by the ring bound
    /// (the ring keeps the most recent `capacity` events).
    pub dropped: u64,
    /// The simulation finish time.
    pub duration: Time,
}

/// A bounded ring-buffer capture probe.
///
/// Events are filtered by class and time window, then kept in a ring of
/// fixed capacity: when full, the oldest captured event is evicted (and
/// counted in [`TraceLog::dropped`]), so the log always holds the most
/// recent slice. The window is half-open, `lo <= t < hi`.
pub struct TraceCollector {
    /// The captured log; complete once the run finishes.
    pub log: TraceLog,
    buf: VecDeque<(Time, TraceEvent)>,
    capacity: usize,
    window: Option<(Time, Time)>,
    class_mask: u32,
}

impl TraceCollector {
    /// The default ring capacity, in events.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a collector keeping at most `capacity` events.
    pub fn new(capacity: usize) -> TraceCollector {
        TraceCollector {
            log: TraceLog::default(),
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            window: None,
            class_mask: u32::MAX,
        }
    }

    /// Restricts capture to events with `lo <= t < hi`.
    pub fn with_window(mut self, lo: Time, hi: Time) -> TraceCollector {
        self.window = Some((lo, hi));
        self
    }

    /// Restricts capture to the given event classes (default: all).
    pub fn with_classes(mut self, classes: &[EventClass]) -> TraceCollector {
        self.class_mask = classes.iter().fold(0, |m, c| m | c.bit());
        self
    }
}

impl Probe for TraceCollector {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        if EventClass::of(event).bit() & self.class_mask == 0 {
            return;
        }
        if let Some((lo, hi)) = self.window {
            if now < lo || now >= hi {
                return;
            }
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.log.dropped += 1;
        }
        self.buf.push_back((now, event.clone()));
    }

    fn on_finish(&mut self, now: Time) {
        self.log.events = std::mem::take(&mut self.buf).into();
        self.log.duration = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::{CoreId, TaskId};

    fn woken(t: u64) -> (Time, TraceEvent) {
        (Time::from_nanos(t), TraceEvent::Woken { task: TaskId(1) })
    }

    fn feed(c: &mut TraceCollector, events: &[(Time, TraceEvent)], finish: u64) {
        for (t, ev) in events {
            c.on_event(*t, ev);
        }
        c.on_finish(Time::from_nanos(finish));
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut c = TraceCollector::new(2);
        feed(&mut c, &[woken(1), woken(2), woken(3)], 10);
        let log = &c.log;
        assert_eq!(log.dropped, 1);
        assert_eq!(log.duration, Time::from_nanos(10));
        let times: Vec<u64> = log.events.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![2, 3]);
    }

    #[test]
    fn window_filter_is_half_open() {
        let mut c = TraceCollector::new(16).with_window(Time::from_nanos(2), Time::from_nanos(4));
        feed(&mut c, &[woken(1), woken(2), woken(3), woken(4)], 10);
        let times: Vec<u64> = c.log.events.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![2, 3], "window is [lo, hi)");
    }

    #[test]
    fn class_filter_selects_classes() {
        let mut c = TraceCollector::new(16).with_classes(&[EventClass::Spin]);
        c.on_event(Time::from_nanos(1), &TraceEvent::Woken { task: TaskId(1) });
        c.on_event(
            Time::from_nanos(2),
            &TraceEvent::SpinStart { core: CoreId(0) },
        );
        c.on_finish(Time::from_nanos(3));
        let log = &c.log;
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].1, TraceEvent::SpinStart { core: CoreId(0) });
    }

    #[test]
    fn class_names_round_trip() {
        for c in EventClass::ALL {
            assert_eq!(EventClass::parse(c.name()), Some(c));
        }
        assert_eq!(EventClass::parse("bogus"), None);
    }

    #[test]
    fn every_event_kind_has_a_class() {
        // Representative events; a new TraceEvent variant without a class
        // arm fails to compile in `EventClass::of`.
        let nest = TraceEvent::NestCompaction {
            core: CoreId(1),
            primary: 2,
            reserve: 3,
        };
        assert_eq!(EventClass::of(&nest), EventClass::Nest);
    }
}
