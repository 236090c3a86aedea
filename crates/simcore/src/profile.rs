//! A lightweight self-profiler for the simulator's hot paths.
//!
//! The profiler answers "where do the cycles go?" for a simulation run:
//! per-subsystem invocation counts and wall-clock time, accumulated in
//! process-wide atomic counters so that every engine on every harness
//! worker thread feeds the same totals. The harness snapshots the counters
//! around a figure run and emits the delta into the figure's
//! `.telemetry.json` sidecar.
//!
//! Two cost tiers keep the hot path honest:
//!
//! * **Always on**: the engine counts dispatched events in a plain local
//!   integer and flushes it once per run ([`add_events`]). This feeds the
//!   events/sec throughput number at the cost of one atomic add per
//!   *simulation*, not per event.
//! * **Opt-in** (`NEST_PROFILE=1`): subsystem [`Span`]s take two
//!   `Instant::now()` readings per instrumented call. When the profiler is
//!   disabled every instrumentation site reduces to one relaxed atomic
//!   load and a predictable branch.
//!
//! Wall-clock readings are host time and therefore nondeterministic; they
//! only ever reach telemetry sidecars, never the deterministic
//! `results/<figure>.json` artifacts (see `PROFILING.md`).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// The instrumented subsystems, in report order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Subsystem {
    /// Engine event dispatch (every event popped from the queue).
    EventDispatch = 0,
    /// CFS fork placement: socket descent plus idlest-core scan.
    CfsFork = 1,
    /// CFS wakeup placement: wake-affine check plus die idle search.
    CfsWakeup = 2,
    /// Nest primary-nest scan (including lazy compaction).
    NestPrimaryScan = 3,
    /// Nest reserve-nest scan.
    NestReserveScan = 4,
    /// PELT decay updates (count only; the update itself is ~one `powf`).
    PeltDecay = 5,
    /// Load balancing: newidle and periodic pull-source searches.
    LoadBalance = 6,
    /// Frequency model advance (`schedutil` sampling, ramp dynamics).
    FreqModel = 7,
    /// Socket-statistics cache refreshes (CFS fork descent input).
    SocketStats = 8,
    /// Instantaneous-power recomputation in the energy integrator.
    FreqPower = 9,
    /// The per-core scheduler-tick loop (clock, preempt, pull checks).
    TickLoop = 10,
    /// Trace-event fan-out to metric probes.
    TraceProbes = 11,
}

/// Number of [`Subsystem`] variants.
pub const N_SUBSYSTEMS: usize = 12;

/// Subsystem names as they appear in telemetry JSON, in enum order.
pub const SUBSYSTEM_NAMES: [&str; N_SUBSYSTEMS] = [
    "event_dispatch",
    "cfs_fork",
    "cfs_wakeup",
    "nest_primary_scan",
    "nest_reserve_scan",
    "pelt_decay",
    "load_balance",
    "freq_model",
    "socket_stats",
    "freq_power",
    "tick_loop",
    "trace_probes",
];

// 0 = uninitialized, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static CALLS: [AtomicU64; N_SUBSYSTEMS] = [ZERO; N_SUBSYSTEMS];
static NANOS: [AtomicU64; N_SUBSYSTEMS] = [ZERO; N_SUBSYSTEMS];
/// Total events dispatched across all engines, regardless of `enabled()`.
static EVENTS: AtomicU64 = AtomicU64::new(0);

#[cold]
fn init_from_env() -> bool {
    let on = matches!(
        std::env::var("NEST_PROFILE").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    );
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// `true` if subsystem profiling is on (`NEST_PROFILE=1`).
///
/// The first call reads the environment; subsequent calls are a relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s == 2,
    }
}

/// Forces profiling on or off, overriding `NEST_PROFILE` (tests use this).
pub fn force_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Adds one invocation to `sub` when profiling is enabled. For hot sites
/// whose per-call time is too small to measure (e.g. one PELT decay).
#[inline]
pub fn count(sub: Subsystem) {
    if enabled() {
        CALLS[sub as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Adds `calls` invocations and `nanos` of wall time to `sub`.
pub fn add(sub: Subsystem, calls: u64, nanos: u64) {
    CALLS[sub as usize].fetch_add(calls, Ordering::Relaxed);
    NANOS[sub as usize].fetch_add(nanos, Ordering::Relaxed);
}

/// Records events dispatched by an engine run (always counted; feeds
/// events/sec in telemetry).
pub fn add_events(n: u64) {
    EVENTS.fetch_add(n, Ordering::Relaxed);
}

/// Total events dispatched process-wide since start (or [`reset`]).
pub fn events_total() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

/// A RAII timer for one subsystem invocation.
///
/// When profiling is disabled, constructing and dropping a span is one
/// relaxed load and a branch; when enabled it records one call and the
/// elapsed wall time.
pub struct Span {
    sub: Subsystem,
    start: Option<Instant>,
}

/// Starts timing one invocation of `sub` (no-op when disabled).
#[inline]
pub fn span(sub: Subsystem) -> Span {
    Span {
        sub,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            add(self.sub, 1, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Accumulated totals for one subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubsystemTotals {
    /// Invocations recorded.
    pub calls: u64,
    /// Wall-clock nanoseconds recorded (0 for count-only sites).
    pub nanos: u64,
}

/// A point-in-time copy of all profiler counters.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Per-subsystem totals, indexed in [`Subsystem`] enum order.
    pub subsystems: [SubsystemTotals; N_SUBSYSTEMS],
    /// Events dispatched (always counted).
    pub events: u64,
}

impl Snapshot {
    /// The counters accumulated since `earlier` (saturating).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot {
            events: self.events.saturating_sub(earlier.events),
            ..Snapshot::default()
        };
        for i in 0..N_SUBSYSTEMS {
            out.subsystems[i] = SubsystemTotals {
                calls: self.subsystems[i]
                    .calls
                    .saturating_sub(earlier.subsystems[i].calls),
                nanos: self.subsystems[i]
                    .nanos
                    .saturating_sub(earlier.subsystems[i].nanos),
            };
        }
        out
    }

    /// Iterates `(name, totals)` in report order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, SubsystemTotals)> + '_ {
        SUBSYSTEM_NAMES
            .iter()
            .zip(self.subsystems.iter())
            .map(|(&n, &t)| (n, t))
    }
}

/// Reads all counters.
pub fn snapshot() -> Snapshot {
    let mut s = Snapshot {
        events: events_total(),
        ..Snapshot::default()
    };
    for i in 0..N_SUBSYSTEMS {
        s.subsystems[i] = SubsystemTotals {
            calls: CALLS[i].load(Ordering::Relaxed),
            nanos: NANOS[i].load(Ordering::Relaxed),
        };
    }
    s
}

/// Zeroes all counters (tests; the harness uses snapshot deltas instead).
pub fn reset() {
    for i in 0..N_SUBSYSTEMS {
        CALLS[i].store(0, Ordering::Relaxed);
        NANOS[i].store(0, Ordering::Relaxed);
    }
    EVENTS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-global, so the tests below only ever add
    // and compare deltas — they stay correct when run concurrently.

    #[test]
    fn events_accumulate() {
        let before = snapshot();
        add_events(120);
        add_events(3);
        let delta = snapshot().since(&before);
        assert!(delta.events >= 123);
    }

    #[test]
    fn force_toggle_controls_recording() {
        // One test owns the global flag to avoid races between parallel
        // tests flipping it.
        force_enabled(true);
        let before = snapshot();
        {
            let _s = span(Subsystem::CfsFork);
            std::hint::black_box(17u64);
        }
        count(Subsystem::PeltDecay);
        let delta = snapshot().since(&before);
        assert!(delta.subsystems[Subsystem::CfsFork as usize].calls >= 1);
        assert!(delta.subsystems[Subsystem::PeltDecay as usize].calls >= 1);

        force_enabled(false);
        let before = snapshot();
        {
            let _s = span(Subsystem::SocketStats);
        }
        count(Subsystem::SocketStats);
        let delta = snapshot().since(&before);
        assert_eq!(delta.subsystems[Subsystem::SocketStats as usize].calls, 0);
    }

    #[test]
    fn names_cover_every_subsystem() {
        assert_eq!(SUBSYSTEM_NAMES.len(), N_SUBSYSTEMS);
        let s = snapshot();
        assert_eq!(s.entries().count(), N_SUBSYSTEMS);
    }
}
