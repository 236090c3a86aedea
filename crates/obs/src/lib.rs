//! Observability for the Nest simulator.
//!
//! The paper diagnoses Nest's behavior by reading `trace-cmd`/kernelshark
//! execution traces and frequency timelines (Figures 2, 8, 9); this crate
//! gives the simulator the same lens. It consumes the engine's
//! [`TraceEvent`](nest_simcore::TraceEvent) stream through two probes:
//!
//! * [`TraceCollector`] — a bounded ring-buffer capture with event-class
//!   and time-window filters, exported to Chrome trace-event JSON by
//!   [`chrome_trace_json`] (loadable in the Perfetto UI or
//!   chrome://tracing);
//! * [`DecisionMetricsProbe`] — aggregates scheduling-decision metrics
//!   (wakeup→run latency histogram, placement-path breakdown,
//!   migrations/sec, Nest fallback rate, spin duty-cycle, nest-occupancy
//!   timeline) into a [`DecisionMetrics`], which the harness merges into
//!   every `.telemetry.json` sidecar;
//! * [`InvariantChecker`] — replays the kernel-state machine from the
//!   trace and validates consistency on every event (task on ≤ 1 core,
//!   nests ⊆ online cores, frequencies inside the machine envelope, …),
//!   either failing fast for tests or tallying [`InvariantCounts`] for
//!   telemetry;
//! * [`TimeSeriesSampler`] — interval-sampled machine state (per-domain
//!   utilization, mean frequency, nest occupancy, runnable depth,
//!   instantaneous power) as a bounded columnar [`TimeSeries`], also
//!   exportable as chrome-trace counter tracks via
//!   [`timeseries_counters`] ([`chrome_trace_with_timeseries`] merges
//!   them into a collected trace, which is what `nest-sim trace` writes).
//!
//! All are strictly observers: they never touch engine state, so running
//! with or without them produces byte-identical `results/*.json`.

#![deny(missing_docs)]

pub mod chrome;
pub mod collector;
pub mod decision;
pub mod invariant;
pub mod timeseries;

pub use chrome::{chrome_trace_json, chrome_trace_with_timeseries, timeseries_counters};
pub use collector::{EventClass, TraceCollector, TraceLog};
pub use decision::{DecisionMetrics, DecisionMetricsProbe, LATENCY_BUCKET_EDGES_NS, TIMELINE_CAP};
pub use invariant::{InvariantChecker, InvariantCounts};
pub use timeseries::{TimeSeries, TimeSeriesSampler, DEFAULT_SAMPLE_INTERVAL_NS, SAMPLE_CAP};
