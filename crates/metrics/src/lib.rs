#![deny(missing_docs)]

//! Measurement for the Nest reproduction.
//!
//! Probes subscribe to the engine's trace stream and compute the paper's
//! metrics: underload (§5.2), frequency residency (Figures 6/11),
//! execution traces (Figures 2/8/9), wakeup latency (schbench, §5.6), and
//! placement accounting; [`stats`] provides the measurement conventions of
//! §5.1 (averages, standard deviations, normalized speedups).

pub mod fleet;
pub mod freqdist;
pub mod latency;
pub mod phase;
pub mod placement;
pub mod serve;
pub mod stats;
pub mod summary;
pub mod tail;
pub mod trace;
pub mod underload;

pub use fleet::{FleetMetrics, FleetRunStats, FleetSummary, FleetWindow};
pub use freqdist::{FreqResidency, FreqResidencyProbe};
pub use latency::{WakeupLatencies, WakeupLatencyProbe};
pub use phase::{PhaseBreakdownProbe, PhaseMetrics, N_PHASES, PHASE_NAMES};
pub use placement::PlacementCounts;
pub use serve::{ServeMetrics, ServeMetricsProbe, ServeSummary};
pub use stats::{improvement_pct, improvement_stats, savings_pct, speedup_pct, table4_band, Stats};
pub use summary::{LatencySummary, RunSummary};
pub use tail::TailHistogram;
pub use trace::{ExecutionTrace, Span};
pub use underload::{UnderloadData, UnderloadProbe};
