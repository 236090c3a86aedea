//! Deterministic discrete-event simulation primitives.
//!
//! This crate provides the foundation shared by the whole Nest simulator:
//! simulated time ([`Time`]) and the duration text form every spec grammar
//! shares ([`time::parse_duration`], [`time::format_duration`]), frequency
//! units ([`Freq`]), entity identifiers ([`CoreId`], [`TaskId`],
//! [`SocketId`]), a stable-ordered event queue ([`EventQueue`]; a plain
//! min-heap, since the engine retires stale events by generation rather
//! than cancelling them), a seedable random-number generator ([`SimRng`]),
//! the task behaviour model ([`Action`], [`Behavior`], [`TaskSpec`]), and
//! the probe (tracing) interface ([`Probe`], [`TraceEvent`]).
//!
//! Everything here is deterministic: two simulations constructed with the
//! same machine, workload, and seed produce bit-identical event sequences.
//! That property underpins both the test suite and the reproducibility of
//! the paper's experiments. The one intentionally nondeterministic module
//! is [`profile`], the opt-in self-profiler — its wall-clock readings only
//! ever reach telemetry sidecars, never simulation results.

#![deny(missing_docs)]

pub mod events;
pub mod ids;
pub mod json;
pub mod probe;
pub mod profile;
pub mod rng;
pub mod setup;
pub mod snap;
pub mod task;
pub mod time;
pub mod units;

pub use events::EventQueue;
pub use ids::{BarrierId, CcxId, ChannelId, CoreId, SocketId, TaskId};
pub use json::Json;
pub use probe::{PlacementPath, Probe, StopReason, TraceEvent};
pub use rng::SimRng;
pub use setup::SimSetup;
pub use snap::BehaviorRegistry;
pub use task::{Action, Behavior, FnBehavior, ScriptBehavior, TaskSpec};
pub use time::{Time, MICROSEC, MILLISEC, NANOSEC, SEC, TICK_NS};
pub use units::{Cycles, Freq};
