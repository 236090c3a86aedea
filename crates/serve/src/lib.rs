//! Open-loop request-serving workload generation.
//!
//! Nest's deployment regime is latency-critical serving at low-to-moderate
//! utilization, where keeping tasks on warm cores pays off in tail latency
//! and energy. This crate models that regime as an *open-loop* request
//! stream: arrivals follow a configured stochastic process and do **not**
//! slow down when the system lags, so queueing delay shows up in the
//! measured response times instead of silently throttling the offered
//! load (the coordinated-omission mistake of closed-loop drivers).
//!
//! The pieces:
//!
//! * [`spec`] — [`ServeSpec`], the knob set (`rate`, `dist`, `fanout`,
//!   `slo`, …) shared with the scenario registry's `serve:` grammar.
//! * [`arrival`] — Poisson and bursty on-off (two-state MMPP) arrival
//!   processes, with optional diurnal sinusoidal load ramps.
//! * [`dist`] — pluggable service-time distributions (deterministic,
//!   exponential, lognormal, bimodal).
//! * [`materialize()`] — turns a spec into a time-sorted injection plan of
//!   [`nest_simcore::TaskSpec`]s, a pure function of `(spec, plan index,
//!   seed)` so runs are byte-identical at any worker count.
//! * [`pool`] — the request-driver / service-worker behaviours shared by
//!   the closed-loop `server` and `schbench` workload models.

#![deny(missing_docs)]

pub mod arrival;
pub mod dist;
pub mod materialize;
pub mod pool;
pub mod spec;

pub use arrival::ArrivalKind;
pub use dist::ServiceDist;
pub use materialize::{materialize, REQUEST_LABEL_PREFIX};
pub use pool::{register_behaviors, OpenLoopDriver, ServiceWorker};
pub use spec::ServeSpec;
