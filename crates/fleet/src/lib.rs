#![deny(missing_docs)]

//! Multi-host fleet front-end for the Nest reproduction.
//!
//! The paper keeps tasks on *warm cores* within one machine; this crate
//! supplies the cluster-scale vocabulary for asking the same question
//! across machines: a `fleet:` spec (hosts, load-balancing policy,
//! client-side robustness knobs, host-level fault clauses), pure
//! load-balancer choice functions, and a deterministic
//! capped-exponential-backoff sampler. The co-simulation driver that
//! executes a fleet lives in `nest-core` (it owns the engine); this crate
//! holds only plain data and pure functions so every layer — scenario
//! parsing, the driver, the figure binaries — shares one definition.
//!
//! * [`FleetSpec`] — the knobs of a `fleet:hosts=4,lb=warmth,retry=2`
//!   spec as plain data, plus [`FleetSpec::validate`]; the grammar that
//!   parses and renders them is `nest-scenario`'s.
//! * [`choose_host`] — round-robin / least-outstanding / warmth-aware
//!   host selection over [`HostView`]s.
//! * [`BackoffSampler`] — capped exponential backoff with deterministic
//!   jitter: the delay is a pure function of `(seed, request id,
//!   attempt)`, so retry schedules are byte-identical at any `NEST_JOBS`.

pub mod backoff;
pub mod lb;
pub mod spec;

pub use backoff::BackoffSampler;
pub use lb::{choose_host, HostView};
pub use spec::{FleetSpec, HedgeMode, HostDegrade, HostDown, LbPolicy};
