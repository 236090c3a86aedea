#![deny(missing_docs)]

//! Public API of the Nest scheduler simulation.
//!
//! This crate ties the substrates together behind a small surface:
//!
//! * [`SimConfig`] — machine + policy + governor + seed;
//! * [`run_once`] — execute a workload, returning a [`RunResult`] with
//!   the paper's metrics attached; [`run_seed`] derives the seed of each
//!   repeated run;
//! * [`experiment`] — multi-run comparisons with speedups and standard
//!   deviations computed the way §5.1 specifies.
//!
//! # Examples
//!
//! ```
//! use nest_core::{PolicyKind, SimConfig, run_once};
//! use nest_core::Governor;
//! use nest_core::presets;
//! use nest_workloads::configure::Configure;
//!
//! let cfg = SimConfig::new(presets::xeon_5218())
//!     .policy(PolicyKind::Nest)
//!     .governor(Governor::Schedutil);
//! let result = run_once(&cfg, &Configure::named("gdb"));
//! assert!(result.time_s > 0.0);
//! ```

pub mod experiment;
pub mod fleet;
pub mod sim;
pub mod snapshot;

pub use experiment::{Comparison, SchedulerSetup};
pub use sim::{run_once, run_once_with, run_seed, PolicyKind, RunResult, SimConfig};
pub use snapshot::{
    behavior_registry, read_header, restore, run_until, PausedSim, Progress, SnapError,
    SnapshotHeader, SNAPSHOT_SCHEMA,
};

pub use nest_metrics::RunSummary;

pub use nest_engine::{Engine, EngineConfig, RunOutcome};
pub use nest_freq::Governor;
pub use nest_sched::{CfsParams, NestParams, SmoveParams};
pub use nest_topology::{presets, MachineSpec, Topology};
pub use nest_workloads::Workload;
