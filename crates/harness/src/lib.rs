#![deny(missing_docs)]

//! Parallel, deterministic experiment harness for the Nest reproduction.
//!
//! The figure/table binaries describe their `(machine × scheduler ×
//! workload × run)` matrices to a [`Matrix`], which fans the cells across
//! worker threads, serves repeats from a content-addressed on-disk cache,
//! and assembles the same [`Comparison`](nest_core::Comparison)s the old
//! serial loop produced — plus structured JSON artifacts under `results/`.
//!
//! # Determinism contract
//!
//! Results are **byte-identical** for a given base seed regardless of the
//! worker count, cache state, or cell completion order:
//!
//! * each cell's seed is a pure SplitMix hash of its coordinates
//!   ([`cell_seed`]);
//! * each cell's simulation runs entirely inside one worker thread (the
//!   engine's `Rc`/`RefCell` graph is built and dropped there; only
//!   plain-data results cross threads);
//! * results land in a slot table by cell index, not completion order,
//!   and one fold consumes them in index order.
//!
//! Nondeterministic observations (wall-clock, cache hits) are quarantined
//! in [`Telemetry`] and the separate `results/<figure>.telemetry.json`.
//!
//! # Environment knobs
//!
//! The harness reads its worker count, cache, watchdog and profiler
//! settings from `NEST_*` environment variables; the README's
//! *Harness* section has the full table.
//!
//! # Example
//!
//! ```
//! use nest_harness::{Cache, Matrix, Progress};
//! use nest_scenario::Scenario;
//!
//! let scenarios = ["cfs", "nest"].map(|policy| {
//!     Scenario::parse("5218", policy, "schedutil", "configure:gdb")
//!         .unwrap()
//!         .with_runs(1)
//! });
//! let mut m = Matrix::new("example", 42)
//!     .with_jobs(2)
//!     .with_cache(Cache::disabled())
//!     .with_progress(Progress::quiet());
//! m.add_scenarios(&scenarios).unwrap();
//! let (comparisons, telemetry) = m.run();
//! assert_eq!(comparisons.len(), 1);
//! assert_eq!(telemetry.cells_total, 2);
//! ```

pub mod artifact;
pub mod cache;
pub mod progress;
pub mod runner;

/// The canonical JSON codec (re-exported from `nest-simcore`, where it
/// lives so lower layers like the scenario registry can share it).
pub use nest_simcore::json;

pub use artifact::{comparison_json, metric_blocks, results_dir, Artifact};
pub use cache::{Cache, CacheMode};
pub use nest_simcore::json::Json;
pub use progress::Progress;
pub use runner::{cell_seed, jobs, run_raw, Matrix, RawCell, Telemetry, WorkloadFactory};
