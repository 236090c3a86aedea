#![deny(missing_docs)]

//! Workload models for every benchmark suite in the Nest paper's
//! evaluation.
//!
//! Each module produces [`nest_simcore::TaskSpec`]s whose behaviours mimic
//! the *scheduling-relevant* structure of the original benchmark: how many
//! tasks exist, how long they compute between blocking points, how they
//! fork, synchronize, and terminate. Absolute work sizes are calibrated to
//! land in the same order of magnitude as the paper's CFS-schedutil
//! runtimes; shapes (who blocks when) follow the paper's descriptions.
//!
//! * [`configure`] — software-configuration scripts (§5.2): chains of
//!   short-lived, mostly sequential forked tasks.
//! * [`dacapo`] — DaCapo Java applications (§5.3): thread pools with
//!   frequent short sleeps, plus GC/JIT background threads.
//! * [`nas`] — NAS Parallel Benchmarks (§5.4): one task per core,
//!   barrier-synchronized iterations.
//! * [`phoronix`] — the Figure 13 / Table 4 multicore tests (§5.5).
//! * [`hackbench`], [`schbench`] — scheduler microbenchmarks (§5.6).
//! * [`server`] — request/worker server tests (§5.6).

pub mod configure;
pub mod dacapo;
pub mod fleet;
pub mod hackbench;
pub mod nas;
pub mod phoronix;
pub mod schbench;
pub mod serve;
pub mod server;

use nest_simcore::{BehaviorRegistry, SimRng, SimSetup, TaskSpec};

pub use fleet::FleetLoad;
pub use nest_fleet::{FleetSpec, HedgeMode, HostDegrade, HostDown, LbPolicy};
pub use nest_serve::{OpenLoopDriver, ServeSpec, ServiceWorker};
pub use serve::ServeLoad;

/// Registers every workload behaviour with a snapshot-restore registry.
///
/// The `server` module's driver/worker pair lives in `nest-serve` (see
/// [`nest_serve::register_behaviors`]); everything snapshotable that is
/// defined in *this* crate registers here.
pub fn register_behaviors(reg: &mut BehaviorRegistry) {
    configure::register(reg);
    dacapo::register(reg);
    hackbench::register(reg);
    nas::register(reg);
    phoronix::register(reg);
    schbench::register(reg);
}

/// A workload: a named generator of initial tasks.
pub trait Workload {
    /// Workload name as it appears in figures (e.g. `"llvm_ninja"`).
    fn name(&self) -> String;

    /// Builds the initial tasks. `setup` allocates barriers/channels;
    /// `rng` drives any randomized sizing (already forked per workload).
    fn build(&self, setup: &mut dyn SimSetup, rng: &mut SimRng) -> Vec<TaskSpec>;

    /// Open-loop serving streams this workload carries. The run driver
    /// materializes each spec into a timed injection plan (requests enter
    /// through the engine's event queue rather than the initial task set),
    /// so most workloads — which have none — return an empty list.
    fn serve_specs(&self) -> Vec<ServeSpec> {
        Vec::new()
    }

    /// The fleet front-end this workload runs under, if any. `Some` routes
    /// the run through the multi-host co-simulation driver ([`FleetLoad`]
    /// is the only implementor); everything else runs single-host.
    fn fleet_spec(&self) -> Option<FleetSpec> {
        None
    }
}

/// Converts milliseconds of work *at the given reference frequency in GHz*
/// into cycles. Workload sizes are quoted this way for readability.
pub fn ms_at_ghz(ms: f64, ghz: f64) -> u64 {
    (ms * ghz * 1e6) as u64
}

/// Several workloads launched together — the paper's multi-application
/// scenario (§5.6). All parts' initial tasks start at time zero and share
/// the machine; the name joins the parts with `" + "`.
pub struct Multi {
    parts: Vec<Box<dyn Workload>>,
}

impl Multi {
    /// Combines `parts` into one workload. Panics on an empty list.
    pub fn new(parts: Vec<Box<dyn Workload>>) -> Multi {
        assert!(!parts.is_empty(), "Multi needs at least one workload");
        Multi { parts }
    }
}

impl Workload for Multi {
    fn name(&self) -> String {
        self.parts
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(" + ")
    }

    fn build(&self, setup: &mut dyn SimSetup, rng: &mut SimRng) -> Vec<TaskSpec> {
        let mut tasks = Vec::new();
        for p in &self.parts {
            tasks.extend(p.build(setup, rng));
        }
        tasks
    }

    fn serve_specs(&self) -> Vec<ServeSpec> {
        self.parts.iter().flat_map(|p| p.serve_specs()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_at_ghz_conversion() {
        // 1 ms at 1 GHz = 1e6 cycles.
        assert_eq!(ms_at_ghz(1.0, 1.0), 1_000_000);
        assert_eq!(ms_at_ghz(2.5, 2.0), 5_000_000);
    }

    #[test]
    fn multi_joins_names_and_concatenates_tasks() {
        use nest_simcore::{BarrierId, ChannelId};

        struct Setup(u32);
        impl SimSetup for Setup {
            fn create_barrier(&mut self, _parties: u32) -> BarrierId {
                self.0 += 1;
                BarrierId(self.0)
            }
            fn create_channel(&mut self) -> ChannelId {
                self.0 += 1;
                ChannelId(self.0)
            }
            fn n_cores(&self) -> usize {
                64
            }
        }

        let a = Box::new(crate::hackbench::Hackbench::new(Default::default()));
        let b = Box::new(crate::schbench::Schbench::new(Default::default()));
        let (an, bn) = (a.name(), b.name());
        let multi = Multi::new(vec![a as Box<dyn Workload>, b]);
        assert_eq!(multi.name(), format!("{an} + {bn}"));

        let mut rng = SimRng::new(7);
        let mut setup = Setup(0);
        let n_a = crate::hackbench::Hackbench::new(Default::default())
            .build(&mut setup, &mut rng)
            .len();
        let n_b = crate::schbench::Schbench::new(Default::default())
            .build(&mut setup, &mut rng)
            .len();
        let combined = multi.build(&mut setup, &mut rng).len();
        assert_eq!(combined, n_a + n_b);
    }
}
