//! Engine configuration.

use nest_faults::FaultPlan;
use nest_freq::Governor;
use nest_simcore::Time;
use nest_topology::MachineSpec;

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The machine to simulate.
    pub machine: MachineSpec,
    /// The power governor.
    pub governor: Governor,
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Hard stop; simulations of non-terminating workloads need one.
    pub horizon: Time,
    /// Perturbations injected through the event queue (hotplug, thermal
    /// throttling, timer jitter, stragglers). An empty plan — the default
    /// — adds no events, draws no randomness, and leaves the run
    /// byte-identical to a build without fault support.
    pub faults: FaultPlan,
    /// Watchdog: abort the run (with partial results) after dispatching
    /// this many events. Deterministic, unlike a wall-clock limit.
    pub event_budget: Option<u64>,
    /// Watchdog: abort the run after this much wall-clock time. Where the
    /// cut lands depends on host speed, so results after an abort are
    /// *not* deterministic; off by default.
    pub wall_limit: Option<std::time::Duration>,
}

impl EngineConfig {
    /// A configuration with conventional defaults for `machine`.
    pub fn new(machine: MachineSpec) -> EngineConfig {
        EngineConfig {
            machine,
            governor: Governor::Schedutil,
            seed: 1,
            horizon: Time::from_secs(600),
            faults: FaultPlan::default(),
            event_budget: None,
            wall_limit: None,
        }
    }

    /// Sets the governor.
    pub fn governor(mut self, governor: Governor) -> EngineConfig {
        self.governor = governor;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> EngineConfig {
        self.seed = seed;
        self
    }

    /// Sets the horizon.
    pub fn horizon(mut self, horizon: Time) -> EngineConfig {
        self.horizon = horizon;
        self
    }

    /// Sets the fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> EngineConfig {
        self.faults = faults;
        self
    }

    /// Sets the event-budget watchdog.
    pub fn event_budget(mut self, budget: Option<u64>) -> EngineConfig {
        self.event_budget = budget;
        self
    }

    /// Sets the wall-clock watchdog.
    pub fn wall_limit(mut self, limit: Option<std::time::Duration>) -> EngineConfig {
        self.wall_limit = limit;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_topology::presets;

    #[test]
    fn builder_covers_every_field() {
        let cfg = EngineConfig::new(presets::xeon_5218())
            .governor(Governor::Performance)
            .seed(9)
            .horizon(Time::from_secs(5))
            .faults(FaultPlan::parse("faults:hotplug=2@50ms").unwrap())
            .event_budget(Some(1_000_000))
            .wall_limit(Some(std::time::Duration::from_secs(30)));
        assert_eq!(cfg.governor, Governor::Performance);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.horizon, Time::from_secs(5));
        assert_eq!(cfg.faults.canonical(), "hotplug=2@50ms");
        assert_eq!(cfg.event_budget, Some(1_000_000));
        assert_eq!(cfg.wall_limit, Some(std::time::Duration::from_secs(30)));
    }

    #[test]
    fn defaults_match_documented_values() {
        let cfg = EngineConfig::new(presets::xeon_5218());
        assert!(cfg.faults.is_empty());
        assert_eq!(cfg.event_budget, None);
        assert_eq!(cfg.wall_limit, None);
    }
}
