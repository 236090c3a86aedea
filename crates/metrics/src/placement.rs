//! Placement-decision accounting.
//!
//! Counts which mechanism placed tasks (primary nest, reserve nest, CFS
//! fallback, Smove parent path, load balancing) and how placements spread
//! over cores and sockets — the raw material for verifying statements like
//! "Nest places the tasks on only two cores" (§5.2).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use nest_simcore::json::{self, Json};
use nest_simcore::snap::{self, Snap};
use nest_simcore::{PlacementPath, Probe, Time, TraceEvent};

/// Registry kind under which [`PlacementProbe`] snapshots itself.
pub const PLACEMENT_PROBE_KIND: &str = "metrics.placement";

/// Placement counters; obtain via [`PlacementProbe::new`].
#[derive(Debug, Default)]
pub struct PlacementCounts {
    /// Placements per mechanism.
    pub by_path: HashMap<PlacementPath, u64>,
    /// Placements per core index.
    pub by_core: Vec<u64>,
}

impl PlacementCounts {
    /// Total placements observed.
    pub fn total(&self) -> u64 {
        self.by_path.values().sum()
    }

    /// Count for one mechanism.
    pub fn count(&self, path: PlacementPath) -> u64 {
        self.by_path.get(&path).copied().unwrap_or(0)
    }

    /// Number of distinct cores that received any placement.
    pub fn distinct_cores(&self) -> usize {
        self.by_core.iter().filter(|&&c| c > 0).count()
    }

    /// Number of distinct sockets used, given cores per socket.
    pub fn distinct_sockets(&self, cores_per_socket: usize) -> usize {
        let mut used = std::collections::HashSet::new();
        for (core, &n) in self.by_core.iter().enumerate() {
            if n > 0 {
                used.insert(core / cores_per_socket);
            }
        }
        used.len()
    }
}

/// Probe counting placement decisions.
pub struct PlacementProbe {
    data: Rc<RefCell<PlacementCounts>>,
    by_path: HashMap<PlacementPath, u64>,
    by_core: Vec<u64>,
}

impl PlacementProbe {
    /// Creates the probe and its shared result handle.
    pub fn new(n_cores: usize) -> (PlacementProbe, Rc<RefCell<PlacementCounts>>) {
        let data = Rc::new(RefCell::new(PlacementCounts::default()));
        (
            PlacementProbe {
                data: Rc::clone(&data),
                by_path: HashMap::new(),
                by_core: vec![0; n_cores],
            },
            data,
        )
    }
}

impl Probe for PlacementProbe {
    fn on_event(&mut self, _now: Time, event: &TraceEvent) {
        if let TraceEvent::Placed { core, path, .. } = event {
            *self.by_path.entry(*path).or_insert(0) += 1;
            self.by_core[core.index()] += 1;
        }
    }

    fn on_finish(&mut self, _now: Time) {
        let mut d = self.data.borrow_mut();
        d.by_path = std::mem::take(&mut self.by_path);
        d.by_core = std::mem::take(&mut self.by_core);
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        // Path counters travel densely in `PlacementPath::ALL` order so
        // the bytes do not depend on HashMap iteration order.
        let by_path: Vec<u64> = PlacementPath::ALL
            .iter()
            .map(|p| self.by_path.get(p).copied().unwrap_or(0))
            .collect();
        Some((
            PLACEMENT_PROBE_KIND,
            json::obj(vec![
                ("by_path", by_path.save()),
                ("by_core", self.by_core.save()),
            ]),
        ))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        let by_path: Vec<u64> = snap::load_len(state, "by_path", PlacementPath::ALL.len())?;
        self.by_path = PlacementPath::ALL
            .into_iter()
            .zip(by_path)
            .filter(|&(_, n)| n > 0)
            .collect();
        self.by_core = snap::load_len(state, "by_core", self.by_core.len())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::{CoreId, TaskId};

    #[test]
    fn counts_by_path_and_core() {
        let (mut p, d) = PlacementProbe::new(8);
        for (core, path) in [
            (0, PlacementPath::NestPrimary),
            (0, PlacementPath::NestPrimary),
            (5, PlacementPath::NestFallback),
        ] {
            p.on_event(
                Time::ZERO,
                &TraceEvent::Placed {
                    task: TaskId(0),
                    core: CoreId(core),
                    path,
                },
            );
        }
        p.on_finish(Time::ZERO);
        let d = d.borrow();
        assert_eq!(d.total(), 3);
        assert_eq!(d.count(PlacementPath::NestPrimary), 2);
        assert_eq!(d.count(PlacementPath::CfsFork), 0);
        assert_eq!(d.distinct_cores(), 2);
        assert_eq!(d.distinct_sockets(4), 2);
        assert_eq!(d.distinct_sockets(8), 1);
    }
}
