//! Scheduling-decision metrics.
//!
//! [`DecisionMetricsProbe`] watches one run's trace and aggregates the
//! decision-level quantities the paper reasons about: how long woken
//! tasks wait before running, which placement path fired, how often tasks
//! migrate, how often Nest falls back to CFS, how much time cores burn
//! spinning, and how the nests' occupancy evolves. The result is a plain
//! [`DecisionMetrics`] of order-independent sums, so per-run and per-cell
//! metrics merge associatively; the harness folds them in slot order and
//! writes the aggregate into every `.telemetry.json` sidecar.

use std::collections::HashMap;

use nest_simcore::json::{obj, Json};
use nest_simcore::{CoreId, PlacementPath, Probe, TaskId, Time, TraceEvent};

/// Upper edges (ns) of the log-scale wakeup→run latency buckets: powers
/// of two from 2^10 ns (≈1 µs) to 2^26 ns (≈67 ms). Bucket `i` counts
/// latencies in `(edge[i-1], edge[i]]`; one extra overflow bucket catches
/// longer latencies.
pub const LATENCY_BUCKET_EDGES_NS: [u64; 17] = [
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
    1 << 26,
];

/// Points kept in the nest-occupancy timeline before it is truncated.
pub const TIMELINE_CAP: usize = 1024;

/// Aggregated decision metrics over one or more runs.
///
/// Every field is an order-independent sum or max over runs (the
/// occupancy timeline is the exception: it belongs to the first run that
/// contributed one), so merging in any grouping yields the same values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecisionMetrics {
    /// Runs merged into this aggregate.
    pub runs: u64,
    /// Total simulated nanoseconds across those runs.
    pub sim_ns: u64,
    /// Latency histogram counts, one per [`LATENCY_BUCKET_EDGES_NS`] edge
    /// plus a final overflow bucket.
    pub latency_counts: Vec<u64>,
    /// Total wakeup→run latency samples.
    pub latency_samples: u64,
    /// Summed wakeup→run latency in nanoseconds.
    pub latency_sum_ns: u64,
    /// Placement counts indexed by [`PlacementPath::ALL`].
    pub placements: Vec<u64>,
    /// Run starts on a different core than the task's previous run.
    pub migrations: u64,
    /// Migrations whose source and destination lie in different CCXs
    /// (last-level-cache domains).
    pub cross_ccx_migrations: u64,
    /// Migrations whose source and destination lie in different sockets.
    pub cross_socket_migrations: u64,
    /// Per-core idle-spin nanoseconds.
    pub spin_ns: Vec<u64>,
    /// Σ primary-nest-size · dt (ns·cores), for the time-weighted mean.
    pub nest_primary_ns: u64,
    /// Σ reserve-nest-size · dt (ns·cores).
    pub nest_reserve_ns: u64,
    /// Peak primary-nest size.
    pub nest_primary_max: u32,
    /// Peak reserve-nest size.
    pub nest_reserve_max: u32,
    /// Nest lifecycle transitions (expand + shrink + compaction).
    pub nest_transitions: u64,
    /// Compaction demotions alone.
    pub nest_compactions: u64,
    /// Σ (primary-nest members in CCX i) · dt (ns·cores), one entry per
    /// CCX — the per-domain nest occupancy integral.
    pub nest_ccx_primary_ns: Vec<u64>,
    /// `(t_ns, primary, reserve)` nest-size samples of the first run that
    /// contributed one, capped at [`TIMELINE_CAP`] points.
    pub occupancy_timeline: Vec<(u64, u32, u32)>,
    /// `true` if the timeline hit the cap.
    pub timeline_truncated: bool,
}

fn add_assign(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl DecisionMetrics {
    /// The latency bucket index for a sample of `ns` nanoseconds.
    pub fn latency_bucket(ns: u64) -> usize {
        LATENCY_BUCKET_EDGES_NS
            .iter()
            .position(|&edge| ns <= edge)
            .unwrap_or(LATENCY_BUCKET_EDGES_NS.len())
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &DecisionMetrics) {
        self.runs += other.runs;
        self.sim_ns += other.sim_ns;
        add_assign(&mut self.latency_counts, &other.latency_counts);
        self.latency_samples += other.latency_samples;
        self.latency_sum_ns += other.latency_sum_ns;
        add_assign(&mut self.placements, &other.placements);
        self.migrations += other.migrations;
        self.cross_ccx_migrations += other.cross_ccx_migrations;
        self.cross_socket_migrations += other.cross_socket_migrations;
        add_assign(&mut self.spin_ns, &other.spin_ns);
        self.nest_primary_ns += other.nest_primary_ns;
        self.nest_reserve_ns += other.nest_reserve_ns;
        self.nest_primary_max = self.nest_primary_max.max(other.nest_primary_max);
        self.nest_reserve_max = self.nest_reserve_max.max(other.nest_reserve_max);
        self.nest_transitions += other.nest_transitions;
        self.nest_compactions += other.nest_compactions;
        add_assign(&mut self.nest_ccx_primary_ns, &other.nest_ccx_primary_ns);
        if self.occupancy_timeline.is_empty() && !other.occupancy_timeline.is_empty() {
            self.occupancy_timeline = other.occupancy_timeline.clone();
            self.timeline_truncated = other.timeline_truncated;
        }
    }

    /// Total placements across all paths.
    pub fn total_placements(&self) -> u64 {
        self.placements.iter().sum()
    }

    /// The count for one placement path.
    pub fn placement_count(&self, path: PlacementPath) -> u64 {
        self.placements.get(path.index()).copied().unwrap_or(0)
    }

    /// Simulated seconds across all runs.
    pub fn sim_secs(&self) -> f64 {
        self.sim_ns as f64 / 1e9
    }

    /// Migrations per simulated second.
    pub fn migrations_per_sec(&self) -> Option<f64> {
        (self.sim_ns > 0).then(|| self.migrations as f64 / self.sim_secs())
    }

    /// Cross-CCX migrations per simulated second.
    pub fn cross_ccx_migrations_per_sec(&self) -> Option<f64> {
        (self.sim_ns > 0).then(|| self.cross_ccx_migrations as f64 / self.sim_secs())
    }

    /// Cross-socket migrations per simulated second.
    pub fn cross_socket_migrations_per_sec(&self) -> Option<f64> {
        (self.sim_ns > 0).then(|| self.cross_socket_migrations as f64 / self.sim_secs())
    }

    /// Time-weighted mean primary-nest members in CCX `ccx`.
    pub fn mean_nest_primary_in_ccx(&self, ccx: usize) -> Option<f64> {
        let ns = *self.nest_ccx_primary_ns.get(ccx)?;
        (self.sim_ns > 0).then(|| ns as f64 / self.sim_ns as f64)
    }

    /// Mean wakeup→run latency in nanoseconds.
    pub fn mean_latency_ns(&self) -> Option<f64> {
        (self.latency_samples > 0).then(|| self.latency_sum_ns as f64 / self.latency_samples as f64)
    }

    /// The fraction of Nest placements that fell back to CFS
    /// (`NestFallback` over all `Nest*` paths); `None` off the Nest
    /// policy.
    pub fn nest_fallback_rate(&self) -> Option<f64> {
        let fallback = self.placement_count(PlacementPath::NestFallback);
        let nest_total = fallback
            + self.placement_count(PlacementPath::NestPrimary)
            + self.placement_count(PlacementPath::NestReserve);
        (nest_total > 0).then(|| fallback as f64 / nest_total as f64)
    }

    /// Total idle-spin nanoseconds across cores.
    pub fn spin_total_ns(&self) -> u64 {
        self.spin_ns.iter().sum()
    }

    /// Machine-wide spin duty-cycle: spin time over total core time.
    pub fn spin_duty_cycle(&self) -> Option<f64> {
        let denom = self.sim_ns.saturating_mul(self.spin_ns.len() as u64);
        (denom > 0).then(|| self.spin_total_ns() as f64 / denom as f64)
    }

    /// One core's spin duty-cycle.
    pub fn spin_duty_of(&self, core: usize) -> Option<f64> {
        let spin = *self.spin_ns.get(core)?;
        (self.sim_ns > 0).then(|| spin as f64 / self.sim_ns as f64)
    }

    /// Time-weighted mean primary-nest size.
    pub fn mean_nest_primary(&self) -> Option<f64> {
        (self.sim_ns > 0).then(|| self.nest_primary_ns as f64 / self.sim_ns as f64)
    }

    /// Time-weighted mean reserve-nest size.
    pub fn mean_nest_reserve(&self) -> Option<f64> {
        (self.sim_ns > 0).then(|| self.nest_reserve_ns as f64 / self.sim_ns as f64)
    }

    /// Serializes the metrics as the `decision_metrics` telemetry block.
    pub fn to_json(&self) -> Json {
        let paths: Vec<(String, Json)> = PlacementPath::ALL
            .iter()
            .map(|p| (format!("{p:?}"), Json::u64(self.placement_count(*p))))
            .collect();
        obj(vec![
            ("runs", Json::u64(self.runs)),
            ("sim_ns", Json::u64(self.sim_ns)),
            (
                "wakeup_latency",
                obj(vec![
                    (
                        "bucket_edges_ns",
                        Json::Arr(
                            LATENCY_BUCKET_EDGES_NS
                                .iter()
                                .map(|&e| Json::u64(e))
                                .collect(),
                        ),
                    ),
                    (
                        "counts",
                        Json::Arr(self.latency_counts.iter().map(|&c| Json::u64(c)).collect()),
                    ),
                    ("samples", Json::u64(self.latency_samples)),
                    ("mean_ns", Json::opt_f64(self.mean_latency_ns())),
                ]),
            ),
            ("placements", Json::Obj(paths)),
            ("migrations", Json::u64(self.migrations)),
            (
                "migrations_per_sec",
                Json::opt_f64(self.migrations_per_sec()),
            ),
            ("cross_ccx_migrations", Json::u64(self.cross_ccx_migrations)),
            (
                "cross_socket_migrations",
                Json::u64(self.cross_socket_migrations),
            ),
            (
                "nest_fallback_rate",
                Json::opt_f64(self.nest_fallback_rate()),
            ),
            (
                "spin",
                obj(vec![
                    (
                        "per_core_ns",
                        Json::Arr(self.spin_ns.iter().map(|&n| Json::u64(n)).collect()),
                    ),
                    ("total_ns", Json::u64(self.spin_total_ns())),
                    ("duty_cycle", Json::opt_f64(self.spin_duty_cycle())),
                ]),
            ),
            (
                "nest",
                obj(vec![
                    ("mean_primary", Json::opt_f64(self.mean_nest_primary())),
                    ("mean_reserve", Json::opt_f64(self.mean_nest_reserve())),
                    ("max_primary", Json::u64(self.nest_primary_max as u64)),
                    ("max_reserve", Json::u64(self.nest_reserve_max as u64)),
                    ("transitions", Json::u64(self.nest_transitions)),
                    ("compactions", Json::u64(self.nest_compactions)),
                    (
                        "per_ccx_primary_ns",
                        Json::Arr(
                            self.nest_ccx_primary_ns
                                .iter()
                                .map(|&n| Json::u64(n))
                                .collect(),
                        ),
                    ),
                    (
                        "occupancy_timeline",
                        Json::Arr(
                            self.occupancy_timeline
                                .iter()
                                .map(|&(t, p, r)| {
                                    Json::Arr(vec![
                                        Json::u64(t),
                                        Json::u64(p as u64),
                                        Json::u64(r as u64),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("timeline_truncated", Json::Bool(self.timeline_truncated)),
                ]),
            ),
        ])
    }
}

/// A probe computing [`DecisionMetrics`] over one run.
pub struct DecisionMetricsProbe {
    /// The run's metrics; `runs` and `sim_ns` are stamped when the run
    /// finishes.
    pub metrics: DecisionMetrics,
    woken_at: HashMap<TaskId, Time>,
    last_core: HashMap<TaskId, CoreId>,
    spin_since: Vec<Option<Time>>,
    cur_primary: u32,
    cur_reserve: u32,
    last_nest_change: Time,
    /// CCX index of each core.
    ccx_of: Vec<u32>,
    /// Socket index of each core.
    socket_of: Vec<u32>,
    /// Which cores currently sit in the primary nest.
    nest_member: Vec<bool>,
    /// Primary-nest member count per CCX, derived from `nest_member`.
    cur_ccx_primary: Vec<u32>,
}

impl DecisionMetricsProbe {
    /// Creates a probe that attributes migrations and nest occupancy to
    /// scheduling domains. `ccx_of[c]` / `socket_of[c]` give core `c`'s CCX
    /// and socket index; both slices have one entry per core.
    pub fn new(ccx_of: Vec<u32>, socket_of: Vec<u32>) -> DecisionMetricsProbe {
        assert_eq!(
            ccx_of.len(),
            socket_of.len(),
            "domain maps disagree on core count"
        );
        let n_cores = ccx_of.len();
        let n_ccx = ccx_of.iter().map(|&cx| cx as usize + 1).max().unwrap_or(1);
        DecisionMetricsProbe {
            metrics: DecisionMetrics {
                latency_counts: vec![0; LATENCY_BUCKET_EDGES_NS.len() + 1],
                placements: vec![0; PlacementPath::ALL.len()],
                spin_ns: vec![0; n_cores],
                nest_ccx_primary_ns: vec![0; n_ccx],
                ..DecisionMetrics::default()
            },
            woken_at: HashMap::new(),
            last_core: HashMap::new(),
            spin_since: vec![None; n_cores],
            cur_primary: 0,
            cur_reserve: 0,
            last_nest_change: Time::ZERO,
            ccx_of,
            socket_of,
            nest_member: vec![false; n_cores],
            cur_ccx_primary: vec![0; n_ccx],
        }
    }

    /// Accumulates the nest-size integrals up to `now`.
    fn advance_nest(&mut self, now: Time) {
        let dt = now.saturating_since(self.last_nest_change);
        self.metrics.nest_primary_ns += self.cur_primary as u64 * dt;
        self.metrics.nest_reserve_ns += self.cur_reserve as u64 * dt;
        for (acc, &members) in self
            .metrics
            .nest_ccx_primary_ns
            .iter_mut()
            .zip(&self.cur_ccx_primary)
        {
            *acc += members as u64 * dt;
        }
        self.last_nest_change = now;
    }

    /// Marks `core` as inside (or outside) the primary nest, keeping the
    /// per-CCX member counts in step. Call after `advance_nest` so the
    /// integral is charged at the old occupancy.
    fn set_nest_member(&mut self, core: CoreId, member: bool) {
        let Some(slot) = self.nest_member.get_mut(core.index()) else {
            return;
        };
        if *slot == member {
            return;
        }
        *slot = member;
        let cx = self.ccx_of[core.index()] as usize;
        if member {
            self.cur_ccx_primary[cx] += 1;
        } else {
            self.cur_ccx_primary[cx] = self.cur_ccx_primary[cx].saturating_sub(1);
        }
    }

    fn on_nest_sizes(&mut self, now: Time, primary: u32, reserve: u32) {
        self.advance_nest(now);
        self.cur_primary = primary;
        self.cur_reserve = reserve;
        self.metrics.nest_primary_max = self.metrics.nest_primary_max.max(primary);
        self.metrics.nest_reserve_max = self.metrics.nest_reserve_max.max(reserve);
        self.metrics.nest_transitions += 1;
        if self.metrics.occupancy_timeline.len() < TIMELINE_CAP {
            self.metrics
                .occupancy_timeline
                .push((now.as_nanos(), primary, reserve));
        } else {
            self.metrics.timeline_truncated = true;
        }
    }
}

// `cur_ccx_primary` is derived from `nest_member` and rebuilt on load.
nest_simcore::snap_in_place!(DecisionMetricsProbe {
    "latency_counts": metrics.latency_counts [len],
    "latency_samples": metrics.latency_samples,
    "latency_sum_ns": metrics.latency_sum_ns,
    "placements": metrics.placements [len],
    "migrations": metrics.migrations,
    "cross_ccx_migrations": metrics.cross_ccx_migrations,
    "cross_socket_migrations": metrics.cross_socket_migrations,
    "spin_ns": metrics.spin_ns [len],
    "nest_ccx_primary_ns": metrics.nest_ccx_primary_ns [len],
    "nest_member": nest_member [len],
    "nest_primary_ns": metrics.nest_primary_ns,
    "nest_reserve_ns": metrics.nest_reserve_ns,
    "nest_primary_max": metrics.nest_primary_max,
    "nest_reserve_max": metrics.nest_reserve_max,
    "nest_transitions": metrics.nest_transitions,
    "nest_compactions": metrics.nest_compactions,
    "occupancy_timeline": metrics.occupancy_timeline,
    "timeline_truncated": metrics.timeline_truncated,
    "woken_at": woken_at,
    "last_core": last_core,
    "spin_since": spin_since [len],
    "cur_primary": cur_primary,
    "cur_reserve": cur_reserve,
    "last_nest_change": last_nest_change,
});

impl Probe for DecisionMetricsProbe {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        match event {
            TraceEvent::Woken { task } => {
                self.woken_at.insert(*task, now);
            }
            TraceEvent::Placed { path, .. } => {
                self.metrics.placements[path.index()] += 1;
            }
            TraceEvent::RunStart { task, core } => {
                if let Some(woken) = self.woken_at.remove(task) {
                    let ns = now.saturating_since(woken);
                    self.metrics.latency_counts[DecisionMetrics::latency_bucket(ns)] += 1;
                    self.metrics.latency_samples += 1;
                    self.metrics.latency_sum_ns += ns;
                }
                if let Some(prev) = self.last_core.insert(*task, *core) {
                    if prev != *core {
                        self.metrics.migrations += 1;
                        let (p, c) = (prev.index(), core.index());
                        if self.ccx_of.get(p) != self.ccx_of.get(c) {
                            self.metrics.cross_ccx_migrations += 1;
                        }
                        if self.socket_of.get(p) != self.socket_of.get(c) {
                            self.metrics.cross_socket_migrations += 1;
                        }
                    }
                }
            }
            TraceEvent::SpinStart { core } => {
                if let Some(slot) = self.spin_since.get_mut(core.index()) {
                    *slot = Some(now);
                }
            }
            TraceEvent::SpinEnd { core } => {
                if let Some(since) = self.spin_since.get_mut(core.index()).and_then(Option::take) {
                    self.metrics.spin_ns[core.index()] += now.saturating_since(since);
                }
            }
            TraceEvent::NestExpand {
                core,
                primary,
                reserve,
            } => {
                self.on_nest_sizes(now, *primary, *reserve);
                self.set_nest_member(*core, true);
            }
            TraceEvent::NestShrink {
                core,
                primary,
                reserve,
            } => {
                self.on_nest_sizes(now, *primary, *reserve);
                self.set_nest_member(*core, false);
            }
            TraceEvent::NestCompaction {
                core,
                primary,
                reserve,
            } => {
                self.on_nest_sizes(now, *primary, *reserve);
                self.set_nest_member(*core, false);
                self.metrics.nest_compactions += 1;
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, now: Time) {
        for i in 0..self.spin_since.len() {
            if let Some(since) = self.spin_since[i].take() {
                self.metrics.spin_ns[i] += now.saturating_since(since);
            }
        }
        self.advance_nest(now);
        self.metrics.sim_ns = now.as_nanos();
        self.metrics.runs = 1;
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some(("obs.decision_metrics", obj(self.snap_entries())))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        self.load_entries(state)?;
        let n_cores = self.spin_since.len();
        if let Some(core) = self.last_core.values().find(|c| c.index() >= n_cores) {
            return Err(format!(
                "last_core names core {core}, but the machine has {n_cores}"
            ));
        }
        self.cur_ccx_primary.fill(0);
        for (&member, &ccx) in self.nest_member.iter().zip(&self.ccx_of) {
            if member {
                self.cur_ccx_primary[ccx as usize] += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe for a 4-core machine that is one CCX on one socket.
    fn probe() -> DecisionMetricsProbe {
        DecisionMetricsProbe::new(vec![0; 4], vec![0; 4])
    }

    #[test]
    fn latency_buckets_are_half_open_log2() {
        assert_eq!(DecisionMetrics::latency_bucket(0), 0);
        assert_eq!(DecisionMetrics::latency_bucket(1024), 0, "edge inclusive");
        assert_eq!(DecisionMetrics::latency_bucket(1025), 1);
        assert_eq!(
            DecisionMetrics::latency_bucket(u64::MAX),
            LATENCY_BUCKET_EDGES_NS.len(),
            "overflow bucket"
        );
    }

    #[test]
    fn wakeup_to_run_latency_and_migrations() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(t(100), &TraceEvent::Woken { task: TaskId(1) });
        p.on_event(
            t(100),
            &TraceEvent::Placed {
                task: TaskId(1),
                core: CoreId(0),
                path: PlacementPath::NestPrimary,
            },
        );
        p.on_event(
            t(2100),
            &TraceEvent::RunStart {
                task: TaskId(1),
                core: CoreId(0),
            },
        );
        // Second stint on another core: a migration, but no new wakeup.
        p.on_event(
            t(9000),
            &TraceEvent::RunStart {
                task: TaskId(1),
                core: CoreId(3),
            },
        );
        p.on_finish(t(10_000));
        let m = &p.metrics;
        assert_eq!(m.latency_samples, 1);
        assert_eq!(m.latency_sum_ns, 2000);
        assert_eq!(m.latency_counts[DecisionMetrics::latency_bucket(2000)], 1);
        assert_eq!(m.migrations, 1);
        assert_eq!(m.placement_count(PlacementPath::NestPrimary), 1);
        assert_eq!(m.runs, 1);
        assert_eq!(m.sim_ns, 10_000);
    }

    #[test]
    fn spin_time_closes_open_spans_at_finish() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(t(100), &TraceEvent::SpinStart { core: CoreId(1) });
        p.on_event(t(400), &TraceEvent::SpinEnd { core: CoreId(1) });
        p.on_event(t(900), &TraceEvent::SpinStart { core: CoreId(2) });
        p.on_finish(t(1000));
        let m = &p.metrics;
        assert_eq!(m.spin_ns, vec![0, 300, 100, 0]);
        assert_eq!(m.spin_total_ns(), 400);
        assert_eq!(m.spin_duty_cycle(), Some(0.1));
    }

    #[test]
    fn nest_occupancy_is_time_weighted() {
        let mut p = probe();
        let t = Time::from_nanos;
        p.on_event(
            t(200),
            &TraceEvent::NestExpand {
                core: CoreId(0),
                primary: 2,
                reserve: 1,
            },
        );
        p.on_event(
            t(700),
            &TraceEvent::NestCompaction {
                core: CoreId(0),
                primary: 1,
                reserve: 2,
            },
        );
        p.on_finish(t(1000));
        let m = &p.metrics;
        // 0 until 200, 2 over [200,700), 1 over [700,1000).
        assert_eq!(m.nest_primary_ns, 2 * 500 + 300);
        assert_eq!(m.nest_reserve_ns, 500 + 2 * 300);
        assert_eq!(m.nest_primary_max, 2);
        assert_eq!(m.nest_transitions, 2);
        assert_eq!(m.nest_compactions, 1);
        assert_eq!(m.occupancy_timeline, vec![(200, 2, 1), (700, 1, 2)]);
        assert!(!m.timeline_truncated);
    }

    #[test]
    fn domains_classify_migrations_and_occupancy() {
        // 8 cores, two sockets of two CCXs each: CCXs {0,1}, {2,3}, {4,5},
        // {6,7}; sockets {0..4}, {4..8}.
        let ccx_of = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let socket_of = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut p = DecisionMetricsProbe::new(ccx_of, socket_of);
        let t = Time::from_nanos;
        let run = |core| TraceEvent::RunStart {
            task: TaskId(1),
            core: CoreId(core),
        };
        p.on_event(t(0), &run(0));
        p.on_event(t(100), &run(1)); // same CCX, same socket
        p.on_event(t(200), &run(2)); // cross CCX, same socket
        p.on_event(t(300), &run(6)); // cross CCX, cross socket
                                     // Primary nest: core 2 (CCX 1) from t=400, core 5 (CCX 2) from
                                     // t=600; core 2 demoted at t=800.
        p.on_event(
            t(400),
            &TraceEvent::NestExpand {
                core: CoreId(2),
                primary: 1,
                reserve: 0,
            },
        );
        p.on_event(
            t(600),
            &TraceEvent::NestExpand {
                core: CoreId(5),
                primary: 2,
                reserve: 0,
            },
        );
        p.on_event(
            t(800),
            &TraceEvent::NestShrink {
                core: CoreId(2),
                primary: 1,
                reserve: 1,
            },
        );
        p.on_finish(t(1000));
        let m = &p.metrics;
        assert_eq!(m.migrations, 3);
        assert_eq!(m.cross_ccx_migrations, 2);
        assert_eq!(m.cross_socket_migrations, 1);
        // CCX 1 occupied over [400,800); CCX 2 over [600,1000).
        assert_eq!(m.nest_ccx_primary_ns, vec![0, 400, 400, 0]);
        assert_eq!(m.nest_primary_ns, m.nest_ccx_primary_ns.iter().sum::<u64>());
        assert_eq!(m.mean_nest_primary_in_ccx(1), Some(0.4));
    }

    #[test]
    fn single_domain_probe_reports_no_cross_domain_migrations() {
        let mut p = probe();
        let t = Time::from_nanos;
        for (at, core) in [(0, 0), (100, 3), (200, 1)] {
            p.on_event(
                t(at),
                &TraceEvent::RunStart {
                    task: TaskId(7),
                    core: CoreId(core),
                },
            );
        }
        p.on_finish(t(1000));
        let m = &p.metrics;
        assert_eq!(m.migrations, 2);
        assert_eq!(m.cross_ccx_migrations, 0);
        assert_eq!(m.cross_socket_migrations, 0);
    }

    #[test]
    fn merge_is_order_independent_sums() {
        let (mut p1, mut p2) = (probe(), probe());
        let t = Time::from_nanos;
        for (p, task) in [(&mut p1, TaskId(1)), (&mut p2, TaskId(2))] {
            p.on_event(t(0), &TraceEvent::Woken { task });
            p.on_event(
                t(500),
                &TraceEvent::RunStart {
                    task,
                    core: CoreId(0),
                },
            );
            p.on_finish(t(1000));
        }
        let (a, b) = (p1.metrics, p2.metrics);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // The timeline slot differs by merge order (both empty here); all
        // sums must agree.
        assert_eq!(ab, ba);
        assert_eq!(ab.runs, 2);
        assert_eq!(ab.sim_ns, 2000);
        assert_eq!(ab.latency_samples, 2);
    }

    #[test]
    fn fallback_rate_counts_only_nest_paths() {
        let mut m = DecisionMetrics {
            placements: vec![0; PlacementPath::ALL.len()],
            ..DecisionMetrics::default()
        };
        m.placements[PlacementPath::CfsWakeup.index()] = 10;
        assert_eq!(m.nest_fallback_rate(), None);
        m.placements[PlacementPath::NestPrimary.index()] = 3;
        m.placements[PlacementPath::NestFallback.index()] = 1;
        assert_eq!(m.nest_fallback_rate(), Some(0.25));
    }

    #[test]
    fn json_block_has_the_documented_fields() {
        let mut p = probe();
        p.on_finish(Time::from_nanos(10));
        let json = p.metrics.to_json();
        for key in [
            "runs",
            "sim_ns",
            "wakeup_latency",
            "placements",
            "migrations",
            "migrations_per_sec",
            "nest_fallback_rate",
            "spin",
            "nest",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let text = json.to_pretty();
        assert_eq!(nest_simcore::json::parse(&text).unwrap(), json);
    }
}
