//! Interval-sampled machine telemetry.
//!
//! [`TimeSeriesSampler`] mirrors the machine's externally visible state
//! (per-core busy/spin flags, per-physical-core frequency, runnable
//! depth, nest occupancy) from the trace stream and snapshots it on a
//! fixed simulated-time grid, producing a compact columnar
//! [`TimeSeries`]: per-socket and per-CCX utilization, mean frequency,
//! nest primary/reserve sizes, runnable depth, and instantaneous power
//! (computed with the frequency model's own pure power function,
//! [`nest_freq::instant_power_w`], so the sampled watts are exactly what
//! the energy integrator charges at that state).
//!
//! Samples are taken *between* events: the first event at or past a grid
//! point records the state as of that grid point, which is exact — state
//! only changes at events. No timer events are injected, so the sampler
//! is a pure observer and runs with or without it are byte-identical.
//!
//! The series is bounded: at [`SAMPLE_CAP`] samples it halves its
//! resolution (keeping every other sample and doubling the interval), so
//! arbitrarily long runs produce a fixed-size telemetry block that still
//! spans the whole run.

use nest_freq::{instant_power_w, Activity};
use nest_simcore::json::{obj, Json};
use nest_simcore::{Freq, Probe, Time, TraceEvent};
use nest_topology::MachineSpec;

/// Maximum samples kept; reaching it halves the resolution.
pub const SAMPLE_CAP: usize = 256;

/// Initial sampling interval (1 ms of simulated time).
pub const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 1_000_000;

/// A columnar machine-state time series: parallel per-sample columns
/// plus two per-domain column groups.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    /// Sampling interval at the end of the run (doubles on truncation).
    pub interval_ns: u64,
    /// How many times the series halved its resolution.
    pub truncated_halvings: u32,
    /// Sample timestamps (ns).
    pub t_ns: Vec<u64>,
    /// Instantaneous machine power (W) at each sample.
    pub power_w: Vec<f64>,
    /// Mean frequency over all physical cores (kHz) at each sample.
    pub mean_freq_khz: Vec<u64>,
    /// Runnable tasks (running + queued) at each sample.
    pub runnable: Vec<u64>,
    /// Primary-nest size at each sample (0 under non-Nest policies).
    pub nest_primary: Vec<u64>,
    /// Reserve-nest size at each sample (0 under non-Nest policies).
    pub nest_reserve: Vec<u64>,
    /// Busy fraction of each socket's cores: `socket_util[s][i]` is
    /// socket `s` at sample `i`.
    pub socket_util: Vec<Vec<f64>>,
    /// Busy fraction of each CCX's cores: `ccx_util[x][i]`.
    pub ccx_util: Vec<Vec<f64>>,
}

impl TimeSeries {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t_ns.len()
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.t_ns.is_empty()
    }

    /// Serializes the series as the columnar `timeseries` telemetry
    /// block.
    pub fn to_json(&self) -> Json {
        let u64s = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::u64(x)).collect());
        let f64s = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::f64(x)).collect());
        obj(vec![
            ("interval_ns", Json::u64(self.interval_ns)),
            ("samples", Json::usize(self.len())),
            (
                "truncated_halvings",
                Json::u64(self.truncated_halvings as u64),
            ),
            ("t_ns", u64s(&self.t_ns)),
            ("power_w", f64s(&self.power_w)),
            ("mean_freq_khz", u64s(&self.mean_freq_khz)),
            ("runnable", u64s(&self.runnable)),
            ("nest_primary", u64s(&self.nest_primary)),
            ("nest_reserve", u64s(&self.nest_reserve)),
            (
                "socket_util",
                Json::Arr(self.socket_util.iter().map(|v| f64s(v)).collect()),
            ),
            (
                "ccx_util",
                Json::Arr(self.ccx_util.iter().map(|v| f64s(v)).collect()),
            ),
        ])
    }
}

/// A probe sampling machine state on a simulated-time grid.
pub struct TimeSeriesSampler {
    /// The sampled series; its closing sample is taken when the run
    /// finishes.
    pub series: TimeSeries,
    spec: MachineSpec,
    /// Socket index of each logical core.
    socket_of: Vec<u32>,
    /// CCX index of each logical core.
    ccx_of: Vec<u32>,
    /// Physical-core index behind each logical core.
    phys_of: Vec<usize>,
    /// Cores per socket / per CCX, for utilization denominators.
    socket_cores: Vec<u64>,
    ccx_cores: Vec<u64>,
    /// Mirrored machine state.
    busy: Vec<bool>,
    spinning: Vec<bool>,
    phys_freq: Vec<Freq>,
    runnable: u64,
    nest_primary: u64,
    nest_reserve: u64,
    /// Next grid point to sample at (ns).
    next_at: u64,
}

impl TimeSeriesSampler {
    /// Creates a sampler for `spec` with the per-core CCX and socket
    /// tables (as computed by the topology).
    pub fn new(spec: &MachineSpec, ccx_of: Vec<u32>, socket_of: Vec<u32>) -> TimeSeriesSampler {
        let n_cores = spec.n_cores();
        assert_eq!(ccx_of.len(), n_cores, "ccx table must cover every core");
        assert_eq!(
            socket_of.len(),
            n_cores,
            "socket table must cover every core"
        );
        let pps = spec.phys_per_socket;
        let cps = spec.cores_per_socket();
        let phys_of = (0..n_cores)
            .map(|c| (c / cps) * pps + (c % cps) % pps)
            .collect();
        let domain_sizes = |of: &[u32]| {
            let n = of.iter().copied().max().map_or(0, |m| m as usize + 1);
            let mut sizes = vec![0u64; n];
            for &d in of {
                sizes[d as usize] += 1;
            }
            sizes
        };
        let socket_cores = domain_sizes(&socket_of);
        let ccx_cores = domain_sizes(&ccx_of);
        TimeSeriesSampler {
            series: TimeSeries {
                interval_ns: DEFAULT_SAMPLE_INTERVAL_NS,
                socket_util: vec![Vec::new(); socket_cores.len()],
                ccx_util: vec![Vec::new(); ccx_cores.len()],
                ..TimeSeries::default()
            },
            spec: spec.clone(),
            socket_of,
            ccx_of,
            phys_of,
            socket_cores,
            ccx_cores,
            busy: vec![false; n_cores],
            spinning: vec![false; n_cores],
            phys_freq: vec![spec.freq.fnominal; spec.sockets * pps],
            runnable: 0,
            nest_primary: 0,
            nest_reserve: 0,
            next_at: DEFAULT_SAMPLE_INTERVAL_NS,
        }
    }

    /// Records one sample of the mirrored state, stamped `t_ns`.
    fn sample(&mut self, t_ns: u64) {
        self.series.t_ns.push(t_ns);
        self.series.power_w.push(instant_power_w(
            &self.spec,
            |t| {
                if self.busy[t] {
                    Activity::Busy
                } else if self.spinning[t] {
                    Activity::Spinning
                } else {
                    Activity::Idle
                }
            },
            |phys| self.phys_freq[phys],
        ));
        let khz_sum: u64 = self.phys_freq.iter().map(|f| f.as_khz()).sum();
        self.series
            .mean_freq_khz
            .push(khz_sum / self.phys_freq.len() as u64);
        self.series.runnable.push(self.runnable);
        self.series.nest_primary.push(self.nest_primary);
        self.series.nest_reserve.push(self.nest_reserve);
        let mut socket_busy = vec![0u64; self.socket_cores.len()];
        let mut ccx_busy = vec![0u64; self.ccx_cores.len()];
        for (c, &b) in self.busy.iter().enumerate() {
            if b {
                socket_busy[self.socket_of[c] as usize] += 1;
                ccx_busy[self.ccx_of[c] as usize] += 1;
            }
        }
        for (s, &n) in socket_busy.iter().enumerate() {
            self.series.socket_util[s].push(n as f64 / self.socket_cores[s] as f64);
        }
        for (x, &n) in ccx_busy.iter().enumerate() {
            self.series.ccx_util[x].push(n as f64 / self.ccx_cores[x] as f64);
        }
        if self.series.len() > SAMPLE_CAP {
            self.halve_resolution();
        }
    }

    /// Keeps every other sample and doubles the interval.
    fn halve_resolution(&mut self) {
        fn keep_even<T: Copy>(v: &mut Vec<T>) {
            let mut i = 0;
            v.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
        }
        keep_even(&mut self.series.t_ns);
        keep_even(&mut self.series.power_w);
        keep_even(&mut self.series.mean_freq_khz);
        keep_even(&mut self.series.runnable);
        keep_even(&mut self.series.nest_primary);
        keep_even(&mut self.series.nest_reserve);
        for v in &mut self.series.socket_util {
            keep_even(v);
        }
        for v in &mut self.series.ccx_util {
            keep_even(v);
        }
        self.series.interval_ns *= 2;
        self.series.truncated_halvings += 1;
        self.next_at = self.series.t_ns.last().copied().unwrap_or(0) + self.series.interval_ns;
    }
}

// The machine shape comes from construction; the mirrored state and
// accumulated columns travel.
nest_simcore::snap_in_place!(TimeSeriesSampler {
    "interval_ns": series.interval_ns,
    "truncated_halvings": series.truncated_halvings,
    "next_at": next_at,
    "t_ns": series.t_ns,
    "power_w": series.power_w,
    "mean_freq_khz": series.mean_freq_khz,
    "runnable_col": series.runnable,
    "nest_primary_col": series.nest_primary,
    "nest_reserve_col": series.nest_reserve,
    "socket_util": series.socket_util [len],
    "ccx_util": series.ccx_util [len],
    "busy": busy [len],
    "spinning": spinning [len],
    "phys_freq": phys_freq [len],
    "runnable": runnable,
    "nest_primary": nest_primary,
    "nest_reserve": nest_reserve,
});

impl Probe for TimeSeriesSampler {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        // Sample every grid point the simulation has stepped past: the
        // mirrored state is still the state *before* this event, which
        // is exact at each grid point since nothing happened in between.
        while self.next_at <= now.as_nanos() {
            let at = self.next_at;
            self.sample(at);
            self.next_at += self.series.interval_ns;
        }
        match event {
            TraceEvent::RunStart { core, .. } => self.busy[core.index()] = true,
            TraceEvent::RunStop { core, .. } => self.busy[core.index()] = false,
            TraceEvent::SpinStart { core } => self.spinning[core.index()] = true,
            TraceEvent::SpinEnd { core } => self.spinning[core.index()] = false,
            TraceEvent::FreqChange { core, freq } => {
                self.phys_freq[self.phys_of[core.index()]] = *freq;
            }
            TraceEvent::RunnableCount { count } => self.runnable = *count as u64,
            TraceEvent::NestExpand {
                primary, reserve, ..
            }
            | TraceEvent::NestShrink {
                primary, reserve, ..
            }
            | TraceEvent::NestCompaction {
                primary, reserve, ..
            } => {
                self.nest_primary = *primary as u64;
                self.nest_reserve = *reserve as u64;
            }
            TraceEvent::CoreOffline { core } => {
                self.busy[core.index()] = false;
                self.spinning[core.index()] = false;
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, now: Time) {
        // Drain grid points the run ended past, then take a closing
        // sample at the final instant, so even sub-interval runs report
        // at least one row.
        while self.next_at <= now.as_nanos() {
            let at = self.next_at;
            self.sample(at);
            self.next_at += self.series.interval_ns;
        }
        if self.series.t_ns.last() != Some(&now.as_nanos()) {
            self.sample(now.as_nanos());
        }
    }

    fn snap(&self) -> Option<(&'static str, Json)> {
        Some(("obs.timeseries", obj(self.snap_entries())))
    }

    fn snap_restore(&mut self, state: &Json) -> Result<(), String> {
        self.load_entries(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::{CoreId, TaskId};
    use nest_topology::presets;

    fn sampler() -> TimeSeriesSampler {
        let spec = presets::xeon_6130(2);
        let n = spec.n_cores();
        let cps = spec.cores_per_socket();
        let socket_of: Vec<u32> = (0..n).map(|c| (c / cps) as u32).collect();
        // One CCX per socket on the Intel presets.
        let ccx_of = socket_of.clone();
        TimeSeriesSampler::new(&spec, ccx_of, socket_of)
    }

    fn start(task: u32, core: u32) -> TraceEvent {
        TraceEvent::RunStart {
            task: TaskId(task),
            core: CoreId(core),
        }
    }

    #[test]
    fn samples_on_the_grid_and_at_the_end() {
        let mut p = sampler();
        let t = Time::from_nanos;
        p.on_event(t(10), &start(1, 0));
        // Stepping past 3 grid points samples each exactly once.
        p.on_event(t(3_200_000), &TraceEvent::RunnableCount { count: 4 });
        p.on_finish(t(4_000_000));
        let s = &p.series;
        assert_eq!(s.t_ns, vec![1_000_000, 2_000_000, 3_000_000, 4_000_000]);
        // Core 0 was busy the whole time: socket 0 util 1/32, socket 1
        // idle; runnable was 0 until after the grid points passed.
        assert_eq!(s.socket_util[0], vec![1.0 / 32.0; 4]);
        assert_eq!(s.socket_util[1], vec![0.0; 4]);
        assert_eq!(s.runnable, vec![0, 0, 0, 4]);
        assert!(s.power_w.iter().all(|&w| w > 0.0));
        // All phys at nominal: mean is exactly nominal.
        assert_eq!(s.mean_freq_khz, vec![2_100_000; 4]);
    }

    #[test]
    fn state_at_a_grid_point_excludes_later_events() {
        let mut p = sampler();
        let t = Time::from_nanos;
        // The busy transition happens at 1.5 ms: the 1 ms sample sees
        // idle, the 2 ms sample sees busy.
        p.on_event(t(1_500_000), &start(1, 5));
        p.on_finish(t(2_000_000));
        let s = &p.series;
        assert_eq!(s.t_ns, vec![1_000_000, 2_000_000]);
        assert_eq!(s.socket_util[0], vec![0.0, 1.0 / 32.0]);
    }

    #[test]
    fn caps_by_halving_resolution() {
        let mut p = sampler();
        // 1000 intervals: must stay under the cap by doubling.
        for i in 1..=1000u64 {
            p.on_event(
                Time::from_nanos(i * DEFAULT_SAMPLE_INTERVAL_NS),
                &TraceEvent::RunnableCount { count: i as u32 },
            );
        }
        p.on_finish(Time::from_nanos(1_001 * DEFAULT_SAMPLE_INTERVAL_NS));
        let s = &p.series;
        assert!(s.len() <= SAMPLE_CAP, "{}", s.len());
        assert!(s.truncated_halvings >= 2);
        assert_eq!(
            s.interval_ns,
            DEFAULT_SAMPLE_INTERVAL_NS << s.truncated_halvings
        );
        // Columns stay parallel.
        assert_eq!(s.power_w.len(), s.len());
        assert_eq!(s.runnable.len(), s.len());
        assert_eq!(s.socket_util[0].len(), s.len());
        // Timestamps stay sorted.
        assert!(s.t_ns.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn freq_changes_move_the_mean_and_power() {
        let mut p = sampler();
        let t = Time::from_nanos;
        p.on_event(t(0), &start(1, 0));
        p.on_event(
            t(10),
            &TraceEvent::FreqChange {
                core: CoreId(0),
                freq: Freq::from_ghz(3.7),
            },
        );
        p.on_finish(t(1_000_000));
        let s = &p.series;
        assert_eq!(s.len(), 1);
        // 32 phys cores, one at 3.7 GHz instead of 2.1.
        let expect = (31 * 2_100_000u64 + 3_700_000) / 32;
        assert_eq!(s.mean_freq_khz, vec![expect]);
    }

    #[test]
    fn json_block_is_columnar_and_round_trips() {
        let mut p = sampler();
        let t = Time::from_nanos;
        p.on_event(t(10), &start(1, 0));
        p.on_finish(t(2_500_000));
        let json = p.series.to_json();
        for key in [
            "interval_ns",
            "samples",
            "t_ns",
            "power_w",
            "mean_freq_khz",
            "runnable",
            "nest_primary",
            "nest_reserve",
            "socket_util",
            "ccx_util",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json.get("samples").and_then(Json::as_u64), Some(3));
        let text = json.to_pretty();
        assert_eq!(nest_simcore::json::parse(&text).unwrap(), json);
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let t = Time::from_nanos;
        let feed_first = |p: &mut TimeSeriesSampler| {
            p.on_event(t(10), &start(1, 0));
            p.on_event(t(500_000), &TraceEvent::SpinStart { core: CoreId(2) });
            p.on_event(t(1_200_000), &TraceEvent::RunnableCount { count: 3 });
        };
        let feed_second = |p: &mut TimeSeriesSampler| {
            p.on_event(
                t(2_200_000),
                &TraceEvent::RunStop {
                    task: TaskId(1),
                    core: CoreId(0),
                    reason: nest_simcore::StopReason::Exit,
                },
            );
            p.on_finish(t(3_000_000));
        };
        let mut straight = sampler();
        feed_first(&mut straight);
        let (kind, state) = straight.snap().unwrap();
        assert_eq!(kind, "obs.timeseries");
        let mut restored = sampler();
        restored.snap_restore(&state).unwrap();
        feed_second(&mut straight);
        feed_second(&mut restored);
        let (a, b) = (&straight.series, &restored.series);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Power is compared bit-for-bit through PartialEq on f64 —
        // identical inputs through the pure power function.
        assert_eq!(a.power_w[0].to_bits(), b.power_w[0].to_bits());
    }
}
