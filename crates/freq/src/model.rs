//! The hardware frequency model.
//!
//! [`FreqModel`] tracks, per *physical* core, the current frequency chosen
//! by the hardware from the interplay the paper describes in §2.3:
//!
//! * the **governor** supplies a requested ceiling (utilization-driven for
//!   `schedutil`, the maximum for `performance`);
//! * the **turbo ladder** caps frequency by the number of active physical
//!   cores on the turbo-counting domain — the socket on the paper's Intel
//!   machines (Table 3), one CCX on AMD-like synthetic machines — with
//!   *spinning* idle loops counting as active, which is precisely how Nest
//!   keeps cores warm. The domain is resolved through
//!   [`Topology::turbo_domain_of_phys`] so this model never hard-codes a
//!   flat-socket assumption;
//! * frequency **ramps** toward its target at a microarchitecture-specific
//!   rate and **decays** toward the governor floor after an idle cooldown.
//!
//! The model also integrates CPU energy: socket power is uncore power plus
//! per-core idle/dynamic power, with the socket voltage set by the fastest
//! active core on the socket (§5.2).

use nest_simcore::json::{self, Json};
use nest_simcore::snap::Snap;
use nest_simcore::{CoreId, Freq, Time};
use nest_topology::{MachineSpec, Topology};

use crate::governor::Governor;

/// What a hardware thread is doing, as far as the hardware is concerned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activity {
    /// Nothing running; candidate for frequency decay.
    Idle,
    /// A task is executing.
    Busy,
    /// The idle loop is spinning to keep the core warm (Nest §3.2).
    Spinning,
}

impl Snap for Activity {
    fn save(&self) -> Json {
        let code: u64 = match self {
            Activity::Idle => 0,
            Activity::Busy => 1,
            Activity::Spinning => 2,
        };
        code.save()
    }

    fn load(j: &Json) -> Result<Activity, String> {
        match u64::load(j)? {
            0 => Ok(Activity::Idle),
            1 => Ok(Activity::Busy),
            2 => Ok(Activity::Spinning),
            other => Err(format!("unknown activity code {other}")),
        }
    }
}

#[derive(Clone, Debug)]
struct PhysCore {
    cur: Freq,
    /// Frequency observed at the last scheduler tick (what Smove sees).
    observed: Freq,
    /// When the physical core last became fully inactive.
    idle_since: Option<Time>,
    /// When the physical core was last active (for the turbo window).
    last_active: Option<Time>,
    /// Cached "any hardware thread non-idle" flag, maintained by
    /// [`FreqModel::set_activity`] so the per-millisecond ramp loop reads
    /// one field instead of re-deriving it from both threads.
    active: bool,
}

nest_simcore::snap_struct!(PhysCore {
    "cur": cur,
    "observed": observed,
    "idle_since": idle_since,
    "last_active": last_active,
    "active": active,
});

/// Per-physical-core DVFS and whole-machine energy model.
pub struct FreqModel {
    spec: MachineSpec,
    /// Computed topology: the one accessor through which the
    /// turbo-counting domain of a physical core is resolved.
    topo: Topology,
    governor: Governor,
    /// Activity of each hardware thread.
    thread_activity: Vec<Activity>,
    /// State of each physical core (index: socket * phys_per_socket + p).
    phys: Vec<PhysCore>,
    /// Precomputed hardware-thread pair of each physical core. On SMT-1
    /// machines both entries are the same thread.
    thread_pair: Vec<(usize, usize)>,
    /// Number of active physical cores per turbo-counting domain
    /// (per socket on Intel-like machines, per CCX on AMD-like ones).
    domain_active: Vec<usize>,
    /// Per-socket thermal-throttle factor in `(0, 1]` (1.0 = no
    /// throttle), applied multiplicatively to the turbo-table cap.
    /// Fault injection drives this via
    /// [`FreqModel::set_socket_throttle`].
    throttle: Vec<f64>,
    energy_joules: f64,
    last_integration: Time,
    /// Power of each physical core (its idle, spin or busy watts) as of
    /// the last recompute that refreshed it.
    power_terms: Vec<f64>,
    /// The voltage each socket's terms were computed at.
    socket_volt: Vec<f64>,
    /// Running machine-power total after each socket, summed in
    /// [`instant_power_w`]'s order; the last entry is machine power.
    power_prefix: Vec<f64>,
    /// Physical cores whose activity or frequency changed since the last
    /// recompute (unordered, may repeat).
    power_dirty: Vec<usize>,
}

nest_simcore::snap_in_place!(FreqModel {
    "activity": thread_activity [len],
    "phys": phys [len],
    "domain_active": domain_active [len],
    "throttle": throttle [len],
    "energy": energy_joules,
    "last_integration": last_integration,
});

impl FreqModel {
    /// Creates the model with all cores idle at the *nominal* frequency —
    /// a warm machine, matching the paper's protocol of discarding warmup
    /// runs before measuring (§5.1). Idle cores decay from there.
    pub fn new(spec: &MachineSpec, governor: Governor) -> FreqModel {
        let start = spec.freq.fnominal;
        let n_phys = spec.sockets * spec.phys_per_socket;
        let pps = spec.phys_per_socket;
        let cps = spec.cores_per_socket();
        let thread_pair = (0..n_phys)
            .map(|phys| {
                let (socket, p) = (phys / pps, phys % pps);
                let t0 = socket * cps + p;
                // SMT-1: a physical core is one thread paired with itself.
                let t1 = if spec.smt == 2 { t0 + pps } else { t0 };
                (t0, t1)
            })
            .collect();
        let topo = Topology::new(spec.clone());
        let n_domains = topo.n_turbo_domains();
        FreqModel {
            spec: spec.clone(),
            topo,
            governor,
            thread_activity: vec![Activity::Idle; spec.n_cores()],
            phys: vec![
                PhysCore {
                    cur: start,
                    observed: start,
                    idle_since: Some(Time::ZERO),
                    last_active: None,
                    active: false,
                };
                n_phys
            ],
            thread_pair,
            domain_active: vec![0; n_domains],
            throttle: vec![1.0; spec.sockets],
            energy_joules: 0.0,
            last_integration: Time::ZERO,
            power_terms: vec![0.0; n_phys],
            socket_volt: vec![0.0; spec.sockets],
            power_prefix: vec![0.0; spec.sockets],
            power_dirty: (0..n_phys).collect(),
        }
    }

    /// Returns the configured governor.
    pub fn governor(&self) -> Governor {
        self.governor
    }

    fn phys_index(&self, core: CoreId) -> usize {
        let cps = self.spec.cores_per_socket();
        let pps = self.spec.phys_per_socket;
        let socket = core.index() / cps;
        let local = core.index() % cps;
        socket * pps + local % pps
    }

    fn threads_of_phys(&self, phys: usize) -> (usize, usize) {
        self.thread_pair[phys]
    }

    fn phys_is_active(&self, phys: usize) -> bool {
        self.phys[phys].active
    }

    /// Number of turbo-counting domains (sockets, or CCXs on machines
    /// whose ladder is scoped per CCX).
    pub fn n_turbo_domains(&self) -> usize {
        self.domain_active.len()
    }

    /// Returns the number of active physical cores in turbo-counting
    /// domain `domain` right now. On the paper's machines a domain is a
    /// socket, so `domain` coincides with the socket index there.
    pub fn active_phys_in_domain(&self, domain: usize) -> usize {
        self.domain_active[domain]
    }

    /// Returns the number of physical cores in turbo domain `domain` the
    /// hardware considers active for turbo purposes: active now, or
    /// active within the turbo window. This sluggishness is why
    /// dispersing short tasks over many cores keeps every core in the
    /// lower turbo range (§5.2).
    pub fn windowed_active_in_domain(&self, domain: usize, now: Time) -> usize {
        let dp = self.topo.turbo_domain_phys();
        let window = self.spec.freq.turbo_window_ns;
        (domain * dp..(domain + 1) * dp)
            .filter(|&phys| {
                self.phys_is_active(phys)
                    || self.phys[phys]
                        .last_active
                        .is_some_and(|t| now.saturating_since(t) < window)
            })
            .count()
    }

    /// The effective frequency cap on turbo domain `domain`: the
    /// turbo-table limit for the windowed active count, scaled by the
    /// owning socket's throttle factor (never below the hardware
    /// minimum).
    fn capped_turbo(&self, domain: usize, now: Time) -> Freq {
        let cap = self
            .spec
            .freq
            .turbo_limit(self.windowed_active_in_domain(domain, now));
        let f = self.throttle[self.topo.socket_of_turbo_domain(domain).index()];
        if f >= 1.0 {
            return cap;
        }
        let khz = (cap.as_khz() as f64 * f) as u64;
        Freq::from_khz(khz.max(self.spec.freq.fmin.as_khz()))
    }

    /// Sets the thermal-throttle factor for `socket` (1.0 lifts it).
    ///
    /// Cap reductions apply to active cores immediately, mirroring how
    /// [`FreqModel::set_activity`] handles turbo-table drops; lifting the
    /// throttle leaves the recovery to the ramp. Returns the
    /// representative cores whose frequency changed so the engine can
    /// re-time in-flight compute segments.
    pub fn set_socket_throttle(&mut self, now: Time, socket: usize, factor: f64) -> Vec<CoreId> {
        self.integrate_to(now);
        if self.throttle[socket] == factor {
            return Vec::new();
        }
        self.throttle[socket] = factor;
        // Apply the new cap to every turbo domain the socket contains
        // (exactly one on socket-scoped machines).
        let dp = self.topo.turbo_domain_phys();
        let pps = self.spec.phys_per_socket;
        let mut changed = Vec::new();
        for d in socket * pps / dp..(socket + 1) * pps / dp {
            let cap = self.capped_turbo(d, now);
            for ph in d * dp..(d + 1) * dp {
                if self.phys_is_active(ph) && self.phys[ph].cur > cap {
                    self.phys[ph].cur = cap;
                    self.power_dirty.push(ph);
                    changed.push(self.rep_core(ph));
                }
            }
        }
        changed
    }

    /// Returns the current throttle factor of `socket` (1.0 = none).
    pub fn socket_throttle(&self, socket: usize) -> f64 {
        self.throttle[socket]
    }

    /// Returns the current frequency of the physical core behind `core`.
    pub fn freq_of(&self, core: CoreId) -> Freq {
        self.phys[self.phys_index(core)].cur
    }

    /// Returns the frequency observed at the last scheduler tick — the
    /// stale view Smove bases its decision on (§2.2).
    pub fn observed_freq(&self, core: CoreId) -> Freq {
        self.phys[self.phys_index(core)].observed
    }

    /// Records the current frequencies as "observed at tick" — but only
    /// on *active* cores. Idle cores are tickless (NOHZ), so their
    /// observation goes stale at the last value seen while running; this
    /// is precisely why Smove rarely triggers on the 6130/5218 (§5.2:
    /// "when a core becomes idle there is often no clock tick that
    /// observes a low frequency").
    pub fn sample_observed(&mut self) {
        for phys in 0..self.phys.len() {
            if self.phys_is_active(phys) {
                self.phys[phys].observed = self.phys[phys].cur;
            }
        }
    }

    /// Returns total CPU energy consumed up to `now`, in joules.
    pub fn energy_joules(&mut self, now: Time) -> f64 {
        self.integrate_to(now);
        self.energy_joules
    }

    /// Voltage of `socket`, set by its fastest active physical core.
    fn socket_voltage(&self, socket: usize) -> f64 {
        let fspec = &self.spec.freq;
        let pps = self.spec.phys_per_socket;
        let vmax_freq = self.phys[socket * pps..(socket + 1) * pps]
            .iter()
            .filter(|ph| ph.active)
            .map(|ph| ph.cur)
            .fold(fspec.fmin, Freq::max);
        self.spec.power.voltage(vmax_freq, fspec.fmin, fspec.fmax())
    }

    /// Power of physical core `phys` at socket voltage `v`: its busy,
    /// spin or idle watts, computed as [`instant_power_w`] computes them.
    fn core_power_w(&self, phys: usize, v: f64) -> f64 {
        let pspec = &self.spec.power;
        let (t0, t1) = self.thread_pair[phys];
        let busy = self.thread_activity[t0] == Activity::Busy
            || self.thread_activity[t1] == Activity::Busy;
        let ghz = self.phys[phys].cur.as_ghz();
        if busy {
            pspec.dyn_coeff_w_per_ghz * ghz * v * v
        } else if self.phys[phys].active {
            // Spinning only: awake, but at a low activity factor.
            pspec.spin_power_factor * pspec.dyn_coeff_w_per_ghz * ghz * v * v
        } else {
            pspec.core_idle_w
        }
    }

    /// Returns instantaneous machine power in watts, bit-identical to
    /// [`instant_power_w`] over the same activity and frequencies.
    ///
    /// Each socket with a changed core gets its voltage recomputed; if
    /// the voltage moved, all of its terms are refreshed, otherwise only
    /// the changed cores'. The sum then restarts from the running total
    /// before the first changed socket and re-adds the cached terms in
    /// the oracle's order, so the float result is the same, not merely
    /// close. Past the last changed socket, a running total equal to the
    /// cached one means every later total is unchanged too, so the sum
    /// stops there.
    fn power_w(&mut self) -> f64 {
        let sockets = self.spec.sockets;
        if !self.power_dirty.is_empty() {
            let _span = nest_simcore::profile::span(nest_simcore::profile::Subsystem::FreqPower);
            let pps = self.spec.phys_per_socket;
            let mut dirty = std::mem::take(&mut self.power_dirty);
            dirty.sort_unstable();
            dirty.dedup();
            for changed in dirty.chunk_by(|a, b| a / pps == b / pps) {
                let socket = changed[0] / pps;
                let v = self.socket_voltage(socket);
                if v.to_bits() == self.socket_volt[socket].to_bits() {
                    for &phys in changed {
                        self.power_terms[phys] = self.core_power_w(phys, v);
                    }
                } else {
                    self.socket_volt[socket] = v;
                    for phys in socket * pps..(socket + 1) * pps {
                        self.power_terms[phys] = self.core_power_w(phys, v);
                    }
                }
            }
            let first = dirty[0] / pps;
            let last_changed = dirty[dirty.len() - 1] / pps;
            let mut total = match first {
                0 => 0.0,
                s => self.power_prefix[s - 1],
            };
            for socket in first..sockets {
                total += self.spec.power.uncore_w;
                for &term in &self.power_terms[socket * pps..(socket + 1) * pps] {
                    total += term;
                }
                let unchanged = total.to_bits() == self.power_prefix[socket].to_bits();
                if socket >= last_changed && unchanged {
                    break;
                }
                self.power_prefix[socket] = total;
            }
            dirty.clear();
            self.power_dirty = dirty;
        }
        self.power_prefix[sockets - 1]
    }

    fn integrate_to(&mut self, now: Time) {
        if now <= self.last_integration {
            return;
        }
        let dt_s = (now - self.last_integration) as f64 / 1e9;
        self.energy_joules += self.power_w() * dt_s;
        self.last_integration = now;
    }

    /// Updates a hardware thread's activity.
    ///
    /// Returns the physical cores whose frequency changed as a result
    /// (activation bumps to the wakeup floor; cap reductions apply
    /// immediately), so the engine can re-time in-flight compute segments.
    pub fn set_activity(&mut self, now: Time, core: CoreId, act: Activity) -> Vec<CoreId> {
        self.integrate_to(now);
        let idx = core.index();
        if self.thread_activity[idx] == act {
            return Vec::new();
        }
        let phys = self.phys_index(core);
        let domain = self.topo.turbo_domain_of_phys(phys);
        let was_active = self.phys[phys].active;
        self.thread_activity[idx] = act;
        self.power_dirty.push(phys);
        let (t0, t1) = self.thread_pair[phys];
        let is_active = self.thread_activity[t0] != Activity::Idle
            || self.thread_activity[t1] != Activity::Idle;
        self.phys[phys].active = is_active;

        let mut changed = Vec::new();
        if was_active != is_active {
            if is_active {
                self.domain_active[domain] += 1;
                self.phys[phys].idle_since = None;
                // Waking under `performance` jumps straight to nominal.
                let floor = self.governor.wakeup_floor(&self.spec.freq);
                if self.phys[phys].cur < floor {
                    self.phys[phys].cur = floor;
                    changed.push(self.rep_core(phys));
                }
            } else {
                self.domain_active[domain] -= 1;
                self.phys[phys].idle_since = Some(now);
                self.phys[phys].last_active = Some(now);
            }
            // The turbo cap of every active core in this turbo domain may
            // have moved; apply cap *reductions* immediately (the
            // hardware drops out of turbo without delay), leave raises to
            // the ramp.
            let cap = self.capped_turbo(domain, now);
            let dp = self.topo.turbo_domain_phys();
            for ph in domain * dp..(domain + 1) * dp {
                if self.phys_is_active(ph) && self.phys[ph].cur > cap {
                    self.phys[ph].cur = cap;
                    self.power_dirty.push(ph);
                    changed.push(self.rep_core(ph));
                }
            }
        }
        changed
    }

    /// Returns the first hardware thread of a physical core, used as the
    /// representative in change notifications.
    fn rep_core(&self, phys: usize) -> CoreId {
        CoreId::from_index(self.threads_of_phys(phys).0)
    }

    /// Advances the ramp/decay dynamics by `dt_ns` at time `now`
    /// (`now` is the *end* of the interval).
    ///
    /// `util_of` supplies the PELT utilization (`[0, 1]`) of a physical
    /// core, given its representative hardware thread — used by the
    /// `schedutil` request. Returns physical cores (as representative
    /// thread ids) whose frequency changed.
    pub fn advance(
        &mut self,
        now: Time,
        dt_ns: u64,
        util_of: &mut dyn FnMut(CoreId) -> f64,
    ) -> Vec<CoreId> {
        self.integrate_to(now);
        let mut changed = Vec::new();
        let fspec = self.spec.freq.clone();
        let dt_ms = dt_ns as f64 / 1e6;
        let up = (fspec.ramp_up_khz_per_ms as f64 * dt_ms) as u64;
        let down = (fspec.ramp_down_khz_per_ms as f64 * dt_ms) as u64;
        let caps: Vec<Freq> = (0..self.n_turbo_domains())
            .map(|d| self.capped_turbo(d, now))
            .collect();
        for phys in 0..self.phys.len() {
            let cap = caps[self.topo.turbo_domain_of_phys(phys)];
            let rep = self.rep_core(phys);
            let (t0, t1) = self.threads_of_phys(phys);
            let spinning_only = self.thread_activity[t0] != Activity::Busy
                && self.thread_activity[t1] != Activity::Busy
                && (self.thread_activity[t0] == Activity::Spinning
                    || self.thread_activity[t1] == Activity::Spinning);
            let busy = self.thread_activity[t0] == Activity::Busy
                || self.thread_activity[t1] == Activity::Busy;

            let cur = self.phys[phys].cur;
            let next = if busy {
                let req = self.governor.requested_freq(&fspec, util_of(rep));
                let target = req.min(cap);
                step_toward(cur, target, up, down)
            } else if spinning_only {
                // Spinning holds the frequency: the hardware sees
                // activity, so no decay — but the turbo cap still binds.
                cur.min(cap)
            } else {
                // Idle: decay toward the governor floor after cooldown.
                let floor = self.governor.idle_floor(&fspec);
                match self.phys[phys].idle_since {
                    Some(since) if now.saturating_since(since) >= fspec.idle_cooldown_ns => {
                        step_toward(cur, floor, up, down)
                    }
                    _ => cur,
                }
            };
            if next != cur {
                self.phys[phys].cur = next;
                self.power_dirty.push(phys);
                changed.push(rep);
            }
        }
        changed
    }

    /// Serializes the model's mutable state for a snapshot.
    ///
    /// The machine spec, governor, and thread-pair table come from
    /// construction and are not stored; [`FreqModel::load`] expects a
    /// model freshly built from the same spec. The energy integrator is
    /// saved as of `last_integration` — not folded forward — so restore
    /// reproduces future integration steps bit for bit. The cached power
    /// terms and running totals are not stored: [`FreqModel::load`] marks
    /// every core changed, and the recompute yields the identical value.
    pub fn save(&self) -> Json {
        json::obj(self.snap_entries())
    }

    /// Restores state captured by [`FreqModel::save`] into a model built
    /// from the same machine spec and governor.
    pub fn load(&mut self, state: &Json) -> Result<(), String> {
        self.load_entries(state)?;
        self.power_dirty.clear();
        self.power_dirty.extend(0..self.phys.len());
        Ok(())
    }
}

/// Computes instantaneous machine power in watts from externally
/// tracked state: per-hardware-thread activity and per-physical-core
/// frequency.
///
/// This is the whole of [`FreqModel`]'s power model as a pure function,
/// so any observer that mirrors activity and frequency from the trace
/// stream (the time-series sampler in `nest-obs`) computes exactly the
/// power the energy integrator charges. It is also the oracle for the
/// model's incremental recompute, which caches per-core terms and the
/// running total after each socket but adds the same values in the same
/// order, so integrated energy is bit-identical to summing this.
///
/// `activity_of` is indexed by hardware thread, `freq_of_phys` by
/// physical core (`socket * phys_per_socket + p`). A physical core is
/// *active* when either of its hardware threads is non-idle — the same
/// derivation [`FreqModel::set_activity`] caches.
pub fn instant_power_w(
    spec: &MachineSpec,
    activity_of: impl Fn(usize) -> Activity,
    freq_of_phys: impl Fn(usize) -> Freq,
) -> f64 {
    let fspec = &spec.freq;
    let pspec = &spec.power;
    let pps = spec.phys_per_socket;
    let cps = spec.cores_per_socket();
    let threads_of = |phys: usize| {
        let (socket, p) = (phys / pps, phys % pps);
        let t0 = socket * cps + p;
        let t1 = if spec.smt == 2 { t0 + pps } else { t0 };
        (t0, t1)
    };
    let is_active = |phys: usize| {
        let (t0, t1) = threads_of(phys);
        activity_of(t0) != Activity::Idle || activity_of(t1) != Activity::Idle
    };
    let mut total = 0.0;
    for socket in 0..spec.sockets {
        total += pspec.uncore_w;
        // Socket voltage tracks the fastest active physical core.
        let mut vmax_freq = fspec.fmin;
        for p in 0..pps {
            let phys = socket * pps + p;
            if is_active(phys) && freq_of_phys(phys) > vmax_freq {
                vmax_freq = freq_of_phys(phys);
            }
        }
        let v = pspec.voltage(vmax_freq, fspec.fmin, fspec.fmax());
        for p in 0..pps {
            let phys = socket * pps + p;
            let (t0, t1) = threads_of(phys);
            let busy = activity_of(t0) == Activity::Busy || activity_of(t1) == Activity::Busy;
            if busy {
                total += pspec.dyn_coeff_w_per_ghz * freq_of_phys(phys).as_ghz() * v * v;
            } else if is_active(phys) {
                // Spinning only: awake, but at a low activity factor.
                total += pspec.spin_power_factor
                    * pspec.dyn_coeff_w_per_ghz
                    * freq_of_phys(phys).as_ghz()
                    * v
                    * v;
            } else {
                total += pspec.core_idle_w;
            }
        }
    }
    total
}

/// Nanoseconds the work executed during `dt_ns` at frequency `actual`
/// *would have taken* at `reference` — the ramp-penalty primitive.
///
/// Cycles are counted with the engine's own rounding (cycles retired in
/// an interval round down, time for a cycle count rounds up), so for
/// `reference >= actual` the result never exceeds `dt_ns` and the
/// difference `dt_ns - ns_at_reference(..)` is the exact non-negative
/// time lost to running below `reference`.
pub fn ns_at_reference(actual: Freq, reference: Freq, dt_ns: u64) -> u64 {
    reference.nanos_for_cycles(actual.cycles_in_nanos(dt_ns))
}

/// Moves `cur` toward `target`, rising at most `up` kHz and falling at
/// most `down` kHz.
fn step_toward(cur: Freq, target: Freq, up: u64, down: u64) -> Freq {
    if cur < target {
        Freq::from_khz((cur.as_khz() + up).min(target.as_khz()))
    } else if cur > target {
        Freq::from_khz(cur.as_khz().saturating_sub(down).max(target.as_khz()))
    } else {
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::MILLISEC;
    use nest_topology::presets;

    fn model(gov: Governor) -> FreqModel {
        FreqModel::new(&presets::xeon_6130(2), gov)
    }

    fn run_ms(m: &mut FreqModel, from_ms: u64, n_ms: u64, util: f64) -> Time {
        let mut t = Time::from_millis(from_ms);
        for _ in 0..n_ms {
            t += MILLISEC;
            m.advance(t, MILLISEC, &mut |_| util);
        }
        t
    }

    #[test]
    fn starts_warm_at_nominal() {
        // A warm machine (post-warmup, §5.1): everything begins at the
        // nominal frequency regardless of governor.
        let m = model(Governor::Schedutil);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(2.1));
        let m = model(Governor::Performance);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(2.1));
    }

    #[test]
    fn single_busy_core_reaches_top_turbo() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        run_ms(&mut m, 0, 50, 1.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.7));
    }

    #[test]
    fn low_util_keeps_schedutil_at_nominal() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        run_ms(&mut m, 0, 50, 0.1);
        // 1.25 × 0.1 × 3.7 GHz ≈ 0.46 GHz, floored at nominal (HWP).
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(2.1));
    }

    #[test]
    fn performance_wakes_at_nominal() {
        let mut m = model(Governor::Performance);
        let changed = m.set_activity(Time::ZERO, CoreId(5), Activity::Busy);
        assert_eq!(m.freq_of(CoreId(5)), Freq::from_ghz(2.1));
        assert!(changed.is_empty() || m.freq_of(CoreId(5)) >= Freq::from_ghz(2.1));
    }

    #[test]
    fn many_active_cores_reduce_turbo_cap() {
        let mut m = model(Governor::Schedutil);
        // Activate 16 physical cores on socket 0 (threads 0..16).
        for c in 0..16 {
            m.set_activity(Time::ZERO, CoreId(c), Activity::Busy);
        }
        run_ms(&mut m, 0, 60, 1.0);
        // 16 active cores: cap is 2.8 GHz on the 6130.
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(2.8));
    }

    #[test]
    fn cap_reduction_is_immediate() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        let t = run_ms(&mut m, 0, 50, 1.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.7));
        // Activating 12 more phys cores caps at 2.8 immediately.
        let mut changed = Vec::new();
        for c in 1..16 {
            changed.extend(m.set_activity(t, CoreId(c), Activity::Busy));
        }
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(2.8));
        assert!(changed.contains(&CoreId(0)));
    }

    #[test]
    fn hyperthreads_share_physical_frequency() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        run_ms(&mut m, 0, 50, 1.0);
        // CoreId(16) is the hyperthread of CoreId(0) on the 6130.
        assert_eq!(m.freq_of(CoreId(16)), m.freq_of(CoreId(0)));
        // And both count as one active physical core.
        assert_eq!(m.active_phys_in_domain(0), 1);
        m.set_activity(Time::from_millis(50), CoreId(16), Activity::Busy);
        assert_eq!(m.active_phys_in_domain(0), 1);
    }

    #[test]
    fn idle_core_decays_after_cooldown() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        let t = run_ms(&mut m, 0, 50, 1.0);
        m.set_activity(t, CoreId(0), Activity::Idle);
        // Within the cooldown (9 ms on the 6130) the frequency holds.
        run_ms(&mut m, 50, 5, 0.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.7));
        // Long after the cooldown (50 MHz/ms decay from 3.7 GHz) it has
        // decayed all the way to fmin.
        run_ms(&mut m, 55, 100, 0.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(1.0));
    }

    #[test]
    fn windowed_count_outlives_activity() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        let t = Time::from_millis(10);
        m.set_activity(t, CoreId(0), Activity::Idle);
        // Still counted for the 60 ms turbo window...
        assert_eq!(m.windowed_active_in_domain(0, t + 30 * MILLISEC), 1);
        // ...but not after it expires.
        assert_eq!(m.windowed_active_in_domain(0, t + 61 * MILLISEC), 0);
        assert_eq!(m.active_phys_in_domain(0), 0);
    }

    #[test]
    fn dispersal_keeps_turbo_cap_low() {
        // One task bouncing over 8 physical cores in quick succession
        // keeps the windowed count at 8, capping everyone at 3.4 GHz —
        // while perfect reuse of one core would allow 3.7 GHz.
        let mut m = model(Governor::Schedutil);
        let mut t = Time::ZERO;
        for round in 0..16 {
            let core = CoreId(round % 8);
            m.set_activity(t, core, Activity::Busy);
            t = run_ms(&mut m, (round * 5) as u64, 5, 1.0);
            m.set_activity(t, core, Activity::Idle);
        }
        // At the end of the run the windowed count spans all 8 cores.
        assert_eq!(m.windowed_active_in_domain(0, t), 8);
        // A newly busy core cannot exceed the 5-8 active cap (3.4 GHz).
        m.set_activity(t, CoreId(0), Activity::Busy);
        run_ms(&mut m, 80, 10, 1.0);
        assert!(m.freq_of(CoreId(0)) <= Freq::from_ghz(3.4));
    }

    #[test]
    fn spinning_holds_frequency() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        let t = run_ms(&mut m, 0, 50, 1.0);
        m.set_activity(t, CoreId(0), Activity::Spinning);
        run_ms(&mut m, 50, 40, 0.0);
        // Spin prevents decay entirely.
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.7));
    }

    #[test]
    fn spinning_counts_toward_turbo_cap() {
        let mut m = model(Governor::Schedutil);
        for c in 0..12 {
            m.set_activity(Time::ZERO, CoreId(c), Activity::Spinning);
        }
        assert_eq!(m.active_phys_in_domain(0), 12);
        m.set_activity(Time::ZERO, CoreId(12), Activity::Busy);
        run_ms(&mut m, 0, 60, 1.0);
        // 13 active physical cores: cap 2.8 GHz.
        assert_eq!(m.freq_of(CoreId(12)), Freq::from_ghz(2.8));
    }

    #[test]
    fn observed_freq_lags_until_sampled() {
        let mut m = model(Governor::Schedutil);
        let initial = m.observed_freq(CoreId(0));
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        run_ms(&mut m, 0, 50, 1.0);
        assert_eq!(m.observed_freq(CoreId(0)), initial);
        m.sample_observed();
        assert_eq!(m.observed_freq(CoreId(0)), Freq::from_ghz(3.7));
    }

    #[test]
    fn energy_accumulates_and_busy_costs_more() {
        let mut idle = model(Governor::Schedutil);
        let e_idle = idle.energy_joules(Time::from_secs(1));
        assert!(e_idle > 0.0);

        let mut busy = model(Governor::Schedutil);
        for c in 0..16 {
            busy.set_activity(Time::ZERO, CoreId(c), Activity::Busy);
        }
        run_ms(&mut busy, 0, 1000, 1.0);
        let e_busy = busy.energy_joules(Time::from_secs(1));
        assert!(e_busy > e_idle, "busy {e_busy} <= idle {e_idle}");
    }

    #[test]
    fn energy_is_monotone_in_time() {
        let mut m = model(Governor::Performance);
        let e1 = m.energy_joules(Time::from_millis(10));
        let e2 = m.energy_joules(Time::from_millis(20));
        assert!(e2 > e1);
        // Asking for a past time does not rewind the integrator.
        let e3 = m.energy_joules(Time::from_millis(5));
        assert_eq!(e3, e2);
    }

    #[test]
    fn throttle_caps_immediately_and_lifts_via_ramp() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        let t = run_ms(&mut m, 0, 50, 1.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.7));
        // 0.8 × 3.7 GHz = 2.96 GHz, applied at once.
        let changed = m.set_socket_throttle(t, 0, 0.8);
        assert_eq!(changed, vec![CoreId(0)]);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_khz(2_960_000));
        assert_eq!(m.socket_throttle(0), 0.8);
        // The capped frequency holds while throttled...
        run_ms(&mut m, 50, 20, 1.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_khz(2_960_000));
        // ...and lifting it recovers through the ramp, not instantly.
        let lifted = m.set_socket_throttle(Time::from_millis(70), 0, 1.0);
        assert!(lifted.is_empty(), "raises are left to the ramp");
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_khz(2_960_000));
        run_ms(&mut m, 70, 50, 1.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.7));
    }

    #[test]
    fn throttle_is_per_socket_and_floors_at_fmin() {
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        m.set_activity(Time::ZERO, CoreId(32), Activity::Busy); // socket 1
        let t = run_ms(&mut m, 0, 50, 1.0);
        assert_eq!(m.freq_of(CoreId(32)), Freq::from_ghz(3.7));
        // A near-total throttle of socket 0 floors at fmin (1.0 GHz) and
        // leaves socket 1 untouched.
        m.set_socket_throttle(t, 0, 0.01);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(1.0));
        assert_eq!(m.freq_of(CoreId(32)), Freq::from_ghz(3.7));
        // Busy cores under throttle stay pinned at the scaled cap.
        run_ms(&mut m, 50, 10, 1.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(1.0));
        assert_eq!(m.freq_of(CoreId(32)), Freq::from_ghz(3.7));
    }

    #[test]
    fn unthrottled_model_is_unchanged_by_the_throttle_plumbing() {
        // Empty-fault-plan inertness: a factor of exactly 1.0 short-
        // circuits before any float math touches the cap.
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        run_ms(&mut m, 0, 50, 1.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.7));
        assert_eq!(m.socket_throttle(0), 1.0);
        assert!(m
            .set_socket_throttle(Time::from_millis(50), 0, 1.0)
            .is_empty());
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        // Build a model in a messy mid-run state: mixed activity, a
        // throttled socket, partial ramps, stale observations.
        let mut m = model(Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        m.set_activity(Time::ZERO, CoreId(3), Activity::Spinning);
        m.set_activity(Time::ZERO, CoreId(33), Activity::Busy);
        let t = run_ms(&mut m, 0, 17, 0.73);
        m.sample_observed();
        m.set_socket_throttle(t, 1, 0.9);
        m.set_activity(t, CoreId(3), Activity::Idle);
        let t = run_ms(&mut m, 17, 5, 0.73);

        let mut r = model(Governor::Schedutil);
        r.load(&m.save()).unwrap();

        // Identical future evolution, including the energy integral.
        let mut tm = t;
        let mut tr = t;
        for step in 0..40u64 {
            tm += MILLISEC;
            tr += MILLISEC;
            let util = (step % 10) as f64 / 10.0;
            assert_eq!(
                m.advance(tm, MILLISEC, &mut |_| util),
                r.advance(tr, MILLISEC, &mut |_| util)
            );
        }
        for c in [0usize, 3, 16, 33] {
            assert_eq!(m.freq_of(CoreId(c as u32)), r.freq_of(CoreId(c as u32)));
            assert_eq!(
                m.observed_freq(CoreId(c as u32)),
                r.observed_freq(CoreId(c as u32))
            );
        }
        assert_eq!(m.energy_joules(tm).to_bits(), r.energy_joules(tr).to_bits());
    }

    #[test]
    fn load_rejects_wrong_machine_shape() {
        let m = model(Governor::Schedutil);
        let mut small = FreqModel::new(&presets::xeon_6130(1), Governor::Schedutil);
        let err = small.load(&m.save()).err().unwrap();
        assert!(err.contains("entries"), "{err}");
    }

    #[test]
    fn ccx_scoped_turbo_caps_are_independent() {
        // synth: 1 socket × 2 CCX × 8 phys, SMT-1, per-CCX ladder
        // (3.5/3.5/3.2/3.2/3.0…). Loading CCX 0 must not cap CCX 1.
        let spec = presets::synth(1, 2, 8, 1, nest_topology::NumaKind::Flat);
        let mut m = FreqModel::new(&spec, Governor::Schedutil);
        assert_eq!(m.n_turbo_domains(), 2);
        for c in 0..8 {
            m.set_activity(Time::ZERO, CoreId(c), Activity::Busy);
        }
        // One lone core on CCX 1 (cores 8..16).
        m.set_activity(Time::ZERO, CoreId(8), Activity::Busy);
        run_ms(&mut m, 0, 60, 1.0);
        assert_eq!(m.active_phys_in_domain(0), 8);
        assert_eq!(m.active_phys_in_domain(1), 1);
        // CCX 0 is pinned at the all-core ceiling, CCX 1 boosts to fmax.
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.0));
        assert_eq!(m.freq_of(CoreId(8)), Freq::from_ghz(3.5));
    }

    #[test]
    fn smt1_threads_are_their_own_pair() {
        let spec = presets::synth(1, 2, 8, 1, nest_topology::NumaKind::Flat);
        let mut m = FreqModel::new(&spec, Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(3), Activity::Busy);
        assert_eq!(m.active_phys_in_domain(0), 1);
        m.set_activity(Time::ZERO, CoreId(3), Activity::Idle);
        assert_eq!(m.active_phys_in_domain(0), 0);
    }

    #[test]
    fn throttle_spans_all_ccxs_of_the_socket() {
        let spec = presets::synth(1, 2, 4, 1, nest_topology::NumaKind::Flat);
        let mut m = FreqModel::new(&spec, Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy); // CCX 0
        m.set_activity(Time::ZERO, CoreId(4), Activity::Busy); // CCX 1
        let t = run_ms(&mut m, 0, 50, 1.0);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_ghz(3.5));
        assert_eq!(m.freq_of(CoreId(4)), Freq::from_ghz(3.5));
        let changed = m.set_socket_throttle(t, 0, 0.5);
        assert_eq!(changed, vec![CoreId(0), CoreId(4)]);
        assert_eq!(m.freq_of(CoreId(0)), Freq::from_khz(1_750_000));
        assert_eq!(m.freq_of(CoreId(4)), Freq::from_khz(1_750_000));
    }

    #[test]
    fn synth_save_load_round_trip() {
        let spec = presets::synth(2, 2, 4, 1, nest_topology::NumaKind::Ring);
        let mut m = FreqModel::new(&spec, Governor::Schedutil);
        m.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        m.set_activity(Time::ZERO, CoreId(9), Activity::Spinning);
        let t = run_ms(&mut m, 0, 13, 0.9);
        let mut r = FreqModel::new(&spec, Governor::Schedutil);
        r.load(&m.save()).unwrap();
        let mut tm = t;
        for _ in 0..20 {
            tm += MILLISEC;
            assert_eq!(
                m.advance(tm, MILLISEC, &mut |_| 0.8),
                r.advance(tm, MILLISEC, &mut |_| 0.8)
            );
        }
        assert_eq!(m.energy_joules(tm).to_bits(), r.energy_joules(tm).to_bits());
    }

    /// One step of the power-oracle walk.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// `set_activity(core, activity)`.
        Activity(usize, Activity),
        /// `advance` over the step's interval at this utilization.
        Advance(f64),
        /// `set_socket_throttle(socket, factor)`.
        Throttle(usize, f64),
        /// `save` into a freshly built model and continue on the copy.
        Reload,
    }

    /// The model's incremental power equals [`instant_power_w`] over the
    /// same activity and frequencies, bit for bit, before time moves on
    /// in seeded random walks over machine shapes (1-8 sockets, 1-4 CCXs,
    /// SMT 1 and 2, flat and ring NUMA, socket- and CCX-scoped turbo);
    /// its energy equals a naive integrator that recomputes the oracle
    /// each interval. Each case is reproducible from the seed its failure
    /// message prints.
    #[test]
    fn pure_power_matches_the_model_bit_for_bit() {
        use nest_simcore::rng::mix64;
        use nest_simcore::SimRng;
        use nest_topology::NumaKind;
        use std::panic::{self, AssertUnwindSafe};

        // A scripted case: one integration step of exactly 1 s, so
        // energy == power × 1.0.
        let spec = presets::xeon_6130(2);
        let mut m = FreqModel::new(&spec, Governor::Schedutil);
        let mut acts = vec![Activity::Idle; spec.n_cores()];
        for (c, a) in [
            (0u32, Activity::Busy),
            (3, Activity::Spinning),
            (16, Activity::Busy), // hyperthread of core 0
            (33, Activity::Busy), // socket 1
        ] {
            m.set_activity(Time::ZERO, CoreId(c), a);
            acts[c as usize] = a;
        }
        let e = m.energy_joules(Time::from_secs(1));
        let pps = spec.phys_per_socket;
        let cps = spec.cores_per_socket();
        let p = instant_power_w(
            &spec,
            |t| acts[t],
            |phys| m.freq_of(CoreId::from_index((phys / pps) * cps + phys % pps)),
        );
        assert_eq!(e.to_bits(), (p * 1.0).to_bits());

        // Seeded random walks.
        const SEED: u64 = 0x5EED_0019;
        const CASES: u64 = 64;
        for case in 0..CASES {
            let seed = mix64(SEED, case);
            let mut rng = SimRng::new(seed);
            let draw = |rng: &mut SimRng, lo: u64, hi: u64| rng.uniform_u64(lo, hi) as usize;
            // Synthetic machines have a per-CCX turbo ladder, the 6130 a
            // per-socket one; the spec's name spells out the shape.
            let spec = match case {
                // The shape where the prefix is reused across the most
                // sockets.
                0 => presets::synth(8, 2, 2, 2, NumaKind::Ring),
                _ if rng.chance(0.25) => presets::xeon_6130(draw(&mut rng, 1, 4)),
                _ => presets::synth(
                    draw(&mut rng, 1, 8),
                    draw(&mut rng, 1, 4),
                    draw(&mut rng, 1, 4),
                    draw(&mut rng, 1, 2),
                    [NumaKind::Flat, NumaKind::Ring][draw(&mut rng, 0, 1)],
                ),
            };
            let governor = if rng.chance(0.5) {
                Governor::Schedutil
            } else {
                Governor::Performance
            };
            // Each step is taken `dt` ns after the one before.
            let steps: Vec<(u64, Step)> = (0..draw(&mut rng, 1, 150))
                .map(|_| {
                    let dt = if rng.chance(0.2) {
                        0
                    } else {
                        rng.uniform_u64(1, 3 * MILLISEC)
                    };
                    let step = match draw(&mut rng, 0, 9) {
                        0..=4 => Step::Activity(
                            draw(&mut rng, 0, spec.n_cores() as u64 - 1),
                            [Activity::Idle, Activity::Busy, Activity::Spinning]
                                [draw(&mut rng, 0, 2)],
                        ),
                        5..=7 => Step::Advance(rng.uniform_f64()),
                        8 => Step::Throttle(
                            draw(&mut rng, 0, spec.sockets as u64 - 1),
                            [1.0, 0.9, 0.5, 0.01][draw(&mut rng, 0, 3)],
                        ),
                        _ => Step::Reload,
                    };
                    (dt, step)
                })
                .collect();
            let walk = || {
                let oracle = |m: &FreqModel| {
                    instant_power_w(&spec, |t| m.thread_activity[t], |phys| m.phys[phys].cur)
                };
                let mut m = FreqModel::new(&spec, governor);
                let mut naive = 0.0;
                let mut now = Time::ZERO;
                for (i, &(dt, step)) in steps.iter().enumerate() {
                    // The interval since the last integration is charged
                    // at the power of the state before this step.
                    if dt > 0 {
                        naive += oracle(&m) * (dt as f64 / 1e9);
                    }
                    now += dt;
                    match step {
                        Step::Activity(core, act) => {
                            m.set_activity(now, CoreId::from_index(core), act);
                        }
                        Step::Advance(util) => {
                            m.advance(now, dt, &mut |_| util);
                        }
                        Step::Throttle(socket, factor) => {
                            m.set_socket_throttle(now, socket, factor);
                        }
                        Step::Reload => {
                            let mut fresh = FreqModel::new(&spec, governor);
                            fresh.load(&m.save()).unwrap();
                            m = fresh;
                        }
                    }
                    // Reading the power empties the change list, so it is
                    // read only where time moves next (or at the end): the
                    // list then holds every change made at this instant,
                    // in call order and across sockets, as in a run.
                    let settled = steps.get(i + 1).is_none_or(|&(next, _)| next > 0);
                    if settled {
                        assert_eq!(
                            m.power_w().to_bits(),
                            oracle(&m).to_bits(),
                            "power diverged at step {i}"
                        );
                    }
                    assert_eq!(
                        m.energy_joules(now).to_bits(),
                        naive.to_bits(),
                        "energy diverged at step {i}"
                    );
                }
            };
            if panic::catch_unwind(AssertUnwindSafe(walk)).is_err() {
                panic!(
                    "case {case} (seed {seed:#x}) failed on {} {governor:?} steps {steps:?}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn ns_at_reference_never_exceeds_the_interval() {
        let fmax = Freq::from_ghz(3.7);
        for khz in [1_000_000u64, 2_100_000, 2_099_999, 3_700_000] {
            let f = Freq::from_khz(khz);
            for dt in [0u64, 1, 999, 1_000_003, 250_000_000] {
                let at_ref = ns_at_reference(f, fmax, dt);
                assert!(at_ref <= dt, "{khz} kHz over {dt} ns gave {at_ref}");
            }
        }
        // Slower actual frequency loses proportionally more time.
        let dt = 1_000_000;
        let slow = ns_at_reference(Freq::from_ghz(1.0), fmax, dt);
        let fast = ns_at_reference(Freq::from_ghz(3.6), fmax, dt);
        assert!(slow < fast && fast < dt, "{slow} {fast}");
    }

    #[test]
    fn e7_ramps_slower_than_6130() {
        let spec_e7 = presets::e7_8870_v4();
        let mut m_e7 = FreqModel::new(&spec_e7, Governor::Schedutil);
        let mut m_61 = model(Governor::Schedutil);
        m_e7.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        m_61.set_activity(Time::ZERO, CoreId(0), Activity::Busy);
        let mut t = Time::ZERO;
        for _ in 0..4 {
            t += MILLISEC;
            m_e7.advance(t, MILLISEC, &mut |_| 1.0);
            m_61.advance(t, MILLISEC, &mut |_| 1.0);
        }
        let gain_e7 = m_e7.freq_of(CoreId(0)).as_khz() - spec_e7.freq.fmin.as_khz();
        let gain_61 = m_61.freq_of(CoreId(0)).as_khz() - 1_000_000;
        assert!(gain_e7 < gain_61);
    }
}
