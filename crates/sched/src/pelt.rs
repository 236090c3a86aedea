//! PELT-style load tracking.
//!
//! Linux's Per-Entity Load Tracking maintains, for every task and every
//! runqueue, a geometrically decaying average of recent activity with a
//! 32 ms half-life. Two of the paper's observations hinge on it:
//!
//! * CFS's fork placement *disfavors recently used cores* because their
//!   decaying load has not yet reached zero (§2.1) — the cause of task
//!   dispersal onto long-idle, low-frequency cores;
//! * the `schedutil` governor requests `1.25 × util × fmax`, so a core's
//!   frequency climbs only as its utilization average rebuilds (§2.3).
//!
//! [`Pelt`] implements the average with lazy, closed-form decay so it can
//! be updated at arbitrary event times rather than fixed periods.

use nest_simcore::Time;

/// Half-life of the decaying average, matching Linux (32 ms).
pub const PELT_HALFLIFE_NS: u64 = 32_000_000;

/// A geometrically decaying activity average in `[0, 1]`.
///
/// The value converges to 1 when the tracked entity is continuously
/// running and to 0 when continuously idle.
///
/// # Examples
///
/// ```
/// use nest_sched::pelt::Pelt;
/// use nest_simcore::Time;
///
/// let mut p = Pelt::new(Time::ZERO);
/// p.set_running(Time::ZERO, true);
/// // After one half-life of running, the average is halfway to 1.
/// let v = p.value(Time::from_millis(32));
/// assert!((v - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct Pelt {
    value: f64,
    running: bool,
    last_update: Time,
}

impl Pelt {
    /// Creates an average at zero, idle, as of `now`.
    pub fn new(now: Time) -> Pelt {
        Pelt::with_initial(now, 0.0)
    }

    /// Creates an average starting at `value` (e.g. the utilization a
    /// newly forked task inherits, `post_init_entity_util_avg`-style).
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `[0, 1]`.
    pub fn with_initial(now: Time, value: f64) -> Pelt {
        assert!(
            (0.0..=1.0).contains(&value),
            "invalid initial value {value}"
        );
        Pelt {
            value,
            running: false,
            last_update: now,
        }
    }

    fn decay_factor(dt_ns: u64) -> f64 {
        // Memoized `powf`: scheduler activity clusters on tick and
        // millisecond boundaries, so the same `dt` recurs millions of
        // times per run (the self-profiler counts ~28M decay updates on
        // figure 4 alone). The cache is keyed on the exact integer `dt`
        // and stores the result of the identical expression, so hits are
        // bit-identical to recomputation and the determinism contract
        // holds. Thread-local: workers never share simulation state.
        const SLOTS: usize = 8;
        thread_local! {
            static MEMO: [std::cell::Cell<(u64, f64)>; SLOTS] =
                const { [const { std::cell::Cell::new((u64::MAX, 0.0)) }; SLOTS] };
        }
        MEMO.with(|m| {
            let slot = &m[(dt_ns.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize];
            let (key, value) = slot.get();
            if key == dt_ns {
                return value;
            }
            let value = 0.5f64.powf(dt_ns as f64 / PELT_HALFLIFE_NS as f64);
            slot.set((dt_ns, value));
            value
        })
    }

    /// Folds the elapsed time into the average.
    pub fn update(&mut self, now: Time) {
        let dt = now.saturating_since(self.last_update);
        if dt == 0 {
            return;
        }
        if self.value == 0.0 && !self.running {
            // Fully decayed and idle: the fold is `0.0 * d + 0.0`, which
            // is `+0.0` for every positive decay factor — advancing the
            // clock alone produces bit-identical state, and folding the
            // merged interval later still yields `+0.0`.
            self.last_update = now;
            return;
        }
        nest_simcore::profile::count(nest_simcore::profile::Subsystem::PeltDecay);
        let d = Self::decay_factor(dt);
        let contrib = if self.running { 1.0 - d } else { 0.0 };
        self.value = self.value * d + contrib;
        self.last_update = now;
    }

    /// Switches the running state, folding time up to `now` first.
    pub fn set_running(&mut self, now: Time, running: bool) {
        self.update(now);
        self.running = running;
    }

    /// Returns the average as of `now` without mutating state.
    pub fn value(&self, now: Time) -> f64 {
        let dt = now.saturating_since(self.last_update);
        let d = Self::decay_factor(dt);
        let contrib = if self.running { 1.0 - d } else { 0.0 };
        self.value * d + contrib
    }

    /// Returns the raw `(value, running, last_update)` state for a
    /// snapshot. `value` is the *stored* average as of `last_update`,
    /// not the lazily decayed current value — exactly what
    /// [`Pelt::restore`] needs to reproduce future folds bit for bit.
    pub fn snap(&self) -> (f64, bool, Time) {
        (self.value, self.running, self.last_update)
    }

    /// Reconstructs an average from state captured by [`Pelt::snap`].
    pub fn restore(value: f64, running: bool, last_update: Time) -> Pelt {
        Pelt {
            value,
            running,
            last_update,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_simcore::MILLISEC;

    #[test]
    fn starts_at_zero() {
        let p = Pelt::new(Time::ZERO);
        assert_eq!(p.value(Time::from_secs(10)), 0.0);
    }

    #[test]
    fn converges_to_one_when_running() {
        let mut p = Pelt::new(Time::ZERO);
        p.set_running(Time::ZERO, true);
        let v = p.value(Time::from_millis(320));
        assert!(v > 0.999, "{v}");
    }

    #[test]
    fn halflife_is_32ms() {
        let mut p = Pelt::new(Time::ZERO);
        p.set_running(Time::ZERO, true);
        assert!((p.value(Time::from_millis(32)) - 0.5).abs() < 1e-9);
        assert!((p.value(Time::from_millis(64)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn decays_when_idle() {
        let mut p = Pelt::new(Time::ZERO);
        p.set_running(Time::ZERO, true);
        p.set_running(Time::from_millis(320), false);
        let v = p.value(Time::from_millis(320 + 32));
        assert!((v - 0.5).abs() < 1e-3, "{v}");
    }

    #[test]
    fn lazy_update_matches_incremental() {
        let mut a = Pelt::new(Time::ZERO);
        let mut b = Pelt::new(Time::ZERO);
        a.set_running(Time::ZERO, true);
        b.set_running(Time::ZERO, true);
        // Update `a` every ms; leave `b` lazy.
        let mut t = Time::ZERO;
        for _ in 0..50 {
            t += MILLISEC;
            a.update(t);
        }
        assert!((a.value(t) - b.value(t)).abs() < 1e-9);
    }

    #[test]
    fn value_is_pure() {
        let mut p = Pelt::new(Time::ZERO);
        p.set_running(Time::ZERO, true);
        let t = Time::from_millis(10);
        assert_eq!(p.value(t), p.value(t));
    }

    #[test]
    fn bounded_in_unit_interval() {
        let mut p = Pelt::new(Time::ZERO);
        let mut t = Time::ZERO;
        for i in 0..200 {
            t += (i % 7 + 1) * MILLISEC;
            p.set_running(t, i % 3 != 0);
            let v = p.value(t);
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }
}
