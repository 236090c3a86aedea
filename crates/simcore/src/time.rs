//! Simulated time.
//!
//! Time is measured in nanoseconds since the start of the simulation and is
//! represented by the [`Time`] newtype. Durations are plain `u64`
//! nanosecond counts; the constants [`NANOSEC`], [`MICROSEC`], [`MILLISEC`],
//! [`SEC`], and [`TICK_NS`] make call sites readable, and
//! [`parse_duration`]/[`format_duration`] are the one text form of a
//! duration that every spec grammar (faults, fleets, serving) shares;
//! [`parse_window`]/[`format_window`] are the one `TIME[:DUR]` window.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One nanosecond, the base unit of simulated time.
pub const NANOSEC: u64 = 1;
/// One microsecond in nanoseconds.
pub const MICROSEC: u64 = 1_000;
/// One millisecond in nanoseconds.
pub const MILLISEC: u64 = 1_000_000;
/// One second in nanoseconds.
pub const SEC: u64 = 1_000_000_000;

/// Duration of one scheduler tick.
///
/// The paper's kernels run at 250 Hz, i.e. a 4 ms tick; Table 1's
/// tick-denominated parameters (`P_remove` = 2 ticks = 8 ms) rely on this
/// value.
pub const TICK_NS: u64 = 4 * MILLISEC;

/// Parses a duration with a mandatory `ns`/`us`/`ms`/`s` unit suffix
/// (`"2ms"`, `"500us"`); `None` on malformed input.
pub fn parse_duration(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit())?);
    let n: u64 = digits.parse().ok()?;
    let scale = match unit {
        "ns" => 1,
        "us" => MICROSEC,
        "ms" => MILLISEC,
        "s" => SEC,
        _ => return None,
    };
    n.checked_mul(scale)
}

/// Renders a nanosecond duration in the largest exact unit (the inverse
/// of [`parse_duration`]).
pub fn format_duration(ns: u64) -> String {
    if ns == 0 {
        return "0ns".to_string();
    }
    for (scale, unit) in [(SEC, "s"), (MILLISEC, "ms"), (MICROSEC, "us")] {
        if ns.is_multiple_of(scale) {
            return format!("{}{unit}", ns / scale);
        }
    }
    format!("{ns}ns")
}

/// Parses a `TIME[:DUR]` window: an onset and, when given, a positive
/// length (`"50ms"`, `"50ms:100ms"`). The error names the part at fault.
pub fn parse_window(s: &str) -> Result<(u64, Option<u64>), String> {
    let dur = |d: &str| {
        parse_duration(d)
            .ok_or_else(|| format!("\"{}\" is not a duration (e.g. 50ms, 2s)", d.trim()))
    };
    let Some((at, len)) = s.split_once(':') else {
        return Ok((dur(s)?, None));
    };
    match (dur(at)?, dur(len)?) {
        (_, 0) => Err("window length must be positive".to_string()),
        (at, len) => Ok((at, Some(len))),
    }
}

/// Renders a window as [`parse_window`] reads it: `TIME` or `TIME:DUR`.
pub fn format_window(at_ns: u64, dur_ns: Option<u64>) -> String {
    match dur_ns {
        Some(d) => format!("{}:{}", format_duration(at_ns), format_duration(d)),
        None => format_duration(at_ns),
    }
}

/// An instant in simulated time, in nanoseconds since simulation start.
///
/// `Time` is `Copy`, totally ordered, and supports adding nanosecond
/// durations. Subtracting two `Time`s yields a `u64` duration and panics on
/// underflow (a simulation bug, not a recoverable condition).
///
/// # Examples
///
/// ```
/// use nest_simcore::time::{Time, MILLISEC};
///
/// let t = Time::ZERO + 3 * MILLISEC;
/// assert_eq!(t.as_nanos(), 3_000_000);
/// assert_eq!(t - Time::ZERO, 3 * MILLISEC);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);

    /// A time far beyond any simulated horizon, usable as a sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from a nanosecond count.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Creates a time from a microsecond count.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * MICROSEC)
    }

    /// Creates a time from a millisecond count.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * MILLISEC)
    }

    /// Creates a time from a second count.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * SEC)
    }

    /// Returns the nanosecond count since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SEC as f64
    }

    /// Returns the duration since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns the index of the scheduler tick period containing this time.
    pub const fn tick_index(self) -> u64 {
        self.0 / TICK_NS
    }

    /// Rounds down to the start of the enclosing interval of length
    /// `interval_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns` is zero.
    pub const fn align_down(self, interval_ns: u64) -> Time {
        Time(self.0 - self.0 % interval_ns)
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two times.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<u64> for Time {
    type Output = Time;

    fn add(self, ns: u64) -> Time {
        Time(self.0 + ns)
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub<Time> for Time {
    type Output = u64;

    fn sub(self, other: Time) -> u64 {
        self.0
            .checked_sub(other.0)
            .expect("time subtraction underflow: simulation clock went backwards")
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_round_trips() {
        for (s, ns) in [
            ("2ms", 2 * MILLISEC),
            ("500us", 500 * MICROSEC),
            ("3s", 3 * SEC),
            ("7ns", 7),
        ] {
            assert_eq!(parse_duration(s), Some(ns), "{s}");
            assert_eq!(format_duration(ns), s, "{ns}");
        }
        for bad in ["", "2", "ms", "2 ms", "2m", "-1ms"] {
            assert_eq!(parse_duration(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn window_round_trips() {
        for (s, w) in [
            ("50ms", (50 * MILLISEC, None)),
            ("0ns:3s", (0, Some(3 * SEC))),
            ("250ms:250ms", (250 * MILLISEC, Some(250 * MILLISEC))),
        ] {
            assert_eq!(parse_window(s), Ok(w), "{s}");
            assert_eq!(format_window(w.0, w.1), s);
        }
        assert_eq!(
            parse_window("50"),
            Err("\"50\" is not a duration (e.g. 50ms, 2s)".to_string())
        );
        assert!(parse_window("50ms:x").is_err());
        assert_eq!(
            parse_window("50ms:0ms"),
            Err("window length must be positive".to_string())
        );
    }

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(Time::from_micros(1), Time::from_nanos(MICROSEC));
        assert_eq!(Time::from_millis(1), Time::from_nanos(MILLISEC));
        assert_eq!(Time::from_secs(1), Time::from_nanos(SEC));
    }

    #[test]
    fn add_and_sub_round_trip() {
        let t = Time::from_millis(5);
        let u = t + 250;
        assert_eq!(u - t, 250);
        assert_eq!(u.as_nanos(), 5 * MILLISEC + 250);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_backwards_clock() {
        let _ = Time::ZERO - Time::from_nanos(1);
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Time::ZERO.saturating_since(Time::from_secs(1)), 0);
        assert_eq!(Time::from_secs(2).saturating_since(Time::from_secs(1)), SEC);
    }

    #[test]
    fn tick_index_boundaries() {
        assert_eq!(Time::ZERO.tick_index(), 0);
        assert_eq!(Time::from_nanos(TICK_NS - 1).tick_index(), 0);
        assert_eq!(Time::from_nanos(TICK_NS).tick_index(), 1);
    }

    #[test]
    fn align_down_is_idempotent() {
        let t = Time::from_nanos(10 * MILLISEC + 123);
        let a = t.align_down(4 * MILLISEC);
        assert_eq!(a.as_nanos(), 8 * MILLISEC);
        assert_eq!(a.align_down(4 * MILLISEC), a);
    }

    #[test]
    fn min_max() {
        let a = Time::from_nanos(1);
        let b = Time::from_nanos(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_renders_seconds() {
        assert_eq!(format!("{}", Time::from_millis(1500)), "1.500000s");
    }
}
