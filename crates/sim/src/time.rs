//! Virtual time for the discrete-event simulation.
//!
//! Time is an integer number of **microseconds** since the start of the
//! simulation. Integer time (as opposed to `f64` seconds) keeps event
//! ordering exact and runs reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "never".
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Microseconds since simulation start.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    #[inline]
    #[cfg(test)]
    pub(crate) fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float.
    #[inline]
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Elapsed duration since `earlier`. Saturates at zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest
    /// microsecond; negative inputs clamp to zero).
    #[inline]
    pub(crate) fn from_secs_f64(s: f64) -> SimDuration {
        if s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * 1_000_000.0).round() as u64)
        }
    }

    /// Microseconds in this duration.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scale this duration by a non-negative float factor.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 1_000_000 {
            write!(f, "{:.3}s", us as f64 / 1_000_000.0)
        } else if us >= 1_000 {
            write!(f, "{:.3}ms", us as f64 / 1_000.0)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        assert_eq!(t.as_millis(), 5);
        let t2 = t + SimDuration::from_secs(1);
        assert_eq!(t2 - t, SimDuration::from_secs(1));
        assert_eq!((t2 - t).as_secs_f64(), 1.0);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime(10);
        let late = SimTime(100);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration(90));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
        assert_eq!(SimDuration::from_secs_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(25_000));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(2_500).to_string(), "2.500s");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime(5), SimTime(1), SimTime(3)];
        v.sort();
        assert_eq!(v, vec![SimTime(1), SimTime(3), SimTime(5)]);
    }

    #[test]
    fn max_sentinel_does_not_overflow() {
        let t = SimTime::MAX + SimDuration::from_secs(10);
        assert_eq!(t, SimTime::MAX);
    }
}
