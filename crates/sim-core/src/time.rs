//! Simulated time.
//!
//! All simulation clocks are nanosecond-resolution unsigned integers. Using
//! integers (rather than `f64` seconds) keeps event ordering exact and makes
//! runs bit-for-bit reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`. Saturates at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from float seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// The time it takes to move `bytes` at `bytes_per_sec`.
    ///
    /// A rate of zero yields a zero duration (infinitely fast), which lets
    /// callers disable a cost component without special-casing.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        if bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        // Round up: a transfer occupies the resource for at least the exact
        // wire time; truncation would let utilization exceed 100%. Any
        // transfer under ~18 GB divides in u64; the u128 form gives the
        // same value and is kept for the rest.
        let ns = match bytes.checked_mul(1_000_000_000) {
            Some(scaled) => scaled.div_ceil(bytes_per_sec),
            None => {
                let ns = (u128::from(bytes) * 1_000_000_000).div_ceil(u128::from(bytes_per_sec));
                u64::try_from(ns).unwrap_or(u64::MAX)
            }
        };
        SimDuration(ns)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(5));
        assert_eq!(t.since(SimTime(10_000_000)), SimDuration::ZERO);
    }

    #[test]
    fn for_bytes_rounds_up() {
        // 1 byte at 3 bytes/sec: exact time is 333_333_333.33ns -> round up.
        let d = SimDuration::for_bytes(1, 3);
        assert_eq!(d.as_nanos(), 333_333_334);
        // Zero rate means free.
        assert_eq!(SimDuration::for_bytes(1 << 40, 0), SimDuration::ZERO);
        // Sanity: 12.5 MB/s moves 2 MB in 0.16 s.
        let d = SimDuration::for_bytes(2 * 1024 * 1024, 12_500_000);
        assert!((d.as_secs_f64() - 0.16777).abs() < 1e-3);
    }

    #[test]
    fn for_bytes_u64_path_matches_u128_at_the_boundary() {
        let edge = u64::MAX / 1_000_000_000;
        for bytes in [0, 1, edge, edge + 1, u64::MAX] {
            for rate in [1, 3, 12_500_000, 125_000_000, u64::MAX] {
                let exact = (u128::from(bytes) * 1_000_000_000).div_ceil(u128::from(rate));
                let want = u64::try_from(exact).unwrap_or(u64::MAX);
                assert_eq!(
                    SimDuration::for_bytes(bytes, rate).as_nanos(),
                    want,
                    "{bytes} B at {rate} B/s"
                );
            }
        }
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }
}
