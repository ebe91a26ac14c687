//! Virtual time.
//!
//! The whole substrate runs on a discrete-event clock measured in
//! nanoseconds since simulation start. Using a dedicated newtype (instead of
//! bare `u64`) keeps timestamps from being confused with ids, byte counts or
//! sequence numbers, and gives us saturating arithmetic in one place.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimeNs(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DurationNs(pub u64);

impl TimeNs {
    /// The zero timestamp (simulation start).
    pub const ZERO: TimeNs = TimeNs(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        TimeNs(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        TimeNs(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeNs(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The elapsed duration since `earlier`, saturating to zero if `earlier`
    /// is in the future (defensive: capture timestamps from different CPUs
    /// may be slightly out of order, paper §3.3.1).
    pub fn saturating_since(self, earlier: TimeNs) -> DurationNs {
        DurationNs(self.0.saturating_sub(earlier.0))
    }

    /// The index of the aggregation time slot this timestamp falls in, for a
    /// given slot width (paper §3.3.1 uses 60 s slots).
    pub fn slot(self, slot_width: DurationNs) -> u64 {
        debug_assert!(slot_width.0 > 0, "slot width must be positive");
        self.0 / slot_width.0
    }
}

impl DurationNs {
    /// The zero duration.
    pub const ZERO: DurationNs = DurationNs(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        DurationNs(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        DurationNs(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        DurationNs(s * 1_000_000_000)
    }

    /// Nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, other: DurationNs) -> DurationNs {
        DurationNs(self.0.saturating_sub(other.0))
    }

    /// Scale the duration by a non-negative factor, saturating on overflow.
    pub fn mul_f64(self, factor: f64) -> DurationNs {
        debug_assert!(factor >= 0.0, "duration scale factor must be non-negative");
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            DurationNs(u64::MAX)
        } else {
            DurationNs(scaled as u64)
        }
    }
}

impl Add<DurationNs> for TimeNs {
    type Output = TimeNs;
    fn add(self, rhs: DurationNs) -> TimeNs {
        TimeNs(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<DurationNs> for TimeNs {
    fn add_assign(&mut self, rhs: DurationNs) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<TimeNs> for TimeNs {
    type Output = DurationNs;
    fn sub(self, rhs: TimeNs) -> DurationNs {
        self.saturating_since(rhs)
    }
}

impl Add<DurationNs> for DurationNs {
    type Output = DurationNs;
    fn add(self, rhs: DurationNs) -> DurationNs {
        DurationNs(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<DurationNs> for DurationNs {
    fn add_assign(&mut self, rhs: DurationNs) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for DurationNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(TimeNs::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(TimeNs::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(TimeNs::from_micros(3).as_nanos(), 3_000);
        assert_eq!(DurationNs::from_secs(2).as_nanos(), 2_000_000_000);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = TimeNs(100);
        let b = TimeNs(250);
        assert_eq!(b.saturating_since(a), DurationNs(150));
        assert_eq!(a.saturating_since(b), DurationNs::ZERO);
    }

    #[test]
    fn slot_indexing_matches_paper_60s_windows() {
        let w = DurationNs::from_secs(60);
        assert_eq!(TimeNs::from_secs(0).slot(w), 0);
        assert_eq!(TimeNs::from_secs(59).slot(w), 0);
        assert_eq!(TimeNs::from_secs(60).slot(w), 1);
        assert_eq!(TimeNs::from_secs(121).slot(w), 2);
    }

    #[test]
    fn add_assign_advances_clock() {
        let mut t = TimeNs::ZERO;
        t += DurationNs::from_millis(5);
        t += DurationNs::from_micros(1);
        assert_eq!(t.as_nanos(), 5_001_000);
    }

    #[test]
    fn display_picks_reasonable_units() {
        assert_eq!(format!("{}", DurationNs(400)), "400ns");
        assert_eq!(format!("{}", DurationNs(2_500)), "2.50us");
        assert_eq!(format!("{}", DurationNs(2_500_000)), "2.50ms");
        assert_eq!(format!("{}", DurationNs(2_500_000_000)), "2.500s");
    }

    #[test]
    fn mul_f64_scales_and_saturates() {
        assert_eq!(DurationNs(1000).mul_f64(1.5), DurationNs(1500));
        assert_eq!(DurationNs(u64::MAX).mul_f64(2.0), DurationNs(u64::MAX));
        assert_eq!(DurationNs(1000).mul_f64(0.0), DurationNs::ZERO);
    }
}
