//! Virtual time.
//!
//! Simulated time is a non-negative number of seconds. A newtype keeps the
//! units honest across the workspace and gives us a total order (simulated
//! clocks never hold NaN, which we enforce at construction).

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) virtual time, in seconds.
///
/// `SimTime` is totally ordered; constructing one from NaN panics, which
/// turns model bugs into loud failures instead of silently unordered clocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero: the start of every simulated run.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or negative — virtual clocks only move forward.
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        assert!(secs >= 0.0, "SimTime cannot be negative: {secs}");
        SimTime(secs)
    }

    /// The raw number of seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The later of two times.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales a duration by a non-negative factor (e.g. dividing map work
    /// across node-local workers).
    ///
    /// # Panics
    /// Panics if `factor` is negative or NaN.
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime::from_secs(self.0 * factor)
    }

    /// Saturating subtraction: the duration from `earlier` to `self`,
    /// or zero if `earlier` is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        if self.0 > earlier.0 {
            SimTime(self.0 - earlier.0)
        } else {
            SimTime::ZERO
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: construction forbids NaN.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimTime {
        /// The earlier of two times.
        fn min(self, other: SimTime) -> SimTime {
            if self.0 <= other.0 {
                self
            } else {
                other
            }
        }
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(1.5);
        let b = SimTime::from_secs(0.5);
        assert_eq!((a + b).secs(), 2.0);
        assert_eq!((a - b).secs(), 1.0);
        let mut c = a;
        c += b;
        assert_eq!(c.secs(), 2.0);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(b.saturating_since(a).secs(), 2.0);
        assert_eq!(a.saturating_since(b), SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_time_panics() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [1.0, 2.0, 3.0].iter().map(|&s| SimTime::from_secs(s)).sum();
        assert_eq!(total.secs(), 6.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_secs(2.5)), "2.500s");
        assert_eq!(format!("{}", SimTime::from_secs(2.5e-3)), "2.500ms");
        assert_eq!(format!("{}", SimTime::from_secs(2.5e-6)), "2.500us");
    }
}
