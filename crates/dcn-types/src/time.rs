//! Simulation time (continuous, for the flow-level simulator) and slots
//! (discrete, for the input-queued switch model).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) continuous simulated time, in seconds.
///
/// `SimTime` is totally ordered (NaN is rejected at construction) so it can
/// key the event queue of the flow-level simulator directly.
///
/// # Example
///
/// ```
/// use dcn_types::SimTime;
/// let a = SimTime::from_millis(1.5);
/// let b = SimTime::from_secs(0.0015);
/// assert_eq!(a, b);
/// assert!(a < SimTime::from_secs(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// An unreachable time, used as "never" for completion estimates of
    /// unscheduled flows.
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            !secs.is_nan() && secs >= 0.0,
            "time must be >= 0, got {secs}"
        );
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is NaN or negative.
    pub fn from_millis(millis: f64) -> Self {
        SimTime::from_secs(millis / 1e3)
    }

    /// Creates a time from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is NaN or negative.
    pub fn from_micros(micros: f64) -> Self {
        SimTime::from_secs(micros / 1e6)
    }

    /// Creates a time from microseconds, usable in `const` contexts.
    ///
    /// # Panics
    ///
    /// Panics (at compile time when evaluating a constant) if `micros` is
    /// NaN or negative.
    pub const fn from_micros_const(micros: f64) -> Self {
        assert!(!micros.is_nan() && micros >= 0.0, "time must be >= 0");
        SimTime(micros / 1e6)
    }

    /// The time in seconds.
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Whether this is the "never" sentinel (or any infinite time).
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
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
        // Construction rejects NaN, so total_cmp matches IEEE order here.
        self.0.total_cmp(&other.0)
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
    /// Saturating: an earlier minus a later time is [`SimTime::ZERO`].
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "never")
        } else if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} us", self.0 * 1e6)
        }
    }
}

/// A discrete slot index of the slotted input-queued switch model
/// (one packet transmission time per the paper's §III-B).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Slot(u64);

impl Slot {
    /// Slot zero (the first slot).
    pub const ZERO: Slot = Slot(0);

    /// Creates a slot from its index.
    pub const fn new(index: u64) -> Self {
        Slot(index)
    }

    /// Returns the slot index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The next slot.
    pub const fn next(self) -> Slot {
        Slot(self.0 + 1)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.0)
    }
}

impl From<u64> for Slot {
    fn from(index: u64) -> Self {
        Slot(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(1500.0), SimTime::from_secs(1.5));
        assert_eq!(SimTime::from_micros(2000.0), SimTime::from_millis(2.0));
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(a < SimTime::INFINITY);
        assert!(SimTime::INFINITY.is_infinite());
    }

    #[test]
    fn arithmetic_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(b - a, SimTime::from_secs(2.0));
        assert_eq!(a - b, SimTime::ZERO);
        let mut t = SimTime::ZERO;
        t += SimTime::from_secs(0.5);
        assert_eq!(t, SimTime::from_secs(0.5));
        let s: SimTime = [a, a, a].into_iter().sum();
        assert_eq!(s, SimTime::from_secs(3.0));
    }

    #[test]
    #[should_panic(expected = "time must be >= 0")]
    fn negative_time_panics() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn slot_progression() {
        let s = Slot::new(5);
        assert_eq!(s.next(), Slot::new(6));
        assert_eq!(s.index(), 5);
        assert_eq!(Slot::from(5u64), s);
        assert_eq!(s.to_string(), "slot 5");
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(2.0).to_string(), "2.000 s");
        assert_eq!(SimTime::from_millis(1.5).to_string(), "1.500 ms");
        assert_eq!(SimTime::from_micros(12.0).to_string(), "12.000 us");
        assert_eq!(SimTime::INFINITY.to_string(), "never");
    }
}
