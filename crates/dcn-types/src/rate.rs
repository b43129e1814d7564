//! Link and flow rates.

use crate::{Bytes, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul};

/// A transmission rate, stored internally in bytes per second.
///
/// The paper's fabric uses 10 Gbps edge links and 40 Gbps core links;
/// construct those with [`Rate::from_gbps`]. A [`Rate`] is always finite and
/// non-negative — the constructors panic on NaN or negative input so that
/// schedule math downstream never has to re-validate.
///
/// # Example
///
/// ```
/// use dcn_types::{Bytes, Rate};
/// let edge = Rate::from_gbps(10.0);
/// assert_eq!(edge.bytes_per_sec(), 1.25e9);
/// let t = edge.transfer_time(Bytes::from_mb(1));
/// assert!((t.as_secs() - 8.0e-4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
pub struct Rate(f64);

impl Rate {
    /// Zero rate (an unscheduled flow).
    pub const ZERO: Rate = Rate(0.0);

    /// Creates a rate from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is negative or not finite.
    pub fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec >= 0.0,
            "rate must be finite and non-negative, got {bytes_per_sec}"
        );
        Rate(bytes_per_sec)
    }

    /// Creates a rate from gigabits per second (decimal: 1 Gbps = 1.25e8 B/s).
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is negative or not finite.
    pub fn from_gbps(gbps: f64) -> Self {
        Rate::from_bytes_per_sec(gbps * 1e9 / 8.0)
    }

    /// The rate in bytes per second.
    pub const fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// The rate in gigabits per second.
    pub fn gbps(self) -> f64 {
        self.0 * 8.0 / 1e9
    }

    /// Whether this rate is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Time to transfer `bytes` at this rate.
    ///
    /// Returns [`SimTime::INFINITY`] for a zero rate and a non-zero size, and
    /// [`SimTime::ZERO`] for a zero size.
    pub fn transfer_time(self, bytes: Bytes) -> SimTime {
        if bytes.is_zero() {
            SimTime::ZERO
        } else if self.is_zero() {
            SimTime::INFINITY
        } else {
            SimTime::from_secs(bytes.as_f64() / self.0)
        }
    }

    /// Bytes transferred at this rate during `elapsed`, truncated to whole
    /// bytes.
    ///
    /// This is the **only** rate×time→bytes conversion in the workspace:
    /// every consumer (the fabric engine's drain accounting included) must
    /// route through it so truncation behaves identically everywhere. The
    /// fabric engine anchors the conversion at each flow's drain epoch and
    /// takes differences of this monotone integer target, so the single
    /// floor here never accumulates across events; completion instants are
    /// derived analytically via [`Rate::transfer_time`], never from
    /// repeated `bytes_in` calls.
    ///
    /// The floor is the `as` cast itself, which truncates toward zero and
    /// saturates; `max` first maps negatives, `−0.0` and NaN to zero. That
    /// is bit-for-bit `floor().max(0.0) as u64` without a libm call, which
    /// baseline x86-64 (no SSE4.1 `roundsd`) cannot inline.
    pub fn bytes_in(self, elapsed: SimTime) -> Bytes {
        Bytes::new(truncate_bytes(self.0 * elapsed.as_secs()))
    }

    /// The smaller of two rates.
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }
}

/// Whole bytes in a non-negative byte count: the `as` cast truncates
/// toward zero and saturates, after `max` drops negatives and NaN.
fn truncate_bytes(bytes: f64) -> u64 {
    bytes.max(0.0) as u64
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    /// Scales the rate; the factor must be non-negative and finite.
    fn mul(self, rhs: f64) -> Rate {
        Rate::from_bytes_per_sec(self.0 * rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    /// Divides the rate; the divisor must be positive and finite.
    fn div(self, rhs: f64) -> Rate {
        Rate::from_bytes_per_sec(self.0 / rhs)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} Gbps", self.gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_roundtrip() {
        let r = Rate::from_gbps(10.0);
        assert!((r.gbps() - 10.0).abs() < 1e-12);
        assert_eq!(r.bytes_per_sec(), 1.25e9);
    }

    #[test]
    fn transfer_time_basics() {
        let r = Rate::from_gbps(10.0);
        let t = r.transfer_time(Bytes::from_kb(20));
        assert!((t.as_secs() - 20_000.0 / 1.25e9).abs() < 1e-15);
        assert_eq!(Rate::ZERO.transfer_time(Bytes::new(1)), SimTime::INFINITY);
        assert_eq!(r.transfer_time(Bytes::ZERO), SimTime::ZERO);
    }

    #[test]
    fn bytes_in_elapsed() {
        let r = Rate::from_bytes_per_sec(1000.0);
        assert_eq!(r.bytes_in(SimTime::from_secs(2.5)), Bytes::new(2500));
        assert_eq!(Rate::ZERO.bytes_in(SimTime::from_secs(5.0)), Bytes::ZERO);
    }

    #[test]
    fn truncation_matches_floor_for_every_class_of_value() {
        let values = [
            0.0,
            -0.0,
            0.25,
            0.999_999_999_999,
            1.0,
            1.5,
            2500.0,
            12_499.999_999,
            (1u64 << 53) as f64,
            (1u64 << 53) as f64 + 2.0,
            -0.5,
            -1.0,
            -1e300,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            u64::MAX as f64,
            1.8446744073709552e19 * 4.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for v in values {
            assert_eq!(
                truncate_bytes(v),
                v.floor().max(0.0) as u64,
                "{v:?} truncates like floor"
            );
        }
    }

    #[test]
    fn arithmetic() {
        let r = Rate::from_gbps(10.0) + Rate::from_gbps(30.0);
        assert!((r.gbps() - 40.0).abs() < 1e-9);
        assert!(((Rate::from_gbps(10.0) * 0.5).gbps() - 5.0).abs() < 1e-9);
        assert!(((Rate::from_gbps(10.0) / 2.0).gbps() - 5.0).abs() < 1e-9);
        assert_eq!(
            Rate::from_gbps(10.0).min(Rate::from_gbps(40.0)),
            Rate::from_gbps(10.0)
        );
    }

    #[test]
    #[should_panic(expected = "rate must be finite")]
    fn negative_rate_panics() {
        let _ = Rate::from_bytes_per_sec(-1.0);
    }

    #[test]
    fn display() {
        assert_eq!(Rate::from_gbps(10.0).to_string(), "10.000 Gbps");
    }
}
