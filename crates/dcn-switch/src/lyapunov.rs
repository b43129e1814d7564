//! The Theorem-1 bounds (§IV-B, Eqs. 3–7). The quadratic Lyapunov
//! function and its drift sampling live in `dcn_probe`
//! ([`dcn_probe::quadratic_lyapunov`], [`dcn_probe::DriftProbe`]).

use serde::{Deserialize, Serialize};

/// The drift-plus-penalty constant `B' = N(1 + N·B)/2` of Theorem 1, where
/// `N` is the port count and `B ≥ E[A_ij²]` bounds the arrival second
/// moment.
///
/// # Panics
///
/// Panics if `b` is negative or not finite.
pub fn b_prime(num_ports: u32, b: f64) -> f64 {
    assert!(b.is_finite() && b >= 0.0, "B must be finite and >= 0");
    let n = num_ports as f64;
    n * (1.0 + n * b) / 2.0
}

/// The Theorem-1 performance bounds for a given configuration.
///
/// * `penalty_gap(v)` — the guaranteed bound `B'/V` on how far BASRPT's
///   time-average penalty `ȳ` may exceed the delay-optimal `ȳ*`;
/// * `queue_bound(v)` — the guaranteed bound
///   `(B' + V(ȳ* − y_min))/ε` on the time-average total backlog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TheoremBounds {
    /// The drift constant `B'`.
    pub b_prime: f64,
    /// Slack `ε` of the arrival-rate matrix inside the capacity region.
    pub epsilon: f64,
    /// The delay-optimal algorithm's time-average penalty `E[ȳ*]`.
    pub y_star: f64,
    /// A lower bound on the attainable penalty (`y_min`, e.g. the minimum
    /// flow size).
    pub y_min: f64,
}

impl TheoremBounds {
    /// Builds the bounds for a switch of `num_ports` ports with arrival
    /// second moment at most `b`, capacity slack `epsilon`, optimal penalty
    /// `y_star` and penalty floor `y_min`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1]`, or `y_min > y_star`, or any
    /// argument is non-finite.
    pub fn new(num_ports: u32, b: f64, epsilon: f64, y_star: f64, y_min: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1]"
        );
        assert!(y_star.is_finite() && y_min.is_finite() && y_min <= y_star);
        TheoremBounds {
            b_prime: b_prime(num_ports, b),
            epsilon,
            y_star,
            y_min,
        }
    }

    /// `B'/V`: the bound on `lim avg E[ȳ] − E[ȳ*]` (first display of
    /// Theorem 1). Decreasing in `V` — FCT approaches optimal as `O(1/V)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not strictly positive.
    pub fn penalty_gap(&self, v: f64) -> f64 {
        assert!(v.is_finite() && v > 0.0, "V must be positive");
        self.b_prime / v
    }

    /// `(B' + V(ȳ* − y_min))/ε`: the bound on the time-average total queue
    /// backlog (second display of Theorem 1). Increasing in `V` — the
    /// stable queue level grows as `O(V)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or not finite.
    pub fn queue_bound(&self, v: f64) -> f64 {
        assert!(v.is_finite() && v >= 0.0, "V must be >= 0");
        (self.b_prime + v * (self.y_star - self.y_min)) / self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_prime_formula() {
        // N = 2, B = 3: 2 * (1 + 6) / 2 = 7.
        assert_eq!(b_prime(2, 3.0), 7.0);
        assert_eq!(b_prime(1, 0.0), 0.5);
    }

    #[test]
    fn bounds_move_correctly_with_v() {
        let bounds = TheoremBounds::new(4, 10.0, 0.1, 8.0, 1.0);
        assert!(bounds.penalty_gap(1000.0) < bounds.penalty_gap(100.0));
        assert!(bounds.queue_bound(1000.0) > bounds.queue_bound(100.0));
        // Exact values.
        let bp = b_prime(4, 10.0);
        assert_eq!(bounds.penalty_gap(50.0), bp / 50.0);
        assert_eq!(bounds.queue_bound(50.0), (bp + 50.0 * 7.0) / 0.1);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_rejected() {
        let _ = TheoremBounds::new(4, 10.0, 0.0, 8.0, 1.0);
    }
}
