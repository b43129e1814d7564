//! Arrival processes.

use dcn_types::SimTime;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Poisson arrival process: inter-arrival gaps are exponential with the
/// configured rate. Both flow populations of the paper's workload arrive
/// according to Poisson processes (§V-A).
///
/// # Example
///
/// ```
/// use dcn_workload::PoissonProcess;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let p = PoissonProcess::new(100.0); // 100 arrivals per second
/// let mut rng = StdRng::seed_from_u64(1);
/// let gap = p.next_gap(&mut rng);
/// assert!(gap.as_secs() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonProcess {
    rate_per_sec: f64,
}

impl PoissonProcess {
    /// Creates a process with `rate_per_sec` expected arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and strictly positive.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive, got {rate_per_sec}"
        );
        PoissonProcess { rate_per_sec }
    }

    /// Draws the gap until the next arrival (exponential, always > 0).
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        // 1 - U is in (0, 1], so ln never sees zero.
        let u: f64 = rng.gen();
        SimTime::from_secs(-(1.0 - u).ln() / self.rate_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_gap_matches_rate() {
        let p = PoissonProcess::new(50.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng).as_secs()).sum();
        let mean = total / n as f64;
        assert!(
            (mean - 0.02).abs() < 0.001,
            "mean gap {mean} should be ~1/50"
        );
        assert_eq!(p.rate_per_sec, 50.0);
    }

    #[test]
    fn gaps_are_positive() {
        let p = PoissonProcess::new(1e6);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(p.next_gap(&mut rng) > SimTime::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        let _ = PoissonProcess::new(0.0);
    }
}
