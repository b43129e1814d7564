//! Empirical flow-size distributions.

use crate::WorkloadError;
use dcn_types::Bytes;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A piecewise-linear empirical CDF over flow sizes, sampled by inverse
/// transform.
///
/// The CDF is given as `(size_bytes, cumulative_probability)` knots with
/// strictly increasing sizes and non-decreasing probabilities ending at
/// `1.0`. Probability mass below the first knot is concentrated *at* the
/// first knot's size (the usual convention for published data-center
/// distributions, where the first knot is the minimum flow size).
///
/// Two presets transcribe the distributions the paper builds on:
/// [`EmpiricalCdf::web_search`] (DCTCP\[1\]-shaped, used for background
/// flows: heavy-tailed, with ~30 % of flows in 1–20 MB carrying over 95 %
/// of the bytes, all sizes ≤ 50 MB) and [`EmpiricalCdf::data_mining`]
/// (VL2/Kandula\[16\]-shaped, even heavier-tailed).
///
/// # Example
///
/// ```
/// use dcn_workload::EmpiricalCdf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let cdf = EmpiricalCdf::web_search();
/// let mut rng = StdRng::seed_from_u64(7);
/// let size = cdf.sample(&mut rng);
/// assert!(size.as_u64() >= 5_000 && size.as_u64() <= 20_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    /// `(size_bytes, cdf)` knots; sizes strictly increasing, cdf ending at 1.
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Builds a CDF from `(size_bytes, cumulative_probability)` knots.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidCdf`] if the knots are empty, sizes
    /// are not strictly increasing and positive, probabilities are not
    /// non-decreasing within `(0, 1]`, or the last probability is not `1.0`.
    pub fn from_points(points: Vec<(f64, f64)>) -> Result<Self, WorkloadError> {
        if points.is_empty() {
            return Err(WorkloadError::InvalidCdf("no knots".into()));
        }
        let mut prev_size = 0.0;
        let mut prev_cdf = 0.0;
        for &(size, cdf) in &points {
            if !size.is_finite() || size <= prev_size {
                return Err(WorkloadError::InvalidCdf(format!(
                    "sizes must be positive and strictly increasing (got {size} after {prev_size})"
                )));
            }
            if !cdf.is_finite() || cdf < prev_cdf || cdf <= 0.0 || cdf > 1.0 {
                return Err(WorkloadError::InvalidCdf(format!(
                    "probabilities must be non-decreasing in (0, 1] (got {cdf} after {prev_cdf})"
                )));
            }
            prev_size = size;
            prev_cdf = cdf;
        }
        if (prev_cdf - 1.0).abs() > 1e-12 {
            return Err(WorkloadError::InvalidCdf(format!(
                "last probability must be 1.0, got {prev_cdf}"
            )));
        }
        Ok(EmpiricalCdf { points })
    }

    /// The DCTCP web-search-shaped distribution used for background flows.
    ///
    /// Shape constraints transcribed from the paper's description of \[1\]
    /// and \[3\]: heavy-tailed; ~70 % of flows below 1 MB; the remaining
    /// ~30 % spread over 1–20 MB and carrying ≈97 % of all bytes; maximum
    /// size well below the 50 MB bound of \[1\]. Mean ≈ 1.8 MB.
    pub fn web_search() -> Self {
        EmpiricalCdf::from_points(vec![
            (5_000.0, 0.10),
            (10_000.0, 0.25),
            (20_000.0, 0.40),
            (50_000.0, 0.55),
            (200_000.0, 0.65),
            (1_000_000.0, 0.70),
            (2_000_000.0, 0.78),
            (5_000_000.0, 0.88),
            (10_000_000.0, 0.95),
            (20_000_000.0, 1.0),
        ])
        .expect("preset is valid")
    }

    /// The VL2/data-mining-shaped distribution (Kandula et al. \[16\]):
    /// ~80 % of flows below 10 KB, a 50 MB elephant tail carrying most of
    /// the bytes. Mean ≈ 0.55 MB.
    pub fn data_mining() -> Self {
        EmpiricalCdf::from_points(vec![
            (100.0, 0.10),
            (1_000.0, 0.50),
            (10_000.0, 0.80),
            (100_000.0, 0.90),
            (1_000_000.0, 0.95),
            (10_000_000.0, 0.99),
            (50_000_000.0, 1.0),
        ])
        .expect("preset is valid")
    }

    /// The exact mean of the piecewise-linear distribution, in bytes.
    ///
    /// The quantile function is constant at the first knot's size on
    /// `[0, cdf_0]` and linear between knots, so the mean is
    /// `cdf_0·s_0 + Σ (cdf_{k+1} − cdf_k)(s_k + s_{k+1})/2`.
    pub fn mean(&self) -> f64 {
        let mut mean = self.points[0].1 * self.points[0].0;
        for pair in self.points.windows(2) {
            let (s0, c0) = pair[0];
            let (s1, c1) = pair[1];
            mean += (c1 - c0) * (s0 + s1) / 2.0;
        }
        mean
    }

    /// The quantile function `Q(u)` in bytes, for `u ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u), "u must be in [0,1], got {u}");
        if u <= self.points[0].1 {
            return self.points[0].0;
        }
        for pair in self.points.windows(2) {
            let (s0, c0) = pair[0];
            let (s1, c1) = pair[1];
            if u <= c1 {
                if c1 == c0 {
                    return s1;
                }
                return s0 + (s1 - s0) * (u - c0) / (c1 - c0);
            }
        }
        self.points.last().expect("non-empty").0
    }

    /// Draws a flow size (at least 1 byte).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Bytes {
        let u: f64 = rng.gen();
        Bytes::new(self.quantile(u).round().max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_malformed_cdfs() {
        assert!(EmpiricalCdf::from_points(vec![]).is_err());
        assert!(EmpiricalCdf::from_points(vec![(10.0, 0.5)]).is_err()); // no 1.0
        assert!(EmpiricalCdf::from_points(vec![(10.0, 0.5), (5.0, 1.0)]).is_err()); // sizes
        assert!(EmpiricalCdf::from_points(vec![(10.0, 0.9), (20.0, 0.5)]).is_err()); // cdf
        assert!(EmpiricalCdf::from_points(vec![(-1.0, 1.0)]).is_err()); // negative
        assert!(EmpiricalCdf::from_points(vec![(10.0, 0.0), (20.0, 1.0)]).is_err()); // zero p
        assert!(EmpiricalCdf::from_points(vec![(10.0, 1.0)]).is_ok());
    }

    #[test]
    fn single_knot_always_returns_its_size() {
        let cdf = EmpiricalCdf::from_points(vec![(20_000.0, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(cdf.sample(&mut rng), Bytes::from_kb(20));
        }
        assert_eq!(cdf.mean(), 20_000.0);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let cdf = EmpiricalCdf::web_search();
        let (min, max) = (cdf.points[0].0, cdf.points.last().unwrap().0);
        let mut prev = 0.0;
        for i in 0..=1000 {
            let u = i as f64 / 1000.0;
            let q = cdf.quantile(u);
            assert!(q >= prev, "quantile must be non-decreasing");
            assert!(q >= min && q <= max);
            prev = q;
        }
    }

    #[test]
    fn sample_mean_matches_analytic_mean() {
        let cdf = EmpiricalCdf::web_search();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| cdf.sample(&mut rng).as_f64()).sum();
        let sample_mean = total / n as f64;
        let mean = cdf.mean();
        assert!(
            (sample_mean - mean).abs() / mean < 0.02,
            "sample mean {sample_mean} vs analytic {mean}"
        );
    }

    #[test]
    fn web_search_matches_paper_constraints() {
        let cdf = EmpiricalCdf::web_search();
        // All flow sizes within the 50 MB bound of \[1\].
        assert!(cdf.points.last().unwrap().0 <= Bytes::from_mb(50).as_f64());
        // ~30 % of flows in 1-20 MB...
        let p_large = 1.0_f64 - 0.70;
        assert!((p_large - 0.30).abs() < 1e-9);
        // ...carrying over 95 % of all bytes.
        let total_mean = cdf.mean();
        let mut large_mass = 0.0;
        for pair in cdf.points.windows(2) {
            let (s0, c0) = pair[0];
            let (s1, c1) = pair[1];
            if s0 >= 1_000_000.0 {
                large_mass += (c1 - c0) * (s0 + s1) / 2.0;
            }
        }
        assert!(
            large_mass / total_mean > 0.95,
            "large flows carry {:.1}% of bytes",
            100.0 * large_mass / total_mean
        );
    }

    #[test]
    fn data_mining_is_heavier_tailed_than_web_search() {
        let dm = EmpiricalCdf::data_mining();
        let ws = EmpiricalCdf::web_search();
        // Most data-mining flows are tiny...
        assert!(dm.quantile(0.8) <= 10_000.0);
        // ...but its maximum dwarfs web-search's.
        assert!(dm.points.last().unwrap().0 > ws.points.last().unwrap().0);
    }

    #[test]
    #[should_panic(expected = "u must be in")]
    fn quantile_rejects_out_of_range() {
        let _ = EmpiricalCdf::web_search().quantile(1.5);
    }

    #[test]
    fn deterministic_under_seed() {
        let cdf = EmpiricalCdf::web_search();
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| cdf.sample(&mut rng).as_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| cdf.sample(&mut rng).as_u64()).collect()
        };
        assert_eq!(a, b);
    }
}
