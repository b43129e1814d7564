//! Multi-seed parallel sweeps with confidence intervals.
//!
//! The recorded experiments default to one seed per figure so their output
//! stays byte-comparable across runs. For error bars, set `BASRPT_SEEDS`
//! and the `fig2`, `fig5` and `table1` benches fan the per-seed simulations
//! out across cores with [`run_seeds`] (scoped `std::thread`s — no external
//! dependencies) and report each metric as `mean ± CI95` via [`SeedStats`].
//!
//! Environment variables:
//!
//! * `BASRPT_SEEDS` — either a single integer `N` (run `N` seeds starting
//!   at the bench's default seed: `default, default+1, …`) or an explicit
//!   comma-separated list (`3,7,11`). Unset, empty, `0` or `1` keep the
//!   single default seed.
//! * `BASRPT_THREADS` — worker thread cap; defaults to the machine's
//!   available parallelism. The sweep never spawns more workers than
//!   seeds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Two-sided 95% Student-t critical values for 1–30 degrees of freedom;
/// larger samples fall back to the normal approximation 1.96.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Summary of one scalar metric over a seed sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStats {
    /// Number of seeds (samples).
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (`n − 1` denominator; zero for `n < 2`).
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval for the mean
    /// (Student-t for small `n`); zero for `n < 2`.
    pub ci95: f64,
}

impl SeedStats {
    /// Computes mean, standard deviation and CI95 half-width of `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice — a sweep always has at least one seed.
    pub fn from_samples(samples: &[f64]) -> SeedStats {
        assert!(!samples.is_empty(), "a sweep has at least one sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return SeedStats {
                n,
                mean,
                std_dev: 0.0,
                ci95: 0.0,
            };
        }
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let std_dev = var.sqrt();
        let df = n - 1;
        let t = if df <= T95.len() { T95[df - 1] } else { 1.96 };
        SeedStats {
            n,
            mean,
            std_dev,
            ci95: t * std_dev / (n as f64).sqrt(),
        }
    }

    /// Renders `mean ± ci95` with the given number of decimals.
    pub fn display(&self, decimals: usize) -> String {
        if self.n < 2 {
            format!("{:.*}", decimals, self.mean)
        } else {
            format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.ci95)
        }
    }
}

/// The seeds to sweep, from `BASRPT_SEEDS` (see the module docs);
/// `default_seed` is the bench's recorded single-run seed.
pub fn seeds_from_env(default_seed: u64) -> Vec<u64> {
    parse_seeds(std::env::var("BASRPT_SEEDS").ok().as_deref(), default_seed)
}

fn parse_seeds(spec: Option<&str>, default_seed: u64) -> Vec<u64> {
    let spec = spec.unwrap_or("").trim();
    if spec.is_empty() {
        return vec![default_seed];
    }
    if spec.contains(',') {
        let seeds: Vec<u64> = spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        if seeds.is_empty() {
            return vec![default_seed];
        }
        return seeds;
    }
    match spec.parse::<u64>() {
        Ok(0) => vec![default_seed],
        Ok(count) => (0..count).map(|i| default_seed.wrapping_add(i)).collect(),
        Err(_) => vec![default_seed],
    }
}

/// Worker count from `BASRPT_THREADS`, defaulting to the machine's
/// available parallelism (at least 1).
pub fn threads_from_env() -> usize {
    std::env::var("BASRPT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Runs `job(seed)` for every seed, fanning out over at most `threads`
/// scoped worker threads, and returns the results **in seed order**
/// (independent of completion order). A panicking job aborts the whole
/// sweep when the scope joins.
pub fn run_seeds_with<T, F>(seeds: &[u64], threads: usize, job: F) -> Vec<(u64, T)>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = threads.clamp(1, seeds.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = seeds.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let result = job(seed);
                *slots[i]
                    .lock()
                    .expect("no worker panicked holding the lock") = Some(result);
            });
        }
    });
    seeds
        .iter()
        .copied()
        .zip(slots.into_iter().map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding the lock")
                .expect("every slot was filled before the scope joined")
        }))
        .collect()
}

/// [`run_seeds_with`] using the thread count from [`threads_from_env`].
pub fn run_seeds<T, F>(seeds: &[u64], job: F) -> Vec<(u64, T)>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    run_seeds_with(seeds, threads_from_env(), job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_samples() {
        let s = SeedStats::from_samples(&[4.0, 4.0, 4.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.display(2), "4.00 ± 0.00");
    }

    #[test]
    fn stats_match_hand_computation() {
        // Samples 1..=5: mean 3, sample variance 2.5, sd ~1.5811.
        let s = SeedStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
        // t(df=4) = 2.776; ci = 2.776 * sd / sqrt(5).
        let expect = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((s.ci95 - expect).abs() < 1e-9, "ci95 = {}", s.ci95);
    }

    #[test]
    fn single_sample_has_no_interval() {
        let s = SeedStats::from_samples(&[7.5]);
        assert_eq!(s.n, 1);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.display(1), "7.5");
    }

    #[test]
    fn seed_spec_parsing() {
        assert_eq!(parse_seeds(None, 7), vec![7]);
        assert_eq!(parse_seeds(Some(""), 7), vec![7]);
        assert_eq!(parse_seeds(Some("0"), 7), vec![7]);
        assert_eq!(parse_seeds(Some("1"), 7), vec![7]);
        assert_eq!(parse_seeds(Some("4"), 7), vec![7, 8, 9, 10]);
        assert_eq!(parse_seeds(Some("3, 7,11"), 1), vec![3, 7, 11]);
        assert_eq!(parse_seeds(Some("bogus"), 9), vec![9]);
    }

    #[test]
    fn sweep_preserves_seed_order_across_threads() {
        let seeds: Vec<u64> = (0..40).collect();
        let results = run_seeds_with(&seeds, 8, |seed| seed * seed);
        assert_eq!(results.len(), seeds.len());
        for (seed, sq) in results {
            assert_eq!(sq, seed * seed);
        }
    }

    #[test]
    fn sweep_with_one_thread_and_one_seed() {
        let results = run_seeds_with(&[42], 1, |seed| seed + 1);
        assert_eq!(results, vec![(42, 43)]);
    }
}
