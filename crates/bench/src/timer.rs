//! Wall-clock timer behind the `results/bench.json` rows.
//!
//! A [`Timer`] times the routines of one bench group. Each routine first
//! warms up for [`WARM_UP`] in timed batches of 1, 2, 4, … iterations,
//! which also estimate the cost of one iteration without charging each
//! iteration a pair of clock reads. It then takes `samples` samples
//! within the `budget`: every sample runs the same number of iterations,
//! sized so that all samples together fill the budget, and records the
//! mean time per iteration. The row kept per routine is the median of
//! its samples.
//!
//! The bench target's `main` collects the rows of its groups and hands
//! them to [`write_merged`](crate::record::write_merged).

use crate::record::BenchRow;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Least warm-up of every timed routine. The last doubled batch may run
/// it up to about twice as long; a routine slower than this still runs
/// once to estimate its cost.
pub const WARM_UP: Duration = Duration::from_millis(300);

/// The most fresh inputs [`Timer::time_batched`] sets up ahead of one
/// timed batch, so a batch stays small in memory.
const BATCH: u64 = 1_000;

/// Times the routines of one bench group and keeps one row per routine.
#[derive(Debug)]
pub struct Timer {
    group: String,
    samples: usize,
    budget: Duration,
    rows: Vec<BenchRow>,
}

impl Timer {
    /// A timer for `group` taking `samples` samples (at least two) per
    /// routine within `budget`.
    pub fn new(group: &str, samples: usize, budget: Duration) -> Timer {
        Timer {
            group: group.to_string(),
            samples: samples.max(2),
            budget,
            rows: Vec::new(),
        }
    }

    /// Times `routine` and records its row as `group/name`.
    pub fn time<O>(&mut self, name: &str, routine: impl FnMut() -> O) {
        let samples = self.sample(looped(routine));
        self.record(name, samples);
    }

    /// Times `routine` on a fresh input from `setup` per iteration and
    /// records its row as `group/name`. Only `routine` is timed: inputs
    /// are set up in batches of at most 1 000 ahead of each timed batch,
    /// and each output is dropped inside the timing.
    pub fn time_batched<I, O>(
        &mut self,
        name: &str,
        setup: impl FnMut() -> I,
        routine: impl FnMut(I) -> O,
    ) {
        let samples = self.sample(batched(setup, routine));
        self.record(name, samples);
    }

    /// The rows recorded so far, in timing order.
    pub fn into_rows(self) -> Vec<BenchRow> {
        self.rows
    }

    /// Warms up, then returns the per-iteration mean of each sample in
    /// seconds. `timed(iters)` runs `iters` iterations and returns the
    /// time spent in the timed part.
    fn sample(&self, mut timed: impl FnMut(u64) -> Duration) -> Vec<f64> {
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        let mut warm_timed = Duration::ZERO;
        let mut batch = 1;
        while warm_start.elapsed() < WARM_UP {
            warm_timed += timed(batch);
            warm_iters += batch;
            batch *= 2;
        }
        let per_iter = warm_timed.as_secs_f64() / warm_iters.max(1) as f64;
        let sample_budget = self.budget.as_secs_f64() / self.samples as f64;
        let iters = ((sample_budget / per_iter.max(1e-9)) as u64).max(1);
        (0..self.samples)
            .map(|_| timed(iters).as_secs_f64() / iters as f64)
            .collect()
    }

    /// Prints `samples` and keeps their median as the row `group/name`.
    fn record(&mut self, name: &str, mut samples: Vec<f64>) {
        samples.sort_by(f64::total_cmp);
        let id = format!("{}/{name}", self.group);
        let secs = Duration::from_secs_f64;
        let median = median(&samples);
        println!(
            "{id}: median {:?} [min {:?}, max {:?}] over {} samples",
            secs(median),
            secs(samples[0]),
            secs(samples[samples.len() - 1]),
            samples.len()
        );
        self.rows.push(BenchRow {
            id,
            median_ns: median * 1e9,
            n: samples.len(),
        });
    }
}

/// `timed(iters)` for [`Timer::sample`]: runs `routine` `iters` times
/// between two clock reads.
fn looped<O>(mut routine: impl FnMut() -> O) -> impl FnMut(u64) -> Duration {
    move |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        start.elapsed()
    }
}

/// `timed(iters)` for [`Timer::sample`]: runs `routine` on `iters` fresh
/// inputs from `setup`, set up in batches of at most [`BATCH`] outside
/// the timing.
fn batched<I, O>(
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> impl FnMut(u64) -> Duration {
    let mut inputs = Vec::new();
    move |iters| {
        let mut elapsed = Duration::ZERO;
        let mut left = iters;
        while left > 0 {
            let batch = left.min(BATCH);
            inputs.extend((0..batch).map(|_| setup()));
            let start = Instant::now();
            for input in inputs.drain(..) {
                black_box(routine(input));
            }
            elapsed += start.elapsed();
            left -= batch;
        }
        elapsed
    }
}

/// The median of a sorted, non-empty slice: the middle sample, or the
/// mean of the two middle samples for an even count.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_loop_produces_samples() {
        let t = Timer::new("grp", 5, Duration::from_millis(50));
        let mut x = 0u64;
        let samples = t.sample(looped(|| {
            x = x.wrapping_add(1);
            x
        }));
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|&s| s > 0.0), "{samples:?}");
    }

    #[test]
    fn batched_loop_times_only_the_routine() {
        let t = Timer::new("grp", 5, Duration::from_millis(50));
        let mut setups = 0u64;
        let mut routines = 0u64;
        let samples = t.sample(batched(
            || {
                setups += 1;
                std::thread::sleep(Duration::from_millis(1));
                7u64
            },
            |x| {
                routines += 1;
                std::thread::sleep(Duration::from_micros(100));
                x + 1
            },
        ));
        assert_eq!(setups, routines, "one fresh input per routine call");
        assert_eq!(samples.len(), 5);
        // Every sample costs the 100 µs routine, never the 1 ms setup.
        assert!(
            samples.iter().all(|s| (100e-6..1e-3).contains(s)),
            "{samples:?}"
        );
    }

    #[test]
    fn median_averages_the_two_middle_samples_of_an_even_count() {
        let mut t = Timer::new("grp", 2, Duration::ZERO);
        t.record("two", vec![4.0e-9, 1.0e-9]);
        t.record("three", vec![3.0e-9, 1.0e-9, 2.0e-9]);
        t.record("four", vec![4.0e-9, 1.0e-9, 3.0e-9, 2.0e-9]);
        let want = [
            ("grp/two", 2, 2.5),
            ("grp/three", 3, 2.0),
            ("grp/four", 4, 2.5),
        ];
        let rows = t.into_rows();
        assert_eq!(rows.len(), want.len());
        for (row, (id, n, median)) in rows.iter().zip(want) {
            assert_eq!((row.id.as_str(), row.n), (id, n));
            assert!(
                (row.median_ns - median).abs() < 1e-9,
                "{id}: {}",
                row.median_ns
            );
        }
    }
}
