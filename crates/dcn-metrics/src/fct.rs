//! Flow completion time statistics.

use dcn_types::{Bytes, FlowClass, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Exact percentile of a sample set with linear interpolation between order
/// statistics — the R-7 definition, which is numpy's *inclusive* default
/// (`numpy.percentile` with `method="linear"`; Hyndman & Fan type 7).
///
/// `p` is in `[0, 100]`. Returns `None` for an empty sample set. Sorts
/// `samples` in place; when taking several percentiles of the same data,
/// sort once and call [`percentile_sorted`] instead.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or NaN.
///
/// # Example
///
/// ```
/// use dcn_metrics::percentile;
/// let mut xs = vec![4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&mut xs, 50.0), Some(2.5));
/// assert_eq!(percentile(&mut xs, 100.0), Some(4.0));
/// ```
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// [`percentile`] over an **already sorted** (ascending) sample set,
/// skipping the sort. The caller owns the sort invariant; an unsorted
/// slice silently yields nonsense.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or NaN.
///
/// # Example
///
/// ```
/// use dcn_metrics::percentile_sorted;
/// let xs = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(percentile_sorted(&xs, 50.0), Some(25.0));
/// ```
pub fn percentile_sorted(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    if samples.is_empty() {
        return None;
    }
    let rank = p / 100.0 * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

/// Summary statistics over a set of completed flows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FctSummary {
    /// Number of completed flows.
    pub count: usize,
    /// Mean FCT in seconds.
    pub mean_secs: f64,
    /// Median FCT in seconds.
    pub p50_secs: f64,
    /// 99th-percentile FCT in seconds (the paper's tail metric).
    pub p99_secs: f64,
    /// Maximum FCT in seconds.
    pub max_secs: f64,
    /// Total bytes carried by the summarized flows.
    pub total_bytes: Bytes,
}

impl FctSummary {
    /// Summarizes FCT samples in seconds carrying `total_bytes`; `None` for
    /// no samples. The mean sums the samples in recording order.
    pub(crate) fn of(fct_secs: &[f64], total_bytes: Bytes) -> Option<FctSummary> {
        let count = fct_secs.len();
        let mean = fct_secs.iter().sum::<f64>() / count as f64;
        let mut sorted = fct_secs.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Some(FctSummary {
            count,
            mean_secs: mean,
            p50_secs: percentile_sorted(&sorted, 50.0)?,
            p99_secs: percentile_sorted(&sorted, 99.0)?,
            max_secs: *sorted.last()?,
            total_bytes,
        })
    }

    /// Mean FCT in milliseconds (the unit of the paper's Table I).
    pub fn mean_ms(&self) -> f64 {
        self.mean_secs * 1e3
    }

    /// 99th-percentile FCT in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99_secs * 1e3
    }
}

/// Collects per-flow completion records and summarizes them per traffic
/// class, mirroring the paper's split between queries and background flows.
///
/// # Example
///
/// ```
/// use dcn_metrics::FctRecorder;
/// use dcn_types::{Bytes, FlowClass, SimTime};
///
/// let mut rec = FctRecorder::new();
/// rec.record(FlowClass::Query, Bytes::from_kb(20), SimTime::from_millis(1.0));
/// rec.record(FlowClass::Query, Bytes::from_kb(20), SimTime::from_millis(3.0));
/// let s = rec.summary(FlowClass::Query).unwrap();
/// assert_eq!(s.count, 2);
/// assert!((s.mean_ms() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FctRecorder {
    by_class: BTreeMap<FlowClass, ClassSamples>,
}

#[derive(Debug, Clone, Default)]
struct ClassSamples {
    fct_secs: Vec<f64>,
    total_bytes: Bytes,
}

impl FctRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        FctRecorder::default()
    }

    /// Records the completion of a flow of `size` that took `fct`.
    ///
    /// # Panics
    ///
    /// Panics if `fct` is infinite (an unfinished flow must not be recorded).
    pub fn record(&mut self, class: FlowClass, size: Bytes, fct: SimTime) {
        assert!(!fct.is_infinite(), "cannot record an unfinished flow");
        let entry = self.by_class.entry(class).or_default();
        entry.fct_secs.push(fct.as_secs());
        entry.total_bytes += size;
    }

    /// Number of completions recorded for `class`.
    pub fn count(&self, class: FlowClass) -> usize {
        self.by_class.get(&class).map_or(0, |c| c.fct_secs.len())
    }

    /// Total completions across all classes.
    pub fn total_count(&self) -> usize {
        self.by_class.values().map(|c| c.fct_secs.len()).sum()
    }

    /// Summarizes one class; `None` if no flow of that class completed.
    pub fn summary(&self, class: FlowClass) -> Option<FctSummary> {
        let samples = self.by_class.get(&class)?;
        FctSummary::of(&samples.fct_secs, samples.total_bytes)
    }

    /// Summarizes all completions regardless of class.
    pub fn overall_summary(&self) -> Option<FctSummary> {
        let mut all: Vec<f64> = Vec::with_capacity(self.total_count());
        let mut bytes = Bytes::ZERO;
        for c in self.by_class.values() {
            all.extend_from_slice(&c.fct_secs);
            bytes += c.total_bytes;
        }
        FctSummary::of(&all, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges() {
        let mut xs = vec![1.0];
        assert_eq!(percentile(&mut xs, 0.0), Some(1.0));
        assert_eq!(percentile(&mut xs, 99.0), Some(1.0));
        let mut empty: Vec<f64> = vec![];
        assert_eq!(percentile(&mut empty, 50.0), None);
    }

    #[test]
    fn percentile_interpolates() {
        let mut xs = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&mut xs, 25.0), Some(20.0));
        assert_eq!(percentile(&mut xs, 90.0), Some(46.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_rejects_out_of_range() {
        let mut xs = vec![1.0];
        let _ = percentile(&mut xs, 101.0);
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        let mut xs = vec![7.0, 1.0, 9.0, 4.0, 2.0, 8.0];
        let mut sorted = xs.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        for p in [0.0, 12.5, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&mut xs, p), percentile_sorted(&sorted, p));
        }
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn recorder_separates_classes() {
        let mut rec = FctRecorder::new();
        rec.record(
            FlowClass::Query,
            Bytes::from_kb(20),
            SimTime::from_millis(1.0),
        );
        rec.record(
            FlowClass::Background,
            Bytes::from_mb(5),
            SimTime::from_millis(100.0),
        );
        assert_eq!(rec.count(FlowClass::Query), 1);
        assert_eq!(rec.count(FlowClass::Background), 1);
        assert_eq!(rec.total_count(), 2);
        let q = rec.summary(FlowClass::Query).unwrap();
        assert!((q.mean_ms() - 1.0).abs() < 1e-12);
        assert_eq!(q.total_bytes, Bytes::from_kb(20));
        let overall = rec.overall_summary().unwrap();
        assert_eq!(overall.count, 2);
        assert_eq!(overall.total_bytes, Bytes::new(5_020_000));
    }

    #[test]
    fn empty_summaries_are_none() {
        let rec = FctRecorder::new();
        assert!(rec.summary(FlowClass::Query).is_none());
        assert!(rec.overall_summary().is_none());
    }

    #[test]
    fn p99_tracks_tail() {
        let mut rec = FctRecorder::new();
        for i in 1..=100 {
            rec.record(
                FlowClass::Query,
                Bytes::from_kb(20),
                SimTime::from_millis(i as f64),
            );
        }
        let s = rec.summary(FlowClass::Query).unwrap();
        assert!((s.p99_ms() - 99.01).abs() < 0.02, "p99 = {}", s.p99_ms());
        assert!((s.mean_ms() - 50.5).abs() < 1e-9);
        assert_eq!(s.max_secs, 0.1);
        assert!((s.p50_secs - 0.0505).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unfinished")]
    fn infinite_fct_rejected() {
        let mut rec = FctRecorder::new();
        rec.record(FlowClass::Query, Bytes::from_kb(20), SimTime::INFINITY);
    }
}
