//! FCT statistics broken down by flow-size bucket.

use crate::FctSummary;
use dcn_types::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open size range `(lo, hi]` used to group completed flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeBucket {
    lo: Bytes,
    hi: Bytes,
}

impl SizeBucket {
    /// Creates the bucket `(lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn new(lo: Bytes, hi: Bytes) -> Self {
        assert!(lo < hi, "bucket must satisfy lo < hi");
        SizeBucket { lo, hi }
    }

    /// Lower bound (exclusive).
    pub fn lo(&self) -> Bytes {
        self.lo
    }

    /// Upper bound (inclusive).
    pub fn hi(&self) -> Bytes {
        self.hi
    }

    /// Whether a flow of `size` falls in this bucket.
    pub fn contains(&self, size: Bytes) -> bool {
        size > self.lo && size <= self.hi
    }
}

impl fmt::Display for SizeBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.lo, self.hi)
    }
}

/// Collects FCT samples into contiguous size buckets — the breakdown
/// pFabric uses to show that SRPT-style disciplines serve short flows at
/// near line rate while the paper's point is what happens to the *rest*.
///
/// # Example
///
/// ```
/// use dcn_metrics::SizeBucketRecorder;
/// use dcn_types::{Bytes, SimTime};
///
/// let mut rec = SizeBucketRecorder::pfabric_buckets();
/// rec.record(Bytes::from_kb(20), SimTime::from_micros(20.0));
/// rec.record(Bytes::from_mb(5), SimTime::from_millis(6.0));
/// let rows = rec.summaries();
/// assert_eq!(rows.len(), 3);
/// assert_eq!(rows[0].1.unwrap().count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SizeBucketRecorder {
    buckets: Vec<SizeBucket>,
    samples: Vec<Vec<f64>>,
    bytes: Vec<Bytes>,
}

impl SizeBucketRecorder {
    /// Creates a recorder over the given buckets (kept in the given order;
    /// a flow lands in the first bucket that contains it).
    ///
    /// # Panics
    ///
    /// Panics if no bucket is supplied.
    pub fn new(buckets: Vec<SizeBucket>) -> Self {
        assert!(!buckets.is_empty(), "need at least one bucket");
        let n = buckets.len();
        SizeBucketRecorder {
            buckets,
            samples: vec![Vec::new(); n],
            bytes: vec![Bytes::ZERO; n],
        }
    }

    /// The three-bucket split of the pFabric evaluation:
    /// `(0, 100 KB]`, `(100 KB, 10 MB]`, `(10 MB, 1 GB]`.
    pub fn pfabric_buckets() -> Self {
        SizeBucketRecorder::new(vec![
            SizeBucket::new(Bytes::ZERO, Bytes::from_kb(100)),
            SizeBucket::new(Bytes::from_kb(100), Bytes::from_mb(10)),
            SizeBucket::new(Bytes::from_mb(10), Bytes::from_gb(1)),
        ])
    }

    /// Records one completion; flows larger than every bucket are dropped
    /// (callers choose buckets that cover their size domain).
    pub fn record(&mut self, size: Bytes, fct: dcn_types::SimTime) {
        if let Some(i) = self.buckets.iter().position(|b| b.contains(size)) {
            self.samples[i].push(fct.as_secs());
            self.bytes[i] += size;
        }
    }

    /// Per-bucket summaries, in bucket order (`None` for empty buckets).
    pub fn summaries(&self) -> Vec<(SizeBucket, Option<FctSummary>)> {
        self.buckets
            .iter()
            .zip(&self.samples)
            .zip(&self.bytes)
            .map(|((bucket, fcts), &bytes)| (*bucket, FctSummary::of(fcts, bytes)))
            .collect()
    }

    /// Total recorded completions across buckets.
    pub fn total_count(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_types::SimTime;

    #[test]
    fn bucket_membership_is_half_open() {
        let b = SizeBucket::new(Bytes::from_kb(100), Bytes::from_mb(10));
        assert!(!b.contains(Bytes::from_kb(100)));
        assert!(b.contains(Bytes::new(100_001)));
        assert!(b.contains(Bytes::from_mb(10)));
        assert!(!b.contains(Bytes::new(10_000_001)));
        assert_eq!(b.to_string(), "(100.00 KB, 10.00 MB]");
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn inverted_bucket_rejected() {
        let _ = SizeBucket::new(Bytes::from_mb(1), Bytes::from_kb(1));
    }

    #[test]
    fn records_land_in_the_right_bucket() {
        let mut rec = SizeBucketRecorder::pfabric_buckets();
        rec.record(Bytes::from_kb(20), SimTime::from_micros(16.0));
        rec.record(Bytes::from_kb(20), SimTime::from_micros(32.0));
        rec.record(Bytes::from_mb(1), SimTime::from_millis(1.0));
        rec.record(Bytes::from_mb(50), SimTime::from_millis(80.0));
        // Outside all buckets: silently dropped.
        rec.record(Bytes::from_gb(2), SimTime::from_secs(2.0));
        assert_eq!(rec.total_count(), 4);

        let rows = rec.summaries();
        let small = rows[0].1.unwrap();
        assert_eq!(small.count, 2);
        assert!((small.mean_secs - 24e-6).abs() < 1e-12);
        assert_eq!(rows[1].1.unwrap().count, 1);
        assert_eq!(rows[2].1.unwrap().count, 1);
        assert_eq!(small.total_bytes, Bytes::from_kb(40));
    }

    #[test]
    fn empty_buckets_are_none() {
        let rec = SizeBucketRecorder::pfabric_buckets();
        assert!(rec.summaries().iter().all(|(_, s)| s.is_none()));
        assert_eq!(rec.total_count(), 0);
    }
}
