//! Event counting and decision-latency histogram probe.

use crate::{ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Probe, SampleEvent};
use std::fmt;
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` nanoseconds, covering ~1 ns up to ~4.3 s.
const NUM_BUCKETS: usize = 32;

/// A log₂-spaced histogram of wall-clock latencies.
///
/// Bucket `i` counts observations in `[2^i, 2^(i+1))` nanoseconds (bucket 0
/// also absorbs sub-nanosecond readings); observations beyond the last
/// bucket land in it.
///
/// # Example
///
/// ```
/// use dcn_probe::LatencyHistogram;
/// use std::time::Duration;
///
/// let mut h = LatencyHistogram::new();
/// h.record(Duration::from_nanos(700));
/// h.record(Duration::from_nanos(900));
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.quantile_ns(1.0), Some(512));
/// assert!((h.mean_ns() - 800.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    total_ns: u128,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(NUM_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns += u128::from(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds; zero when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The smallest latency (ns, lower bucket edge) below which at least
    /// `fraction` of the observations fall; `None` when empty.
    ///
    /// Resolution is one power of two — adequate for the "is a decision
    /// microseconds or milliseconds" questions this probe answers.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn quantile_ns(&self, fraction: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = (fraction * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << (NUM_BUCKETS - 1))
    }
}

/// Counts every event class and histograms scheduler decision latencies.
///
/// The cheapest "what happened in this run" probe: attach it to a
/// simulation and read per-event totals plus wall-clock decision cost
/// afterwards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventCounterProbe {
    arrivals: u64,
    arrived_units: u64,
    drains: u64,
    drained_units: u64,
    completions: u64,
    decisions: u64,
    empty_decisions: u64,
    scheduled_flows: u64,
    samples: u64,
    latency: LatencyHistogram,
}

impl EventCounterProbe {
    /// Creates a probe with all counters at zero.
    pub fn new() -> Self {
        EventCounterProbe::default()
    }

    /// Number of arrival events.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Total units (bytes/packets) offered by the observed arrivals.
    pub fn arrived_units(&self) -> u64 {
        self.arrived_units
    }

    /// Number of drain events.
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// Total units drained.
    pub fn drained_units(&self) -> u64 {
        self.drained_units
    }

    /// Number of flow completions.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Number of scheduling decisions.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of sampling instants observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean flows matched per decision; zero before the first decision.
    pub fn mean_matching_size(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.scheduled_flows as f64 / self.decisions as f64
        }
    }

    /// The decision wall-latency histogram (empty if the embedding engine
    /// never timed a decision).
    pub fn decision_latency(&self) -> &LatencyHistogram {
        &self.latency
    }
}

impl fmt::Display for EventCounterProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} arrivals, {} drains, {} completions, {} decisions \
             ({} empty, {:.2} flows/decision), {} samples",
            self.arrivals,
            self.drains,
            self.completions,
            self.decisions,
            self.empty_decisions,
            self.mean_matching_size(),
            self.samples,
        )?;
        if self.latency.count() > 0 {
            write!(
                f,
                ", decision latency mean {:.0} ns (p99 < {} ns)",
                self.latency.mean_ns(),
                self.latency.quantile_ns(0.99).unwrap_or(0) << 1,
            )?;
        }
        Ok(())
    }
}

impl Probe for EventCounterProbe {
    fn on_arrival(&mut self, event: &ArrivalEvent) {
        self.arrivals += 1;
        self.arrived_units += event.size;
    }

    fn on_drain(&mut self, event: &DrainEvent) {
        self.drains += 1;
        self.drained_units += event.amount;
    }

    fn on_completion(&mut self, _event: &CompletionEvent) {
        self.completions += 1;
    }

    fn on_decision(&mut self, event: &DecisionEvent<'_>) {
        self.decisions += 1;
        if event.schedule.is_empty() {
            self.empty_decisions += 1;
        }
        self.scheduled_flows += event.schedule.len() as u64;
        if let Some(latency) = event.latency {
            self.latency.record(latency);
        }
    }

    fn on_sample(&mut self, _event: &SampleEvent<'_>) {
        self.samples += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basrpt_core::Schedule;
    use dcn_types::{FlowId, HostId, Voq};

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(1024));
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile_ns(0.0), Some(1));
        assert_eq!(h.quantile_ns(0.5), Some(2));
        assert_eq!(h.quantile_ns(1.0), Some(1024));
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_ns(0.5), None);
    }

    #[test]
    fn counter_tracks_decisions_and_completions() {
        let mut probe = EventCounterProbe::new();
        let mut schedule = Schedule::new();
        schedule
            .add(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(1)))
            .unwrap();
        probe.on_decision(&DecisionEvent {
            time: 0.0,
            schedule: &schedule,
            latency: Some(Duration::from_nanos(100)),
        });
        probe.on_decision(&DecisionEvent {
            time: 1.0,
            schedule: &Schedule::new(),
            latency: None,
        });
        assert_eq!(probe.decisions(), 2);
        assert_eq!(probe.decision_latency().count(), 1);
        assert!((probe.mean_matching_size() - 0.5).abs() < 1e-12);

        probe.on_completion(&CompletionEvent {
            time: 2.0,
            flow: FlowId::new(1),
            voq: Voq::new(HostId::new(0), HostId::new(1)),
            size: 4,
            fct: 2.0,
        });
        assert_eq!(probe.completions(), 1);
        let text = probe.to_string();
        assert!(
            text.contains("2 decisions (1 empty, 0.50 flows/decision)"),
            "display: {text}"
        );
    }
}
