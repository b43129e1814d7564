//! The built-in backlog/throughput sampler, as a probe.

use crate::{Probe, SampleEvent};
use dcn_metrics::TimeSeries;
use dcn_types::HostId;

/// The four sampled series the flow-level engine has always recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampledSeries {
    /// Total backlog over time.
    pub total_backlog: TimeSeries,
    /// Backlog of the monitored ingress port over time.
    pub monitored_port_backlog: TimeSeries,
    /// Backlog of the most loaded ingress port at each sample instant.
    pub max_port_backlog: TimeSeries,
    /// Cumulative delivered units over time.
    pub cumulative_delivered: TimeSeries,
}

/// Re-implementation of the historical hardwired sampling on the [`Probe`]
/// API: at every [`SampleEvent`] it records total backlog, the monitored
/// port's backlog, the most loaded port's backlog, and cumulative delivered
/// units.
///
/// This is the probe `dcn-fabric` attaches internally to fill
/// `FabricRun`'s time-series fields; attaching another instance externally
/// reproduces those series bit for bit (locked by
/// `tests/probe_differential.rs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BacklogSampler {
    monitored_port: HostId,
    series: SampledSeries,
}

impl BacklogSampler {
    /// Creates a sampler tracing `monitored_port`'s backlog.
    pub fn new(monitored_port: HostId) -> Self {
        BacklogSampler {
            monitored_port,
            series: SampledSeries::default(),
        }
    }

    /// The series recorded so far.
    pub fn series(&self) -> &SampledSeries {
        &self.series
    }

    /// Consumes the sampler, returning the recorded series.
    pub fn into_series(self) -> SampledSeries {
        self.series
    }
}

impl Probe for BacklogSampler {
    fn wants_decision_timing(&self) -> bool {
        false
    }

    fn wants_flow_fidelity(&self) -> bool {
        // Reads only sample-instant aggregates, which the lazy engine
        // fully settles before emitting — per-event drains are not needed.
        false
    }

    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        let t = event.time;
        self.series
            .total_backlog
            .push(t, event.table.total_backlog() as f64);
        self.series
            .monitored_port_backlog
            .push(t, event.table.ingress_backlog(self.monitored_port) as f64);
        self.series
            .max_port_backlog
            .push(t, event.table.max_ingress_backlog() as f64);
        self.series.cumulative_delivered.push(t, event.delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basrpt_core::{FlowState, FlowTable};
    use dcn_types::{FlowId, Voq};

    #[test]
    fn sampler_records_all_four_series() {
        let mut table = FlowTable::new();
        table
            .insert(FlowState::new(
                FlowId::new(1),
                Voq::new(HostId::new(0), HostId::new(1)),
                5,
            ))
            .unwrap();
        table
            .insert(FlowState::new(
                FlowId::new(2),
                Voq::new(HostId::new(2), HostId::new(1)),
                9,
            ))
            .unwrap();
        let mut sampler = BacklogSampler::new(HostId::new(0));
        assert!(!sampler.wants_decision_timing());
        sampler.on_sample(&SampleEvent {
            time: 1.5,
            table: &table,
            delivered: 3.0,
        });
        let series = sampler.into_series();
        assert_eq!(series.total_backlog.values(), &[14.0]);
        assert_eq!(series.monitored_port_backlog.values(), &[5.0]);
        assert_eq!(series.max_port_backlog.values(), &[9.0]);
        assert_eq!(series.cumulative_delivered.values(), &[3.0]);
        assert_eq!(series.total_backlog.times(), &[1.5]);
    }

    #[test]
    fn empty_table_samples_zeroes() {
        let table = FlowTable::new();
        let mut sampler = BacklogSampler::new(HostId::new(3));
        sampler.on_sample(&SampleEvent {
            time: 0.0,
            table: &table,
            delivered: 0.0,
        });
        assert_eq!(sampler.series().total_backlog.values(), &[0.0]);
        assert_eq!(sampler.series().max_port_backlog.values(), &[0.0]);
    }
}
