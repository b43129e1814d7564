//! Lyapunov drift observation on the probe API.

use crate::{Probe, SampleEvent};
use basrpt_core::FlowTable;
use dcn_metrics::TimeSeries;

/// The quadratic Lyapunov function `L(X) = ½ Σ_ij X_ij²` (the paper's
/// Eq. 3) over the VOQ backlogs of `table`.
///
/// # Example
///
/// ```
/// use basrpt_core::{FlowState, FlowTable};
/// use dcn_probe::quadratic_lyapunov;
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut t = FlowTable::new();
/// t.insert(FlowState::new(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(1)), 3))?;
/// t.insert(FlowState::new(FlowId::new(2), Voq::new(HostId::new(1), HostId::new(0)), 4))?;
/// assert_eq!(quadratic_lyapunov(&t), 0.5 * (9.0 + 16.0));
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
pub fn quadratic_lyapunov(table: &FlowTable) -> f64 {
    table
        .voqs()
        .map(|v| {
            let x = v.backlog as f64;
            x * x
        })
        .sum::<f64>()
        / 2.0
}

/// Samples the quadratic Lyapunov function and estimates its drift.
///
/// Works on any substrate carrying a [`FlowTable`]: at each [`SampleEvent`] the probe records
/// `L(X)` into a [`TimeSeries`] and accumulates the one-sample differences
/// `L(X(t_{k+1})) − L(X(t_k))` — an empirical view of the expected drift
/// `Δ(X(t))` (Eq. 4) along the simulated trajectory. A positive mean drift
/// sustained over the run is the signature of the instability the paper's
/// Fig. 2 shows for SRPT; Theorem 1's drift bound caps it for BASRPT.
#[derive(Debug, Clone, Default)]
pub struct DriftProbe {
    series: TimeSeries,
    last_value: Option<f64>,
    drift_sum: f64,
    drift_count: u64,
    max_drift: f64,
}

impl DriftProbe {
    /// Creates a probe with no observations.
    pub fn new() -> Self {
        DriftProbe::default()
    }

    /// The sampled `L(X)` trajectory.
    pub fn lyapunov_series(&self) -> &TimeSeries {
        &self.series
    }

    /// Number of drift samples (one fewer than Lyapunov samples).
    pub fn drift_count(&self) -> u64 {
        self.drift_count
    }

    /// Mean one-sample drift; `None` before two samples.
    pub fn mean_drift(&self) -> Option<f64> {
        if self.drift_count == 0 {
            None
        } else {
            Some(self.drift_sum / self.drift_count as f64)
        }
    }

    /// Largest observed one-sample drift (most destabilizing step); zero
    /// before two samples.
    pub fn max_drift(&self) -> f64 {
        self.max_drift
    }

    /// The final Lyapunov value, if any sample was taken.
    pub fn last_value(&self) -> Option<f64> {
        self.last_value
    }
}

impl Probe for DriftProbe {
    fn wants_decision_timing(&self) -> bool {
        false
    }

    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        let value = quadratic_lyapunov(event.table);
        self.series.push(event.time, value);
        if let Some(prev) = self.last_value {
            let drift = value - prev;
            self.drift_sum += drift;
            self.drift_count += 1;
            self.max_drift = self.max_drift.max(drift);
        }
        self.last_value = Some(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basrpt_core::FlowState;
    use dcn_types::{FlowId, HostId, Voq};

    fn table_with_backlog(units: u64) -> FlowTable {
        let mut t = FlowTable::new();
        if units > 0 {
            t.insert(FlowState::new(
                FlowId::new(1),
                Voq::new(HostId::new(0), HostId::new(1)),
                units,
            ))
            .unwrap();
        }
        t
    }

    #[test]
    fn lyapunov_of_empty_table_is_zero() {
        assert_eq!(quadratic_lyapunov(&FlowTable::new()), 0.0);
    }

    #[test]
    fn lyapunov_sums_squared_voq_backlogs() {
        let mut t = FlowTable::new();
        let q = Voq::new(HostId::new(0), HostId::new(1));
        t.insert(FlowState::new(FlowId::new(1), q, 3)).unwrap();
        t.insert(FlowState::new(FlowId::new(2), q, 2)).unwrap();
        // One VOQ with backlog 5: the flows sum before squaring.
        assert_eq!(quadratic_lyapunov(&t), 12.5);
    }

    #[test]
    fn drift_probe_tracks_differences() {
        let mut probe = DriftProbe::new();
        assert!(probe.mean_drift().is_none());
        for (t, units) in [(0.0, 2u64), (1.0, 4), (2.0, 3)] {
            let table = table_with_backlog(units);
            probe.on_sample(&SampleEvent {
                time: t,
                table: &table,
                delivered: 0.0,
            });
        }
        // L values: 2, 8, 4.5 -> drifts +6, -3.5 -> mean +1.25, max +6.
        assert_eq!(probe.lyapunov_series().values(), &[2.0, 8.0, 4.5]);
        assert_eq!(probe.drift_count(), 2);
        assert_eq!(probe.mean_drift(), Some(1.25));
        assert_eq!(probe.max_drift(), 6.0);
        assert_eq!(probe.last_value(), Some(4.5));
    }
}
