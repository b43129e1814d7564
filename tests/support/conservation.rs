//! Bit-exact conservation identities and run-equality assertions.

use super::fingerprint::fingerprint;
use basrpt::fabric::{FabricRun, RepFlowRun};
use basrpt::probe::{ArrivalEvent, Probe, SampleEvent};
use basrpt::types::FlowClass;

/// A passive probe asserting the exact byte identity
/// `arrived == delivered + backlog` at **every sample instant**, not just
/// at the horizon — the mid-flight half of [`assert_conserved`].
///
/// It reports `wants_flow_fidelity() == false`, so attaching it keeps the
/// lazily settling engines on their lazy path: what it checks is that
/// settling accounts only at observation points still presents an exactly
/// conserved table at each of those points.
#[derive(Debug, Default)]
pub struct ConservationProbe {
    /// Context for assertion messages.
    pub label: String,
    /// Cumulative bytes arrived so far (samples see same-instant arrivals
    /// both here and in the table, matching the engine's event order).
    pub arrived: u64,
    /// Number of sample instants checked, so callers can reject a vacuous
    /// pass.
    pub samples: usize,
}

impl ConservationProbe {
    /// Creates a probe whose assertion messages carry `label`.
    pub fn new(label: &str) -> Self {
        ConservationProbe {
            label: label.to_string(),
            ..ConservationProbe::default()
        }
    }
}

impl Probe for ConservationProbe {
    fn wants_decision_timing(&self) -> bool {
        false
    }

    fn wants_flow_fidelity(&self) -> bool {
        false
    }

    fn on_arrival(&mut self, event: &ArrivalEvent) {
        self.arrived += event.size;
    }

    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        self.samples += 1;
        let backlog = event.table.total_backlog();
        let delivered = event.delivered as u64;
        assert_eq!(
            self.arrived,
            delivered + backlog,
            "{}: sample {} at t={}: arrived != delivered + backlog",
            self.label,
            self.samples,
            event.time,
        );
    }
}

/// Asserts the exact conservation identities every engine must satisfy,
/// whatever the discipline, topology, or load:
///
/// * `arrived_bytes == delivered + leftover_bytes` — to the byte;
/// * `completions + leftover_flows == arrivals` — every flow accounted;
/// * the cumulative-delivered series is monotone.
pub fn assert_conserved(run: &FabricRun, label: &str) {
    assert_eq!(
        run.arrived_bytes,
        run.throughput.delivered() + run.leftover_bytes,
        "{label}: arrived != delivered + leftover (exactly)"
    );
    assert_eq!(
        run.completions + run.leftover_flows,
        run.arrivals,
        "{label}: flow count mismatch"
    );
    assert!(
        run.cumulative_delivered
            .values()
            .windows(2)
            .all(|w| w[0] <= w[1]),
        "{label}: cumulative delivered series must be monotone"
    );
}

/// Asserts two runs are **the same run**: every counter, byte total,
/// sampled-series bit, and FCT summary bit agrees. The workhorse of the
/// differential suites — any divergence is an engine bug, not a modelling
/// difference.
pub fn assert_bit_identical(a: &FabricRun, b: &FabricRun, label: &str) {
    assert_eq!(a.arrivals, b.arrivals, "{label}: arrivals");
    assert_eq!(a.completions, b.completions, "{label}: completions");
    assert_eq!(a.reschedules, b.reschedules, "{label}: reschedules");
    assert_eq!(a.arrived_bytes, b.arrived_bytes, "{label}: arrived bytes");
    assert_eq!(
        a.throughput.delivered(),
        b.throughput.delivered(),
        "{label}: delivered bytes"
    );
    assert_eq!(
        a.leftover_bytes, b.leftover_bytes,
        "{label}: leftover bytes"
    );
    assert_eq!(
        a.leftover_flows, b.leftover_flows,
        "{label}: leftover flows"
    );
    assert_eq!(
        fingerprint(a),
        fingerprint(b),
        "{label}: sampled series fingerprint"
    );
    assert_fct_bits_equal(a, b, label);
}

/// Asserts the FCT summaries of both traffic classes agree bit for bit
/// (count, mean, p99 — `f64::to_bits` equality, not approximation).
pub fn assert_fct_bits_equal(a: &FabricRun, b: &FabricRun, label: &str) {
    for class in [FlowClass::Background, FlowClass::Query] {
        match (a.fct.summary(class), b.fct.summary(class)) {
            (Some(x), Some(y)) => {
                assert_eq!(x.count, y.count, "{label}: {class:?} FCT count");
                assert_eq!(
                    x.mean_secs.to_bits(),
                    y.mean_secs.to_bits(),
                    "{label}: {class:?} FCT mean must be bit-exact"
                );
                assert_eq!(
                    x.p99_secs.to_bits(),
                    y.p99_secs.to_bits(),
                    "{label}: {class:?} FCT p99 must be bit-exact"
                );
            }
            (None, None) => {}
            _ => panic!("{label}: {class:?} FCT summary presence differs"),
        }
    }
}

/// Asserts a RepFlow run's exact replica accounting on top of the base
/// run's own conservation:
///
/// * the base run conserves bytes and flows ([`assert_conserved`] — the
///   replica layer must not leak into primary-path accounting);
/// * `replica_bytes == winning + losing + racing` — every replica byte
///   classified exactly once;
/// * per flow, `fct ≤ base_fct`, with bit-equality when no replica won —
///   the dominance the first-copy-completes race guarantees;
/// * a winner implies the full flow crossed the alternate plane.
pub fn assert_repflow_accounting(rep: &RepFlowRun, label: &str) {
    assert_conserved(&rep.run, label);
    assert_eq!(
        rep.stats.replica_bytes,
        rep.stats.winning_replica_bytes
            + rep.stats.losing_replica_bytes
            + rep.stats.racing_replica_bytes,
        "{label}: replica bytes must classify exactly"
    );
    assert!(
        rep.stats.replica_wins <= rep.stats.replicated_flows,
        "{label}: wins cannot exceed races"
    );
    assert_eq!(
        rep.completions.len(),
        rep.run.completions,
        "{label}: one completion record per completed flow"
    );
    for c in &rep.completions {
        assert!(
            c.fct <= c.base_fct,
            "{label}: flow {} regressed: {} > {}",
            c.flow,
            c.fct.as_secs(),
            c.base_fct.as_secs()
        );
        if c.winner.is_none() {
            assert_eq!(
                c.fct.as_secs().to_bits(),
                c.base_fct.as_secs().to_bits(),
                "{label}: flow {} has no winner but fct != base_fct",
                c.flow
            );
        }
        if !c.replicated {
            assert!(
                c.winner.is_none(),
                "{label}: unreplicated flow has a winner"
            );
        }
    }
}
