//! RepFlow: SRPT ranking plus short-flow replication metadata.

use crate::{
    schedule_champions_adjusted, Candidate, DecisionCounts, FlowTable, KeyMotion, NoAdjust,
    Ranking, Schedule, Scheduler, ViewAdjust,
};
use dcn_types::{FlowId, Voq};

/// The RepFlow baseline (Xu & Li, INFOCOM'14): flows shorter than a
/// threshold are replicated across distinct core planes and the first
/// copy to complete wins, exploiting the path diversity that ECMP's
/// per-flow hashing leaves on the table.
///
/// RepFlow is a *routing* discipline, not a scheduling one: within the
/// crossbar it ranks flows exactly like [`Srpt`](crate::Srpt) (same
/// champions, same keys, so the matching is bit-identical). What it adds
/// is the replication cutoff — [`threshold`](RepFlow::threshold) — which
/// the fabric layer (`dcn_fabric::simulate_repflow`) reads to race a
/// replica of each strictly shorter flow on an alternate core plane
/// whenever its primary plane is saturated.
///
/// # Example
///
/// ```
/// use basrpt_core::{RepFlow, REPFLOW_DEFAULT_THRESHOLD};
///
/// let rep = RepFlow::default(); // the paper's 100 KB cutoff
/// assert_eq!(rep.threshold(), REPFLOW_DEFAULT_THRESHOLD);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepFlow {
    threshold: u64,
    ranking: Ranking,
}

/// The paper's replication cutoff: flows under 100 KB count as "short".
pub const REPFLOW_DEFAULT_THRESHOLD: u64 = 100_000;

impl RepFlow {
    /// Creates a RepFlow scheduler replicating flows strictly shorter
    /// than `threshold` bytes.
    pub fn new(threshold: u64) -> Self {
        RepFlow {
            threshold,
            ranking: Ranking::default(),
        }
    }

    /// The replication threshold in bytes.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// How this instance's decisions were taken so far: certified from
    /// the carried matching, or without a certificate and why
    /// ([`Ranking::counts`]).
    pub fn decisions(&self) -> DecisionCounts {
        self.ranking.counts()
    }
}

impl Default for RepFlow {
    fn default() -> Self {
        RepFlow::new(REPFLOW_DEFAULT_THRESHOLD)
    }
}

impl Scheduler for RepFlow {
    fn name(&self) -> &str {
        "RepFlow"
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.schedule_adjusted(table, &NoAdjust)
    }

    fn schedule_validity(&self, _table: &FlowTable, _schedule: &Schedule) -> u64 {
        // Same argument as SRPT: exact integer keys dropping by 1 per
        // served slot keep the matching valid until the next arrival or
        // completion.
        u64::MAX
    }

    fn supports_lazy_views(&self) -> bool {
        // Same view-only decision as SRPT.
        true
    }

    fn recycle(&mut self, pairs: Vec<(FlowId, Voq, u32)>) {
        self.ranking.recycle(pairs);
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        // Identical ranking to SRPT: replication happens on the fabric
        // side, the crossbar matching is untouched.
        schedule_champions_adjusted(
            &mut self.ranking,
            table,
            adjust,
            KeyMotion::Falls { per_byte: 1.0 },
            |v| Candidate {
                key: v.shortest_remaining as f64,
                flow: v.shortest_flow,
                voq: v.voq,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowState, Srpt};
    use dcn_types::{FlowId, HostId, Voq};

    fn insert(t: &mut FlowTable, id: u64, src: u32, dst: u32, size: u64) {
        t.insert(FlowState::new(
            FlowId::new(id),
            Voq::new(HostId::new(src), HostId::new(dst)),
            size,
        ))
        .unwrap();
    }

    #[test]
    fn matches_srpt_schedule_exactly() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 5);
        insert(&mut t, 2, 0, 2, 1);
        insert(&mut t, 3, 3, 4, 9);
        let a = Srpt::new().schedule(&t);
        let b = RepFlow::default().schedule(&t);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "RepFlow ranks exactly like SRPT"
        );
    }

    #[test]
    fn threshold_round_trips() {
        let rep = RepFlow::new(1000);
        assert_eq!(rep.threshold(), 1000);
    }

    #[test]
    fn default_uses_the_paper_cutoff() {
        assert_eq!(RepFlow::default().threshold(), REPFLOW_DEFAULT_THRESHOLD);
    }

    #[test]
    fn name() {
        assert_eq!(RepFlow::default().name(), "RepFlow");
    }
}
