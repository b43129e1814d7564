//! MaxWeight: the classical throughput-optimal baseline.

use crate::{
    schedule_champions_adjusted, Candidate, DecisionCounts, FlowTable, KeyMotion, NoAdjust,
    Ranking, Schedule, Scheduler, ViewAdjust,
};

/// Greedy MaxWeight scheduling: VOQs are served in decreasing order of
/// backlog (`key = −X_ij`), the `V → 0` limit of BASRPT.
///
/// MaxWeight is the textbook stable discipline for input-queued switches —
/// it maximizes the selected backlog and therefore keeps queues bounded for
/// any admissible load — but it is oblivious to flow sizes, so its FCT is
/// far from SRPT's. Including it separates "backlog-aware" (BASRPT) from
/// "backlog-only" (MaxWeight) in the ablations. Within a VOQ the shortest
/// flow is served first, which does not change queue dynamics but avoids
/// gratuitously inflating short-flow FCT.
///
/// # Example
///
/// ```
/// use basrpt_core::{FlowState, FlowTable, MaxWeight, Scheduler};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// table.insert(FlowState::new(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(2)), 1))?;
/// table.insert(FlowState::new(FlowId::new(2), Voq::new(HostId::new(1), HostId::new(2)), 99))?;
/// let s = MaxWeight::new().schedule(&table);
/// assert!(s.contains(FlowId::new(2))); // deeper queue wins regardless of size
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaxWeight {
    ranking: Ranking,
}

impl MaxWeight {
    /// Creates the MaxWeight scheduler.
    pub fn new() -> Self {
        MaxWeight::default()
    }

    /// How this instance's decisions were taken so far: certified from
    /// the carried matching, or by a full pass and why
    /// ([`Ranking::counts`]).
    pub fn decisions(&self) -> DecisionCounts {
        self.ranking.counts()
    }
}

impl Scheduler for MaxWeight {
    fn name(&self) -> &str {
        "MaxWeight"
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.schedule_adjusted(table, &NoAdjust)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        crate::validity::maxweight_validity(table, schedule)
    }

    fn supports_lazy_views(&self) -> bool {
        // The key reads only the view's backlog and champion.
        true
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        schedule_champions_adjusted(
            &mut self.ranking,
            table,
            adjust,
            KeyMotion::MayRise,
            |view| Candidate {
                key: -(view.backlog as f64),
                flow: view.shortest_flow,
                voq: view.voq,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::check_maximal;
    use crate::{FastBasrpt, FlowState};
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
    fn deepest_queue_wins() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 1);
        insert(&mut t, 2, 1, 2, 99);
        let s = MaxWeight::new().schedule(&t);
        assert!(s.contains(FlowId::new(2)));
        check_maximal(&t, &s).unwrap();
    }

    #[test]
    fn agrees_with_fast_basrpt_at_v_zero() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 1);
        insert(&mut t, 2, 1, 2, 99);
        insert(&mut t, 3, 3, 4, 10);
        insert(&mut t, 4, 3, 5, 20);
        let mw = MaxWeight::new().schedule(&t);
        let fb = FastBasrpt::new(0.0, 6).schedule(&t);
        assert_eq!(
            mw.flow_ids().collect::<Vec<_>>(),
            fb.flow_ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn name() {
        assert_eq!(MaxWeight::new().name(), "MaxWeight");
    }
}
