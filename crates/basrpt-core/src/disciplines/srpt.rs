//! Shortest Remaining Processing Time (greedy maximal SRPT).

use crate::{
    schedule_champions_adjusted, Candidate, DecisionCounts, FlowTable, KeyMotion, NoAdjust,
    Ranking, Schedule, Scheduler, ViewAdjust,
};
use dcn_types::{FlowId, Voq};

/// The SRPT discipline used by PDQ, pFabric and PASE (§II-A): repeatedly
/// select the globally shortest remaining flow whose ingress and egress
/// ports are both still free, until no flow can be added.
///
/// SRPT minimizes mean FCT on a single link but, as the paper demonstrates,
/// is *unstable* on a fabric: non-overlapping short flows can preempt a long
/// flow forever, so backlog accumulates even when every port's offered load
/// is below capacity.
///
/// # Example
///
/// ```
/// use basrpt_core::{FlowState, FlowTable, Scheduler, Srpt};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// let voq = Voq::new(HostId::new(0), HostId::new(1));
/// table.insert(FlowState::new(FlowId::new(1), voq, 5))?;
/// table.insert(FlowState::new(FlowId::new(2), voq, 1))?;
/// let schedule = Srpt::new().schedule(&table);
/// assert!(schedule.contains(FlowId::new(2))); // the 1-unit flow wins
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Srpt {
    ranking: Ranking,
}

impl Srpt {
    /// Creates the SRPT scheduler.
    pub fn new() -> Self {
        Srpt::default()
    }

    /// How this instance's decisions were taken so far: certified from
    /// the carried matching, or without a certificate and why
    /// ([`Ranking::counts`]).
    pub fn decisions(&self) -> DecisionCounts {
        self.ranking.counts()
    }
}

impl Scheduler for Srpt {
    fn name(&self) -> &str {
        "SRPT"
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.schedule_adjusted(table, &NoAdjust)
    }

    fn schedule_validity(&self, _table: &FlowTable, _schedule: &Schedule) -> u64 {
        // Integer remaining sizes are exact in f64 and every served head's
        // key drops by exactly 1 per slot — the safe direction of the
        // greedy admission order (see `crate::validity`) — while unserved
        // VOQs are frozen; a drained head also stays its VOQ's shortest
        // flow. The schedule can only change at an arrival or completion.
        u64::MAX
    }

    fn supports_lazy_views(&self) -> bool {
        // The decision reads only the per-VOQ views.
        true
    }

    fn recycle(&mut self, pairs: Vec<(FlowId, Voq, u32)>) {
        self.ranking.recycle(pairs);
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
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
    use crate::scheduler::check_maximal;
    use crate::FlowState;
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
    fn shortest_flow_wins_contention() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 5);
        insert(&mut t, 2, 0, 2, 1);
        let s = Srpt::new().schedule(&t);
        // Ingress 0 contended: flow 2 (shorter) wins.
        assert!(s.contains(FlowId::new(2)));
        assert!(!s.contains(FlowId::new(1)));
        check_maximal(&t, &s).unwrap();
    }

    #[test]
    fn blocked_long_flow_is_the_paper_fig1_slot1() {
        // Fig. 1 at slot 1: f1 (5 pkts, h0->h1) vs f2 (1 pkt, h0->h2).
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 5);
        insert(&mut t, 2, 0, 2, 1);
        let s = Srpt::new().schedule(&t);
        assert_eq!(s.len(), 1);
        assert!(s.contains(FlowId::new(2)));
    }

    #[test]
    fn independent_flows_all_scheduled() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 5);
        insert(&mut t, 2, 2, 3, 9);
        insert(&mut t, 3, 4, 5, 1);
        let s = Srpt::new().schedule(&t);
        assert_eq!(s.len(), 3);
        check_maximal(&t, &s).unwrap();
    }

    #[test]
    fn empty_table_empty_schedule() {
        let t = FlowTable::new();
        assert!(Srpt::new().schedule(&t).is_empty());
    }

    #[test]
    fn name() {
        assert_eq!(Srpt::new().name(), "SRPT");
    }
}
