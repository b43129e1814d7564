//! FIFO: arrival-order baseline.

use crate::{
    schedule_champions_adjusted, Candidate, DecisionCounts, FlowTable, KeyMotion, NoAdjust,
    Ranking, Schedule, Scheduler, ViewAdjust,
};
use dcn_types::{FlowId, Voq};

/// First-in-first-out scheduling: flows are admitted to the matching in
/// arrival order (flow ids are assigned in arrival order by the workload
/// generators, so the id doubles as the arrival rank).
///
/// FIFO is size-oblivious and backlog-oblivious; it anchors the "no
/// scheduling intelligence at all" end of the design space in ablations.
///
/// # Example
///
/// ```
/// use basrpt_core::{Fifo, FlowState, FlowTable, Scheduler};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// let voq = Voq::new(HostId::new(0), HostId::new(1));
/// table.insert(FlowState::new(FlowId::new(1), voq, 100))?;
/// table.insert(FlowState::new(FlowId::new(2), voq, 1))?;
/// // The earlier (bigger) flow is served first, unlike SRPT.
/// let s = Fifo::new().schedule(&table);
/// assert!(s.contains(FlowId::new(1)));
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fifo {
    ranking: Ranking,
}

impl Fifo {
    /// Creates the FIFO scheduler.
    pub fn new() -> Self {
        Fifo::default()
    }

    /// How this instance's decisions were taken so far: certified from
    /// the carried matching, or by a full pass and why
    /// ([`Ranking::counts`]).
    pub fn decisions(&self) -> DecisionCounts {
        self.ranking.counts()
    }
}

impl Scheduler for Fifo {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.schedule_adjusted(table, &NoAdjust)
    }

    fn schedule_validity(&self, _table: &FlowTable, _schedule: &Schedule) -> u64 {
        // Oldest-flow keys are constant between arrivals and completions
        // (draining a flow never changes which flow is oldest), so the
        // ranking is frozen and the schedule cannot change.
        u64::MAX
    }

    fn supports_lazy_views(&self) -> bool {
        // The key reads only the view's oldest flow.
        true
    }

    fn recycle(&mut self, pairs: Vec<(FlowId, Voq, u32)>) {
        self.ranking.recycle(pairs);
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        schedule_champions_adjusted(&mut self.ranking, table, adjust, KeyMotion::Falls, |view| {
            Candidate {
                // Ids stay far below 2^53, so the f64 key is exact.
                key: view.oldest_flow.raw() as f64,
                flow: view.oldest_flow,
                voq: view.voq,
            }
        })
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
    fn earliest_arrival_wins_contention() {
        let mut t = FlowTable::new();
        insert(&mut t, 5, 0, 2, 1); // later arrival, shorter
        insert(&mut t, 3, 1, 2, 99); // earlier arrival, longer
        let s = Fifo::new().schedule(&t);
        assert!(s.contains(FlowId::new(3)));
        assert!(!s.contains(FlowId::new(5)));
        check_maximal(&t, &s).unwrap();
    }

    #[test]
    fn head_of_voq_is_oldest() {
        let mut t = FlowTable::new();
        insert(&mut t, 9, 0, 1, 1);
        insert(&mut t, 4, 0, 1, 100);
        let s = Fifo::new().schedule(&t);
        assert!(s.contains(FlowId::new(4)));
    }

    #[test]
    fn name() {
        assert_eq!(Fifo::new().name(), "FIFO");
    }
}
