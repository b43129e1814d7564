//! The threshold backlog-aware strategy compared against SRPT in Fig. 2.

use crate::{FlowTable, NoAdjust, Schedule, Scheduler, ViewAdjust};
use dcn_types::{FlowId, Voq};

/// The simple backlog-aware strategy of the paper's motivation section
/// (Fig. 2): "prioritize flows in the backlog exceeding a certain
/// threshold and schedule other flows according to SRPT".
///
/// Candidates whose VOQ backlog exceeds the threshold form a high-priority
/// tier ordered by remaining size; all other candidates follow, also in
/// SRPT order. This is cruder than (fast) BASRPT — the tier boundary is a
/// hard switch instead of a continuous tradeoff — but it is already enough
/// to stabilize the motivating scenario, which is exactly the observation
/// that motivates the Lyapunov design.
///
/// # Example
///
/// ```
/// use basrpt_core::{FlowState, FlowTable, Scheduler, ThresholdBacklogSrpt};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// table.insert(FlowState::new(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(2)), 1))?;
/// table.insert(FlowState::new(FlowId::new(2), Voq::new(HostId::new(1), HostId::new(2)), 50))?;
/// // Backlog 50 > threshold 10, so the long flow jumps ahead of the short one.
/// let s = ThresholdBacklogSrpt::new(10).schedule(&table);
/// assert!(s.contains(FlowId::new(2)));
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdBacklogSrpt {
    threshold: u64,
}

impl ThresholdBacklogSrpt {
    /// Creates the strategy; VOQs with backlog strictly greater than
    /// `threshold` units are prioritized.
    pub fn new(threshold: u64) -> Self {
        ThresholdBacklogSrpt { threshold }
    }

    /// The backlog threshold in units.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl Scheduler for ThresholdBacklogSrpt {
    fn name(&self) -> &str {
        "threshold backlog-aware SRPT"
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.schedule_adjusted(table, &NoAdjust)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        crate::validity::threshold_validity(table, schedule, self.threshold)
    }

    fn supports_lazy_views(&self) -> bool {
        // Both the tier test and the within-tier key read only the view.
        true
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        // `(within threshold?, remaining, id, voq)`: `false` sorts first,
        // so the over-threshold tier leads, SRPT order within each tier,
        // flow id as the final tie-break.
        let mut candidates: Vec<(bool, u64, FlowId, Voq)> = table
            .voqs()
            .map(|mut view| {
                adjust.adjust(&mut view);
                (
                    view.backlog <= self.threshold,
                    view.shortest_remaining,
                    view.shortest_flow,
                    view.voq,
                )
            })
            .collect();
        candidates.sort_unstable();
        let mut schedule = Schedule::new();
        for (_, _, flow, voq) in candidates {
            if schedule.admits(voq) {
                schedule
                    .add(flow, voq)
                    .expect("admits() checked both ports");
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::check_maximal;
    use crate::{FlowState, Srpt};
    use dcn_types::HostId;

    fn insert(t: &mut FlowTable, id: u64, src: u32, dst: u32, size: u64) {
        t.insert(FlowState::new(
            FlowId::new(id),
            Voq::new(HostId::new(src), HostId::new(dst)),
            size,
        ))
        .unwrap();
    }

    #[test]
    fn over_threshold_voq_jumps_queue() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 1);
        insert(&mut t, 2, 1, 2, 50);
        let s = ThresholdBacklogSrpt::new(10).schedule(&t);
        assert!(s.contains(FlowId::new(2)));
        assert!(!s.contains(FlowId::new(1)));
        check_maximal(&t, &s).unwrap();
    }

    #[test]
    fn below_threshold_behaves_like_srpt() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 1);
        insert(&mut t, 2, 1, 2, 50);
        let thresh = ThresholdBacklogSrpt::new(1_000).schedule(&t);
        let srpt = Srpt::new().schedule(&t);
        assert_eq!(
            thresh.flow_ids().collect::<Vec<_>>(),
            srpt.flow_ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn srpt_order_within_urgent_tier() {
        let mut t = FlowTable::new();
        // Both VOQs over threshold, contending for egress 2.
        insert(&mut t, 1, 0, 2, 30);
        insert(&mut t, 2, 1, 2, 20);
        let s = ThresholdBacklogSrpt::new(5).schedule(&t);
        assert!(s.contains(FlowId::new(2)));
        check_maximal(&t, &s).unwrap();
    }

    #[test]
    fn accessors() {
        let s = ThresholdBacklogSrpt::new(42);
        assert_eq!(s.threshold(), 42);
        assert_eq!(s.name(), "threshold backlog-aware SRPT");
    }
}
