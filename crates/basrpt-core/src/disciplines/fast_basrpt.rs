//! Fast BASRPT (the paper's Algorithm 1).

use crate::{
    schedule_champions_adjusted, Candidate, DecisionCounts, FlowTable, KeyMotion, NoAdjust,
    Ranking, Schedule, Scheduler, ViewAdjust,
};
use dcn_types::{FlowId, Voq};

/// The practical backlog-aware SRPT approximation (§IV-C, Algorithm 1).
///
/// Flows are admitted greedily in non-decreasing order of
/// `(V/N) · remaining_size − X_ij`, where `X_ij` is the backlog of the
/// flow's VOQ and `N` is the number of servers. Summing the key over the at
/// most `N` selected flows approximates the exact BASRPT objective
/// `V·ȳ(t) − Σ X_ij(t) R_ij(t)`, so fast BASRPT inherits both the FCT
/// preference of SRPT (the size term) and the stabilizing pull of long
/// queues (the backlog term).
///
/// Within a VOQ every flow shares the same backlog, so the best flow of a
/// VOQ is always its shortest one — the scheduler therefore ranks one
/// candidate per non-empty VOQ, giving an `O(Q log Q)` decision instead of
/// the `O(N^2 log N^2)` bound of sorting all flows (§IV-C's complexity
/// analysis is the all-flows worst case; both orderings select the same
/// schedule).
///
/// `V` trades mean FCT against the stable queue level: larger `V` behaves
/// more like SRPT (Theorem 1 bounds the FCT penalty by `B'/V`), smaller `V`
/// behaves more like MaxWeight (queue bound grows as `O(V)`).
///
/// # Example
///
/// ```
/// use basrpt_core::{FastBasrpt, FlowState, FlowTable, Scheduler};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// // A short flow in an empty-ish queue vs a long flow in a huge queue.
/// table.insert(FlowState::new(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(2)), 1))?;
/// for i in 0..50 {
///     table.insert(FlowState::new(FlowId::new(10 + i), Voq::new(HostId::new(1), HostId::new(2)), 100))?;
/// }
/// // With a small V the backlogged VOQ wins the contended egress port 2.
/// let s = FastBasrpt::new(1.0, 4).schedule(&table);
/// assert!(!s.contains(FlowId::new(1)));
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FastBasrpt {
    v: f64,
    num_ports: usize,
    ranking: Ranking,
}

impl FastBasrpt {
    /// Creates the scheduler with importance weight `v` (the paper's `V`)
    /// for a fabric of `num_ports` servers.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or not finite, or if `num_ports` is zero.
    pub fn new(v: f64, num_ports: usize) -> Self {
        assert!(
            v.is_finite() && v >= 0.0,
            "V must be finite and >= 0, got {v}"
        );
        assert!(num_ports > 0, "fabric must have at least one port");
        FastBasrpt {
            v,
            num_ports,
            ranking: Ranking::default(),
        }
    }

    /// The FCT-vs-stability weight `V`.
    pub fn v(&self) -> f64 {
        self.v
    }

    /// The fabric size `N` used in the `V/N` scaling.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// The per-flow weight `V/N` applied to remaining sizes.
    pub fn weight(&self) -> f64 {
        self.v / self.num_ports as f64
    }

    /// How this instance's decisions were taken so far: certified from
    /// the carried matching, or without a certificate and why
    /// ([`Ranking::counts`]).
    pub fn decisions(&self) -> DecisionCounts {
        self.ranking.counts()
    }
}

impl Scheduler for FastBasrpt {
    fn name(&self) -> &str {
        "fast BASRPT"
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.schedule_adjusted(table, &NoAdjust)
    }

    fn schedule_validity(&self, _table: &FlowTable, _schedule: &Schedule) -> u64 {
        crate::validity::fast_basrpt_validity(self.weight())
    }

    fn supports_lazy_views(&self) -> bool {
        // The key reads only the view's champion and backlog.
        true
    }

    fn recycle(&mut self, pairs: Vec<(FlowId, Voq, u32)>) {
        self.ranking.recycle(pairs);
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        let w = self.weight();
        // A transmitting VOQ's key moves by `(1 − w)` per byte sent.
        let motion = if w >= 1.0 {
            KeyMotion::Falls { per_byte: w - 1.0 }
        } else {
            KeyMotion::MayRise
        };
        schedule_champions_adjusted(&mut self.ranking, table, adjust, motion, |view| Candidate {
            key: w * view.shortest_remaining as f64 - view.backlog as f64,
            flow: view.shortest_flow,
            voq: view.voq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::check_maximal;
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
    fn backlogged_voq_beats_short_flow_at_small_v() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 1); // short, empty-ish queue
        insert(&mut t, 2, 1, 2, 100); // long, below plus siblings
        insert(&mut t, 3, 1, 2, 100);
        insert(&mut t, 4, 1, 2, 100);
        let s = FastBasrpt::new(1.0, 4).schedule(&t);
        // Keys: flow1 -> 0.25*1 - 1 = -0.75; VOQ(1,2) -> 0.25*100 - 300 = -275.
        assert!(s.contains(FlowId::new(2)));
        assert!(!s.contains(FlowId::new(1)));
        check_maximal(&t, &s).unwrap();
    }

    #[test]
    fn large_v_degenerates_to_srpt() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 1);
        insert(&mut t, 2, 1, 2, 100);
        insert(&mut t, 3, 1, 2, 100);
        let fast = FastBasrpt::new(1e12, 4).schedule(&t);
        let srpt = Srpt::new().schedule(&t);
        let fast_ids: Vec<_> = fast.flow_ids().collect();
        let srpt_ids: Vec<_> = srpt.flow_ids().collect();
        assert_eq!(fast_ids, srpt_ids);
    }

    #[test]
    fn shortest_flow_represents_its_voq() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 50);
        insert(&mut t, 2, 0, 1, 5);
        let s = FastBasrpt::new(2500.0, 144).schedule(&t);
        assert_eq!(s.len(), 1);
        assert!(s.contains(FlowId::new(2)));
    }

    #[test]
    fn accessors() {
        let f = FastBasrpt::new(2500.0, 144);
        assert_eq!(f.v(), 2500.0);
        assert_eq!(f.num_ports(), 144);
        assert!((f.weight() - 2500.0 / 144.0).abs() < 1e-12);
        assert_eq!(f.name(), "fast BASRPT");
    }

    #[test]
    #[should_panic(expected = "V must be finite")]
    fn negative_v_rejected() {
        let _ = FastBasrpt::new(-1.0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = FastBasrpt::new(1.0, 0);
    }
}
