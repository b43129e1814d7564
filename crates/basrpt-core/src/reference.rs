//! Literal reference implementations for differential testing.
//!
//! The production schedulers rank one candidate per non-empty VOQ (the
//! VOQ's shortest flow) — an `O(Q log Q)` decision served by the
//! champion index inside [`FlowTable`]. The paper's Algorithm 1 as
//! written instead sorts *every* active flow. The two are equivalent
//! because all flows of a VOQ share the same backlog term, so the VOQ's
//! shortest flow always precedes its siblings in the global order; this
//! module provides the literal all-flows variants so tests can verify
//! that equivalence (and benches can measure the saved work).
//!
//! [`schedule_scan`] is the generic member of the family and the single
//! decision oracle: a full `O(F)` scan that recomputes every per-VOQ
//! champion from scratch and then ranks them through [`VoqDiscipline`] —
//! the oracle's own key arithmetic, kept apart from the one-pass
//! disciplines' candidate closures. It never touches the champion index,
//! so the differential suites pin the indexed schedulers bit-identical to
//! it — same winners, same [`crate::greedy_by_key`]-style tie-breaks.

use crate::table::VoqView;
use crate::{FlowTable, Schedule, Scheduler};
use dcn_types::{FlowId, Voq};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A total-ordered wrapper for `f64` scheduling keys.
///
/// Orders by [`f64::total_cmp`], matching the comparator
/// [`greedy_by_key`](crate::greedy_by_key) uses on raw candidate keys, so
/// the scan oracle and the one-pass path rank identically — including for
/// values that compare equal only under IEEE semantics. Keys are expected
/// to be finite (the one-pass path debug-asserts this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64Key(f64);

impl F64Key {
    /// Wraps a key value.
    pub fn new(key: f64) -> Self {
        F64Key(key)
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for F64Key {}

impl PartialOrd for F64Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A scheduling discipline expressed as a pure ranking of VOQ summaries.
///
/// `rank` maps the current state of one non-empty VOQ to `(key, head
/// flow)`: the key orders VOQs (smaller = higher priority, ties broken by
/// the head flow's id) and the head flow is the one transmitted if the VOQ
/// wins its ports. The ranking must depend only on the given view, so
/// [`schedule_scan`] can rank summaries it rebuilt itself.
///
/// This is the oracle's own statement of each discipline's key, written
/// independently of the one-pass `schedule_adjusted` closures it is
/// differentially pinned against. Implemented by the one-pass
/// disciplines; [`ExactBasrpt`](crate::ExactBasrpt), whose objective
/// couples VOQs, cannot be expressed this way.
pub trait VoqDiscipline {
    /// The ordered ranking key. For disciplines whose one-pass twin ranks
    /// `f64` candidate keys this should be [`F64Key`] (built from the
    /// *same* arithmetic) so both paths order identically.
    type Key: Ord + Clone + fmt::Debug;

    /// Short human-readable name, used in experiment output.
    fn name(&self) -> &str;

    /// Ranks one non-empty VOQ: the admission key and the flow that
    /// transmits if this VOQ is selected.
    fn rank(&self, view: &VoqView) -> (Self::Key, FlowId);

    /// Slot-validity bound for a schedule just computed from `table` —
    /// the contract of [`Scheduler::schedule_validity`], forwarded
    /// verbatim by [`ScanScheduler`] so wrapping a discipline does not
    /// change how long its schedules may be replayed. The default of
    /// `1` is always sound; overrides mirror the one-pass twins (see
    /// [`crate::validity`]).
    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        let _ = (table, schedule);
        1
    }
}

impl VoqDiscipline for crate::Srpt {
    type Key = F64Key;

    fn name(&self) -> &str {
        "SRPT"
    }

    fn rank(&self, view: &VoqView) -> (F64Key, FlowId) {
        (
            F64Key::new(view.shortest_remaining as f64),
            view.shortest_flow,
        )
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

impl VoqDiscipline for crate::FastBasrpt {
    type Key = F64Key;

    fn name(&self) -> &str {
        "fast BASRPT"
    }

    fn rank(&self, view: &VoqView) -> (F64Key, FlowId) {
        let key = self.weight() * view.shortest_remaining as f64 - view.backlog as f64;
        (F64Key::new(key), view.shortest_flow)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

impl VoqDiscipline for crate::MaxWeight {
    type Key = F64Key;

    fn name(&self) -> &str {
        "MaxWeight"
    }

    fn rank(&self, view: &VoqView) -> (F64Key, FlowId) {
        (F64Key::new(-(view.backlog as f64)), view.shortest_flow)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

impl VoqDiscipline for crate::ThresholdBacklogSrpt {
    /// `(backlog ≤ threshold, shortest remaining)` — the exact prefix of
    /// the tuple the one-pass implementation sorts, kept as integers so no
    /// precision is lost for large backlogs.
    type Key = (bool, u64);

    fn name(&self) -> &str {
        "threshold backlog-aware SRPT"
    }

    fn rank(&self, view: &VoqView) -> ((bool, u64), FlowId) {
        (
            (view.backlog <= self.threshold(), view.shortest_remaining),
            view.shortest_flow,
        )
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

/// The paper's Algorithm 1 verbatim: sort all active flows by
/// `(V/N)·remaining − voq_backlog` (ties: smaller remaining, then smaller
/// id) and admit greedily under the crossbar constraint.
///
/// # Panics
///
/// Panics if `v` is negative or not finite, or `num_ports` is zero.
///
/// # Example
///
/// ```
/// use basrpt_core::reference::fast_basrpt_all_flows;
/// use basrpt_core::{FastBasrpt, FlowState, FlowTable, Scheduler};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut t = FlowTable::new();
/// t.insert(FlowState::new(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(1)), 7))?;
/// t.insert(FlowState::new(FlowId::new(2), Voq::new(HostId::new(2), HostId::new(1)), 3))?;
/// let literal = fast_basrpt_all_flows(&t, 2500.0, 4);
/// let optimized = FastBasrpt::new(2500.0, 4).schedule(&t);
/// assert_eq!(
///     literal.flow_ids().collect::<Vec<_>>(),
///     optimized.flow_ids().collect::<Vec<_>>()
/// );
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
pub fn fast_basrpt_all_flows(table: &FlowTable, v: f64, num_ports: usize) -> Schedule {
    assert!(v.is_finite() && v >= 0.0, "V must be finite and >= 0");
    assert!(num_ports > 0, "fabric must have at least one port");
    let w = v / num_ports as f64;
    ranked_all_flows(table, |remaining, backlog| w * remaining - backlog)
}

/// Greedy maximal SRPT over all flows (the reference for [`crate::Srpt`]).
pub fn srpt_all_flows(table: &FlowTable) -> Schedule {
    ranked_all_flows(table, |remaining, _| remaining)
}

fn ranked_all_flows(table: &FlowTable, key: impl Fn(f64, f64) -> f64) -> Schedule {
    let mut flows: Vec<(f64, u64, FlowId)> = table
        .iter()
        .map(|f| {
            let backlog = table.voq_backlog(f.voq()) as f64;
            (key(f.remaining() as f64, backlog), f.remaining(), f.id())
        })
        .collect();
    flows.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut schedule = Schedule::new();
    for (_, _, id) in flows {
        let voq = table.get(id).expect("iterated flow").voq();
        if schedule.admits(voq) {
            schedule.add(id, voq).expect("admits() checked both ports");
        }
    }
    schedule
}

/// Full-scan twin of the champion-indexed schedulers.
///
/// Rebuilds every per-VOQ summary ([`VoqView`]) by scanning all `F`
/// active flows, ranks the summaries with `discipline`, and admits
/// greedily in `(key, head flow)` order — exactly the ordering contract
/// of [`crate::greedy_by_key`], including the `FlowId` tie-break. Costs
/// `O(F + Q log Q)` per call and reads nothing but the flow iterator —
/// plus each VOQ's slot, which labels a view but never ranks it — so it
/// is immune to champion-index bugs by construction.
pub fn schedule_scan<D: VoqDiscipline>(discipline: &D, table: &FlowTable) -> Schedule {
    struct Scratch {
        backlog: u64,
        shortest: (u64, FlowId),
    }
    let mut per_voq: BTreeMap<Voq, Scratch> = BTreeMap::new();
    for f in table.iter() {
        let s = per_voq.entry(f.voq()).or_insert(Scratch {
            backlog: 0,
            shortest: (f.remaining(), f.id()),
        });
        s.backlog += f.remaining();
        s.shortest = s.shortest.min((f.remaining(), f.id()));
    }
    let mut ranked: Vec<(D::Key, FlowId, Voq)> = per_voq
        .iter()
        .map(|(voq, s)| {
            let view = VoqView {
                voq: *voq,
                backlog: s.backlog,
                shortest_remaining: s.shortest.0,
                shortest_flow: s.shortest.1,
                slot: table
                    .voq_slot(*voq)
                    .expect("a VOQ holding a flow has a table slot") as u32,
            };
            let (key, head) = discipline.rank(&view);
            (key, head, *voq)
        })
        .collect();
    // Head flows are unique across VOQs, so `(key, head)` is already a
    // total order; the trailing `Voq` never decides.
    ranked.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut schedule = Schedule::new();
    for (_, flow, voq) in ranked {
        if schedule.admits(voq) {
            schedule
                .add(flow, voq)
                .expect("admits() checked both ports");
        }
    }
    schedule
}

/// [`Scheduler`] adapter around [`schedule_scan`], so differential suites
/// can drive a full-scan twin through the same simulator plumbing as the
/// indexed scheduler under test. Validity bounds are forwarded to the
/// discipline's [`VoqDiscipline::schedule_validity`].
///
/// # Example
///
/// ```
/// use basrpt_core::reference::ScanScheduler;
/// use basrpt_core::{FlowState, FlowTable, Scheduler, Srpt};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut t = FlowTable::new();
/// t.insert(FlowState::new(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(1)), 7))?;
/// let scan = ScanScheduler::new(Srpt::new()).schedule(&t);
/// let indexed = Srpt::new().schedule(&t);
/// assert_eq!(scan, indexed);
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScanScheduler<D: VoqDiscipline> {
    discipline: D,
}

impl<D: VoqDiscipline> ScanScheduler<D> {
    /// Wraps `discipline` in a full-scan scheduler.
    pub fn new(discipline: D) -> Self {
        ScanScheduler { discipline }
    }
}

impl<D: VoqDiscipline> Scheduler for ScanScheduler<D> {
    fn name(&self) -> &str {
        self.discipline.name()
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        schedule_scan(&self.discipline, table)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        self.discipline.schedule_validity(table, schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FastBasrpt, FlowState, MaxWeight, Scheduler, Srpt, ThresholdBacklogSrpt};
    use dcn_types::{HostId, Voq};

    fn insert(t: &mut FlowTable, id: u64, src: u32, dst: u32, size: u64) {
        t.insert(FlowState::new(
            FlowId::new(id),
            Voq::new(HostId::new(src), HostId::new(dst)),
            size,
        ))
        .unwrap();
    }

    fn demo_table() -> FlowTable {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 50);
        insert(&mut t, 2, 0, 1, 5);
        insert(&mut t, 3, 0, 2, 7);
        insert(&mut t, 4, 1, 2, 7);
        insert(&mut t, 5, 1, 2, 7);
        insert(&mut t, 6, 2, 0, 1);
        t
    }

    #[test]
    fn literal_srpt_matches_optimized() {
        let t = demo_table();
        let literal: Vec<_> = srpt_all_flows(&t).flow_ids().collect();
        let optimized: Vec<_> = Srpt::new().schedule(&t).flow_ids().collect();
        assert_eq!(literal, optimized);
    }

    #[test]
    fn literal_fast_basrpt_matches_optimized() {
        let t = demo_table();
        for v in [0.0, 1.0, 100.0, 2500.0] {
            let literal: Vec<_> = fast_basrpt_all_flows(&t, v, 4).flow_ids().collect();
            let optimized: Vec<_> = FastBasrpt::new(v, 4).schedule(&t).flow_ids().collect();
            assert_eq!(literal, optimized, "V = {v}");
        }
    }

    #[test]
    fn f64_key_orders_by_total_cmp() {
        assert!(F64Key::new(-1.0) < F64Key::new(0.0));
        assert!(F64Key::new(-0.0) < F64Key::new(0.0)); // total_cmp semantics
        assert_eq!(F64Key::new(2.5).get(), 2.5);
    }

    #[test]
    fn empty_table() {
        let t = FlowTable::new();
        assert!(srpt_all_flows(&t).is_empty());
        assert!(fast_basrpt_all_flows(&t, 10.0, 4).is_empty());
        assert!(schedule_scan(&Srpt::new(), &t).is_empty());
    }

    fn assert_scan_matches_indexed(t: &FlowTable) {
        assert_eq!(schedule_scan(&Srpt::new(), t), Srpt::new().schedule(t));
        assert_eq!(
            schedule_scan(&MaxWeight::new(), t),
            MaxWeight::new().schedule(t)
        );
        for v in [0.0, 1.0, 2500.0] {
            assert_eq!(
                schedule_scan(&FastBasrpt::new(v, 4), t),
                FastBasrpt::new(v, 4).schedule(t),
                "V = {v}"
            );
        }
        for thr in [0, 10, u64::MAX] {
            assert_eq!(
                schedule_scan(&ThresholdBacklogSrpt::new(thr), t),
                ThresholdBacklogSrpt::new(thr).schedule(t),
                "threshold = {thr}"
            );
        }
    }

    #[test]
    fn scan_matches_indexed_across_disciplines() {
        let mut t = demo_table();
        assert_scan_matches_indexed(&t);
        // Mutate through drains, completions, and an id-reusing insert so
        // the indexed path leans on its lazily repaired champions.
        t.drain(FlowId::new(2), 4).unwrap();
        t.drain(FlowId::new(6), 1).unwrap(); // completes
        insert(&mut t, 6, 2, 0, 3); // id reuse
        let left = t.get(FlowId::new(4)).unwrap().remaining();
        assert!(t.drain(FlowId::new(4), left).unwrap().completed.is_some());
        assert_scan_matches_indexed(&t);
    }

    #[test]
    fn threshold_key_is_exact_for_huge_backlogs() {
        // Backlogs around 2^53, where f64 rounding would merge distinct
        // values; the oracle's `(bool, u64)` key keeps them distinct, as
        // does the one-pass tuple sort.
        let big = 1u64 << 53;
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, big);
        insert(&mut t, 2, 1, 2, big + 1);
        let thr = ThresholdBacklogSrpt::new(10);
        let scanned = schedule_scan(&thr, &t);
        assert_eq!(scanned, ThresholdBacklogSrpt::new(10).schedule(&t));
        assert!(scanned.contains(FlowId::new(1)), "smaller remaining wins");
    }

    #[test]
    fn scan_scheduler_forwards_name_and_validity() {
        let t = demo_table();
        let mut scan = ScanScheduler::new(FastBasrpt::new(2500.0, 144));
        assert_eq!(scan.name(), "fast BASRPT");
        assert_eq!(scan.discipline.v(), 2500.0);
        let s = scan.schedule(&t);
        let mut direct = FastBasrpt::new(2500.0, 144);
        let direct_schedule = direct.schedule(&t);
        assert_eq!(
            Scheduler::schedule_validity(&scan, &t, &s),
            Scheduler::schedule_validity(&direct, &t, &direct_schedule)
        );
    }
}
