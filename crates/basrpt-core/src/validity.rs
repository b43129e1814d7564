//! Schedule-validity bounds: for how many consecutive slots a computed
//! schedule provably survives unchanged under its own drains.
//!
//! The slotted switch drains exactly one unit from every scheduled flow
//! per slot, and between two state-changing events (an arrival or a flow
//! completion) those drains are the *only* table mutations. A windowed
//! driver (see `dcn_switch::run_probed`) can therefore reuse a cached
//! schedule for `k` slots at a time — provided the greedy admission order
//! cannot flip within the window. This module derives sound per-discipline
//! bounds from one argument:
//!
//! # The safe-direction invariance argument
//!
//! [`greedy_by_key`](crate::greedy_by_key) admits candidates in ascending
//! `(key, flow id)` order — whether those candidates come from the
//! champion index (one per non-empty VOQ, see
//! [`schedule_champions_adjusted`](crate::schedule_champions_adjusted))
//! or from the full-scan oracle
//! ([`reference::schedule_scan`](crate::reference::schedule_scan)): the
//! bounds below depend only on the admission order, not on how the
//! candidate list was produced. Fix a
//! computed matching `M`. Suppose that over one slot (with no arrivals
//! and no completions)
//!
//! * every candidate in `M` shifts its key by the **same exact amount** in
//!   the **safe direction** (towards the front, or not at all), and
//! * every candidate not in `M` keeps its key unchanged,
//!
//! then re-running the greedy admission yields the *identical* schedule,
//! admission order included: each member of `M` is preceded by a subset of
//! the candidates that preceded it before (so it is admitted again — its
//! ports are taken only by earlier members of `M`, which form the same
//! port-disjoint set), the relative order within `M` is preserved by the
//! equal shifts, and every rejected candidate still has its blocking
//! member in front of it. Iterating the argument extends it to any number
//! of slots over which the premises hold.
//!
//! * **SRPT / FIFO**: served keys drop by exactly 1 per slot (SRPT) or are
//!   constant (FIFO) — safe forever, bound `u64::MAX`.
//! * **Fast BASRPT**, key `w·remaining − backlog`: a served candidate
//!   shifts by `1 − w` per slot. For an *integer* weight `w ≥ 1` the shift
//!   is `≤ 0` and every key stays an exactly-representable f64 (like the
//!   FIFO key, assuming magnitudes below 2⁵³), so the bound is `u64::MAX`;
//!   otherwise the shift is either towards the back (`w < 1`) or inexact
//!   in f64, and the bound degrades to 1.
//! * **MaxWeight**, key `−backlog`: served keys *grow* by 1 per slot — the
//!   unsafe direction — so a served VOQ can fall behind an unserved one.
//!   [`maxweight_validity`] bounds the first possible flip.
//! * **Threshold backlog-aware SRPT**, key `(backlog ≤ θ, remaining)`:
//!   within a tier served candidates move frontwards (remaining drops),
//!   but a served VOQ draining through the threshold flips its tier bit
//!   the unsafe way. [`threshold_validity`] bounds the first crossing.
//!
//! All bounds assume backlogs and remaining sizes stay below 2⁵³ so the
//! disciplines' f64 keys are exact — the same representability assumption
//! the keys themselves already make.

use crate::{FlowTable, Schedule};
use dcn_types::Voq;
use std::collections::HashSet;

/// Validity bound for a [`MaxWeight`](crate::MaxWeight) schedule computed
/// from `table`.
///
/// A served VOQ with backlog `x_s` gains key `+1` per slot while unserved
/// backlogs are frozen, so the pair order `(served before unserved)` with
/// the largest unserved backlog `x_u ≤ x_s` is the first that can flip —
/// no earlier than slot `x_s − x_u` after the decision (exactly then if
/// the id tie-break favoured the served VOQ). The bound is the minimum
/// over served VOQs, clamped to `≥ 1` (the decision slot itself is always
/// valid), and `u64::MAX` when no unserved candidate exists to overtake.
pub fn maxweight_validity(table: &FlowTable, schedule: &Schedule) -> u64 {
    let served: HashSet<Voq> = schedule.iter().map(|(_, voq)| voq).collect();
    let mut unserved: Vec<u64> = table
        .voqs()
        .filter(|view| !served.contains(&view.voq))
        .map(|view| view.backlog)
        .collect();
    if unserved.is_empty() {
        return u64::MAX;
    }
    unserved.sort_unstable();
    let mut bound = u64::MAX;
    for (_, voq) in schedule.iter() {
        let x = table.voq_backlog(voq);
        // Largest unserved backlog <= x: the first element the served VOQ
        // can fall behind. Unserved VOQs with larger backlog already sit
        // in front of it, and a backwards-drifting key never re-passes
        // them.
        let idx = unserved.partition_point(|&u| u <= x);
        if idx > 0 {
            bound = bound.min((x - unserved[idx - 1]).max(1));
        }
    }
    bound
}

/// Validity bound for a
/// [`ThresholdBacklogSrpt`](crate::ThresholdBacklogSrpt) schedule computed
/// from `table` with threshold `threshold`.
///
/// Within each tier the served keys only move frontwards (remaining sizes
/// shrink by exactly 1 per slot), which is the safe direction; the only
/// unsafe move is a served over-threshold VOQ draining down to the
/// threshold, which flips its tier bit from urgent to normal after
/// exactly `backlog − threshold` slots. Unserved VOQs are frozen and
/// cannot cross tiers on their own.
pub fn threshold_validity(table: &FlowTable, schedule: &Schedule, threshold: u64) -> u64 {
    let mut bound = u64::MAX;
    for (_, voq) in schedule.iter() {
        let backlog = table.voq_backlog(voq);
        if backlog > threshold {
            bound = bound.min(backlog - threshold);
        }
    }
    bound
}

/// Validity bound for a [`FastBasrpt`](crate::FastBasrpt) schedule, from
/// the per-flow weight `w = V/N` alone.
///
/// Served keys `w·remaining − backlog` shift by `1 − w` per slot. The
/// shift is safe (`≤ 0`) and exactly representable for every reachable
/// magnitude when `w` is an integer `≥ 1`, giving an unbounded window;
/// any other weight shifts backwards or rounds, so the schedule is only
/// pinned for the slot it was computed for.
pub fn fast_basrpt_validity(weight: f64) -> u64 {
    if weight >= 1.0 && weight.fract() == 0.0 {
        u64::MAX
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowState, MaxWeight, Scheduler, ThresholdBacklogSrpt};
    use dcn_types::{FlowId, HostId, Voq};

    fn insert(t: &mut FlowTable, id: u64, src: u32, dst: u32, size: u64) {
        t.insert(FlowState::new(
            FlowId::new(id),
            Voq::new(HostId::new(src), HostId::new(dst)),
            size,
        ))
        .unwrap();
    }

    /// Brute-force check: drain the schedule slot by slot and count how
    /// long the freshly recomputed schedule stays identical.
    fn measured_validity<S: Scheduler>(mut sched: S, table: &FlowTable, max: u64) -> u64 {
        let mut t = table.clone();
        let pinned = sched.schedule(&t);
        let mut slots = 0u64;
        while slots < max {
            if sched.schedule(&t) != pinned {
                return slots;
            }
            slots += 1;
            let mut completed = false;
            for (id, _) in pinned.iter() {
                let out = t.drain(id, 1).unwrap();
                completed |= out.completed.is_some();
            }
            if completed {
                return slots; // window must end at a completion anyway
            }
        }
        slots
    }

    #[test]
    fn maxweight_bound_is_sound_on_contended_table() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 9); // backlog 9, contends egress 2
        insert(&mut t, 2, 1, 2, 4); // backlog 4, loses egress 2
        insert(&mut t, 3, 3, 4, 7); // independent
        let mut mw = MaxWeight::new();
        let s = mw.schedule(&t);
        let bound = maxweight_validity(&t, &s);
        // The tightest served/unserved pair is (3,4) at 7 vs (1,2) at 4:
        // flip no earlier than slot 3 (conservative — they do not even
        // contend a port, but the bound is port-oblivious).
        assert_eq!(bound, 3);
        assert!(measured_validity(MaxWeight::new(), &t, 64) >= bound);
    }

    #[test]
    fn maxweight_without_unserved_voqs_is_unbounded() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 5);
        insert(&mut t, 2, 2, 3, 8);
        let mut mw = MaxWeight::new();
        let s = mw.schedule(&t);
        assert_eq!(s.len(), 2);
        assert_eq!(maxweight_validity(&t, &s), u64::MAX);
    }

    #[test]
    fn maxweight_equal_backlogs_pin_a_single_slot() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 6);
        insert(&mut t, 2, 1, 2, 6);
        let mut mw = MaxWeight::new();
        let s = mw.schedule(&t);
        assert_eq!(maxweight_validity(&t, &s), 1);
    }

    #[test]
    fn threshold_bound_counts_slots_to_tier_crossing() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 14); // urgent at threshold 10
        insert(&mut t, 2, 1, 2, 3); // normal tier, loses egress 2
        let mut sched = ThresholdBacklogSrpt::new(10);
        let s = sched.schedule(&t);
        let bound = threshold_validity(&t, &s, 10);
        assert_eq!(bound, 4);
        assert!(measured_validity(ThresholdBacklogSrpt::new(10), &t, 64) >= bound);
    }

    #[test]
    fn threshold_all_below_threshold_is_unbounded() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 3);
        insert(&mut t, 2, 1, 2, 5);
        let mut sched = ThresholdBacklogSrpt::new(100);
        let s = sched.schedule(&t);
        assert_eq!(threshold_validity(&t, &s, 100), u64::MAX);
    }

    #[test]
    fn fast_basrpt_weight_classes() {
        assert_eq!(fast_basrpt_validity(1.0), u64::MAX);
        assert_eq!(fast_basrpt_validity(2.0), u64::MAX);
        assert_eq!(fast_basrpt_validity(0.5), 1);
        assert_eq!(fast_basrpt_validity(1.5), 1);
        assert_eq!(fast_basrpt_validity(0.0), 1);
    }
}
