//! Property tests for [`CompletionCalendar`] under adversarial reschedule
//! sequences — the situations lazy invalidation must survive: the same
//! flow rescheduled over and over (stale items pile up on the heap),
//! re-applying an unchanged schedule (must push nothing), drain-to-zero
//! (empty schedules, `INFINITY` answers, then refills), and compactions
//! interleaved anywhere (after one, the heap holds one item per live
//! account).
//!
//! The calendar keeps no live set; its owner's accounts are the truth.
//! Here the owner is a naive model — one account per flow, in the slot
//! named by the flow id — that pushes an item whenever an account's
//! instant changes, as the delta allocator does. Every prefix of every
//! sequence is checked against a recompute-the-minimum answer, and the
//! allocator itself is driven through arbitrary reschedules to check that
//! an unchanged re-apply pushes nothing.

use basrpt_core::FlowSlot;
use dcn_fabric::{CompletionCalendar, DeltaAllocator};
use dcn_types::{FlowId, HostId, Rate, SimTime, Voq};
use proptest::prelude::*;
use std::collections::HashMap;

fn f(id: u64) -> FlowId {
    FlowId::new(id)
}

fn at(tenths: u64) -> SimTime {
    SimTime::from_millis(tenths as f64 / 10.0)
}

/// The owner of a calendar: the live instant of each flow's account, in
/// the slot `id`, with one push per changed instant.
#[derive(Default)]
struct Owner {
    cal: CompletionCalendar,
    live: HashMap<u64, u64>,
}

impl Owner {
    /// Opens (or moves) flow `id`'s account onto instant `t`.
    fn set(&mut self, id: u64, t: u64) {
        if self.live.insert(id, t) != Some(t) {
            self.cal.push(at(t), f(id), id as usize);
        }
    }

    /// Replaces every account with `schedule` (last pair wins).
    fn reschedule(&mut self, schedule: &[(u64, u64)]) {
        let next: HashMap<u64, u64> = schedule.iter().copied().collect();
        self.live.retain(|id, _| next.contains_key(id));
        for (&id, &t) in &next {
            self.set(id, t);
        }
    }

    fn next_completion(&mut self) -> SimTime {
        let live = &self.live;
        self.cal.next_completion(|t, flow, slot| {
            flow.raw() as usize == slot && live.get(&flow.raw()).map(|&t| at(t)) == Some(t)
        })
    }

    /// Compacts the calendar against the accounts.
    fn compact(&mut self) {
        let live = &self.live;
        self.cal.compact(|t, flow, slot| {
            flow.raw() as usize == slot && live.get(&flow.raw()).map(|&t| at(t)) == Some(t)
        });
    }

    /// The naive answer: the minimum over the live accounts.
    fn want(&self) -> SimTime {
        self.live
            .values()
            .map(|&t| at(t))
            .min()
            .unwrap_or(SimTime::INFINITY)
    }
}

proptest! {
    /// Arbitrary reschedule sequences over a small id space (maximizing
    /// collisions), some steps compacted: after every reschedule the
    /// calendar reports the live minimum — never a stale instant —
    /// including after empty schedules mid-sequence.
    #[test]
    fn calendar_tracks_the_model_on_arbitrary_sequences(
        steps in prop::collection::vec(
            (prop::collection::vec((0u64..5, 0u64..200), 0..8), 0u8..2),
            1..30,
        )
    ) {
        let mut owner = Owner::default();
        for (step, (schedule, compact)) in steps.iter().enumerate() {
            owner.reschedule(schedule);
            if *compact == 1 {
                owner.compact();
                prop_assert_eq!(owner.cal.heap_len(), owner.live.len(), "step {}", step);
            }
            prop_assert_eq!(owner.next_completion(), owner.want(), "step {}", step);
            prop_assert!(owner.cal.heap_len() >= owner.live.len(), "step {}", step);
        }
    }

    /// One flow rescheduled to a fresh instant every step: the pathological
    /// case for lazy invalidation. The answer must stay exact at every
    /// prefix, and popping through the garbage at the end must terminate
    /// on an empty heap.
    #[test]
    fn repeated_invalidation_of_one_flow_stays_exact(
        instants in prop::collection::vec(0u64..10_000, 1..200)
    ) {
        let mut owner = Owner::default();
        for (step, &t) in instants.iter().enumerate() {
            owner.set(1, t);
            prop_assert_eq!(owner.next_completion(), at(t), "step {}", step);
        }
        // After validation the heap has shed every item that sorted ahead
        // of the live one; everything behind it may lazily remain.
        prop_assert!(owner.cal.heap_len() >= 1);
        owner.reschedule(&[]);
        prop_assert_eq!(owner.next_completion(), SimTime::INFINITY);
        prop_assert_eq!(owner.cal.heap_len(), 0, "draining pops all stale items");
    }

    /// Drain-to-zero churn: alternate between a schedule and emptiness.
    /// Emptiness must always answer `INFINITY` immediately, and refills
    /// must resurrect exact answers (including for ids seen before with
    /// different instants).
    #[test]
    fn drain_to_zero_and_refill(
        rounds in prop::collection::vec(
            prop::collection::vec((0u64..4, 0u64..100), 1..5),
            1..20,
        )
    ) {
        let mut owner = Owner::default();
        for (step, schedule) in rounds.iter().enumerate() {
            owner.reschedule(schedule);
            prop_assert_eq!(owner.next_completion(), owner.want(), "step {}", step);
            owner.reschedule(&[]);
            prop_assert_eq!(owner.next_completion(), SimTime::INFINITY, "step {}", step);
            prop_assert_eq!(owner.cal.heap_len(), 0, "step {}: drained heap is empty", step);
        }
    }
}

/// Every edit an owner makes, as a proptest value.
#[derive(Debug, Clone, Copy)]
enum DeltaOp {
    /// Open or move one flow's account.
    Set(u64, u64),
    /// Close one flow's account (an eviction or completion).
    Remove(u64),
    /// `CompletionCalendar::next_completion` — pop through stale garbage.
    Query,
    /// `CompletionCalendar::pop_due` — settle the flows due by an instant.
    PopDue(u64),
    /// `CompletionCalendar::compact` — drop every stale item at once.
    Compact,
}

fn delta_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        4 => (0u64..6, 0u64..300).prop_map(|(id, t)| DeltaOp::Set(id, t)),
        2 => (0u64..6).prop_map(DeltaOp::Remove),
        2 => Just(DeltaOp::Query),
        1 => (0u64..300).prop_map(DeltaOp::PopDue),
        1 => Just(DeltaOp::Compact),
    ]
}

proptest! {
    /// Adversarial interleaving of opens, closes, queries, due pops and
    /// compactions: after **every** operation the incrementally edited
    /// calendar agrees with a calendar freshly built from the model,
    /// `pop_due` returns exactly the due accounts once each, a compaction
    /// leaves exactly one item per live account, and popping both
    /// calendars to exhaustion yields the same `(instant, flow)` sequence.
    #[test]
    fn targeted_edits_agree_with_a_freshly_built_calendar(
        ops in prop::collection::vec(delta_op(), 1..120)
    ) {
        let mut owner = Owner::default();
        let fresh_of = |live: &HashMap<u64, u64>| {
            let mut fresh = Owner::default();
            for (&id, &t) in live {
                fresh.set(id, t);
            }
            fresh
        };
        for (step, &op) in ops.iter().enumerate() {
            match op {
                DeltaOp::Set(id, t) => owner.set(id, t),
                DeltaOp::Remove(id) => {
                    owner.live.remove(&id);
                }
                DeltaOp::Query => {
                    // Exercised below for every step; a standalone query
                    // also forces stale-top pops *between* edits.
                    let _ = owner.next_completion();
                }
                DeltaOp::PopDue(t) => {
                    let mut due: Vec<u64> = owner
                        .live
                        .iter()
                        .filter(|&(_, &at)| at <= t)
                        .map(|(&id, _)| id)
                        .collect();
                    due.sort_by_key(|&id| (owner.live[&id], id));
                    for want in due {
                        let live = &owner.live;
                        let popped = owner.cal.pop_due(at(t), |at_, flow, slot| {
                            flow.raw() as usize == slot
                                && live.get(&flow.raw()).map(|&t| at(t)) == Some(at_)
                        });
                        prop_assert_eq!(popped, Some((f(want), want as usize)), "step {}", step);
                        owner.live.remove(&want);
                    }
                    let live = &owner.live;
                    let popped = owner.cal.pop_due(at(t), |at_, flow, slot| {
                        flow.raw() as usize == slot
                            && live.get(&flow.raw()).map(|&t| at(t)) == Some(at_)
                    });
                    prop_assert_eq!(popped, None, "step {}: nothing else is due", step);
                }
                DeltaOp::Compact => {
                    owner.compact();
                    prop_assert_eq!(
                        owner.cal.heap_len(),
                        owner.live.len(),
                        "step {}: one item per live account",
                        step
                    );
                }
            }
            let mut fresh = fresh_of(&owner.live);
            prop_assert_eq!(
                owner.next_completion(),
                fresh.next_completion(),
                "step {}: minimum instant",
                step
            );
            prop_assert!(
                owner.cal.heap_len() >= owner.live.len(),
                "step {}: heap cannot undercount the live accounts",
                step
            );
        }
        // Drain both calendars to exhaustion in completion order: the
        // edited calendar must yield the identical sequence.
        let mut fresh = fresh_of(&owner.live);
        while !owner.live.is_empty() {
            let want = fresh.next_completion();
            prop_assert_eq!(owner.next_completion(), want, "drain: minimum");
            let id = *owner
                .live
                .iter()
                .filter(|&(_, &t)| at(t) == want)
                .map(|(id, _)| id)
                .min()
                .expect("minimum comes from the model");
            owner.live.remove(&id);
            fresh.live.remove(&id);
        }
        prop_assert_eq!(owner.next_completion(), SimTime::INFINITY);
        prop_assert_eq!(owner.cal.heap_len(), 0, "full drain pops all garbage");
    }

    /// The allocator owns the calendar in the engine: through arbitrary
    /// reschedules (entrants, leavers, due completions) it stays
    /// consistent, an unchanged re-apply pushes nothing, and an empty
    /// schedule drains the calendar to nothing.
    #[test]
    fn allocator_reapply_pushes_nothing_and_drains_to_empty(
        steps in prop::collection::vec(
            (prop::collection::vec(0u64..8, 0..6), 1u64..40, 1usize..4),
            1..20,
        )
    ) {
        let mut alloc = DeltaAllocator::new(Rate::from_gbps(10.0));
        let mut now = SimTime::ZERO;
        for (step, (lanes, micros, repeats)) in steps.iter().enumerate() {
            // Lane `k` is VOQ `k → k + 8`, in slot `k`; each step's flows
            // are fresh ids (a completed flow never returns), so a lane
            // kept across steps is a preemption on the same VOQ.
            let mut seen = [false; 8];
            let selected: Vec<(FlowId, Voq, u32)> = lanes
                .iter()
                .filter(|&&k| !std::mem::replace(&mut seen[k as usize], true))
                .map(|&k| {
                    let voq = Voq::new(HostId::new(k as u32), HostId::new(k as u32 + 8));
                    (f(step as u64 * 8 + k), voq, k as u32)
                })
                .collect();
            // Each flow's table slot is its id: there is no table here.
            let admit = |id: FlowId| (FlowSlot::new(id.raw() as usize), 1_250 * (id.raw() % 13 + 1));
            alloc.apply(now, &mut selected.clone(), admit, |_| {});
            alloc.check_consistent().map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
            let pushed = alloc.calendar_len();
            let next = alloc.next_completion();
            for _ in 0..*repeats {
                let d = alloc.apply(now, &mut selected.clone(), admit, |_| {});
                prop_assert_eq!(d.entered + d.left, 0, "step {}", step);
            }
            prop_assert!(alloc.calendar_len() <= pushed, "step {}: re-apply pushed", step);
            prop_assert_eq!(alloc.next_completion(), next, "step {}", step);
            // Let time pass and settle whatever completes.
            now = SimTime::from_secs(now.as_secs() + *micros as f64 * 1e-6);
            alloc.settle_due(now, |_| {});
            alloc.check_consistent().map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
        }
        alloc.apply(now, &mut Vec::new(), |_| unreachable!(), |_| {});
        prop_assert_eq!(alloc.next_completion(), SimTime::INFINITY);
        prop_assert_eq!(alloc.calendar_len(), 0, "an empty schedule drains the calendar");
    }
}

/// Deterministic worst case outside proptest: N reschedules of one flow to
/// strictly earlier instants each time — every stale item sorts *behind*
/// the live one, so `next_completion` keeps O(1) peeks while `heap_len`
/// records the garbage, all popped in one terminal drain.
#[test]
fn monotonically_earlier_reschedules_accumulate_then_drain() {
    let mut owner = Owner::default();
    let n = 500u64;
    for i in 0..n {
        owner.set(7, 10_000 - i);
        assert_eq!(owner.next_completion(), at(10_000 - i));
    }
    assert_eq!(owner.cal.heap_len() as u64, n, "every stale item is queued");
    owner.reschedule(&[]);
    assert_eq!(owner.next_completion(), SimTime::INFINITY);
    assert_eq!(owner.cal.heap_len(), 0);
}
