//! Delta-rate rescheduling with lazy exact settlement: per-event work
//! proportional to the flows whose allocation actually changed — not to
//! every scheduled flow, and not even one touch per scheduled flow.
//!
//! On every arrival and completion the paper's update rule recomputes the
//! crossbar matching from scratch. The *schedule* must be recomputed — the
//! discipline's ranking is global — but the *rate allocation* it implies
//! usually barely moves: in steady state a reschedule keeps almost every
//! previously selected flow transmitting at the same (line) rate, and only
//! the flows sharing a bottleneck port with the triggering arrival or
//! completion — the affected frontier — enter or leave the transmitting
//! set. Two generations of this engine chipped at the per-event cost:
//!
//! * the seed engine re-bound the whole allocation on every decision
//!   (rebuilt the carry map, the entry vector, and the calendar's live
//!   map): `O(n)` hash work per event even when nothing changed;
//! * the PR 6 `DeltaAllocator` kept the binding alive and made the
//!   *calendar* work `O(Δ log n)`, but still stamped, hash-probed, and
//!   copied every kept flow per `apply` — and still *settled* every
//!   scheduled flow's byte account on every event, an `O(n)` table sweep
//!   that dominated once calendar churn was gone.
//!
//! This generation removes both linear terms:
//!
//! * [`apply`](DeltaAllocator::apply) **adopts** the schedule's own pair
//!   list as its selection, copying no pair, and diffs it against the
//!   previous one **positionally**: the common prefix and suffix of
//!   identical `(flow, VOQ, slot)` triples match with one comparison
//!   each, zero hash probes. The middle window between them is not small
//!   — an entrant and the flow it displaces usually sit far apart in the
//!   admission order, so on the paper fabric it averages 31.2 of 73.6
//!   selected pairs — but it is classified without hashing: each pair
//!   carries its VOQ slot, a pair is kept iff that slot holds its flow's
//!   account, and the old window's leavers are the live pairs a per-slot
//!   generation stamp did not re-mark;
//! * settlement is **lazy**: a scheduled flow's byte account is converted
//!   into table drains only when the flow is *observed* — its own
//!   completion ([`settle_due`](DeltaAllocator::settle_due)), its
//!   eviction (inside `apply`), a sample instant or the horizon
//!   ([`settle`](DeltaAllocator::settle)), or a snapshot. Between
//!   observations the account is the pair (drain epoch, settled bytes),
//!   and every conversion settles through the account's own
//!   `ScheduledEntry::settle` (see [`crate::settle`]), so the
//!   drains a flow reports always sum to exactly the bytes its epochs
//!   owed: `arrived == delivered + leftover` holds bit-for-bit at every
//!   observation point (`tests/support/battery.rs` asserts it at every
//!   sample of every invariant-battery run).
//!
//! Schedulers that decide from per-VOQ views cannot read the (stale)
//! table directly in lazy mode; [`DeltaAllocator::live_views`] lends them
//! a [`ViewAdjust`] lens that subtracts each VOQ's unsettled bytes on the
//! fly — one indexed read per VOQ, by the table's dense VOQ slot
//! ([`VoqView::slot`]), no hashing — reproducing exactly the views an
//! eagerly settled table would have served (same champion, same
//! tie-breaks). Disciplines opt in via
//! [`Scheduler::supports_lazy_views`](basrpt_core::Scheduler::supports_lazy_views);
//! everything else (and every run under a per-flow-fidelity probe) takes
//! the eager path, which settles every account on every event exactly
//! like the reference engines.
//!
//! The lens moves the key of every transmitting VOQ between two
//! decisions, but only in the safe direction for the disciplines whose
//! keys fall as they transmit (SRPT, RepFlow, fast BASRPT with
//! `V/N ≥ 1`): the greedy matching is the unique one in which every
//! unmatched candidate has an earlier matched neighbour, and falling
//! matched keys keep it so. Those disciplines carry the previous
//! *matching* ([`basrpt_core::Ranking`]) and, behind a certificate,
//! repair it around the VOQs the table changed. Every bound account drains
//! at the allocator's one rate, so the lens reports a drain clock
//! ([`ViewAdjust::clock`]) and the certificate orders the matched VOQs
//! nothing touched without reading them. The lens names the matched VOQs
//! that clock does not cover ([`ViewAdjust::off_clock_slots`]): the pairs
//! of the last schedule the core filter withheld, which stay idle, and
//! which the certificate reads as if a mutation had touched them.
//! `PERFMODEL.md` has the full cost model.
//!
//! The full-recompute binding survives as [`crate::reference`] and the
//! differential suite (`tests/delta_differential.rs`) pins both engines
//! bit-identical.

use crate::calendar::CompletionCalendar;
use crate::repflow::plane_of;
use crate::settle::{ScheduledEntry, SettledDrain};
use crate::topology::Topology;
use basrpt_core::{FlowSlot, ViewAdjust, VoqView};
use dcn_types::{FlowId, PlaneId, Rate, SimTime, Voq};
use std::collections::HashSet;

/// The allocation delta of one [`DeltaAllocator::apply`] call: how many
/// flows entered, left, and kept their rate across the reschedule.
///
/// `entered + kept` is the size of the new schedule; `left` counts flows
/// of the previous schedule that lost their ports (completed flows are
/// accounted by [`DeltaAllocator::settle_due`] /
/// [`DeltaAllocator::settle`], not here). Only `entered` and `left` — the
/// affected frontier — cost calendar work; a kept flow costs one
/// comparison at the matched ends, or one slot read and stamp inside the
/// changed window, which on the paper fabric holds 31.2 of 73.6 pairs on
/// average, mostly kept flows whose position shifted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaOutcome {
    /// Flows newly admitted into the transmitting set (fresh drain epoch,
    /// one calendar push each).
    pub entered: u64,
    /// Flows of the previous schedule that lost their ports (settled to
    /// the reschedule instant and evicted; their calendar items go stale).
    pub left: u64,
    /// Flows that stayed scheduled: epoch, byte account, and calendar
    /// item all untouched.
    pub kept: u64,
}

/// Cumulative [`DeltaOutcome`] totals across a run, plus the reschedule
/// count — the observability hook proving the delta property end-to-end
/// (`kept` should dwarf `entered + left` in steady state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Number of [`DeltaAllocator::apply`] calls.
    pub reschedules: u64,
    /// Total flows that entered the transmitting set.
    pub entered: u64,
    /// Total flows evicted by a reschedule (not by completing).
    pub left: u64,
    /// Total stay-scheduled decisions (zero-cost per flow).
    pub kept: u64,
}

/// Persistent, incrementally maintained binding of schedules to drain
/// state and completion instants — the delta-rate rescheduling engine
/// with lazy exact settlement.
///
/// Feed it the matching produced by any `Scheduler` after every event
/// ([`apply`](DeltaAllocator::apply)); between events it answers "when
/// does the next scheduled flow complete?" in `O(1)`
/// ([`next_completion`](DeltaAllocator::next_completion)), settles only
/// the flows owed a completion ([`settle_due`](DeltaAllocator::settle_due))
/// or, at observation points, every account
/// ([`settle`](DeltaAllocator::settle)) — in schedule-priority order
/// either way, exactly as the eager reference engines emit drains. Flows
/// that stay scheduled across an `apply` cost a comparison or a slot
/// read, never a hash; only the allocation delta touches the calendar.
/// The production
/// [`simulate`](crate::simulate) event loop is a thin driver around this
/// type.
///
/// # Example
///
/// ```
/// use basrpt_core::FlowSlot;
/// use dcn_fabric::DeltaAllocator;
/// use dcn_types::{FlowId, HostId, Rate, SimTime, Voq};
///
/// let voq = |s, d| Voq::new(HostId::new(s), HostId::new(d));
/// let mut alloc = DeltaAllocator::new(Rate::from_gbps(10.0));
///
/// // Two flows admitted at t = 0: 1.25 MB completes after exactly 1 ms.
/// // Each pair names its VOQ's table slot (`VoqView::slot`); here flow 1's
/// // VOQ is slot 0, flow 2's slot 1. An entrant reports its own table slot
/// // (`FlowTable::slot_of`; here each flow's id) and its remaining bytes.
/// // The allocator adopts the list and hands back its previous one (empty).
/// let matching = vec![(FlowId::new(1), voq(0, 1), 0), (FlowId::new(2), voq(2, 3), 1)];
/// let mut selected = matching.clone();
/// let delta = alloc.apply(
///     SimTime::ZERO,
///     &mut selected,
///     |id| {
///         let size = if id == FlowId::new(1) { 1_250_000 } else { 5_000_000 };
///         (FlowSlot::new(id.raw() as usize), size)
///     },
///     |_| unreachable!("nothing scheduled before, so nothing is evicted"),
/// );
/// assert_eq!((delta.entered, delta.left, delta.kept), (2, 0, 0));
/// assert!(selected.is_empty());
/// assert_eq!(alloc.next_completion(), SimTime::from_millis(1.0));
///
/// // Re-applying the same matching is free: the whole selection matches
/// // positionally, so nothing is hashed, entered, or evicted.
/// let mut selected = matching.clone();
/// let delta = alloc.apply(
///     SimTime::ZERO,
///     &mut selected,
///     |_| unreachable!("no flow entered, so no remaining size is read"),
///     |_| unreachable!("no flow left, so nothing is evicted"),
/// );
/// assert_eq!((delta.entered, delta.left, delta.kept), (0, 0, 2));
///
/// // Settle the due completion: flow 1 drains its 1.25 MB and is gone —
/// // flow 2's account is not even looked at.
/// let mut drained = Vec::new();
/// let completed = alloc.settle_due(SimTime::from_millis(1.0), |d| {
///     drained.push((d.flow, d.amount, d.completed));
/// });
/// assert!(completed);
/// assert_eq!(drained, vec![(FlowId::new(1), 1_250_000, true)]);
/// assert_eq!(alloc.len(), 1);
/// ```
#[derive(Debug)]
pub struct DeltaAllocator {
    rate: Rate,
    calendar: CompletionCalendar,
    /// Byte accounts of the live scheduled flows, indexed by their VOQ's
    /// table slot ([`VoqView::slot`]): a crossbar matching schedules at
    /// most one flow per VOQ, so the
    /// [`live_views`](DeltaAllocator::live_views) lens resolves each VOQ's
    /// unsettled bytes with one indexed read. The only record of which
    /// flows are scheduled.
    by_slot: Vec<Option<ScheduledEntry>>,
    /// The adopted selection in priority order, each pair with its VOQ's
    /// slot — what `apply` diffs the next selection against, and the
    /// order every settlement path emits drains in. A pair is live iff
    /// its slot holds its flow's account; the others are *tombstones* of
    /// flows that completed after this selection was applied.
    sel: Vec<(FlowId, Voq, u32)>,
    /// The pairs of the last schedule that the core filter withheld from
    /// [`apply`](DeltaAllocator::apply), each with its VOQ slot, in
    /// priority order: matched but idle, so the
    /// [`live_views`](DeltaAllocator::live_views) lens names them. Empty
    /// for a caller that binds whole schedules.
    pub(crate) withheld: Vec<(FlowId, Voq, u32)>,
    /// The number of bound accounts (`Some` entries of `by_slot`).
    bound: usize,
    /// `apply`'s working state, reused so a reschedule allocates nothing
    /// once warm: per VOQ slot, the generation of the last `apply` that
    /// re-selected the flow bound there; that generation; and the
    /// entrants waiting for the leavers' slots.
    stamps: Vec<u32>,
    generation: u32,
    entrants: Vec<(usize, ScheduledEntry)>,
    stats: DeltaStats,
}

impl DeltaAllocator {
    /// An empty allocator whose scheduled flows drain at `rate` (the edge
    /// line rate under the one-big-switch abstraction).
    pub fn new(rate: Rate) -> Self {
        DeltaAllocator {
            rate,
            calendar: CompletionCalendar::new(),
            by_slot: Vec::new(),
            sel: Vec::new(),
            withheld: Vec::new(),
            bound: 0,
            stamps: Vec::new(),
            generation: 0,
            entrants: Vec::new(),
            stats: DeltaStats::default(),
        }
    }

    /// Number of currently scheduled flows.
    pub fn len(&self) -> usize {
        self.bound
    }

    /// Whether no flow is currently scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative delta statistics since construction.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// The earliest completion instant among scheduled flows, or
    /// [`SimTime::INFINITY`] when none is scheduled. Amortized `O(1)`.
    pub fn next_completion(&mut self) -> SimTime {
        self.calendar.next_completion(bound_at(&self.by_slot))
    }

    /// Number of completion-calendar items, stale ones included
    /// (diagnostics: a reschedule that opens no epoch pushes none).
    pub fn calendar_len(&self) -> usize {
        self.calendar.heap_len()
    }

    /// Rebinds the allocator to a new schedule, computed at instant `now`,
    /// and returns the allocation delta.
    ///
    /// `selected` is the matching in priority order, each pair with its
    /// VOQ's table slot ([`basrpt_core::Schedule::into_slotted`], or
    /// [`basrpt_core::FlowTable::voq_slot`]); each flow and each VOQ must
    /// appear at most once (a [`basrpt_core::Schedule`] guarantees both).
    /// The allocator adopts the list as its selection and leaves its
    /// previous selection in `selected`'s place, so no pair is copied.
    /// Flows already scheduled keep their drain epoch and calendar item
    /// untouched; flows entering open a fresh epoch at `now` over the
    /// remaining bytes `admit(flow)` reports with the flow's table slot
    /// (read lazily, only for entrants), bound to their VOQ slot; flows of
    /// the previous schedule not
    /// re-selected are settled to `now` — any bytes they transmitted since
    /// their last observation are reported through `on_evict`, never
    /// completing one (a due completion must be settled before
    /// rescheduling) — and evicted. Leavers are evicted before entrants
    /// bind, so an entrant preempting a leaver on the same VOQ takes over
    /// its slot only after the leaver's bytes are accounted.
    ///
    /// Cost: the matched prefix and suffix of the previous selection pay
    /// one comparison each; each pair of the middle window pays one
    /// indexed read of its VOQ slot and one generation stamp, with no
    /// hashing; only the `Δ` entrants and leavers pay calendar work,
    /// `O(Δ log n)`. The window is not small: an entrant and the flow it
    /// displaces usually sit far apart in the admission order, and on the
    /// paper fabric the window averages 31.2 of 73.6 selected pairs.
    pub fn apply(
        &mut self,
        now: SimTime,
        selected: &mut Vec<(FlowId, Voq, u32)>,
        mut admit: impl FnMut(FlowId) -> (FlowSlot, u64),
        mut on_evict: impl FnMut(SettledDrain),
    ) -> DeltaOutcome {
        std::mem::swap(&mut self.sel, selected);
        let old = &*selected;
        let n_old = old.len();
        let n_new = self.sel.len();

        // Matched ends. A pair can only match a pair of the *same* flow,
        // and a completed flow cannot reappear in a fresh schedule (it
        // left the flow table), so matched pairs are always live kept
        // flows — tombstones and every entrant/leaver/mover land in the
        // middle window by construction. A windowed flow that is still
        // scheduled must also sit in the old window (it cannot occupy a
        // matched position of the old selection without duplicating a
        // pair), so the two windows are self-contained.
        let limit = n_old.min(n_new);
        let mut lo = 0;
        while lo < limit && old[lo] == self.sel[lo] {
            lo += 1;
        }
        let mut hi = 0;
        while hi < limit - lo && old[n_old - 1 - hi] == self.sel[n_new - 1 - hi] {
            hi += 1;
        }

        let mut out = DeltaOutcome {
            kept: (lo + hi) as u64,
            ..DeltaOutcome::default()
        };

        // New-side window: a pair whose VOQ slot holds its flow's account
        // is a kept flow that merely moved (it sits in the old window, as
        // above) and is stamped as re-selected; any other pair is an
        // entrant that opens an epoch in its slot once the leavers are
        // gone.
        if self.generation == u32::MAX {
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        if self.stamps.len() < self.by_slot.len() {
            self.stamps.resize(self.by_slot.len(), 0);
        }
        for &(id, _, slot) in &self.sel[lo..n_new - hi] {
            let slot = slot as usize;
            if account_of(&self.by_slot, slot, id).is_some() {
                self.stamps[slot] = self.generation;
                out.kept += 1;
            } else {
                let (at, remaining) = admit(id);
                let entry = ScheduledEntry::new(id, at, now, remaining, self.rate);
                self.entrants.push((slot, entry));
            }
        }

        // Old-side window, in priority order: its live pairs that were not
        // stamped were not re-selected; tombstones (slot no longer holding
        // their flow) are swept for free. Leavers settle to `now` so the
        // bytes they moved while scheduled are never lost — in eager mode
        // every account was settled this instant already, so the owed
        // amount is zero and no drain fires — and free their VOQ slot for
        // an entrant.
        for &(id, _, slot) in &old[lo..n_old - hi] {
            let slot = slot as usize;
            if account_of(&self.by_slot, slot, id).is_none() || self.stamps[slot] == self.generation
            {
                continue;
            }
            let mut entry = self.by_slot[slot]
                .take()
                .expect("a live pair's VOQ slot holds its entry");
            self.bound -= 1;
            if let Some(drain) = entry.settle(now) {
                debug_assert!(
                    !drain.completed,
                    "a due completion must settle before the reschedule evicts it"
                );
                on_evict(drain);
            }
            out.left += 1;
        }

        let mut entrants = std::mem::take(&mut self.entrants);
        out.entered = entrants.len() as u64;
        for (slot, entry) in entrants.drain(..) {
            self.bind(slot, entry);
        }
        self.entrants = entrants;

        self.stats.reschedules += 1;
        self.stats.entered += out.entered;
        self.stats.left += out.left;
        self.stats.kept += out.kept;
        out
    }

    /// Binds a live entry to its (free) VOQ slot and enters its
    /// completion instant in the calendar.
    fn bind(&mut self, slot: usize, entry: ScheduledEntry) {
        if slot >= self.by_slot.len() {
            self.by_slot.resize(slot + 1, None);
        }
        debug_assert!(
            self.by_slot[slot].is_none(),
            "a matching schedules at most one flow per VOQ"
        );
        self.calendar.push(entry.completes_at, entry.flow, slot);
        self.by_slot[slot] = Some(entry);
        self.bound += 1;
    }

    /// Settles the byte account bound in VOQ slot `slot` at instant `t`,
    /// evicting it first if the settlement completes it.
    fn settle_slot(&mut self, slot: usize, t: SimTime, on_drain: &mut impl FnMut(SettledDrain)) {
        let entry = self.by_slot[slot]
            .as_mut()
            .expect("a scheduled flow's VOQ slot holds its entry");
        let Some(drain) = entry.settle(t) else {
            return;
        };
        if drain.completed {
            self.by_slot[slot] = None;
            self.bound -= 1;
        }
        on_drain(drain);
    }

    /// Settles exactly the flows owed a completion at instant `t` — the
    /// lazy engine's per-event settlement. Usually that is one flow (the
    /// completion that woke the event loop), popped from the calendar in
    /// amortized `O(log n)`; simultaneous completions (rare byte-exact
    /// ties) are re-ordered into schedule priority before their callbacks
    /// run, so the drain stream is emitted exactly as the eager path
    /// would. Every other scheduled flow's account is untouched. Returns
    /// whether any flow completed.
    pub fn settle_due(&mut self, t: SimTime, mut on_drain: impl FnMut(SettledDrain)) -> bool {
        let Some(first) = self.calendar.pop_due(t, bound_at(&self.by_slot)) else {
            return false;
        };
        match self.calendar.pop_due(t, bound_at(&self.by_slot)) {
            None => {
                // The common case: one completion, zero touches elsewhere.
                self.settle_slot(first.1, t, &mut on_drain);
            }
            Some(second) => {
                // The calendar returns each due account once, so the tie
                // set is a short list of distinct `(flow, slot)` pairs.
                let mut due = vec![first, second];
                while let Some(next) = self.calendar.pop_due(t, bound_at(&self.by_slot)) {
                    due.push(next);
                }
                let ordered: Vec<usize> = self
                    .sel
                    .iter()
                    .filter_map(|&(id, _, _)| due.iter().find(|d| d.0 == id).map(|d| d.1))
                    .collect();
                debug_assert_eq!(ordered.len(), due.len());
                for slot in ordered {
                    self.settle_slot(slot, t, &mut on_drain);
                }
            }
        }
        true
    }

    /// Settles every scheduled flow's byte account at instant `t`,
    /// invoking `on_drain` once per flow that owes bytes — in schedule
    /// priority order, exactly as the reference engine emits drains.
    /// Completing flows are evicted from the allocator (and calendar)
    /// before their callback runs. Returns whether any flow completed.
    ///
    /// This is the *observation* settlement: the eager mode runs it on
    /// every event; the lazy mode only at sample instants, the horizon,
    /// and snapshots, where per-flow exactness is demanded all at once.
    pub fn settle(&mut self, t: SimTime, mut on_drain: impl FnMut(SettledDrain)) -> bool {
        let mut completed_any = false;
        // `settle_slot` mutates the entries but never `sel`, so the walk
        // over a clone-free snapshot of the priority order is sound; the
        // explicit index keeps the borrow checker out of the closure.
        for i in 0..self.sel.len() {
            let (id, _, slot) = self.sel[i];
            let slot = slot as usize;
            if account_of(&self.by_slot, slot, id).is_none() {
                continue; // completion tombstone
            }
            self.settle_slot(slot, t, &mut |d| {
                completed_any |= d.completed;
                on_drain(d);
            });
        }
        completed_any
    }

    /// A [`ViewAdjust`] lens over this allocator's unsettled bytes at
    /// instant `now`: adjusting a [`VoqView`] subtracts the VOQ's
    /// scheduled flow's unsettled drain from the backlog and re-derives
    /// the champion under the table's exact `(remaining, id)` tie-break,
    /// so a scheduler deciding from adjusted views sees precisely the
    /// views an eagerly settled table would serve. One indexed read per
    /// VOQ, by [`VoqView::slot`]: the views must come from the table whose
    /// slots [`apply`](DeltaAllocator::apply) was given. Its clock covers
    /// every pair `apply` bound, so a caller must bind the whole schedule;
    /// the engines' core filter records the pairs it withholds, and the
    /// lens names them ([`ViewAdjust::off_clock_slots`]).
    pub fn live_views(&self, now: SimTime) -> LiveViews<'_> {
        LiveViews { alloc: self, now }
    }

    /// The live scheduled entries in priority order — the allocator's half
    /// of an engine snapshot ([`crate::OnlineFabric::snapshot`]).
    /// Tombstones of completions that have settled but not yet been swept
    /// by the next [`apply`](DeltaAllocator::apply) are excluded.
    pub(crate) fn snapshot_entries(&self) -> Vec<ScheduledEntry> {
        self.sel
            .iter()
            .filter_map(|&(id, _, slot)| account_of(&self.by_slot, slot as usize, id).copied())
            .collect()
    }

    /// Rebuilds an allocator from snapshotted live entries (in priority
    /// order), each with its flow's VOQ and that VOQ's slot in the
    /// restored table, and
    /// cumulative stats. The selection, index, and calendar are
    /// reconstructed from the entries' exact accounts, so a restored
    /// allocator settles, completes, and reschedules bit-for-bit like the
    /// one that was snapshotted. The caller checks that flows and slots
    /// are each unique.
    pub(crate) fn restore(
        rate: Rate,
        entries: impl IntoIterator<Item = (ScheduledEntry, Voq, usize)>,
        stats: DeltaStats,
    ) -> Self {
        let mut alloc = DeltaAllocator::new(rate);
        alloc.stats = stats;
        for (entry, voq, slot) in entries {
            alloc.sel.push((entry.flow, voq, slot as u32));
            alloc.bind(slot, entry);
        }
        alloc
    }

    /// Consistency check: the selection's live pairs cover every
    /// slot-indexed entry exactly once, in priority order, and the
    /// calendar answers their earliest instant. Linear; intended for
    /// tests.
    pub fn check_consistent(&mut self) -> Result<(), String> {
        let mut seen = HashSet::new();
        let mut want = SimTime::INFINITY;
        for &(id, _, slot) in &self.sel {
            let Some(entry) = account_of(&self.by_slot, slot as usize, id) else {
                continue; // completion tombstone
            };
            if !seen.insert(id) {
                return Err(format!("flow {id} appears twice in the selection"));
            }
            if entry.settled > entry.epoch_remaining {
                return Err(format!("flow {id} settled beyond its epoch"));
            }
            want = want.min(entry.completes_at);
        }
        let live = self.by_slot.iter().flatten().count();
        if seen.len() != live || self.bound != live {
            return Err(format!(
                "selection covers {} live flows and {} are counted, but {live} are live",
                seen.len(),
                self.bound
            ));
        }
        let got = self.next_completion();
        if got != want {
            return Err(format!(
                "calendar answers {got:?}, live minimum is {want:?}"
            ));
        }
        Ok(())
    }
}

/// The account bound in VOQ slot `slot`, if it is `flow`'s: the one
/// liveness test for selection pairs and calendar items alike.
fn account_of(
    by_slot: &[Option<ScheduledEntry>],
    slot: usize,
    flow: FlowId,
) -> Option<&ScheduledEntry> {
    by_slot.get(slot)?.as_ref().filter(|e| e.flow == flow)
}

/// The calendar's liveness check against the slot-indexed accounts: an
/// item is live iff its slot still holds its flow's account, completing
/// at its instant.
fn bound_at(by_slot: &[Option<ScheduledEntry>]) -> impl Fn(SimTime, FlowId, usize) -> bool + '_ {
    move |at, flow, slot| account_of(by_slot, slot, flow).is_some_and(|e| e.completes_at == at)
}

/// The settlement-adjusting view lens lent by
/// [`DeltaAllocator::live_views`]: corrects each [`VoqView`] for the
/// bytes its scheduled flow has transmitted but not yet settled into the
/// table, reproducing the exact views of an eagerly settled table.
#[derive(Debug, Clone, Copy)]
pub struct LiveViews<'a> {
    alloc: &'a DeltaAllocator,
    now: SimTime,
}

impl ViewAdjust for LiveViews<'_> {
    /// The lens corrects exactly the VOQs with a bound account.
    fn adjust(&self, view: &mut VoqView) {
        let Some(Some(entry)) = self.alloc.by_slot.get(view.slot()) else {
            return; // no flow of this VOQ is transmitting
        };
        let flow = entry.flow;
        let target = entry.target_at(self.now);
        let owed = target - entry.settled;
        if owed == 0 {
            return;
        }
        view.backlog -= owed;
        let live = entry.epoch_remaining - target;
        debug_assert!(live > 0, "due completions settle before views are read");
        if view.shortest_flow == flow {
            // The champion itself drained: smaller key, still champion
            // (no other flow of the VOQ moved).
            view.shortest_remaining -= owed;
        } else if (live, flow) < (view.shortest_remaining, view.shortest_flow) {
            // The transmitting flow's live remaining now beats the stored
            // champion under the table's exact (remaining, id) tie-break.
            view.shortest_flow = flow;
            view.shortest_remaining = live;
        }
    }

    /// The pairs of the previous schedule that the core filter withheld:
    /// matched, but idle while the clock runs.
    fn off_clock_slots(&self, visit: &mut dyn FnMut(usize)) {
        for &(_, _, slot) in &self.alloc.withheld {
            visit(slot as usize);
        }
    }

    /// Every bound account drains at the allocator's one rate from its own
    /// epoch, owing the settlement's truncated bytes
    /// (`ScheduledEntry::target_at`); the bound accounts are the previous
    /// schedule's pairs the core filter admitted.
    fn clock(&self) -> Option<f64> {
        Some(self.alloc.rate.bytes_per_sec() * self.now.as_secs())
    }
}

/// The core-capacity admission filter, with persistent scratch state
/// reused across events so the hot path never allocates.
///
/// Filters a schedule (in priority order) down to the flows the core layer
/// can carry: intra-rack flows always pass; an inter-rack flow rides one
/// core plane — [`plane_of`] its id, the deterministic stand-in for ECMP's
/// five-tuple hash — and consumes `edge_rate` of its source rack's uplink
/// and destination rack's downlink budget *on that plane* (each plane
/// carries `uplink / planes`), and is skipped once either is exhausted.
/// The aggregate filter is the one-plane case: every flow rides plane 0
/// with the whole uplink budget. The residual budgets stay charged until
/// the next [`filter`](CoreBudgets::filter), so replicas of the rejected
/// flows can ride what is left through [`admit`](CoreBudgets::admit).
#[derive(Debug)]
pub(crate) struct CoreBudgets {
    edge: f64,
    /// Budget of one plane: `rack_uplink_capacity / planes`.
    plane_cap: f64,
    planes: u32,
    /// `rack * planes + plane` → bytes/second charged this decision.
    up_used: Vec<f64>,
    down_used: Vec<f64>,
}

impl CoreBudgets {
    /// The filter of `topo`'s per-rack capacity split over `planes`
    /// independent core planes (1 for the aggregate filter).
    pub(crate) fn new<T: Topology + ?Sized>(topo: &T, planes: u32) -> Self {
        let cells = topo.num_racks() as usize * planes as usize;
        CoreBudgets {
            edge: topo.edge_rate().bytes_per_sec(),
            plane_cap: topo.rack_uplink_capacity().bytes_per_sec() / f64::from(planes),
            planes,
            up_used: vec![0.0; cells],
            down_used: vec![0.0; cells],
        }
    }

    /// Filters `selected` (in priority order) in place under the per-plane
    /// rack budgets, keeping the admitted pairs in their order and moving
    /// the rejected ones into `rejected`, in their order; `pair` reads a
    /// selected item's flow and VOQ, so any extra fields (the allocator's
    /// VOQ slots) pass through.
    pub(crate) fn filter<T: Topology + ?Sized, P: Copy>(
        &mut self,
        topo: &T,
        selected: &mut Vec<P>,
        rejected: &mut Vec<P>,
        pair: impl Fn(&P) -> (FlowId, Voq),
    ) {
        self.up_used.fill(0.0);
        self.down_used.fill(0.0);
        rejected.clear();
        selected.retain(|item| {
            let (id, voq) = pair(item);
            let admitted = topo.is_intra_rack(voq) || {
                let plane = match self.planes {
                    1 => PlaneId::new(0),
                    planes => plane_of(id, planes),
                };
                self.admit(topo, voq, plane)
            };
            if !admitted {
                rejected.push(*item);
            }
            admitted
        });
    }

    /// Admits one inter-rack flow on `voq` onto `plane` if both its rack
    /// budgets there have room, charging them on success.
    pub(crate) fn admit<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        voq: Voq,
        plane: PlaneId,
    ) -> bool {
        let planes = self.planes as usize;
        let up = topo.rack_of(voq.src()).as_usize() * planes + plane.as_usize();
        let down = topo.rack_of(voq.dst()).as_usize() * planes + plane.as_usize();
        // Tolerance absorbs f64 accumulation when the budget divides evenly.
        if self.up_used[up] + self.edge <= self.plane_cap * (1.0 + 1e-9)
            && self.down_used[down] + self.edge <= self.plane_cap * (1.0 + 1e-9)
        {
            self.up_used[up] += self.edge;
            self.down_used[down] += self.edge;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FatTree;
    use dcn_types::HostId;

    fn f(id: u64) -> FlowId {
        FlowId::new(id)
    }

    fn voq(s: u32, d: u32) -> Voq {
        Voq::new(HostId::new(s), HostId::new(d))
    }

    fn gbps10() -> Rate {
        Rate::from_gbps(10.0)
    }

    fn no_evict(d: SettledDrain) {
        panic!("unexpected eviction drain: {d:?}");
    }

    /// A VOQ's slot in tests that run without a flow table: unique per
    /// host pair, as a table's slots are.
    fn slot(q: Voq) -> usize {
        q.src().as_usize() * 16 + q.dst().as_usize()
    }

    /// A flow's table slot in tests that run without a flow table: unique
    /// per flow.
    fn fslot(id: FlowId) -> FlowSlot {
        FlowSlot::new(id.raw() as usize)
    }

    /// [`DeltaAllocator::apply`] with each pair's VOQ slot taken from
    /// [`slot`], and each entrant's flow slot from [`fslot`] and its
    /// remaining bytes from `size`.
    fn apply(
        alloc: &mut DeltaAllocator,
        now: SimTime,
        selected: Vec<(FlowId, Voq)>,
        size: impl Fn(FlowId) -> u64,
        on_evict: impl FnMut(SettledDrain),
    ) -> DeltaOutcome {
        let mut selected: Vec<_> = selected
            .into_iter()
            .map(|(id, q)| (id, q, slot(q) as u32))
            .collect();
        alloc.apply(now, &mut selected, |id| (fslot(id), size(id)), on_evict)
    }

    #[test]
    fn entrants_open_epochs_and_leavers_are_evicted() {
        let mut alloc = DeltaAllocator::new(gbps10());
        let d = apply(
            &mut alloc,
            SimTime::ZERO,
            vec![(f(1), voq(0, 1)), (f(2), voq(2, 3))],
            |_| 1_250_000,
            no_evict,
        );
        assert_eq!((d.entered, d.left, d.kept), (2, 0, 0));
        alloc.check_consistent().unwrap();

        // Flow 2 is preempted by flow 3; flow 1 stays. The leaver settles
        // its 10 µs of line-rate bytes (12 500) on the way out.
        let mut evicted = Vec::new();
        let d = apply(
            &mut alloc,
            SimTime::from_micros(10.0),
            vec![(f(1), voq(0, 1)), (f(3), voq(2, 4))],
            |id| {
                assert_eq!(id, f(3), "remaining read only for entrants");
                2_500_000
            },
            |drain| evicted.push(drain),
        );
        assert_eq!((d.entered, d.left, d.kept), (1, 1, 1));
        assert_eq!(
            evicted,
            vec![SettledDrain {
                flow: f(2),
                slot: fslot(f(2)),
                amount: 12_500,
                completed: false,
            }]
        );
        assert_eq!(alloc.len(), 2);
        alloc.check_consistent().unwrap();
        // Flow 1's epoch survived: it still completes at its original
        // 1 ms instant, not 1 ms after the second apply.
        assert_eq!(alloc.next_completion(), SimTime::from_millis(1.0));
    }

    #[test]
    fn stays_cost_no_calendar_work() {
        let mut alloc = DeltaAllocator::new(gbps10());
        let sched = vec![(f(1), voq(0, 1)), (f(2), voq(2, 3))];
        apply(
            &mut alloc,
            SimTime::ZERO,
            sched.clone(),
            |_| 10_000_000,
            no_evict,
        );
        let stats_before = alloc.stats();
        for _ in 0..50 {
            let d = apply(
                &mut alloc,
                SimTime::ZERO,
                sched.clone(),
                |_| unreachable!(),
                no_evict,
            );
            assert_eq!((d.entered, d.left, d.kept), (0, 0, 2));
        }
        let stats = alloc.stats();
        assert_eq!(stats.entered, stats_before.entered);
        assert_eq!(stats.left, stats_before.left);
        assert_eq!(stats.reschedules, stats_before.reschedules + 50);
        alloc.check_consistent().unwrap();
    }

    #[test]
    fn settle_reports_exact_drains_in_priority_order() {
        let mut alloc = DeltaAllocator::new(gbps10());
        // 1250 bytes = 1 µs at 10 Gbps; flow 2 is 10× longer.
        apply(
            &mut alloc,
            SimTime::ZERO,
            vec![(f(2), voq(2, 3)), (f(1), voq(0, 1))],
            |id| if id == f(1) { 1_250 } else { 12_500 },
            no_evict,
        );
        let mut seen = Vec::new();
        let completed = alloc.settle(SimTime::from_micros(1.0), |d| seen.push(d));
        assert!(completed);
        // Priority order preserved: flow 2 (listed first) settles first.
        assert_eq!(seen[0].flow, f(2));
        assert_eq!(seen[0].amount, 1_250);
        assert!(!seen[0].completed);
        assert_eq!(seen[1].flow, f(1));
        assert_eq!(seen[1].amount, 1_250);
        assert!(seen[1].completed);
        assert_eq!(alloc.len(), 1);
        alloc.check_consistent().unwrap();

        // Nothing more is owed at the same instant.
        let completed = alloc.settle(SimTime::from_micros(1.0), |_| panic!("no bytes owed"));
        assert!(!completed);
    }

    #[test]
    fn settle_due_touches_only_the_completing_flow() {
        let mut alloc = DeltaAllocator::new(gbps10());
        apply(
            &mut alloc,
            SimTime::ZERO,
            vec![(f(2), voq(2, 3)), (f(1), voq(0, 1))],
            |id| if id == f(1) { 1_250 } else { 12_500 },
            no_evict,
        );
        // Before the completion instant there is nothing due.
        assert!(!alloc.settle_due(SimTime::from_micros(0.5), |_| panic!("nothing due")));

        let mut seen = Vec::new();
        assert!(alloc.settle_due(SimTime::from_micros(1.0), |d| seen.push(d)));
        assert_eq!(
            seen,
            vec![SettledDrain {
                flow: f(1),
                slot: fslot(f(1)),
                amount: 1_250,
                completed: true,
            }],
            "only the due flow settles; flow 2's account is untouched"
        );
        assert_eq!(alloc.len(), 1);

        // Flow 2's unsettled progress is still fully recoverable: a full
        // settlement at 10 µs reports all 10 µs of bytes in one drain.
        let mut seen = Vec::new();
        alloc.settle(SimTime::from_micros(10.0), |d| seen.push(d));
        assert_eq!(
            seen,
            vec![SettledDrain {
                flow: f(2),
                slot: fslot(f(2)),
                amount: 12_500,
                completed: true,
            }]
        );
        alloc.check_consistent().unwrap();
    }

    #[test]
    fn simultaneous_due_completions_settle_in_priority_order() {
        let mut alloc = DeltaAllocator::new(gbps10());
        // Three identical sizes complete at the same instant; priority
        // order (the order applied) must be preserved in the callbacks,
        // not the calendar's id-order pops.
        apply(
            &mut alloc,
            SimTime::ZERO,
            vec![(f(3), voq(4, 5)), (f(1), voq(0, 1)), (f(2), voq(2, 3))],
            |_| 1_250,
            no_evict,
        );
        let mut order = Vec::new();
        assert!(alloc.settle_due(SimTime::from_micros(1.0), |d| {
            assert!(d.completed);
            order.push(d.flow);
        }));
        assert_eq!(order, vec![f(3), f(1), f(2)]);
        assert!(alloc.is_empty());
        alloc.check_consistent().unwrap();
    }

    #[test]
    fn returning_flow_opens_a_fresh_epoch() {
        let mut alloc = DeltaAllocator::new(gbps10());
        apply(
            &mut alloc,
            SimTime::ZERO,
            vec![(f(1), voq(0, 1))],
            |_| 12_500_000,
            no_evict,
        ); // 10 ms
        alloc.settle(SimTime::from_millis(1.0), |_| {});
        // Preempted at 1 ms with 9 ms of bytes left (already settled, so
        // the eviction owes nothing)…
        let d = apply(
            &mut alloc,
            SimTime::from_millis(1.0),
            vec![(f(2), voq(0, 2))],
            |_| 2_500_000,
            no_evict,
        );
        assert_eq!((d.entered, d.left), (1, 1));
        // …and re-admitted at 2 ms: completion is 2 ms + 9 ms, a fresh
        // epoch over the *current* remaining bytes. Flow 2 ran unsettled
        // for 1 ms, so its eviction owes exactly that drain.
        let mut evicted = Vec::new();
        let d = apply(
            &mut alloc,
            SimTime::from_millis(2.0),
            vec![(f(1), voq(0, 1))],
            |id| {
                assert_eq!(id, f(1));
                11_250_000
            },
            |drain| evicted.push(drain),
        );
        assert_eq!((d.entered, d.left), (1, 1));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].flow, f(2));
        assert_eq!(evicted[0].amount, 1_250_000);
        assert!(!evicted[0].completed);
        assert_eq!(alloc.next_completion(), SimTime::from_millis(11.0));
        alloc.check_consistent().unwrap();
    }

    #[test]
    fn readmission_onto_a_stale_instant_completes_once() {
        let mut alloc = DeltaAllocator::new(gbps10());
        let sched = vec![(f(1), voq(0, 1))];
        // Admitted, evicted and re-admitted at the same instant over the
        // same bytes: the new epoch's calendar item equals the stale one.
        apply(
            &mut alloc,
            SimTime::ZERO,
            sched.clone(),
            |_| 1_250,
            no_evict,
        );
        let d = apply(
            &mut alloc,
            SimTime::ZERO,
            vec![],
            |_| unreachable!(),
            no_evict,
        );
        assert_eq!(d.left, 1);
        let d = apply(&mut alloc, SimTime::ZERO, sched, |_| 1_250, no_evict);
        assert_eq!(d.entered, 1);
        assert_eq!(alloc.calendar_len(), 2, "the stale twin is still queued");
        alloc.check_consistent().unwrap();

        let mut drains = Vec::new();
        assert!(alloc.settle_due(SimTime::from_micros(1.0), |d| drains.push(d)));
        assert_eq!(
            drains,
            vec![SettledDrain {
                flow: f(1),
                slot: fslot(f(1)),
                amount: 1_250,
                completed: true,
            }],
            "settled and completed exactly once"
        );
        assert!(alloc.is_empty());
        assert!(!alloc.settle_due(SimTime::from_micros(2.0), |d| drains.push(d)));
        assert_eq!(drains.len(), 1);
        assert_eq!(alloc.next_completion(), SimTime::INFINITY);
        assert_eq!(alloc.calendar_len(), 0);
    }

    #[test]
    fn same_voq_preemption_keeps_the_voq_index_bound() {
        use basrpt_core::{FlowState, FlowTable};

        // Two flows between the same host pair: the shorter preempts the
        // longer on the SAME VOQ, so both bind the same VOQ slot. `apply`
        // evicts the leaver (settling what it owes) before the entrant
        // binds the slot, so the entrant's account replaces the leaver's
        // only once the leaver's bytes are accounted.
        let mut table = FlowTable::new();
        let q = voq(0, 1);
        table.insert(FlowState::new(f(1), q, 1_250_000)).unwrap();
        table.insert(FlowState::new(f(2), q, 1_250)).unwrap();
        let mut alloc = DeltaAllocator::new(gbps10());
        let admit = |id| {
            let at = table.slot_of(id).unwrap();
            (at, table.get_at(at, id).unwrap().remaining())
        };
        let s = table.voq_slot(q).unwrap() as u32;
        alloc.apply(SimTime::ZERO, &mut vec![(f(1), q, s)], admit, no_evict);
        let mut evicted = Vec::new();
        alloc.apply(
            SimTime::from_micros(1.0),
            &mut vec![(f(2), q, s)],
            admit,
            |d| evicted.push(d),
        );
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].flow, f(1));
        assert_eq!(evicted[0].amount, 1_250);
        alloc.check_consistent().unwrap();
        let out = evicted[0];
        table.drain_at(out.slot, out.flow, out.amount).unwrap();

        // Right after the preemption the VOQ's view lens reads the
        // entrant's account: half a microsecond in, flow 2 owes 625 bytes
        // (the leaver's would be 1 875 and no longer exists).
        let mut view = table.voq_view(q).unwrap();
        alloc
            .live_views(SimTime::from_micros(1.5))
            .adjust(&mut view);
        assert_eq!(view.backlog, 1_248_750 + 1_250 - 625);
        assert_eq!(view.shortest_flow, f(2));
        assert_eq!(view.shortest_remaining, 625);

        // The entrant is still reachable through the VOQ index: its
        // completion settles normally.
        let mut done = Vec::new();
        assert!(alloc.settle_due(SimTime::from_micros(2.0), |d| done.push(d)));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].flow, f(2));
        assert!(done[0].completed);
        assert!(alloc.is_empty());
        alloc.check_consistent().unwrap();
    }

    #[test]
    fn slot_window_preempts_and_returns_on_the_same_voq() {
        // Flow 2 holds the middle VOQ (2,3); flow 9 preempts it there, then
        // flow 2 returns. Each time the window's entrant and leaver share
        // one VOQ slot: the leaver is told apart from a kept flow by the
        // slot holding another flow's account, and settles first.
        let mut alloc = DeltaAllocator::new(gbps10());
        let (a, b, c) = ((f(1), voq(0, 1)), (f(2), voq(2, 3)), (f(3), voq(4, 5)));
        apply(
            &mut alloc,
            SimTime::ZERO,
            vec![a, b, c],
            |_| 1 << 30,
            no_evict,
        );
        let mut evicted = Vec::new();
        let d = apply(
            &mut alloc,
            SimTime::from_micros(1.0),
            vec![a, (f(9), voq(2, 3)), c],
            |id| {
                assert_eq!(id, f(9));
                1 << 20
            },
            |drain| evicted.push(drain),
        );
        assert_eq!((d.entered, d.left, d.kept), (1, 1, 2));
        assert_eq!(evicted.len(), 1);
        assert_eq!((evicted[0].flow, evicted[0].amount), (f(2), 1_250));
        alloc.check_consistent().unwrap();

        evicted.clear();
        let d = apply(
            &mut alloc,
            SimTime::from_micros(2.0),
            vec![a, b, c],
            |id| {
                assert_eq!(id, f(2));
                (1 << 30) - 1_250
            },
            |drain| evicted.push(drain),
        );
        assert_eq!((d.entered, d.left, d.kept), (1, 1, 2));
        assert_eq!((evicted[0].flow, evicted[0].amount), (f(9), 1_250));
        assert_eq!(alloc.len(), 3);
        alloc.check_consistent().unwrap();
    }

    #[test]
    fn tombstone_then_readmission_on_its_slot() {
        // Flow 2 completes and leaves a tombstone in the middle of the
        // selection; the next selection moves flow 3 past it and admits
        // flow 7 on the tombstone's VOQ slot.
        let mut alloc = DeltaAllocator::new(gbps10());
        let (a, b, c) = ((f(1), voq(0, 1)), (f(2), voq(2, 3)), (f(3), voq(4, 5)));
        apply(
            &mut alloc,
            SimTime::ZERO,
            vec![a, b, c],
            |id| if id == f(2) { 1_250 } else { 1 << 30 },
            no_evict,
        );
        assert!(alloc.settle_due(SimTime::from_micros(1.0), |d| {
            assert_eq!((d.flow, d.completed), (f(2), true));
        }));
        assert_eq!(alloc.len(), 2);
        let d = apply(
            &mut alloc,
            SimTime::from_micros(1.0),
            vec![a, c, (f(7), voq(2, 3))],
            |id| {
                assert_eq!(id, f(7), "only the re-admission reads its size");
                2_500
            },
            no_evict,
        );
        assert_eq!((d.entered, d.left, d.kept), (1, 0, 2));
        alloc.check_consistent().unwrap();
        assert_eq!(alloc.next_completion(), SimTime::from_micros(3.0));
    }

    #[test]
    fn empty_apply_evicts_everything() {
        let mut alloc = DeltaAllocator::new(gbps10());
        apply(
            &mut alloc,
            SimTime::ZERO,
            vec![(f(1), voq(0, 1)), (f(2), voq(2, 3))],
            |_| 1_000,
            no_evict,
        );
        let d = apply(
            &mut alloc,
            SimTime::ZERO,
            vec![],
            |_| unreachable!(),
            no_evict,
        );
        assert_eq!((d.entered, d.left, d.kept), (0, 2, 0));
        assert!(alloc.is_empty());
        assert_eq!(alloc.next_completion(), SimTime::INFINITY);
        alloc.check_consistent().unwrap();
    }

    #[test]
    fn positional_shift_after_a_completion_stays_cheap() {
        let mut alloc = DeltaAllocator::new(gbps10());
        // Flow 1 completes first; the tail of the selection shifts by one
        // position but matches suffix-wise, so the re-apply without flow 1
        // is all kept flows, no entrants, no leavers.
        apply(
            &mut alloc,
            SimTime::ZERO,
            vec![(f(1), voq(0, 1)), (f(2), voq(2, 3)), (f(3), voq(4, 5))],
            |id| if id == f(1) { 1_250 } else { 12_500 },
            no_evict,
        );
        assert!(alloc.settle_due(SimTime::from_micros(1.0), |d| assert_eq!(d.flow, f(1))));
        let d = apply(
            &mut alloc,
            SimTime::from_micros(1.0),
            vec![(f(2), voq(2, 3)), (f(3), voq(4, 5))],
            |_| unreachable!("both flows stay scheduled"),
            no_evict,
        );
        assert_eq!((d.entered, d.left, d.kept), (0, 0, 2));
        alloc.check_consistent().unwrap();
    }

    #[test]
    fn live_views_adjusts_backlog_and_champion_exactly() {
        use basrpt_core::{FlowState, FlowTable};

        let mut table = FlowTable::new();
        let q = voq(0, 1);
        // Flow 1 transmits (12 500 bytes); flow 2 waits with 5 000.
        table.insert(FlowState::new(f(1), q, 12_500)).unwrap();
        table.insert(FlowState::new(f(2), q, 5_000)).unwrap();
        let mut alloc = DeltaAllocator::new(gbps10());
        let s = table.voq_slot(q).unwrap() as u32;
        let admit = |id| (table.slot_of(id).unwrap(), 12_500);
        alloc.apply(SimTime::ZERO, &mut vec![(f(1), q, s)], admit, no_evict);

        let view_at = |table: &FlowTable, alloc: &DeltaAllocator, t: SimTime| {
            let mut view = table.voqs().next().unwrap();
            alloc.live_views(t).adjust(&mut view);
            view
        };

        // A bound VOQ that owes nothing yet, and a VOQ without a bound
        // account, pass through unchanged.
        let mut view = table.voq_view(q).unwrap();
        alloc.live_views(SimTime::ZERO).adjust(&mut view);
        assert_eq!(view, table.voq_view(q).unwrap());
        let mut other = table.clone();
        other.insert(FlowState::new(f(3), voq(2, 3), 100)).unwrap();
        let mut view = other.voq_view(voq(2, 3)).unwrap();
        alloc
            .live_views(SimTime::from_micros(7.0))
            .adjust(&mut view);
        assert_eq!(view, other.voq_view(voq(2, 3)).unwrap());

        // 2 µs in: flow 1 has moved 2 500 unsettled bytes. Its live
        // remaining (10 000) still loses to flow 2's 5 000.
        let v = view_at(&table, &alloc, SimTime::from_micros(2.0));
        assert_eq!(v.backlog, 15_000);
        assert_eq!(v.shortest_flow, f(2));
        assert_eq!(v.shortest_remaining, 5_000);

        // 7 µs in: flow 1's live remaining (3 750) now beats flow 2 —
        // the lens must hand the champion over.
        let v = view_at(&table, &alloc, SimTime::from_micros(7.0));
        assert_eq!(v.backlog, 8_750);
        assert_eq!(v.shortest_flow, f(1));
        assert_eq!(v.shortest_remaining, 3_750);

        // After settling, the adjusted view and the raw view agree: the
        // lens is exactly "the table as if settled".
        let mut drained = 0;
        alloc.settle(SimTime::from_micros(7.0), |d| {
            table.drain_at(d.slot, d.flow, d.amount).unwrap();
            drained += d.amount;
        });
        assert_eq!(drained, 8_750);
        let raw = table.voqs().next().unwrap();
        let v = view_at(&table, &alloc, SimTime::from_micros(7.0));
        assert_eq!(v.backlog, raw.backlog);
        assert_eq!(v.shortest_flow, raw.shortest_flow);
        assert_eq!(v.shortest_remaining, raw.shortest_remaining);
    }

    #[test]
    fn live_views_names_exactly_the_withheld_pairs() {
        use crate::online::{AllocationPolicy, Crossbar};
        use basrpt_core::{FlowState, FlowTable, Srpt};
        use dcn_probe::NoProbe;

        // 2 racks × 8 hosts, 1 core: at most 4 inter-rack flows per rack
        // direction. SRPT matches all eight cross-rack flows, shortest
        // first, and the filter rejects the last four.
        let topo = FatTree::scaled(2, 8, 1).unwrap();
        let mut table = FlowTable::new();
        for i in 0..8 {
            let flow = FlowState::new(f(i), voq(i as u32, 8 + i as u32), 1_000 + i);
            table.insert(flow).unwrap();
        }
        let slot_of = |i: u32| table.voq_slot(voq(i, 8 + i)).unwrap();
        for (enforce_core, withheld) in [(true, 4..8), (false, 0..0)] {
            let mut srpt = Srpt::new();
            let mut policy = Crossbar::new(&topo, &mut srpt, enforce_core, 1);
            let mut out = Vec::new();
            policy.reschedule(&topo, SimTime::ZERO, &table, true, &mut NoProbe, &mut out);
            let mut named = Vec::new();
            policy
                .alloc
                .live_views(SimTime::from_micros(1.0))
                .off_clock_slots(&mut |s| named.push(s));
            let want: Vec<usize> = withheld.map(slot_of).collect();
            assert_eq!(named, want, "enforce_core = {enforce_core}");
            assert_eq!(policy.alloc.len(), 8 - want.len());
        }
    }

    #[test]
    fn live_views_honors_the_id_tie_break() {
        use basrpt_core::{FlowState, FlowTable};

        let mut table = FlowTable::new();
        let q = voq(0, 1);
        // Flow 5 transmits; flow 2 waits. After 1 µs (1 250 bytes) flow
        // 5's live remaining exactly ties flow 2's — and the lens must
        // keep flow 2, the smaller id, exactly as a settled table would.
        table.insert(FlowState::new(f(5), q, 5_000)).unwrap();
        table.insert(FlowState::new(f(2), q, 3_750)).unwrap();
        let mut alloc = DeltaAllocator::new(gbps10());
        let s = table.voq_slot(q).unwrap() as u32;
        let admit = |id| (table.slot_of(id).unwrap(), 5_000);
        alloc.apply(SimTime::ZERO, &mut vec![(f(5), q, s)], admit, no_evict);

        let mut view = table.voqs().next().unwrap();
        assert_eq!(view.shortest_flow, f(2));
        alloc
            .live_views(SimTime::from_micros(1.0))
            .adjust(&mut view);
        assert_eq!(view.shortest_flow, f(2), "equal remaining: smaller id wins");
        assert_eq!(view.shortest_remaining, 3_750);
        assert_eq!(view.backlog, 8_750 - 1_250);

        // A hair later the transmitting flow is strictly shorter and
        // takes the championship over.
        let mut view = table.voqs().next().unwrap();
        alloc
            .live_views(SimTime::from_micros(1.6))
            .adjust(&mut view);
        assert_eq!(view.shortest_flow, f(5));
        assert_eq!(view.shortest_remaining, 3_000);
    }

    #[test]
    fn core_budgets_match_the_reference_filter() {
        // 2 racks × 8 hosts, 1 core: at most 4 inter-rack flows per rack
        // direction (40 Gbps uplink / 10 Gbps edge).
        let topo = FatTree::scaled(2, 8, 1).unwrap();
        assert!(!topo.is_full_bisection());
        let selected: Vec<(FlowId, Voq)> = (0..8)
            .map(|i| (f(i), voq(i as u32, 8 + i as u32)))
            .collect();
        let mut budgets = CoreBudgets::new(&topo, 1);
        let mut got = selected.clone();
        let mut rejected = Vec::new();
        budgets.filter(&topo, &mut got, &mut rejected, |&p| p);
        assert_eq!(got.len(), 4, "one 40 Gbps uplink carries 4 edge flows");
        assert_eq!(&got[..], &selected[..4], "priority order preserved");
        assert_eq!(&rejected[..], &selected[4..]);
        // Intra-rack flows pass even with the core budget exhausted.
        let mut got = selected.clone();
        got.push((f(99), voq(0, 1)));
        budgets.filter(&topo, &mut got, &mut rejected, |&p| p);
        assert_eq!(got.len(), 5);
        assert_eq!(got[4], (f(99), voq(0, 1)));
    }
}
