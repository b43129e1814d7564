//! The completion calendar: a lazily invalidated binary min-heap over the
//! scheduled flows' completion instants.
//!
//! The event loop needs "when does the next scheduled flow complete?" on
//! every wakeup. The seed engine answered that with a linear rescan of all
//! scheduled flows (a division per flow per wakeup — `O(n)` even when the
//! wakeup is just a sample point). The calendar answers it from a binary
//! heap of `(completion instant, flow, slot)` items.
//!
//! The calendar stores no live set of its own. Each transmitting flow's
//! drain account (`ScheduledEntry`) is the only place its completion
//! instant lives; the `slot` of an item names where the owner keeps that
//! account. There are two owners: the [`crate::DeltaAllocator`] of the
//! crossbar engines, whose slot is the VOQ slot, and the fair-share
//! policy, whose slot is the flow's allocator key. The owner pushes one
//! item whenever an account opens a new epoch and never deletes one: a
//! closed, moved or completed account simply stops matching its old items.
//! [`next_completion`](CompletionCalendar::next_completion) and
//! [`pop_due`](CompletionCalendar::pop_due) take the owner's check — "is
//! this slot still bound to this flow, completing at this instant?" — and
//! pop stale tops until a live item, or an empty heap, remains.
//!
//! Every item is pushed once and popped at most once, so the amortized
//! cost per schedule change is `O(log n)` and a wakeup between schedule
//! changes costs `O(1)` (a peek at an already-validated top). A flow that
//! stays scheduled across a reschedule keeps its item untouched.
//!
//! A stale item that sorts behind the live minimum stays until a pop
//! reaches it. Under fair share every re-rating of a long flow leaves one
//! far in the future, so stale items can outnumber the live ones for
//! milliseconds; [`compact`](CompletionCalendar::compact) drops them all at
//! once, and the fair-share policy calls it whenever the heap holds more
//! than twice its live flows plus 32 items.
//!
//! The calendar stores instants, not flow state: exact drain accounting
//! (which instant a flow completes at) is the engine's job — see
//! `engine.rs` — and the calendar never re-derives completion times.

use dcn_types::{FlowId, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A calendar of flow-completion instants, lazily invalidated against the
/// owner's drain accounts.
///
/// `is_live(at, flow, slot)` is the owner's answer to "does `slot` still
/// hold `flow`'s account, completing at `at`?"; every query takes it.
///
/// # Example
///
/// ```
/// use dcn_fabric::CompletionCalendar;
/// use dcn_types::{FlowId, SimTime};
///
/// // The owner's accounts: the flow and instant bound in each slot.
/// let mut accounts = vec![
///     Some((FlowId::new(1), SimTime::from_millis(3.0))),
///     Some((FlowId::new(2), SimTime::from_millis(1.0))),
/// ];
/// let mut cal = CompletionCalendar::new();
/// cal.push(SimTime::from_millis(3.0), FlowId::new(1), 0);
/// cal.push(SimTime::from_millis(1.0), FlowId::new(2), 1);
/// let next = cal.next_completion(|at, flow, slot| accounts[slot] == Some((flow, at)));
/// assert_eq!(next, SimTime::from_millis(1.0));
///
/// // Flow 2 leaves its slot: its item goes stale and is skipped.
/// accounts[1] = None;
/// let next = cal.next_completion(|at, flow, slot| accounts[slot] == Some((flow, at)));
/// assert_eq!(next, SimTime::from_millis(3.0));
/// assert_eq!(cal.heap_len(), 1, "the stale top was popped");
/// ```
#[derive(Debug, Default)]
pub struct CompletionCalendar {
    /// Min-heap of `(instant, flow, slot)` items, possibly stale.
    heap: BinaryHeap<Reverse<(SimTime, FlowId, usize)>>,
}

impl CompletionCalendar {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        CompletionCalendar::default()
    }

    /// Number of heap items, including stale ones awaiting lazy removal
    /// (diagnostics).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Records that the account in `slot` now holds `flow`, completing at
    /// `at` — one push, `O(log n)`. Call it once per opened epoch; an
    /// unchanged account needs no push.
    pub fn push(&mut self, at: SimTime, flow: FlowId, slot: usize) {
        self.heap.push(Reverse((at, flow, slot)));
    }

    /// The earliest live completion instant, or [`SimTime::INFINITY`] when
    /// no item is live. Amortized `O(1)`: stale heap tops are popped here,
    /// each at most once over the calendar's lifetime.
    pub fn next_completion(&mut self, is_live: impl Fn(SimTime, FlowId, usize) -> bool) -> SimTime {
        while let Some(&Reverse((at, flow, slot))) = self.heap.peek() {
            if is_live(at, flow, slot) {
                return at;
            }
            self.heap.pop();
        }
        SimTime::INFINITY
    }

    /// Pops the earliest live item whose instant is at or before `now`,
    /// returning its flow and slot, or `None` if the earliest live instant
    /// is still in the future (or no item is live). This is the lazy
    /// engine's due-settlement primitive: at a completion wakeup it pops
    /// exactly the flows owed a completion — usually one — without
    /// touching any other item. Identical copies of the popped item (an
    /// account that closed and reopened onto the same instant) are popped
    /// with it, so each due account is returned once. Amortized `O(log n)`
    /// per popped flow.
    ///
    /// Ties on the instant pop in ascending flow-id order; callers that
    /// need a different tie order (the engine settles ties in schedule
    /// priority order) collect the tie set first.
    ///
    /// # Example
    ///
    /// ```
    /// use dcn_fabric::CompletionCalendar;
    /// use dcn_types::{FlowId, SimTime};
    ///
    /// let mut cal = CompletionCalendar::new();
    /// cal.push(SimTime::from_millis(3.0), FlowId::new(1), 0);
    /// cal.push(SimTime::from_millis(1.0), FlowId::new(2), 1);
    /// let live = |_, _, _| true;
    /// let now = SimTime::from_millis(2.0);
    /// assert_eq!(cal.pop_due(now, live), Some((FlowId::new(2), 1)));
    /// assert_eq!(cal.pop_due(now, live), None);
    /// assert_eq!(cal.next_completion(live), SimTime::from_millis(3.0));
    /// ```
    pub fn pop_due(
        &mut self,
        now: SimTime,
        is_live: impl Fn(SimTime, FlowId, usize) -> bool,
    ) -> Option<(FlowId, usize)> {
        let at = self.next_completion(&is_live);
        if at > now {
            return None;
        }
        let Reverse(item) = self.heap.pop()?;
        while self.heap.peek() == Some(&Reverse(item)) {
            self.heap.pop();
        }
        Some((item.1, item.2))
    }

    /// Drops every stale item, and every copy of a live item but one, so
    /// the heap holds exactly one item per live account. `O(n log n)` in
    /// the heap's items; an owner whose stale items can outlive many
    /// pushes (a re-rated flow's far-future instant, which no pop reaches
    /// soon) calls it once they outnumber the live accounts, which keeps
    /// the heap within a constant factor of them at `O(log n)` amortized
    /// per push.
    ///
    /// # Example
    ///
    /// ```
    /// use dcn_fabric::CompletionCalendar;
    /// use dcn_types::{FlowId, SimTime};
    ///
    /// let mut cal = CompletionCalendar::new();
    /// // Flow 1's account moves from 9 ms to 2 ms: the 9 ms item goes
    /// // stale behind the live one, where no pop reaches it.
    /// cal.push(SimTime::from_millis(9.0), FlowId::new(1), 0);
    /// cal.push(SimTime::from_millis(2.0), FlowId::new(1), 0);
    /// let live = |at, _, _| at == SimTime::from_millis(2.0);
    /// assert_eq!(cal.next_completion(live), SimTime::from_millis(2.0));
    /// assert_eq!(cal.heap_len(), 2);
    /// cal.compact(live);
    /// assert_eq!(cal.heap_len(), 1);
    /// ```
    pub fn compact(&mut self, is_live: impl Fn(SimTime, FlowId, usize) -> bool) {
        let mut items = std::mem::take(&mut self.heap).into_vec();
        items.retain(|&Reverse((at, flow, slot))| is_live(at, flow, slot));
        items.sort_unstable();
        items.dedup();
        self.heap = BinaryHeap::from(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn f(id: u64) -> FlowId {
        FlowId::new(id)
    }

    fn ms(v: f64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// An owner model: the live instant per slot (each flow in its own
    /// slot, slot = flow id), pushed on every change like the allocator.
    #[derive(Default)]
    struct Owner {
        cal: CompletionCalendar,
        live: BTreeMap<usize, SimTime>,
    }

    impl Owner {
        fn set(&mut self, id: u64, at: SimTime) {
            if self.live.insert(id as usize, at) != Some(at) {
                self.cal.push(at, f(id), id as usize);
            }
        }

        fn next(&mut self) -> SimTime {
            let live = &self.live;
            self.cal.next_completion(|at, flow, slot| {
                flow.raw() as usize == slot && live.get(&slot) == Some(&at)
            })
        }

        fn pop_due(&mut self, now: SimTime) -> Option<FlowId> {
            let live = &self.live;
            let (flow, slot) = self.cal.pop_due(now, |at, flow, slot| {
                flow.raw() as usize == slot && live.get(&slot) == Some(&at)
            })?;
            self.live.remove(&slot);
            Some(flow)
        }
    }

    #[test]
    fn empty_calendar_never_completes() {
        let mut owner = Owner::default();
        assert_eq!(owner.next(), SimTime::INFINITY);
        assert_eq!(owner.pop_due(ms(100.0)), None);
    }

    #[test]
    fn reports_minimum_instant_and_drops_stale_items_lazily() {
        let mut owner = Owner::default();
        owner.set(1, ms(5.0));
        owner.set(2, ms(2.0));
        owner.set(3, ms(9.0));
        assert_eq!(owner.next(), ms(2.0));
        // Peeking is idempotent.
        assert_eq!(owner.next(), ms(2.0));
        // Flow 2 leaves: its item is stale until looked past.
        owner.live.remove(&2);
        assert_eq!(owner.cal.heap_len(), 3);
        assert_eq!(owner.next(), ms(5.0));
        assert_eq!(owner.cal.heap_len(), 2);
        // A moved instant supersedes the old item, earlier or later.
        owner.set(1, ms(7.0));
        assert_eq!(owner.next(), ms(7.0));
        owner.set(1, ms(3.0));
        assert_eq!(owner.next(), ms(3.0));
    }

    #[test]
    fn pop_due_drains_exactly_the_due_set() {
        let mut owner = Owner::default();
        owner.set(1, ms(5.0));
        owner.set(2, ms(2.0));
        owner.set(3, ms(2.0));
        // Nothing due before the earliest instant.
        assert_eq!(owner.pop_due(ms(1.0)), None);
        // Ties pop in ascending flow-id order.
        assert_eq!(owner.pop_due(ms(2.0)), Some(f(2)));
        assert_eq!(owner.pop_due(ms(2.0)), Some(f(3)));
        assert_eq!(owner.pop_due(ms(2.0)), None);
        assert_eq!(owner.next(), ms(5.0));
        // Stale items (a superseded instant) are skipped, not returned.
        owner.set(1, ms(9.0));
        assert_eq!(owner.pop_due(ms(5.0)), None);
        assert_eq!(owner.pop_due(ms(9.0)), Some(f(1)));
        assert_eq!(owner.pop_due(ms(100.0)), None);
        assert_eq!(owner.cal.heap_len(), 0);
    }

    #[test]
    fn identical_items_pop_once() {
        // An account that closes and reopens onto the same instant leaves
        // a stale item equal to the live one: both validate, one pop.
        let mut cal = CompletionCalendar::new();
        cal.push(ms(1.0), f(4), 0);
        cal.push(ms(1.0), f(4), 0);
        cal.push(ms(1.0), f(5), 1);
        let live = |_, _, _| true;
        assert_eq!(cal.pop_due(ms(1.0), live), Some((f(4), 0)));
        assert_eq!(cal.pop_due(ms(1.0), live), Some((f(5), 1)));
        assert_eq!(cal.pop_due(ms(1.0), live), None);
        assert_eq!(cal.heap_len(), 0);
    }
}
