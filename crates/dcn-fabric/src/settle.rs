//! Lazy exact settlement: shared drain arithmetic and mode selection.
//!
//! Every transmitting flow in the fabric engines is accounted by an
//! *epoch*: the instant its current rate was assigned (`epoch`), the
//! bytes it still owed then (`epoch_remaining`), and the analytic
//! completion instant `epoch + epoch_remaining / rate`. Cumulative
//! progress inside an epoch is always derived the same way — one
//! [`Rate::bytes_in`] conversion of `t - epoch`, capped at the epoch's
//! remaining bytes — so however many times an entry is observed, the
//! bytes it reports sum to exactly the bytes the epoch owed. That single
//! conversion is what makes settlement *exact*: `arrived == delivered +
//! leftover` holds bit-for-bit at every observation point, eager or lazy.
//!
//! [`ScheduledEntry`] is that account and owns that arithmetic:
//! [`ScheduledEntry::target_at`] is the conversion and
//! [`ScheduledEntry::settle`] turns it into the bytes owed since the last
//! settlement ([`SettledDrain`]). The matching engine's delta allocator,
//! the fair-share engine and RepFlow's replica copies all keep their
//! accounts in it, so the accounting paths cannot drift apart.
//!
//! [`SettleMode`] is the policy layer: *when* the engine converts
//! scheduled time into table bytes. Eager settlement converts on every
//! event (the historical behaviour, and what per-flow observers need);
//! lazy settlement converts only at observation points — a flow's own
//! rate change, completion, or eviction, a sample instant, the horizon,
//! or a snapshot — leaving untouched flows untouched, which is what
//! makes the event loop O(Δ) per event.

use basrpt_core::FlowSlot;
use dcn_types::{Bytes, FlowId, Rate, SimTime};

/// When the fabric engines convert scheduled transmission time into
/// settled table bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleMode {
    /// Settle every scheduled flow on every event. This is the reference
    /// behaviour: per-flow drain observers see every byte as it moves,
    /// at O(n) table work per event.
    Eager,
    /// Settle a flow only when it is observed (its own completion, rate
    /// change or eviction, a sample instant, the horizon, a snapshot).
    /// Aggregate observables are bit-identical to [`SettleMode::Eager`];
    /// per-event cost drops to O(Δ log n).
    Lazy,
}

impl SettleMode {
    /// Picks the settlement mode for a run: lazy exactly when nothing
    /// observes per-flow progress between samples — the attached probe
    /// does not request flow fidelity and the scheduler can decide from
    /// settlement-adjusted VOQ views. A lazy-capable configuration runs
    /// eager under a flow-fidelity probe, with bit-identical output.
    ///
    /// ```
    /// use dcn_fabric::SettleMode;
    ///
    /// // A fidelity probe (per-flow drain stream) forces eager.
    /// assert_eq!(SettleMode::choose(true, true), SettleMode::Eager);
    /// // A scheduler that must read ground-truth tables forces eager.
    /// assert_eq!(SettleMode::choose(false, false), SettleMode::Eager);
    /// // Otherwise the engine runs lazy.
    /// assert_eq!(SettleMode::choose(false, true), SettleMode::Lazy);
    /// ```
    pub fn choose(wants_flow_fidelity: bool, supports_lazy_views: bool) -> SettleMode {
        if wants_flow_fidelity || !supports_lazy_views {
            SettleMode::Eager
        } else {
            SettleMode::Lazy
        }
    }

    /// Whether this is [`SettleMode::Lazy`].
    pub fn is_lazy(self) -> bool {
        matches!(self, SettleMode::Lazy)
    }
}

/// One settled drain: the bytes a flow's drain account owed since its
/// last settlement, reported by the engines' settlement paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettledDrain {
    /// The draining flow.
    pub flow: FlowId,
    /// Its table slot, which reaches it with no lookup
    /// ([`basrpt_core::FlowTable::drain_at`], whose outcome also names
    /// its VOQ).
    pub slot: FlowSlot,
    /// Bytes newly owed since the last settlement (> 0).
    pub amount: u64,
    /// Whether this drain exhausts the epoch, whose bytes are the flow's
    /// remaining bytes: the flow completes. The engine has already
    /// dropped the account when the drain is applied.
    pub completed: bool,
}

/// Drain-accounting state of one transmitting flow.
///
/// A transmitting flow drains at its allocated `rate` (the edge line rate
/// for a crossbar matching, a max-min fair share otherwise) from the
/// instant that rate was assigned — its **epoch** — until it completes, is
/// descheduled, or is re-rated. All byte arithmetic is anchored at the
/// epoch: at any event instant `t`, the cumulative bytes owed are derived
/// **once** from the total elapsed time `t - epoch` via [`Rate::bytes_in`]
/// (one floor), and the per-event drain is the integer difference against
/// what has already been settled. Increments therefore sum exactly — no
/// per-event rounding can accumulate — and the completion instant is the
/// analytic `epoch + epoch_remaining / rate`, at which the entry
/// force-settles its exact remaining bytes (no 1-byte residue wakeups).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScheduledEntry {
    pub(crate) flow: FlowId,
    /// The flow's table slot, so settling the account reaches the flow
    /// (and its VOQ) with no lookup. A snapshot carries it, but a restore
    /// re-resolves it: the restored table assigns its own slots. The
    /// account holds no VOQ of its own: the table has it, and an entry
    /// eight bytes smaller keeps `Option<ScheduledEntry>` at 56 bytes.
    pub(crate) slot: FlowSlot,
    /// The rate the flow drains at during this epoch.
    pub(crate) rate: Rate,
    /// When this entry's accounting epoch started (admission at `rate`;
    /// survives reschedules that keep the flow at the same rate).
    pub(crate) epoch: SimTime,
    /// Remaining bytes at `epoch`.
    pub(crate) epoch_remaining: u64,
    /// Bytes drained from the table since `epoch` (≤ `epoch_remaining`).
    pub(crate) settled: u64,
    /// Exact completion instant: `epoch + epoch_remaining / rate`
    /// (infinite for a zero rate).
    pub(crate) completes_at: SimTime,
}

impl ScheduledEntry {
    /// Opens an epoch at `now` over `remaining` bytes draining at `rate`.
    pub(crate) fn new(
        flow: FlowId,
        slot: FlowSlot,
        now: SimTime,
        remaining: u64,
        rate: Rate,
    ) -> Self {
        ScheduledEntry {
            flow,
            slot,
            rate,
            epoch: now,
            epoch_remaining: remaining,
            settled: 0,
            completes_at: now + rate.transfer_time(Bytes::new(remaining)),
        }
    }

    /// Cumulative bytes owed by instant `t`: a single conversion of the
    /// total elapsed time since the epoch, clamped to the entry's size and
    /// forced to exactly `epoch_remaining` at (or past) the analytic
    /// completion instant — the one settlement formula every engine
    /// shares. Monotone in `t`, so partial settlements always sum to the
    /// epoch's total.
    #[inline]
    pub(crate) fn target_at(&self, t: SimTime) -> u64 {
        if t >= self.completes_at {
            self.epoch_remaining
        } else {
            self.rate
                .bytes_in(t - self.epoch)
                .as_u64()
                .min(self.epoch_remaining)
        }
    }

    /// Settles the account at instant `t`: the bytes owed since the last
    /// settlement, `completed` when they exhaust the epoch, or `None` when
    /// nothing is owed.
    #[inline]
    pub(crate) fn settle(&mut self, t: SimTime) -> Option<SettledDrain> {
        let target = self.target_at(t);
        let amount = target - self.settled;
        if amount == 0 {
            return None;
        }
        self.settled = target;
        Some(SettledDrain {
            flow: self.flow,
            slot: self.slot,
            amount,
            completed: target == self.epoch_remaining,
        })
    }

    /// Whether the flow keeps this epoch when re-allocated at `rate`:
    /// only an unchanged rate (to the bit) preserves the completion
    /// instant.
    pub(crate) fn keeps_rate(&self, rate: Rate) -> bool {
        self.rate.bytes_per_sec().to_bits() == rate.bytes_per_sec().to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_prefers_lazy_only_when_nothing_needs_eager() {
        assert_eq!(SettleMode::choose(true, true), SettleMode::Eager);
        assert_eq!(SettleMode::choose(true, false), SettleMode::Eager);
        assert_eq!(SettleMode::choose(false, false), SettleMode::Eager);
        assert_eq!(SettleMode::choose(false, true), SettleMode::Lazy);
        assert!(SettleMode::choose(false, true).is_lazy());
        assert!(!SettleMode::Eager.is_lazy());
    }

    #[test]
    fn drain_target_is_monotone_and_exact_at_completion() {
        let rate = Rate::from_gbps(10.0);
        let remaining = 999_983u64; // odd size: exercises the floor
        let id = FlowId::new(7);
        let mut entry = ScheduledEntry::new(id, FlowSlot::new(3), SimTime::ZERO, remaining, rate);
        let done = entry.completes_at;
        let (mut last, mut sum, mut completions) = (0, 0, 0);
        let instants = (0..=100).map(|i| SimTime::from_secs(done.as_secs() * (i as f64) / 100.0));
        for t in instants.chain([done]) {
            let target = entry.target_at(t);
            assert!(target >= last, "cumulative target must be monotone");
            assert!(target <= remaining);
            last = target;
            if let Some(drain) = entry.settle(t) {
                assert_eq!((drain.flow, drain.slot), (id, FlowSlot::new(3)));
                assert!(drain.amount > 0);
                sum += drain.amount;
                completions += usize::from(drain.completed);
                assert_eq!(
                    drain.completed,
                    sum == remaining,
                    "completes on the last call"
                );
            }
            assert_eq!(entry.settled, target);
        }
        assert_eq!(
            entry.target_at(done),
            remaining,
            "the completion instant settles the epoch exactly"
        );
        assert_eq!(sum, entry.epoch_remaining, "settlements sum to the epoch");
        assert_eq!(completions, 1, "exactly one settlement completes");
        assert_eq!(entry.settle(done), None, "a settled epoch owes nothing");
    }

    #[test]
    fn zero_rate_never_completes_and_never_drains() {
        let rate = Rate::from_bytes_per_sec(0.0);
        let mut entry =
            ScheduledEntry::new(FlowId::new(1), FlowSlot::new(1), SimTime::ZERO, 10, rate);
        assert_eq!(entry.completes_at, SimTime::INFINITY);
        assert_eq!(entry.target_at(SimTime::from_secs(1e9)), 0);
        assert_eq!(entry.settle(SimTime::from_secs(1e9)), None);
    }
}
