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
//! The two helpers here, [`completion_instant`] and [`drain_target`],
//! are that arithmetic, shared by the matching engine's scheduled
//! entries (`dcn-fabric`'s delta allocator) and the fair-share engine's
//! rate entries, so the two accounting paths cannot drift apart.
//!
//! [`SettleMode`] is the policy layer: *when* the engine converts
//! scheduled time into table bytes. Eager settlement converts on every
//! event (the historical behaviour, and what per-flow observers need);
//! lazy settlement converts only at observation points — a flow's own
//! rate change, completion, or eviction, a sample instant, the horizon,
//! or a snapshot — leaving untouched flows untouched, which is what
//! makes the event loop O(Δ) per event.

use dcn_types::{Bytes, Rate, SimTime};

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

/// The analytic completion instant of `remaining` bytes draining at
/// `rate` from `now`: `now + remaining / rate` (infinite for a zero
/// rate, `now` itself for zero bytes).
///
/// ```
/// use dcn_fabric::settle_completion_instant;
/// use dcn_types::{Rate, SimTime};
///
/// let at = settle_completion_instant(SimTime::ZERO, 1_250_000, Rate::from_gbps(10.0));
/// assert_eq!(at, SimTime::from_millis(1.0)); // 1.25 MB at 1.25 GB/s
/// ```
pub fn completion_instant(now: SimTime, remaining: u64, rate: Rate) -> SimTime {
    now + rate.transfer_time(Bytes::new(remaining))
}

/// Cumulative bytes an epoch anchored at `epoch` with `epoch_remaining`
/// bytes owed, draining at `rate` until `completes_at`, should have
/// settled by `t`. This is the single conversion every settlement path
/// uses: monotone in `t`, capped at `epoch_remaining`, and exactly
/// `epoch_remaining` at (or after) the completion instant, so partial
/// settlements always sum to the epoch's total.
///
/// ```
/// use dcn_fabric::{settle_completion_instant, settle_drain_target};
/// use dcn_types::{Rate, SimTime};
///
/// let rate = Rate::from_gbps(10.0);
/// let done = settle_completion_instant(SimTime::ZERO, 1_250_000, rate);
/// let halfway = settle_drain_target(SimTime::ZERO, done, 1_250_000, rate, SimTime::from_millis(0.5));
/// assert_eq!(halfway, 625_000);
/// assert_eq!(settle_drain_target(SimTime::ZERO, done, 1_250_000, rate, done), 1_250_000);
/// ```
pub fn drain_target(
    epoch: SimTime,
    completes_at: SimTime,
    epoch_remaining: u64,
    rate: Rate,
    t: SimTime,
) -> u64 {
    if t >= completes_at {
        epoch_remaining
    } else {
        rate.bytes_in(t - epoch).as_u64().min(epoch_remaining)
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
        let done = completion_instant(SimTime::ZERO, remaining, rate);
        let mut last = 0;
        for i in 0..=100 {
            let t = SimTime::from_secs(done.as_secs() * (i as f64) / 100.0);
            let target = drain_target(SimTime::ZERO, done, remaining, rate, t);
            assert!(target >= last, "cumulative target must be monotone");
            assert!(target <= remaining);
            last = target;
        }
        assert_eq!(
            drain_target(SimTime::ZERO, done, remaining, rate, done),
            remaining,
            "the completion instant settles the epoch exactly"
        );
    }

    #[test]
    fn zero_rate_never_completes_and_never_drains() {
        let rate = Rate::from_bytes_per_sec(0.0);
        let done = completion_instant(SimTime::ZERO, 10, rate);
        assert_eq!(done, SimTime::INFINITY);
        assert_eq!(
            drain_target(SimTime::ZERO, done, 10, rate, SimTime::from_secs(1e9)),
            0
        );
    }
}
