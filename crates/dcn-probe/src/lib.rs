//! Event-level observability for both BASRPT simulation substrates.
//!
//! The paper's central claims are *trajectory* claims — SRPT's queues
//! diverge while BASRPT's stabilize — so answering a new question about a
//! run (per-VOQ occupancy, drift decomposition, decision latency) used to
//! mean editing the event loops. This crate turns the loops inside out: the
//! simulators emit a stream of sim-time-stamped events to an attached
//! [`Probe`], and every measurement — including the built-in backlog
//! sampling — is an observer of that stream.
//!
//! # Event taxonomy
//!
//! | Event | Emitted when | Payload |
//! |-------|--------------|---------|
//! | [`ArrivalEvent`] | a flow enters the system | flow id, VOQ, size |
//! | [`DrainEvent`] | units leave a flow's queue | flow id, VOQ, amount |
//! | [`CompletionEvent`] | a flow's last unit leaves | flow id, VOQ, size, FCT |
//! | [`DecisionEvent`] | the scheduler is consulted | the [`Schedule`], wall latency |
//! | [`SampleEvent`] | a sampling instant passes | the whole [`FlowTable`], delivered units |
//!
//! Timestamps are the substrate's native axis: seconds in the flow-level
//! fabric (`dcn-fabric`, units = bytes), slot indices in the slotted switch
//! (`dcn-switch`, units = packets) — matching the convention of the
//! [`TimeSeries`](dcn_metrics::TimeSeries) both already record.
//!
//! # Built-in probes
//!
//! * [`NoProbe`] — the default; every callback is a no-op and the whole
//!   observer layer monomorphizes away (verified in the `sched_overhead`
//!   bench's `probe_overhead` group).
//! * [`BacklogSampler`] — the historical backlog/throughput sampler,
//!   re-implemented as a probe; reproduces the pre-probe engine output
//!   bit for bit (locked by `tests/probe_differential.rs`).
//! * [`EventCounterProbe`] — event counts plus a log-spaced histogram of
//!   scheduler decision wall latencies; mergeable across seeds.
//! * [`DriftProbe`] — samples the quadratic Lyapunov function
//!   `L(X) = ½ Σ X_ij²` and estimates its one-sample drift, on any
//!   substrate that samples a flow table (the slotted switch and the
//!   fabric alike).
//! * [`JsonlProbe`] — streams every event as one JSON object per line,
//!   consumable by the `results/` tooling (see [`jsonl`]).
//!
//! Compose several observers with [`Fanout`].
//!
//! # Example
//!
//! ```
//! use basrpt_core::{FlowState, FlowTable};
//! use dcn_probe::{EventCounterProbe, Probe, SampleEvent};
//! use dcn_types::{FlowId, HostId, Voq};
//!
//! let mut table = FlowTable::new();
//! table.insert(FlowState::new(
//!     FlowId::new(1),
//!     Voq::new(HostId::new(0), HostId::new(1)),
//!     3,
//! ))?;
//! let mut counter = EventCounterProbe::new();
//! counter.on_sample(&SampleEvent { time: 0.0, table: &table, delivered: 0.0 });
//! assert_eq!(counter.samples(), 1);
//! # Ok::<(), basrpt_core::FlowTableError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use basrpt_core::{FlowTable, Schedule};
use dcn_types::{FlowId, Voq};
use std::time::Duration;

mod counter;
mod drift;
pub mod jsonl;
mod sampler;

pub use counter::{EventCounterProbe, LatencyHistogram};
pub use drift::{quadratic_lyapunov, DriftProbe};
pub use jsonl::JsonlProbe;
pub use sampler::{BacklogSampler, SampledSeries};

/// A flow entered the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalEvent {
    /// Sim time of the arrival (seconds in the fabric, slot index in the
    /// slotted switch).
    pub time: f64,
    /// The arriving flow.
    pub flow: FlowId,
    /// The VOQ it joins.
    pub voq: Voq,
    /// Its size in substrate units (bytes / packets).
    pub size: u64,
}

/// Units left a flow's queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainEvent {
    /// Sim time at which the drained interval ends.
    pub time: f64,
    /// The drained flow.
    pub flow: FlowId,
    /// The VOQ it occupies.
    pub voq: Voq,
    /// Units removed (always ≥ 1).
    pub amount: u64,
}

/// A flow's last unit left the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionEvent {
    /// Sim time of the completion.
    pub time: f64,
    /// The completed flow.
    pub flow: FlowId,
    /// The VOQ it occupied.
    pub voq: Voq,
    /// Its original size in substrate units.
    pub size: u64,
    /// Flow completion time in the substrate's time unit (includes any
    /// configured latency floor in the fabric).
    pub fct: f64,
}

/// The scheduler was consulted and produced a decision.
#[derive(Debug, Clone, Copy)]
pub struct DecisionEvent<'a> {
    /// Sim time of the decision.
    pub time: f64,
    /// The crossbar matching the discipline returned (before any core-layer
    /// capacity filtering the fabric may apply afterwards).
    pub schedule: &'a Schedule,
    /// Wall-clock latency of the `schedule()` call. `None` when no attached
    /// probe requested timing (see [`Probe::wants_decision_timing`]) — the
    /// engines then skip the clock reads entirely.
    pub latency: Option<Duration>,
}

/// A sampling instant passed.
#[derive(Debug, Clone, Copy)]
pub struct SampleEvent<'a> {
    /// Sim time of the sample.
    pub time: f64,
    /// The live flow table: probes may read any aggregate (total backlog,
    /// per-port backlogs, per-VOQ views) without the engine precomputing
    /// them.
    pub table: &'a FlowTable,
    /// Cumulative units delivered by the substrate so far.
    pub delivered: f64,
}

/// An observer of simulation events.
///
/// Every callback has a no-op default, so a probe implements only the
/// events it cares about. Probes are attached to
/// `dcn_fabric::simulate_probed` or `dcn_switch::run_probed`; the engines
/// invoke the callbacks synchronously from the event loop, so
/// implementations should be cheap (buffer, don't block).
pub trait Probe {
    /// Whether this probe wants [`DecisionEvent::latency`] populated.
    ///
    /// Timing a decision costs two wall-clock reads per scheduling event;
    /// engines consult this flag once per decision and skip the clock when
    /// it returns `false`. The default is `true` so custom probes get
    /// latencies without extra wiring; probes that ignore them (and
    /// [`NoProbe`]) override it to `false`.
    fn wants_decision_timing(&self) -> bool {
        true
    }

    /// Whether this probe needs the slotted substrate's **per-slot** event
    /// stream even where the engine could batch.
    ///
    /// The slotted switch's driver (`dcn_switch::run_probed`) advances
    /// many slots in one step when the cached schedule provably cannot
    /// change. If every attached probe returns `false` here, such a window
    /// is reported as one [`DecisionEvent`] per actual `schedule()` call
    /// plus one [`DrainEvent`] per scheduled flow with `amount` equal to
    /// the units drained over the whole window, stamped at the window's
    /// first slot. If any probe returns `true`, the driver expands every
    /// window into the exact per-slot stream of the slot-by-slot oracle
    /// (`dcn_switch::reference::run_probed`): one decision per slot
    /// (`latency: None` for replayed cached schedules) and one unit drain
    /// per scheduled flow per slot, in the oracle's order.
    /// Arrival, completion and sample events are identical either way.
    ///
    /// The default is `true` so custom probes observe the oracle's
    /// stream without extra wiring; aggregate-only probes (and
    /// [`NoProbe`]) override it to `false` to keep windowed runs fast.
    fn wants_slot_fidelity(&self) -> bool {
        true
    }

    /// Whether this probe needs the fabric's **per-flow** drain stream at
    /// full fidelity even where the engine could settle lazily.
    ///
    /// The lazily settling fabric engine (`dcn-fabric`'s delta path)
    /// defers each scheduled flow's drain write-back until the flow is
    /// *observed* — its own rate change, completion, eviction, or a
    /// sample instant — instead of settling every scheduled flow on every
    /// event. Byte accounting is bit-exact at every observation point
    /// either way, but between observation points the deferred engine
    /// emits *fewer, coarser* [`DrainEvent`]s: one per settlement instead
    /// of one per event per flow. If any attached probe returns `true`
    /// here, the engine settles eagerly on every event, reproducing the
    /// reference engines' exact drain stream.
    ///
    /// The default is `true` so custom probes observe the oracle's
    /// stream without extra wiring; aggregate-only probes (and
    /// [`NoProbe`]) override it to `false` to keep lazy runs fast.
    fn wants_flow_fidelity(&self) -> bool {
        true
    }

    /// A flow arrived.
    fn on_arrival(&mut self, event: &ArrivalEvent) {
        let _ = event;
    }

    /// Units drained from a flow.
    fn on_drain(&mut self, event: &DrainEvent) {
        let _ = event;
    }

    /// A flow completed.
    fn on_completion(&mut self, event: &CompletionEvent) {
        let _ = event;
    }

    /// A scheduling decision was computed.
    fn on_decision(&mut self, event: &DecisionEvent<'_>) {
        let _ = event;
    }

    /// A sampling instant passed.
    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        let _ = event;
    }
}

/// The default observer: ignores every event.
///
/// `NoProbe` is a zero-sized type and all its callbacks are empty, so an
/// engine instantiated with it compiles down to exactly the unobserved
/// event loop — attaching `NoProbe` costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    fn wants_decision_timing(&self) -> bool {
        false
    }

    fn wants_slot_fidelity(&self) -> bool {
        false
    }

    fn wants_flow_fidelity(&self) -> bool {
        false
    }
}

impl<P: Probe + ?Sized> Probe for &mut P {
    fn wants_decision_timing(&self) -> bool {
        (**self).wants_decision_timing()
    }

    fn wants_slot_fidelity(&self) -> bool {
        (**self).wants_slot_fidelity()
    }

    fn wants_flow_fidelity(&self) -> bool {
        (**self).wants_flow_fidelity()
    }
    fn on_arrival(&mut self, event: &ArrivalEvent) {
        (**self).on_arrival(event);
    }
    fn on_drain(&mut self, event: &DrainEvent) {
        (**self).on_drain(event);
    }
    fn on_completion(&mut self, event: &CompletionEvent) {
        (**self).on_completion(event);
    }
    fn on_decision(&mut self, event: &DecisionEvent<'_>) {
        (**self).on_decision(event);
    }
    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        (**self).on_sample(event);
    }
}

/// Broadcasts every event to two probes (nest for more).
///
/// # Example
///
/// ```
/// use dcn_probe::{DriftProbe, EventCounterProbe, Fanout};
/// let mut counter = EventCounterProbe::new();
/// let mut drift = DriftProbe::new();
/// let fan = Fanout::new(&mut counter, &mut drift);
/// # let _ = fan;
/// ```
#[derive(Debug)]
pub struct Fanout<A, B>(A, B);

impl<A: Probe, B: Probe> Fanout<A, B> {
    /// Creates a fan-out over `first` and `second` (invoked in that order).
    pub fn new(first: A, second: B) -> Self {
        Fanout(first, second)
    }

    /// Returns the two inner probes.
    pub fn into_inner(self) -> (A, B) {
        (self.0, self.1)
    }
}

impl<A: Probe, B: Probe> Probe for Fanout<A, B> {
    fn wants_decision_timing(&self) -> bool {
        self.0.wants_decision_timing() || self.1.wants_decision_timing()
    }

    fn wants_slot_fidelity(&self) -> bool {
        self.0.wants_slot_fidelity() || self.1.wants_slot_fidelity()
    }

    fn wants_flow_fidelity(&self) -> bool {
        self.0.wants_flow_fidelity() || self.1.wants_flow_fidelity()
    }
    fn on_arrival(&mut self, event: &ArrivalEvent) {
        self.0.on_arrival(event);
        self.1.on_arrival(event);
    }
    fn on_drain(&mut self, event: &DrainEvent) {
        self.0.on_drain(event);
        self.1.on_drain(event);
    }
    fn on_completion(&mut self, event: &CompletionEvent) {
        self.0.on_completion(event);
        self.1.on_completion(event);
    }
    fn on_decision(&mut self, event: &DecisionEvent<'_>) {
        self.0.on_decision(event);
        self.1.on_decision(event);
    }
    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        self.0.on_sample(event);
        self.1.on_sample(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_types::HostId;

    fn voq() -> Voq {
        Voq::new(HostId::new(0), HostId::new(1))
    }

    #[test]
    fn no_probe_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
        let mut p = NoProbe;
        assert!(!p.wants_decision_timing());
        assert!(!p.wants_slot_fidelity());
        assert!(!p.wants_flow_fidelity());
        p.on_arrival(&ArrivalEvent {
            time: 0.0,
            flow: FlowId::new(1),
            voq: voq(),
            size: 1,
        });
    }

    #[test]
    fn fanout_broadcasts_and_merges_timing_wishes() {
        let mut a = EventCounterProbe::new();
        let mut b = EventCounterProbe::new();
        {
            let mut fan = Fanout::new(&mut a, &mut b);
            assert!(fan.wants_decision_timing());
            assert!(fan.wants_slot_fidelity());
            assert!(fan.wants_flow_fidelity());
            fan.on_arrival(&ArrivalEvent {
                time: 1.0,
                flow: FlowId::new(7),
                voq: voq(),
                size: 3,
            });
        }
        assert_eq!(a.arrivals(), 1);
        assert_eq!(b.arrivals(), 1);
        let fan = Fanout::new(NoProbe, NoProbe);
        assert!(!fan.wants_decision_timing());
        assert!(!fan.wants_slot_fidelity());
        assert!(!fan.wants_flow_fidelity());
    }

    #[test]
    fn mut_ref_probe_delegates() {
        // Route through a generic bound so the `impl Probe for &mut P`
        // delegation (not auto-deref) is what the calls resolve to.
        fn drive<P: Probe>(mut probe: P) {
            assert!(probe.wants_decision_timing());
            probe.on_drain(&DrainEvent {
                time: 2.0,
                flow: FlowId::new(1),
                voq: Voq::new(HostId::new(0), HostId::new(1)),
                amount: 5,
            });
        }
        let mut counter = EventCounterProbe::new();
        drive(&mut counter);
        assert_eq!(counter.drains(), 1);
        assert_eq!(counter.drained_units(), 5);
    }
}
