//! The slotted switch and its simulation driver, which advances whole
//! macro-slot windows under a cached schedule.

use crate::arrivals::{ArrivalLookahead, SlotArrivals};
use basrpt_core::{FlowState, FlowTable, Schedule, Scheduler};
use dcn_metrics::TimeSeries;
use dcn_probe::{
    ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Fanout, NoProbe, Probe, SampleEvent,
};
use dcn_types::{FlowId, Slot, Voq};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A flow that finished transferring in the slotted model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedFlow {
    /// The flow's identifier.
    pub id: FlowId,
    /// Its VOQ.
    pub voq: Voq,
    /// Original size in packets.
    pub size: u64,
    /// First slot in which the flow was eligible to transmit (arrivals land
    /// at the end of a slot, so an arrival during slot `t` has
    /// `arrival = t + 1`; flows injected before the run have `arrival = 0`).
    pub arrival: Slot,
    /// Slot during which the final packet was transmitted.
    pub completion: Slot,
}

impl CompletedFlow {
    /// Flow completion time in slots: the flow occupies the system from the
    /// start of `arrival` through the end of `completion`, inclusive.
    pub fn fct_slots(&self) -> u64 {
        self.completion.index() - self.arrival.index() + 1
    }
}

/// What happened during a single slot.
#[derive(Debug, Clone, Default)]
pub struct SlotOutcome {
    /// Packets transmitted this slot (= matched non-empty VOQs).
    pub transmitted: u64,
    /// Flows that completed this slot.
    pub completions: Vec<CompletedFlow>,
    /// Flows admitted at the end of this slot as `(id, voq, packets)`,
    /// with the switch-assigned identifiers (eligible from the next slot).
    pub admitted: Vec<(FlowId, Voq, u64)>,
}

/// The `N × N` input-queued switch with slotted time (§III-B).
///
/// Call [`SlottedSwitch::step`] once per slot: it asks the scheduler for a
/// matching over the current queues, transmits one packet per matched flow,
/// and applies end-of-slot arrivals — implementing Eq. (1) exactly
/// (the `L_ij` rectification never fires because schedulers only match
/// non-empty VOQs, which is the work-conserving special case).
///
/// # Example
///
/// ```
/// use basrpt_core::Srpt;
/// use dcn_switch::SlottedSwitch;
/// use dcn_types::{HostId, Voq};
///
/// let mut sw = SlottedSwitch::new(2);
/// sw.inject(Voq::new(HostId::new(0), HostId::new(1)), 3);
/// let mut srpt = Srpt::new();
/// let outcome = sw.step(&mut srpt, Vec::new());
/// assert_eq!(outcome.transmitted, 1);
/// assert_eq!(sw.table().total_backlog(), 2);
/// ```
#[derive(Debug)]
pub struct SlottedSwitch {
    num_ports: u32,
    table: FlowTable,
    now: Slot,
    next_id: u64,
    /// Each active flow's first eligible slot, indexed by its table slot
    /// ([`basrpt_core::FlowSlot`]): written at admission, read at
    /// completion.
    arrivals: Vec<Slot>,
}

impl SlottedSwitch {
    /// Creates an empty switch with `num_ports` ingress/egress ports.
    ///
    /// # Panics
    ///
    /// Panics if `num_ports` is zero.
    pub fn new(num_ports: u32) -> Self {
        assert!(num_ports > 0, "switch needs at least one port");
        SlottedSwitch {
            num_ports,
            table: FlowTable::with_hosts(num_ports),
            now: Slot::ZERO,
            next_id: 0,
            arrivals: Vec::new(),
        }
    }

    /// Number of ports `N`.
    pub fn num_ports(&self) -> u32 {
        self.num_ports
    }

    /// The current slot (the one about to be executed by [`Self::step`]).
    pub fn now(&self) -> Slot {
        self.now
    }

    /// The active flows.
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Injects a flow of `packets` packets that is eligible to transmit in
    /// the current slot (flows injected before the first step count their
    /// FCT from slot 0, matching the paper's "ready at the beginning of
    /// slot 1" convention in Fig. 1). Arrivals applied by [`Self::step`]
    /// and the drivers are admitted through this same path.
    ///
    /// # Panics
    ///
    /// Panics if the VOQ's ports are outside the switch, the VOQ is a
    /// self-loop, or `packets` is zero.
    pub fn inject(&mut self, voq: Voq, packets: u64) -> FlowId {
        assert!(
            voq.src().index() < self.num_ports && voq.dst().index() < self.num_ports,
            "{voq} outside a {0}-port switch",
            self.num_ports
        );
        assert!(!voq.is_self_loop(), "self-loop {voq} not allowed");
        let id = FlowId::new(self.next_id);
        self.next_id += 1;
        let slot = self
            .table
            .insert(FlowState::new(id, voq, packets))
            .expect("ids are unique by construction")
            .index();
        // Slots are dense, so a new one grows the record by one.
        self.arrivals
            .resize(self.arrivals.len().max(slot + 1), self.now);
        self.arrivals[slot] = self.now;
        id
    }

    /// Executes one slot: schedule → transmit one packet per matched flow →
    /// apply `arrivals` at the end of the slot → advance the clock.
    ///
    /// # Panics
    ///
    /// Panics if an arrival's VOQ is outside the switch or a self-loop, or
    /// carries zero packets.
    pub fn step<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        arrivals: Vec<(Voq, u64)>,
    ) -> SlotOutcome {
        let schedule = scheduler.schedule(&self.table);
        self.advance_window(&schedule, 1, arrivals)
    }

    /// Executes `k` consecutive slots under one fixed schedule in a single
    /// table operation per flow (one `drain(id, k)` — hence one table
    /// mutation — instead of `k`). The caller guarantees that `k` never
    /// exceeds the remaining size of any scheduled flow, so a completion
    /// can only happen in the *last* slot of the window; the recorded
    /// completion slot reflects that. `arrivals` land at the end of the
    /// window's last slot, exactly as if polled in that slot. With `k = 1`
    /// this is one slot of Eq. (1).
    pub(crate) fn advance_window(
        &mut self,
        schedule: &Schedule,
        k: u64,
        arrivals: Vec<(Voq, u64)>,
    ) -> SlotOutcome {
        debug_assert!(k >= 1, "a window spans at least one slot");
        let last = Slot::new(self.now.index() + k - 1);
        let mut outcome = SlotOutcome::default();
        for (id, voq) in schedule.iter() {
            let drained = self.table.drain(id, k).expect("scheduled flows are active");
            debug_assert_eq!(drained.drained, k, "window never overshoots a flow");
            outcome.transmitted += k;
            if let Some(done) = drained.completed {
                outcome.completions.push(CompletedFlow {
                    id,
                    voq,
                    size: done.size(),
                    arrival: self.arrivals[drained.slot.index()],
                    completion: last,
                });
            }
        }
        // End-of-slot arrivals become eligible in the next slot.
        self.now = last.next();
        for (voq, packets) in arrivals {
            let id = self.inject(voq, packets);
            outcome.admitted.push((id, voq, packets));
        }
        outcome
    }
}

/// Configuration of a slotted simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Number of slots to execute.
    pub slots: u64,
    /// Sampling period (in slots) for the recorded time series.
    pub sample_every: u64,
}

impl RunConfig {
    /// A run of `slots` slots sampling roughly 1000 points.
    pub fn new(slots: u64) -> Self {
        RunConfig {
            slots,
            sample_every: (slots / 1000).max(1),
        }
    }

    /// The check both drivers apply before their first slot.
    pub(crate) fn validate(&self) {
        assert!(self.sample_every > 0, "sample period must be positive");
    }
}

/// The measurements collected by [`run`].
#[derive(Debug, Clone)]
pub struct SwitchRun {
    /// All completed flows, in completion order.
    pub completions: Vec<CompletedFlow>,
    /// Total packets delivered.
    pub delivered_packets: u64,
    /// Total backlog (packets) sampled over time (seconds = slots here; the
    /// time axis is the slot index).
    pub total_backlog: TimeSeries,
    /// Backlog of the most loaded ingress port at each sample instant.
    pub max_port_backlog: TimeSeries,
    /// Quadratic Lyapunov function `L(X) = ½ Σ X_ij²` sampled over time.
    pub lyapunov: TimeSeries,
    /// Packets left in queues when the run ended.
    pub leftover_packets: u64,
    /// Flows left uncompleted when the run ended.
    pub leftover_flows: usize,
    /// Time-average of the penalty `ȳ(t)` (mean remaining size of the
    /// scheduled flows), over slots with a non-empty schedule.
    pub avg_penalty: f64,
    /// Time-average total backlog `Σ_ij X_ij` over all slots.
    pub avg_total_backlog: f64,
}

/// The internal probe filling [`SwitchRun`]'s time series, mirroring the
/// sampling the slotted loop has always done: total backlog, the most
/// loaded ingress port (the table's per-host scan; every port lies inside
/// the switch), and the quadratic Lyapunov function, all on the
/// slot-index time axis.
#[derive(Debug)]
pub(crate) struct SwitchSampler {
    pub(crate) total_backlog: TimeSeries,
    pub(crate) max_port_backlog: TimeSeries,
    pub(crate) lyapunov: TimeSeries,
}

impl SwitchSampler {
    pub(crate) fn new() -> Self {
        SwitchSampler {
            total_backlog: TimeSeries::new(),
            max_port_backlog: TimeSeries::new(),
            lyapunov: TimeSeries::new(),
        }
    }
}

impl Probe for SwitchSampler {
    fn wants_decision_timing(&self) -> bool {
        false
    }

    fn wants_slot_fidelity(&self) -> bool {
        // Only listens to samples, which macro-slot windows never skip.
        false
    }

    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        let secs = event.time;
        self.total_backlog
            .push(secs, event.table.total_backlog() as f64);
        self.max_port_backlog
            .push(secs, event.table.max_ingress_backlog() as f64);
        self.lyapunov
            .push(secs, dcn_probe::quadratic_lyapunov(event.table));
    }
}

/// The run-wide accumulators both drivers fill, assembled into a
/// [`SwitchRun`] at the end.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    completions: Vec<CompletedFlow>,
    pub(crate) delivered: u64,
    pub(crate) penalty_sum: f64,
    pub(crate) penalty_slots: u64,
    /// Summed in integers (u128 so even u64::MAX-sized backlogs over any
    /// horizon cannot overflow) and converted to f64 once at the end, so
    /// the product's closed-form window sums reproduce the reference's
    /// per-slot adds bit for bit.
    pub(crate) backlog_sum: u128,
}

impl Tally {
    /// Reports a window's completions (during slot `end`) and its
    /// end-of-slot admissions (eligible from `end + 1`), then banks them.
    pub(crate) fn record<P: Probe>(&mut self, fan: &mut P, outcome: SlotOutcome, end: u64) {
        for done in &outcome.completions {
            fan.on_completion(&CompletionEvent {
                time: end as f64,
                flow: done.id,
                voq: done.voq,
                size: done.size,
                fct: done.fct_slots() as f64,
            });
        }
        for &(id, voq, packets) in &outcome.admitted {
            fan.on_arrival(&ArrivalEvent {
                time: (end + 1) as f64,
                flow: id,
                voq,
                size: packets,
            });
        }
        self.delivered += outcome.transmitted;
        self.completions.extend(outcome.completions);
    }

    pub(crate) fn finish(
        self,
        switch: &SlottedSwitch,
        sampler: SwitchSampler,
        slots: u64,
    ) -> SwitchRun {
        SwitchRun {
            completions: self.completions,
            delivered_packets: self.delivered,
            total_backlog: sampler.total_backlog,
            max_port_backlog: sampler.max_port_backlog,
            lyapunov: sampler.lyapunov,
            leftover_packets: switch.table().total_backlog(),
            leftover_flows: switch.table().len(),
            avg_penalty: if self.penalty_slots > 0 {
                self.penalty_sum / self.penalty_slots as f64
            } else {
                0.0
            },
            avg_total_backlog: self.backlog_sum as f64 / slots.max(1) as f64,
        }
    }
}

/// Runs a slotted simulation of `num_ports` ports for `config.slots` slots,
/// feeding arrivals from `arrivals` and scheduling with `scheduler`.
///
/// A thin wrapper over [`run_probed`] with no observer attached.
///
/// # Panics
///
/// Panics under the same conditions as [`run_probed`].
pub fn run<S: Scheduler + ?Sized, A: SlotArrivals + ?Sized>(
    num_ports: u32,
    scheduler: &mut S,
    arrivals: &mut A,
    config: RunConfig,
) -> SwitchRun {
    run_probed(num_ports, scheduler, arrivals, config, NoProbe)
}

/// Like [`run`], but additionally streams every event of the run to
/// `probe` — arrivals and drains, completions with their slot FCTs,
/// scheduling decisions (with wall latency if the probe asks for it), and
/// the pre-step samples that also fill [`SwitchRun`]'s series.
///
/// Timestamps are slot indices; sizes are packets. Pass `&mut probe` to
/// keep ownership and read the observations afterwards.
///
/// # Macro-slot windows
///
/// Between two state-changing events — an arrival or a flow completion —
/// the greedy matching of every discipline stays constant for a provable
/// number of slots (see [`basrpt_core::validity`]), so the driver caches
/// the schedule and advances a whole *window* of `k` slots in one step.
/// A window ends at the first of:
///
/// * the end of the run;
/// * the discipline's validity bound
///   ([`Scheduler::schedule_validity`]) — `1` for stateful schedulers
///   such as `RoundRobin`;
/// * the next sampling instant, so no [`SampleEvent`] is skipped;
/// * the next arrival ([`SlotArrivals::lookahead`]); an `Unknown` source
///   such as Bernoulli arrivals makes every window one slot long;
/// * the earliest completion of a scheduled flow (`k` never exceeds the
///   smallest remaining size, so completions land in a window's last
///   slot).
///
/// The cache is recomputed once its bound runs out or the table changed
/// behind it — an arrival or completion, detected by comparing
/// [`FlowTable::version`](basrpt_core::FlowTable::version) with the value
/// at the last sync.
///
/// # Bit identity
///
/// The run is bit-identical to the slot-by-slot oracle
/// [`reference::run_probed`](crate::reference::run_probed), pinned by
/// `tests/fastforward_differential.rs`. The backlog sum is kept in `u128`
/// there, so the closed form `k·x₀ − m·k(k−1)/2` lands on the same
/// integer; each slot's penalty numerator `r₀ − i·m` is an exact integer
/// added as one f64 per slot, as in the oracle. Probes that return `true`
/// from [`Probe::wants_slot_fidelity`] receive the oracle's per-slot
/// stream in its order, with replayed [`DecisionEvent`]s carrying
/// `latency: None`; probes that opt out get one `DecisionEvent` per
/// actual scheduler call and one batched [`DrainEvent`] per flow per
/// window.
///
/// # Panics
///
/// Panics if `num_ports` or `config.sample_every` is zero, or if an
/// arrival's VOQ is outside the switch, is a self-loop or carries zero
/// packets (see [`SlottedSwitch::inject`]).
///
/// # Example
///
/// ```
/// use basrpt_core::Srpt;
/// use dcn_probe::EventCounterProbe;
/// use dcn_switch::{run_probed, RunConfig, ScriptedArrivals};
/// use dcn_types::{HostId, Voq};
///
/// let mut arrivals =
///     ScriptedArrivals::new(vec![(0, Voq::new(HostId::new(0), HostId::new(1)), 3)]);
/// let mut counter = EventCounterProbe::new();
/// let run = run_probed(2, &mut Srpt::new(), &mut arrivals, RunConfig::new(10), &mut counter);
/// assert_eq!(counter.drained_units(), run.delivered_packets);
/// assert_eq!(counter.completions() as usize, run.completions.len());
/// ```
pub fn run_probed<S, A, P>(
    num_ports: u32,
    scheduler: &mut S,
    arrivals: &mut A,
    config: RunConfig,
    probe: P,
) -> SwitchRun
where
    S: Scheduler + ?Sized,
    A: SlotArrivals + ?Sized,
    P: Probe,
{
    config.validate();
    let mut switch = SlottedSwitch::new(num_ports);
    let mut sampler = SwitchSampler::new();
    let mut fan = Fanout::new(&mut sampler, probe);
    let fidelity = fan.wants_slot_fidelity();
    let mut tally = Tally::default();

    let mut cached: Option<Schedule> = None;
    let mut validity_left = 0u64;
    let mut synced_version = switch.table().version();

    let mut t = 0u64;
    while t < config.slots {
        let now = t as f64;
        if t.is_multiple_of(config.sample_every) {
            fan.on_sample(&SampleEvent {
                time: now,
                table: switch.table(),
                delivered: tally.delivered as f64,
            });
        }

        // Recompute when the cache is empty, its validity bound ran out,
        // or the table mutated in a way the bound did not account for
        // (arrivals, completions — anything but resynced own drains).
        let stale =
            cached.is_none() || validity_left == 0 || switch.table().version() != synced_version;
        if stale {
            let started = fan.wants_decision_timing().then(Instant::now);
            let schedule = scheduler.schedule(switch.table());
            let latency = started.map(|s| s.elapsed());
            fan.on_decision(&DecisionEvent {
                time: now,
                schedule: &schedule,
                latency,
            });
            validity_left = scheduler
                .schedule_validity(switch.table(), &schedule)
                .max(1);
            synced_version = switch.table().version();
            cached = Some(schedule);
        }
        let schedule = cached
            .as_ref()
            .expect("a schedule is cached past this point");

        // Window length: one slot when the next arrival is unknown,
        // otherwise bounded by the next arrival, the end of the run, the
        // cache's validity and the next sampling instant.
        let mut k = match arrivals.lookahead(Slot::new(t)) {
            ArrivalLookahead::Unknown => 1,
            ArrivalLookahead::NextAt(a) => a.index().max(t) - t + 1,
            ArrivalLookahead::Exhausted => u64::MAX,
        };
        if k > 1 {
            k = k
                .min(config.slots - t)
                .min(validity_left)
                .min(config.sample_every - t % config.sample_every);
        }

        // The scheduled flows' remaining total r0 — the penalty ȳ(t)'s
        // numerator, observed before the transmit — and, for a window
        // longer than one slot, the completion cap.
        let x0 = switch.table().total_backlog() as u128;
        let m = schedule.len() as u64;
        let mut r0 = 0u64;
        if k == 1 {
            // A one-slot window does exactly the reference's per-slot work.
            for id in schedule.flow_ids() {
                r0 += switch.table().get(id).expect("scheduled flow").remaining();
            }
            tally.backlog_sum += x0;
        } else {
            let mut min_remaining = u64::MAX;
            for id in schedule.flow_ids() {
                let rem = switch.table().get(id).expect("scheduled flow").remaining();
                min_remaining = min_remaining.min(rem);
                r0 += rem;
            }
            k = k.min(min_remaining);
            // Slot t + i starts with x0 − i·m packets queued: only the
            // schedule's own drains mutate the table inside the window.
            let (kk, mm) = (k as u128, m as u128);
            tally.backlog_sum += kk * x0 - mm * (kk * (kk - 1) / 2);
        }
        if m > 0 {
            for i in 0..k {
                tally.penalty_sum += (r0 - i * m) as f64 / m as f64;
            }
            tally.penalty_slots += k;
        }

        if fidelity {
            // The reference's per-slot expansion: decision, then drains,
            // for every slot of the window. A fresh decision was already
            // emitted above for slot t.
            for i in 0..k {
                if i > 0 || !stale {
                    fan.on_decision(&DecisionEvent {
                        time: (t + i) as f64,
                        schedule,
                        latency: None,
                    });
                }
                for (id, voq) in schedule.iter() {
                    fan.on_drain(&DrainEvent {
                        time: (t + i) as f64,
                        flow: id,
                        voq,
                        amount: 1,
                    });
                }
            }
        } else {
            for (id, voq) in schedule.iter() {
                fan.on_drain(&DrainEvent {
                    time: now,
                    flow: id,
                    voq,
                    amount: k,
                });
            }
        }

        let end = t + k - 1;
        let outcome = switch.advance_window(schedule, k, arrivals.poll(Slot::new(end)));
        if outcome.completions.is_empty() && outcome.admitted.is_empty() {
            // Only the schedule's own drains mutated the table: absorb
            // them, the validity bound already accounts for their effect.
            synced_version = switch.table().version();
        }
        tally.record(&mut fan, outcome, end);
        validity_left -= k;
        t += k;
    }
    drop(fan);
    tally.finish(&switch, sampler, config.slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ScriptedArrivals;
    use crate::reference;
    use basrpt_core::{CountingScheduler, Srpt, ThresholdBacklogSrpt};
    use dcn_probe::EventCounterProbe;
    use dcn_types::HostId;

    fn voq(src: u32, dst: u32) -> Voq {
        Voq::new(HostId::new(src), HostId::new(dst))
    }

    #[test]
    fn single_flow_drains_one_packet_per_slot() {
        let mut sw = SlottedSwitch::new(2);
        sw.inject(voq(0, 1), 3);
        let mut srpt = Srpt::new();
        for expected in [2, 1, 0] {
            let out = sw.step(&mut srpt, Vec::new());
            assert_eq!(out.transmitted, 1);
            assert_eq!(sw.table().total_backlog(), expected);
        }
        let out = sw.step(&mut srpt, Vec::new());
        assert_eq!(out.transmitted, 0);
    }

    #[test]
    fn completion_records_fct() {
        let mut sw = SlottedSwitch::new(2);
        sw.inject(voq(0, 1), 2);
        let mut srpt = Srpt::new();
        let _ = sw.step(&mut srpt, Vec::new());
        let out = sw.step(&mut srpt, Vec::new());
        assert_eq!(out.completions.len(), 1);
        let done = out.completions[0];
        assert_eq!(done.size, 2);
        // Eligible from slot 0, finished during slot 1: FCT = 2 slots.
        assert_eq!(done.arrival, Slot::new(0));
        assert_eq!(done.completion, Slot::new(1));
        assert_eq!(done.fct_slots(), 2);
    }

    #[test]
    fn arrivals_join_at_end_of_slot() {
        let mut sw = SlottedSwitch::new(2);
        let mut srpt = Srpt::new();
        // Arrival during slot 0 cannot transmit until slot 1.
        let out = sw.step(&mut srpt, vec![(voq(0, 1), 1)]);
        assert_eq!(out.transmitted, 0);
        assert_eq!(sw.table().total_backlog(), 1);
        let out = sw.step(&mut srpt, Vec::new());
        assert_eq!(out.transmitted, 1);
        assert_eq!(out.completions[0].fct_slots(), 1);
    }

    #[test]
    fn crossbar_limits_one_packet_per_port() {
        let mut sw = SlottedSwitch::new(3);
        sw.inject(voq(0, 1), 5);
        sw.inject(voq(0, 2), 5); // same ingress
        sw.inject(voq(2, 1), 5); // same egress as the first
        let mut srpt = Srpt::new();
        let out = sw.step(&mut srpt, Vec::new());
        // Only one of (0,1)/(0,2) and one of (0,1)/(2,1) can go; max 2 total.
        assert!(out.transmitted <= 2);
        assert!(out.transmitted >= 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn inject_rejects_out_of_range_port() {
        let mut sw = SlottedSwitch::new(2);
        sw.inject(voq(0, 5), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn inject_rejects_self_loop() {
        let mut sw = SlottedSwitch::new(2);
        sw.inject(voq(1, 1), 1);
    }

    #[test]
    fn run_delivers_everything_for_light_scripted_load() {
        let mut arrivals = ScriptedArrivals::new(vec![
            (0, voq(0, 1), 3),
            (0, voq(1, 0), 2),
            (5, voq(0, 1), 1),
        ]);
        let run = run(2, &mut Srpt::new(), &mut arrivals, RunConfig::new(20));
        assert_eq!(run.delivered_packets, 6);
        assert_eq!(run.completions.len(), 3);
        assert_eq!(run.leftover_packets, 0);
        assert_eq!(run.leftover_flows, 0);
        assert!(run.avg_penalty > 0.0);
        assert!(!run.total_backlog.is_empty());
    }

    #[test]
    fn slot_outcome_reports_admitted_flow_ids() {
        let mut sw = SlottedSwitch::new(2);
        let mut srpt = Srpt::new();
        let out = sw.step(&mut srpt, vec![(voq(0, 1), 4)]);
        assert_eq!(out.admitted.len(), 1);
        let (id, q, packets) = out.admitted[0];
        assert_eq!(q, voq(0, 1));
        assert_eq!(packets, 4);
        assert!(sw.table().get(id).is_some());
    }

    #[test]
    fn a_reused_slot_keeps_each_flows_arrival() {
        // Flow A (eligible from slot 1, 2 packets) completes in the last
        // slot of a two-slot window; flow B arrives at that window's end
        // and takes A's freed table slot.
        let script = vec![(0u64, voq(0, 1), 2u64), (2, voq(2, 0), 3)];
        let config = RunConfig {
            slots: 10,
            sample_every: 10,
        };
        let mut sched = CountingScheduler::new(Srpt::new());
        let product = run(
            3,
            &mut sched,
            &mut ScriptedArrivals::new(script.clone()),
            config,
        );
        assert_eq!(sched.calls(), 4, "slot 0, A's window, B's window, idle");
        let arrivals: Vec<(FlowId, Slot, Slot)> = product
            .completions
            .iter()
            .map(|c| (c.id, c.arrival, c.completion))
            .collect();
        assert_eq!(
            arrivals,
            vec![
                (FlowId::new(0), Slot::new(1), Slot::new(2)),
                (FlowId::new(1), Slot::new(3), Slot::new(5)),
            ]
        );
        let oracle = reference::run(
            3,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(script),
            config,
        );
        assert_identical(&oracle, &product);

        let mut sw = SlottedSwitch::new(3);
        sw.inject(voq(0, 1), 1);
        let out = sw.step(&mut Srpt::new(), vec![(voq(2, 0), 3)]);
        assert_eq!(out.completions[0].arrival, Slot::new(0));
        let slots: Vec<(usize, FlowId)> = sw
            .table()
            .slots()
            .map(|(slot, f)| (slot.index(), f.id()))
            .collect();
        assert_eq!(slots, vec![(0, FlowId::new(1))], "B reuses A's slot");
    }

    #[test]
    fn run_counts_leftovers() {
        // More packets than 3 slots can carry.
        let mut arrivals = ScriptedArrivals::new(vec![(0, voq(0, 1), 10)]);
        let run = run(2, &mut Srpt::new(), &mut arrivals, RunConfig::new(3));
        assert_eq!(run.delivered_packets, 2); // slots 1 and 2 (arrival at end of 0)
        assert_eq!(run.leftover_packets, 8);
        assert_eq!(run.leftover_flows, 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn run_rejects_an_arrival_outside_the_switch() {
        let mut arrivals = ScriptedArrivals::new(vec![(0, voq(0, 5), 3)]);
        run(2, &mut Srpt::new(), &mut arrivals, RunConfig::new(10));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn run_rejects_a_self_loop_arrival() {
        let mut arrivals = ScriptedArrivals::new(vec![(0, voq(1, 1), 3)]);
        run(2, &mut Srpt::new(), &mut arrivals, RunConfig::new(10));
    }

    #[test]
    #[should_panic(expected = "sample period must be positive")]
    fn zero_sample_period_is_rejected() {
        let config = RunConfig {
            slots: 10,
            sample_every: 0,
        };
        run(
            2,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(Vec::new()),
            config,
        );
    }

    fn assert_identical(a: &SwitchRun, b: &SwitchRun) {
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.total_backlog, b.total_backlog);
        assert_eq!(a.max_port_backlog, b.max_port_backlog);
        assert_eq!(a.lyapunov, b.lyapunov);
        assert_eq!(a.leftover_packets, b.leftover_packets);
        assert_eq!(a.leftover_flows, b.leftover_flows);
        assert_eq!(a.avg_penalty.to_bits(), b.avg_penalty.to_bits());
        assert_eq!(a.avg_total_backlog.to_bits(), b.avg_total_backlog.to_bits());
    }

    #[test]
    fn run_matches_reference_on_scripted_srpt() {
        let script = vec![
            (0u64, voq(0, 1), 40u64),
            (0, voq(1, 0), 25),
            (12, voq(0, 1), 3),
            (90, voq(1, 2), 7),
        ];
        let oracle = reference::run(
            3,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(script.clone()),
            RunConfig::new(200),
        );
        let product = run(
            3,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(script),
            RunConfig::new(200),
        );
        assert_identical(&oracle, &product);
    }

    #[test]
    fn run_matches_reference_on_threshold_discipline() {
        let script = vec![
            (0u64, voq(0, 1), 30u64),
            (0, voq(1, 0), 12),
            (7, voq(2, 1), 9),
        ];
        let oracle = reference::run(
            3,
            &mut ThresholdBacklogSrpt::new(10),
            &mut ScriptedArrivals::new(script.clone()),
            RunConfig::new(120),
        );
        let product = run(
            3,
            &mut ThresholdBacklogSrpt::new(10),
            &mut ScriptedArrivals::new(script),
            RunConfig::new(120),
        );
        assert_identical(&oracle, &product);
    }

    #[test]
    fn run_invokes_the_scheduler_less() {
        let script = vec![(0u64, voq(0, 1), 500u64), (0, voq(1, 0), 700)];
        let mut slow = CountingScheduler::new(Srpt::new());
        let oracle = reference::run(
            2,
            &mut slow,
            &mut ScriptedArrivals::new(script.clone()),
            RunConfig::new(1_000),
        );
        let mut fast = CountingScheduler::new(Srpt::new());
        let product = run(
            2,
            &mut fast,
            &mut ScriptedArrivals::new(script),
            RunConfig::new(1_000),
        );
        assert_identical(&oracle, &product);
        assert_eq!(slow.calls(), 1_000);
        assert!(
            fast.calls() * 5 <= slow.calls(),
            "run made {} calls vs {}",
            fast.calls(),
            slow.calls()
        );
    }

    #[test]
    fn run_probed_times_exactly_the_computed_decisions() {
        let script = vec![
            (0u64, voq(0, 1), 30u64),
            (0, voq(1, 0), 12),
            (9, voq(2, 1), 4),
        ];
        let mut sched = CountingScheduler::new(Srpt::new());
        let mut counter = EventCounterProbe::new();
        let observed = run_probed(
            3,
            &mut sched,
            &mut ScriptedArrivals::new(script.clone()),
            RunConfig::new(60),
            &mut counter,
        );
        // Slot fidelity: one decision event per slot, but only the
        // scheduler calls carry a wall latency.
        assert_eq!(counter.decisions(), 60);
        assert_eq!(counter.decision_latency().count(), sched.calls());
        assert!(sched.calls() < 60, "{} calls", sched.calls());
        assert_eq!(counter.drained_units(), observed.delivered_packets);
        assert_eq!(counter.completions() as usize, observed.completions.len());
        let bare = run(
            3,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(script),
            RunConfig::new(60),
        );
        assert_identical(&bare, &observed);
    }
}
