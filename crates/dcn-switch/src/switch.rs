//! The slotted switch and its simulation driver.

use crate::arrivals::SlotArrivals;
use basrpt_core::{FlowState, FlowTable, Scheduler};
use dcn_metrics::TimeSeries;
use dcn_probe::{
    ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Fanout, NoProbe, Probe, SampleEvent,
};
use dcn_types::{FlowId, HostId, Slot, Voq};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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
    arrival_slots: HashMap<FlowId, Slot>,
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
            table: FlowTable::new(),
            now: Slot::ZERO,
            next_id: 0,
            arrival_slots: HashMap::new(),
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
    /// slot 1" convention in Fig. 1).
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
        self.table
            .insert(FlowState::new(id, voq, packets))
            .expect("ids are unique by construction");
        self.arrival_slots.insert(id, self.now);
        id
    }

    /// Executes one slot: schedule → transmit one packet per matched flow →
    /// apply `arrivals` at the end of the slot → advance the clock.
    pub fn step<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        arrivals: Vec<(Voq, u64)>,
    ) -> SlotOutcome {
        let schedule = scheduler.schedule(&self.table);
        self.step_with_schedule(&schedule, arrivals)
    }

    /// Executes one slot with an externally computed schedule (used by the
    /// driver to observe the decision, e.g. for the penalty `ȳ(t)`, without
    /// invoking a stateful scheduler twice).
    ///
    /// # Panics
    ///
    /// Panics if the schedule references flows that are not active.
    pub fn step_with_schedule(
        &mut self,
        schedule: &basrpt_core::Schedule,
        arrivals: Vec<(Voq, u64)>,
    ) -> SlotOutcome {
        let mut outcome = SlotOutcome::default();
        for (id, voq) in schedule.iter() {
            let drained = self.table.drain(id, 1).expect("scheduled flows are active");
            debug_assert_eq!(drained.drained, 1, "matched VOQs are non-empty");
            outcome.transmitted += 1;
            if let Some(done) = drained.completed {
                let arrival = self
                    .arrival_slots
                    .remove(&id)
                    .expect("every active flow has an arrival slot");
                outcome.completions.push(CompletedFlow {
                    id,
                    voq,
                    size: done.size(),
                    arrival,
                    completion: self.now,
                });
            }
        }
        // End-of-slot arrivals become eligible in the next slot.
        self.now = self.now.next();
        for (voq, packets) in arrivals {
            let id = FlowId::new(self.next_id);
            self.next_id += 1;
            self.table
                .insert(FlowState::new(id, voq, packets))
                .expect("ids are unique by construction");
            self.arrival_slots.insert(id, self.now);
            outcome.admitted.push((id, voq, packets));
        }
        outcome
    }

    /// Executes `k` consecutive slots under one fixed schedule in a single
    /// table operation per flow (one `drain(id, k)` — hence one table
    /// mutation — instead of `k`). Used by the fast-forward engine, which
    /// guarantees that `k` never exceeds the remaining size of any
    /// scheduled flow, so a completion can only happen in the *last* slot
    /// of the window; the recorded completion slot reflects that.
    /// `arrivals` land at the end of the window's last slot, exactly as if
    /// polled in that slot by [`Self::step_with_schedule`].
    pub(crate) fn advance_window(
        &mut self,
        schedule: &basrpt_core::Schedule,
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
                let arrival = self
                    .arrival_slots
                    .remove(&id)
                    .expect("every active flow has an arrival slot");
                outcome.completions.push(CompletedFlow {
                    id,
                    voq,
                    size: done.size(),
                    arrival,
                    completion: last,
                });
            }
        }
        self.now = last.next();
        for (voq, packets) in arrivals {
            let id = FlowId::new(self.next_id);
            self.next_id += 1;
            self.table
                .insert(FlowState::new(id, voq, packets))
                .expect("ids are unique by construction");
            self.arrival_slots.insert(id, self.now);
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
/// loaded ingress port (scanned over all `num_ports` ports), and the
/// quadratic Lyapunov function, all on the slot-index time axis.
#[derive(Debug)]
pub(crate) struct SwitchSampler {
    num_ports: u32,
    pub(crate) total_backlog: TimeSeries,
    pub(crate) max_port_backlog: TimeSeries,
    pub(crate) lyapunov: TimeSeries,
}

impl SwitchSampler {
    pub(crate) fn new(num_ports: u32) -> Self {
        SwitchSampler {
            num_ports,
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
        // Only listens to samples, which fast-forward windows never skip.
        false
    }

    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        let secs = event.time;
        self.total_backlog
            .push(secs, event.table.total_backlog() as f64);
        let max_port = (0..self.num_ports)
            .map(|p| event.table.ingress_backlog(HostId::new(p)))
            .max()
            .unwrap_or(0);
        self.max_port_backlog.push(secs, max_port as f64);
        self.lyapunov
            .push(secs, crate::lyapunov::lyapunov_value(event.table));
    }
}

/// Runs a slotted simulation of `num_ports` ports for `config.slots` slots,
/// feeding arrivals from `arrivals` and scheduling with `scheduler`.
///
/// A thin wrapper over [`run_probed`] with no observer attached.
pub fn run<S: Scheduler + ?Sized, A: SlotArrivals + ?Sized>(
    num_ports: u32,
    scheduler: &mut S,
    arrivals: &mut A,
    config: RunConfig,
) -> SwitchRun {
    run_probed(num_ports, scheduler, arrivals, config, NoProbe)
}

/// Like [`run`], but additionally streams every event of the run to
/// `probe` — arrivals and per-packet drains, completions with their slot
/// FCTs, scheduling decisions (with wall latency if the probe asks for
/// it), and the pre-step samples that also fill [`SwitchRun`]'s series.
///
/// Timestamps are slot indices; sizes are packets. Pass `&mut probe` to
/// keep ownership and read the observations afterwards.
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
pub fn run_probed<S: Scheduler + ?Sized, A: SlotArrivals + ?Sized, P: Probe>(
    num_ports: u32,
    scheduler: &mut S,
    arrivals: &mut A,
    config: RunConfig,
    probe: P,
) -> SwitchRun {
    let mut switch = SlottedSwitch::new(num_ports);
    let mut sampler = SwitchSampler::new(num_ports);
    let mut fan = Fanout::new(&mut sampler, probe);
    let mut completions = Vec::new();
    let mut delivered = 0u64;
    let mut penalty_sum = 0.0;
    let mut penalty_slots = 0u64;
    // Summed in integers (u128 so even u64::MAX-sized backlogs over any
    // horizon cannot overflow) and converted to f64 once at the end, so
    // the fast-forward engine's closed-form window sums reproduce it bit
    // for bit.
    let mut backlog_sum: u128 = 0;

    for t in 0..config.slots {
        let slot = Slot::new(t);
        let now = t as f64;
        // Sample the pre-step state.
        if t % config.sample_every == 0 {
            fan.on_sample(&SampleEvent {
                time: now,
                table: switch.table(),
                delivered: delivered as f64,
            });
        }
        backlog_sum += switch.table().total_backlog() as u128;

        let started = fan.wants_decision_timing().then(Instant::now);
        let schedule = scheduler.schedule(switch.table());
        let latency = started.map(|s| s.elapsed());
        fan.on_decision(&DecisionEvent {
            time: now,
            schedule: &schedule,
            latency,
        });

        // Penalty ȳ(t) is the mean remaining size of the scheduled flows,
        // observed before the transmit.
        if !schedule.is_empty() {
            let total: u64 = schedule
                .flow_ids()
                .map(|id| switch.table().get(id).expect("scheduled flow").remaining())
                .sum();
            penalty_sum += total as f64 / schedule.len() as f64;
            penalty_slots += 1;
        }

        let outcome = switch.step_with_schedule(&schedule, arrivals.poll(slot));
        for (id, voq) in schedule.iter() {
            fan.on_drain(&DrainEvent {
                time: now,
                flow: id,
                voq,
                amount: 1,
            });
        }
        for done in &outcome.completions {
            fan.on_completion(&CompletionEvent {
                time: now,
                flow: done.id,
                voq: done.voq,
                size: done.size,
                fct: done.fct_slots() as f64,
            });
        }
        for &(id, voq, packets) in &outcome.admitted {
            // Admitted at the end of slot `t`, eligible from `t + 1`.
            fan.on_arrival(&ArrivalEvent {
                time: now + 1.0,
                flow: id,
                voq,
                size: packets,
            });
        }
        delivered += outcome.transmitted;
        completions.extend(outcome.completions);
    }
    drop(fan);

    SwitchRun {
        completions,
        delivered_packets: delivered,
        total_backlog: sampler.total_backlog,
        max_port_backlog: sampler.max_port_backlog,
        lyapunov: sampler.lyapunov,
        leftover_packets: switch.table().total_backlog(),
        leftover_flows: switch.table().len(),
        avg_penalty: if penalty_slots > 0 {
            penalty_sum / penalty_slots as f64
        } else {
            0.0
        },
        avg_total_backlog: backlog_sum as f64 / config.slots.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ScriptedArrivals;
    use basrpt_core::Srpt;
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
    fn run_probed_observes_every_event_without_perturbing() {
        use dcn_probe::EventCounterProbe;
        let script = vec![
            (0u64, voq(0, 1), 3u64),
            (0, voq(1, 0), 2),
            (5, voq(0, 1), 1),
        ];
        let bare = run(
            2,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(script.clone()),
            RunConfig::new(20),
        );
        let mut counter = EventCounterProbe::new();
        let observed = run_probed(
            2,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(script),
            RunConfig::new(20),
            &mut counter,
        );
        // The observer sees everything...
        assert_eq!(counter.arrivals(), 3);
        assert_eq!(counter.arrived_units(), 6);
        assert_eq!(counter.drained_units(), observed.delivered_packets);
        assert_eq!(counter.completions() as usize, observed.completions.len());
        assert_eq!(counter.decisions(), 20);
        assert_eq!(
            counter.samples() as usize,
            observed.total_backlog.len(),
            "one sample event per recorded point"
        );
        assert_eq!(counter.decision_latency().count(), 20);
        // ...and changes nothing.
        assert_eq!(bare.delivered_packets, observed.delivered_packets);
        assert_eq!(bare.completions, observed.completions);
        assert_eq!(bare.total_backlog, observed.total_backlog);
        assert_eq!(bare.lyapunov, observed.lyapunov);
        assert_eq!(bare.avg_penalty, observed.avg_penalty);
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
    fn run_counts_leftovers() {
        // More packets than 3 slots can carry.
        let mut arrivals = ScriptedArrivals::new(vec![(0, voq(0, 1), 10)]);
        let run = run(2, &mut Srpt::new(), &mut arrivals, RunConfig::new(3));
        assert_eq!(run.delivered_packets, 2); // slots 1 and 2 (arrival at end of 0)
        assert_eq!(run.leftover_packets, 8);
        assert_eq!(run.leftover_flows, 1);
    }
}
