//! The slot-by-slot oracle the product driver is pinned against.
//!
//! [`run_probed`] asks the scheduler for a fresh matching in every slot and
//! executes exactly one slot of Eq. (1) at a time — the simplest loop that
//! computes the model, with no schedule cache, no windows and no closed
//! forms. [`crate::run_probed`] must reproduce it bit for bit (completion
//! records, sampled series, `avg_penalty` and `avg_total_backlog` down to
//! the last mantissa bit, and the per-slot event stream for probes that
//! ask for slot fidelity); `tests/fastforward_differential.rs` and
//! `tests/champion_differential.rs` hold the product to it. This mirrors
//! `basrpt_core::reference` for decisions and `dcn_fabric::reference` for
//! the fabric's event loop.
//!
//! # Example
//!
//! ```
//! use basrpt_core::Srpt;
//! use dcn_switch::{reference, RunConfig, ScriptedArrivals};
//! use dcn_types::{HostId, Voq};
//!
//! let script = vec![(0, Voq::new(HostId::new(0), HostId::new(1)), 4)];
//! let oracle = reference::run(
//!     2,
//!     &mut Srpt::new(),
//!     &mut ScriptedArrivals::new(script.clone()),
//!     RunConfig::new(10),
//! );
//! let product = dcn_switch::run(
//!     2,
//!     &mut Srpt::new(),
//!     &mut ScriptedArrivals::new(script),
//!     RunConfig::new(10),
//! );
//! assert_eq!(oracle.completions, product.completions);
//! assert_eq!(oracle.avg_penalty.to_bits(), product.avg_penalty.to_bits());
//! ```

use crate::arrivals::SlotArrivals;
use crate::switch::{RunConfig, SlottedSwitch, SwitchRun, SwitchSampler, Tally};
use basrpt_core::Scheduler;
use dcn_probe::{DecisionEvent, DrainEvent, Fanout, NoProbe, Probe, SampleEvent};
use dcn_types::Slot;
use std::time::Instant;

/// [`run_probed`] with no observer attached.
///
/// # Panics
///
/// Panics under the same conditions as [`crate::run_probed`].
pub fn run<S: Scheduler + ?Sized, A: SlotArrivals + ?Sized>(
    num_ports: u32,
    scheduler: &mut S,
    arrivals: &mut A,
    config: RunConfig,
) -> SwitchRun {
    run_probed(num_ports, scheduler, arrivals, config, NoProbe)
}

/// Runs a slotted simulation one slot at a time, invoking the scheduler
/// in every slot, and streams every event to `probe` in the order the
/// product driver reproduces: sample, decision, one unit drain per
/// scheduled flow, completions, end-of-slot arrivals.
///
/// # Panics
///
/// Panics under the same conditions as [`crate::run_probed`].
pub fn run_probed<S: Scheduler + ?Sized, A: SlotArrivals + ?Sized, P: Probe>(
    num_ports: u32,
    scheduler: &mut S,
    arrivals: &mut A,
    config: RunConfig,
    probe: P,
) -> SwitchRun {
    config.validate();
    let mut switch = SlottedSwitch::new(num_ports);
    let mut sampler = SwitchSampler::new();
    let mut fan = Fanout::new(&mut sampler, probe);
    let mut tally = Tally::default();

    for t in 0..config.slots {
        let slot = Slot::new(t);
        let now = t as f64;
        // Sample the pre-step state.
        if t % config.sample_every == 0 {
            fan.on_sample(&SampleEvent {
                time: now,
                table: switch.table(),
                delivered: tally.delivered as f64,
            });
        }
        tally.backlog_sum += switch.table().total_backlog() as u128;

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
            tally.penalty_sum += total as f64 / schedule.len() as f64;
            tally.penalty_slots += 1;
        }

        let outcome = switch.advance_window(&schedule, 1, arrivals.poll(slot));
        for (id, voq) in schedule.iter() {
            fan.on_drain(&DrainEvent {
                time: now,
                flow: id,
                voq,
                amount: 1,
            });
        }
        tally.record(&mut fan, outcome, t);
    }
    drop(fan);
    tally.finish(&switch, sampler, config.slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ScriptedArrivals;
    use basrpt_core::Srpt;
    use dcn_types::{HostId, Voq};

    fn voq(src: u32, dst: u32) -> Voq {
        Voq::new(HostId::new(src), HostId::new(dst))
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
}
