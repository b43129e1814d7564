//! Macro-slot fast-forward for the slotted switch.
//!
//! Between two state-changing events — an arrival or a flow completion —
//! the greedy matching computed by any of the disciplines is constant for
//! a provable number of slots (see [`basrpt_core::validity`]). The
//! slot-by-slot driver in [`run_probed`] nevertheless
//! re-invokes the scheduler every slot. This module adds a second engine
//! that reuses the cached schedule across a whole *window* of `k` slots
//! and advances queue state, service counters, and the backlog/penalty
//! accumulators analytically in one step, while producing **bit-identical
//! results** to the reference loop: the same completions, the same
//! sampled time series, the same `avg_penalty` and `avg_total_backlog`
//! down to the last mantissa bit, and (for probes that ask for slot
//! fidelity) the same per-slot event stream.
//!
//! # Window expiry conditions
//!
//! A cached schedule is replayed until the first of:
//!
//! * its discipline-specific validity bound
//!   ([`Scheduler::schedule_validity`]) is exhausted — conservative per
//!   discipline, `1` for stateful schedulers like `RoundRobin`;
//! * a scheduled flow would complete (windows never cross a completion:
//!   `k` is capped by the minimum remaining size of the matched flows, so
//!   a completion can only land in the last slot of a window);
//! * an arrival lands ([`SlotArrivals::lookahead`] bounds the window for
//!   scripted workloads; `Unknown` sources such as Bernoulli arrivals
//!   force `k = 1` so every slot is polled, exactly like the reference);
//! * the next sampling instant (`config.sample_every`) is reached, so no
//!   [`SampleEvent`] is ever skipped or displaced;
//! * the table changed behind the engine's back, detected by comparing
//!   [`FlowTable::version`](basrpt_core::FlowTable::version) with the
//!   value remembered at the last sync. After a quiescent window (only
//!   the schedule's own drains) the remembered version is refreshed; any
//!   arrival or completion leaves it stale and forces a recompute at the
//!   next window.
//!
//! # Bit identity
//!
//! The accumulators are reproduced exactly, not approximately: the
//! reference sums backlog in `u128` (one integer add per slot), so the
//! closed form `k·x₀ − m·k(k−1)/2` lands on the identical integer; the
//! penalty `ȳ(t)` is accumulated with one f64 addition per slot in both
//! engines (each slot's scheduled-remaining total `r₀ − i·m` is an exact
//! integer), so the float rounding sequence is identical. Probes that
//! return `true` from [`Probe::wants_slot_fidelity`] receive the full
//! per-slot expansion — replayed [`DecisionEvent`]s carry `latency: None`
//! — in exactly the reference order; probes that opt out get one
//! `DecisionEvent` per *actual* scheduler invocation and one batched
//! [`DrainEvent`] per flow per window.

use crate::arrivals::{ArrivalLookahead, SlotArrivals};
use crate::switch::{run_probed, RunConfig, SlottedSwitch, SwitchRun, SwitchSampler};
use basrpt_core::{Schedule, Scheduler};
use dcn_probe::{
    ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Fanout, NoProbe, Probe, SampleEvent,
};
use dcn_types::Slot;
use std::time::Instant;

/// Which simulation driver executes a slotted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference loop: one scheduler invocation per slot.
    #[default]
    SlotBySlot,
    /// The macro-slot engine: schedules are cached and replayed for as
    /// long as they provably stay valid. Bit-identical to the reference.
    FastForward,
}

impl Engine {
    /// Selects the engine from the `BASRPT_ENGINE` environment variable:
    /// `fastforward` (or `ff`, case-insensitive) picks
    /// [`Engine::FastForward`], anything else — including an unset
    /// variable — the reference [`Engine::SlotBySlot`].
    pub fn from_env() -> Self {
        match std::env::var("BASRPT_ENGINE") {
            Ok(v) if v.eq_ignore_ascii_case("fastforward") || v.eq_ignore_ascii_case("ff") => {
                Engine::FastForward
            }
            _ => Engine::SlotBySlot,
        }
    }
}

/// [`run`](crate::run) with an explicit [`Engine`] choice.
pub fn run_with_engine<S: Scheduler + ?Sized, A: SlotArrivals + ?Sized>(
    engine: Engine,
    num_ports: u32,
    scheduler: &mut S,
    arrivals: &mut A,
    config: RunConfig,
) -> SwitchRun {
    run_probed_with_engine(engine, num_ports, scheduler, arrivals, config, NoProbe)
}

/// [`run_probed`] with an explicit [`Engine`] choice.
pub fn run_probed_with_engine<S, A, P>(
    engine: Engine,
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
    match engine {
        Engine::SlotBySlot => run_probed(num_ports, scheduler, arrivals, config, probe),
        Engine::FastForward => {
            run_fastforward_probed(num_ports, scheduler, arrivals, config, probe)
        }
    }
}

/// [`run_fastforward_probed`] with no observer attached.
pub fn run_fastforward<S: Scheduler + ?Sized, A: SlotArrivals + ?Sized>(
    num_ports: u32,
    scheduler: &mut S,
    arrivals: &mut A,
    config: RunConfig,
) -> SwitchRun {
    run_fastforward_probed(num_ports, scheduler, arrivals, config, NoProbe)
}

/// Runs a slotted simulation with the macro-slot fast-forward engine.
///
/// Produces a [`SwitchRun`] bit-identical to
/// [`run_probed`] on the same inputs, invoking the
/// scheduler only when the cached schedule can no longer be proven valid.
/// The only observable difference is the `latency` field of replayed
/// [`DecisionEvent`]s, which is `None` because no decision was actually
/// computed in those slots.
pub fn run_fastforward_probed<S, A, P>(
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
    let mut switch = SlottedSwitch::new(num_ports);
    let mut sampler = SwitchSampler::new(num_ports);
    let mut fan = Fanout::new(&mut sampler, probe);
    let fidelity = fan.wants_slot_fidelity();
    let mut completions = Vec::new();
    let mut delivered = 0u64;
    let mut penalty_sum = 0.0;
    let mut penalty_slots = 0u64;
    let mut backlog_sum: u128 = 0;

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
                delivered: delivered as f64,
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

        // Scheduled-flow aggregates for the window caps and the penalty.
        let mut min_remaining = u64::MAX;
        let mut r0 = 0u64;
        for id in schedule.flow_ids() {
            let rem = switch
                .table()
                .get(id)
                .expect("scheduled flows are active")
                .remaining();
            min_remaining = min_remaining.min(rem);
            r0 += rem;
        }

        // Window length: bounded by the end of the run, the validity of
        // the cached schedule, the earliest completion it could cause,
        // the next sampling instant, and the next arrival.
        let mut k = (config.slots - t).min(validity_left);
        if !schedule.is_empty() {
            k = k.min(min_remaining);
        }
        k = k.min(config.sample_every - t % config.sample_every);
        match arrivals.lookahead(Slot::new(t)) {
            ArrivalLookahead::Unknown => k = k.min(1),
            ArrivalLookahead::NextAt(a) => k = k.min(a.index().max(t) - t + 1),
            ArrivalLookahead::Exhausted => {}
        }
        debug_assert!(k >= 1, "every window spans at least one slot");

        // Closed-form backlog sum: slot t + i starts with x0 - i*m packets
        // queued (only the schedule's own drains mutate the table inside
        // the window), and the reference accumulates in integers.
        {
            let x0 = switch.table().total_backlog() as u128;
            let m = schedule.len() as u128;
            let kk = k as u128;
            backlog_sum += kk * x0 - m * (kk * (kk - 1) / 2);
        }
        // Penalty ȳ(t): each slot's scheduled-remaining total r0 - i*m is
        // an exact integer, so one f64 add per slot reproduces the
        // reference rounding sequence bit for bit.
        if !schedule.is_empty() {
            let m = schedule.len() as u64;
            for i in 0..k {
                penalty_sum += (r0 - i * m) as f64 / m as f64;
            }
            penalty_slots += k;
        }

        if fidelity {
            // Full per-slot expansion in reference order: decision, then
            // drains, for every slot of the window. The freshly computed
            // decision (if any) was already emitted above for slot t.
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
        let polled = arrivals.poll(Slot::new(end));
        let outcome = switch.advance_window(schedule, k, polled);

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

        let quiescent = outcome.completions.is_empty() && outcome.admitted.is_empty();
        delivered += outcome.transmitted;
        completions.extend(outcome.completions);
        validity_left -= k;
        if quiescent {
            // Only the schedule's own drains mutated the table: absorb
            // them, the validity bound already accounts for their effect.
            synced_version = switch.table().version();
        }
        t += k;
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
    use crate::run;
    use basrpt_core::{CountingScheduler, Srpt, ThresholdBacklogSrpt};
    use dcn_types::{HostId, Voq};

    fn voq(src: u32, dst: u32) -> Voq {
        Voq::new(HostId::new(src), HostId::new(dst))
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
    fn engine_from_env_parses_known_values() {
        std::env::remove_var("BASRPT_ENGINE");
        assert_eq!(Engine::from_env(), Engine::SlotBySlot);
        std::env::set_var("BASRPT_ENGINE", "FastForward");
        assert_eq!(Engine::from_env(), Engine::FastForward);
        std::env::set_var("BASRPT_ENGINE", "ff");
        assert_eq!(Engine::from_env(), Engine::FastForward);
        std::env::set_var("BASRPT_ENGINE", "slot");
        assert_eq!(Engine::from_env(), Engine::SlotBySlot);
        std::env::remove_var("BASRPT_ENGINE");
    }

    #[test]
    fn fast_forward_matches_reference_on_scripted_srpt() {
        let script = vec![
            (0u64, voq(0, 1), 40u64),
            (0, voq(1, 0), 25),
            (12, voq(0, 1), 3),
            (90, voq(1, 2), 7),
        ];
        let reference = run(
            3,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(script.clone()),
            RunConfig::new(200),
        );
        let fast = run_fastforward(
            3,
            &mut Srpt::new(),
            &mut ScriptedArrivals::new(script),
            RunConfig::new(200),
        );
        assert_identical(&reference, &fast);
    }

    #[test]
    fn fast_forward_matches_reference_on_threshold_discipline() {
        let script = vec![
            (0u64, voq(0, 1), 30u64),
            (0, voq(1, 0), 12),
            (7, voq(2, 1), 9),
        ];
        let reference = run(
            3,
            &mut ThresholdBacklogSrpt::new(10),
            &mut ScriptedArrivals::new(script.clone()),
            RunConfig::new(120),
        );
        let fast = run_fastforward(
            3,
            &mut ThresholdBacklogSrpt::new(10),
            &mut ScriptedArrivals::new(script),
            RunConfig::new(120),
        );
        assert_identical(&reference, &fast);
    }

    #[test]
    fn fast_forward_invokes_the_scheduler_less() {
        let script = vec![(0u64, voq(0, 1), 500u64), (0, voq(1, 0), 700)];
        let mut slow = CountingScheduler::new(Srpt::new());
        let reference = run(
            2,
            &mut slow,
            &mut ScriptedArrivals::new(script.clone()),
            RunConfig::new(1_000),
        );
        let mut fast = CountingScheduler::new(Srpt::new());
        let ff = run_fastforward(
            2,
            &mut fast,
            &mut ScriptedArrivals::new(script),
            RunConfig::new(1_000),
        );
        assert_identical(&reference, &ff);
        assert_eq!(slow.calls(), 1_000);
        assert!(
            fast.calls() * 5 <= slow.calls(),
            "fast-forward made {} calls vs {}",
            fast.calls(),
            slow.calls()
        );
    }
}
