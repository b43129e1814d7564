//! The paper's Fig.-1 motivating scenario: three flows, two bottlenecks.
//!
//! * `f1`: 5 packets, host A → host B, ready at slot 0;
//! * `f2`: 1 packet, host A → host C (shares its *source* with `f1`),
//!   ready at slot 0;
//! * `f3`: 1 packet, host D → host B (shares its *destination* with `f1`),
//!   arrives one slot later.
//!
//! Under SRPT the two one-packet flows preempt `f1` in consecutive slots
//! even though they never overlap, so after 6 slots one `f1` packet is
//! stranded (Fig. 1b). A backlog-aware scheduler gives slot 0 to `f1`,
//! lets `f2`/`f3` share one slot (they don't conflict), and finishes all
//! three flows in the same 6 slots (Fig. 1c).

use crate::arrivals::ScriptedArrivals;
use crate::{RunConfig, SwitchRun};
use basrpt_core::Scheduler;
use dcn_types::{HostId, Voq};

/// Port indices of the scenario (4-port switch: A, B, C, D).
pub const HOST_A: HostId = HostId::new(0);
/// Destination shared by `f1` and `f3`.
pub const HOST_B: HostId = HostId::new(1);
/// Destination of `f2`.
pub const HOST_C: HostId = HostId::new(2);
/// Source of `f3`.
pub const HOST_D: HostId = HostId::new(3);

/// Number of slots in the walk-through (the paper's 6 slots).
pub const HORIZON_SLOTS: u64 = 6;

/// Total packets offered (5 + 1 + 1).
pub const TOTAL_PACKETS: u64 = 7;

/// The scripted arrival process of the scenario.
///
/// `f1` and `f2` are ready at the very beginning, which the slotted model
/// expresses as arrivals at the end of a virtual pre-slot; [`run_fig1`]
/// therefore scripts them at slot 0 of a one-slot warm-up prefix. To keep
/// the public behaviour simple this function scripts all three flows as
/// end-of-slot arrivals: `f1`, `f2` at the end of slot 0 (eligible from
/// slot 1) and `f3` at the end of slot 1 (eligible from slot 2), and
/// [`run_fig1`] runs `HORIZON_SLOTS + 1` slots so that exactly 6 usable
/// slots follow `f1`/`f2`'s arrival.
pub fn arrivals() -> ScriptedArrivals {
    ScriptedArrivals::new(vec![
        (0, Voq::new(HOST_A, HOST_B), 5), // f1
        (0, Voq::new(HOST_A, HOST_C), 1), // f2
        (1, Voq::new(HOST_D, HOST_B), 1), // f3
    ])
}

/// Runs the Fig.-1 scenario under the given scheduler and returns the run
/// (6 usable slots after `f1`/`f2` become eligible).
pub fn run_fig1<S: Scheduler + ?Sized>(scheduler: &mut S) -> SwitchRun {
    let mut arr = arrivals();
    let config = RunConfig {
        slots: HORIZON_SLOTS + 1,
        sample_every: 1,
    };
    crate::run(4, scheduler, &mut arr, config)
}

/// Packets left stranded by the scheduler after the 6-slot horizon.
pub fn leftover_packets(run: &SwitchRun) -> u64 {
    run.leftover_packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use basrpt_core::{ExactBasrpt, FastBasrpt, Srpt, ThresholdBacklogSrpt};

    /// The headline claim of §II-B: SRPT strands one packet of `f1`.
    #[test]
    fn srpt_strands_one_packet() {
        let run = run_fig1(&mut Srpt::new());
        assert_eq!(run.leftover_packets, 1, "SRPT must leave 1 packet");
        assert_eq!(run.leftover_flows, 1);
        assert_eq!(run.delivered_packets, TOTAL_PACKETS - 1);
        // f2 and f3 complete with FCT 1 slot each.
        let small_fcts: Vec<u64> = run
            .completions
            .iter()
            .filter(|c| c.size == 1)
            .map(|c| c.fct_slots())
            .collect();
        assert_eq!(small_fcts, vec![1, 1]);
    }

    /// Exact BASRPT with V in (2/3, 1) reproduces Fig. 1(c) exactly:
    /// slot 1 to f1, slot 2 shared by f2 and f3, all flows done in 6 slots.
    #[test]
    fn exact_basrpt_completes_everything() {
        let run = run_fig1(&mut ExactBasrpt::new(0.8));
        assert_eq!(run.leftover_packets, 0);
        assert_eq!(run.delivered_packets, TOTAL_PACKETS);
        assert_eq!(run.completions.len(), 3);
        // f1 finishes by the end of the horizon with FCT 6.
        let f1 = run
            .completions
            .iter()
            .find(|c| c.size == 5)
            .expect("f1 completes");
        assert_eq!(f1.fct_slots(), 6);
        // One short flow pays the single slot of extra delay the paper
        // accepts: f2 waits for f1's first packet and finishes in slot 2
        // (FCT 2), while f3 is served in its first eligible slot (FCT 1).
        let f2 = run
            .completions
            .iter()
            .find(|c| c.voq.dst() == HOST_C)
            .expect("f2 completes");
        assert_eq!(f2.fct_slots(), 2);
        let f3 = run
            .completions
            .iter()
            .find(|c| c.voq.src() == HOST_D)
            .expect("f3 completes");
        assert_eq!(f3.fct_slots(), 1);
    }

    /// Fast BASRPT (V < N) also clears all packets within the horizon,
    /// though in a different order than the exact scheduler.
    #[test]
    fn fast_basrpt_completes_everything() {
        let run = run_fig1(&mut FastBasrpt::new(0.8, 4));
        assert_eq!(run.leftover_packets, 0);
        assert_eq!(run.delivered_packets, TOTAL_PACKETS);
    }

    /// The threshold strategy of Fig. 2 stabilizes the example too.
    #[test]
    fn threshold_strategy_completes_everything() {
        let run = run_fig1(&mut ThresholdBacklogSrpt::new(2));
        assert_eq!(run.leftover_packets, 0);
    }

    /// The backlog-aware gain claimed in §II-B: throughput improves by
    /// 1/6 pkt/slot relative to SRPT over the 6 usable slots.
    #[test]
    fn backlog_aware_throughput_gain_is_one_sixth() {
        let srpt = run_fig1(&mut Srpt::new());
        let basrpt = run_fig1(&mut ExactBasrpt::new(0.8));
        let gain =
            (basrpt.delivered_packets - srpt.delivered_packets) as f64 / HORIZON_SLOTS as f64;
        assert!((gain - 1.0 / 6.0).abs() < 1e-12);
    }
}
