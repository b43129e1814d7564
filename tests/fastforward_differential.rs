//! Differential tests pinning the switch driver to its slot-by-slot
//! oracle.
//!
//! `dcn_switch::run_probed` replays a cached schedule across
//! provably-valid macro-slot windows; `dcn_switch::reference::run_probed`
//! recomputes it every slot. Every observable must match **bit for bit**:
//! the completion records, the sampled series, the `avg_penalty` /
//! `avg_total_backlog` accumulators, and — through a slot-fidelity probe
//! that hashes the full event stream in order — every per-slot decision
//! and drain. The only tolerated difference is the wall-clock `latency`
//! of replayed decisions (`None`, since nothing was computed), which the
//! hash therefore skips. This is the same pin-the-refactor technique
//! `tests/delta_differential.rs` uses for the fabric engine.

use basrpt::core::{
    CountingScheduler, ExactBasrpt, FastBasrpt, MaxWeight, Scheduler, Srpt, ThresholdBacklogSrpt,
};
use basrpt::probe::{ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Probe, SampleEvent};
use basrpt::switch::arrivals::BernoulliFlowArrivals;
use basrpt::switch::{reference, run_probed, RunConfig, ScriptedArrivals, SwitchRun};
use basrpt::types::{HostId, Voq};

fn voq(src: u32, dst: u32) -> Voq {
    Voq::new(HostId::new(src), HostId::new(dst))
}

fn fnv(h: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Hashes the complete event stream in arrival order. Declares slot
/// fidelity (the default), so the driver must expand every window into
/// the exact per-slot stream of the oracle. Decision
/// latencies are deliberately left out of the hash: replayed decisions
/// carry `None` by design.
struct StreamRecorder {
    h: u64,
    events: u64,
}

impl StreamRecorder {
    fn new() -> Self {
        StreamRecorder {
            h: 0xcbf29ce484222325,
            events: 0,
        }
    }
}

impl Probe for StreamRecorder {
    fn wants_decision_timing(&self) -> bool {
        false
    }

    fn on_arrival(&mut self, e: &ArrivalEvent) {
        self.events += 1;
        fnv(&mut self.h, 1);
        fnv(&mut self.h, e.time.to_bits());
        fnv(&mut self.h, e.flow.raw());
        fnv(&mut self.h, e.voq.src().index() as u64);
        fnv(&mut self.h, e.voq.dst().index() as u64);
        fnv(&mut self.h, e.size);
    }

    fn on_drain(&mut self, e: &DrainEvent) {
        self.events += 1;
        fnv(&mut self.h, 2);
        fnv(&mut self.h, e.time.to_bits());
        fnv(&mut self.h, e.flow.raw());
        fnv(&mut self.h, e.voq.src().index() as u64);
        fnv(&mut self.h, e.voq.dst().index() as u64);
        fnv(&mut self.h, e.amount);
    }

    fn on_completion(&mut self, e: &CompletionEvent) {
        self.events += 1;
        fnv(&mut self.h, 3);
        fnv(&mut self.h, e.time.to_bits());
        fnv(&mut self.h, e.flow.raw());
        fnv(&mut self.h, e.size);
        fnv(&mut self.h, e.fct.to_bits());
    }

    fn on_decision(&mut self, e: &DecisionEvent<'_>) {
        self.events += 1;
        fnv(&mut self.h, 4);
        fnv(&mut self.h, e.time.to_bits());
        fnv(&mut self.h, e.schedule.len() as u64);
        for (id, q) in e.schedule.iter() {
            fnv(&mut self.h, id.raw());
            fnv(&mut self.h, q.src().index() as u64);
            fnv(&mut self.h, q.dst().index() as u64);
        }
    }

    fn on_sample(&mut self, e: &SampleEvent<'_>) {
        self.events += 1;
        fnv(&mut self.h, 5);
        fnv(&mut self.h, e.time.to_bits());
        fnv(&mut self.h, e.table.total_backlog());
        fnv(&mut self.h, e.delivered.to_bits());
    }
}

fn assert_runs_identical(reference: &SwitchRun, fast: &SwitchRun, label: &str) {
    assert_eq!(
        reference.completions, fast.completions,
        "{label}: completion records"
    );
    assert_eq!(
        reference.delivered_packets, fast.delivered_packets,
        "{label}: delivered packets"
    );
    assert_eq!(
        reference.leftover_packets, fast.leftover_packets,
        "{label}: leftover packets"
    );
    assert_eq!(
        reference.leftover_flows, fast.leftover_flows,
        "{label}: leftover flows"
    );
    assert_eq!(
        reference.total_backlog, fast.total_backlog,
        "{label}: total backlog series"
    );
    assert_eq!(
        reference.max_port_backlog, fast.max_port_backlog,
        "{label}: max port backlog series"
    );
    assert_eq!(
        reference.lyapunov, fast.lyapunov,
        "{label}: Lyapunov series"
    );
    assert_eq!(
        reference.avg_penalty.to_bits(),
        fast.avg_penalty.to_bits(),
        "{label}: avg penalty must be bit-exact"
    );
    assert_eq!(
        reference.avg_total_backlog.to_bits(),
        fast.avg_total_backlog.to_bits(),
        "{label}: avg total backlog must be bit-exact"
    );
}

/// The disciplines the differential quantifies over, covering every
/// validity class: unbounded windows (SRPT, integer-weight fast BASRPT,
/// whose served keys stay constant at `V/N = 1`), analytically bounded windows (MaxWeight, threshold), and the
/// always-recompute fallback (fractional-weight fast BASRPT, and exact
/// BASRPT, which has no invariance argument and whose default 8-port
/// limit fits the 8-port switch).
fn disciplines() -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("srpt", Box::new(Srpt::new())),
        ("maxweight", Box::new(MaxWeight::new())),
        ("threshold", Box::new(ThresholdBacklogSrpt::new(15))),
        // V/N = 1 and 2: integer weights, unbounded validity.
        ("fast_basrpt_w1", Box::new(FastBasrpt::new(8.0, 8))),
        ("fast_basrpt_w2", Box::new(FastBasrpt::new(16.0, 8))),
        // V/N = 0.5: fractional weight, degrades to one-slot validity.
        ("fast_basrpt_w05", Box::new(FastBasrpt::new(4.0, 8))),
        ("exact_basrpt", Box::new(ExactBasrpt::new(16.0))),
    ]
}

fn compare_scripted(
    make_label: &str,
    scheduler: &mut dyn Scheduler,
    reference_scheduler: &mut dyn Scheduler,
    script: Vec<(u64, Voq, u64)>,
    config: RunConfig,
) {
    let mut ref_rec = StreamRecorder::new();
    let reference = reference::run_probed(
        8,
        reference_scheduler,
        &mut ScriptedArrivals::new(script.clone()),
        config,
        &mut ref_rec,
    );
    let mut fast_rec = StreamRecorder::new();
    let fast = run_probed(
        8,
        scheduler,
        &mut ScriptedArrivals::new(script),
        config,
        &mut fast_rec,
    );
    assert_runs_identical(&reference, &fast, make_label);
    assert_eq!(
        ref_rec.events, fast_rec.events,
        "{make_label}: event counts"
    );
    assert_eq!(
        ref_rec.h, fast_rec.h,
        "{make_label}: per-slot event stream hash"
    );
}

/// A fixed workload with idle stretches, bursts, and port contention:
/// exercised under every discipline and two sampling periods (per-slot
/// sampling splits every window; sparse sampling lets windows grow).
#[test]
fn all_disciplines_match_on_a_contended_script() {
    let script = vec![
        (0u64, voq(0, 1), 60u64),
        (0, voq(2, 1), 45),
        (0, voq(1, 0), 30),
        (10, voq(3, 4), 25),
        (11, voq(4, 3), 5),
        (150, voq(0, 1), 40),
        (400, voq(5, 6), 12),
    ];
    for config in [
        RunConfig {
            slots: 600,
            sample_every: 1,
        },
        RunConfig {
            slots: 600,
            sample_every: 97,
        },
    ] {
        for (name, mut sched) in disciplines() {
            let mut reference_sched: Box<dyn Scheduler> = disciplines()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s)
                .expect("same discipline list");
            compare_scripted(
                &format!("{name}/sample_every={}", config.sample_every),
                sched.as_mut(),
                reference_sched.as_mut(),
                script.clone(),
                config,
            );
        }
    }
}

/// Bernoulli arrivals cannot be looked ahead (`ArrivalLookahead::Unknown`),
/// so the driver must poll every slot — yet still skip recomputes while
/// the cached schedule stays provably valid.
#[test]
fn bernoulli_arrivals_match_across_seeds() {
    for seed in [1u64, 2, 3] {
        let mut ref_rec = StreamRecorder::new();
        let reference = reference::run_probed(
            4,
            &mut Srpt::new(),
            &mut BernoulliFlowArrivals::uniform(4, 0.6, 12, seed).unwrap(),
            RunConfig::new(2_000),
            &mut ref_rec,
        );
        let mut fast_rec = StreamRecorder::new();
        let fast = run_probed(
            4,
            &mut Srpt::new(),
            &mut BernoulliFlowArrivals::uniform(4, 0.6, 12, seed).unwrap(),
            RunConfig::new(2_000),
            &mut fast_rec,
        );
        assert_runs_identical(&reference, &fast, &format!("bernoulli/seed{seed}"));
        assert_eq!(ref_rec.h, fast_rec.h, "bernoulli/seed{seed}: stream hash");
        assert!(
            reference.completions.len() > 10,
            "bernoulli/seed{seed}: non-trivial run"
        );
    }
}

/// The acceptance workload: a default-scale (200 k slots, 16 ports)
/// elephant-flow script. The driver must agree bit for bit while
/// invoking the scheduler at least 5× less often than the slot-by-slot
/// reference (it actually does orders of magnitude better: SRPT windows
/// only expire at arrivals, completions, and sampling instants).
#[test]
fn elephant_workload_cuts_scheduler_invocations_by_5x() {
    let mut script = Vec::new();
    let mut slot = 0u64;
    for i in 0..40u64 {
        // Elephants with ~10k-packet mean, spread across ports and time.
        let src = (i % 16) as u32;
        let dst = ((i % 16 + 1 + (i / 16) % 15) % 16) as u32;
        let size = 6_000 + (i * 769) % 9_000;
        script.push((slot, voq(src, dst), size));
        slot += 3_000 + (i * 211) % 2_000;
    }
    let config = RunConfig::new(200_000);

    let mut reference_sched = CountingScheduler::new(Srpt::new());
    let reference = reference::run_probed(
        16,
        &mut reference_sched,
        &mut ScriptedArrivals::new(script.clone()),
        config,
        basrpt::probe::NoProbe,
    );
    let mut fast_sched = CountingScheduler::new(Srpt::new());
    let fast = run_probed(
        16,
        &mut fast_sched,
        &mut ScriptedArrivals::new(script),
        config,
        basrpt::probe::NoProbe,
    );
    assert_runs_identical(&reference, &fast, "elephants");
    assert!(
        reference.completions.len() == 40,
        "every elephant completes within the horizon"
    );
    assert_eq!(reference_sched.calls(), 200_000);
    assert!(
        fast_sched.calls() * 5 <= reference_sched.calls(),
        "the driver made {} scheduler calls vs {} — less than a 5x cut",
        fast_sched.calls(),
        reference_sched.calls()
    );
}

mod random_workloads {
    //! Property tests: bit-identity on *random* scripted workloads across
    //! every discipline — adversarial gaps (including many same-slot
    //! arrivals) and sizes that straddle window boundaries.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn engines_agree_on_random_scripts(
            raw in prop::collection::vec(
                (0u64..120, 0u32..8, 0u32..7, 1u64..80),
                1..25,
            ),
            sample_every in 1u64..64,
        ) {
            let mut slot = 0u64;
            let script: Vec<(u64, Voq, u64)> = raw
                .iter()
                .map(|&(gap, s, d, size)| {
                    slot += gap;
                    let src = s % 8;
                    let dst = (src + 1 + d % 7) % 8;
                    (slot, voq(src, dst), size)
                })
                .collect();
            let config = RunConfig {
                slots: slot + 400,
                sample_every,
            };
            for (name, mut sched) in disciplines() {
                let mut reference_sched: Box<dyn Scheduler> = disciplines()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| s)
                    .expect("same discipline list");
                let mut ref_rec = StreamRecorder::new();
                let reference = reference::run_probed(
                    8,
                    reference_sched.as_mut(),
                    &mut ScriptedArrivals::new(script.clone()),
                    config,
                    &mut ref_rec,
                );
                let mut fast_rec = StreamRecorder::new();
                let fast = run_probed(
                    8,
                    sched.as_mut(),
                    &mut ScriptedArrivals::new(script.clone()),
                    config,
                    &mut fast_rec,
                );
                prop_assert_eq!(&reference.completions, &fast.completions, "{}: completions", name);
                prop_assert_eq!(
                    reference.delivered_packets,
                    fast.delivered_packets,
                    "{}: delivered",
                    name
                );
                prop_assert_eq!(
                    reference.avg_penalty.to_bits(),
                    fast.avg_penalty.to_bits(),
                    "{}: avg penalty",
                    name
                );
                prop_assert_eq!(
                    reference.avg_total_backlog.to_bits(),
                    fast.avg_total_backlog.to_bits(),
                    "{}: avg backlog",
                    name
                );
                prop_assert_eq!(&reference.total_backlog, &fast.total_backlog, "{}: series", name);
                prop_assert_eq!(ref_rec.h, fast_rec.h, "{}: stream hash", name);
            }
        }
    }
}
