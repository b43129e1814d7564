//! Differential tests pinning the champion-indexed schedulers to the
//! full-scan reference.
//!
//! The `FlowTable` maintains a per-VOQ champion index (shortest / oldest
//! flow plus backlog aggregates, repaired incrementally on every insert,
//! drain, and removal); `schedule_champions_adjusted` and the key-driven
//! disciplines read their candidates from it.
//! `basrpt_core::reference::ScanScheduler` instead recomputes every
//! champion with an `O(F)` scan per decision and shares none of the
//! index's state. Running both through the same simulators must produce
//! **bit-identical** observables — completion records, sampled series,
//! the penalty/backlog accumulators, and (through a probe that hashes the
//! full event stream) every per-slot decision and drain, tie-breaks
//! included. The technique is the same as `tests/fastforward_differential.rs`;
//! here the variable is the candidate source, not the driver, and the
//! suite quantifies over both switch drivers and both substrates.

use basrpt::core::reference::ScanScheduler;
use basrpt::core::{FastBasrpt, Fifo, MaxWeight, Scheduler, Srpt, ThresholdBacklogSrpt};
use basrpt::fabric::{simulate_probed, FatTree, SimConfig};
use basrpt::probe::{ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Probe, SampleEvent};
use basrpt::switch::arrivals::BernoulliFlowArrivals;
use basrpt::switch::{reference, run_probed, RunConfig, ScriptedArrivals, SwitchRun};
use basrpt::types::{HostId, SimTime, Voq};
use basrpt::workload::TrafficSpec;

fn voq(src: u32, dst: u32) -> Voq {
    Voq::new(HostId::new(src), HostId::new(dst))
}

fn fnv(h: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Hashes the complete event stream in arrival order (decision latencies
/// excluded — only the scan twin pays measurable decision time).
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

fn assert_runs_identical(indexed: &SwitchRun, scan: &SwitchRun, label: &str) {
    assert_eq!(
        indexed.completions, scan.completions,
        "{label}: completions"
    );
    assert_eq!(
        indexed.delivered_packets, scan.delivered_packets,
        "{label}: delivered packets"
    );
    assert_eq!(
        indexed.leftover_packets, scan.leftover_packets,
        "{label}: leftover packets"
    );
    assert_eq!(
        indexed.leftover_flows, scan.leftover_flows,
        "{label}: leftover flows"
    );
    assert_eq!(
        indexed.total_backlog, scan.total_backlog,
        "{label}: total backlog series"
    );
    assert_eq!(
        indexed.max_port_backlog, scan.max_port_backlog,
        "{label}: max port backlog series"
    );
    assert_eq!(indexed.lyapunov, scan.lyapunov, "{label}: Lyapunov series");
    assert_eq!(
        indexed.avg_penalty.to_bits(),
        scan.avg_penalty.to_bits(),
        "{label}: avg penalty must be bit-exact"
    );
    assert_eq!(
        indexed.avg_total_backlog.to_bits(),
        scan.avg_total_backlog.to_bits(),
        "{label}: avg total backlog must be bit-exact"
    );
}

/// `(name, indexed scheduler, full-scan twin)` for every key-driven
/// discipline and both fast-BASRPT validity classes (integer weight →
/// unbounded windows, fractional weight → one-slot windows). `RoundRobin` and
/// `ExactBasrpt` are excluded by design: neither ranks VOQ champions, so
/// no scan twin exists for them.
type SchedulerPair = (&'static str, Box<dyn Scheduler>, Box<dyn Scheduler>);

fn pairs() -> Vec<SchedulerPair> {
    vec![
        (
            "srpt",
            Box::new(Srpt::new()),
            Box::new(ScanScheduler::new(Srpt::new())),
        ),
        (
            "fifo",
            Box::new(Fifo::new()),
            Box::new(ScanScheduler::new(Fifo::new())),
        ),
        (
            "maxweight",
            Box::new(MaxWeight::new()),
            Box::new(ScanScheduler::new(MaxWeight::new())),
        ),
        (
            "threshold15",
            Box::new(ThresholdBacklogSrpt::new(15)),
            Box::new(ScanScheduler::new(ThresholdBacklogSrpt::new(15))),
        ),
        (
            "fast_basrpt_w2",
            Box::new(FastBasrpt::new(16.0, 8)),
            Box::new(ScanScheduler::new(FastBasrpt::new(16.0, 8))),
        ),
        (
            "fast_basrpt_w05",
            Box::new(FastBasrpt::new(4.0, 8)),
            Box::new(ScanScheduler::new(FastBasrpt::new(4.0, 8))),
        ),
    ]
}

/// The two switch drivers: the slot-by-slot oracle and the product's
/// macro-slot windows.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Reference,
    Run,
}

impl Driver {
    fn run(
        self,
        scheduler: &mut dyn Scheduler,
        script: Vec<(u64, Voq, u64)>,
        config: RunConfig,
        probe: &mut StreamRecorder,
    ) -> SwitchRun {
        let mut arrivals = ScriptedArrivals::new(script);
        match self {
            Driver::Reference => reference::run_probed(8, scheduler, &mut arrivals, config, probe),
            Driver::Run => run_probed(8, scheduler, &mut arrivals, config, probe),
        }
    }
}

fn compare_on_driver(
    label: &str,
    driver: Driver,
    indexed: &mut dyn Scheduler,
    scan: &mut dyn Scheduler,
    script: Vec<(u64, Voq, u64)>,
    config: RunConfig,
) {
    let mut idx_rec = StreamRecorder::new();
    let idx_run = driver.run(indexed, script.clone(), config, &mut idx_rec);
    let mut scan_rec = StreamRecorder::new();
    let scan_run = driver.run(scan, script, config, &mut scan_rec);
    assert_runs_identical(&idx_run, &scan_run, label);
    assert_eq!(idx_rec.events, scan_rec.events, "{label}: event counts");
    assert_eq!(idx_rec.h, scan_rec.h, "{label}: event stream hash");
}

/// A fixed workload with bursts, same-VOQ pileups (champion displacement),
/// port contention, and late stragglers — under every discipline pair,
/// both drivers, and two sampling periods.
#[test]
fn indexed_matches_scan_on_a_contended_script() {
    let script = vec![
        (0u64, voq(0, 1), 60u64),
        (0, voq(0, 1), 9), // same VOQ: displaces the champion
        (0, voq(2, 1), 45),
        (0, voq(1, 0), 30),
        (10, voq(3, 4), 25),
        (11, voq(4, 3), 5),
        (12, voq(3, 4), 25), // duplicate size: id tie-break decides
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
        for driver in [Driver::Reference, Driver::Run] {
            for (name, mut indexed, mut scan) in pairs() {
                compare_on_driver(
                    &format!("{name}/{driver:?}/sample_every={}", config.sample_every),
                    driver,
                    indexed.as_mut(),
                    scan.as_mut(),
                    script.clone(),
                    config,
                );
            }
        }
    }
}

/// Bernoulli arrivals: sustained random load where ids are recycled
/// through completions and champions churn every slot, on the product
/// driver (whose schedule cache and table-version check are the more
/// delicate path).
#[test]
fn indexed_matches_scan_under_bernoulli_load() {
    for seed in [1u64, 7] {
        for (name, mut indexed, mut scan) in pairs() {
            let mut idx_rec = StreamRecorder::new();
            let idx_run = run_probed(
                8,
                indexed.as_mut(),
                &mut BernoulliFlowArrivals::uniform(8, 0.6, 10, seed).unwrap(),
                RunConfig::new(1_500),
                &mut idx_rec,
            );
            let mut scan_rec = StreamRecorder::new();
            let scan_run = run_probed(
                8,
                scan.as_mut(),
                &mut BernoulliFlowArrivals::uniform(8, 0.6, 10, seed).unwrap(),
                RunConfig::new(1_500),
                &mut scan_rec,
            );
            assert_runs_identical(&idx_run, &scan_run, &format!("{name}/seed{seed}"));
            assert_eq!(idx_rec.h, scan_rec.h, "{name}/seed{seed}: stream hash");
            assert!(
                idx_run.completions.len() > 10,
                "{name}/seed{seed}: non-trivial run"
            );
        }
    }
}

/// The flow-level fabric substrate: byte-granular drains, event-driven
/// reschedules, and a fat-tree topology. Indexed and scan twins must
/// produce the same event stream hash and the same aggregates.
#[test]
fn fabric_substrate_pins_indexed_to_scan() {
    let topo = FatTree::scaled(2, 4, 1).unwrap();
    let spec = TrafficSpec::scaled(2, 4, 0.9).unwrap();
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.05))
        .build();
    for (name, mut indexed, mut scan) in pairs() {
        let mut idx_rec = StreamRecorder::new();
        let idx_run = simulate_probed(
            &topo,
            indexed.as_mut(),
            spec.generator(11).unwrap(),
            config,
            &mut idx_rec,
        )
        .unwrap();
        let mut scan_rec = StreamRecorder::new();
        let scan_run = simulate_probed(
            &topo,
            scan.as_mut(),
            spec.generator(11).unwrap(),
            config,
            &mut scan_rec,
        )
        .unwrap();
        assert_eq!(idx_run.arrivals, scan_run.arrivals, "{name}: arrivals");
        assert_eq!(
            idx_run.completions, scan_run.completions,
            "{name}: completions"
        );
        assert_eq!(
            idx_run.leftover_bytes, scan_run.leftover_bytes,
            "{name}: leftover bytes"
        );
        assert_eq!(
            idx_run.leftover_flows, scan_run.leftover_flows,
            "{name}: leftover flows"
        );
        assert_eq!(
            idx_run.reschedules, scan_run.reschedules,
            "{name}: reschedules"
        );
        assert_eq!(idx_rec.events, scan_rec.events, "{name}: event counts");
        assert_eq!(idx_rec.h, scan_rec.h, "{name}: fabric event stream hash");
        assert!(idx_run.completions > 0, "{name}: non-trivial fabric run");
    }
}

mod random_workloads {
    //! Property tests: the indexed scheduler on the product driver vs the
    //! scan twin on the slot-by-slot oracle — one comparison covering
    //! both the candidate source and the driver at once, on
    //! random scripts with same-slot pileups and boundary-straddling
    //! sizes.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn indexed_fastforward_matches_scan_reference(
            raw in prop::collection::vec(
                (0u64..100, 0u32..8, 0u32..7, 1u64..60),
                1..20,
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
                slots: slot + 300,
                sample_every,
            };
            for (name, mut indexed, mut scan) in pairs() {
                let mut idx_rec = StreamRecorder::new();
                let idx_run = run_probed(
                    8,
                    indexed.as_mut(),
                    &mut ScriptedArrivals::new(script.clone()),
                    config,
                    &mut idx_rec,
                );
                let mut scan_rec = StreamRecorder::new();
                let scan_run = reference::run_probed(
                    8,
                    scan.as_mut(),
                    &mut ScriptedArrivals::new(script.clone()),
                    config,
                    &mut scan_rec,
                );
                prop_assert_eq!(&idx_run.completions, &scan_run.completions, "{}: completions", name);
                prop_assert_eq!(
                    idx_run.delivered_packets,
                    scan_run.delivered_packets,
                    "{}: delivered",
                    name
                );
                prop_assert_eq!(
                    idx_run.avg_penalty.to_bits(),
                    scan_run.avg_penalty.to_bits(),
                    "{}: avg penalty",
                    name
                );
                prop_assert_eq!(
                    &idx_run.total_backlog,
                    &scan_run.total_backlog,
                    "{}: series",
                    name
                );
                prop_assert_eq!(idx_rec.h, scan_rec.h, "{}: stream hash", name);
            }
        }
    }
}
