//! Differential tests for the production fabric engine: the delta-rate
//! allocator and the indexed completion calendar.
//!
//! The production engine (`dcn_fabric::simulate`) keeps a persistent
//! `DeltaAllocator` across events and touches only the flows whose rate
//! allocation changed, and finds the next completion through
//! `CompletionCalendar`; `dcn_fabric::reference::simulate_scan` is the
//! eager reference loop — a linear completion rescan, every account
//! settled on every event, the allocation rebuilt on every decision. Both
//! share the
//! exact epoch-based drain accounting and per-instant event ordering, so
//! every observable —
//! event streams, sampled series, FCT summaries, byte conservation — must
//! match **bit for bit** across seeds × disciplines × core-enforcement
//! modes. This is the same pin-the-refactor technique PR 1 used for the
//! incremental scheduler, PR 3 for the calendar, and PR 4 for the
//! fast-forward switch engine.

mod support;

use basrpt::core::{FastBasrpt, MaxWeight, Scheduler, Srpt, ThresholdBacklogSrpt};
use basrpt::fabric::{reference, simulate, simulate_probed, FatTree, SimConfig, Topology};
use basrpt::probe::EventCounterProbe;
use basrpt::types::{FlowClass, Rate, SimTime};
use basrpt::workload::TrafficSpec;
use support::conservation::assert_bit_identical;
use support::fingerprint::fingerprint;

fn config(horizon_secs: f64, enforce_core: bool) -> SimConfig {
    SimConfig::builder()
        .horizon(SimTime::from_secs(horizon_secs))
        .enforce_core_capacity(enforce_core)
        .build()
}

type MakeScheduler = Box<dyn Fn() -> Box<dyn Scheduler>>;

/// Every source of the pair list the allocator adopts: SRPT and fast
/// BASRPT with `V/N ≥ 1` certify carried matchings (at `V/N = 1` a served
/// key stays constant); MaxWeight and fast BASRPT with `V/N < 1` decide
/// by full passes; threshold backlog-aware SRPT builds its schedule pair
/// by pair, without VOQ slots.
fn disciplines() -> Vec<(&'static str, MakeScheduler)> {
    vec![
        ("srpt", Box::new(|| Box::new(Srpt::new()))),
        (
            "fast_basrpt",
            Box::new(|| Box::new(FastBasrpt::new(2500.0 * 8.0 / 144.0, 8))),
        ),
        (
            "fast_basrpt_w1",
            Box::new(|| Box::new(FastBasrpt::new(8.0, 8))),
        ),
        ("maxweight", Box::new(|| Box::new(MaxWeight::new()))),
        (
            "fast_basrpt_sub",
            Box::new(|| Box::new(FastBasrpt::new(4.0, 8))),
        ),
        (
            "threshold",
            Box::new(|| Box::new(ThresholdBacklogSrpt::new(1_000_000))),
        ),
    ]
}

/// Seeds 1..=3 × every discipline above × {free, core-enforced}: run
/// summaries, series fingerprints, and FCT summaries all bit-identical
/// between the delta engine and the eager reference.
#[test]
fn delta_matches_the_reference_across_seeds_and_disciplines() {
    for (name, make) in &disciplines() {
        for seed in 1..=3u64 {
            for enforce in [false, true] {
                let topo = FatTree::scaled(2, 4, 1).unwrap();
                let spec = TrafficSpec::scaled(2, 4, 0.9).unwrap();
                let cfg = config(0.1, enforce);
                let label = format!("{name}/seed{seed}/enforce={enforce}");
                let delta =
                    simulate(&topo, make().as_mut(), spec.generator(seed).unwrap(), cfg).unwrap();
                let scan = reference::simulate_scan(
                    &topo,
                    make().as_mut(),
                    spec.generator(seed).unwrap(),
                    cfg,
                )
                .unwrap();
                assert_bit_identical(&delta, &scan, &format!("{label} vs scan"));
                assert!(delta.completions > 0, "{label}: non-trivial run");
                assert!(
                    delta.fct.summary(FlowClass::Background).is_some(),
                    "{label}: background FCTs recorded"
                );
            }
        }
    }
}

/// An oversubscribed fabric (core budgets binding on every reschedule)
/// exercises the persistent `CoreBudgets` filter: the delta engine must
/// still match the reference filter's admissions bit for bit. Two racks of
/// eight rarely match more cross-rack pairs than their core link carries;
/// four racks behind 20-Gbps core links (4:1) make the filter withhold
/// matched pairs, whose VOQs the lens names and the decisions read.
#[test]
fn delta_matches_references_on_oversubscribed_fabric() {
    let cfg = config(0.1, false); // oversubscription enforces on its own
    let four_to_one = FatTree::new(4, 8, 1, Rate::from_gbps(10.0), Rate::from_gbps(20.0));
    let fabrics = [
        (FatTree::scaled(2, 8, 1).unwrap(), &[5u64, 11][..]),
        (four_to_one.unwrap(), &[5][..]),
    ];
    let mut named = 0;
    for (topo, seeds) in fabrics {
        assert!(!topo.is_full_bisection(), "core must be binding");
        let racks = topo.num_racks();
        let spec = TrafficSpec::scaled(racks, 8, 0.9).unwrap();
        for &seed in seeds {
            let mut srpt = Srpt::new();
            let delta = simulate(&topo, &mut srpt, spec.generator(seed).unwrap(), cfg).unwrap();
            let scan = reference::simulate_scan(
                &topo,
                &mut Srpt::new(),
                spec.generator(seed).unwrap(),
                cfg,
            )
            .unwrap();
            let label = format!("oversubscribed/{racks}x8/seed{seed}");
            assert_bit_identical(&delta, &scan, &label);
            assert!(delta.completions > 0);
            named += srpt.decisions().read_named;
        }
    }
    assert!(
        named > 0,
        "the filter withheld no matched pair across decisions"
    );
}

/// The full event streams match too: counting every arrival, drain,
/// completion, sample, and decision event on both paths gives the same
/// totals (fingerprints above already pin the sampled subset).
#[test]
fn delta_and_references_emit_identical_event_streams() {
    let topo = FatTree::scaled(2, 4, 1).unwrap();
    let spec = TrafficSpec::scaled(2, 4, 0.9).unwrap();
    let cfg = config(0.05, false);
    let mut delta_counter = EventCounterProbe::new();
    let delta = simulate_probed(
        &topo,
        &mut Srpt::new(),
        spec.generator(7).unwrap(),
        cfg,
        &mut delta_counter,
    )
    .unwrap();
    let mut scan_counter = EventCounterProbe::new();
    let scan = reference::simulate_scan_probed(
        &topo,
        &mut Srpt::new(),
        spec.generator(7).unwrap(),
        cfg,
        &mut scan_counter,
    )
    .unwrap();
    assert_eq!(delta_counter.arrivals(), scan_counter.arrivals());
    assert_eq!(delta_counter.drains(), scan_counter.drains());
    assert_eq!(delta_counter.completions(), scan_counter.completions());
    assert_eq!(delta_counter.samples(), scan_counter.samples());
    assert_eq!(delta_counter.decisions(), scan_counter.decisions());
    assert_eq!(fingerprint(&delta), fingerprint(&scan));
}
