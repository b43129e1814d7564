//! Differential tests for the delta-rate fabric engine.
//!
//! The production engine (`dcn_fabric::simulate`) keeps a persistent
//! `DeltaAllocator` across events and touches only the flows whose rate
//! allocation changed; `dcn_fabric::reference::simulate_scan` is the eager
//! reference loop — a linear completion rescan, every account settled on
//! every event, the allocation rebuilt on every decision. Both share the
//! exact epoch-based drain accounting and per-instant event ordering, so
//! every observable —
//! event streams, sampled series, FCT summaries, byte conservation — must
//! match **bit for bit** across seeds × disciplines × core-enforcement
//! modes. This is the same pin-the-refactor technique PR 1 used for the
//! incremental scheduler, PR 3 for the calendar, and PR 4 for the
//! fast-forward switch engine.

mod support;

use basrpt::core::{FastBasrpt, Fifo, MaxWeight, RoundRobin, Scheduler, Srpt};
use basrpt::fabric::{reference, simulate, simulate_probed, FatTree, SimConfig, Topology};
use basrpt::probe::EventCounterProbe;
use basrpt::types::SimTime;
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

/// Every source of the pair list the allocator adopts: SRPT, FIFO and fast
/// BASRPT with `V/N ≥ 1` certify carried matchings; MaxWeight and fast
/// BASRPT with `V/N < 1` decide by full passes; round-robin builds its
/// schedule pair by pair, without VOQ slots, and settles eagerly.
fn disciplines() -> Vec<(&'static str, MakeScheduler)> {
    vec![
        ("srpt", Box::new(|| Box::new(Srpt::new()))),
        (
            "fast_basrpt",
            Box::new(|| Box::new(FastBasrpt::new(2500.0 * 8.0 / 144.0, 8))),
        ),
        ("fifo", Box::new(|| Box::new(Fifo::new()))),
        ("maxweight", Box::new(|| Box::new(MaxWeight::new()))),
        (
            "fast_basrpt_sub",
            Box::new(|| Box::new(FastBasrpt::new(4.0, 8))),
        ),
        ("round_robin", Box::new(|| Box::new(RoundRobin::new()))),
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
            }
        }
    }
}

/// An oversubscribed fabric (core budgets binding on every reschedule)
/// exercises the persistent `CoreBudgets` filter: the delta engine must
/// still match the reference filter's admissions bit for bit.
#[test]
fn delta_matches_references_on_oversubscribed_fabric() {
    let topo = FatTree::scaled(2, 8, 1).unwrap();
    assert!(!topo.is_full_bisection(), "core must be binding");
    let spec = TrafficSpec::scaled(2, 8, 0.9).unwrap();
    let cfg = config(0.1, false); // oversubscription enforces on its own
    for seed in [5u64, 11] {
        let delta = simulate(&topo, &mut Srpt::new(), spec.generator(seed).unwrap(), cfg).unwrap();
        let scan =
            reference::simulate_scan(&topo, &mut Srpt::new(), spec.generator(seed).unwrap(), cfg)
                .unwrap();
        assert_bit_identical(&delta, &scan, &format!("oversubscribed/seed{seed}"));
        assert!(delta.completions > 0);
    }
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
