//! Differential tests for the indexed completion calendar.
//!
//! The production engine finds the next completion through
//! `dcn_fabric::CompletionCalendar`; `dcn_fabric::reference::simulate_scan`
//! runs the identical event loop with the seed engine's linear rescan.
//! Both paths share the exact epoch-based drain accounting, so every
//! observable — event streams, sampled series, FCT summaries, byte
//! conservation — must match **bit for bit** across seeds and disciplines.
//! This is the same pin-the-refactor technique PR 1 used for the
//! incremental scheduler and PR 2 for the probe redesign.

use basrpt::core::{FastBasrpt, Scheduler, Srpt};
use basrpt::fabric::{reference, simulate, simulate_probed, FabricRun, FatTree, SimConfig};
use basrpt::metrics::TimeSeries;
use basrpt::probe::EventCounterProbe;
use basrpt::types::{FlowClass, SimTime};
use basrpt::workload::TrafficSpec;

fn fnv(h: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn series_hash(h: &mut u64, ts: &TimeSeries) {
    fnv(h, ts.len() as u64);
    for (&t, &v) in ts.times().iter().zip(ts.values()) {
        fnv(h, t.to_bits());
        fnv(h, v.to_bits());
    }
}

fn fingerprint(run: &FabricRun) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    series_hash(&mut h, &run.total_backlog);
    series_hash(&mut h, &run.monitored_port_backlog);
    series_hash(&mut h, &run.max_port_backlog);
    series_hash(&mut h, &run.cumulative_delivered);
    h
}

fn run_pair(make: &dyn Fn() -> Box<dyn Scheduler>, seed: u64) -> (FabricRun, FabricRun) {
    let topo = FatTree::scaled(2, 4, 1).unwrap();
    let spec = TrafficSpec::scaled(2, 4, 0.9).unwrap();
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.1))
        .build();
    let calendar = simulate(
        &topo,
        make().as_mut(),
        spec.generator(seed).unwrap(),
        config,
    )
    .unwrap();
    let scan = reference::simulate_scan(
        &topo,
        make().as_mut(),
        spec.generator(seed).unwrap(),
        config,
    )
    .unwrap();
    (calendar, scan)
}

fn assert_bit_identical(cal: &FabricRun, scan: &FabricRun, label: &str) {
    assert_eq!(cal.arrivals, scan.arrivals, "{label}: arrivals");
    assert_eq!(cal.completions, scan.completions, "{label}: completions");
    assert_eq!(cal.reschedules, scan.reschedules, "{label}: reschedules");
    assert_eq!(
        cal.arrived_bytes, scan.arrived_bytes,
        "{label}: arrived bytes"
    );
    assert_eq!(
        cal.throughput.delivered(),
        scan.throughput.delivered(),
        "{label}: delivered bytes"
    );
    assert_eq!(
        cal.leftover_bytes, scan.leftover_bytes,
        "{label}: leftover bytes"
    );
    assert_eq!(
        cal.leftover_flows, scan.leftover_flows,
        "{label}: leftover flows"
    );
    assert_eq!(
        fingerprint(cal),
        fingerprint(scan),
        "{label}: sampled series fingerprint"
    );
    let (c, s) = (
        cal.fct.summary(FlowClass::Background).unwrap(),
        scan.fct.summary(FlowClass::Background).unwrap(),
    );
    assert_eq!(c.count, s.count, "{label}: FCT count");
    assert_eq!(
        c.mean_secs.to_bits(),
        s.mean_secs.to_bits(),
        "{label}: FCT mean must be bit-exact"
    );
    assert_eq!(
        c.p99_secs.to_bits(),
        s.p99_secs.to_bits(),
        "{label}: FCT p99 must be bit-exact"
    );
}

/// Seeds 1..=3 × {SRPT, FastBasrpt}: run summaries, series fingerprints,
/// and FCT summaries all bit-identical between the calendar engine and the
/// reference rescan loop.
#[test]
fn calendar_matches_reference_loop_across_seeds_and_disciplines() {
    type MakeScheduler = Box<dyn Fn() -> Box<dyn Scheduler>>;
    let disciplines: Vec<(&str, MakeScheduler)> = vec![
        ("srpt", Box::new(|| Box::new(Srpt::new()))),
        (
            "fast_basrpt",
            Box::new(|| Box::new(FastBasrpt::new(2500.0 * 8.0 / 144.0, 8))),
        ),
    ];
    for (name, make) in &disciplines {
        for seed in 1..=3u64 {
            let (cal, scan) = run_pair(make.as_ref(), seed);
            assert_bit_identical(&cal, &scan, &format!("{name}/seed{seed}"));
            assert!(cal.completions > 0, "{name}/seed{seed}: non-trivial run");
        }
    }
}

/// The full event streams match too: counting every arrival, drain,
/// completion, sample, and decision event on both paths gives the same
/// totals (fingerprints above already pin the sampled subset).
#[test]
fn calendar_and_reference_emit_identical_event_streams() {
    let topo = FatTree::scaled(2, 4, 1).unwrap();
    let spec = TrafficSpec::scaled(2, 4, 0.9).unwrap();
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.05))
        .build();
    let mut cal_counter = EventCounterProbe::new();
    let cal = simulate_probed(
        &topo,
        &mut Srpt::new(),
        spec.generator(7).unwrap(),
        config,
        &mut cal_counter,
    )
    .unwrap();
    let mut scan_counter = EventCounterProbe::new();
    let scan = reference::simulate_scan_probed(
        &topo,
        &mut Srpt::new(),
        spec.generator(7).unwrap(),
        config,
        &mut scan_counter,
    )
    .unwrap();
    assert_eq!(cal_counter.arrivals(), scan_counter.arrivals());
    assert_eq!(cal_counter.drains(), scan_counter.drains());
    assert_eq!(cal_counter.completions(), scan_counter.completions());
    assert_eq!(cal_counter.samples(), scan_counter.samples());
    assert_eq!(cal_counter.decisions(), scan_counter.decisions());
    assert_eq!(fingerprint(&cal), fingerprint(&scan));
}
