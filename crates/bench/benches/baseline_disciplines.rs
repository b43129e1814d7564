//! End-to-end cost of the baseline disciplines on one congested fabric.
//!
//! One group, `baseline_disciplines`: the same oversubscribed k-ary
//! fat-tree workload run through each engine the baselines added —
//!
//! * `srpt` — the production delta-rate engine with the aggregate core
//!   filter (the reference point every other engine is measured against);
//! * `fair_share` — the incremental max-min water-filling engine, whose
//!   per-event cost is dominated by allocator rounds instead of the
//!   crossbar matching;
//! * `ecmp_srpt` — single-path routing: the per-plane budget filter in
//!   place of the aggregate one, no replication;
//! * `repflow` — ECMP plus replica races for every sub-100 KB flow, which
//!   adds the race bookkeeping and a second admission pass on top.
//!
//! Three more rows price the fair-share engine at the paper's scale:
//! `FatTree::paper_topology()` under `TrafficSpec::paper_default(0.95)`,
//! seed 1. `paper_fabric/fair_share` runs 20 sim-ms (5 under
//! `BASRPT_SCALE=quick`) with a few samples, since one run takes about a
//! second. `paper_fabric_300ms/fair_share` and
//! `paper_fabric_300ms/fast_basrpt` run the same arrivals for 300 sim-ms
//! (10 under quick), two samples each, so the ratio of fair share to the
//! paper's fast BASRPT (V = 2500) reads off one group.
//!
//! Medians land in `results/bench.json` via the merging recorder, so the
//! relative cost of the baselines is tracked alongside the scale curves.

use basrpt_bench::{BenchRow, Scale, Timer};
use basrpt_core::{FastBasrpt, RepFlow, Srpt};
use dcn_fabric::{
    simulate, simulate_ecmp, simulate_fair_share, simulate_repflow, FatTree, KAryFatTree,
    SimConfig, Topology,
};
use dcn_types::SimTime;
use dcn_workload::{FlowArrival, TrafficSpec};
use std::time::Duration;

/// The measured fabric: 2:1 oversubscribed, two core planes of exactly
/// one edge-rate flow each, so the plane filters bind and RepFlow's
/// races actually run (the same shape the differential suites pin).
fn bench_topology() -> KAryFatTree {
    KAryFatTree::builder(4)
        .hosts_per_edge(4)
        .oversubscription(2.0)
        .build()
        .expect("valid k-ary parameters")
}

fn arrivals_for(topo: &KAryFatTree, load: f64, horizon: SimTime, seed: u64) -> Vec<FlowArrival> {
    TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), load)
        .expect("valid scaled spec")
        .generator(seed)
        .expect("generator")
        .take_while(|a| a.time < horizon)
        .collect()
}

/// The paper's arrivals (load 0.95, seed 1) before `horizon`.
fn paper_arrivals(horizon: SimTime) -> Vec<FlowArrival> {
    TrafficSpec::paper_default(0.95)
        .expect("valid paper spec")
        .generator(1)
        .expect("generator")
        .take_while(|a| a.time < horizon)
        .collect()
}

fn bench_baseline_disciplines() -> Vec<BenchRow> {
    let quick = Scale::from_env() == Scale::Quick;
    let budget = Duration::from_secs(if quick { 1 } else { 3 });
    let mut t = Timer::new("baseline_disciplines", 10, budget);

    let topo = bench_topology();
    let horizon = SimTime::from_millis(if quick { 5.0 } else { 20.0 });
    let cfg = SimConfig::builder().horizon(horizon).build();
    let arrivals = arrivals_for(&topo, 0.8, horizon, 11);

    t.time("end_to_end/srpt", || {
        simulate(&topo, &mut Srpt::new(), arrivals.iter().copied(), cfg).expect("fabric run")
    });
    t.time("end_to_end/fair_share", || {
        simulate_fair_share(&topo, arrivals.iter().copied(), cfg).expect("fabric run")
    });
    t.time("end_to_end/ecmp_srpt", || {
        simulate_ecmp(&topo, &mut Srpt::new(), arrivals.iter().copied(), cfg).expect("fabric run")
    });
    t.time("end_to_end/repflow", || {
        let mut sched = RepFlow::default();
        simulate_repflow(&topo, &mut sched, arrivals.iter().copied(), cfg).expect("fabric run")
    });

    let paper = FatTree::paper_topology();
    let horizon = SimTime::from_millis(if quick { 5.0 } else { 20.0 });
    let cfg = SimConfig::builder().horizon(horizon).build();
    let arrivals = paper_arrivals(horizon);
    let mut paper_t = Timer::new("baseline_disciplines", 3, Duration::from_secs(1));
    paper_t.time("paper_fabric/fair_share", || {
        simulate_fair_share(&paper, arrivals.iter().copied(), cfg).expect("fabric run")
    });

    let horizon = SimTime::from_millis(if quick { 10.0 } else { 300.0 });
    let cfg = SimConfig::builder().horizon(horizon).build();
    let arrivals = paper_arrivals(horizon);
    let mut long_t = Timer::new("baseline_disciplines", 2, Duration::from_secs(1));
    long_t.time("paper_fabric_300ms/fair_share", || {
        simulate_fair_share(&paper, arrivals.iter().copied(), cfg).expect("fabric run")
    });
    long_t.time("paper_fabric_300ms/fast_basrpt", || {
        let mut sched = FastBasrpt::new(2500.0, paper.num_hosts() as usize);
        simulate(&paper, &mut sched, arrivals.iter().copied(), cfg).expect("fabric run")
    });
    [t, paper_t, long_t]
        .into_iter()
        .flat_map(Timer::into_rows)
        .collect()
}

/// One full RepFlow run on the bench fabric, reported as a replication
/// effectiveness summary (the timed group above measures cost; this
/// measures what the races buy).
fn print_replication_summary() {
    let topo = bench_topology();
    let horizon = SimTime::from_millis(20.0);
    let cfg = SimConfig::builder().horizon(horizon).build();
    let arrivals = arrivals_for(&topo, 0.8, horizon, 11);
    let rep = simulate_repflow(
        &topo,
        &mut RepFlow::default(),
        arrivals.iter().copied(),
        cfg,
    )
    .expect("fabric run");
    let s = &rep.stats;
    let wins: Vec<f64> = rep
        .completions
        .iter()
        .filter(|c| c.winner.is_some())
        .map(|c| (c.base_fct - c.fct).as_secs() * 1e6)
        .collect();
    let mean_gain_us = wins.iter().sum::<f64>() / wins.len().max(1) as f64;
    println!("\nreplication effectiveness (20 ms, 80% load, seed 11):");
    println!(
        "  flows {} | replicated {} | replica wins {} | mean FCT gain per win {:.1} us",
        rep.run.arrivals, s.replicated_flows, s.replica_wins, mean_gain_us
    );
    println!(
        "  replica bytes {} (winning {} / losing {} / racing {}) | cancelled primary bytes {}",
        s.replica_bytes,
        s.winning_replica_bytes,
        s.losing_replica_bytes,
        s.racing_replica_bytes,
        s.cancelled_primary_bytes
    );
}

fn main() {
    let rows = bench_baseline_disciplines();
    match basrpt_bench::write_merged(&rows) {
        Ok(path) => println!("recorded {} benchmark medians to {path}", rows.len()),
        Err(e) => eprintln!("could not write bench.json: {e}"),
    }
    print_replication_summary();
}
