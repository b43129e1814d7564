//! Scale bench for the parameterized topology layer.
//!
//! `fat_tree_scale` runs one end-to-end `dcn-fabric` run (not a
//! micro-benchmark) on `KAryFatTree` fabrics from 144 to 9216 hosts, at a
//! fixed simulated horizon, so the measured time tracks how per-event cost
//! grows with fabric size: the greedy matching ranks every active flow in
//! the fabric on every reschedule, so doubling the fabric more than
//! doubles the run time.
//!
//! Medians land in `results/bench.json` via the merging recorder.

use basrpt_bench::{BenchRow, Scale, Timer};
use basrpt_core::Srpt;
use dcn_fabric::{simulate, KAryFatTree, SimConfig, Topology};
use dcn_types::SimTime;
use dcn_workload::{FlowArrival, QueryScope, TrafficSpec};
use std::time::Duration;

/// A cluster-separable arrival vector for `topo`, cut at `horizon`.
fn arrivals_for(
    topo: &KAryFatTree,
    scope: QueryScope,
    load: f64,
    horizon: SimTime,
    seed: u64,
) -> Vec<FlowArrival> {
    TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), load)
        .and_then(|s| s.with_query_scope(scope))
        .expect("valid scoped spec")
        .generator(seed)
        .expect("generator")
        .take_while(|a| a.time <= horizon)
        .collect()
}

/// One global engine across fabric sizes 144 → 9216 hosts.
fn bench_fat_tree_scale() -> Vec<BenchRow> {
    let quick = Scale::from_env() == Scale::Quick;
    let budget = Duration::from_secs(if quick { 1 } else { 3 });
    let mut t = Timer::new("fat_tree_scale", 10, budget);

    // (k, hosts_per_edge): 8·18 = 144, 32·18 = 576, 128·9 = 1152,
    // 128·18 = 2304, 512·18 = 9216 hosts.
    let cells: &[(u32, u32)] = if quick {
        &[(4, 18), (16, 9)]
    } else {
        &[(4, 18), (8, 18), (16, 9), (16, 18), (32, 18)]
    };
    let horizon = SimTime::from_secs(100e-6);
    let cfg = SimConfig::builder().horizon(horizon).build();
    for &(k, hosts_per_edge) in cells {
        let topo = KAryFatTree::builder(k)
            .hosts_per_edge(hosts_per_edge)
            .oversubscription(3.0)
            .build()
            .expect("valid k-ary parameters");
        let arrivals = arrivals_for(&topo, QueryScope::Cluster(k / 2), 0.6, horizon, 11);
        t.time(&format!("end_to_end/{}", topo.num_hosts()), || {
            simulate(&topo, &mut Srpt::new(), arrivals.iter().copied(), cfg).expect("fabric run")
        });
    }
    t.into_rows()
}

fn main() {
    let rows = bench_fat_tree_scale();
    match basrpt_bench::write_merged(&rows) {
        Ok(path) => println!("recorded {} benchmark medians to {path}", rows.len()),
        Err(e) => eprintln!("could not write bench.json: {e}"),
    }
}
