//! Scale benches for the parameterized-topology / sharded-engine redesign.
//!
//! Two groups, both end-to-end `dcn-fabric` runs (not micro-benchmarks):
//!
//! * `fat_tree_scale` — one global engine on `KAryFatTree` fabrics from
//!   144 to 9216 hosts (fixed simulated horizon, so the measured time
//!   tracks how per-event cost grows with fabric size). This is the
//!   motivating curve for sharding: the greedy matching ranks every
//!   active flow in the fabric on every reschedule, so doubling the
//!   fabric more than doubles the run time.
//!
//! * `shard_speedup` — the 1152-host k = 16 fat-tree (9 hosts per edge,
//!   3:1 oversubscribed) under a cluster-separable workload, simulated
//!   via `simulate_sharded` at S ∈ {1, 2, 4, 8} and by the global
//!   `simulate` (the `global` row). Pinned to one core, any speedup over
//!   `global` is purely algorithmic — S independent engines each rank
//!   only their own component's flows, turning one `O(A log A)` matching
//!   per event into `O((A/S) log (A/S))` — and the differential suite
//!   (`tests/shard_differential.rs`) pins every row to the same output
//!   bits.
//!
//! Medians land in `results/bench.json` via the merging recorder.

use basrpt_core::Srpt;
use criterion::{criterion_group, BenchmarkId, Criterion};
use dcn_fabric::{simulate, simulate_sharded, KAryFatTree, SimConfig, Topology};
use dcn_types::SimTime;
use dcn_workload::{FlowArrival, QueryScope, TrafficSpec};
use std::time::Duration;

/// Whether this is the seconds-budget smoke run (`BASRPT_SCALE=quick`).
fn quick() -> bool {
    std::env::var("BASRPT_SCALE").as_deref() == Ok("quick")
}

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
fn bench_fat_tree_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("fat_tree_scale");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(if quick() { 1 } else { 3 }));

    // (k, hosts_per_edge): 8·18 = 144, 32·18 = 576, 128·9 = 1152,
    // 128·18 = 2304, 512·18 = 9216 hosts.
    let cells: &[(u32, u32)] = if quick() {
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
        group.bench_with_input(
            BenchmarkId::new("end_to_end", topo.num_hosts()),
            &arrivals,
            |b, arrivals| {
                b.iter(|| {
                    simulate(&topo, &mut Srpt::new(), arrivals.iter().copied(), cfg)
                        .expect("fabric run")
                })
            },
        );
    }
    group.finish();
}

/// The same 1152-host run at every shard count.
fn bench_shard_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_speedup");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(if quick() { 1 } else { 3 }));

    let topo = KAryFatTree::builder(16)
        .hosts_per_edge(9)
        .oversubscription(3.0)
        .build()
        .expect("valid k-ary parameters");
    let horizon = SimTime::from_secs(if quick() { 200e-6 } else { 500e-6 });
    let cfg = SimConfig::builder().horizon(horizon).build();
    let arrivals = arrivals_for(&topo, QueryScope::Cluster(8), 0.6, horizon, 11);
    let factory = || Srpt::new();
    group.bench_with_input(
        BenchmarkId::from_parameter("global"),
        &arrivals,
        |b, arrivals| {
            b.iter(|| {
                simulate(&topo, &mut Srpt::new(), arrivals.iter().copied(), cfg)
                    .expect("fabric run")
            })
        },
    );
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("end_to_end", shards),
            &arrivals,
            |b, arrivals| {
                b.iter(|| {
                    simulate_sharded(&topo, &factory, arrivals.iter().copied(), cfg, shards)
                        .expect("sharded run")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fat_tree_scale, bench_shard_speedup);

fn main() {
    benches();
    let results = criterion::take_results();
    match basrpt_bench::write_merged(&results) {
        Ok(path) => println!("recorded {} benchmark medians to {path}", results.len()),
        Err(e) => eprintln!("could not write bench.json: {e}"),
    }
}
