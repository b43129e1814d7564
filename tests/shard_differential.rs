//! Differential tests for the sharded fabric engine.
//!
//! `dcn_fabric::simulate_sharded` partitions one run by rack-connected
//! component onto per-shard `DeltaAllocator` engines and merges the event
//! streams deterministically. On separable workloads (rack- or
//! cluster-scoped queries plus the always-rack-local background traffic)
//! every partition-invariant observable must match the single global
//! engine **bit for bit**, and must not depend on the shard count: the
//! fabric couples flows only through shared host NICs and per-rack uplink
//! budgets, so rack-connected components evolve independently no matter
//! which worker simulates them.
//!
//! Pinned here, across seeds × {SRPT, fast BASRPT} × oversubscribed k-ary
//! fabrics × {rack, cluster} query scopes:
//!
//! * global `simulate` vs `simulate_sharded` at S ∈ {1, 2, 4, 8};
//! * shard-count invariance (S = 1 vs each S > 1), including FCT means
//!   compared via `to_bits`;
//! * the ISSUE acceptance cell: a 1152-host `KAryFatTree` (k = 16, 9
//!   hosts per edge, 3:1 oversubscribed) completes and is bit-identical
//!   across shard counts, honouring `BASRPT_SHARDS` via
//!   `support::shards::shards_from_env`.
//!
//! `FabricRun::reschedules` is deliberately *not* compared between
//! different shard counts: it is the sum of per-bin decision counts, and
//! how many flows share one matching depends on the partition (see the
//! `dcn_fabric` shard module docs).

mod support;

use basrpt::core::{FastBasrpt, Scheduler, Srpt};
use basrpt::fabric::{simulate, simulate_sharded, FabricRun, KAryFatTree, SimConfig, Topology};
use basrpt::metrics::TimeSeries;
use basrpt::types::{FlowClass, SimTime};
use basrpt::workload::{QueryScope, TrafficSpec};
use support::shards::{parse_shards, shards_from_env};

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

/// Compares every partition-invariant observable of two runs, FCT means
/// via `to_bits` (no tolerance).
fn assert_bit_identical(a: &FabricRun, b: &FabricRun, label: &str) {
    assert_eq!(a.arrivals, b.arrivals, "{label}: arrivals");
    assert_eq!(a.completions, b.completions, "{label}: completions");
    assert_eq!(a.arrived_bytes, b.arrived_bytes, "{label}: arrived bytes");
    assert_eq!(
        a.throughput.delivered(),
        b.throughput.delivered(),
        "{label}: delivered bytes"
    );
    assert_eq!(
        a.leftover_bytes, b.leftover_bytes,
        "{label}: leftover bytes"
    );
    assert_eq!(
        a.leftover_flows, b.leftover_flows,
        "{label}: leftover flows"
    );
    assert_eq!(
        fingerprint(a),
        fingerprint(b),
        "{label}: sampled series fingerprint"
    );
    for class in [FlowClass::Query, FlowClass::Background] {
        match (a.fct.summary(class), b.fct.summary(class)) {
            (Some(x), Some(y)) => {
                assert_eq!(x.count, y.count, "{label}: {class:?} FCT count");
                assert_eq!(
                    x.mean_secs.to_bits(),
                    y.mean_secs.to_bits(),
                    "{label}: {class:?} FCT mean bits"
                );
            }
            (None, None) => {}
            _ => panic!("{label}: {class:?} FCT summary presence differs"),
        }
    }
}

/// An oversubscribed k = 4 fat-tree (8 racks × 6 hosts = 48 hosts, 3:1)
/// with a separable workload in the given query scope.
fn small_fabric(scope: QueryScope) -> (KAryFatTree, TrafficSpec) {
    let topo = KAryFatTree::builder(4)
        .hosts_per_edge(6)
        .oversubscription(3.0)
        .build()
        .expect("valid k-ary parameters");
    let spec = TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.7)
        .and_then(|s| s.with_query_scope(scope))
        .expect("valid scoped spec");
    (topo, spec)
}

fn config(horizon_secs: f64) -> SimConfig {
    SimConfig::builder()
        .horizon(SimTime::from_secs(horizon_secs))
        .build()
}

/// The full differential matrix on the small oversubscribed fabric.
#[test]
fn sharded_run_is_bit_identical_to_global_and_shard_count_invariant() {
    for scope in [QueryScope::Rack, QueryScope::Cluster(2)] {
        let (topo, spec) = small_fabric(scope);
        let cfg = config(0.02);
        for seed in [1u64, 2] {
            run_matrix(&topo, &spec, cfg, seed, scope, "srpt", &|| Srpt::new());
            let hosts = topo.num_hosts();
            let v = 2500.0 * 8.0 / hosts as f64;
            run_matrix(&topo, &spec, cfg, seed, scope, "fast-basrpt", &|| {
                FastBasrpt::new(v, hosts as usize)
            });
        }
    }
}

fn run_matrix<S, F>(
    topo: &KAryFatTree,
    spec: &TrafficSpec,
    cfg: SimConfig,
    seed: u64,
    scope: QueryScope,
    name: &str,
    factory: &F,
) where
    S: Scheduler,
    F: Fn() -> S + Sync,
{
    // The generator is an endless Poisson stream; cut it at the horizon so
    // both engines consume exactly the same finite arrival vector.
    let arrivals: Vec<_> = spec
        .generator(seed)
        .expect("generator")
        .take_while(|a| a.time <= cfg.horizon)
        .collect();

    let mut sched = factory();
    let global = simulate(topo, &mut sched, arrivals.iter().copied(), cfg).expect("global run");

    let base = simulate_sharded(topo, factory, arrivals.iter().copied(), cfg, 1)
        .expect("sharded run at S=1");
    let label = |s: usize| format!("{name} seed {seed} scope {scope:?} S={s}");
    assert_bit_identical(&global, &base.run, &format!("{} vs global", label(1)));
    assert_eq!(
        global.reschedules,
        base.run.reschedules,
        "{}: reschedules vs global",
        label(1)
    );

    for shards in [2usize, 4, 8] {
        let sharded = simulate_sharded(topo, factory, arrivals.iter().copied(), cfg, shards)
            .expect("sharded run");
        assert!(
            sharded.shards_used >= 1 && sharded.shards_used <= shards,
            "{}: shard count out of range",
            label(shards)
        );
        assert_bit_identical(&base.run, &sharded.run, &label(shards));
        assert_eq!(
            base.completion_log.len(),
            sharded.completion_log.len(),
            "{}: completion log length",
            label(shards)
        );
        for (x, y) in base.completion_log.iter().zip(&sharded.completion_log) {
            assert_eq!(x.flow, y.flow, "{}: completion order", label(shards));
            assert_eq!(
                x.time.as_secs().to_bits(),
                y.time.as_secs().to_bits(),
                "{}: completion instant bits",
                label(shards)
            );
        }
    }
}

/// ISSUE acceptance: a ≥ 1152-host parameterized fat-tree run completes
/// and every observable is bit-identical across `BASRPT_SHARDS` ∈
/// {1, 2, 4, 8} (plus whatever the environment selects — `make verify`
/// runs this file under `BASRPT_SHARDS=2`).
#[test]
fn kary_1152_host_run_is_shard_count_invariant() {
    let topo = KAryFatTree::builder(16)
        .hosts_per_edge(9)
        .oversubscription(3.0)
        .build()
        .expect("valid k-ary parameters");
    assert_eq!(topo.num_hosts(), 1152);

    let spec = TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.5)
        .and_then(|s| s.with_query_scope(QueryScope::Cluster(8)))
        .expect("valid scoped spec");
    let cfg = config(0.001);
    let arrivals: Vec<_> = spec
        .generator(5)
        .expect("generator")
        .take_while(|a| a.time <= cfg.horizon)
        .collect();

    let factory = || Srpt::new();
    let mut shard_counts = vec![1usize, 2, 4, 8];
    let from_env = shards_from_env();
    if !shard_counts.contains(&from_env) {
        shard_counts.push(from_env);
    }

    let mut baseline: Option<basrpt::fabric::ShardedRun> = None;
    for shards in shard_counts {
        let run = simulate_sharded(&topo, &factory, arrivals.iter().copied(), cfg, shards)
            .expect("1152-host sharded run");
        assert!(run.run.completions > 0, "S={shards}: no completions");
        match &baseline {
            None => baseline = Some(run),
            Some(base) => {
                assert_bit_identical(&base.run, &run.run, &format!("1152-host S={shards}"));
            }
        }
    }
}

#[test]
fn shards_env_parses() {
    // Unset, empty, non-numeric and zero all read as the single-bin path.
    for value in [None, Some(""), Some("four"), Some("0"), Some("-2")] {
        assert_eq!(parse_shards(value), 1, "{value:?}");
    }
    assert_eq!(parse_shards(Some("4")), 4);
    assert_eq!(parse_shards(Some(" 2\n")), 2);
    assert!(shards_from_env() >= 1);
}
