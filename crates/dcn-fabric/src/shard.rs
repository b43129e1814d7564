//! Sharded single-run execution: one simulation, partitioned by rack.
//!
//! The flow-level engine couples two flows only through shared capacity:
//! a host NIC (same endpoint) or a rack uplink budget (same rack). Racks
//! that no flow ever connects therefore evolve **independently** — the
//! scheduler's greedy matching admits a flow iff its own ports are free,
//! and the core-budget filter charges only the flow's own racks, so the
//! decision restricted to one rack-connected component is a pure function
//! of that component's flows. [`ShardPlan`] computes those components by
//! union-find over the workload's (source rack, destination rack) edges,
//! packs them into at most `S` bins, and [`simulate_sharded`] drives each
//! bin through its own delta-rate engine (own [`DeltaAllocator`]
//! [`crate::DeltaAllocator`], own scheduler instance from a factory
//! closure) on scoped worker threads.
//!
//! The merge is deterministic and observable-exact:
//!
//! * counts and byte totals are sums of per-bin `u64`s;
//! * sampled series live on the same `0, Δ, 2Δ…` grid in every bin (the
//!   sample instant participates in each engine's next-event `min`), and
//!   every sampled value is an integer-valued `f64` — per-gridpoint sums
//!   (and the per-gridpoint `max` for the max-port series) are exact;
//! * FCT recorders are rebuilt from the merged [`CompletionRecord`] log
//!   sorted by (completion instant, flow id) — a partition-independent
//!   order — so summary statistics are bit-identical for every shard
//!   count. `BASRPT_SHARDS = 1` takes the same merge path, which is what
//!   `tests/shard_differential.rs` pins across `S ∈ {1, 2, 4, 8}`.
//!
//! One observable is intentionally **not** partition-invariant:
//! [`FabricRun::reschedules`] reports the *sum of per-bin decisions*. The
//! unsharded engine recomputes one global schedule on every event of every
//! component, so its count differs by construction (and its per-decision
//! cost is larger — the whole point: a bin's matching costs
//! `O((P/S)² log (P/S))` against the global `O(P² log P)`, which is where
//! the sharded speedup comes from; see `PERFMODEL.md`).

use crate::engine::{FabricError, FabricRun, SimConfig};
use crate::fairshare::FairShare;
use crate::online::{run_batch, Crossbar};
use crate::topology::Topology;
use basrpt_core::Scheduler;
use dcn_metrics::{FctRecorder, SizeBucketRecorder, ThroughputMeter, TimeSeries};
use dcn_probe::NoProbe;
use dcn_types::{Bytes, FlowClass, FlowId, RackId, SimTime, Voq};
use dcn_workload::FlowArrival;
use std::collections::HashMap;

/// One completed flow in the merged, time-sorted completion log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// The completed flow.
    pub flow: FlowId,
    /// The completion instant.
    pub time: SimTime,
    /// The VOQ the flow occupied.
    pub voq: Voq,
    /// The flow's traffic class.
    pub class: FlowClass,
    /// The flow's size.
    pub size: Bytes,
    /// The recorded flow completion time (includes any configured base
    /// latency).
    pub fct: SimTime,
}

/// The rack partition of one workload: rack-connected components, packed
/// into at most `shards` bins.
///
/// Built by union-find over the arrivals' (source rack, destination rack)
/// edges; components are weighted by flow count and packed largest-first
/// onto the least-loaded bin, so the plan is a deterministic function of
/// (topology, workload, shard count).
///
/// # Example
///
/// ```
/// use dcn_fabric::{KAryFatTree, ShardPlan};
/// use dcn_workload::TrafficSpec;
///
/// let topo = KAryFatTree::builder(4).build()?;
/// let spec = TrafficSpec::scaled(8, 2, 0.5)?;
/// let arrivals: Vec<_> = spec.generator(7)?.take(200).collect();
/// let plan = ShardPlan::new(&topo, &arrivals, 4);
/// assert!(plan.shards_used() >= 1 && plan.shards_used() <= 4);
/// assert!(plan.components() >= plan.shards_used());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Bin index of each rack (`usize::MAX` for racks no flow touches).
    bin_of_rack: Vec<usize>,
    components: usize,
    shards_used: usize,
}

/// Path-halving union-find over rack indices.
fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

impl ShardPlan {
    /// Partitions `arrivals` over `topo`'s racks into at most `shards`
    /// bins (at least one). Arrivals referencing hosts outside the
    /// topology are assigned to bin 0 so the engine reports them as
    /// [`FabricError::BadArrival`] rather than panicking here.
    pub fn new<T: Topology + ?Sized>(
        topo: &T,
        arrivals: &[FlowArrival],
        shards: usize,
    ) -> ShardPlan {
        let num_racks = topo.num_racks() as usize;
        let mut parent: Vec<u32> = (0..num_racks as u32).collect();
        let mut touched = vec![false; num_racks];
        for a in arrivals {
            if !topo.contains(a.voq.src()) || !topo.contains(a.voq.dst()) {
                continue;
            }
            let s = topo.rack_of(a.voq.src()).index();
            let d = topo.rack_of(a.voq.dst()).index();
            touched[s as usize] = true;
            touched[d as usize] = true;
            let (rs, rd) = (uf_find(&mut parent, s), uf_find(&mut parent, d));
            if rs != rd {
                // Deterministic union: smaller root wins.
                let (lo, hi) = if rs < rd { (rs, rd) } else { (rd, rs) };
                parent[hi as usize] = lo;
            }
        }
        // Component ids in rack order; weight = flows per component.
        let mut comp_of_root: HashMap<u32, usize> = HashMap::new();
        let mut comp_of_rack = vec![usize::MAX; num_racks];
        for rack in 0..num_racks {
            if touched[rack] {
                let root = uf_find(&mut parent, rack as u32);
                let next = comp_of_root.len();
                let comp = *comp_of_root.entry(root).or_insert(next);
                comp_of_rack[rack] = comp;
            }
        }
        let components = comp_of_root.len();
        let mut weight = vec![0u64; components];
        for a in arrivals {
            if topo.contains(a.voq.src()) && topo.contains(a.voq.dst()) {
                weight[comp_of_rack[topo.rack_of(a.voq.src()).as_usize()]] += 1;
            }
        }
        // Largest component first onto the least-loaded bin (ties: lower
        // component id, lower bin index) — deterministic best-effort
        // balance. The merge is order-insensitive, so packing only affects
        // wall-clock, never output bits.
        let shards_used = shards.max(1).min(components.max(1));
        let mut order: Vec<usize> = (0..components).collect();
        order.sort_unstable_by(|&a, &b| weight[b].cmp(&weight[a]).then(a.cmp(&b)));
        let mut bin_load = vec![0u64; shards_used];
        let mut bin_of_comp = vec![0usize; components];
        for comp in order {
            let bin = (0..shards_used)
                .min_by_key(|&b| (bin_load[b], b))
                .expect("at least one bin");
            bin_of_comp[comp] = bin;
            bin_load[bin] += weight[comp];
        }
        let bin_of_rack = comp_of_rack
            .into_iter()
            .map(|c| {
                if c == usize::MAX {
                    usize::MAX
                } else {
                    bin_of_comp[c]
                }
            })
            .collect();
        ShardPlan {
            bin_of_rack,
            components,
            shards_used,
        }
    }

    /// Number of rack-connected components the workload induces.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Number of bins actually used (`min(shards, components)`, at least
    /// one).
    pub fn shards_used(&self) -> usize {
        self.shards_used
    }

    /// The bin a rack was assigned to, or `None` if no flow touches it.
    pub fn bin_of_rack(&self, rack: RackId) -> Option<usize> {
        match self.bin_of_rack.get(rack.as_usize()) {
            Some(&bin) if bin != usize::MAX => Some(bin),
            _ => None,
        }
    }

    /// The bin an arrival belongs to (bin 0 for out-of-topology arrivals,
    /// which the engine then rejects).
    fn bin_of_arrival<T: Topology + ?Sized>(&self, topo: &T, a: &FlowArrival) -> usize {
        if !topo.contains(a.voq.src()) {
            return 0;
        }
        self.bin_of_rack(topo.rack_of(a.voq.src()))
            .unwrap_or_default()
    }
}

/// The measurements of one sharded run: the merged [`FabricRun`] plus the
/// partition facts and the deterministic completion log.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The merged run. Every field is the exact partition-invariant
    /// observable except [`FabricRun::reschedules`], which is the sum of
    /// per-bin decision counts (see the module docs).
    pub run: FabricRun,
    /// Number of bins the run was partitioned into.
    pub shards_used: usize,
    /// Number of rack-connected components the workload induced.
    pub components: usize,
    /// Every completion, sorted by (completion instant, flow id) — the
    /// deterministic merge order the FCT recorders were rebuilt in.
    pub completion_log: Vec<CompletionRecord>,
}

/// Runs one simulation partitioned into `shards` rack-disjoint bins, each
/// driven by its own delta-rate engine with a fresh scheduler from
/// `factory`, on scoped worker threads; merges the per-bin runs
/// deterministically (see the module docs). Each bin builds its own
/// scheduler because a discipline's carried state (its
/// [`Ranking`](basrpt_core::Ranking)) must not be shared across bins.
///
/// All partition-invariant observables — arrival/completion counts, byte
/// totals, sampled series, FCT statistics — are **bit-identical for every
/// `shards` value**, including 1. Requesting more shards than the
/// workload has rack-connected components clamps to the component count.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`] (lowest bin index wins when several bins fail).
pub fn simulate_sharded<T, S, F>(
    topo: &T,
    factory: &F,
    arrivals: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    shards: usize,
) -> Result<ShardedRun, FabricError>
where
    T: Topology + Sync + ?Sized,
    S: Scheduler,
    F: Fn() -> S + Sync,
{
    run_partitioned(topo, arrivals, config, shards, |bin_arrivals| {
        let mut scheduler = factory();
        run_batch(topo, bin_arrivals, config, NoProbe, true, |enforce_core| {
            Crossbar::new(topo, &mut scheduler, enforce_core, 1)
        })
        .map(|(run, _, log)| (run, log))
    })
}

/// Runs one **max-min fair-share** simulation partitioned into `shards`
/// rack-disjoint bins — the sharded companion of
/// [`simulate_fair_share`](crate::simulate_fair_share), sharing
/// [`simulate_sharded`]'s plan and deterministic merge.
///
/// Fair-share is rack-separable under the same argument as the matching
/// engine: the water-filler's constraints (host NICs, rack up/downlinks)
/// each involve hosts of exactly one rack, so flows of disjoint
/// rack-components never share a constraint — every round's fill levels,
/// freezes and residual subtractions restricted to one component are
/// unaffected by the other components' flows, and the component-wise
/// allocation is bit-identical to the global one.
/// `tests/fairshare_differential.rs` pins this across `BASRPT_SHARDS ∈
/// {1, 4}`.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`] (lowest bin index wins when several bins fail).
pub fn simulate_fair_share_sharded<T>(
    topo: &T,
    arrivals: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    shards: usize,
) -> Result<ShardedRun, FabricError>
where
    T: Topology + Sync + ?Sized,
{
    run_partitioned(topo, arrivals, config, shards, |bin_arrivals| {
        run_batch(topo, bin_arrivals, config, NoProbe, true, |enforce_core| {
            FairShare::new(topo, enforce_core)
        })
        .map(|(run, _, log)| (run, log))
    })
}

/// The shared plan → fan-out → deterministic-merge skeleton behind the
/// sharded entry points: partitions the workload with [`ShardPlan`],
/// drives each bin through `run_bin` on scoped worker threads, and merges
/// the per-bin runs and completion logs (see the module docs for why the
/// merge is exact).
fn run_partitioned<T>(
    topo: &T,
    arrivals: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    shards: usize,
    run_bin: impl Fn(Vec<FlowArrival>) -> Result<(FabricRun, Vec<CompletionRecord>), FabricError> + Sync,
) -> Result<ShardedRun, FabricError>
where
    T: Topology + Sync + ?Sized,
{
    let arrivals: Vec<FlowArrival> = arrivals.into_iter().collect();
    let plan = ShardPlan::new(topo, &arrivals, shards);
    let bins = plan.shards_used();

    let mut per_bin: Vec<Vec<FlowArrival>> = vec![Vec::new(); bins];
    for a in arrivals {
        per_bin[plan.bin_of_arrival(topo, &a)].push(a);
    }

    // One worker per bin; with a single bin, stay on the caller's thread.
    let results: Vec<Result<(FabricRun, Vec<CompletionRecord>), FabricError>> = if bins == 1 {
        vec![run_bin(per_bin.pop().expect("one bin"))]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_bin
                .drain(..)
                .map(|bin_arrivals| scope.spawn(|| run_bin(bin_arrivals)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    };

    let mut runs = Vec::with_capacity(bins);
    let mut records: Vec<CompletionRecord> = Vec::new();
    for result in results {
        let (run, log) = result?;
        records.extend(log);
        runs.push(run);
    }

    // Deterministic merge order: completion instant, then flow id. Both
    // are partition-invariant, so the rebuilt recorders cannot depend on
    // the shard count.
    records.sort_unstable_by(|a, b| {
        a.time
            .as_secs()
            .total_cmp(&b.time.as_secs())
            .then(a.flow.cmp(&b.flow))
    });
    let mut fct = FctRecorder::new();
    let mut fct_by_size = SizeBucketRecorder::pfabric_buckets();
    for r in &records {
        fct.record(r.class, r.size, r.fct);
        fct_by_size.record(r.size, r.fct);
    }

    let mut throughput = ThroughputMeter::new();
    let mut total_backlog = TimeSeries::new();
    let mut monitored = TimeSeries::new();
    let mut max_port = TimeSeries::new();
    let mut delivered_series = TimeSeries::new();
    let samples = runs[0].total_backlog.len();
    for run in &runs {
        debug_assert_eq!(
            run.total_backlog.len(),
            samples,
            "all bins sample the same grid"
        );
        throughput.deliver(run.throughput.delivered());
    }
    for i in 0..samples {
        // Times are grid-identical across bins; values are integer-valued
        // f64s, so the sums (and the max) below are exact.
        let t = runs[0].total_backlog.times()[i];
        total_backlog.push(t, runs.iter().map(|r| r.total_backlog.values()[i]).sum());
        monitored.push(
            t,
            runs.iter()
                .map(|r| r.monitored_port_backlog.values()[i])
                .sum(),
        );
        max_port.push(
            t,
            runs.iter()
                .map(|r| r.max_port_backlog.values()[i])
                .fold(0.0f64, f64::max),
        );
        delivered_series.push(
            t,
            runs.iter()
                .map(|r| r.cumulative_delivered.values()[i])
                .sum(),
        );
    }

    let run = FabricRun {
        fct,
        fct_by_size,
        throughput,
        total_backlog,
        monitored_port_backlog: monitored,
        max_port_backlog: max_port,
        cumulative_delivered: delivered_series,
        arrivals: runs.iter().map(|r| r.arrivals).sum(),
        completions: runs.iter().map(|r| r.completions).sum(),
        arrived_bytes: runs
            .iter()
            .map(|r| r.arrived_bytes)
            .fold(Bytes::ZERO, |a, b| a + b),
        leftover_bytes: runs
            .iter()
            .map(|r| r.leftover_bytes)
            .fold(Bytes::ZERO, |a, b| a + b),
        leftover_flows: runs.iter().map(|r| r.leftover_flows).sum(),
        reschedules: runs.iter().map(|r| r.reschedules).sum(),
        horizon: config.horizon,
    };

    Ok(ShardedRun {
        run,
        shards_used: bins,
        components: plan.components(),
        completion_log: records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, FatTree, KAryFatTree};
    use basrpt_core::Srpt;
    use dcn_types::HostId;

    fn arrival(id: u64, t: f64, src: u32, dst: u32, size: u64) -> FlowArrival {
        FlowArrival {
            id: FlowId::new(id),
            time: SimTime::from_secs(t),
            voq: Voq::new(HostId::new(src), HostId::new(dst)),
            size: Bytes::new(size),
            class: FlowClass::Background,
        }
    }

    #[test]
    fn plan_separates_disconnected_racks() {
        // 2 racks × 4 hosts: flows stay rack-local → 2 components.
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let arrivals = vec![
            arrival(0, 0.0, 0, 1, 1_000),
            arrival(1, 0.0, 4, 5, 1_000),
            arrival(2, 0.001, 2, 3, 1_000),
        ];
        let plan = ShardPlan::new(&topo, &arrivals, 8);
        assert_eq!(plan.components(), 2);
        assert_eq!(plan.shards_used(), 2, "clamped to the component count");
        assert_ne!(
            plan.bin_of_rack(RackId::new(0)),
            plan.bin_of_rack(RackId::new(1))
        );
    }

    #[test]
    fn plan_joins_racks_connected_by_a_flow() {
        let topo = FatTree::scaled(3, 4, 1).unwrap();
        let arrivals = vec![
            arrival(0, 0.0, 0, 4, 1_000), // rack 0 ↔ rack 1
            arrival(1, 0.0, 8, 9, 1_000), // rack 2 local
        ];
        let plan = ShardPlan::new(&topo, &arrivals, 4);
        assert_eq!(plan.components(), 2);
        assert_eq!(
            plan.bin_of_rack(RackId::new(0)),
            plan.bin_of_rack(RackId::new(1))
        );
        assert_ne!(
            plan.bin_of_rack(RackId::new(0)),
            plan.bin_of_rack(RackId::new(2))
        );
    }

    #[test]
    fn untouched_racks_have_no_bin() {
        let topo = FatTree::scaled(4, 4, 1).unwrap();
        let arrivals = vec![arrival(0, 0.0, 0, 1, 1_000)];
        let plan = ShardPlan::new(&topo, &arrivals, 2);
        assert_eq!(plan.bin_of_rack(RackId::new(0)), Some(0));
        assert_eq!(plan.bin_of_rack(RackId::new(3)), None);
    }

    #[test]
    fn sharded_matches_global_on_separable_workload() {
        // Rack-local flows in a 4-rack tree: 4 components, so the global
        // engine and the sharded one agree on every invariant observable.
        let topo = FatTree::scaled(4, 4, 2).unwrap();
        let mut arrivals = Vec::new();
        for rack in 0..4u32 {
            for i in 0..3u64 {
                let base = rack * 4;
                arrivals.push(arrival(
                    (rack as u64) * 3 + i,
                    0.0001 * i as f64,
                    base + (i as u32 % 4),
                    base + ((i as u32 + 1) % 4),
                    40_000 + 1_000 * i,
                ));
            }
        }
        arrivals.sort_by(|a, b| a.time.as_secs().total_cmp(&b.time.as_secs()));
        let config = SimConfig::builder()
            .horizon(SimTime::from_millis(2.0))
            .build();
        let global = simulate(&topo, &mut Srpt::new(), arrivals.clone(), config).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let sharded =
                simulate_sharded(&topo, &|| Srpt::new(), arrivals.clone(), config, shards).unwrap();
            assert_eq!(sharded.components, 4);
            assert_eq!(sharded.run.arrivals, global.arrivals, "{shards} shards");
            assert_eq!(sharded.run.completions, global.completions);
            assert_eq!(sharded.run.arrived_bytes, global.arrived_bytes);
            assert_eq!(
                sharded.run.throughput.delivered(),
                global.throughput.delivered()
            );
            assert_eq!(sharded.run.leftover_bytes, global.leftover_bytes);
            assert_eq!(sharded.run.total_backlog, global.total_backlog);
            assert_eq!(sharded.run.max_port_backlog, global.max_port_backlog);
            assert_eq!(
                sharded.run.cumulative_delivered,
                global.cumulative_delivered
            );
            assert!(sharded
                .completion_log
                .windows(2)
                .all(|w| (w[0].time.as_secs(), w[0].flow) <= (w[1].time.as_secs(), w[1].flow)));
        }
    }

    #[test]
    fn bad_arrivals_surface_from_shards() {
        let topo = KAryFatTree::builder(4).build().unwrap();
        let bad = vec![arrival(0, 0.0, 0, 999, 1_000)];
        let err = simulate_sharded(
            &topo,
            &|| Srpt::new(),
            bad,
            SimConfig::builder()
                .horizon(SimTime::from_millis(1.0))
                .build(),
            2,
        );
        assert!(matches!(err, Err(FabricError::BadArrival(_))));
    }

    #[test]
    fn empty_workload_still_produces_the_sample_grid() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let config = SimConfig::builder()
            .horizon(SimTime::from_millis(1.0))
            .build();
        let global = simulate(&topo, &mut Srpt::new(), Vec::new(), config).unwrap();
        let sharded = simulate_sharded(&topo, &|| Srpt::new(), Vec::new(), config, 4).unwrap();
        assert_eq!(sharded.shards_used, 1, "no components, one empty bin");
        assert_eq!(sharded.run.total_backlog, global.total_backlog);
        assert_eq!(sharded.run.arrivals, 0);
    }
}
