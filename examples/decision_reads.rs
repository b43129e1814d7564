//! What a key-driven decision reads, per decision, on the benchmark's
//! three fabrics: how the decisions were taken ([`DecisionCounts`]) and,
//! for the certified ones, how many VOQs they read: dirty, near-tie and
//! on-demand. A full re-read reads every matched VOQ instead.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example decision_reads -- [seed]
//! ```
//!
//! The fabrics and traffic are the perfbench workloads' (`perfbench/`
//! README): `paper_basrpt` (fast BASRPT, V = 2500, one 20-ms segment with
//! a snapshot and restore every simulated millisecond), `fat_tree_9216`
//! (SRPT, 300 µs) and `oversub_baselines` (the RepFlow engine, 75 ms).

use basrpt::core::DecisionCounts;
use basrpt::fabric::{simulate_repflow, KAryFatTree, OnlineFabric, Topology};
use basrpt::prelude::*;
use basrpt::workload::QueryScope;
use std::error::Error;

/// Steps `arrivals` through an `OnlineFabric`, snapshotting and restoring
/// it every `every` of simulated time.
fn drive<T: Topology>(
    topo: &T,
    sched: &mut dyn Scheduler,
    arrivals: Vec<FlowArrival>,
    config: SimConfig,
    every: SimTime,
) -> Result<(), Box<dyn Error>> {
    let mut online = OnlineFabric::new(topo, &mut *sched, config);
    let mut checkpoint = every;
    for arrival in arrivals {
        while arrival.time >= checkpoint {
            online.step_before(checkpoint)?;
            let snapshot = online.snapshot();
            drop(online);
            online = OnlineFabric::restore(topo, &mut *sched, snapshot)?;
            checkpoint += every;
        }
        online.step_before(arrival.time)?;
        online.offer(arrival)?;
    }
    online.finish()?;
    Ok(())
}

fn report(name: &str, c: DecisionCounts) {
    let per = |n: u64| n as f64 / c.certified.max(1) as f64;
    println!(
        "{name:<18} decisions {:>8}  certified {:>5.1}%  full re-reads {:>5.2}%  \
         per certified decision: dirty {:.2}  near-tie {:.3}  on-demand {:.2}  \
         key_rose {}",
        c.decisions(),
        100.0 * c.certified as f64 / c.decisions().max(1) as f64,
        100.0 * per(c.full_rereads),
        per(c.read_dirty),
        per(c.read_near_tie),
        per(c.read_on_demand),
        c.key_rose,
    );
}

fn main() -> Result<(), Box<dyn Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(Ok(1), |s| s.parse())
        .map_err(|e| format!("seed: {e}"))?;
    // Segment 0 of a perfbench run with this seed.
    let generator = 16 * seed;
    let arrivals =
        |spec: TrafficSpec, horizon: SimTime| -> Result<Vec<FlowArrival>, Box<dyn Error>> {
            Ok(spec
                .generator(generator)?
                .take_while(|a| a.time < horizon)
                .collect())
        };

    let topo = FatTree::paper_topology();
    let horizon = SimTime::from_millis(20.0);
    let config = SimConfig::builder().horizon(horizon).build();
    let mut fast = FastBasrpt::new(2500.0, topo.num_hosts() as usize);
    let flows = arrivals(TrafficSpec::paper_default(0.95)?, horizon)?;
    drive(&topo, &mut fast, flows, config, SimTime::from_millis(1.0))?;
    report("paper_basrpt", fast.decisions());

    let topo = KAryFatTree::builder(32)
        .hosts_per_edge(18)
        .oversubscription(3.0)
        .build()?;
    let horizon = SimTime::from_micros(300.0);
    let config = SimConfig::builder().horizon(horizon).build();
    let spec = TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.6)?
        .with_query_scope(QueryScope::Cluster(16))?;
    let mut srpt = Srpt::new();
    drive(
        &topo,
        &mut srpt,
        arrivals(spec, horizon)?,
        config,
        SimTime::INFINITY,
    )?;
    report("fat_tree_9216", srpt.decisions());

    let topo = KAryFatTree::builder(4)
        .hosts_per_edge(4)
        .oversubscription(2.0)
        .build()?;
    let horizon = SimTime::from_millis(75.0);
    let config = SimConfig::builder().horizon(horizon).build();
    let spec = TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.8)?;
    let mut repflow = RepFlow::default();
    simulate_repflow(&topo, &mut repflow, arrivals(spec, horizon)?, config)?;
    report("oversub_baselines", repflow.decisions());
    Ok(())
}
