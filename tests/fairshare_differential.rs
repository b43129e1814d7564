//! Differential tests for the max-min fair-share fabric engine.
//!
//! `dcn_fabric::simulate_fair_share` is the production engine: the
//! fair-share policy on the shared event core, with lazy settlement and a
//! cached next-completion minimum, reallocating through the
//! `FairShareAllocator`: a constraint index kept across events (an
//! arrival inserts, a completion removes) and a log of the last
//! allocation's filling rounds, so each reallocation replays only the
//! rounds its changes can move. `dcn_fabric::reference::simulate_fair_share_naive`
//! is a genuinely different implementation: an eager loop whose
//! `O(n·C)`-per-round water-filler rescans every flow for every
//! constraint from full capacity, with a linear completion scan. Both
//! follow the canonical water-filling arithmetic contract spelled out in
//! the `fairshare` module docs (with the argument that makes the replay
//! exact), so every observable — byte counters, FCT summary bits,
//! sampled-series fingerprints, full probe event streams — must match
//! **bit for bit** across seeds × {full-bisection fat-tree, 2:1
//! oversubscribed k-ary fat-trees with 2 and 4 hosts per edge}.

mod support;

use basrpt::fabric::{
    reference, simulate_fair_share, simulate_fair_share_probed, FatTree, KAryFatTree, SimConfig,
    Topology,
};
use basrpt::types::SimTime;
use basrpt::workload::{FlowArrival, TrafficSpec};
use support::conservation::{assert_bit_identical, assert_conserved};
use support::fingerprint::FnvProbe;

/// The topologies the matrix quantifies over, each with the horizon (in
/// seconds) its seed cells run to: NIC-only constraints on the
/// full-bisection paper fabric, and binding rack up/downlink budgets on
/// 2:1 oversubscribed k-ary fat-trees with 2 and with 4 hosts per edge
/// (the latter is the benchmark's fair-share fabric). The naive
/// water-filler's cost grows with the square of the live flows, so the
/// 32-host fabric runs a shorter horizon.
fn topologies() -> Vec<(&'static str, Box<dyn Topology>, f64)> {
    let paper = FatTree::scaled(2, 4, 1).expect("valid scaled fat-tree");
    let kary = |hosts_per_edge| {
        KAryFatTree::builder(4)
            .hosts_per_edge(hosts_per_edge)
            .oversubscription(2.0)
            .build()
            .expect("valid k-ary parameters")
    };
    vec![
        ("fat-tree-8", Box::new(paper), 0.05),
        ("kary-4-oversub", Box::new(kary(2)), 0.05),
        ("kary-4x4-oversub", Box::new(kary(4)), 0.01),
    ]
}

fn arrivals_for(topo: &dyn Topology, load: f64, seed: u64, horizon: SimTime) -> Vec<FlowArrival> {
    TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), load)
        .expect("valid scaled spec")
        .generator(seed)
        .expect("valid generator")
        .take_while(|a| a.time < horizon)
        .collect()
}

fn config(horizon_secs: f64) -> SimConfig {
    SimConfig::builder()
        .horizon(SimTime::from_secs(horizon_secs))
        .build()
}

/// Seeds 1..=3 × topologies: the incremental allocator and the naive
/// `O(n²)` reference water-filler produce the same run to the last bit —
/// summaries, FCT bits, series fingerprints, and the full probe event
/// stream (arrivals, every drain, completions, samples, in order).
#[test]
fn production_matches_naive_reference_bitwise() {
    for (topo_name, topo, horizon) in &topologies() {
        for seed in 1..=3u64 {
            let label = format!("{topo_name}/seed{seed}");
            let cfg = config(*horizon);
            let arrivals = arrivals_for(topo.as_ref(), 0.85, seed, cfg.horizon);
            let mut fast_probe = FnvProbe::new();
            let fast =
                simulate_fair_share_probed(topo.as_ref(), arrivals.clone(), cfg, &mut fast_probe)
                    .expect("valid simulation");
            let mut naive_probe = FnvProbe::new();
            let naive = reference::simulate_fair_share_naive_probed(
                topo.as_ref(),
                arrivals,
                cfg,
                &mut naive_probe,
            )
            .expect("valid simulation");
            assert_bit_identical(&fast, &naive, &label);
            assert_eq!(
                fast_probe.hash, naive_probe.hash,
                "{label}: probe event streams must be identical"
            );
            assert_conserved(&fast, &label);
            assert!(fast.completions > 0, "{label}: non-trivial run");
        }
    }
}

mod scripted {
    //! Property test: the two water-fillers agree on adversarial scripted
    //! workloads too — bursts of simultaneous arrivals, degenerate sizes,
    //! and flows that tie on fill levels exercise the freeze-marking
    //! arithmetic beyond what Poisson traffic reaches.

    use super::*;
    use basrpt::types::{Bytes, FlowClass, FlowId, HostId, Voq};
    use proptest::prelude::*;

    fn scripted(raw: &[(u64, u32, u32, u64)]) -> Vec<FlowArrival> {
        let mut t = SimTime::ZERO;
        raw.iter()
            .enumerate()
            .map(|(i, &(dt_us, s, d, size))| {
                t += SimTime::from_micros(dt_us as f64);
                let src = s % 8;
                let dst = (src + 1 + d % 7) % 8;
                FlowArrival {
                    id: FlowId::new(i as u64),
                    time: t,
                    voq: Voq::new(HostId::new(src), HostId::new(dst)),
                    size: Bytes::new(size),
                    class: FlowClass::Background,
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn water_fillers_agree_on_scripted_workloads(
            raw in prop::collection::vec(
                // dt 0 makes simultaneous-arrival bursts common; small
                // sizes make completion ties common.
                (0u64..150, 0u32..8, 0u32..7, 1u64..500_000),
                1..30,
            )
        ) {
            let arrivals = scripted(&raw);
            let cfg = SimConfig::builder()
                .horizon(SimTime::from_millis(20.0))
                .build();
            for (topo_name, topo, _) in &topologies() {
                let fast = simulate_fair_share(topo.as_ref(), arrivals.clone(), cfg)
                    .expect("valid simulation");
                let naive = reference::simulate_fair_share_naive(
                    topo.as_ref(),
                    arrivals.clone(),
                    cfg,
                )
                .expect("valid simulation");
                assert_bit_identical(&fast, &naive, topo_name);
            }
        }
    }
}
