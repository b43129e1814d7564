//! Property tests for RepFlow's dominance guarantee.
//!
//! RepFlow's replica layer is *subordinate by construction*: replicas
//! transmit only in intervals where their flow was crossbar-matched but
//! plane-rejected, and consume only budget left over after every
//! single-path admission. Two consequences are pinned here across random
//! scripted workloads:
//!
//! * **Dominance** (2+ core planes) — every flow's RepFlow FCT is ≤ its
//!   FCT under single-path ECMP SRPT, bit-for-bit equal whenever no
//!   replica won its race, and the base trajectory (every counter,
//!   series, and event) is bit-identical to the `simulate_ecmp` run.
//! * **Degeneracy** (one core plane) — there is no alternate plane, so
//!   nothing replicates and the whole run collapses, bit for bit, onto
//!   single-path ECMP — which itself collapses onto the aggregate-filter
//!   engine `simulate`.
//!
//! Both properties compare engines with each other, so a golden case also
//! pins the multi-plane ECMP and RepFlow trajectories to fixed
//! fingerprints.

mod support;

use basrpt::core::{RepFlow, Srpt};
use basrpt::fabric::{
    simulate, simulate_ecmp, simulate_ecmp_probed, simulate_repflow, FabricRun, FatTree,
    KAryFatTree, SimConfig, Topology,
};
use basrpt::probe::{CompletionEvent, Probe};
use basrpt::types::{Bytes, FlowClass, FlowId, HostId, SimTime, Voq};
use basrpt::workload::{FlowArrival, TrafficSpec};
use proptest::prelude::*;
use std::collections::HashMap;
use support::conservation::{assert_bit_identical, assert_repflow_accounting};
use support::fingerprint::{fingerprint, fnv, FNV_OFFSET};

/// Captures every completed flow's FCT, for per-flow comparisons.
#[derive(Default)]
struct FctMapProbe {
    fct_of: HashMap<FlowId, f64>,
}

impl Probe for FctMapProbe {
    fn wants_decision_timing(&self) -> bool {
        false
    }
    fn on_completion(&mut self, e: &CompletionEvent) {
        self.fct_of.insert(e.flow, e.fct);
    }
}

/// Scripted arrivals across the first 16 hosts (racks 0–3 of the k-ary
/// tree), sizes biased short so most flows replicate.
fn scripted(raw: &[(u64, u32, u32, u64)]) -> Vec<FlowArrival> {
    let mut t = SimTime::ZERO;
    raw.iter()
        .enumerate()
        .map(|(i, &(dt_us, s, d, size))| {
            t += SimTime::from_micros(dt_us as f64);
            let src = s % 16;
            let dst = (src + 1 + d % 15) % 16;
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

/// The dominance fabric: 2:1 oversubscribed, two core planes of one
/// edge-rate flow each, so plane-hash collisions reject flows that the
/// replica layer can then rescue.
fn two_plane_topo() -> KAryFatTree {
    KAryFatTree::builder(4)
        .hosts_per_edge(4)
        .oversubscription(2.0)
        .build()
        .expect("valid k-ary parameters")
}

proptest! {
    /// On 2+ planes: base trajectory bit-identical to ECMP, and for every
    /// completed flow `repflow_fct ≤ ecmp_fct` (bit-equal when no replica
    /// won). Exercised across random scripted workloads with short-biased
    /// sizes.
    #[test]
    fn repflow_dominates_single_path_on_two_planes(
        raw in prop::collection::vec(
            (0u64..200, 0u32..16, 0u32..15, 1u64..400_000),
            1..35,
        )
    ) {
        let topo = two_plane_topo();
        prop_assert!(topo.core_planes() >= 2);
        let arrivals = scripted(&raw);
        let cfg = SimConfig::builder()
            .horizon(SimTime::from_millis(25.0))
            .build();
        let mut ecmp_probe = FctMapProbe::default();
        let ecmp = simulate_ecmp_probed(
            &topo,
            &mut Srpt::new(),
            arrivals.clone(),
            cfg,
            &mut ecmp_probe,
        )
        .expect("valid simulation");
        let rep = simulate_repflow(&topo, &mut RepFlow::default(), arrivals, cfg)
            .expect("valid simulation");
        assert_repflow_accounting(&rep, "two-plane");

        // Base trajectory: bit-identical to the single-path run.
        prop_assert_eq!(rep.run.completions, ecmp.completions);
        prop_assert_eq!(rep.run.arrived_bytes, ecmp.arrived_bytes);
        prop_assert_eq!(rep.run.leftover_bytes, ecmp.leftover_bytes);
        prop_assert_eq!(
            rep.run.throughput.delivered(),
            ecmp.throughput.delivered()
        );
        prop_assert_eq!(&rep.run.total_backlog, &ecmp.total_backlog);
        prop_assert_eq!(&rep.run.cumulative_delivered, &ecmp.cumulative_delivered);

        // Per-flow dominance against the independently-run ECMP engine.
        for c in &rep.completions {
            let ecmp_fct = *ecmp_probe
                .fct_of
                .get(&c.flow)
                .expect("base trajectories complete the same flows");
            prop_assert_eq!(
                c.base_fct.as_secs().to_bits(),
                ecmp_fct.to_bits(),
                "flow {}: base FCT must be the ECMP FCT exactly",
                c.flow
            );
            prop_assert!(
                c.fct.as_secs() <= ecmp_fct,
                "flow {}: RepFlow FCT {} exceeds single-path {}",
                c.flow,
                c.fct.as_secs(),
                ecmp_fct
            );
            if c.winner.is_none() {
                prop_assert_eq!(
                    c.fct.as_secs().to_bits(),
                    ecmp_fct.to_bits(),
                    "flow {}: no winner, FCTs must be bit-equal",
                    c.flow
                );
            }
        }
    }

    /// On one core plane nothing replicates: the RepFlow run, the ECMP
    /// run, and the aggregate-filter `simulate` run are the same run,
    /// bit for bit, and every flow's `fct == base_fct` exactly.
    #[test]
    fn repflow_is_exactly_single_path_on_one_plane(
        raw in prop::collection::vec(
            (0u64..200, 0u32..16, 0u32..15, 1u64..400_000),
            1..25,
        )
    ) {
        // One core: plane filter degenerates to the aggregate budget.
        let topo = FatTree::scaled(4, 4, 1).expect("valid");
        prop_assert_eq!(topo.core_planes(), 1);
        let arrivals = scripted(&raw);
        let cfg = SimConfig::builder()
            .horizon(SimTime::from_millis(25.0))
            .enforce_core_capacity(true)
            .build();
        let base = simulate(&topo, &mut Srpt::new(), arrivals.clone(), cfg)
            .expect("valid simulation");
        let ecmp = simulate_ecmp(&topo, &mut Srpt::new(), arrivals.clone(), cfg)
            .expect("valid simulation");
        let rep = simulate_repflow(&topo, &mut RepFlow::default(), arrivals, cfg)
            .expect("valid simulation");
        assert_bit_identical(&ecmp, &base, "ecmp vs aggregate");
        assert_bit_identical(&rep.run, &ecmp, "repflow vs ecmp");
        prop_assert_eq!(rep.stats.replicated_flows, 0usize);
        prop_assert_eq!(rep.stats.replica_bytes, Bytes::ZERO);
        for c in &rep.completions {
            prop_assert!(c.winner.is_none());
            prop_assert_eq!(
                c.fct.as_secs().to_bits(),
                c.base_fct.as_secs().to_bits()
            );
        }
    }

    /// A zero threshold replicates nothing: the run is bit-identical to
    /// ECMP even on a multi-plane fabric.
    #[test]
    fn zero_threshold_collapses_to_ecmp(
        raw in prop::collection::vec(
            (0u64..200, 0u32..16, 0u32..15, 1u64..400_000),
            1..20,
        )
    ) {
        let topo = two_plane_topo();
        let arrivals = scripted(&raw);
        let cfg = SimConfig::builder()
            .horizon(SimTime::from_millis(25.0))
            .build();
        let ecmp = simulate_ecmp(&topo, &mut Srpt::new(), arrivals.clone(), cfg)
            .expect("valid simulation");
        let rep = simulate_repflow(&topo, &mut RepFlow::new(0), arrivals, cfg)
            .expect("valid simulation");
        assert_bit_identical(&rep.run, &ecmp, "threshold 0 vs ecmp");
        prop_assert_eq!(rep.stats.replicated_flows, 0usize);
    }
}

/// Completion-only FNV probe that leaves the engine free to settle
/// lazily: it asks for neither decision timing nor per-flow drain
/// fidelity, so the run takes the production settlement path.
struct CompletionFnv(u64);

impl Probe for CompletionFnv {
    fn wants_decision_timing(&self) -> bool {
        false
    }
    fn wants_flow_fidelity(&self) -> bool {
        false
    }
    fn on_completion(&mut self, e: &CompletionEvent) {
        fnv(&mut self.0, e.time.to_bits());
        fnv(&mut self.0, e.flow.raw());
        fnv(&mut self.0, e.fct.to_bits());
    }
}

/// Folds a run's counters, byte totals, FCT summary bits and sampled
/// series into `h`.
fn hash_run(h: &mut u64, run: &FabricRun) {
    for word in [
        run.arrivals as u64,
        run.completions as u64,
        run.reschedules,
        run.arrived_bytes.as_u64(),
        run.throughput.delivered().as_u64(),
        run.leftover_bytes.as_u64(),
        run.leftover_flows as u64,
    ] {
        fnv(h, word);
    }
    let s = run.fct.overall_summary().expect("flows complete");
    for x in [s.mean_secs, s.p50_secs, s.p99_secs, s.max_secs] {
        fnv(h, x.to_bits());
    }
    fnv(h, fingerprint(run));
}

/// Multi-plane trajectories pinned to fixed values. The dominance and
/// degeneracy properties above compare engines against each other; this
/// case pins the ECMP and RepFlow runs themselves on the 2-plane, 2:1
/// fabric, so a change to the shared event core that moved both engines
/// alike would still be caught. Per seed it fingerprints the ECMP run's
/// per-flow FCT bits (completion stream) and run observables, and the
/// RepFlow run's full completion log (`fct`, `base_fct`, `winner`), its
/// exact `RepFlowStats`, and its run observables.
#[test]
fn multi_plane_trajectories_match_golden_fingerprints() {
    const GOLDEN: [(u64, u64, u64); 2] = [
        (3, 12677645771346241806, 17549723979505385650),
        (8, 11484212030218003057, 18272611347972428883),
    ];
    let topo = two_plane_topo();
    let cfg = SimConfig::builder()
        .horizon(SimTime::from_millis(20.0))
        .build();
    for (seed, want_ecmp, want_rep) in GOLDEN {
        let arrivals: Vec<FlowArrival> =
            TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.8)
                .expect("valid scaled spec")
                .generator(seed)
                .expect("generator")
                .take_while(|a| a.time < cfg.horizon)
                .collect();

        let mut probe = CompletionFnv(FNV_OFFSET);
        let ecmp = simulate_ecmp_probed(&topo, &mut Srpt::new(), arrivals.clone(), cfg, &mut probe)
            .expect("valid simulation");
        let mut ecmp_hash = probe.0;
        hash_run(&mut ecmp_hash, &ecmp);

        let rep = simulate_repflow(&topo, &mut RepFlow::default(), arrivals, cfg)
            .expect("valid simulation");
        assert!(rep.stats.replica_wins > 0, "seed {seed}: races must be won");
        let mut rep_hash = FNV_OFFSET;
        for c in &rep.completions {
            for word in [
                c.flow.raw(),
                u64::from(c.voq.src().index()),
                u64::from(c.voq.dst().index()),
                c.size.as_u64(),
                u64::from(c.replicated),
                c.fct.as_secs().to_bits(),
                c.base_fct.as_secs().to_bits(),
                c.winner.map_or(u64::MAX, |p| u64::from(p.index())),
            ] {
                fnv(&mut rep_hash, word);
            }
        }
        let st = rep.stats;
        for word in [
            st.replicated_flows as u64,
            st.replica_wins as u64,
            st.replica_bytes.as_u64(),
            st.winning_replica_bytes.as_u64(),
            st.losing_replica_bytes.as_u64(),
            st.racing_replica_bytes.as_u64(),
            st.cancelled_primary_bytes.as_u64(),
        ] {
            fnv(&mut rep_hash, word);
        }
        hash_run(&mut rep_hash, &rep.run);

        assert_eq!(
            (ecmp_hash, rep_hash),
            (want_ecmp, want_rep),
            "seed {seed}: (ecmp, repflow) fingerprints moved"
        );
    }
}
