//! Integration test: end-to-end conservation and determinism of the whole
//! pipeline (workload generator → fabric engine → metrics) under every
//! discipline — the crossbar schedulers through `simulate`, plus the
//! fair-share and RepFlow engines, all through the shared invariant
//! battery in `tests/support/`.

mod support;

use basrpt::core::{FastBasrpt, MaxWeight, RepFlow, Scheduler, Srpt, ThresholdBacklogSrpt};
use basrpt::fabric::{
    simulate, simulate_fair_share, simulate_repflow, FabricRun, FatTree, KAryFatTree, SimConfig,
    Topology,
};
use basrpt::types::{Bytes, SimTime};
use basrpt::workload::{QueryScope, TrafficSpec};
use support::battery::{
    run_invariant_battery, FairShareDiscipline, RepFlowDiscipline, ScheduledDiscipline,
};
use support::conservation::{assert_conserved, assert_repflow_accounting};

fn schedulers(n: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Srpt::new()),
        Box::new(FastBasrpt::new(2500.0, n)),
        Box::new(FastBasrpt::new(0.0, n)),
        Box::new(MaxWeight::new()),
        Box::new(FastBasrpt::new(n as f64, n)),
        Box::new(ThresholdBacklogSrpt::new(10_000_000)),
        Box::new(RepFlow::default()),
    ]
}

fn run(sched: &mut dyn Scheduler, seed: u64, load: f64) -> FabricRun {
    let topo = FatTree::scaled(2, 4, 1).expect("valid");
    let spec = TrafficSpec::scaled(2, 4, load).expect("valid");
    simulate(
        &topo,
        sched,
        spec.generator(seed).expect("valid"),
        SimConfig::builder()
            .horizon(SimTime::from_secs(0.2))
            .build(),
    )
    .expect("valid simulation")
}

#[test]
fn bytes_are_conserved_under_every_discipline() {
    for mut sched in schedulers(8) {
        for seed in [1, 2] {
            let r = run(sched.as_mut(), seed, 0.9);
            assert_eq!(
                r.arrived_bytes,
                r.throughput.delivered() + r.leftover_bytes,
                "{} seed {seed}: arrived != delivered + leftover",
                sched.name()
            );
            assert_eq!(
                r.completions + r.leftover_flows,
                r.arrivals,
                "{} seed {seed}: flow count mismatch",
                sched.name()
            );
        }
    }
}

#[test]
fn fct_is_bounded_below_by_line_rate() {
    for mut sched in schedulers(8) {
        let r = run(sched.as_mut(), 3, 0.7);
        // No flow can beat its size / edge-rate transfer time. The smallest
        // flows are the 20 KB queries: 16 us at 10 Gbps.
        if let Some(s) = r.fct.summary(basrpt::FlowClass::Query) {
            assert!(
                s.p50_secs >= 20_000.0 / 1.25e9 - 1e-12,
                "{}: median query FCT {} below line rate",
                sched.name(),
                s.p50_secs
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    // Two fresh schedulers of the same kind on the same seed must produce
    // byte-identical outcomes.
    let (a, b) = (schedulers(8), schedulers(8));
    for (mut sa, mut sb) in a.into_iter().zip(b) {
        let ra = run(sa.as_mut(), 42, 0.9);
        let rb = run(sb.as_mut(), 42, 0.9);
        assert_eq!(ra.arrivals, rb.arrivals, "{}", sa.name());
        assert_eq!(
            ra.throughput.delivered(),
            rb.throughput.delivered(),
            "{}",
            sa.name()
        );
        assert_eq!(ra.completions, rb.completions, "{}", sa.name());
        assert_eq!(ra.leftover_bytes, rb.leftover_bytes, "{}", sa.name());
    }
}

mod random_workloads {
    //! Property tests: exact conservation on *scripted* random workloads,
    //! not just the Poisson generator — adversarial inter-arrival gaps and
    //! sizes that do not divide any slot exercise the engine's epoch-based
    //! drain accounting where rounding noise used to hide.

    use super::*;
    use basrpt::types::{FlowClass, FlowId, HostId, Voq};
    use basrpt::workload::FlowArrival;
    use proptest::prelude::*;

    /// Turns raw generated tuples into a valid, time-ordered arrival
    /// script on the 8-host scaled fabric (no self-loops, non-zero sizes).
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

    /// Every crossbar discipline, not just a sample: the conservation
    /// property quantifies over the full set (including RepFlow, whose
    /// crossbar ranking is SRPT's).
    fn disciplines() -> Vec<Box<dyn Scheduler>> {
        schedulers(8)
    }

    proptest! {
        #[test]
        fn bytes_and_flows_are_exactly_conserved(
            raw in prop::collection::vec(
                (0u64..300, 0u32..8, 0u32..7, 1u64..1_000_000),
                1..40,
            )
        ) {
            let arrivals = scripted(&raw);
            let topo = FatTree::scaled(2, 4, 1).expect("valid");
            let config = SimConfig::builder()
                .horizon(SimTime::from_millis(30.0))
                .build();
            for mut sched in disciplines() {
                let r = simulate(&topo, sched.as_mut(), arrivals.clone(), config)
                    .expect("valid simulation");
                prop_assert_eq!(
                    r.arrived_bytes,
                    r.throughput.delivered() + r.leftover_bytes,
                    "{}: arrived != delivered + leftover (exactly)",
                    sched.name()
                );
                prop_assert_eq!(
                    r.completions + r.leftover_flows,
                    r.arrivals,
                    "{}: flow count mismatch",
                    sched.name()
                );
                let delivered = r.cumulative_delivered.values();
                prop_assert!(
                    delivered.windows(2).all(|w| w[0] <= w[1]),
                    "{}: cumulative delivered series must be monotone",
                    sched.name()
                );
                prop_assert_eq!(
                    r.arrivals,
                    arrivals.len(),
                    "{}: every scripted arrival lands before the horizon",
                    sched.name()
                );
            }
        }

        /// The two non-crossbar engines conserve exactly too: fair-share
        /// (water-filled simultaneous transmission) on the scripted
        /// workload, and RepFlow (replication races on an oversubscribed
        /// two-plane fabric) with its exact replica-cancellation
        /// accounting — every replica byte classified as winning, losing,
        /// or still racing, and the base run's conservation untouched.
        #[test]
        fn fair_share_and_repflow_engines_conserve_exactly(
            raw in prop::collection::vec(
                (0u64..300, 0u32..8, 0u32..7, 1u64..1_000_000),
                1..40,
            )
        ) {
            let arrivals = scripted(&raw);
            let config = SimConfig::builder()
                .horizon(SimTime::from_millis(30.0))
                .build();

            let topo = FatTree::scaled(2, 4, 1).expect("valid");
            let fair = simulate_fair_share(&topo, arrivals.clone(), config)
                .expect("valid simulation");
            prop_assert_eq!(
                fair.arrived_bytes,
                fair.throughput.delivered() + fair.leftover_bytes,
                "fair-share: arrived != delivered + leftover (exactly)"
            );
            prop_assert_eq!(
                fair.completions + fair.leftover_flows,
                fair.arrivals,
                "fair-share: flow count mismatch"
            );

            // Hosts 0..8 land in racks 0–1 of the oversubscribed k-ary
            // tree, so the scripted inter-rack flows race replicas.
            let kary = KAryFatTree::builder(4)
                .hosts_per_edge(4)
                .oversubscription(2.0)
                .build()
                .expect("valid");
            let rep = simulate_repflow(
                &kary,
                &mut RepFlow::default(),
                arrivals.clone(),
                config,
            )
            .expect("valid simulation");
            assert_repflow_accounting(&rep, "repflow scripted");
            prop_assert_eq!(rep.run.arrivals, arrivals.len());
        }
    }
}

/// The shared invariant battery (determinism, conservation, work
/// conservation, non-triviality across seeds × topologies) over every
/// discipline — crossbar schedulers, the fair-share engine, and the
/// RepFlow engine. A new `Scheduler` gets the whole set by adding one
/// line here.
/// A named crossbar-scheduler constructor (the `usize` is the host count).
type SchedulerRow = (&'static str, fn(usize) -> Box<dyn Scheduler>);

#[test]
fn invariant_battery_covers_every_discipline() {
    let crossbar: Vec<SchedulerRow> = vec![
        ("SRPT", |_| Box::new(Srpt::new())),
        ("FastBASRPT", |n| Box::new(FastBasrpt::new(2500.0, n))),
        ("FastBASRPT-V0", |n| Box::new(FastBasrpt::new(0.0, n))),
        ("MaxWeight", |_| Box::new(MaxWeight::new())),
        ("FastBASRPT-W1", |n| Box::new(FastBasrpt::new(n as f64, n))),
        ("ThresholdSRPT", |_| {
            Box::new(ThresholdBacklogSrpt::new(10_000_000))
        }),
        ("RepFlow-ranking", |_| Box::new(RepFlow::default())),
    ];
    for (name, make) in crossbar {
        run_invariant_battery(&ScheduledDiscipline { name, make });
    }
    run_invariant_battery(&FairShareDiscipline);
    run_invariant_battery(&RepFlowDiscipline {
        threshold: basrpt::core::REPFLOW_DEFAULT_THRESHOLD,
    });
}

/// The fair-share engine satisfies the classic identities on the
/// generated workload as well (the battery uses collected arrivals; this
/// pins the streaming-generator path).
#[test]
fn fair_share_conserves_on_generated_traffic() {
    let topo = FatTree::scaled(2, 4, 1).expect("valid");
    let spec = TrafficSpec::scaled(2, 4, 0.9).expect("valid");
    for seed in [1u64, 2] {
        let r = simulate_fair_share(
            &topo,
            spec.generator(seed).expect("valid"),
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.2))
                .build(),
        )
        .expect("valid simulation");
        assert_conserved(&r, &format!("fair-share seed {seed}"));
        assert!(r.completions > 0);
    }
}

/// The largest fabric the suites run: a 1152-host k = 16 fat-tree (9 hosts
/// per edge, 3:1 oversubscribed) under cluster-scoped queries conserves
/// every byte and flow through the product engine.
#[test]
fn kary_1152_host_run_conserves() {
    let topo = KAryFatTree::builder(16)
        .hosts_per_edge(9)
        .oversubscription(3.0)
        .build()
        .expect("valid k-ary parameters");
    assert_eq!(topo.num_hosts(), 1152);
    let spec = TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.5)
        .and_then(|s| s.with_query_scope(QueryScope::Cluster(8)))
        .expect("valid scoped spec");
    let r = simulate(
        &topo,
        &mut Srpt::new(),
        spec.generator(5).expect("valid"),
        SimConfig::builder()
            .horizon(SimTime::from_millis(1.0))
            .build(),
    )
    .expect("1152-host run");
    assert_conserved(&r, "1152-host SRPT");
    assert!(r.completions > 0, "1152-host SRPT: no completions");
}

#[test]
fn light_load_leaves_nothing_behind() {
    // At 20 % load over 0.2 s every discipline should deliver nearly all
    // bytes (only the most recent arrivals are still in flight).
    for mut sched in schedulers(8) {
        let r = run(sched.as_mut(), 5, 0.2);
        let frac_left = r.leftover_bytes.as_f64() / r.arrived_bytes.as_f64().max(1.0);
        assert!(
            frac_left < 0.2,
            "{} left {:.1}% of bytes at 20% load",
            sched.name(),
            frac_left * 100.0
        );
        assert!(r.throughput.delivered() > Bytes::ZERO);
    }
}
