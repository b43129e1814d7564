//! The one-trait invariant battery for scheduling disciplines.
//!
//! Implement [`DisciplineUnderTest`] (usually via one of the ready-made
//! adapters below — a closure for crossbar schedulers, a unit struct for
//! the fair-share engine, a threshold for RepFlow) and
//! [`run_invariant_battery`] pins the full set of engine-independent
//! invariants across seeds × topologies:
//!
//! * **determinism** — two fresh instances on the same workload produce
//!   bit-identical runs (series fingerprints, FCT bits, every counter);
//! * **conservation** — bytes and flows are exactly conserved, and a
//!   third run with [`ConservationProbe`] attached re-checks the byte
//!   identity at **every sample instant** (exercising the lazy
//!   settlement path) while matching the unprobed run bit for bit;
//! * **work conservation** — standing backlog always moves bytes;
//! * **non-triviality** — the matrix point actually completed flows, so
//!   a vacuous pass cannot hide behind an empty run.

use super::conservation::{
    assert_bit_identical, assert_conserved, assert_repflow_accounting, ConservationProbe,
};
use super::oracles::assert_work_conserving;
use basrpt::core::{RepFlow, Scheduler};
use basrpt::fabric::{
    simulate, simulate_fair_share, simulate_fair_share_probed, simulate_probed, simulate_repflow,
    simulate_repflow_probed, FabricRun, FatTree, KAryFatTree, SimConfig, Topology,
};
use basrpt::types::SimTime;
use basrpt::workload::{FlowArrival, TrafficSpec};

/// A discipline the battery can drive: a label for failure messages and a
/// way to run one simulation from scratch (fresh scheduler state each
/// call — determinism is checked by running twice).
pub trait DisciplineUnderTest {
    /// Name used in assertion messages.
    fn label(&self) -> String;

    /// Runs one simulation of `arrivals` on `topo` with fresh state.
    fn run(&self, topo: &dyn Topology, arrivals: Vec<FlowArrival>, config: SimConfig) -> FabricRun;

    /// Runs one simulation with the conservation probe attached, which
    /// asserts `arrived == delivered + backlog` at every sample instant.
    /// The probe reports no fidelity wants, so lazily settling engines
    /// stay on their lazy path while being checked.
    fn run_probed(
        &self,
        topo: &dyn Topology,
        arrivals: Vec<FlowArrival>,
        config: SimConfig,
        probe: &mut ConservationProbe,
    ) -> FabricRun;
}

/// Adapter for crossbar schedulers: any factory closure producing a fresh
/// `Scheduler` (the `usize` argument is the topology's host count, for
/// disciplines whose parameters scale with fabric size).
pub struct ScheduledDiscipline<F: Fn(usize) -> Box<dyn Scheduler>> {
    /// Name used in assertion messages.
    pub name: &'static str,
    /// Fresh-scheduler factory, handed the host count.
    pub make: F,
}

impl<F: Fn(usize) -> Box<dyn Scheduler>> DisciplineUnderTest for ScheduledDiscipline<F> {
    fn label(&self) -> String {
        self.name.to_string()
    }

    fn run(&self, topo: &dyn Topology, arrivals: Vec<FlowArrival>, config: SimConfig) -> FabricRun {
        let mut sched = (self.make)(topo.num_hosts() as usize);
        simulate(topo, sched.as_mut(), arrivals, config).expect("valid simulation")
    }

    fn run_probed(
        &self,
        topo: &dyn Topology,
        arrivals: Vec<FlowArrival>,
        config: SimConfig,
        probe: &mut ConservationProbe,
    ) -> FabricRun {
        let mut sched = (self.make)(topo.num_hosts() as usize);
        simulate_probed(topo, sched.as_mut(), arrivals, config, probe).expect("valid simulation")
    }
}

/// Adapter for the max-min fair-share engine (no crossbar scheduler —
/// every active flow transmits at its water-filled rate).
pub struct FairShareDiscipline;

impl DisciplineUnderTest for FairShareDiscipline {
    fn label(&self) -> String {
        "FairShare".to_string()
    }

    fn run(&self, topo: &dyn Topology, arrivals: Vec<FlowArrival>, config: SimConfig) -> FabricRun {
        simulate_fair_share(topo, arrivals, config).expect("valid simulation")
    }

    fn run_probed(
        &self,
        topo: &dyn Topology,
        arrivals: Vec<FlowArrival>,
        config: SimConfig,
        probe: &mut ConservationProbe,
    ) -> FabricRun {
        simulate_fair_share_probed(topo, arrivals, config, probe).expect("valid simulation")
    }
}

/// Adapter for the RepFlow engine: every battery run additionally checks
/// the exact replica byte accounting and per-flow FCT dominance before
/// handing back the base run.
pub struct RepFlowDiscipline {
    /// Replication threshold in bytes.
    pub threshold: u64,
}

impl DisciplineUnderTest for RepFlowDiscipline {
    fn label(&self) -> String {
        format!("RepFlow<{}>", self.threshold)
    }

    fn run(&self, topo: &dyn Topology, arrivals: Vec<FlowArrival>, config: SimConfig) -> FabricRun {
        let rep = simulate_repflow(topo, &mut RepFlow::new(self.threshold), arrivals, config)
            .expect("valid simulation");
        assert_repflow_accounting(&rep, &self.label());
        rep.run
    }

    fn run_probed(
        &self,
        topo: &dyn Topology,
        arrivals: Vec<FlowArrival>,
        config: SimConfig,
        probe: &mut ConservationProbe,
    ) -> FabricRun {
        // Replica bytes are accounted in `stats`, not the primary meters,
        // so the per-sample identity holds on the primary table.
        let rep = simulate_repflow_probed(
            topo,
            &mut RepFlow::new(self.threshold),
            arrivals,
            config,
            probe,
        )
        .expect("valid simulation");
        assert_repflow_accounting(&rep, &self.label());
        rep.run
    }
}

/// The topology matrix every battery point quantifies over: the
/// scaled-down full-bisection paper fabric and an oversubscribed k-ary
/// fat-tree. The k-ary point is 2:1 oversubscribed with two core planes
/// of exactly one edge-rate flow each (20 Gbps uplink / 2 planes =
/// 10 Gbps), so both the aggregate core filter and the per-plane ECMP
/// filter are binding without starving any flow outright.
pub fn battery_topologies() -> Vec<(&'static str, Box<dyn Topology>)> {
    let paper = FatTree::scaled(2, 4, 1).expect("valid scaled fat-tree");
    let kary = KAryFatTree::builder(4)
        .hosts_per_edge(4)
        .oversubscription(2.0)
        .build()
        .expect("valid k-ary parameters");
    vec![
        ("fat-tree-8", Box::new(paper)),
        ("kary-4-oversub", Box::new(kary)),
    ]
}

/// The paper's traffic pattern scaled to `topo`, collected up to
/// `horizon` so the same workload can be replayed against several
/// engines. The generator is an infinite Poisson process; the engines
/// ignore arrivals at or past the horizon, so cutting at
/// `time < horizon` replays identically to streaming the generator.
pub fn battery_arrivals(
    topo: &dyn Topology,
    load: f64,
    seed: u64,
    horizon: SimTime,
) -> Vec<FlowArrival> {
    TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), load)
        .expect("valid scaled spec")
        .generator(seed)
        .expect("valid generator")
        .take_while(|a| a.time < horizon)
        .collect()
}

/// Runs the full invariant battery for one discipline: seeds {1, 2} ×
/// [`battery_topologies`] at 80 % load over a 20 ms horizon (the k-ary
/// point alone generates several thousand flows per seed; a longer
/// horizon adds debug-mode minutes without new behavior).
pub fn run_invariant_battery(d: &dyn DisciplineUnderTest) {
    let config = SimConfig::builder()
        .horizon(SimTime::from_millis(20.0))
        .build();
    for (topo_name, topo) in &battery_topologies() {
        for seed in [1u64, 2] {
            let label = format!("{}/{topo_name}/seed{seed}", d.label());
            let arrivals = battery_arrivals(topo.as_ref(), 0.8, seed, config.horizon);
            let a = d.run(topo.as_ref(), arrivals.clone(), config);
            let b = d.run(topo.as_ref(), arrivals.clone(), config);
            assert_bit_identical(&a, &b, &format!("{label}: determinism"));
            assert_conserved(&a, &label);
            assert_work_conserving(&a, &label);
            assert!(a.completions > 0, "{label}: vacuous matrix point");
            // Third run with the conservation probe attached: bytes must
            // balance exactly at every sample instant (the probe asserts
            // per sample), and the passive observer must not perturb a
            // single output bit.
            let mut probe = ConservationProbe::new(&label);
            let c = d.run_probed(topo.as_ref(), arrivals, config, &mut probe);
            assert!(probe.samples > 0, "{label}: no sample instants checked");
            assert_bit_identical(&a, &c, &format!("{label}: probed run diverged"));
        }
    }
}
