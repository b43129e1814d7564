//! ECMP plane assignment and RepFlow-style short-flow replication.
//!
//! The multi-path [`Topology`] exposes `core_planes` independent core
//! planes (a k-ary fat-tree has `k/2`). This module models them:
//!
//! * [`simulate_ecmp`] — single-path routing: every inter-rack flow is
//!   hashed onto one plane ([`plane_of`], FNV-1a over the flow id — the
//!   deterministic stand-in for ECMP's five-tuple hash) and the matching
//!   engine's core filter is enforced **per plane** (each plane carries
//!   `uplink / planes` of a rack's budget). Hash collisions can reject a
//!   flow even when another plane is idle — exactly the ECMP pathology
//!   RepFlow exploits.
//! * [`simulate_repflow`] — the RepFlow discipline (Xu & Li): flows
//!   shorter than the [`RepFlow`] threshold additionally place one
//!   replica on an alternate plane whenever their primary plane is
//!   saturated, and the **first copy to finish wins**. Replication is
//!   opportunistic and subordinate: a replica transmits only in intervals
//!   where its flow was crossbar-matched but plane-rejected (the NICs are
//!   provably idle then), and replicas consume only budget left over
//!   after every single-path admission — so the base trajectory of a
//!   RepFlow run is **bit-identical** to the [`simulate_ecmp`] run of the
//!   same workload. That gives the dominance property
//!   `tests/repflow_props.rs` pins: every flow's RepFlow FCT is ≤ its
//!   single-path FCT, with equality on one-plane topologies.
//!
//! Byte accounting for the race is exact ([`RepFlowStats`]): every copy's
//! transmitted bytes ride the same epoch-anchored arithmetic as the base
//! engine, the winning copy accounts the flow's full size, and the
//! cancelled copies' bytes (including everything the primary transmits
//! after losing — the engine cancels lazily, a conservative model of
//! RepFlow's transport-level cutoff) are tallied to the last byte.

use crate::engine::{FabricError, FabricRun, FlowMeta, SimConfig};
use crate::online::{run_batch, AllocationPolicy, Crossbar};
use crate::settle::{ScheduledEntry, SettledDrain};
use crate::topology::Topology;
use basrpt_core::{FlowSlot, FlowTable, RepFlow, Scheduler};
use dcn_probe::{NoProbe, Probe};
use dcn_types::{Bytes, FlowId, PlaneId, Rate, SimTime, Voq};
use dcn_workload::FlowArrival;

/// The plane an inter-rack flow is hashed onto: FNV-1a over the flow id,
/// modulo the plane count — the deterministic stand-in for ECMP's
/// five-tuple hash (a flow's packets all ride one path).
///
/// # Panics
///
/// Panics if `planes` is zero.
///
/// # Example
///
/// ```
/// use dcn_fabric::plane_of;
/// use dcn_types::FlowId;
///
/// let p = plane_of(FlowId::new(7), 4);
/// assert!(p.index() < 4);
/// assert_eq!(p, plane_of(FlowId::new(7), 4), "deterministic");
/// ```
pub fn plane_of(flow: FlowId, planes: u32) -> PlaneId {
    assert!(planes > 0, "a fabric has at least one core plane");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in flow.raw().to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    PlaneId::new((h % u64::from(planes)) as u32)
}

/// One copy of a replicated flow on an alternate plane.
#[derive(Debug, Clone, Copy)]
struct ReplicaCopy {
    plane: PlaneId,
    /// Whether the current reschedule selected this copy: written by its
    /// replica pass and consumed by the same reschedule.
    selected: bool,
    /// Bytes this copy has transmitted (settled across all its epochs).
    sent: u64,
    /// The open transmission epoch while the copy is selected — the same
    /// epoch-anchored drain arithmetic as a primary's account, over the
    /// bytes the copy has yet to send.
    live: Option<ScheduledEntry>,
}

impl ReplicaCopy {
    /// (Re)opens a transmission epoch at `now` for the race of the flow in
    /// `slot`; keeps the current epoch if the copy is already transmitting
    /// (its completion instant must not drift across reschedules that keep
    /// it selected).
    fn select(&mut self, race: &RaceHead, slot: FlowSlot, now: SimTime, rate: Rate) {
        if self.live.is_none() {
            let remaining = race.size - self.sent;
            let entry = ScheduledEntry::new(race.flow, slot, now, remaining, rate);
            self.live = Some(entry);
        }
    }

    /// Settles the copy's account at instant `t` and closes its epoch.
    fn deselect(&mut self, t: SimTime) {
        if let Some(epoch) = self.live.take() {
            self.sent += epoch.target_at(t);
        }
    }
}

/// The flow a race replicates.
#[derive(Debug, Clone, Copy)]
struct RaceHead {
    flow: FlowId,
    size: u64,
}

/// The replication race of one short inter-rack flow.
#[derive(Debug)]
struct RaceState {
    head: RaceHead,
    /// One copy per alternate plane, in ascending plane order.
    copies: Vec<ReplicaCopy>,
    /// `Some((plane, instant))` once a replica finished first, which
    /// closes the race. A race the primary finishes leaves `races` then.
    replica_won: Option<(PlaneId, SimTime)>,
}

/// One completed flow of a RepFlow (or ECMP) run, with both race
/// outcomes: the recorded first-copy FCT and the single-path FCT the
/// primary alone would have scored. `fct ≤ base_fct` always;
/// `fct == base_fct` exactly unless a replica won.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepFlowCompletion {
    /// The completed flow.
    pub flow: FlowId,
    /// The VOQ the flow occupied.
    pub voq: Voq,
    /// The flow's size.
    pub size: Bytes,
    /// Whether the flow was eligible for replication (short, inter-rack,
    /// 2+ planes) and raced replicas.
    pub replicated: bool,
    /// The recorded FCT: first copy to finish (includes any configured
    /// base latency).
    pub fct: SimTime,
    /// The single-path FCT of the primary copy — bit-identical to what
    /// [`simulate_ecmp`] records for this flow.
    pub base_fct: SimTime,
    /// The plane of the winning replica, or `None` when the primary won.
    pub winner: Option<PlaneId>,
}

/// Exact byte accounting of the replication races of one run.
///
/// Every field is an exact `u64` tally; the identity
/// `replica_bytes == winning_replica_bytes + losing_replica_bytes +
/// racing_replica_bytes` holds to the byte (pinned by
/// `tests/conservation.rs`), and the base run's own conservation
/// (`arrived == delivered + leftover`) is untouched by replication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepFlowStats {
    /// Flows that raced replicas (short, inter-rack, 2+ planes).
    pub replicated_flows: usize,
    /// Races a replica won.
    pub replica_wins: usize,
    /// Total bytes transmitted by replica copies.
    pub replica_bytes: Bytes,
    /// Bytes of winning replica copies (the full size of each
    /// replica-won flow).
    pub winning_replica_bytes: Bytes,
    /// Bytes transmitted by replica copies that lost their race —
    /// cancelled work on the alternate plane.
    pub losing_replica_bytes: Bytes,
    /// Bytes of replica copies whose race was still open at the horizon.
    pub racing_replica_bytes: Bytes,
    /// Bytes the primary transmitted *after* a replica had already won —
    /// the cancelled-copy cost of lazy cancellation on the primary path.
    pub cancelled_primary_bytes: Bytes,
}

/// The measurements of one RepFlow run: the merged [`FabricRun`] (FCTs
/// are first-copy-completes), the per-flow completion log with both race
/// outcomes, and the exact replica byte accounting.
#[derive(Debug, Clone)]
pub struct RepFlowRun {
    /// The run measurements. `fct`/`fct_by_size` record the
    /// first-copy-completes FCT of every flow whose primary finished
    /// within the horizon; counts, byte totals and series keep the base
    /// (primary-path) semantics, so conservation identities are unchanged.
    pub run: FabricRun,
    /// Every completed flow, in completion order.
    pub completions: Vec<RepFlowCompletion>,
    /// The replication-race byte accounting.
    pub stats: RepFlowStats,
}

/// Runs one single-path (ECMP-hashed) simulation: like [`crate::simulate`]
/// but the core filter is enforced **per plane** — each inter-rack flow
/// rides only its [`plane_of`] plane, which carries `1/planes` of the
/// rack uplink budget. On a one-plane topology this is bit-identical to
/// [`crate::simulate`] with the aggregate filter.
///
/// This is the single-path baseline RepFlow is measured against; the
/// plane filter only matters when core capacity is enforced
/// (oversubscribed topologies or [`SimConfig::enforce_core_capacity`]).
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_ecmp<T: Topology + ?Sized, S: Scheduler + ?Sized>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    simulate_ecmp_probed(topo, scheduler, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_ecmp`], for differential
/// tests that compare full event streams.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_ecmp_probed<T: Topology + ?Sized, S: Scheduler + ?Sized, P: Probe>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    let planes = topo.core_planes().max(1);
    run_batch(topo, generator, config, probe, |enforce_core| {
        Crossbar::new(topo, scheduler, enforce_core, planes)
    })
    .map(|(run, ..)| run)
}

/// Runs one RepFlow simulation: single-path ECMP routing plus replication
/// of short flows (shorter than the [`RepFlow`] discipline's threshold)
/// onto alternate core planes with first-copy-completes semantics — see
/// the module docs for the model and its dominance guarantee.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
///
/// # Example
///
/// ```
/// use basrpt_core::RepFlow;
/// use dcn_fabric::{simulate_repflow, KAryFatTree, SimConfig};
/// use dcn_types::SimTime;
/// use dcn_workload::TrafficSpec;
///
/// // Two core planes, oversubscribed so the plane filter binds.
/// let topo = KAryFatTree::builder(4).oversubscription(2.0).build()?;
/// let spec = TrafficSpec::scaled(8, 2, 0.5)?;
/// let out = simulate_repflow(
///     &topo,
///     &mut RepFlow::default(),
///     spec.generator(7)?.take(100),
///     SimConfig::builder().horizon(SimTime::from_secs(0.05)).build(),
/// )?;
/// for c in &out.completions {
///     assert!(c.fct <= c.base_fct, "first copy can only help");
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_repflow<T: Topology + ?Sized>(
    topo: &T,
    discipline: &mut RepFlow,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<RepFlowRun, FabricError> {
    simulate_repflow_probed(topo, discipline, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_repflow`]. Probe events
/// describe the base (primary-path) trajectory; replica transmissions are
/// reported only through [`RepFlowStats`].
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_repflow_probed<T: Topology + ?Sized, P: Probe>(
    topo: &T,
    discipline: &mut RepFlow,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<RepFlowRun, FabricError> {
    let (run, policy) = run_batch(topo, generator, config, probe, |enforce_core| {
        Replicated::new(topo, discipline, &config, enforce_core)
    })?;
    Ok(policy.into_run(run, config.horizon))
}

/// The RepFlow allocation policy: the per-plane (ECMP) crossbar policy
/// plus the replica race layered on through the core's hooks — races open
/// at arrival, replica wins resolve before each event settles, replicas
/// ride the plane budget left after every base admission, and a completing
/// primary records the first copy's FCT. Replicas never influence base
/// admissions, so the base trajectory is bit-identical to ECMP's.
#[derive(Debug)]
pub(crate) struct Replicated<'s> {
    base: Crossbar<'s, RepFlow>,
    /// Flows strictly shorter than this race replicas (0 when the fabric
    /// has no alternate plane or no enforced core, so nothing does).
    threshold: u64,
    planes: u32,
    edge_rate: Rate,
    base_latency: SimTime,
    /// Open and replica-won races, indexed by their flow's table slot
    /// ([`FlowSlot`]): opened at admission, retired when the primary
    /// completes, before a later flow can take the slot. Boxed, so a
    /// slot without a race costs 8 bytes.
    races: Vec<Option<Box<RaceState>>>,
    stats: RepFlowStats,
    log: Vec<RepFlowCompletion>,
    /// Scratch reused across events: replica wins due at this event, with
    /// their races' slots.
    wins: Vec<(SimTime, FlowId, usize)>,
}

impl AllocationPolicy for Replicated<'_> {
    fn supports_lazy_views(&self) -> bool {
        self.base.supports_lazy_views()
    }

    fn next_completion(&mut self) -> SimTime {
        self.base.next_completion()
    }

    fn settle(&mut self, t: SimTime, observe_all: bool, out: &mut Vec<SettledDrain>) -> bool {
        self.base.settle(t, observe_all, out)
    }

    fn on_arrival<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        arrival: &FlowArrival,
        slot: FlowSlot,
    ) {
        if arrival.size.as_u64() >= self.threshold || topo.is_intra_rack(arrival.voq) {
            return;
        }
        let primary = plane_of(arrival.id, self.planes);
        let copies = (0..self.planes)
            .map(PlaneId::new)
            .filter(|&p| p != primary)
            .map(|plane| ReplicaCopy {
                plane,
                selected: false,
                sent: 0,
                live: None,
            })
            .collect();
        let race = RaceState {
            head: RaceHead {
                flow: arrival.id,
                size: arrival.size.as_u64(),
            },
            copies,
            replica_won: None,
        };
        let at = slot.index();
        if at >= self.races.len() {
            self.races.resize_with(at + 1, || None);
        }
        debug_assert!(
            self.races[at].is_none(),
            "a slot's race retires with its flow"
        );
        self.races[at] = Some(Box::new(race));
        self.stats.replicated_flows += 1;
    }

    /// Resolves replica wins up to `t`: their completion instants are
    /// analytic, so they are processed lazily at the next event — the win
    /// cannot change the base trajectory.
    fn before_settle(&mut self, t: SimTime) {
        self.wins.clear();
        for (at, race) in self.races.iter().enumerate() {
            let Some(race) = race.as_ref().filter(|r| r.replica_won.is_none()) else {
                continue;
            };
            let first = race
                .copies
                .iter()
                .filter_map(|c| c.live)
                .map(|e| e.completes_at);
            if let Some(w) = first.min().filter(|&w| w <= t) {
                self.wins.push((w, race.head.flow, at));
            }
        }
        self.wins
            .sort_unstable_by(|a, b| a.0.as_secs().total_cmp(&b.0.as_secs()).then(a.1.cmp(&b.1)));
        for &(w, _, at) in &self.wins {
            let race = self.races[at].as_mut().expect("race exists");
            // Lowest plane wins ties (copies are in ascending plane order).
            let winner = race
                .copies
                .iter()
                .find(|c| c.live.is_some_and(|e| e.completes_at <= w))
                .expect("a copy completed")
                .plane;
            for copy in &mut race.copies {
                // Freeze the race at the win instant: siblings keep only
                // the bytes they moved before w.
                copy.deselect(w);
            }
            race.replica_won = Some((winner, w));
            self.stats.replica_wins += 1;
        }
    }

    fn on_drain(&mut self, drain: &SettledDrain) {
        // Everything the primary moves after losing its race is cancelled
        // work (the primary is never scheduled while a replica transmits,
        // so these drains all postdate the win).
        if self
            .race_of(drain.slot, drain.flow)
            .is_some_and(|r| r.replica_won.is_some())
        {
            self.stats.cancelled_primary_bytes += Bytes::new(drain.amount);
        }
    }

    fn completion_fct(
        &mut self,
        t: SimTime,
        drain: &SettledDrain,
        voq: Voq,
        info: &FlowMeta,
        size: Bytes,
        base: SimTime,
    ) -> SimTime {
        // First copy to finish sets the recorded FCT.
        let race = self
            .races
            .get_mut(drain.slot.index())
            .filter(|cell| cell.as_ref().is_some_and(|r| r.head.flow == drain.flow))
            .and_then(Option::take);
        let (fct, replicated, winner) = match race {
            Some(mut race) => {
                let outcome = match race.replica_won {
                    Some((plane, w)) => (w - info.arrival + self.base_latency, true, Some(plane)),
                    None => {
                        // The primary finished first: the race is over
                        // and the copies' bytes are cancelled.
                        race.copies.iter_mut().for_each(|c| c.deselect(t));
                        (base, true, None)
                    }
                };
                retire_race(&race, true, &mut self.stats);
                outcome
            }
            None => (base, false, None),
        };
        self.log.push(RepFlowCompletion {
            flow: drain.flow,
            voq,
            size,
            replicated,
            fct,
            base_fct: base,
            winner,
        });
        fct
    }

    fn reschedule<T: Topology + ?Sized, O: Probe>(
        &mut self,
        topo: &T,
        now: SimTime,
        table: &FlowTable,
        lazy: bool,
        obs: &mut O,
        out: &mut Vec<SettledDrain>,
    ) {
        // Pass 1 — base admissions on each flow's own plane, in schedule
        // priority order (identical for ECMP and RepFlow).
        self.base.reschedule(topo, now, table, lazy, obs, out);
        // Pass 2 — replicas: a matched-but-rejected short flow may ride
        // the residual budget of an alternate plane (its NICs are idle —
        // the matching reserved them and the plane filter declined).
        // Priority order again, so replica-replica contention is
        // deterministic. A rejected flow's race is found by its slot,
        // which one id lookup per rejected flow supplies.
        if let Some(budgets) = self.base.budgets.as_mut() {
            for &(id, voq, _) in &self.base.alloc.withheld {
                let race = table
                    .slot_of(id)
                    .and_then(|at| self.races.get_mut(at.index())?.as_mut())
                    .filter(|r| r.replica_won.is_none() && r.head.flow == id);
                let Some(race) = race else {
                    continue;
                };
                if let Some(copy) = race
                    .copies
                    .iter_mut()
                    .find(|c| budgets.admit(topo, voq, c.plane))
                {
                    copy.selected = true;
                }
            }
        }
        // Apply the replica selection: open epochs for the selected
        // copies, settle-and-close everyone else's.
        for (at, race) in self.races.iter_mut().enumerate() {
            let Some(race) = race.as_mut().filter(|r| r.replica_won.is_none()) else {
                continue;
            };
            for copy in &mut race.copies {
                if std::mem::take(&mut copy.selected) {
                    copy.select(&race.head, FlowSlot::new(at), now, self.edge_rate);
                } else {
                    copy.deselect(now);
                }
            }
        }
    }
}

impl<'s> Replicated<'s> {
    pub(crate) fn new<T: Topology + ?Sized>(
        topo: &T,
        discipline: &'s mut RepFlow,
        config: &SimConfig,
        enforce_core: bool,
    ) -> Self {
        let planes = topo.core_planes().max(1);
        Replicated {
            threshold: if enforce_core && planes >= 2 {
                discipline.threshold()
            } else {
                0
            },
            base: Crossbar::new(topo, discipline, enforce_core, planes),
            planes,
            edge_rate: topo.edge_rate(),
            base_latency: config.base_latency,
            races: Vec::new(),
            stats: RepFlowStats::default(),
            log: Vec::new(),
            wins: Vec::new(),
        }
    }

    /// The race in `slot`, if it is flow `id`'s.
    fn race_of(&self, slot: FlowSlot, id: FlowId) -> Option<&RaceState> {
        self.races
            .get(slot.index())?
            .as_deref()
            .filter(|r| r.head.flow == id)
    }

    /// Settles every race still on the books at the horizon — tallying
    /// its copies' bytes as racing (open races) or won/lost (a replica
    /// won but the primary never finished draining) — and assembles the
    /// run.
    pub(crate) fn into_run(mut self, run: FabricRun, horizon: SimTime) -> RepFlowRun {
        for race in self.races.iter_mut().flatten() {
            race.copies.iter_mut().for_each(|c| c.deselect(horizon));
            retire_race(race, race.replica_won.is_some(), &mut self.stats);
        }
        RepFlowRun {
            run,
            completions: self.log,
            stats: self.stats,
        }
    }
}

/// Tallies the exact byte account of one finished (or horizon-cut) race;
/// `closed` says the race was over (a replica won, or the primary
/// completed). The primary's own bytes live in the base run's throughput;
/// only its post-win drains are tallied (see `cancelled_primary_bytes`).
fn retire_race(race: &RaceState, closed: bool, stats: &mut RepFlowStats) {
    for copy in &race.copies {
        stats.replica_bytes += Bytes::new(copy.sent);
        match race.replica_won {
            Some((plane, _)) if plane == copy.plane => {
                debug_assert_eq!(copy.sent, race.head.size, "the winner moved the whole flow");
                stats.winning_replica_bytes += Bytes::new(copy.sent);
            }
            _ if closed => stats.losing_replica_bytes += Bytes::new(copy.sent),
            _ => stats.racing_replica_bytes += Bytes::new(copy.sent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, FatTree, KAryFatTree};
    use basrpt_core::Srpt;
    use dcn_types::{FlowClass, HostId};

    fn arrival(id: u64, t: f64, src: u32, dst: u32, size: u64) -> FlowArrival {
        FlowArrival {
            id: FlowId::new(id),
            time: SimTime::from_secs(t),
            voq: Voq::new(HostId::new(src), HostId::new(dst)),
            size: Bytes::new(size),
            class: FlowClass::Background,
        }
    }

    fn config(horizon_secs: f64) -> SimConfig {
        SimConfig::builder()
            .horizon(SimTime::from_secs(horizon_secs))
            .enforce_core_capacity(true)
            .build()
    }

    #[test]
    fn plane_hash_is_deterministic_and_in_range() {
        for id in 0..1000u64 {
            let p = plane_of(FlowId::new(id), 3);
            assert!(p.index() < 3);
            assert_eq!(p, plane_of(FlowId::new(id), 3));
        }
        // And not degenerate: all three planes are hit.
        let mut seen = [false; 3];
        for id in 0..1000u64 {
            seen[plane_of(FlowId::new(id), 3).as_usize()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn one_plane_ecmp_matches_aggregate_filter_bitwise() {
        // FatTree::scaled(2, 8, 1): one core plane, oversubscribed — the
        // per-plane filter degenerates to the aggregate one.
        let topo = FatTree::scaled(2, 8, 1).unwrap();
        assert_eq!(topo.core_planes(), 1);
        let flows: Vec<FlowArrival> = (0..8)
            .map(|i| arrival(i, 0.0001 * i as f64, i as u32, 8 + i as u32, 500_000))
            .collect();
        let cfg = config(0.05);
        let a = simulate(&topo, &mut Srpt::new(), flows.clone(), cfg).unwrap();
        let b = simulate_ecmp(&topo, &mut Srpt::new(), flows, cfg).unwrap();
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.throughput.delivered(), b.throughput.delivered());
        assert_eq!(a.total_backlog, b.total_backlog);
        let (sa, sb) = (
            a.fct.summary(FlowClass::Background).unwrap(),
            b.fct.summary(FlowClass::Background).unwrap(),
        );
        assert_eq!(sa.mean_secs.to_bits(), sb.mean_secs.to_bits());
        assert_eq!(sa.max_secs.to_bits(), sb.max_secs.to_bits());
    }

    #[test]
    fn repflow_base_trajectory_matches_ecmp_bitwise() {
        // 2:1 oversubscribed, two planes of one edge-rate flow each — the
        // plane filter binds (hash collisions reject) without starving.
        let topo = KAryFatTree::builder(4)
            .hosts_per_edge(4)
            .oversubscription(2.0)
            .build()
            .unwrap();
        assert!(topo.core_planes() >= 2);
        let flows: Vec<FlowArrival> = (0..24)
            .map(|i| {
                arrival(
                    i,
                    0.00002 * i as f64,
                    (i % 8) as u32,
                    (8 + (i * 3) % 24) as u32,
                    30_000 + 10_000 * (i % 5),
                )
            })
            .collect();
        let cfg = config(0.02);
        let ecmp = simulate_ecmp(&topo, &mut Srpt::new(), flows.clone(), cfg).unwrap();
        let rep = simulate_repflow(&topo, &mut RepFlow::new(100_000), flows, cfg).unwrap();
        // Base observables are bit-identical: replicas never affect the
        // primary path.
        assert_eq!(rep.run.completions, ecmp.completions);
        assert_eq!(rep.run.arrived_bytes, ecmp.arrived_bytes);
        assert_eq!(rep.run.leftover_bytes, ecmp.leftover_bytes);
        assert_eq!(rep.run.throughput.delivered(), ecmp.throughput.delivered());
        assert_eq!(rep.run.total_backlog, ecmp.total_backlog);
        assert_eq!(rep.run.cumulative_delivered, ecmp.cumulative_delivered);
        assert!(rep.run.completions > 0, "non-vacuous: flows must finish");
        // And every per-flow FCT dominates.
        for c in &rep.completions {
            assert!(
                c.fct <= c.base_fct,
                "{}: {} > {}",
                c.flow,
                c.fct.as_secs(),
                c.base_fct.as_secs()
            );
            if !c.replicated {
                assert_eq!(c.fct.as_secs().to_bits(), c.base_fct.as_secs().to_bits());
            }
        }
    }

    #[test]
    fn replica_wins_when_primary_plane_is_jammed() {
        // Two planes, 10 Gbps budget each (uplink 20 Gbps): one flow per
        // plane per direction. SRPT protects the shortest flow, so the
        // only way a replicable flow gets plane-rejected is a stream of
        // even-shorter flows hogging its hashed plane: three 30 KB flows
        // (one VOQ, back to back, 24 µs each) hold plane 0 for 72 µs
        // while the 50 KB victim's replica rides plane 1 and finishes in
        // 40 µs — before the primary plane ever frees up.
        let topo = KAryFatTree::builder(4).hosts_per_edge(2).build().unwrap();
        assert_eq!(topo.core_planes(), 2);
        // Four flow ids all hashed onto plane 0.
        let ids: Vec<u64> = (0u64..)
            .filter(|&i| plane_of(FlowId::new(i), 2) == PlaneId::new(0))
            .take(4)
            .collect();
        let victim = ids[3];
        let flows = vec![
            arrival(ids[0], 0.0, 0, 2, 30_000),
            arrival(ids[1], 0.0, 0, 2, 30_000),
            arrival(ids[2], 0.0, 0, 2, 30_000),
            arrival(victim, 0.0, 1, 4, 50_000),
        ];
        let cfg = SimConfig::builder()
            .horizon(SimTime::from_secs(0.05))
            .enforce_core_capacity(true)
            .build();
        let rep = simulate_repflow(&topo, &mut RepFlow::new(60_000), flows, cfg).unwrap();
        assert_eq!(rep.stats.replicated_flows, 4, "all four are short");
        assert_eq!(rep.stats.replica_wins, 1, "the victim's replica wins");
        let short = rep
            .completions
            .iter()
            .find(|c| c.flow == FlowId::new(victim))
            .expect("victim completes");
        assert_eq!(short.winner, Some(PlaneId::new(1)));
        // Replica: 50 KB at 10 Gbps from t=0 → 40 µs. Primary: plane 0
        // frees at 72 µs → base FCT 112 µs.
        assert_eq!(short.fct, SimTime::from_micros(40.0));
        assert!((short.base_fct.as_secs() - 112e-6).abs() < 1e-12);
        // The winning replica moved the whole flow; the primary's
        // post-win bytes are tallied as cancelled.
        assert_eq!(rep.stats.winning_replica_bytes, Bytes::new(50_000));
        assert_eq!(rep.stats.cancelled_primary_bytes, Bytes::new(50_000));
        // Exact replica accounting identity; the jammers' replicas never
        // transmitted (their primaries were always admitted).
        assert_eq!(rep.stats.losing_replica_bytes, Bytes::ZERO);
        assert_eq!(rep.stats.racing_replica_bytes, Bytes::ZERO);
        assert_eq!(
            rep.stats.replica_bytes,
            rep.stats.winning_replica_bytes
                + rep.stats.losing_replica_bytes
                + rep.stats.racing_replica_bytes
        );
    }

    #[test]
    fn full_bisection_disables_replication() {
        let topo = KAryFatTree::builder(4).build().unwrap();
        let flows = vec![arrival(0, 0.0, 0, 8, 50_000)];
        let cfg = SimConfig::builder()
            .horizon(SimTime::from_secs(0.01))
            .build();
        let rep = simulate_repflow(&topo, &mut RepFlow::default(), flows, cfg).unwrap();
        assert_eq!(rep.stats.replicated_flows, 0);
        assert_eq!(rep.stats.replica_bytes, Bytes::ZERO);
    }
}
