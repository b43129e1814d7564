//! Max-min fair-share fabric allocation: the "no scheduling" baseline.
//!
//! The disciplines in `basrpt-core` pick a crossbar matching — at most one
//! flow per source and destination NIC transmits, at line rate. The
//! related work (Abbasloo et al., "To schedule or not to schedule";
//! Roberts & Rossi) argues the interesting comparison is against *no*
//! scheduling at all: every active flow transmits simultaneously and the
//! fabric divides capacity **max-min fairly**. This module implements that
//! baseline with the same exact byte accounting as the matching engine, so
//! the fig2/table1 grids can put FairShare next to SRPT/BASRPT.
//!
//! # The water-filling model
//!
//! Capacity constraints come from the [`Topology`]: every source NIC and
//! every destination NIC caps the sum of its flows' rates at the edge
//! rate, and — when core capacity is enforced (oversubscribed fabrics, or
//! [`SimConfig::enforce_core_capacity`]) — every rack's uplink and
//! downlink cap the sum over its inter-rack flows. Progressive filling
//! raises every unfrozen flow's rate uniformly until some constraint
//! saturates, freezes that constraint's flows at the saturation level, and
//! repeats — the classic max-min fair allocation.
//!
//! Two implementations compute it:
//!
//! * [`FairShareAllocator`] — the production allocator: per-flow
//!   constraint lists built once per reschedule, a compacted live-flow
//!   list, `O(C + live)` per round;
//! * [`crate::reference::simulate_fair_share_naive`] — a deliberately
//!   naive reference that rescans **every flow for every constraint on
//!   every round** (`O(n²)` per reschedule) with dumb data structures.
//!
//! Both follow the *same canonical arithmetic contract* — fill levels are
//! computed as `(residual / unfrozen).max(0.0)`, residuals are decremented
//! by the round's level once per frozen member in ascending flow-id order
//! (source, destination, uplink, downlink constraint order within a flow)
//! — so their outputs are **bit-identical**, which is what
//! `tests/fairshare_differential.rs` pins across seeds × topologies ×
//! shard counts, the same technique that pins the delta engine against
//! the scan engine.
//!
//! # The event loop
//!
//! [`simulate_fair_share`] runs on the matching engine's event core, with
//! the fair-share allocation policy in place of the crossbar one — same
//! event ordering within an instant (completions, arrivals, sample,
//! reallocation), same epoch-based drain accounting, same analytic
//! completion instants — but every active flow holds a per-flow *rate*
//! rather than being on/off at line rate. Reallocation happens on every
//! arrival and completion; only flows whose rate actually changed re-open
//! their drain epoch and pay a [`CompletionCalendar`] edit — a flow whose
//! fair share is unaffected keeps its epoch, so its completion instant
//! (and every output bit) is invariant to unrelated churn.
//!
//! The core also settles byte accounts **lazily** (see [`crate::settle`]):
//! per event only the flows actually *due* drain into the table, and an
//! unchanged-rate flow's account is left untouched until a sample
//! instant, the horizon, or its own rate change observes it. Because each
//! account settles through the same exact `drain_target` conversion no
//! matter when it is read, lazy and eager runs are bit-identical — the
//! naive reference stays eager and `tests/fairshare_differential.rs` pins
//! exactly that.

use crate::calendar::CompletionCalendar;
use crate::delta::SettledDrain;
use crate::engine::{FabricError, FabricRun, ScheduledEntry, SimConfig};
use crate::online::{run_batch, AllocationPolicy};
use crate::topology::Topology;
use basrpt_core::FlowTable;
use dcn_probe::{NoProbe, Probe};
use dcn_types::{FlowId, Rate, SimTime, Voq};
use dcn_workload::FlowArrival;
use std::collections::HashMap;

/// The capacity-constraint system of one topology, shared by the
/// production and reference water-fillers so both see the identical
/// constraint indexing, capacities and membership rule.
///
/// Constraint indices are canonical: `0..H` are source-NIC constraints,
/// `H..2H` destination-NIC constraints, then (only when core capacity is
/// enforced) `2H..2H+R` rack uplinks and `2H+R..2H+2R` rack downlinks.
/// Intra-rack flows are not members of any rack constraint.
#[derive(Debug, Clone)]
pub struct ConstraintSpec {
    num_hosts: usize,
    num_racks: usize,
    rack_of: Vec<u32>,
    edge_cap: f64,
    uplink_cap: f64,
    enforce_core: bool,
}

impl ConstraintSpec {
    /// Builds the constraint system of `topo`. Rack constraints are
    /// included only when `enforce_core` is set (the engine passes
    /// `config.enforce_core_capacity || !topo.is_full_bisection()`, the
    /// same rule as the matching engine's core filter).
    pub fn new<T: Topology + ?Sized>(topo: &T, enforce_core: bool) -> Self {
        let num_hosts = topo.num_hosts() as usize;
        let rack_of = (0..num_hosts as u32)
            .map(|h| topo.rack_of(dcn_types::HostId::new(h)).index())
            .collect();
        ConstraintSpec {
            num_hosts,
            num_racks: topo.num_racks() as usize,
            rack_of,
            edge_cap: topo.edge_rate().bytes_per_sec(),
            uplink_cap: topo.rack_uplink_capacity().bytes_per_sec(),
            enforce_core,
        }
    }

    /// Total number of constraints.
    pub fn len(&self) -> usize {
        2 * self.num_hosts
            + if self.enforce_core {
                2 * self.num_racks
            } else {
                0
            }
    }

    /// Whether the system has no constraints (an empty topology cannot be
    /// built, so this is always false in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity of constraint `c`, in bytes/second.
    pub fn cap(&self, c: usize) -> f64 {
        if c < 2 * self.num_hosts {
            self.edge_cap
        } else {
            self.uplink_cap
        }
    }

    /// Writes the constraints `voq` is a member of into `out` in canonical
    /// order (source NIC, destination NIC, rack uplink, rack downlink) and
    /// returns how many there are (2 for intra-rack or unenforced-core
    /// flows, 4 otherwise).
    pub fn constraints_of(&self, voq: Voq, out: &mut [u32; 4]) -> usize {
        let (src, dst) = (voq.src().as_usize(), voq.dst().as_usize());
        out[0] = src as u32;
        out[1] = (self.num_hosts + dst) as u32;
        let (sr, dr) = (self.rack_of[src], self.rack_of[dst]);
        if !self.enforce_core || sr == dr {
            return 2;
        }
        out[2] = (2 * self.num_hosts) as u32 + sr;
        out[3] = (2 * self.num_hosts + self.num_racks) as u32 + dr;
        4
    }
}

/// The production progressive water-filler.
///
/// Reusable across reallocations: internal vectors are cleared, not
/// reallocated. Per reallocation the cost is `O(n)` setup plus
/// `O(C + live)` per filling round, against the naive reference's
/// `O(n · C)` per round — same arithmetic, different data structures (see
/// the module docs for the bit-identity contract).
///
/// # Example
///
/// ```
/// use dcn_fabric::{ConstraintSpec, FairShareAllocator, FatTree};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let topo = FatTree::scaled(2, 4, 1)?;
/// let mut alloc = FairShareAllocator::new(ConstraintSpec::new(&topo, false));
/// // Two flows out of host 0: the 10 Gbps NIC is split fairly.
/// let flows = vec![
///     (FlowId::new(0), Voq::new(HostId::new(0), HostId::new(1))),
///     (FlowId::new(1), Voq::new(HostId::new(0), HostId::new(2))),
/// ];
/// let mut rates = Vec::new();
/// alloc.allocate(&flows, &mut rates);
/// assert_eq!(rates[0], topo.edge_rate().bytes_per_sec() / 2.0);
/// assert_eq!(rates[0], rates[1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FairShareAllocator {
    spec: ConstraintSpec,
    residual: Vec<f64>,
    unfrozen: Vec<u32>,
    cons: Vec<[u32; 4]>,
    cons_len: Vec<u8>,
    live: Vec<u32>,
    marked: Vec<u32>,
}

impl FairShareAllocator {
    /// Creates an allocator for the given constraint system.
    pub fn new(spec: ConstraintSpec) -> Self {
        let c = spec.len();
        FairShareAllocator {
            spec,
            residual: Vec::with_capacity(c),
            unfrozen: Vec::with_capacity(c),
            cons: Vec::new(),
            cons_len: Vec::new(),
            live: Vec::new(),
            marked: Vec::new(),
        }
    }

    /// The constraint system this allocator fills.
    pub fn spec(&self) -> &ConstraintSpec {
        &self.spec
    }

    /// Computes the max-min fair rate (bytes/second) of every flow.
    ///
    /// `flows` must be sorted by ascending [`FlowId`] — the canonical
    /// freezing order of the arithmetic contract (the engine collects the
    /// flow table in that order). `rates` is cleared and filled so
    /// `rates[i]` is the rate of `flows[i]`.
    pub fn allocate(&mut self, flows: &[(FlowId, Voq)], rates: &mut Vec<f64>) {
        debug_assert!(
            flows.windows(2).all(|w| w[0].0 < w[1].0),
            "flows must be sorted by ascending id"
        );
        let c = self.spec.len();
        rates.clear();
        rates.resize(flows.len(), 0.0);
        self.residual.clear();
        self.residual.extend((0..c).map(|i| self.spec.cap(i)));
        self.unfrozen.clear();
        self.unfrozen.resize(c, 0);
        self.cons.clear();
        self.cons_len.clear();
        for &(_, voq) in flows {
            let mut buf = [0u32; 4];
            let n = self.spec.constraints_of(voq, &mut buf);
            for &cc in &buf[..n] {
                self.unfrozen[cc as usize] += 1;
            }
            self.cons.push(buf);
            self.cons_len.push(n as u8);
        }
        self.live.clear();
        self.live.extend(0..flows.len() as u32);

        while !self.live.is_empty() {
            // The round's fill level: the smallest per-constraint level
            // among constraints that still have unfrozen members.
            let mut lambda = f64::INFINITY;
            for i in 0..c {
                if self.unfrozen[i] > 0 {
                    let level = (self.residual[i] / self.unfrozen[i] as f64).max(0.0);
                    if level < lambda {
                        lambda = level;
                    }
                }
            }
            debug_assert!(lambda.is_finite(), "live flows imply a finite level");

            // Freeze every unfrozen flow touching a constraint at the
            // round level. `live` is ascending, so `marked` is too.
            self.marked.clear();
            let (cons, cons_len, unfrozen, residual, marked) = (
                &self.cons,
                &self.cons_len,
                &self.unfrozen,
                &self.residual,
                &mut self.marked,
            );
            self.live.retain(|&f| {
                let fi = f as usize;
                let hit = cons[fi][..cons_len[fi] as usize].iter().any(|&cc| {
                    let ci = cc as usize;
                    unfrozen[ci] > 0
                        && ((residual[ci] / unfrozen[ci] as f64).max(0.0)).to_bits()
                            == lambda.to_bits()
                });
                if hit {
                    marked.push(f);
                }
                !hit
            });
            debug_assert!(!self.marked.is_empty(), "each round freezes a flow");

            // Apply in ascending flow order, constraints in canonical
            // order — the exact subtraction sequence of the contract.
            for &f in &self.marked {
                let fi = f as usize;
                rates[fi] = lambda;
                for &cc in &self.cons[fi][..self.cons_len[fi] as usize] {
                    self.residual[cc as usize] -= lambda;
                    self.unfrozen[cc as usize] -= 1;
                }
            }
        }
    }
}

/// The naive reference water-filler: every round recounts every
/// constraint's unfrozen membership by scanning **all** flows — `O(n · C)`
/// per round, `O(n² · C)` worst case per reallocation — with no retained
/// state beyond the canonical residuals. Kept as the differential-testing
/// reference for [`FairShareAllocator`] (see the module docs).
pub(crate) fn waterfill_naive(
    spec: &ConstraintSpec,
    flows: &[(FlowId, Voq)],
    rates: &mut Vec<f64>,
) {
    let c = spec.len();
    rates.clear();
    rates.resize(flows.len(), 0.0);
    let mut residual: Vec<f64> = (0..c).map(|i| spec.cap(i)).collect();
    let mut frozen = vec![false; flows.len()];
    let member = |voq: Voq, target: usize| {
        let mut buf = [0u32; 4];
        let n = spec.constraints_of(voq, &mut buf);
        buf[..n].contains(&(target as u32))
    };
    loop {
        // Recount and re-level every constraint from scratch.
        let mut lambda = f64::INFINITY;
        let mut level_of = vec![None; c];
        for (ci, level_slot) in level_of.iter_mut().enumerate() {
            let count = flows
                .iter()
                .enumerate()
                .filter(|&(fi, &(_, voq))| !frozen[fi] && member(voq, ci))
                .count();
            if count > 0 {
                let level = (residual[ci] / count as f64).max(0.0);
                *level_slot = Some(level);
                if level < lambda {
                    lambda = level;
                }
            }
        }
        if !lambda.is_finite() {
            break;
        }
        // Two passes — mark against pre-round levels, then apply in
        // ascending flow order (the canonical subtraction sequence).
        let marked: Vec<usize> = flows
            .iter()
            .enumerate()
            .filter(|&(fi, &(_, voq))| {
                !frozen[fi] && {
                    let mut buf = [0u32; 4];
                    let n = spec.constraints_of(voq, &mut buf);
                    buf[..n].iter().any(|&cc| {
                        level_of[cc as usize]
                            .is_some_and(|level| level.to_bits() == lambda.to_bits())
                    })
                }
            })
            .map(|(fi, _)| fi)
            .collect();
        for fi in marked {
            rates[fi] = lambda;
            frozen[fi] = true;
            let mut buf = [0u32; 4];
            let n = spec.constraints_of(flows[fi].1, &mut buf);
            for &cc in &buf[..n] {
                residual[cc as usize] -= lambda;
            }
        }
    }
}

/// The max-min fair-share allocation policy of the shared event core:
/// every active flow transmits at its [`FairShareAllocator`] rate,
/// recomputed on every arrival and completion. A flow whose rate is
/// unchanged to the bit keeps its drain epoch and calendar entry; only
/// re-rated flows settle their old epoch and open a new one.
#[derive(Debug)]
pub(crate) struct FairShare {
    alloc: FairShareAllocator,
    /// Transmitting flows in ascending id order (the emission order).
    entries: Vec<ScheduledEntry>,
    calendar: CompletionCalendar,
    /// Scratch reused across reallocations: the previous accounts keyed
    /// by flow, the id-sorted active flows, and their rates.
    carry: HashMap<FlowId, ScheduledEntry>,
    flows: Vec<(FlowId, Voq)>,
    rates: Vec<f64>,
}

impl FairShare {
    pub(crate) fn new<T: Topology + ?Sized>(topo: &T, enforce_core: bool) -> Self {
        FairShare {
            alloc: FairShareAllocator::new(ConstraintSpec::new(topo, enforce_core)),
            entries: Vec::new(),
            calendar: CompletionCalendar::new(),
            carry: HashMap::new(),
            flows: Vec::new(),
            rates: Vec::new(),
        }
    }
}

impl AllocationPolicy for FairShare {
    fn supports_lazy_views(&self) -> bool {
        true
    }

    fn next_completion(&mut self) -> SimTime {
        self.calendar.next_completion()
    }

    fn settle(&mut self, t: SimTime, observe_all: bool, out: &mut Vec<SettledDrain>) -> bool {
        // Lazy settlement touches only the flows *due* at t (one linear
        // scan of cheap compares), deferring the others until a sample
        // instant, the horizon, or their own rate change observes them.
        let mut completed_any = false;
        let calendar = &mut self.calendar;
        self.entries.retain_mut(|e| {
            let target = if observe_all || t >= e.completes_at {
                e.target_at(t)
            } else {
                e.settled
            };
            if target == e.settled {
                return true;
            }
            let completed = target == e.epoch_remaining;
            out.push(SettledDrain {
                flow: e.flow,
                voq: e.voq,
                amount: target - e.settled,
                completed,
            });
            e.settled = target;
            if completed {
                calendar.remove(e.flow);
                completed_any = true;
            }
            !completed
        });
        completed_any
    }

    fn reschedule<T: Topology + ?Sized, O: Probe>(
        &mut self,
        _topo: &T,
        now: SimTime,
        table: &FlowTable,
        _lazy: bool,
        _obs: &mut O,
        out: &mut Vec<SettledDrain>,
    ) {
        self.flows.clear();
        self.flows.extend(table.iter().map(|f| (f.id(), f.voq())));
        self.flows.sort_unstable_by_key(|&(id, _)| id);
        self.alloc.allocate(&self.flows, &mut self.rates);
        self.carry.clear();
        self.carry
            .extend(self.entries.drain(..).map(|e| (e.flow, e)));
        for (&(id, voq), &rate) in self.flows.iter().zip(&self.rates) {
            let rate = Rate::from_bytes_per_sec(rate);
            let remaining = match self.carry.remove(&id) {
                // An unchanged rate keeps its drain epoch: the completion
                // instant is bit-invariant to unrelated churn, and the
                // calendar is not touched.
                Some(old) if old.keeps_rate(rate) => {
                    self.entries.push(old);
                    continue;
                }
                // A rate change (or starvation) re-opens the epoch over
                // the live remaining bytes, so any unsettled residue
                // drains first — under eager settlement the event already
                // settled it and this owes nothing.
                Some(old) => {
                    let target = old.target_at(now);
                    debug_assert!(target < old.epoch_remaining, "due flows settled first");
                    if target > old.settled {
                        out.push(SettledDrain {
                            flow: id,
                            voq,
                            amount: target - old.settled,
                            completed: false,
                        });
                    }
                    old.epoch_remaining - target
                }
                None => table.get(id).expect("allocated flow is active").remaining(),
            };
            if rate.is_zero() {
                // Pathological rounding: the flow starves for one epoch
                // and re-enters at the next event.
                self.calendar.remove(id);
            } else {
                let entry = ScheduledEntry::new(id, voq, now, remaining, rate);
                self.calendar.update(id, entry.completes_at);
                self.entries.push(entry);
            }
        }
        debug_assert!(self.carry.is_empty(), "every active flow was reallocated");
    }
}

/// Runs one max-min fair-share simulation with the production
/// [`FairShareAllocator`] (see the module docs for the model).
///
/// Accepts the same inputs as [`crate::simulate`] minus the scheduler —
/// fair sharing *is* the discipline — and produces the same [`FabricRun`]
/// measurements with the same exact accounting, so runs are directly
/// comparable. Also reachable through the builder:
/// [`FabricSim::fair_share`](crate::FabricSim::fair_share).
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
///
/// # Example
///
/// ```
/// use dcn_fabric::{simulate_fair_share, FatTree, SimConfig};
/// use dcn_types::SimTime;
/// use dcn_workload::TrafficSpec;
///
/// let topo = FatTree::scaled(2, 4, 1)?;
/// let spec = TrafficSpec::scaled(2, 4, 0.5)?;
/// let run = simulate_fair_share(
///     &topo,
///     spec.generator(7)?,
///     SimConfig::builder().horizon(SimTime::from_secs(0.05)).build(),
/// )?;
/// assert_eq!(run.arrived_bytes, run.throughput.delivered() + run.leftover_bytes);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_fair_share<T: Topology + ?Sized>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    simulate_fair_share_probed(topo, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_fair_share`].
///
/// The fair-share engine emits arrival, drain, completion and sample
/// events; it has no crossbar schedule, so no decision events are emitted.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_fair_share_probed<T: Topology + ?Sized, P: Probe>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    run_batch(topo, generator, config, probe, |enforce_core| {
        FairShare::new(topo, enforce_core)
    })
    .map(|(run, _)| run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTree, KAryFatTree};
    use dcn_types::{Bytes, FlowClass, HostId};

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
            .build()
    }

    #[test]
    fn solo_flow_gets_line_rate_and_exact_fct() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(&topo, vec![arrival(0, 0.0, 0, 1, 1_250_000)], config(0.01))
            .unwrap();
        assert_eq!(run.completions, 1);
        let want = topo
            .edge_rate()
            .transfer_time(Bytes::new(1_250_000))
            .as_secs();
        let got = run.fct.summary(FlowClass::Background).unwrap().mean_secs;
        assert_eq!(got.to_bits(), want.to_bits(), "solo flow runs at line rate");
    }

    #[test]
    fn contending_flows_split_the_nic_fairly() {
        // Two equal flows out of host 0: each gets 5 Gbps, both finish at
        // exactly twice the solo time — where SRPT would serialize them.
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(
            &topo,
            vec![
                arrival(0, 0.0, 0, 1, 1_250_000),
                arrival(1, 0.0, 0, 2, 1_250_000),
            ],
            config(0.01),
        )
        .unwrap();
        assert_eq!(run.completions, 2);
        let s = run.fct.summary(FlowClass::Background).unwrap();
        let solo = topo
            .edge_rate()
            .transfer_time(Bytes::new(1_250_000))
            .as_secs();
        assert!((s.max_secs - 2.0 * solo).abs() < 1e-9, "max {}", s.max_secs);
        assert!((s.mean_secs - 2.0 * solo).abs() < 1e-9);
    }

    #[test]
    fn released_capacity_is_refilled() {
        // A short and a long flow share a NIC; once the short one ends the
        // long one speeds back up to line rate: total time is the
        // work-conserving 1 ms + 2 ms... as fair share: both at 5 Gbps,
        // short (625 KB) done at 1 ms; long (2.5 MB) then finishes its
        // remaining 1.875 MB at 10 Gbps by 2.5 ms.
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(
            &topo,
            vec![
                arrival(0, 0.0, 0, 1, 2_500_000),
                arrival(1, 0.0, 0, 2, 625_000),
            ],
            config(0.02),
        )
        .unwrap();
        assert_eq!(run.completions, 2);
        let s = run.fct.summary(FlowClass::Background).unwrap();
        assert!((s.max_secs - 0.0025).abs() < 1e-9, "max {}", s.max_secs);
        assert_eq!(
            run.throughput.delivered(),
            Bytes::new(3_125_000),
            "all bytes delivered"
        );
    }

    #[test]
    fn bytes_are_conserved_mid_flight() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(
            &topo,
            vec![
                arrival(0, 0.0, 0, 1, 50_000_000),
                arrival(1, 0.001, 2, 3, 1_000),
                arrival(2, 0.002, 1, 0, 7_777),
            ],
            config(0.01),
        )
        .unwrap();
        assert_eq!(
            run.arrived_bytes,
            run.throughput.delivered() + run.leftover_bytes
        );
        assert_eq!(run.completions + run.leftover_flows, run.arrivals);
    }

    #[test]
    fn oversubscribed_uplink_is_shared() {
        // 8 hosts/rack, one 40 Gbps core: the uplink is the bottleneck for
        // 8 inter-rack flows — each gets 5 Gbps, where the matching engine
        // would serialize them in two batches of four.
        let topo = FatTree::scaled(2, 8, 1).unwrap();
        assert!(!topo.is_full_bisection());
        let flows: Vec<FlowArrival> = (0..8)
            .map(|i| arrival(i, 0.0, i as u32, 8 + i as u32, 1_250_000))
            .collect();
        let run = simulate_fair_share(&topo, flows, config(0.05)).unwrap();
        assert_eq!(run.completions, 8);
        let s = run.fct.summary(FlowClass::Background).unwrap();
        // 1.25 MB at 5 Gbps = 2 ms, all identical.
        assert!((s.max_secs - 0.002).abs() < 1e-9, "max {}", s.max_secs);
        assert!((s.mean_secs - 0.002).abs() < 1e-9);
    }

    #[test]
    fn allocator_matches_naive_reference_bitwise() {
        let topo = KAryFatTree::builder(4)
            .hosts_per_edge(4)
            .oversubscription(4.0)
            .build()
            .unwrap();
        let spec = ConstraintSpec::new(&topo, true);
        let mut alloc = FairShareAllocator::new(spec.clone());
        // A messy mix: shared sources, shared destinations, intra- and
        // inter-rack flows.
        let flows: Vec<(FlowId, Voq)> = [
            (0u64, 0u32, 1u32),
            (1, 0, 9),
            (2, 0, 17),
            (3, 1, 9),
            (4, 2, 9),
            (5, 8, 9),
            (6, 16, 9),
            (7, 16, 24),
            (8, 17, 25),
            (9, 3, 2),
        ]
        .iter()
        .map(|&(id, s, d)| (FlowId::new(id), Voq::new(HostId::new(s), HostId::new(d))))
        .collect();
        let mut fast = Vec::new();
        let mut naive = Vec::new();
        alloc.allocate(&flows, &mut fast);
        waterfill_naive(&spec, &flows, &mut naive);
        assert_eq!(fast.len(), naive.len());
        for (i, (a, b)) in fast.iter().zip(naive.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "flow {i}: {a} vs {b}");
        }
        // And the allocation respects every constraint.
        for c in 0..spec.len() {
            let mut used = 0.0;
            for (i, &(_, voq)) in flows.iter().enumerate() {
                let mut buf = [0u32; 4];
                let n = spec.constraints_of(voq, &mut buf);
                if buf[..n].contains(&(c as u32)) {
                    used += fast[i];
                }
            }
            assert!(
                used <= spec.cap(c) * (1.0 + 1e-9),
                "constraint {c} oversubscribed: {used} > {}",
                spec.cap(c)
            );
        }
    }

    #[test]
    fn engine_matches_naive_engine_bitwise() {
        let topo = FatTree::scaled(3, 4, 1).unwrap();
        let arrivals = vec![
            arrival(0, 0.0, 0, 4, 300_000),
            arrival(1, 0.0001, 0, 5, 40_000),
            arrival(2, 0.0002, 4, 8, 1_000_000),
            arrival(3, 0.0003, 8, 0, 7_777),
            arrival(4, 0.0004, 1, 0, 250_000),
        ];
        let cfg = config(0.01);
        let fast = simulate_fair_share(&topo, arrivals.clone(), cfg).unwrap();
        let naive = crate::reference::simulate_fair_share_naive(&topo, arrivals, cfg).unwrap();
        assert_eq!(fast.completions, naive.completions);
        assert_eq!(fast.arrived_bytes, naive.arrived_bytes);
        assert_eq!(fast.leftover_bytes, naive.leftover_bytes);
        assert_eq!(fast.total_backlog, naive.total_backlog);
        assert_eq!(fast.cumulative_delivered, naive.cumulative_delivered);
        let (a, b) = (
            fast.fct.summary(FlowClass::Background).unwrap(),
            naive.fct.summary(FlowClass::Background).unwrap(),
        );
        assert_eq!(a.mean_secs.to_bits(), b.mean_secs.to_bits());
        assert_eq!(a.max_secs.to_bits(), b.max_secs.to_bits());
    }

    #[test]
    fn empty_workload_produces_the_sample_grid() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let run = simulate_fair_share(&topo, Vec::new(), config(0.001)).unwrap();
        assert_eq!(run.arrivals, 0);
        assert!(!run.total_backlog.is_empty());
    }

    #[test]
    fn bad_arrivals_are_rejected() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let err = simulate_fair_share(&topo, vec![arrival(0, 0.0, 0, 99, 1_000)], config(0.001));
        assert!(matches!(err, Err(FabricError::BadArrival(_))));
        let err = simulate_fair_share(&topo, vec![arrival(0, 0.0, 3, 3, 1_000)], config(0.001));
        assert!(matches!(err, Err(FabricError::BadArrival(_))));
    }
}
