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
//! * [`FairShareAllocator`] — the production allocator: the flows indexed
//!   by constraint once per reallocation, cached constraint levels
//!   refreshed only where a frozen flow touched them, `O(A)` per round for
//!   the `A` constraints that still have unfrozen members;
//! * [`crate::reference::simulate_fair_share_naive`] — a deliberately
//!   naive reference that rescans **every flow for every constraint on
//!   every round** (`O(n²)` per reschedule) with dumb data structures.
//!
//! Both follow the *same canonical arithmetic contract* — fill levels are
//! computed as `(residual / unfrozen).max(0.0)`, a round's level is the
//! smallest of them, every unfrozen flow on a constraint at that level
//! (compared by bits, against the levels at the round's start) freezes at
//! it, and residuals are decremented by the round's level once per frozen
//! member (every subtraction of a round is by the same level, so the
//! order the frozen flows are applied in does not change a bit) — so
//! their outputs are **bit-identical**, which is what
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
//! their drain epoch — a flow whose fair share is unaffected keeps its
//! epoch, so its completion instant (and every output bit) is invariant
//! to unrelated churn.
//!
//! The policy keeps the active flows in one id-ordered list across
//! events — an arrival enters it and a completion leaves it, each at its
//! binary-searched place — so a reallocation neither collects nor sorts
//! the table. Each transmitting flow's drain account is the
//! only record of its completion instant. The policy keeps the accounts
//! in one id-ordered list, rebuilt on every reallocation by a merge walk
//! against the id-ordered allocation, and keeps the earliest instant as a cached
//! minimum: every event already scans every account (lazy settlement
//! checks each one for being due) and every reallocation rebuilds them
//! all, so both passes refresh the minimum for free. There is no
//! completion heap and no per-flow map.
//!
//! The core also settles byte accounts **lazily** (see [`crate::settle`]):
//! per event only the flows actually *due* drain into the table, and an
//! unchanged-rate flow's account is left untouched until a sample
//! instant, the horizon, or its own rate change observes it. Because each
//! account settles through the same exact `ScheduledEntry` conversion no
//! matter when it is read, lazy and eager runs are bit-identical — the
//! naive reference stays eager and `tests/fairshare_differential.rs` pins
//! exactly that.

use crate::engine::{FabricError, FabricRun, SimConfig};
use crate::online::{run_batch, AllocationPolicy};
use crate::settle::{ScheduledEntry, SettledDrain};
use crate::topology::Topology;
use basrpt_core::{FlowSlot, FlowTable};
use dcn_probe::{NoProbe, Probe};
use dcn_types::{FlowId, Rate, SimTime, Voq};
use dcn_workload::FlowArrival;
use std::collections::VecDeque;

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
/// reallocated. Each allocation indexes the flows by constraint (every
/// constraint's members, ascending, in one offsets-and-members array
/// beside each flow's own constraint list) and caches each constraint's
/// fill level, recomputing a level only after a frozen flow touched its
/// constraint. A filling round takes the minimum over the constraints
/// that still have unfrozen members (a compacted list), then freezes the
/// unfrozen members of the constraints at that level: `O(A)` per round
/// for `A` such constraints, plus `O(n)` freezing over the whole
/// allocation (a constraint's members are walked once, in the round it
/// saturates), after `O(C + n)` setup — against the naive reference's
/// `O(n · C)` per round. Same arithmetic, different data structures (see
/// the module docs for the bit-identity contract).
///
/// # Example
///
/// ```
/// use dcn_fabric::{ConstraintSpec, FairShareAllocator, FatTree, Topology};
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
    /// Per constraint: the residual capacity, the unfrozen member count,
    /// and the cached fill level (`NaN` once a frozen flow touched it).
    residual: Vec<f64>,
    unfrozen: Vec<u32>,
    level: Vec<f64>,
    /// The members of constraint `c`, as ascending flow indices, are
    /// `members[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    members: Vec<u32>,
    /// Per flow: its constraints in canonical order, and whether it is
    /// frozen.
    cons: Vec<[u32; 4]>,
    cons_len: Vec<u8>,
    frozen: Vec<bool>,
    /// The constraints that had unfrozen members at the last round's
    /// start, ascending.
    active: Vec<u32>,
    /// The round's scratch: the constraints at its level, and the flows
    /// they freeze.
    tight: Vec<u32>,
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
            level: Vec::new(),
            start: Vec::new(),
            members: Vec::new(),
            cons: Vec::new(),
            cons_len: Vec::new(),
            frozen: Vec::new(),
            active: Vec::new(),
            tight: Vec::new(),
            marked: Vec::new(),
        }
    }

    /// Computes the max-min fair rate (bytes/second) of every flow.
    ///
    /// `flows` must be sorted by ascending [`FlowId`], the order the
    /// engine keeps its flow list in. `rates` is cleared and filled so
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
        self.level.clear();
        self.level.resize(c, f64::NAN);
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
        self.frozen.clear();
        self.frozen.resize(flows.len(), false);

        // The constraint index: `start` first holds each constraint's end,
        // then the flows are placed back to front, which leaves it holding
        // each constraint's start and every member list ascending.
        self.start.clear();
        let mut end = 0;
        for &count in &self.unfrozen {
            end += count;
            self.start.push(end);
        }
        self.start.push(end);
        self.members.clear();
        self.members.resize(end as usize, 0);
        for f in (0..flows.len()).rev() {
            for &cc in &self.cons[f][..self.cons_len[f] as usize] {
                let at = &mut self.start[cc as usize];
                *at -= 1;
                self.members[*at as usize] = f as u32;
            }
        }
        self.active.clear();
        self.active
            .extend((0..c as u32).filter(|&i| self.unfrozen[i as usize] > 0));

        let mut left = flows.len();
        while left > 0 {
            // The round's fill level: the smallest level among constraints
            // that still have unfrozen members, found in ascending
            // constraint order with the constraints at it. The same pass
            // drops the constraints whose members all froze and refreshes
            // the levels the last round touched.
            let mut lambda = f64::INFINITY;
            self.tight.clear();
            let mut kept = 0;
            for i in 0..self.active.len() {
                let ci = self.active[i] as usize;
                if self.unfrozen[ci] == 0 {
                    continue;
                }
                self.active[kept] = ci as u32;
                kept += 1;
                if self.level[ci].is_nan() {
                    self.level[ci] = (self.residual[ci] / self.unfrozen[ci] as f64).max(0.0);
                }
                let level = self.level[ci];
                if level < lambda {
                    lambda = level;
                    self.tight.clear();
                    self.tight.push(ci as u32);
                } else if level.to_bits() == lambda.to_bits() {
                    self.tight.push(ci as u32);
                }
            }
            self.active.truncate(kept);
            debug_assert!(lambda.is_finite(), "live flows imply a finite level");

            // Freeze every unfrozen member of a constraint at the round
            // level. Each such constraint is left with no unfrozen member,
            // so its member list is walked in this round only.
            self.marked.clear();
            for &ci in &self.tight {
                let (lo, hi) = (self.start[ci as usize], self.start[ci as usize + 1]);
                for &f in &self.members[lo as usize..hi as usize] {
                    if !self.frozen[f as usize] {
                        self.frozen[f as usize] = true;
                        self.marked.push(f);
                    }
                }
            }
            debug_assert!(!self.marked.is_empty(), "each round freezes a flow");
            left -= self.marked.len();

            // Every subtraction of a round is by the same level, so each
            // residual takes the contract's sequence of subtractions in
            // whatever order the frozen flows are applied.
            for &f in &self.marked {
                let fi = f as usize;
                rates[fi] = lambda;
                for &cc in &self.cons[fi][..self.cons_len[fi] as usize] {
                    let ci = cc as usize;
                    self.residual[ci] -= lambda;
                    self.unfrozen[ci] -= 1;
                    self.level[ci] = f64::NAN;
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
/// unchanged to the bit keeps its drain epoch; only re-rated flows settle
/// their old epoch and open a new one.
#[derive(Debug)]
pub(crate) struct FairShare {
    alloc: FairShareAllocator,
    /// Transmitting flows in ascending id order (the emission order). A
    /// ring, so `reschedule` rebuilds it in place: it takes the previous
    /// entries off the front as it appends the new ones.
    entries: VecDeque<ScheduledEntry>,
    /// The earliest `completes_at` over `entries`, refreshed by the two
    /// passes that rewrite them (`settle` and `reschedule`).
    next: SimTime,
    /// The active flows in ascending id order, kept across events: an
    /// arrival enters it, a completion leaves it.
    flows: Vec<(FlowId, Voq)>,
    /// The table slot of each of `flows`, at the same index: an account
    /// opened for a flow reads its slot here instead of probing the table.
    slots: Vec<FlowSlot>,
    /// Scratch reused across reallocations: the rate of each of `flows`.
    rates: Vec<f64>,
}

impl FairShare {
    pub(crate) fn new<T: Topology + ?Sized>(topo: &T, enforce_core: bool) -> Self {
        FairShare {
            alloc: FairShareAllocator::new(ConstraintSpec::new(topo, enforce_core)),
            entries: VecDeque::new(),
            next: SimTime::INFINITY,
            flows: Vec::new(),
            slots: Vec::new(),
            rates: Vec::new(),
        }
    }
}

impl AllocationPolicy for FairShare {
    fn supports_lazy_views(&self) -> bool {
        true
    }

    fn next_completion(&mut self) -> SimTime {
        self.next
    }

    fn settle(&mut self, t: SimTime, observe_all: bool, out: &mut Vec<SettledDrain>) -> bool {
        // Lazy settlement touches only the flows *due* at t (one linear
        // scan of cheap compares), deferring the others until a sample
        // instant, the horizon, or their own rate change observes them.
        // The same scan refreshes the earliest completion instant.
        let mut completed_any = false;
        let mut next = SimTime::INFINITY;
        self.entries.retain_mut(|e| {
            if observe_all || t >= e.completes_at {
                if let Some(drain) = e.settle(t) {
                    out.push(drain);
                    if drain.completed {
                        completed_any = true;
                        return false;
                    }
                }
            }
            next = next.min(e.completes_at);
            true
        });
        self.next = next;
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
        debug_assert!(
            {
                let mut active: Vec<_> = table.iter().map(|f| (f.id(), f.voq())).collect();
                active.sort_unstable_by_key(|&(id, _)| id);
                active == self.flows
                    && self.slots.len() == self.flows.len()
                    && self
                        .flows
                        .iter()
                        .zip(&self.slots)
                        .all(|(&(id, _), &slot)| table.get_at(slot, id).is_some())
            },
            "the kept flow list is the table's, in id order, with each flow's slot"
        );
        self.alloc.allocate(&self.flows, &mut self.rates);
        // The previous entries are an id-ordered subsequence of the active
        // flows (a flow leaves the table only by completing, which drops
        // its entry), so the walk alongside the allocation takes them off
        // the ring's front, in order, while it appends the new entries:
        // the ring never holds more entries than there are active flows.
        let mut old_left = self.entries.len();
        let mut next = SimTime::INFINITY;
        for ((&(id, _), &slot), &rate) in self.flows.iter().zip(&self.slots).zip(&self.rates) {
            let rate = Rate::from_bytes_per_sec(rate);
            let prev = match self.entries.front() {
                Some(e) if old_left > 0 && e.flow == id => {
                    old_left -= 1;
                    self.entries.pop_front()
                }
                _ => None,
            };
            let (slot, remaining) = match prev {
                // An unchanged rate keeps its drain epoch: the completion
                // instant is bit-invariant to unrelated churn.
                Some(old) if old.keeps_rate(rate) => {
                    next = next.min(old.completes_at);
                    self.entries.push_back(old);
                    continue;
                }
                // A rate change (or starvation) re-opens the epoch over
                // the live remaining bytes, so any unsettled residue
                // drains first — under eager settlement the event already
                // settled it and this owes nothing.
                Some(mut old) => {
                    if let Some(drain) = old.settle(now) {
                        debug_assert!(!drain.completed, "due flows settled first");
                        out.push(drain);
                    }
                    (old.slot, old.epoch_remaining - old.settled)
                }
                // A flow without an account (newly arrived, or starved at
                // the last allocation) reads its remaining bytes at the
                // slot it was admitted to.
                None => {
                    let flow = table.get_at(slot, id).expect("slot holds it");
                    (slot, flow.remaining())
                }
            };
            // A zero rate (pathological rounding) starves the flow for one
            // epoch; it re-enters at the next event.
            if !rate.is_zero() {
                let entry = ScheduledEntry::new(id, slot, now, remaining, rate);
                next = next.min(entry.completes_at);
                self.entries.push_back(entry);
            }
        }
        debug_assert_eq!(old_left, 0, "every active flow was reallocated");
        self.next = next;
    }

    fn on_arrival<T: Topology + ?Sized>(
        &mut self,
        _topo: &T,
        arrival: &FlowArrival,
        slot: FlowSlot,
    ) {
        let at = self.flows.partition_point(|&(id, _)| id < arrival.id);
        self.flows.insert(at, (arrival.id, arrival.voq));
        self.slots.insert(at, slot);
    }

    fn on_drain(&mut self, drain: &SettledDrain) {
        if drain.completed {
            let at = self
                .flows
                .binary_search_by_key(&drain.flow, |&(id, _)| id)
                .expect("a completing flow is listed");
            self.flows.remove(at);
            self.slots.remove(at);
        }
    }
}

/// Runs one max-min fair-share simulation with the production
/// [`FairShareAllocator`] (see the module docs for the model).
///
/// Accepts the same inputs as [`crate::simulate`] minus the scheduler —
/// fair sharing *is* the discipline — and produces the same [`FabricRun`]
/// measurements with the same exact accounting, so runs are directly
/// comparable.
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
    run_batch(topo, generator, config, probe, false, |enforce_core| {
        FairShare::new(topo, enforce_core)
    })
    .map(|(run, ..)| run)
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

    /// Allocates `flows` with `alloc` and checks the rates bit for bit
    /// against the naive water-filler, every constraint's capacity, and
    /// max-min fairness: each flow has a saturated constraint on which no
    /// member runs faster. Returns the rates.
    fn assert_matches_naive(
        alloc: &mut FairShareAllocator,
        spec: &ConstraintSpec,
        flows: &[(FlowId, Voq)],
    ) -> Vec<f64> {
        let mut fast = Vec::new();
        let mut naive = Vec::new();
        alloc.allocate(flows, &mut fast);
        waterfill_naive(spec, flows, &mut naive);
        assert_eq!(fast.len(), naive.len());
        for (i, (a, b)) in fast.iter().zip(naive.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "flow {i}: {a} vs {b}");
        }
        let members = |c: usize| {
            flows.iter().enumerate().filter(move |&(_, &(_, voq))| {
                let mut buf = [0u32; 4];
                let n = spec.constraints_of(voq, &mut buf);
                buf[..n].contains(&(c as u32))
            })
        };
        let used: Vec<f64> = (0..spec.len())
            .map(|c| members(c).map(|(i, _)| fast[i]).sum())
            .collect();
        for (c, &used) in used.iter().enumerate() {
            assert!(
                used <= spec.cap(c) * (1.0 + 1e-9),
                "constraint {c} oversubscribed: {used} > {}",
                spec.cap(c)
            );
        }
        for (i, &(_, voq)) in flows.iter().enumerate() {
            let mut buf = [0u32; 4];
            let n = spec.constraints_of(voq, &mut buf);
            let bottleneck = buf[..n].iter().any(|&c| {
                let c = c as usize;
                used[c] >= spec.cap(c) * (1.0 - 1e-9)
                    && members(c).all(|(j, _)| fast[j] <= fast[i] * (1.0 + 1e-9))
            });
            assert!(bottleneck, "flow {i} at {} has no bottleneck", fast[i]);
        }
        fast
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
        assert_matches_naive(&mut alloc, &spec, &flows);
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

    /// Two racks of two hosts with a zero-capacity core: intra-rack flows
    /// share their NICs, inter-rack flows starve.
    struct CutCore;

    impl Topology for CutCore {
        fn num_racks(&self) -> u32 {
            2
        }
        fn hosts_per_rack(&self) -> u32 {
            2
        }
        fn edge_rate(&self) -> Rate {
            Rate::from_gbps(10.0)
        }
        fn rack_uplink_capacity(&self) -> Rate {
            Rate::from_bytes_per_sec(0.0)
        }
        fn core_planes(&self) -> u32 {
            1
        }
    }

    fn earliest(policy: &FairShare) -> SimTime {
        policy
            .entries
            .iter()
            .map(|e| e.completes_at)
            .min()
            .unwrap_or(SimTime::INFINITY)
    }

    #[test]
    fn cached_next_completion_is_the_minimum_over_the_accounts() {
        use basrpt_core::FlowState;

        let topo = CutCore;
        let mut policy = FairShare::new(&topo, true);
        let mut table = FlowTable::new();
        let mut out = Vec::new();
        // Admits a flow as the core does: into the table, then the hook.
        let admit = |policy: &mut FairShare, table: &mut FlowTable, id, src, dst, size| {
            let a = arrival(id, 0.0, src, dst, size);
            let slot = table.insert(FlowState::new(a.id, a.voq, size)).unwrap();
            policy.on_arrival(&topo, &a, slot);
        };
        let us = SimTime::from_micros;

        // t = 0: flows 1 (0→1) and 2 (2→3) run alone at line rate.
        admit(&mut policy, &mut table, 1, 0, 1, 12_500);
        admit(&mut policy, &mut table, 2, 2, 3, 25_000);
        policy.reschedule(&topo, SimTime::ZERO, &table, true, &mut NoProbe, &mut out);
        assert!(out.is_empty());
        assert_eq!(policy.next_completion(), us(10.0));
        assert_eq!(policy.next_completion(), earliest(&policy));

        // t = 1 µs: flow 3 joins flow 2's NIC (re-rating flow 2 to half)
        // and flow 4 crosses the cut core (starving). Flow 1 keeps its
        // rate, its epoch, and its 10 µs completion.
        admit(&mut policy, &mut table, 3, 2, 3, 2_500);
        admit(&mut policy, &mut table, 4, 0, 2, 1_000);
        policy.reschedule(&topo, us(1.0), &table, true, &mut NoProbe, &mut out);
        let ids: Vec<u64> = policy.entries.iter().map(|e| e.flow.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3], "the starved flow has no account");
        assert_eq!(policy.entries[0].epoch, SimTime::ZERO, "flow 1 kept");
        assert_eq!(policy.entries[1].epoch, us(1.0), "flow 2 re-rated");
        // Flow 2's first microsecond settles as it is re-rated.
        assert_eq!(
            out,
            vec![SettledDrain {
                flow: FlowId::new(2),
                slot: table.slot_of(FlowId::new(2)).unwrap(),
                amount: 1_250,
                completed: false,
            }]
        );
        // Flow 3's 2 500 bytes at 5 Gbps finish ~4 µs in, first of all.
        let t3 = us(1.0) + Rate::from_gbps(5.0).transfer_time(Bytes::new(2_500));
        assert!((t3.as_secs() - 5e-6).abs() < 1e-15);
        assert_eq!(policy.next_completion(), t3);
        assert_eq!(policy.next_completion(), earliest(&policy));

        // A lazy settle at that instant completes flow 3 and touches
        // nothing else.
        out.clear();
        assert!(policy.settle(t3, false, &mut out));
        assert_eq!(
            out,
            vec![SettledDrain {
                flow: FlowId::new(3),
                slot: table.slot_of(FlowId::new(3)).unwrap(),
                amount: 2_500,
                completed: true,
            }]
        );
        assert_eq!(policy.entries.len(), 2);
        assert_eq!(policy.next_completion(), us(10.0));
        assert_eq!(policy.next_completion(), earliest(&policy));
    }

    /// Flows with ascending ids (with gaps) on the given VOQs.
    fn flow_set(voqs: impl IntoIterator<Item = (u32, u32)>) -> Vec<(FlowId, Voq)> {
        voqs.into_iter()
            .enumerate()
            .map(|(i, (s, d))| {
                let id = FlowId::new(3 * i as u64 + u64::from(s % 3));
                (id, Voq::new(HostId::new(s), HostId::new(d)))
            })
            .collect()
    }

    #[test]
    fn empty_flow_set_allocates_nothing() {
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let spec = ConstraintSpec::new(&topo, true);
        let mut alloc = FairShareAllocator::new(spec.clone());
        let mut rates = vec![1.0];
        alloc.allocate(&[], &mut rates);
        assert!(rates.is_empty());
        // The allocator is reusable after an empty allocation.
        assert_matches_naive(&mut alloc, &spec, &flow_set([(0, 1), (0, 2)]));
    }

    #[test]
    fn many_constraints_saturate_in_one_round() {
        // A ring over the eight hosts: every NIC carries one flow out and
        // one in, so all sixteen NIC levels tie and one round freezes
        // every flow at line rate.
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let spec = ConstraintSpec::new(&topo, false);
        let mut alloc = FairShareAllocator::new(spec.clone());
        let rates = assert_matches_naive(
            &mut alloc,
            &spec,
            &flow_set((0..8).map(|h| (h, (h + 1) % 8))),
        );
        assert!(rates.iter().all(|&r| r == spec.cap(0)));
    }

    #[test]
    fn zero_capacity_core_freezes_inter_rack_flows_at_zero() {
        let spec = ConstraintSpec::new(&CutCore, true);
        let mut alloc = FairShareAllocator::new(spec.clone());
        let rates = assert_matches_naive(
            &mut alloc,
            &spec,
            &flow_set([(0, 1), (0, 2), (1, 0), (3, 2), (2, 1), (3, 0)]),
        );
        let edge = spec.cap(0);
        // The starved flows take nothing, so flow 0 keeps host 0 whole.
        assert_eq!(rates, vec![edge, 0.0, edge, edge, 0.0, 0.0]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The topologies a case draws from, each with core enforcement on
        /// or off: the full-bisection paper fabric, an oversubscribed
        /// two-tier fat-tree, an oversubscribed k-ary fat-tree, and a
        /// zero-capacity core.
        fn topology(pick: u8) -> Box<dyn Topology> {
            match pick {
                0 => Box::new(FatTree::scaled(2, 4, 1).unwrap()),
                1 => Box::new(FatTree::scaled(3, 8, 1).unwrap()),
                2 => Box::new(
                    KAryFatTree::builder(4)
                        .hosts_per_edge(4)
                        .oversubscription(4.0)
                        .build()
                        .unwrap(),
                ),
                _ => Box::new(CutCore),
            }
        }

        /// Maps the drawn host pairs to VOQs of one shape: any pair, a
        /// pool of four hosts (repeated VOQs), one source NIC, one
        /// destination NIC, or a shift permutation (every NIC equally
        /// loaded, so many constraints tie at one level).
        fn voqs(shape: u8, hosts: u32, pairs: &[(u32, u32)]) -> Vec<(u32, u32)> {
            let other = |s: u32, b: u32, n: u32| (s + 1 + b % (n - 1)) % n;
            let shift = pairs.first().map_or(1, |&(_, b)| 1 + b % (hosts - 1));
            pairs
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| match shape {
                    0 => (a % hosts, other(a % hosts, b, hosts)),
                    1 => (a % 4, other(a % 4, b, 4)),
                    2 => (0, other(0, b, hosts)),
                    3 => (other(0, a, hosts), 0),
                    _ => (i as u32 % hosts, (i as u32 + shift) % hosts),
                })
                .collect()
        }

        proptest! {
            #[test]
            fn allocate_matches_naive_water_filling(
                topo in 0u8..4,
                enforce in 0u8..2,
                shape in 0u8..5,
                pairs in prop::collection::vec((0u32..1024, 0u32..1024), 0..48),
            ) {
                let topo = topology(topo);
                let spec = ConstraintSpec::new(&*topo, enforce == 1);
                let mut alloc = FairShareAllocator::new(spec.clone());
                let flows = flow_set(voqs(shape, topo.num_hosts(), &pairs));
                assert_matches_naive(&mut alloc, &spec, &flows);
                // The same allocator, reused on a subset.
                let half: Vec<_> = flows.iter().copied().step_by(2).collect();
                assert_matches_naive(&mut alloc, &spec, &half);
            }
        }
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
