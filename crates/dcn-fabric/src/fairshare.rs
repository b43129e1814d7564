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
//! * [`FairShareAllocator`] — the production allocator: a persistent
//!   constraint index that arrivals insert into and completions remove
//!   from, and a log of the last allocation's rounds, so a reallocation
//!   replays only the rounds that its changes can move (see *Incremental
//!   replay* below);
//! * [`crate::reference::simulate_fair_share_naive`] — a deliberately
//!   naive reference that rescans **every flow for every constraint on
//!   every round** (`O(n²)` per reschedule) with dumb data structures,
//!   from full capacity on every reallocation.
//!
//! Both follow the *same canonical arithmetic contract* — fill levels are
//! computed as `(residual / unfrozen).max(0.0)`, a round's level is the
//! smallest of them, every unfrozen flow on a constraint at that level
//! (compared by bits, against the levels at the round's start) freezes at
//! it, and residuals are decremented by the round's level once per frozen
//! member (every subtraction of a round is by the same level, so the
//! order the frozen flows are applied in does not change a bit) — so
//! their outputs are **bit-identical**, which is what
//! `tests/fairshare_differential.rs` pins across seeds × topologies, the
//! same technique that pins the delta engine against the scan engine.
//!
//! # Incremental replay
//!
//! The allocator logs, for the last allocation, each round `j`'s level
//! `λ_j`, the round each constraint was tight in (its level was `λ_j`, so
//! every unfrozen member froze), the flows each round froze, and a
//! checkpoint of every constraint's `(residual, unfrozen)` at each
//! round's start plus the final state. Between two reallocations flows
//! are inserted and removed; a constraint whose membership changed has a
//! count delta `δ_c` (insertions minus removals). The next allocation
//! restarts from the first round `k` that the changes can move:
//!
//! * `k` is at most the round any changed constraint was tight in. A
//!   removed flow froze in a round where one of its own constraints was
//!   tight, and that constraint's membership changed, so `k` is at most
//!   the earliest round any removed flow froze in: every removed flow is
//!   unfrozen at every round before `k`.
//! * A round `j < k` is kept only if every changed constraint, with its
//!   new count `unfrozen_j + δ_c`, has no member left or a level strictly
//!   `>` `λ_j`.
//!
//! **Why this is exact.** Induct on `j < k`, with the claim that the
//! from-scratch run on the new flow set starts round `j` with the logged
//! residuals and the logged counts plus `δ`. That holds at `j = 0` (full
//! capacity; every member unfrozen). In round `j`, every unchanged
//! constraint has the logged count, so the logged level; every changed
//! one is strictly above `λ_j` or has no member. So the round's level is
//! `λ_j` again, and its tight constraints are the logged ones: they are
//! unchanged (none is changed, by the first rule), so their members —
//! hence the flows the round freezes — are the logged ones. No inserted
//! flow freezes (it sits only on changed constraints), and no removed
//! flow froze in the log (it froze at `k` or later). The same flows
//! freeze at the same level, so every residual takes the same sequence of
//! subtractions, and every count drops by the same amount: the claim
//! holds at `j + 1`. Flows still unfrozen touch no residual, so the
//! state at `k` is the logged checkpoint `k` with `δ` added to its
//! counts, which is what the from-scratch run reaches there; from `k` the
//! allocator runs the ordinary filling loop. Every subtraction of a round
//! is by the same level, so the members of a constraint may be kept in
//! any order.
//!
//! A reallocation therefore folds `δ` into checkpoints `0..=k` (they
//! describe the new flow set from now on), restores checkpoint `k`,
//! unfreezes the flows the log froze at `k` or later, and fills from
//! round `k`, logging as it goes. A flow that froze before round `k` kept
//! its round and its level, so every live flow outside the ones frozen
//! from round `k` on — which include every inserted flow — kept its rate
//! to the bit: [`FairShareAllocator::moved`] names exactly those.
//!
//! Within a round, the order of the constraints does not matter. The
//! round's level is the minimum of the levels, and its tight set is every
//! level bit-equal to it; both are order-free as long as no level is
//! `-0.0` (which would tie with `+0.0` under `min` but not under bits),
//! and none is: residuals start at a capacity `≥ +0`, lose only levels
//! `≥ +0`, and `x - x` is `+0`.
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
//! binary-searched place, with its allocator key beside it — so a
//! reallocation neither collects nor sorts the table, and the allocator
//! sees only the flows that came and went. Each flow's id, table slot and
//! drain account sit in a slab indexed by its allocator key. A
//! reallocation visits only the keys the allocator [`moved`]: it keeps
//! every account whose rate bits are unchanged, skips a starved flow that
//! stays starved, and settles and reopens the re-rated flows in id order,
//! the order the events emit drains in.
//!
//! Each transmitting flow's drain account is the only record of its
//! completion instant; a [`CompletionCalendar`] whose item slot is the
//! allocator key finds the earliest one, validating each item against the
//! account under that key. A non-observation settle pops only the due
//! accounts (ties pop in ascending flow id, the emission order); an
//! observation point walks the id-ordered flow list. A re-rated long flow
//! leaves a far-future stale item that no pop reaches soon, so once the
//! heap holds more than twice the live flows plus 32 items the policy
//! compacts it to its live items.
//!
//! [`moved`]: FairShareAllocator::moved
//!
//! The core also settles byte accounts **lazily** (see [`crate::settle`]):
//! per event only the flows actually *due* drain into the table, and an
//! unchanged-rate flow's account is left untouched until a sample
//! instant, the horizon, or its own rate change observes it. Because each
//! account settles through the same exact `ScheduledEntry` conversion no
//! matter when it is read, lazy and eager runs are bit-identical — the
//! naive reference stays eager and `tests/fairshare_differential.rs` pins
//! exactly that.

use crate::calendar::CompletionCalendar;
use crate::engine::{FabricError, FabricRun, SimConfig};
use crate::online::{run_batch, AllocationPolicy};
use crate::settle::{ScheduledEntry, SettledDrain};
use crate::topology::Topology;
use basrpt_core::{FlowSlot, FlowTable};
use dcn_probe::{NoProbe, Probe};
use dcn_types::{FlowId, Rate, SimTime, Voq};
use dcn_workload::FlowArrival;

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

/// Marks a flow that the filling has not frozen, and a constraint that was
/// tight in no round.
const OPEN: u32 = u32::MAX;

/// A flow's handle in a [`FairShareAllocator`], returned by
/// [`FairShareAllocator::insert`]. The key of a removed flow is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairShareKey(u32);

/// One flow of a [`FairShareAllocator`]'s index.
#[derive(Debug, Clone, Copy)]
struct FlowRecord {
    /// Its constraints in canonical order; the first `len` are used.
    cons: [u32; 4],
    len: u8,
    /// The round it froze in at the last filling, or `OPEN`.
    round: u32,
    /// Its rate at the last filling.
    rate: f64,
}

/// The production progressive water-filler, incremental across events.
///
/// The allocator keeps the flows it was given: [`insert`](Self::insert)
/// adds a flow and returns its key, [`remove`](Self::remove) takes it out,
/// and [`reallocate`](Self::reallocate) brings every live flow's
/// [`rate`](Self::rate) up to date. The index is a slab of flow records
/// (constraints, the round the flow froze in, its rate) and each
/// constraint's member list, in no particular order; it is never rebuilt.
/// A reallocation replays the filling only from the first round its
/// changes can move (the module docs state the rule and why it is
/// exact), restoring that round's logged constraint state.
///
/// The levels of the `A` constraints that still have unfrozen members sit
/// in one compact array. A filling round takes their minimum in one pass,
/// collects the constraints bit-equal to it in a second, freezes those
/// constraints' unfrozen members, and re-levels only the constraints the
/// freezes touched; a constraint left with no unfrozen member is
/// swap-removed. That is `O(A)` per round, plus `O(C)` to log the round's
/// checkpoint — against the naive reference's `O(n · C)` per round from
/// full capacity. Same arithmetic, different data structures (see the
/// module docs for the bit-identity contract). [`moved`](Self::moved)
/// names the flows the last reallocation froze anew, so a caller need
/// look at no other flow's rate.
///
/// # Example
///
/// ```
/// use dcn_fabric::{ConstraintSpec, FairShareAllocator, FatTree, Topology};
/// use dcn_types::{HostId, Voq};
///
/// let topo = FatTree::scaled(2, 4, 1)?;
/// let mut alloc = FairShareAllocator::new(ConstraintSpec::new(&topo, false));
/// let line = topo.edge_rate().bytes_per_sec();
/// // Two flows out of host 0: the 10 Gbps NIC is split fairly.
/// let a = alloc.insert(Voq::new(HostId::new(0), HostId::new(1)));
/// let b = alloc.insert(Voq::new(HostId::new(0), HostId::new(2)));
/// alloc.reallocate();
/// assert_eq!(alloc.rate(a), line / 2.0);
/// assert_eq!(alloc.rate(a), alloc.rate(b));
/// // Once the first leaves, the second has the NIC to itself: it is the
/// // one flow the reallocation moved.
/// alloc.remove(a);
/// alloc.reallocate();
/// assert_eq!(alloc.rate(b), line);
/// assert!(alloc.moved().eq([b]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FairShareAllocator {
    spec: ConstraintSpec,
    /// Per constraint, during a filling: the residual capacity, the
    /// unfrozen member count, and its place in `active` (or `OPEN`).
    residual: Vec<f64>,
    unfrozen: Vec<u32>,
    place: Vec<u32>,
    /// The flow records, by key; `free` holds the removed flows' keys.
    flows: Vec<FlowRecord>,
    free: Vec<u32>,
    /// Each constraint's member keys, in any order.
    members: Vec<Vec<u32>>,
    /// The changes since the last reallocation: per constraint, its count
    /// delta, and the constraints whose membership changed (a constraint
    /// changed twice is listed twice).
    delta: Vec<i32>,
    changed: Vec<u32>,
    /// The round log of the last filling: each round's level, the round
    /// each constraint was tight in (or `OPEN`), the keys in the order
    /// they froze with each round's first index (plus the end), and each
    /// round's `(residual, unfrozen)` checkpoint at its start, plus the
    /// final state, `C` entries per round.
    lambda: Vec<f64>,
    tight_in: Vec<u32>,
    frozen: Vec<u32>,
    round_start: Vec<u32>,
    saved_residual: Vec<f64>,
    saved_unfrozen: Vec<u32>,
    /// Where the last reallocation's replay began in `frozen`: the keys
    /// from there on are the ones it froze anew.
    replayed: usize,
    /// During a filling: the constraints that still have unfrozen
    /// members, in no particular order, with each one's fill level beside
    /// it; and the round's tight constraints.
    active: Vec<u32>,
    levels: Vec<f64>,
    tight: Vec<u32>,
}

impl FairShareAllocator {
    /// Creates an allocator for the given constraint system, holding no
    /// flows. The rest of its storage is sized on first use.
    pub fn new(spec: ConstraintSpec) -> Self {
        let c = spec.len();
        FairShareAllocator {
            spec,
            residual: Vec::with_capacity(c),
            unfrozen: Vec::with_capacity(c),
            place: Vec::new(),
            flows: Vec::new(),
            free: Vec::new(),
            members: Vec::new(),
            delta: Vec::new(),
            changed: Vec::new(),
            lambda: Vec::new(),
            tight_in: Vec::new(),
            frozen: Vec::new(),
            round_start: Vec::new(),
            saved_residual: Vec::new(),
            saved_unfrozen: Vec::new(),
            replayed: 0,
            active: Vec::new(),
            levels: Vec::new(),
            tight: Vec::new(),
        }
    }

    /// Sizes the per-constraint storage and logs the empty allocation:
    /// no rounds, and a final state at full capacity.
    fn size(&mut self) {
        let c = self.spec.len();
        self.residual.extend((0..c).map(|i| self.spec.cap(i)));
        self.unfrozen.resize(c, 0);
        self.place.resize(c, OPEN);
        self.members.resize_with(c, Vec::new);
        self.delta.resize(c, 0);
        self.tight_in.resize(c, OPEN);
        self.round_start.push(0);
        self.saved_residual.extend_from_slice(&self.residual);
        self.saved_unfrozen.extend_from_slice(&self.unfrozen);
    }

    fn change(&mut self, c: u32, by: i32) {
        self.delta[c as usize] += by;
        self.changed.push(c);
    }

    /// Adds a flow on `voq` and returns its key. Its rate is set by the
    /// next [`reallocate`](Self::reallocate).
    pub fn insert(&mut self, voq: Voq) -> FairShareKey {
        if self.round_start.is_empty() {
            self.size();
        }
        let mut cons = [0u32; 4];
        let len = self.spec.constraints_of(voq, &mut cons);
        let record = FlowRecord {
            cons,
            len: len as u8,
            round: OPEN,
            rate: 0.0,
        };
        let key = match self.free.pop() {
            Some(key) => {
                self.flows[key as usize] = record;
                key
            }
            None => {
                self.flows.push(record);
                (self.flows.len() - 1) as u32
            }
        };
        for &c in &cons[..len] {
            self.members[c as usize].push(key);
            self.change(c, 1);
        }
        FairShareKey(key)
    }

    /// Removes the live flow `key`; its key may be handed out again.
    pub fn remove(&mut self, key: FairShareKey) {
        let record = self.flows[key.0 as usize];
        for &c in &record.cons[..record.len as usize] {
            let members = &mut self.members[c as usize];
            let at = members
                .iter()
                .position(|&f| f == key.0)
                .expect("a live flow is a member of its constraints");
            members.swap_remove(at);
            self.change(c, -1);
        }
        self.free.push(key.0);
    }

    /// The max-min fair rate (bytes/second) of the live flow `key` at the
    /// last [`reallocate`](Self::reallocate).
    pub fn rate(&self, key: FairShareKey) -> f64 {
        self.flows[key.0 as usize].rate
    }

    /// The keys the last [`reallocate`](Self::reallocate) froze anew,
    /// every flow inserted before it among them; every other live flow
    /// kept its [`rate`](Self::rate) to the bit.
    pub fn moved(&self) -> impl Iterator<Item = FairShareKey> + '_ {
        self.frozen[self.replayed..]
            .iter()
            .map(|&f| FairShareKey(f))
    }

    /// Recomputes the max-min fair rate of every live flow, replaying the
    /// filling from the first round the changes since the last call can
    /// move.
    pub fn reallocate(&mut self) {
        if self.round_start.is_empty() {
            self.size();
        }
        let c = self.spec.len();

        // The replay point: no later than the round a changed constraint
        // was tight in, which bounds it by every removed flow's round too.
        let mut k = self.lambda.len();
        for &ci in &self.changed {
            k = k.min(self.tight_in[ci as usize] as usize);
        }
        // Nor later than a round in which a changed constraint's level,
        // with its new count, is not strictly above the round's level.
        for &ci in &self.changed {
            let ci = ci as usize;
            let delta = i64::from(self.delta[ci]);
            for j in 0..k {
                let count = i64::from(self.saved_unfrozen[j * c + ci]) + delta;
                if count <= 0 {
                    continue;
                }
                let level = (self.saved_residual[j * c + ci] / count as f64).max(0.0);
                if level <= self.lambda[j] {
                    k = j;
                    break;
                }
            }
        }

        // Rounds `0..k` stand: their checkpoints take the new counts (a
        // constraint listed twice takes its delta once).
        for &ci in &self.changed {
            let ci = ci as usize;
            let delta = std::mem::take(&mut self.delta[ci]);
            for j in 0..=k {
                let count = &mut self.saved_unfrozen[j * c + ci];
                *count = count.wrapping_add_signed(delta);
            }
        }
        self.changed.clear();

        // Restore round `k`'s state, and unfreeze what froze from it on.
        let keep = self.round_start[k] as usize;
        for &f in &self.frozen[keep..] {
            self.flows[f as usize].round = OPEN;
        }
        self.frozen.truncate(keep);
        self.replayed = keep;
        self.lambda.truncate(k);
        self.round_start.truncate(k + 1);
        self.saved_residual.truncate((k + 1) * c);
        self.saved_unfrozen.truncate((k + 1) * c);
        self.residual.copy_from_slice(&self.saved_residual[k * c..]);
        self.unfrozen.copy_from_slice(&self.saved_unfrozen[k * c..]);
        for round in &mut self.tight_in {
            if *round as usize >= k {
                *round = OPEN;
            }
        }
        self.active.clear();
        self.levels.clear();
        for ci in 0..c {
            if self.unfrozen[ci] > 0 {
                self.place[ci] = self.active.len() as u32;
                self.active.push(ci as u32);
                self.levels
                    .push(fill_level(self.residual[ci], self.unfrozen[ci]));
            } else {
                self.place[ci] = OPEN;
            }
        }

        // Fill until no constraint has an unfrozen member left.
        let mut round = k as u32;
        while !self.levels.is_empty() {
            // The round's fill level is the smallest level, and its tight
            // constraints are those at it, to the bit. No level is `-0.0`,
            // so neither depends on the order of `active`.
            let lambda = self.levels.iter().fold(f64::INFINITY, |m, &l| m.min(l));
            self.tight.clear();
            for (&ci, &level) in self.active.iter().zip(&self.levels) {
                if level.to_bits() == lambda.to_bits() {
                    self.tight.push(ci);
                }
            }

            // Freeze every unfrozen member of a constraint at the round
            // level. Each such constraint is left with no unfrozen member,
            // so its member list is walked in this round only.
            let start = self.frozen.len();
            for &ci in &self.tight {
                self.tight_in[ci as usize] = round;
                for &f in &self.members[ci as usize] {
                    let record = &mut self.flows[f as usize];
                    if record.round == OPEN {
                        record.round = round;
                        record.rate = lambda;
                        self.frozen.push(f);
                    }
                }
            }

            // Every subtraction of a round is by the same level, so each
            // residual takes the contract's sequence of subtractions in
            // whatever order the frozen flows are applied. A touched
            // constraint's level is recomputed after each of its
            // subtractions, so the last one stands; a constraint left with
            // no unfrozen member leaves `active`.
            for &f in &self.frozen[start..] {
                let record = &self.flows[f as usize];
                for &cc in &record.cons[..record.len as usize] {
                    let ci = cc as usize;
                    self.residual[ci] -= lambda;
                    self.unfrozen[ci] -= 1;
                    let at = self.place[ci] as usize;
                    if self.unfrozen[ci] > 0 {
                        self.levels[at] = fill_level(self.residual[ci], self.unfrozen[ci]);
                    } else {
                        self.place[ci] = OPEN;
                        self.active.swap_remove(at);
                        self.levels.swap_remove(at);
                        if let Some(&moved) = self.active.get(at) {
                            self.place[moved as usize] = at as u32;
                        }
                    }
                }
            }

            // Log the round, and the state the next one starts from.
            self.lambda.push(lambda);
            self.round_start.push(self.frozen.len() as u32);
            self.saved_residual.extend_from_slice(&self.residual);
            self.saved_unfrozen.extend_from_slice(&self.unfrozen);
            round += 1;
        }
    }
}

/// A constraint's fill level: its residual shared by its unfrozen members,
/// floored at zero. Residuals start at a capacity `≥ +0` and only ever
/// lose levels `≥ +0`, and `x - x` is `+0`, so the level is never `-0.0`.
fn fill_level(residual: f64, unfrozen: u32) -> f64 {
    let level = (residual / unfrozen as f64).max(0.0);
    debug_assert!(level.is_sign_positive(), "a fill level is never -0.0");
    level
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
/// every active flow transmits at its [`FairShareAllocator`] rate. An
/// arrival inserts the flow into the allocator and a completion removes
/// it; every reallocation replays the filling from the first round they
/// move. A flow whose rate is unchanged to the bit keeps its drain epoch;
/// only re-rated flows settle their old epoch and open a new one.
#[derive(Debug)]
pub(crate) struct FairShare {
    alloc: FairShareAllocator,
    /// Each live flow's record, indexed by its allocator key.
    held: Vec<HeldFlow>,
    /// The completion instants of the drain accounts: an item's slot is
    /// the key whose account it names.
    calendar: CompletionCalendar,
    /// The active flows in ascending id order, kept across events: an
    /// arrival enters it, a completion leaves it.
    flows: Vec<LiveFlow>,
    /// Scratch: the flows a reallocation re-rated, sorted by id.
    rerated: Vec<LiveFlow>,
}

/// One active flow of [`FairShare`], by allocator key: its id, the table
/// slot an account opened for it reads (instead of probing the table),
/// and its drain account while it transmits.
#[derive(Debug, Clone, Copy)]
struct HeldFlow {
    id: FlowId,
    slot: FlowSlot,
    account: Option<ScheduledEntry>,
}

/// An active flow's id and allocator key.
#[derive(Debug, Clone, Copy)]
struct LiveFlow {
    id: FlowId,
    key: FairShareKey,
}

/// The calendar's liveness check: the account of key `slot` holds `flow`,
/// completing at `at`.
fn account_at(held: &[HeldFlow]) -> impl Fn(SimTime, FlowId, usize) -> bool + '_ {
    move |at, flow, slot| {
        held.get(slot)
            .and_then(|h| h.account.as_ref())
            .is_some_and(|e| e.flow == flow && e.completes_at == at)
    }
}

impl FairShare {
    pub(crate) fn new<T: Topology + ?Sized>(topo: &T, enforce_core: bool) -> Self {
        FairShare {
            alloc: FairShareAllocator::new(ConstraintSpec::new(topo, enforce_core)),
            held: Vec::new(),
            calendar: CompletionCalendar::new(),
            flows: Vec::new(),
            rerated: Vec::new(),
        }
    }
}

impl AllocationPolicy for FairShare {
    fn supports_lazy_views(&self) -> bool {
        true
    }

    fn next_completion(&mut self) -> SimTime {
        self.calendar.next_completion(account_at(&self.held))
    }

    fn settle(&mut self, t: SimTime, observe_all: bool, out: &mut Vec<SettledDrain>) -> bool {
        let mut completed_any = false;
        if observe_all {
            // An observation point settles every account, in id order.
            for flow in &self.flows {
                let held = &mut self.held[flow.key.0 as usize];
                if let Some(drain) = held.account.as_mut().and_then(|e| e.settle(t)) {
                    out.push(drain);
                    if drain.completed {
                        held.account = None;
                        completed_any = true;
                    }
                }
            }
            return completed_any;
        }
        // Lazy settlement touches only the flows *due* at t, popped from
        // the calendar (ties in id order), deferring the others until a
        // sample instant, the horizon, or their own rate change observes
        // them.
        while let Some((_, key)) = self.calendar.pop_due(t, account_at(&self.held)) {
            let held = &mut self.held[key];
            let account = held.account.as_mut().expect("a live item has an account");
            debug_assert_eq!(
                account.completes_at, t,
                "the wakeup is the earliest instant"
            );
            if let Some(drain) = account.settle(t) {
                debug_assert!(drain.completed, "a due account completes");
                out.push(drain);
                held.account = None;
                completed_any = true;
            }
        }
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
                let mut active: Vec<_> = table.iter().map(|f| f.id()).collect();
                active.sort_unstable();
                active.iter().eq(self.flows.iter().map(|f| &f.id))
                    && self.flows.iter().all(|f| {
                        let held = &self.held[f.key.0 as usize];
                        held.id == f.id && table.get_at(held.slot, f.id).is_some()
                    })
            },
            "the kept flow list is the table's, in id order, with each flow's slot"
        );
        self.alloc.reallocate();
        // Only the flows the replay froze anew can have a new rate. An
        // unchanged rate keeps its drain epoch, so the completion instant
        // is bit-invariant to unrelated churn, and a starved flow that
        // stays starved has no account to change.
        for key in self.alloc.moved() {
            let held = &self.held[key.0 as usize];
            let rate = Rate::from_bytes_per_sec(self.alloc.rate(key));
            let kept = match &held.account {
                Some(old) => old.keeps_rate(rate),
                None => rate.is_zero(),
            };
            if !kept {
                self.rerated.push(LiveFlow { id: held.id, key });
            }
        }
        // The re-rated flows settle and reopen in id order, the emission
        // order.
        self.rerated.sort_unstable_by_key(|f| f.id);
        for LiveFlow { id, key } in self.rerated.drain(..) {
            let held = &mut self.held[key.0 as usize];
            let rate = Rate::from_bytes_per_sec(self.alloc.rate(key));
            let remaining = match held.account.take() {
                // A rate change (or starvation) re-opens the epoch over
                // the live remaining bytes, so any unsettled residue
                // drains first — under eager settlement the event already
                // settled it and this owes nothing.
                Some(mut old) => {
                    if let Some(drain) = old.settle(now) {
                        debug_assert!(!drain.completed, "due flows settled first");
                        out.push(drain);
                    }
                    old.epoch_remaining - old.settled
                }
                // A flow without an account (newly arrived, or starved at
                // the last allocation) reads its remaining bytes at the
                // slot it was admitted to.
                None => table
                    .get_at(held.slot, id)
                    .expect("slot holds it")
                    .remaining(),
            };
            // A zero rate (pathological rounding) starves the flow for one
            // epoch; it re-enters at the next event.
            if !rate.is_zero() {
                let entry = ScheduledEntry::new(id, held.slot, now, remaining, rate);
                self.calendar.push(entry.completes_at, id, key.0 as usize);
                held.account = Some(entry);
            }
        }
        // A re-rated long flow leaves a far-future stale item that no pop
        // reaches soon: past twice the live flows, the calendar keeps only
        // its live items.
        if self.calendar.heap_len() > 2 * self.flows.len() + 32 {
            self.calendar.compact(account_at(&self.held));
        }
    }

    fn on_arrival<T: Topology + ?Sized>(
        &mut self,
        _topo: &T,
        arrival: &FlowArrival,
        slot: FlowSlot,
    ) {
        let at = self.flows.partition_point(|f| f.id < arrival.id);
        let key = self.alloc.insert(arrival.voq);
        let held = HeldFlow {
            id: arrival.id,
            slot,
            account: None,
        };
        match self.held.get_mut(key.0 as usize) {
            Some(reused) => *reused = held,
            None => self.held.push(held),
        }
        self.flows.insert(
            at,
            LiveFlow {
                id: arrival.id,
                key,
            },
        );
    }

    fn on_drain(&mut self, drain: &SettledDrain) {
        if drain.completed {
            let at = self
                .flows
                .binary_search_by_key(&drain.flow, |f| f.id)
                .expect("a completing flow is listed");
            let gone = self.flows.remove(at);
            self.alloc.remove(gone.key);
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
    run_batch(topo, generator, config, probe, |enforce_core| {
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

    /// A flow held by an allocator under test, with its key.
    type Held = (FlowId, Voq, FairShareKey);

    /// Inserts `flows` into `alloc`, returning them with their keys.
    fn insert_all(alloc: &mut FairShareAllocator, flows: &[(FlowId, Voq)]) -> Vec<Held> {
        flows
            .iter()
            .map(|&(id, voq)| (id, voq, alloc.insert(voq)))
            .collect()
    }

    /// Reallocates `alloc`, which holds exactly `held` (in ascending id
    /// order), and checks every rate bit for bit against the naive
    /// water-filler, every constraint's capacity, and max-min fairness:
    /// each flow has a saturated constraint on which no member runs
    /// faster. Returns the rates, in `held`'s order.
    fn assert_matches_naive(
        alloc: &mut FairShareAllocator,
        spec: &ConstraintSpec,
        held: &[Held],
    ) -> Vec<f64> {
        alloc.reallocate();
        let fast: Vec<f64> = held.iter().map(|&(.., key)| alloc.rate(key)).collect();
        let flows: Vec<(FlowId, Voq)> = held.iter().map(|&(id, voq, _)| (id, voq)).collect();
        let mut naive = Vec::new();
        waterfill_naive(spec, &flows, &mut naive);
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
        let held = insert_all(&mut alloc, &flows);
        assert_matches_naive(&mut alloc, &spec, &held);
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

    /// The policy's drain accounts, in id order.
    fn accounts(policy: &FairShare) -> Vec<ScheduledEntry> {
        policy
            .flows
            .iter()
            .filter_map(|f| policy.held[f.key.0 as usize].account)
            .collect()
    }

    fn earliest(policy: &FairShare) -> SimTime {
        accounts(policy)
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
        let held = accounts(&policy);
        let ids: Vec<u64> = held.iter().map(|e| e.flow.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3], "the starved flow has no account");
        assert_eq!(held[0].epoch, SimTime::ZERO, "flow 1 kept");
        assert_eq!(held[1].epoch, us(1.0), "flow 2 re-rated");
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

        // A lazy settle at an instant where nothing is due emits nothing
        // and leaves every account as it was.
        let before: Vec<_> = accounts(&policy).iter().map(|e| format!("{e:?}")).collect();
        out.clear();
        assert!(!policy.settle(us(3.0), false, &mut out));
        assert!(out.is_empty());
        let after: Vec<_> = accounts(&policy).iter().map(|e| format!("{e:?}")).collect();
        assert_eq!(after, before);
        assert_eq!(policy.next_completion(), t3);

        // A lazy settle at t3 completes flow 3 and touches nothing else.
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
        assert_eq!(accounts(&policy).len(), 2);
        assert_eq!(policy.next_completion(), us(10.0));
        assert_eq!(policy.next_completion(), earliest(&policy));
    }

    /// A [`FairShare`] that checks, after every reschedule, that the
    /// calendar holds at most twice the live flows' items plus 32.
    struct Bounded(FairShare);

    impl AllocationPolicy for Bounded {
        fn supports_lazy_views(&self) -> bool {
            self.0.supports_lazy_views()
        }
        fn next_completion(&mut self) -> SimTime {
            self.0.next_completion()
        }
        fn settle(&mut self, t: SimTime, all: bool, out: &mut Vec<SettledDrain>) -> bool {
            self.0.settle(t, all, out)
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
            self.0.reschedule(topo, now, table, lazy, obs, out);
            let live = self.0.flows.len();
            let items = self.0.calendar.heap_len();
            assert!(items <= 2 * live + 32, "{items} items for {live} flows");
        }
        fn on_arrival<T: Topology + ?Sized>(&mut self, topo: &T, a: &FlowArrival, slot: FlowSlot) {
            self.0.on_arrival(topo, a, slot);
        }
        fn on_drain(&mut self, drain: &SettledDrain) {
            self.0.on_drain(drain);
        }
    }

    #[test]
    fn calendar_stays_within_twice_the_live_flows() {
        let topo = KAryFatTree::builder(4)
            .hosts_per_edge(4)
            .oversubscription(2.0)
            .build()
            .unwrap();
        let spec = dcn_workload::TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.8)
            .unwrap();
        let (run, bounded) = run_batch(
            &topo,
            spec.generator(3).unwrap(),
            config(0.05),
            NoProbe,
            |e| Bounded(FairShare::new(&topo, e)),
        )
        .unwrap();
        assert!(run.reschedules > 1_000, "{} reschedules", run.reschedules);
        assert!(bounded.0.calendar.heap_len() <= 2 * bounded.0.flows.len() + 32);
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
        assert!(assert_matches_naive(&mut alloc, &spec, &[]).is_empty());
        // The allocator is usable after an empty allocation, and after
        // it is emptied again.
        let held = insert_all(&mut alloc, &flow_set([(0, 1), (0, 2)]));
        assert_matches_naive(&mut alloc, &spec, &held);
        for &(.., key) in &held {
            alloc.remove(key);
        }
        assert!(assert_matches_naive(&mut alloc, &spec, &[]).is_empty());
        let held = insert_all(&mut alloc, &flow_set([(1, 0)]));
        assert_eq!(
            assert_matches_naive(&mut alloc, &spec, &held),
            [spec.cap(0)]
        );
    }

    #[test]
    fn many_constraints_saturate_in_one_round() {
        // A ring over the eight hosts: every NIC carries one flow out and
        // one in, so all sixteen NIC levels tie and one round freezes
        // every flow at line rate.
        let topo = FatTree::scaled(2, 4, 1).unwrap();
        let spec = ConstraintSpec::new(&topo, false);
        let mut alloc = FairShareAllocator::new(spec.clone());
        let held = insert_all(&mut alloc, &flow_set((0..8).map(|h| (h, (h + 1) % 8))));
        let rates = assert_matches_naive(&mut alloc, &spec, &held);
        assert!(rates.iter().all(|&r| r == spec.cap(0)));
    }

    #[test]
    fn zero_capacity_core_freezes_inter_rack_flows_at_zero() {
        let spec = ConstraintSpec::new(&CutCore, true);
        let mut alloc = FairShareAllocator::new(spec.clone());
        let held = insert_all(
            &mut alloc,
            &flow_set([(0, 1), (0, 2), (1, 0), (3, 2), (2, 1), (3, 0)]),
        );
        let rates = assert_matches_naive(&mut alloc, &spec, &held);
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
            fn reallocate_matches_naive_water_filling(
                topo in 0u8..4,
                enforce in 0u8..2,
                shape in 0u8..5,
                pairs in prop::collection::vec((0u32..1024, 0u32..1024), 0..48),
            ) {
                let topo = topology(topo);
                let spec = ConstraintSpec::new(&*topo, enforce == 1);
                let mut alloc = FairShareAllocator::new(spec.clone());
                let flows = flow_set(voqs(shape, topo.num_hosts(), &pairs));
                let held = insert_all(&mut alloc, &flows);
                assert_matches_naive(&mut alloc, &spec, &held);
                // The same allocator, with every other flow removed.
                for &(.., key) in held.iter().skip(1).step_by(2) {
                    alloc.remove(key);
                }
                let half: Vec<_> = held.iter().copied().step_by(2).collect();
                assert_matches_naive(&mut alloc, &spec, &half);
            }

            /// Random runs of insertions, removals and reallocations, each
            /// reallocation checked against the naive water-filler: several
            /// changes per reallocation, removals of flows no reallocation
            /// has seen yet (the newest flow leaving), reused keys, and the
            /// allocator drained to empty and refilled. Each reallocation
            /// also holds `moved()` to its contract: it names every flow
            /// inserted since the last one and no removed flow, and every
            /// flow outside it kept its rate to the bit.
            #[test]
            fn incremental_reallocation_matches_naive(
                topo in 0u8..4,
                enforce in 0u8..2,
                shape in 0u8..5,
                pairs in prop::collection::vec((0u32..1024, 0u32..1024), 1..32),
                ops in prop::collection::vec((0u8..32, 0u32..1024), 1..120),
            ) {
                let topo = topology(topo);
                let spec = ConstraintSpec::new(&*topo, enforce == 1);
                let mut alloc = FairShareAllocator::new(spec.clone());
                // Arrivals cycle through the shape's VOQs, in id order.
                let pool = voqs(shape, topo.num_hosts(), &pairs);
                let mut held: Vec<Held> = Vec::new();
                // The flows inserted since the last reallocation, by id.
                let mut inserted = Vec::new();
                let mut next = 0;
                let check = |alloc: &mut FairShareAllocator,
                             held: &[Held],
                             inserted: &mut Vec<FlowId>| {
                    let before: Vec<u64> =
                        held.iter().map(|&(.., key)| alloc.rate(key).to_bits()).collect();
                    assert_matches_naive(alloc, &spec, held);
                    let moved: Vec<FairShareKey> = alloc.moved().collect();
                    for (&(id, _, key), &rate) in held.iter().zip(&before) {
                        if inserted.contains(&id) {
                            assert!(moved.contains(&key), "inserted flow {id:?} not moved");
                        } else if !moved.contains(&key) {
                            assert_eq!(alloc.rate(key).to_bits(), rate, "flow {:?} re-rated", id);
                        }
                    }
                    // A removed flow's key is live again only if reused.
                    let live: Vec<FairShareKey> = held.iter().map(|&(.., key)| key).collect();
                    assert!(
                        moved.iter().all(|key| live.contains(key)),
                        "a removed flow is among {moved:?}"
                    );
                    inserted.clear();
                };
                for &(op, at) in &ops {
                    match op {
                        0..=15 => {
                            let (s, d) = pool[next % pool.len()];
                            let voq = Voq::new(HostId::new(s), HostId::new(d));
                            let id = FlowId::new(next as u64);
                            held.push((id, voq, alloc.insert(voq)));
                            inserted.push(id);
                            next += 1;
                        }
                        16..=19 if !held.is_empty() => {
                            let (.., key) = held.remove(at as usize % held.len());
                            alloc.remove(key);
                        }
                        20 if !held.is_empty() => {
                            let (.., key) = held.pop().unwrap();
                            alloc.remove(key);
                        }
                        21 => {
                            for (.., key) in held.drain(..) {
                                alloc.remove(key);
                            }
                        }
                        _ => check(&mut alloc, &held, &mut inserted),
                    }
                }
                check(&mut alloc, &held, &mut inserted);
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
