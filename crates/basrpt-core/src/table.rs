//! The active-flow store: flows organized in virtual output queues.
//!
//! The table is built around two structures sized for the scheduling hot
//! path:
//!
//! * a **slab arena** of flows — `Vec<Option<FlowEntry>>` slots addressed by
//!   dense indices, with a free list for reuse — so drains and champion
//!   updates touch contiguous memory instead of chasing `HashMap` buckets;
//! * a **champion index** per VOQ — the cached shortest `(remaining, id)`
//!   pair and smallest id, plus two lazily-invalidated runner-up heaps in
//!   the style of `dcn-fabric`'s completion calendar — so schedulers read
//!   each VOQ's winning candidate in `O(1)` and the table restores it in
//!   amortized `O(log n)` when a champion leaves.

use crate::FlowState;
use dcn_types::{FlowId, HostId, Voq};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Error returned by [`FlowTable`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowTableError {
    /// A flow with this identifier is already active.
    DuplicateFlow(FlowId),
    /// No active flow has this identifier.
    UnknownFlow(FlowId),
}

impl fmt::Display for FlowTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowTableError::DuplicateFlow(id) => write!(f, "flow {id} is already active"),
            FlowTableError::UnknownFlow(id) => write!(f, "flow {id} is not active"),
        }
    }
}

impl Error for FlowTableError {}

/// Result of draining units from a flow via [`FlowTable::drain`].
///
/// `drained` only falls short of the requested amount when the request
/// exceeds the flow's remaining units. Callers that derive their requests
/// from the remaining size — like the fabric engine's exact epoch
/// accounting, which clamps its integer drain target to the bytes
/// outstanding — always see `drained` equal to the request, and a
/// `completed` outcome exactly when the target reaches the flow size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Units actually removed from the flow (≤ the requested amount).
    pub drained: u64,
    /// The flow's final state if the drain completed it; the flow has then
    /// already been removed from the table.
    pub completed: Option<FlowState>,
}

/// A read-only summary of one non-empty VOQ, as exposed to schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoqView {
    /// Which VOQ this summarizes.
    pub voq: Voq,
    /// Total remaining units over all flows in the VOQ (the paper's
    /// `X_ij(t)` backlog).
    pub backlog: u64,
    /// Remaining size of the shortest flow in the VOQ.
    pub shortest_remaining: u64,
    /// Identifier of that shortest flow (ties broken by smaller id).
    pub shortest_flow: FlowId,
    /// Identifier of the earliest-arrived flow in the VOQ (smallest id;
    /// generators assign ids in arrival order).
    pub oldest_flow: FlowId,
    /// Number of flows waiting in the VOQ.
    pub len: usize,
    /// The VOQ's dense slot in its table; see [`VoqView::slot`].
    pub(crate) slot: u32,
}

impl VoqView {
    /// The VOQ's dense slot in the [`FlowTable`] that served this view:
    /// assigned when the VOQ first holds a flow and stable for the
    /// table's lifetime, across empty/non-empty transitions. Consumers
    /// keeping per-VOQ state beside the table (the fabric's delta
    /// allocator) index it by this slot instead of hashing the [`Voq`];
    /// [`FlowTable::voq_slot`] resolves a VOQ to the same number.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

/// One active flow in the slab arena.
#[derive(Debug, Clone, Copy)]
struct FlowEntry {
    state: FlowState,
    /// Index of the flow's VOQ in `FlowTable::voq_slots`.
    voq_slot: u32,
}

/// Per-VOQ champion index: the current winners plus lazily-invalidated
/// runner-up heaps (see the invariants on [`FlowTable`]).
#[derive(Debug, Clone)]
struct VoqSlot {
    voq: Voq,
    len: u32,
    backlog: u64,
    /// Cached champions; meaningful only while `len > 0`.
    shortest_remaining: u64,
    shortest_flow: FlowId,
    oldest_flow: FlowId,
    /// Min-heap of `(remaining, id)` candidate entries. Entries go stale
    /// when their flow drains, completes or becomes the cached champion;
    /// stale tops are discarded when a new champion is needed.
    runners_short: BinaryHeap<Reverse<(u64, FlowId)>>,
    /// Min-heap of candidate ids for the FIFO (oldest = smallest id) pick,
    /// with the same lazy-invalidation contract.
    runners_old: BinaryHeap<Reverse<FlowId>>,
}

impl VoqSlot {
    fn empty(voq: Voq) -> Self {
        VoqSlot {
            voq,
            len: 0,
            backlog: 0,
            shortest_remaining: 0,
            shortest_flow: FlowId::new(0),
            oldest_flow: FlowId::new(0),
            runners_short: BinaryHeap::new(),
            runners_old: BinaryHeap::new(),
        }
    }
}

/// The set of active flows, indexed by VOQ, with the aggregate backlogs the
/// backlog-aware schedulers need.
///
/// Invariants maintained by every operation:
///
/// * a VOQ appears in the non-empty index iff it holds at least one flow;
/// * `backlog` of a VOQ equals the sum of its flows' remaining units;
/// * per-ingress-port and total backlogs equal the sums over their VOQs;
/// * the cached champions of a non-empty VOQ are exact: `(shortest_remaining,
///   shortest_flow)` is the minimum `(remaining, id)` pair over its flows and
///   `oldest_flow` is its smallest id;
/// * **runner coverage**: every live flow of a VOQ that is *not* the cached
///   champion has at least one heap entry matching its current key, so when
///   a champion completes or is removed, popping heap entries until the
///   first one that matches a live flow's current state yields the exact
///   next champion. Stale entries (drained, completed, or reused ids) are
///   discarded on the way; duplicates are harmless because validity is
///   checked against live state, never assumed.
///
/// Reading the per-VOQ champions ([`FlowTable::voqs`],
/// [`FlowTable::voq_view`]) is `O(1)` per VOQ off the cached fields, so a
/// full scheduling pass costs `O(Q log Q)` in the number of non-empty VOQs
/// rather than `O(F log F)` in the number of flows, and champion-preserving
/// drains (the SRPT/BASRPT steady state: the shortest flow only gets
/// shorter) cost `O(1)` with no heap traffic at all.
///
/// Every successful mutation also advances a counter,
/// [`FlowTable::version`], so a consumer caching table-derived state can
/// ask "has anything changed since I last looked?" in `O(1)`.
///
/// # Example
///
/// ```
/// use basrpt_core::{FlowState, FlowTable};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// let voq = Voq::new(HostId::new(0), HostId::new(1));
/// table.insert(FlowState::new(FlowId::new(1), voq, 5))?;
/// table.insert(FlowState::new(FlowId::new(2), voq, 3))?;
/// assert_eq!(table.voq_backlog(voq), 8);
///
/// let out = table.drain(FlowId::new(2), 3)?;
/// assert!(out.completed.is_some());
/// assert_eq!(table.voq_backlog(voq), 5);
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Slab arena of active flows; freed slots are recycled via `free`.
    flows: Vec<Option<FlowEntry>>,
    free: Vec<u32>,
    /// FlowId → slab slot.
    flow_slots: HashMap<FlowId, u32>,
    /// Per-VOQ champion index; slots persist for the table's lifetime so a
    /// VOQ keeps its dense index across empty/non-empty transitions.
    voq_slots: Vec<VoqSlot>,
    /// Voq → slot in `voq_slots`.
    voq_lookup: HashMap<Voq, u32>,
    /// Non-empty VOQs in lexicographic order, mutated only on emptiness
    /// transitions — this pins the deterministic [`FlowTable::voqs`] order.
    nonempty: BTreeMap<Voq, u32>,
    ingress: BTreeMap<HostId, u64>,
    total_backlog: u64,
    /// Successful mutations so far; see [`FlowTable::version`].
    version: u64,
}

impl FlowTable {
    /// Creates an empty flow table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.flow_slots.len()
    }

    /// Whether no flows are active.
    pub fn is_empty(&self) -> bool {
        self.flow_slots.is_empty()
    }

    /// Number of non-empty VOQs.
    pub fn num_nonempty_voqs(&self) -> usize {
        self.nonempty.len()
    }

    /// Total remaining units across all flows.
    pub fn total_backlog(&self) -> u64 {
        self.total_backlog
    }

    /// Backlog (`X_ij`) of one VOQ; zero if the VOQ is empty.
    pub fn voq_backlog(&self, voq: Voq) -> u64 {
        self.voq_lookup
            .get(&voq)
            .map_or(0, |&vs| self.voq_slots[vs as usize].backlog)
    }

    /// Total backlog queued at one ingress port (the per-server queue length
    /// plotted in the paper's Figs. 2 and 5b).
    pub fn ingress_backlog(&self, host: HostId) -> u64 {
        self.ingress.get(&host).copied().unwrap_or(0)
    }

    /// Iterates over the ingress ports with non-zero backlog and their
    /// backlogs, in port order (the per-server queue lengths of the paper's
    /// Figs. 2 and 5b).
    pub fn ingress_backlogs(&self) -> impl Iterator<Item = (HostId, u64)> + '_ {
        self.ingress.iter().map(|(&h, &b)| (h, b))
    }

    /// The largest per-ingress-port backlog, zero for an empty table.
    pub fn max_ingress_backlog(&self) -> u64 {
        self.ingress.values().copied().max().unwrap_or(0)
    }

    /// Number of ingress ports with non-zero backlog. Every non-empty VOQ's
    /// source is one of them, so a crossbar matching that occupies this many
    /// ingress ports cannot be extended — schedulers use that as an early
    /// exit.
    pub fn num_active_ingress_ports(&self) -> usize {
        self.ingress.len()
    }

    /// Looks up an active flow.
    pub fn get(&self, id: FlowId) -> Option<&FlowState> {
        let &slot = self.flow_slots.get(&id)?;
        self.flows[slot as usize].as_ref().map(|e| &e.state)
    }

    /// Iterates over all active flows in unspecified order (for statistics;
    /// schedulers should use [`FlowTable::voqs`]).
    pub fn iter(&self) -> impl Iterator<Item = &FlowState> {
        self.flows.iter().flatten().map(|e| &e.state)
    }

    /// Iterates over all non-empty VOQs in deterministic (lexicographic)
    /// order, yielding the per-VOQ champion summaries schedulers rank. Each
    /// view is read off the cached champion fields in `O(1)`.
    pub fn voqs(&self) -> impl Iterator<Item = VoqView> + '_ {
        self.nonempty
            .iter()
            .map(move |(&voq, &vs)| self.view_of(voq, vs))
    }

    /// The summary of one VOQ, or `None` if the VOQ is currently empty.
    /// `O(1)` — the single-VOQ counterpart of [`FlowTable::voqs`].
    pub fn voq_view(&self, voq: Voq) -> Option<VoqView> {
        let &vs = self.voq_lookup.get(&voq)?;
        if self.voq_slots[vs as usize].len == 0 {
            return None;
        }
        Some(self.view_of(voq, vs))
    }

    fn view_of(&self, voq: Voq, vs: u32) -> VoqView {
        let slot = &self.voq_slots[vs as usize];
        debug_assert!(slot.len > 0, "view of empty VOQ");
        VoqView {
            voq,
            backlog: slot.backlog,
            shortest_remaining: slot.shortest_remaining,
            shortest_flow: slot.shortest_flow,
            oldest_flow: slot.oldest_flow,
            len: slot.len as usize,
            slot: vs,
        }
    }

    /// The dense slot of `voq` ([`VoqView::slot`]), or `None` if `voq` has
    /// never held a flow in this table. A hash lookup — for the paths that
    /// start from a [`Voq`] rather than a view.
    pub fn voq_slot(&self, voq: Voq) -> Option<usize> {
        self.voq_lookup.get(&voq).map(|&vs| vs as usize)
    }

    /// The number of successful mutations ([`insert`](FlowTable::insert),
    /// [`drain`](FlowTable::drain), [`remove`](FlowTable::remove)) applied
    /// so far. Reads and calls that return `Err` leave it unchanged, so a
    /// consumer that remembers the value can tell in `O(1)` whether the
    /// table mutated since — the slotted switch's driver in `dcn-switch` uses
    /// it to notice arrivals and completions behind its cached schedule.
    /// A clone carries the same count as its original.
    ///
    /// # Example
    ///
    /// ```
    /// use basrpt_core::{FlowState, FlowTable};
    /// use dcn_types::{FlowId, HostId, Voq};
    ///
    /// let mut table = FlowTable::new();
    /// let seen = table.version();
    /// table.insert(FlowState::new(
    ///     FlowId::new(1),
    ///     Voq::new(HostId::new(0), HostId::new(1)),
    ///     5,
    /// ))?;
    /// assert_ne!(table.version(), seen);
    /// # Ok::<(), basrpt_core::FlowTableError>(())
    /// ```
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Soft bound on a runner heap before stale entries are pruned.
    fn runner_cap(len: u32) -> usize {
        usize::max(16, 2 * len as usize)
    }

    /// Whether a `(remaining, id)` runner entry matches live state.
    fn runner_short_valid(&self, vs: u32, remaining: u64, id: FlowId) -> bool {
        self.flow_slots.get(&id).is_some_and(|&slot| {
            let entry = self.flows[slot as usize]
                .as_ref()
                .expect("indexed slab slot is live");
            entry.voq_slot == vs && entry.state.remaining() == remaining
        })
    }

    /// Whether an id runner entry matches a flow live in this VOQ.
    fn runner_old_valid(&self, vs: u32, id: FlowId) -> bool {
        self.flow_slots.get(&id).is_some_and(|&slot| {
            self.flows[slot as usize]
                .as_ref()
                .expect("indexed slab slot is live")
                .voq_slot
                == vs
        })
    }

    /// Restores the shortest champion after the cached one left the VOQ:
    /// pops runner entries until the first that matches a live flow's
    /// current `(remaining, id)`. Runner coverage guarantees one exists.
    fn refresh_shortest(&mut self, vs: u32) {
        loop {
            let Reverse((remaining, id)) = self.voq_slots[vs as usize]
                .runners_short
                .pop()
                .expect("runner coverage: non-empty VOQ lost its shortest candidates");
            if self.runner_short_valid(vs, remaining, id) {
                let slot = &mut self.voq_slots[vs as usize];
                slot.shortest_remaining = remaining;
                slot.shortest_flow = id;
                return;
            }
        }
    }

    /// Restores the oldest champion after the cached one left the VOQ.
    fn refresh_oldest(&mut self, vs: u32) {
        loop {
            let Reverse(id) = self.voq_slots[vs as usize]
                .runners_old
                .pop()
                .expect("runner coverage: non-empty VOQ lost its oldest candidates");
            if self.runner_old_valid(vs, id) {
                self.voq_slots[vs as usize].oldest_flow = id;
                return;
            }
        }
    }

    /// Rebuilds a runner heap from only its valid entries (one per flow)
    /// when stale entries outnumber live ones. Amortized `O(1)` per push:
    /// triggered only after at least half the heap went stale.
    fn prune_runners(&mut self, vs: u32) {
        let slot = &mut self.voq_slots[vs as usize];
        let cap = Self::runner_cap(slot.len);
        if slot.runners_short.len() > cap {
            let heap = std::mem::take(&mut self.voq_slots[vs as usize].runners_short);
            let mut seen = HashSet::new();
            let mut kept = Vec::new();
            for Reverse((remaining, id)) in heap.into_vec() {
                if self.runner_short_valid(vs, remaining, id) && seen.insert(id) {
                    kept.push(Reverse((remaining, id)));
                }
            }
            self.voq_slots[vs as usize].runners_short = BinaryHeap::from(kept);
        }
        let slot = &self.voq_slots[vs as usize];
        if slot.runners_old.len() > cap {
            let heap = std::mem::take(&mut self.voq_slots[vs as usize].runners_old);
            let mut seen = HashSet::new();
            let mut kept = Vec::new();
            for Reverse(id) in heap.into_vec() {
                if self.runner_old_valid(vs, id) && seen.insert(id) {
                    kept.push(Reverse(id));
                }
            }
            self.voq_slots[vs as usize].runners_old = BinaryHeap::from(kept);
        }
    }

    /// Inserts a newly arrived flow.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::DuplicateFlow`] if the id is already active.
    pub fn insert(&mut self, flow: FlowState) -> Result<(), FlowTableError> {
        if self.flow_slots.contains_key(&flow.id()) {
            return Err(FlowTableError::DuplicateFlow(flow.id()));
        }
        let voq = flow.voq();
        let vs = match self.voq_lookup.get(&voq) {
            Some(&vs) => vs,
            None => {
                let vs = u32::try_from(self.voq_slots.len()).expect("VOQ slot count fits u32");
                self.voq_slots.push(VoqSlot::empty(voq));
                self.voq_lookup.insert(voq, vs);
                vs
            }
        };

        // Slab insertion first so runner validity checks (pruning below)
        // can already see the new flow.
        let fidx = match self.free.pop() {
            Some(i) => {
                self.flows[i as usize] = Some(FlowEntry {
                    state: flow,
                    voq_slot: vs,
                });
                i
            }
            None => {
                self.flows.push(Some(FlowEntry {
                    state: flow,
                    voq_slot: vs,
                }));
                u32::try_from(self.flows.len() - 1).expect("flow slot count fits u32")
            }
        };
        self.flow_slots.insert(flow.id(), fidx);

        let slot = &mut self.voq_slots[vs as usize];
        if slot.len == 0 {
            slot.shortest_remaining = flow.remaining();
            slot.shortest_flow = flow.id();
            slot.oldest_flow = flow.id();
        } else {
            // Whoever loses the championship (the newcomer or the displaced
            // incumbent) gets a runner entry at its *current* key, keeping
            // runner coverage exact.
            if (flow.remaining(), flow.id()) < (slot.shortest_remaining, slot.shortest_flow) {
                let displaced = (slot.shortest_remaining, slot.shortest_flow);
                slot.runners_short.push(Reverse(displaced));
                slot.shortest_remaining = flow.remaining();
                slot.shortest_flow = flow.id();
            } else {
                slot.runners_short
                    .push(Reverse((flow.remaining(), flow.id())));
            }
            if flow.id() < slot.oldest_flow {
                let displaced = slot.oldest_flow;
                slot.runners_old.push(Reverse(displaced));
                slot.oldest_flow = flow.id();
            } else {
                slot.runners_old.push(Reverse(flow.id()));
            }
        }
        slot.len += 1;
        slot.backlog += flow.remaining();
        let needs_prune = slot.runners_short.len() > Self::runner_cap(slot.len)
            || slot.runners_old.len() > Self::runner_cap(slot.len);
        if slot.len == 1 {
            self.nonempty.insert(voq, vs);
        }
        if needs_prune {
            self.prune_runners(vs);
        }

        *self.ingress.entry(voq.src()).or_insert(0) += flow.remaining();
        self.total_backlog += flow.remaining();
        self.version += 1;
        Ok(())
    }

    /// Removes a flow (e.g. a cancelled transfer), returning its state.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::UnknownFlow`] if the id is not active.
    pub fn remove(&mut self, id: FlowId) -> Result<FlowState, FlowTableError> {
        let &fidx = self
            .flow_slots
            .get(&id)
            .ok_or(FlowTableError::UnknownFlow(id))?;
        let entry = self.flows[fidx as usize]
            .take()
            .expect("indexed slab slot is live");
        self.free.push(fidx);
        self.flow_slots.remove(&id);
        let flow = entry.state;
        self.depart(entry.voq_slot, flow.id(), flow.remaining());
        Ok(flow)
    }

    /// Drains up to `units` from a flow, removing the flow if it completes.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::UnknownFlow`] if the id is not active.
    pub fn drain(&mut self, id: FlowId, units: u64) -> Result<DrainOutcome, FlowTableError> {
        let &fidx = self
            .flow_slots
            .get(&id)
            .ok_or(FlowTableError::UnknownFlow(id))?;
        let entry = self.flows[fidx as usize]
            .as_mut()
            .expect("indexed slab slot is live");
        let drained = entry.state.drain(units);
        let after = entry.state.remaining();
        let flow = entry.state;
        let vs = entry.voq_slot;

        if after == 0 {
            self.flows[fidx as usize] = None;
            self.free.push(fidx);
            self.flow_slots.remove(&id);
            self.depart(vs, id, drained);
            return Ok(DrainOutcome {
                drained,
                completed: Some(flow),
            });
        }

        let voq = flow.voq();
        let slot = &mut self.voq_slots[vs as usize];
        slot.backlog -= drained;
        if slot.shortest_flow == id {
            // The champion only got shorter; its `(remaining, id)` pair is
            // still the minimum, so no heap traffic on the hot path.
            slot.shortest_remaining = after;
        } else if (after, id) < (slot.shortest_remaining, slot.shortest_flow) {
            let displaced = (slot.shortest_remaining, slot.shortest_flow);
            slot.runners_short.push(Reverse(displaced));
            slot.shortest_remaining = after;
            slot.shortest_flow = id;
        } else {
            // Still a runner-up: re-cover it at its new key (the old entry
            // just went stale).
            slot.runners_short.push(Reverse((after, id)));
        }
        if slot.runners_short.len() > Self::runner_cap(slot.len) {
            self.prune_runners(vs);
        }
        *self
            .ingress
            .get_mut(&voq.src())
            .expect("flow present but ingress index missing") -= drained;
        self.total_backlog -= drained;
        self.version += 1;
        Ok(DrainOutcome {
            drained,
            completed: None,
        })
    }

    /// Shared bookkeeping for a flow leaving its VOQ (completion or
    /// removal). The flow must already be gone from the slab so runner
    /// validity checks see only survivors. `departing_backlog` is the
    /// backlog released by the departure.
    fn depart(&mut self, vs: u32, id: FlowId, departing_backlog: u64) {
        let slot = &mut self.voq_slots[vs as usize];
        let voq = slot.voq;
        slot.backlog -= departing_backlog;
        slot.len -= 1;
        if slot.len == 0 {
            slot.runners_short.clear();
            slot.runners_old.clear();
            self.nonempty.remove(&voq);
        } else {
            if slot.shortest_flow == id {
                self.refresh_shortest(vs);
            }
            if self.voq_slots[vs as usize].oldest_flow == id {
                self.refresh_oldest(vs);
            }
        }
        let ingress = self
            .ingress
            .get_mut(&voq.src())
            .expect("flow present but ingress index missing");
        *ingress -= departing_backlog;
        if *ingress == 0 {
            self.ingress.remove(&voq.src());
        }
        self.total_backlog -= departing_backlog;
        self.version += 1;
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation. Intended for tests and debug assertions; cost is
    /// linear in the number of flows plus retained runner entries.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Slab ↔ lookup consistency.
        let mut live = 0usize;
        for (i, entry) in self.flows.iter().enumerate() {
            let Some(entry) = entry else { continue };
            live += 1;
            let flow = &entry.state;
            if flow.is_complete() {
                return Err(format!("completed flow {} still in table", flow.id()));
            }
            if self.flow_slots.get(&flow.id()).copied() != Some(i as u32) {
                return Err(format!("flow {} slab slot not indexed", flow.id()));
            }
            match self.voq_slots.get(entry.voq_slot as usize) {
                Some(slot) if slot.voq == flow.voq() => {}
                _ => return Err(format!("flow {} points at wrong VOQ slot", flow.id())),
            }
        }
        if live != self.flow_slots.len() {
            return Err(format!(
                "{} live slab entries but {} indexed flows",
                live,
                self.flow_slots.len()
            ));
        }
        let mut seen_free = HashSet::new();
        for &f in &self.free {
            if !seen_free.insert(f) {
                return Err(format!("free slot {f} listed twice"));
            }
            if self.flows.get(f as usize).map(Option::is_some) != Some(false) {
                return Err(format!("free slot {f} is not actually free"));
            }
        }
        if seen_free.len() + live != self.flows.len() {
            return Err("slab slots neither live nor free".to_string());
        }

        // Recompute per-VOQ aggregates and champions from the slab.
        struct Recount {
            backlog: u64,
            len: u32,
            shortest: (u64, FlowId),
            oldest: FlowId,
        }
        let mut recounts: BTreeMap<Voq, Recount> = BTreeMap::new();
        let mut ingress_sums: BTreeMap<HostId, u64> = BTreeMap::new();
        let mut total = 0u64;
        for flow in self.iter() {
            let key = (flow.remaining(), flow.id());
            recounts
                .entry(flow.voq())
                .and_modify(|r| {
                    r.backlog += flow.remaining();
                    r.len += 1;
                    r.shortest = r.shortest.min(key);
                    r.oldest = r.oldest.min(flow.id());
                })
                .or_insert(Recount {
                    backlog: flow.remaining(),
                    len: 1,
                    shortest: key,
                    oldest: flow.id(),
                });
            *ingress_sums.entry(flow.voq().src()).or_insert(0) += flow.remaining();
            total += flow.remaining();
        }
        if total != self.total_backlog {
            return Err(format!(
                "total backlog {} != recomputed {}",
                self.total_backlog, total
            ));
        }
        if ingress_sums != self.ingress {
            return Err("ingress backlog index mismatch".to_string());
        }
        if self.voq_lookup.len() != self.voq_slots.len() {
            return Err("VOQ lookup and slot count diverged".to_string());
        }
        for (voq, &vs) in &self.voq_lookup {
            match self.voq_slots.get(vs as usize) {
                Some(slot) if slot.voq == *voq => {}
                _ => return Err(format!("VOQ {voq} lookup points at wrong slot")),
            }
        }
        let nonempty_recount: Vec<Voq> = recounts.keys().copied().collect();
        let nonempty_index: Vec<Voq> = self.nonempty.keys().copied().collect();
        if nonempty_recount != nonempty_index {
            return Err(format!(
                "non-empty index {nonempty_index:?} != recomputed {nonempty_recount:?}"
            ));
        }
        for (voq, &vs) in &self.nonempty {
            if self.voq_lookup.get(voq) != Some(&vs) {
                return Err(format!("non-empty index for {voq} disagrees with lookup"));
            }
        }
        for slot in &self.voq_slots {
            match recounts.get(&slot.voq) {
                None => {
                    if slot.len != 0 || slot.backlog != 0 {
                        return Err(format!("empty VOQ {} has residual counts", slot.voq));
                    }
                    if !slot.runners_short.is_empty() || !slot.runners_old.is_empty() {
                        return Err(format!("empty VOQ {} kept runner entries", slot.voq));
                    }
                }
                Some(r) => {
                    if slot.len != r.len {
                        return Err(format!("VOQ {} len {} != {}", slot.voq, slot.len, r.len));
                    }
                    if slot.backlog != r.backlog {
                        return Err(format!(
                            "VOQ {} backlog {} != {}",
                            slot.voq, slot.backlog, r.backlog
                        ));
                    }
                    if (slot.shortest_remaining, slot.shortest_flow) != r.shortest {
                        return Err(format!(
                            "VOQ {} shortest champion ({}, {}) != {:?}",
                            slot.voq, slot.shortest_remaining, slot.shortest_flow, r.shortest
                        ));
                    }
                    if slot.oldest_flow != r.oldest {
                        return Err(format!(
                            "VOQ {} oldest champion {} != {}",
                            slot.voq, slot.oldest_flow, r.oldest
                        ));
                    }
                }
            }
        }

        // Runner coverage: every live non-champion flow has a valid entry.
        let mut short_entries: HashMap<u32, HashSet<(u64, FlowId)>> = HashMap::new();
        let mut old_entries: HashMap<u32, HashSet<FlowId>> = HashMap::new();
        for (vs, slot) in self.voq_slots.iter().enumerate() {
            short_entries.insert(
                vs as u32,
                slot.runners_short.iter().map(|Reverse(e)| *e).collect(),
            );
            old_entries.insert(
                vs as u32,
                slot.runners_old.iter().map(|Reverse(id)| *id).collect(),
            );
        }
        for entry in self.flows.iter().flatten() {
            let flow = &entry.state;
            let vs = entry.voq_slot;
            let slot = &self.voq_slots[vs as usize];
            if slot.shortest_flow != flow.id()
                && !short_entries[&vs].contains(&(flow.remaining(), flow.id()))
            {
                return Err(format!(
                    "runner coverage lost: flow {} in VOQ {} has no valid shortest entry",
                    flow.id(),
                    slot.voq
                ));
            }
            if slot.oldest_flow != flow.id() && !old_entries[&vs].contains(&flow.id()) {
                return Err(format!(
                    "runner coverage lost: flow {} in VOQ {} has no valid oldest entry",
                    flow.id(),
                    slot.voq
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voq(src: u32, dst: u32) -> Voq {
        Voq::new(HostId::new(src), HostId::new(dst))
    }

    fn flow(id: u64, src: u32, dst: u32, size: u64) -> FlowState {
        FlowState::new(FlowId::new(id), voq(src, dst), size)
    }

    #[test]
    fn insert_updates_all_backlogs() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 2, 3)).unwrap();
        t.insert(flow(3, 1, 2, 7)).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_backlog(), 15);
        assert_eq!(t.voq_backlog(voq(0, 1)), 5);
        assert_eq!(t.voq_backlog(voq(0, 2)), 3);
        assert_eq!(t.ingress_backlog(HostId::new(0)), 8);
        assert_eq!(t.ingress_backlog(HostId::new(1)), 7);
        assert_eq!(t.num_nonempty_voqs(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        assert_eq!(
            t.insert(flow(1, 2, 3, 4)),
            Err(FlowTableError::DuplicateFlow(FlowId::new(1)))
        );
    }

    #[test]
    fn drain_partial_keeps_flow_and_reindexes() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 1, 3)).unwrap();
        // Flow 2 is the SRPT candidate.
        let view = t.voqs().next().unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(2));

        // Drain flow 1 below flow 2's remaining; candidate flips.
        let out = t.drain(FlowId::new(1), 3).unwrap();
        assert_eq!(out.drained, 3);
        assert!(out.completed.is_none());
        let view = t.voqs().next().unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(1));
        assert_eq!(view.shortest_remaining, 2);
        assert_eq!(view.backlog, 5);
        t.check_invariants().unwrap();
    }

    #[test]
    fn drain_to_completion_removes_flow_and_empty_voq() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        let out = t.drain(FlowId::new(1), 99).unwrap();
        assert_eq!(out.drained, 5);
        let done = out.completed.expect("flow should complete");
        assert_eq!(done.id(), FlowId::new(1));
        assert!(t.is_empty());
        assert_eq!(t.num_nonempty_voqs(), 0);
        assert_eq!(t.total_backlog(), 0);
        assert_eq!(t.ingress_backlog(HostId::new(0)), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_unindexes() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 1, 3)).unwrap();
        let removed = t.remove(FlowId::new(1)).unwrap();
        assert_eq!(removed.size(), 5);
        assert_eq!(t.voq_backlog(voq(0, 1)), 3);
        assert_eq!(
            t.remove(FlowId::new(1)),
            Err(FlowTableError::UnknownFlow(FlowId::new(1)))
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn drain_unknown_flow_errors() {
        let mut t = FlowTable::new();
        assert_eq!(
            t.drain(FlowId::new(9), 1),
            Err(FlowTableError::UnknownFlow(FlowId::new(9)))
        );
    }

    #[test]
    fn voq_views_are_deterministically_ordered() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 2, 0, 5)).unwrap();
        t.insert(flow(2, 0, 9, 3)).unwrap();
        t.insert(flow(3, 1, 4, 7)).unwrap();
        let voqs: Vec<Voq> = t.voqs().map(|v| v.voq).collect();
        assert_eq!(voqs, vec![voq(0, 9), voq(1, 4), voq(2, 0)]);
    }

    #[test]
    fn version_advances_on_every_successful_mutation_only() {
        let mut t = FlowTable::new();
        let mut seen = t.version();
        let mut advanced = |t: &FlowTable| {
            let moved = t.version() != seen;
            seen = t.version();
            moved
        };
        t.insert(flow(1, 0, 1, 5)).unwrap();
        assert!(advanced(&t), "insert");
        t.insert(flow(2, 0, 1, 3)).unwrap();
        assert!(advanced(&t), "second insert");
        t.drain(FlowId::new(1), 2).unwrap();
        assert!(advanced(&t), "partial drain");
        assert!(t.drain(FlowId::new(1), 3).unwrap().completed.is_some());
        assert!(advanced(&t), "completing drain");
        t.remove(FlowId::new(2)).unwrap();
        assert!(advanced(&t), "remove");

        // Reads never move it.
        t.insert(flow(3, 2, 0, 4)).unwrap();
        assert!(advanced(&t), "insert after emptying");
        let _ = (t.len(), t.total_backlog(), t.get(FlowId::new(3)));
        let _ = (t.voqs().count(), t.voq_view(voq(2, 0)), t.iter().count());
        let _ = (t.voq_backlog(voq(2, 0)), t.ingress_backlog(HostId::new(2)));
        t.check_invariants().unwrap();
        assert!(!advanced(&t), "reads");

        // Neither do calls that fail.
        assert!(t.insert(flow(3, 0, 1, 1)).is_err());
        assert!(t.drain(FlowId::new(9), 1).is_err());
        assert!(t.remove(FlowId::new(9)).is_err());
        assert!(!advanced(&t), "failed calls");
    }

    #[test]
    fn clone_copies_contents_and_version() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        let copy = t.clone();
        assert_eq!(copy.version(), t.version());
        assert_eq!(copy.total_backlog(), 5);
        copy.check_invariants().unwrap();
        t.drain(FlowId::new(1), 1).unwrap();
        assert_ne!(copy.version(), t.version(), "clones mutate independently");
    }

    #[test]
    fn voq_view_matches_iterator() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 1, 3)).unwrap();
        let from_iter = t.voqs().next().unwrap();
        assert_eq!(t.voq_view(voq(0, 1)), Some(from_iter));
        assert_eq!(t.voq_view(voq(3, 4)), None);
    }

    #[test]
    fn oldest_flow_is_smallest_id() {
        let mut t = FlowTable::new();
        t.insert(flow(5, 0, 1, 2)).unwrap();
        t.insert(flow(3, 0, 1, 9)).unwrap();
        let view = t.voqs().next().unwrap();
        assert_eq!(view.oldest_flow, FlowId::new(3));
        assert_eq!(view.shortest_flow, FlowId::new(5));
        assert_eq!(view.len, 2);
    }

    #[test]
    fn champions_survive_id_reuse_in_same_voq() {
        // The bench's per-event loop completes a flow and reinserts the same
        // id; stale runner entries for the old incarnation must never leak
        // into the champions of the new one.
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 10)).unwrap();
        t.insert(flow(2, 0, 1, 20)).unwrap();
        t.insert(flow(3, 0, 1, 30)).unwrap();
        t.drain(FlowId::new(1), 10).unwrap(); // complete, leaving stale entries
        t.insert(flow(1, 0, 1, 25)).unwrap(); // same id, new size
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(2));
        assert_eq!(view.oldest_flow, FlowId::new(1));
        t.check_invariants().unwrap();
        // Remove the shortest champion: the reused id must be re-ranked at
        // its *new* remaining, not the stale 10-unit entry.
        t.remove(FlowId::new(2)).unwrap();
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(1));
        assert_eq!(view.shortest_remaining, 25);
        t.check_invariants().unwrap();
    }

    #[test]
    fn voq_slot_is_reused_across_empty_transitions() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.drain(FlowId::new(1), 5).unwrap();
        assert_eq!(t.num_nonempty_voqs(), 0);
        t.insert(flow(2, 0, 1, 7)).unwrap();
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(2));
        assert_eq!(view.shortest_remaining, 7);
        assert_eq!(view.len, 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn runner_heaps_stay_bounded_under_churn() {
        // A long-lived elephant keeps draining while mice come and go: the
        // runner heaps must prune stale entries instead of growing with the
        // number of mutations.
        let mut t = FlowTable::new();
        t.insert(flow(0, 0, 1, 1_000_000)).unwrap();
        for round in 0..5_000u64 {
            let id = 1 + (round % 7);
            if t.get(FlowId::new(id)).is_none() {
                t.insert(flow(id, 0, 1, 3 + id)).unwrap();
            }
            t.drain(FlowId::new(id), 1).unwrap();
            t.drain(FlowId::new(0), 1).unwrap();
        }
        let slot = &t.voq_slots[t.voq_lookup[&voq(0, 1)] as usize];
        let cap = FlowTable::runner_cap(slot.len);
        assert!(
            slot.runners_short.len() <= 2 * cap,
            "shortest runner heap kept {} entries",
            slot.runners_short.len()
        );
        t.check_invariants().unwrap();
    }
}
