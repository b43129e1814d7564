//! The active-flow store: flows organized in virtual output queues.
//!
//! The table is built around two structures sized for the scheduling hot
//! path:
//!
//! * a **slab arena** of flows — `Vec<Option<FlowEntry>>` slots addressed by
//!   dense indices, with a free list for reuse — so drains and champion
//!   updates touch contiguous memory instead of chasing `HashMap` buckets;
//! * a **champion index** per VOQ — the cached shortest `(remaining, id)`
//!   pair and smallest id, plus two ordered sets holding exactly the other
//!   flows' keys — so schedulers read each VOQ's winning candidate in
//!   `O(1)` and the table restores it in `O(log n)` when a champion leaves.

use crate::FlowState;
use dcn_types::{FlowId, HostId, Voq};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many successful mutations the table's changed-slot record keeps
/// before it drops its older half: a reader that falls further behind
/// than that is told the record no longer covers its gap.
pub(crate) const CHANGE_RECORD: usize = 4096;

/// The source of table identities.
static NEXT_TABLE: AtomicU64 = AtomicU64::new(1);

/// A table's identity: fresh on every new, default, cloned or restored
/// table, so a reading of one table never passes for another's.
#[derive(Debug, PartialEq, Eq)]
struct Identity(u64);

impl Default for Identity {
    fn default() -> Self {
        Identity(NEXT_TABLE.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for Identity {
    fn clone(&self) -> Self {
        Identity::default()
    }
}

/// A point in one table's mutation history: the table's identity and its
/// [`FlowTable::version`] at the time of the reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableMark {
    pub(crate) table: u64,
    pub(crate) version: u64,
}

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

/// A flow's slot in its [`FlowTable`]'s slab arena: the handle
/// [`FlowTable::insert`] returns and [`DrainOutcome::slot`] reports back.
///
/// A slot is stable while its flow is active and is recycled for a later
/// insert once the flow completes or is removed, so slots stay dense:
/// every slot ever handed out is below the number of flows the table has
/// held at once. Consumers keeping per-flow records beside the table
/// index a `Vec` by [`FlowSlot::index`] instead of hashing the
/// [`FlowId`]; such a record must be read at its flow's completion,
/// before a later insert can reuse the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSlot(u32);

impl FlowSlot {
    /// The slot as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

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
    /// already been removed from the table and its slot freed for reuse.
    pub completed: Option<FlowState>,
    /// The drained flow's slot.
    pub slot: FlowSlot,
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

/// Per-VOQ champion index: the current winners plus the exact runner-up
/// sets (see the invariants on [`FlowTable`]).
#[derive(Debug, Clone)]
struct VoqSlot {
    voq: Voq,
    len: u32,
    backlog: u64,
    /// Cached champions; meaningful only while `len > 0`.
    shortest_remaining: u64,
    shortest_flow: FlowId,
    oldest_flow: FlowId,
    /// The current `(remaining, id)` key of every flow but the shortest
    /// champion; its first element is the next shortest champion.
    runners_short: BTreeSet<(u64, FlowId)>,
    /// The id of every flow but the oldest champion, for the FIFO (oldest =
    /// smallest id) pick.
    runners_old: BTreeSet<FlowId>,
}

impl VoqSlot {
    /// Ranks a flow at `(remaining, id)` against the shortest champion of a
    /// non-empty VOQ: whichever loses joins `runners_short`.
    fn enter_short(&mut self, remaining: u64, id: FlowId) {
        let loser = if (remaining, id) < (self.shortest_remaining, self.shortest_flow) {
            let champion = (self.shortest_remaining, self.shortest_flow);
            (self.shortest_remaining, self.shortest_flow) = (remaining, id);
            champion
        } else {
            (remaining, id)
        };
        self.runners_short.insert(loser);
    }

    fn empty(voq: Voq) -> Self {
        VoqSlot {
            voq,
            len: 0,
            backlog: 0,
            shortest_remaining: 0,
            shortest_flow: FlowId::new(0),
            oldest_flow: FlowId::new(0),
            runners_short: BTreeSet::new(),
            runners_old: BTreeSet::new(),
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
/// * **exact runner-ups**: each VOQ's runner-up sets hold exactly its
///   non-champion flows at their current keys — `(remaining, id)` for every
///   flow but the shortest champion, the id of every flow but the oldest —
///   so when a champion completes or is removed, the first set element is
///   the next champion. A single-flow VOQ's sets are empty.
///
/// Reading the per-VOQ champions ([`FlowTable::voqs`],
/// [`FlowTable::voq_view`]) is `O(1)` per VOQ off the cached fields, so a
/// full scheduling pass costs `O(Q log Q)` in the number of non-empty VOQs
/// rather than `O(F log F)` in the number of flows, and champion-preserving
/// drains (the SRPT/BASRPT steady state: the shortest flow only gets
/// shorter) cost `O(1)` with no set traffic at all.
///
/// Every successful mutation also advances a counter,
/// [`FlowTable::version`], so a consumer caching table-derived state can
/// ask "has anything changed since I last looked?" in `O(1)`, and appends
/// the VOQ slot it touched to a bounded record, so the key-driven
/// disciplines' carried matching ([`crate::Ranking`]) can ask *which* VOQs
/// changed. Each table has its own identity — fresh on [`FlowTable::new`],
/// [`Default`] and [`Clone`] — so a reading taken on one table never
/// passes for another's; a clone holds the same flows and version but is
/// another table.
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
    identity: Identity,
    /// The VOQ slot of each of the last (at most [`CHANGE_RECORD`])
    /// mutations, oldest first: entry `k` is mutation number
    /// `changed_base + k`, so `changed_base + changed.len() == version`.
    changed: Vec<u32>,
    changed_base: u64,
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

    /// The largest per-ingress-port backlog, zero for an empty table.
    pub fn max_ingress_backlog(&self) -> u64 {
        self.ingress.values().copied().max().unwrap_or(0)
    }

    /// Looks up an active flow.
    pub fn get(&self, id: FlowId) -> Option<&FlowState> {
        self.entry(id).map(|e| &e.state)
    }

    /// The slab entry of an active flow.
    fn entry(&self, id: FlowId) -> Option<&FlowEntry> {
        let &slot = self.flow_slots.get(&id)?;
        let entry = self.flows[slot as usize].as_ref();
        Some(entry.expect("indexed slab slot is live"))
    }

    /// Iterates over all active flows in unspecified order (for statistics;
    /// schedulers should use [`FlowTable::voqs`]).
    pub fn iter(&self) -> impl Iterator<Item = &FlowState> {
        self.flows.iter().flatten().map(|e| &e.state)
    }

    /// Iterates over all active flows with their slots, in slot order.
    pub fn slots(&self) -> impl Iterator<Item = (FlowSlot, &FlowState)> {
        self.flows
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((FlowSlot(i as u32), &e.as_ref()?.state)))
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

    /// The summary of the VOQ in dense slot `slot` ([`VoqView::slot`]), or
    /// `None` if that VOQ is empty or the slot was never handed out.
    /// `O(1)` and hash-free.
    pub(crate) fn view_at_slot(&self, slot: usize) -> Option<VoqView> {
        let vs = self.voq_slots.get(slot)?;
        (vs.len > 0).then(|| self.view_of(vs.voq, slot as u32))
    }

    /// The VOQ in dense slot `slot`, which never changes.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never handed out.
    pub(crate) fn voq_at_slot(&self, slot: usize) -> Voq {
        self.voq_slots[slot].voq
    }

    /// The number of VOQ slots handed out so far.
    pub(crate) fn num_voq_slots(&self) -> usize {
        self.voq_slots.len()
    }

    /// This table's identity and current version.
    pub(crate) fn mark(&self) -> TableMark {
        TableMark {
            table: self.identity.0,
            version: self.version,
        }
    }

    /// The VOQ slots touched by every mutation since `mark`, oldest first
    /// and possibly repeated, or `None` when `mark` was taken on another
    /// table or the record no longer reaches back to it.
    pub(crate) fn changed_since(&self, mark: TableMark) -> Option<&[u32]> {
        if mark.table != self.identity.0 || mark.version < self.changed_base {
            return None;
        }
        self.changed
            .get((mark.version - self.changed_base) as usize..)
    }

    /// Counts one successful mutation of the VOQ in slot `vs`.
    fn note_change(&mut self, vs: u32) {
        if self.changed.len() == CHANGE_RECORD {
            self.changed.drain(..CHANGE_RECORD / 2);
            self.changed_base += (CHANGE_RECORD / 2) as u64;
        }
        self.changed.push(vs);
        self.version += 1;
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

    /// Inserts a newly arrived flow and returns its slot.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::DuplicateFlow`] if the id is already active.
    pub fn insert(&mut self, flow: FlowState) -> Result<FlowSlot, FlowTableError> {
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
            // incumbent) joins the runner-up sets at its current key.
            slot.enter_short(flow.remaining(), flow.id());
            let loser = if flow.id() < slot.oldest_flow {
                std::mem::replace(&mut slot.oldest_flow, flow.id())
            } else {
                flow.id()
            };
            slot.runners_old.insert(loser);
        }
        slot.len += 1;
        slot.backlog += flow.remaining();
        if slot.len == 1 {
            self.nonempty.insert(voq, vs);
        }

        *self.ingress.entry(voq.src()).or_insert(0) += flow.remaining();
        self.total_backlog += flow.remaining();
        self.note_change(vs);
        Ok(FlowSlot(fidx))
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
                slot: FlowSlot(fidx),
            });
        }

        let voq = flow.voq();
        let slot = &mut self.voq_slots[vs as usize];
        slot.backlog -= drained;
        if slot.shortest_flow == id {
            // The champion only got shorter; its `(remaining, id)` pair is
            // still the minimum, so no set traffic on the hot path.
            slot.shortest_remaining = after;
        } else {
            // A runner-up leaves its old key, then it or the champion it
            // overtakes takes a runner-up key.
            let was = slot.runners_short.remove(&(after + drained, id));
            debug_assert!(was, "runner-up {id} missing from its VOQ's set");
            slot.enter_short(after, id);
        }
        *self
            .ingress
            .get_mut(&voq.src())
            .expect("flow present but ingress index missing") -= drained;
        self.total_backlog -= drained;
        self.note_change(vs);
        Ok(DrainOutcome {
            drained,
            completed: None,
            slot: FlowSlot(fidx),
        })
    }

    /// Shared bookkeeping for a flow leaving its VOQ (completion or
    /// removal). `departing_backlog` is the backlog released by the
    /// departure: the flow's remaining units just before it left, so
    /// `(departing_backlog, id)` is its runner-up key.
    fn depart(&mut self, vs: u32, id: FlowId, departing_backlog: u64) {
        let slot = &mut self.voq_slots[vs as usize];
        let voq = slot.voq;
        slot.backlog -= departing_backlog;
        slot.len -= 1;
        // A departing champion hands over to its first runner-up (none once
        // the VOQ empties); a departing runner-up leaves its exact keys.
        if slot.shortest_flow == id {
            if let Some((remaining, next)) = slot.runners_short.pop_first() {
                slot.shortest_remaining = remaining;
                slot.shortest_flow = next;
            }
        } else {
            let was = slot.runners_short.remove(&(departing_backlog, id));
            debug_assert!(was, "runner-up {id} missing from its VOQ's set");
        }
        if slot.oldest_flow == id {
            if let Some(next) = slot.runners_old.pop_first() {
                slot.oldest_flow = next;
            }
        } else {
            let was = slot.runners_old.remove(&id);
            debug_assert!(was, "runner-up {id} missing from its VOQ's set");
        }
        if slot.len == 0 {
            self.nonempty.remove(&voq);
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
        self.note_change(vs);
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation. Intended for tests and debug assertions; cost is
    /// `O(F log F)` in the number of flows.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.changed_base + self.changed.len() as u64 != self.version
            || self.changed.len() > CHANGE_RECORD
        {
            return Err(format!(
                "changed-slot record holds {} slots from version {}, table is at {}",
                self.changed.len(),
                self.changed_base,
                self.version
            ));
        }
        if let Some(&vs) = self
            .changed
            .iter()
            .find(|&&vs| vs as usize >= self.voq_slots.len())
        {
            return Err(format!("changed-slot record names unknown VOQ slot {vs}"));
        }
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

        // Recount every VOQ's keys from the slab: the first key of each
        // order is its champion, and the rest must be its runner-up set.
        #[derive(Default)]
        struct Recount {
            backlog: u64,
            short: BTreeSet<(u64, FlowId)>,
            old: BTreeSet<FlowId>,
        }
        let mut recounts: BTreeMap<Voq, Recount> = BTreeMap::new();
        let mut ingress_sums: BTreeMap<HostId, u64> = BTreeMap::new();
        let mut total = 0u64;
        for flow in self.iter() {
            let r = recounts.entry(flow.voq()).or_default();
            r.backlog += flow.remaining();
            r.short.insert((flow.remaining(), flow.id()));
            r.old.insert(flow.id());
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
            let Some(r) = recounts.get_mut(&slot.voq) else {
                if slot.len != 0 || slot.backlog != 0 {
                    return Err(format!("empty VOQ {} has residual counts", slot.voq));
                }
                if !slot.runners_short.is_empty() || !slot.runners_old.is_empty() {
                    return Err(format!("empty VOQ {} kept runner entries", slot.voq));
                }
                continue;
            };
            let len = r.short.len();
            if slot.len as usize != len {
                return Err(format!("VOQ {} len {} != {len}", slot.voq, slot.len));
            }
            if slot.backlog != r.backlog {
                return Err(format!(
                    "VOQ {} backlog {} != {}",
                    slot.voq, slot.backlog, r.backlog
                ));
            }
            let shortest = r.short.pop_first();
            if Some((slot.shortest_remaining, slot.shortest_flow)) != shortest {
                return Err(format!(
                    "VOQ {} shortest champion ({}, {}) != {shortest:?}",
                    slot.voq, slot.shortest_remaining, slot.shortest_flow
                ));
            }
            let oldest = r.old.pop_first();
            if Some(slot.oldest_flow) != oldest {
                return Err(format!(
                    "VOQ {} oldest champion {} != {oldest:?}",
                    slot.voq, slot.oldest_flow
                ));
            }
            if slot.runners_short != r.short || slot.runners_old != r.old {
                return Err(format!(
                    "VOQ {} runner-ups {:?} / {:?} != non-champion keys {:?} / {:?}",
                    slot.voq, slot.runners_short, slot.runners_old, r.short, r.old
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
    fn changed_record_names_each_mutation_on_this_table_only() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 2, 3, 5)).unwrap();
        let (a, b) = (
            t.voq_slot(voq(0, 1)).unwrap(),
            t.voq_slot(voq(2, 3)).unwrap(),
        );
        let mark = t.mark();
        assert_eq!(t.changed_since(mark), Some(&[][..]));
        t.drain(FlowId::new(2), 1).unwrap();
        t.remove(FlowId::new(1)).unwrap();
        assert!(t.drain(FlowId::new(9), 1).is_err());
        assert_eq!(t.changed_since(mark), Some(&[b as u32, a as u32][..]));
        assert_eq!(t.view_at_slot(a), None, "emptied");
        assert_eq!(t.view_at_slot(b), t.voq_view(voq(2, 3)));
        assert_eq!(t.view_at_slot(99), None, "never handed out");

        // A clone is another table, and so is a fresh one.
        let copy = t.clone();
        assert_eq!(copy.version(), t.version());
        assert_eq!(copy.changed_since(mark), None);
        assert_eq!(copy.changed_since(copy.mark()), Some(&[][..]));
        assert_eq!(FlowTable::new().changed_since(mark), None);
        copy.check_invariants().unwrap();

        // A reader further behind than the record reaches is turned away;
        // one inside it is served.
        for _ in 0..CHANGE_RECORD {
            t.insert(flow(3, 4, 5, 2)).unwrap();
            t.remove(FlowId::new(3)).unwrap();
        }
        assert_eq!(t.changed_since(mark), None);
        let recent = t.mark();
        t.drain(FlowId::new(2), 1).unwrap();
        assert_eq!(t.changed_since(recent), Some(&[b as u32][..]));
        t.check_invariants().unwrap();
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
        // id; the old incarnation's keys must never leak into the champions
        // of the new one.
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 10)).unwrap();
        t.insert(flow(2, 0, 1, 20)).unwrap();
        t.insert(flow(3, 0, 1, 30)).unwrap();
        t.drain(FlowId::new(1), 10).unwrap(); // complete
        t.insert(flow(1, 0, 1, 25)).unwrap(); // same id, new size
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(2));
        assert_eq!(view.oldest_flow, FlowId::new(1));
        t.check_invariants().unwrap();
        // Remove the shortest champion: the reused id must be re-ranked at
        // its *new* remaining, not the old incarnation's 10 units.
        t.remove(FlowId::new(2)).unwrap();
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(1));
        assert_eq!(view.shortest_remaining, 25);
        t.check_invariants().unwrap();
    }

    #[test]
    fn completed_flow_slot_is_reported_and_reused() {
        let mut t = FlowTable::new();
        let a = t.insert(flow(1, 0, 1, 5)).unwrap();
        let b = t.insert(flow(2, 2, 3, 5)).unwrap();
        assert_ne!(a, b);
        let partial = t.drain(FlowId::new(1), 2).unwrap();
        assert_eq!(partial.slot, a);
        assert!(partial.completed.is_none());
        let done = t.drain(FlowId::new(1), 3).unwrap();
        assert_eq!(done.slot, a);
        assert!(done.completed.is_some());
        // The next flow, on any VOQ, takes the freed slot.
        let c = t.insert(flow(3, 4, 5, 9)).unwrap();
        assert_eq!(c, a);
        let by_slot: Vec<(usize, FlowId)> = t.slots().map(|(s, f)| (s.index(), f.id())).collect();
        assert_eq!(
            by_slot,
            vec![(a.index(), FlowId::new(3)), (b.index(), FlowId::new(2))]
        );
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

    /// The runner-up sets of `voq` as `(shortest, oldest)` contents.
    fn runners(t: &FlowTable, voq: Voq) -> (Vec<(u64, FlowId)>, Vec<FlowId>) {
        let slot = &t.voq_slots[t.voq_lookup[&voq] as usize];
        (
            slot.runners_short.iter().copied().collect(),
            slot.runners_old.iter().copied().collect(),
        )
    }

    #[test]
    fn runner_sets_hold_exactly_the_non_champions_under_churn() {
        // A long-lived elephant keeps draining while mice come and go: the
        // runner-up sets must track the live flows exactly instead of
        // growing with the number of mutations.
        let mut t = FlowTable::new();
        t.insert(flow(0, 0, 1, 1_000_000)).unwrap();
        for round in 0..5_000u64 {
            let id = 1 + (round % 7);
            if t.get(FlowId::new(id)).is_none() {
                t.insert(flow(id, 0, 1, 3 + id)).unwrap();
            }
            t.drain(FlowId::new(id), 1).unwrap();
            t.drain(FlowId::new(0), 1).unwrap();
            let (short, old) = runners(&t, voq(0, 1));
            let len = t.voq_view(voq(0, 1)).unwrap().len;
            assert_eq!(
                (short.len(), old.len()),
                (len - 1, len - 1),
                "round {round}"
            );
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn non_champion_drain_and_remove_keep_the_sets_exact() {
        let id = FlowId::new;
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 10)).unwrap();
        t.insert(flow(2, 0, 1, 20)).unwrap();
        t.insert(flow(3, 0, 1, 30)).unwrap();
        assert_eq!(
            runners(&t, voq(0, 1)),
            (vec![(20, id(2)), (30, id(3))], vec![id(2), id(3)])
        );

        // Flow 3, a runner-up, drains past the champion and displaces it.
        t.drain(id(3), 25).unwrap();
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!((view.shortest_remaining, view.shortest_flow), (5, id(3)));
        assert_eq!(view.oldest_flow, id(1));
        assert_eq!(
            runners(&t, voq(0, 1)),
            (vec![(10, id(1)), (20, id(2))], vec![id(2), id(3)])
        );
        t.check_invariants().unwrap();

        // Removing flow 2, a runner-up in both orders, leaves its exact keys.
        t.remove(id(2)).unwrap();
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!((view.shortest_remaining, view.shortest_flow), (5, id(3)));
        assert_eq!((view.oldest_flow, view.len), (id(1), 2));
        assert_eq!(runners(&t, voq(0, 1)), (vec![(10, id(1))], vec![id(3)]));
        t.check_invariants().unwrap();
    }
}
