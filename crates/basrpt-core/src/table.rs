//! The active-flow store: flows organized in virtual output queues.
//!
//! The table is built around structures sized for the per-event path, none
//! of which hashes with SipHash or walks a B-tree map:
//!
//! * a **slab arena** of flows — `Vec<Option<FlowEntry>>` slots addressed by
//!   dense indices, with a free list for reuse. A slot is the flow's handle
//!   ([`FlowSlot`]): [`FlowTable::drain_at`] and [`FlowTable::get_at`]
//!   reach their flow by it with no lookup, and check that the slot still
//!   holds the flow id they were given. A flow leaves the table only by
//!   draining to completion;
//! * a **champion index** per VOQ — the cached shortest `(remaining, id)`
//!   pair plus an ordered set holding exactly the other flows' keys — so
//!   schedulers read each VOQ's winning candidate in `O(1)` and the table
//!   restores it in `O(log n)` when the champion leaves;
//! * a **per-source non-empty index**: each source host's non-empty VOQs,
//!   the only one inline in the host's entry, two or more as `(dst, VOQ
//!   slot)` pairs sorted by `dst` in a pooled row that a binary search
//!   edits when a VOQ fills or empties, plus a bitmap of the sources that
//!   have one. [`FlowTable::voqs`] walks the sources in order, so it
//!   yields exact [`Voq`] order;
//! * a **per-host ingress vector**, indexed by host.
//!
//! Two id maps remain, both on an in-tree Fx-style hasher: flow id → slot
//! (for [`FlowTable::insert`]'s duplicate check and the id-keyed
//! accessors, such as [`FlowTable::slot_of`]) and VOQ → VOQ slot (one
//! probe per insert).

use crate::FlowState;
use dcn_types::{FlowId, HostId, PortSet, Voq};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU64, Ordering};

/// The multiply-rotate hash of `rustc`'s `FxHasher`: one rotate, xor and
/// multiply per word, and no per-process seed, so keys chosen to collide
/// share a probe sequence. Flow ids are assigned by the simulators and the
/// daemon, never by a client. VOQ keys can be chosen (the daemon reads
/// `src` and `dst` off its input lines), but the fabric rejects hosts
/// outside its topology, so at most `P²` distinct VOQs ever enter the
/// map, and each is probed once per insert: colliding VOQs lengthen that
/// one probe and change no result.
#[derive(Debug, Clone, Copy, Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// The keys hash as `u64` ids and `u32` host pairs; other writes, which
/// they never make, take a byte at a time.
impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Grows a per-host vector to cover host index `host`, filling with
/// `fill`. Growth is amortized, so hosts first seen in ascending order
/// cost `O(P)` copies in all; a table made by [`FlowTable::with_hosts`]
/// never grows for hosts below its count.
fn cover<T: Copy>(per_host: &mut Vec<T>, host: usize, fill: T) {
    if host >= per_host.len() {
        per_host.resize(host + 1, fill);
    }
}

/// A `HashMap` on [`FxHasher`].
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The non-empty-index entry of a source with no non-empty VOQ.
const NO_ROW: u32 = u32::MAX;

/// The tag of a source's entry that holds its one non-empty VOQ's slot
/// inline (`ONE | slot`); an untagged entry is the index of a pooled row.
const ONE: u32 = 1 << 31;

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
///
/// Slots carry no generation, so a handle kept past its flow's departure
/// may name a later flow. The slot-keyed operations
/// ([`FlowTable::drain_at`], [`FlowTable::get_at`]) therefore take the flow id alongside the slot
/// and reject a slot that holds another flow (or none).
///
/// The slot is stored one up in a [`NonZeroU32`], so an
/// `Option<FlowSlot>`, or an optional record that carries one, costs no
/// tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSlot(NonZeroU32);

impl FlowSlot {
    /// The handle of slab slot `index`. A handle made up this way is as
    /// safe as one [`FlowTable::insert`] returned: the table checks every
    /// handle against the flow id it comes with.
    ///
    /// # Panics
    ///
    /// Panics if `index` is `u32::MAX` or more.
    pub fn new(index: usize) -> Self {
        let one_up = u32::try_from(index).ok().and_then(|i| i.checked_add(1));
        FlowSlot(
            one_up
                .and_then(NonZeroU32::new)
                .expect("flow slot below u32::MAX"),
        )
    }

    /// The slot as a `Vec` index.
    pub fn index(self) -> usize {
        self.raw() as usize
    }

    fn raw(self) -> u32 {
        self.0.get() - 1
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
    /// The drained flow's VOQ, so a caller holding only the slot and id
    /// learns it with no lookup.
    pub voq: Voq,
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

/// Per-VOQ champion index: the current winner plus the exact runner-up
/// set (see the invariants on [`FlowTable`]).
#[derive(Debug, Clone)]
struct VoqSlot {
    voq: Voq,
    len: u32,
    backlog: u64,
    /// Cached champion; meaningful only while `len > 0`.
    shortest_remaining: u64,
    shortest_flow: FlowId,
    /// The current `(remaining, id)` key of every flow but the shortest
    /// champion; its first element is the next shortest champion.
    runners_short: BTreeSet<(u64, FlowId)>,
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
            runners_short: BTreeSet::new(),
        }
    }
}

/// The set of active flows, indexed by VOQ, with the aggregate backlogs the
/// backlog-aware schedulers need.
///
/// Invariants maintained by every operation:
///
/// * a VOQ appears in the non-empty index iff it holds at least one flow,
///   in its source's entry at the rank of its destination, and a source has
///   an entry (and a bit in the source bitmap) iff it has a non-empty VOQ;
/// * `backlog` of a VOQ equals the sum of its flows' remaining units;
/// * per-ingress-port and total backlogs equal the sums over their VOQs;
/// * the flow-id map names exactly the live slab slots;
/// * the cached champion of a non-empty VOQ is exact: `(shortest_remaining,
///   shortest_flow)` is the minimum `(remaining, id)` pair over its flows;
/// * **exact runner-ups**: each VOQ's runner-up set holds exactly the
///   `(remaining, id)` keys of its flows but the champion, so when the
///   champion completes or is removed, the first set element is the next
///   champion. A single-flow VOQ's set is empty.
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
/// let slot = table.insert(FlowState::new(FlowId::new(2), voq, 3))?;
/// assert_eq!(table.voq_backlog(voq), 8);
///
/// // The slot `insert` returned reaches the flow with no lookup.
/// let out = table.drain_at(slot, FlowId::new(2), 3)?;
/// assert!(out.completed.is_some());
/// assert_eq!(table.voq_backlog(voq), 5);
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Slab arena of active flows; freed slots are recycled via `free`.
    flows: Vec<Option<FlowEntry>>,
    free: Vec<u32>,
    /// FlowId → slab slot: `insert`'s duplicate check and the id-keyed
    /// accessors. The slot-keyed mutations only remove from it.
    flow_slots: FxMap<FlowId, u32>,
    /// Per-VOQ champion index; slots persist for the table's lifetime so a
    /// VOQ keeps its dense index across empty/non-empty transitions.
    voq_slots: Vec<VoqSlot>,
    /// Voq → slot in `voq_slots`.
    voq_lookup: FxMap<Voq, u32>,
    /// The non-empty index, one entry per source host: [`NO_ROW`] when the
    /// source has no non-empty VOQ, `ONE | slot` when it has exactly one
    /// (most sources, most of the time), and otherwise the index of the
    /// row of `rows` that lists its non-empty VOQs as `(dst, VOQ slot)`,
    /// sorted by `dst`. Rows are pooled: a row that falls to one entry
    /// goes to `free_rows` with its capacity, so the lists cost memory per
    /// source that has two non-empty VOQs now, not per host.
    src_row: Vec<u32>,
    rows: Vec<Vec<(u32, u32)>>,
    free_rows: Vec<u32>,
    /// The sources with a non-empty VOQ, walked in order by
    /// [`FlowTable::voqs`].
    sources: PortSet,
    nonempty: usize,
    /// Backlog per ingress host, indexed by host; hosts past the end have
    /// none.
    ingress: Vec<u64>,
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

    /// Creates an empty flow table whose per-host state is sized for
    /// hosts `0..hosts` up front, so it never grows for them: the fabric
    /// knows its host count, and at thousands of hosts an amortized
    /// growth's spare capacity would be most of the per-host memory.
    pub fn with_hosts(hosts: u32) -> Self {
        FlowTable {
            src_row: vec![NO_ROW; hosts as usize],
            ingress: vec![0; hosts as usize],
            sources: PortSet::with_ports(hosts),
            ..FlowTable::default()
        }
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
        self.nonempty
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
        self.ingress.get(host.as_usize()).copied().unwrap_or(0)
    }

    /// The largest per-ingress-port backlog, zero for an empty table. A
    /// scan of the per-host vector, `O(P)`: the samplers call it once per
    /// sample instant.
    pub fn max_ingress_backlog(&self) -> u64 {
        self.ingress.iter().copied().max().unwrap_or(0)
    }

    /// Looks up an active flow by id (one hash probe; the slot-keyed
    /// [`FlowTable::get_at`] needs none).
    pub fn get(&self, id: FlowId) -> Option<&FlowState> {
        self.get_at(self.slot_of(id)?, id)
    }

    /// The slot of an active flow, found by id (one hash probe).
    pub fn slot_of(&self, id: FlowId) -> Option<FlowSlot> {
        self.flow_slots
            .get(&id)
            .map(|&at| FlowSlot::new(at as usize))
    }

    /// The active flow in `slot`, if that slot holds flow `id`: `O(1)`
    /// and hash-free. `None` for a free slot, a slot now holding another
    /// flow, or a slot past the slab.
    pub fn get_at(&self, slot: FlowSlot, id: FlowId) -> Option<&FlowState> {
        let entry = self.flows.get(slot.index())?.as_ref()?;
        (entry.state.id() == id).then_some(&entry.state)
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
            .filter_map(|(i, e)| Some((FlowSlot::new(i), &e.as_ref()?.state)))
    }

    /// Iterates over all non-empty VOQs in deterministic (lexicographic)
    /// order, yielding the per-VOQ champion summaries schedulers rank. Each
    /// view is read off the cached champion fields in `O(1)`; the walk
    /// visits the sources with a non-empty VOQ in order, and each one's
    /// list is sorted by destination.
    pub fn voqs(&self) -> impl Iterator<Item = VoqView> + '_ {
        self.sources.iter().flat_map(move |src| {
            let entry = self.src_row[src.as_usize()];
            let (one, row) = match entry & ONE {
                0 => (None, &self.rows[entry as usize][..]),
                _ => (Some(entry & !ONE), &[][..]),
            };
            let one = one.map(|vs| self.view_of(self.voq_slots[vs as usize].voq, vs));
            let row = row
                .iter()
                .map(move |&(dst, vs)| self.view_of(Voq::new(src, HostId::new(dst)), vs));
            one.into_iter().chain(row)
        })
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
    /// [`drain`](FlowTable::drain), [`drain_at`](FlowTable::drain_at)) applied
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
        let id = flow.id();
        let fidx = match self.free.last() {
            Some(&i) => i,
            None => u32::try_from(self.flows.len()).expect("flow slot count fits u32"),
        };
        match self.flow_slots.entry(id) {
            Entry::Occupied(_) => return Err(FlowTableError::DuplicateFlow(id)),
            Entry::Vacant(v) => v.insert(fidx),
        };
        let voq = flow.voq();
        let vs = match self.voq_lookup.get(&voq) {
            Some(&vs) => vs,
            None => {
                let vs = u32::try_from(self.voq_slots.len())
                    .ok()
                    .filter(|&vs| vs < ONE - 1)
                    .expect("VOQ slot count fits 31 bits");
                self.voq_slots.push(VoqSlot::empty(voq));
                self.voq_lookup.insert(voq, vs);
                vs
            }
        };

        let entry = Some(FlowEntry {
            state: flow,
            voq_slot: vs,
        });
        if self.free.pop().is_some() {
            self.flows[fidx as usize] = entry;
        } else {
            self.flows.push(entry);
        }

        let slot = &mut self.voq_slots[vs as usize];
        if slot.len == 0 {
            (slot.shortest_remaining, slot.shortest_flow) = (flow.remaining(), id);
        } else {
            // Whoever loses the championship (the newcomer or the displaced
            // incumbent) joins the runner-up set at its current key.
            slot.enter_short(flow.remaining(), id);
        }
        slot.len += 1;
        slot.backlog += flow.remaining();
        if slot.len == 1 {
            self.link(voq, vs);
        }

        let src = voq.src().as_usize();
        cover(&mut self.ingress, src, 0);
        self.ingress[src] += flow.remaining();
        self.total_backlog += flow.remaining();
        self.note_change(vs);
        Ok(FlowSlot::new(fidx as usize))
    }

    /// Enters the VOQ in slot `vs`, which just became non-empty, into its
    /// source's entry of the non-empty index, at the rank of its
    /// destination.
    fn link(&mut self, voq: Voq, vs: u32) {
        let src = voq.src().as_usize();
        cover(&mut self.src_row, src, NO_ROW);
        let entry = self.src_row[src];
        let r = match entry {
            NO_ROW => {
                self.sources.insert(voq.src());
                self.src_row[src] = ONE | vs;
                self.nonempty += 1;
                return;
            }
            // A second VOQ: the source moves from its inline slot to a row.
            _ if entry & ONE != 0 => {
                let other = entry & !ONE;
                let r = match self.free_rows.pop() {
                    Some(r) => r,
                    None => {
                        self.rows.push(Vec::new());
                        u32::try_from(self.rows.len() - 1).expect("row count fits u32")
                    }
                };
                let dst = self.voq_slots[other as usize].voq.dst().index();
                self.rows[r as usize].push((dst, other));
                self.src_row[src] = r;
                r
            }
            r => r,
        };
        let row = &mut self.rows[r as usize];
        let dst = voq.dst().index();
        let at = row.partition_point(|&(d, _)| d < dst);
        row.insert(at, (dst, vs));
        self.nonempty += 1;
    }

    /// Takes the VOQ `voq`, which just emptied, out of its source's entry
    /// of the non-empty index; a row left with one entry returns to the
    /// pool, and the source keeps that entry inline.
    fn unlink(&mut self, voq: Voq) {
        let src = voq.src().as_usize();
        let entry = self.src_row[src];
        self.nonempty -= 1;
        if entry & ONE != 0 {
            debug_assert_eq!(self.voq_slots[(entry & !ONE) as usize].voq, voq);
            self.src_row[src] = NO_ROW;
            self.sources.remove(voq.src());
            return;
        }
        let row = &mut self.rows[entry as usize];
        let dst = voq.dst().index();
        let at = row.partition_point(|&(d, _)| d < dst);
        debug_assert_eq!(row.get(at).map(|&(d, _)| d), Some(dst), "{voq} is listed");
        row.remove(at);
        if let [(_, last)] = row[..] {
            row.clear();
            self.free_rows.push(entry);
            self.src_row[src] = ONE | last;
        }
    }

    /// The slab slot of flow `id` if `slot` holds it.
    fn held(&self, slot: FlowSlot, id: FlowId) -> Result<u32, FlowTableError> {
        match self.flows.get(slot.index()) {
            Some(Some(entry)) if entry.state.id() == id => Ok(slot.raw()),
            _ => Err(FlowTableError::UnknownFlow(id)),
        }
    }

    /// Drains up to `units` from a flow found by id, removing the flow if
    /// it completes: one hash probe, then [`FlowTable::drain_at`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::UnknownFlow`] if the id is not active.
    pub fn drain(&mut self, id: FlowId, units: u64) -> Result<DrainOutcome, FlowTableError> {
        let slot = self.slot_of(id).ok_or(FlowTableError::UnknownFlow(id))?;
        self.drain_at(slot, id, units)
    }

    /// Drains up to `units` from flow `id` in `slot`, removing the flow if
    /// it completes. No lookup: the slot reaches the flow, and the id only
    /// confirms it.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::UnknownFlow`] unless `slot` holds flow
    /// `id` (a stale handle whose slot was freed, or reused by another
    /// flow, is rejected and changes nothing).
    pub fn drain_at(
        &mut self,
        slot: FlowSlot,
        id: FlowId,
        units: u64,
    ) -> Result<DrainOutcome, FlowTableError> {
        let fidx = self.held(slot, id)?;
        let entry = self.flows[fidx as usize]
            .as_mut()
            .expect("a held slot is live");
        let drained = entry.state.drain(units);
        let after = entry.state.remaining();
        let flow = entry.state;
        let vs = entry.voq_slot;

        if after == 0 {
            self.flows[fidx as usize] = None;
            self.release(fidx, id);
            self.depart(vs, id, drained, flow.voq());
            return Ok(DrainOutcome {
                drained,
                completed: Some(flow),
                slot,
                voq: flow.voq(),
            });
        }

        let q = &mut self.voq_slots[vs as usize];
        q.backlog -= drained;
        if q.shortest_flow == id {
            // The champion only got shorter; its `(remaining, id)` pair is
            // still the minimum, so no set traffic on the hot path.
            q.shortest_remaining = after;
        } else {
            // A runner-up leaves its old key, then it or the champion it
            // overtakes takes a runner-up key.
            let was = q.runners_short.remove(&(after + drained, id));
            debug_assert!(was, "runner-up {id} missing from its VOQ's set");
            q.enter_short(after, id);
        }
        self.ingress[flow.voq().src().as_usize()] -= drained;
        self.total_backlog -= drained;
        self.note_change(vs);
        Ok(DrainOutcome {
            drained,
            completed: None,
            slot,
            voq: flow.voq(),
        })
    }

    /// Returns slab slot `fidx`, just vacated by flow `id`, to the free
    /// list and forgets the id.
    fn release(&mut self, fidx: u32, id: FlowId) {
        self.free.push(fidx);
        let was = self.flow_slots.remove(&id);
        debug_assert_eq!(was, Some(fidx), "flow {id} was indexed at its slot");
    }

    /// Shared bookkeeping for flow `id` leaving the VOQ `voq` in slot `vs`
    /// on completion. `departing_backlog` is the backlog
    /// released by the departure: the flow's remaining units just before
    /// it left, so `(departing_backlog, id)` is its runner-up key.
    fn depart(&mut self, vs: u32, id: FlowId, departing_backlog: u64, voq: Voq) {
        let q = &mut self.voq_slots[vs as usize];
        q.backlog -= departing_backlog;
        q.len -= 1;
        // A departing champion hands over to its first runner-up (none once
        // the VOQ empties); a departing runner-up leaves its exact key.
        if q.shortest_flow == id {
            if let Some(next) = q.runners_short.pop_first() {
                (q.shortest_remaining, q.shortest_flow) = next;
            }
        } else {
            let was = q.runners_short.remove(&(departing_backlog, id));
            debug_assert!(was, "runner-up {id} missing from its VOQ's set");
        }
        if q.len == 0 {
            self.unlink(voq);
        }
        self.ingress[voq.src().as_usize()] -= departing_backlog;
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

        // Recount every VOQ's keys from the slab: the first key is its
        // champion, and the rest must be its runner-up set.
        #[derive(Default)]
        struct Recount {
            backlog: u64,
            short: BTreeSet<(u64, FlowId)>,
        }
        let mut recounts: BTreeMap<Voq, Recount> = BTreeMap::new();
        let mut ingress_sums: BTreeMap<HostId, u64> = BTreeMap::new();
        let mut total = 0u64;
        for flow in self.iter() {
            let r = recounts.entry(flow.voq()).or_default();
            r.backlog += flow.remaining();
            r.short.insert((flow.remaining(), flow.id()));
            *ingress_sums.entry(flow.voq().src()).or_insert(0) += flow.remaining();
            total += flow.remaining();
        }
        if total != self.total_backlog {
            return Err(format!(
                "total backlog {} != recomputed {}",
                self.total_backlog, total
            ));
        }
        // Every host's ingress backlog, the zeros included, and no host
        // with a backlog past the vector's end.
        if let Some((&host, _)) = ingress_sums
            .range(HostId::new(self.ingress.len() as u32)..)
            .next()
        {
            return Err(format!("ingress backlog of {host} lies past the vector"));
        }
        for (h, &got) in self.ingress.iter().enumerate() {
            let want = ingress_sums
                .get(&HostId::new(h as u32))
                .copied()
                .unwrap_or(0);
            if got != want {
                return Err(format!(
                    "ingress backlog of h{h} is {got}, recomputed {want}"
                ));
            }
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
        self.check_nonempty_index()?;
        let nonempty_recount: Vec<Voq> = recounts.keys().copied().collect();
        let nonempty_index: Vec<Voq> = self.voqs().map(|v| v.voq).collect();
        if nonempty_recount != nonempty_index || self.nonempty != nonempty_index.len() {
            return Err(format!(
                "non-empty index {nonempty_index:?} (counted {}) != recomputed {nonempty_recount:?}",
                self.nonempty
            ));
        }
        for view in self.voqs() {
            if self.voq_lookup.get(&view.voq) != Some(&view.slot) {
                return Err(format!(
                    "non-empty index for {} disagrees with lookup",
                    view.voq
                ));
            }
        }
        for slot in &self.voq_slots {
            let Some(r) = recounts.get_mut(&slot.voq) else {
                if slot.len != 0 || slot.backlog != 0 {
                    return Err(format!("empty VOQ {} has residual counts", slot.voq));
                }
                if !slot.runners_short.is_empty() {
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
            if slot.runners_short != r.short {
                return Err(format!(
                    "VOQ {} runner-ups {:?} != non-champion keys {:?}",
                    slot.voq, slot.runners_short, r.short
                ));
            }
        }
        Ok(())
    }

    /// The per-source entries: a source's inline entry names a non-empty
    /// VOQ of that source; its row holds at least two entries, sorted by
    /// destination, naming its non-empty VOQs' slots; the source bitmap
    /// marks exactly the sources with an entry; and every row is either
    /// held by one source or free (and empty).
    fn check_nonempty_index(&self) -> Result<(), String> {
        let mut held = vec![false; self.rows.len()];
        let mut with_entry = 0;
        for (src, &entry) in self.src_row.iter().enumerate() {
            let host = HostId::new(src as u32);
            if self.sources.contains(host) != (entry != NO_ROW) {
                return Err(format!("source bitmap disagrees with the entry of {host}"));
            }
            let listed: Vec<u32> = match entry {
                NO_ROW => continue,
                _ if entry & ONE != 0 => vec![entry & !ONE],
                r => {
                    match held.get_mut(r as usize) {
                        Some(h) if !*h => *h = true,
                        _ => return Err(format!("row {r} of {host} is out of range or shared")),
                    }
                    let row = &self.rows[r as usize];
                    if row.len() < 2 || !row.windows(2).all(|w| w[0].0 < w[1].0) {
                        return Err(format!("row of {host} is short or unsorted: {row:?}"));
                    }
                    if let Some(&(dst, vs)) = row.iter().find(|&&(dst, vs)| {
                        self.voq_slots.get(vs as usize).map(|q| q.voq.dst().index()) != Some(dst)
                    }) {
                        return Err(format!("row of {host} lists h{dst} at VOQ slot {vs}"));
                    }
                    row.iter().map(|&(_, vs)| vs).collect()
                }
            };
            with_entry += 1;
            for vs in listed {
                match self.voq_slots.get(vs as usize) {
                    Some(q) if q.voq.src() == host && q.len > 0 => {}
                    _ => return Err(format!("{host}'s entry names VOQ slot {vs} wrongly")),
                }
            }
        }
        if with_entry != self.sources.len() {
            return Err(format!(
                "{} sources in the bitmap, {with_entry} with an entry",
                self.sources.len()
            ));
        }
        let mut free = HashSet::new();
        for &r in &self.free_rows {
            if !free.insert(r)
                || held.get(r as usize) != Some(&false)
                || !self.rows[r as usize].is_empty()
            {
                return Err(format!("free row {r} is listed twice, held or not empty"));
            }
        }
        if free.len() + held.iter().filter(|&&h| h).count() != self.rows.len() {
            return Err("rows neither held nor free".to_string());
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

    /// Drains flow `id`'s whole remaining size: the way a flow leaves.
    fn drain_out(t: &mut FlowTable, id: FlowId) {
        let left = t.get(id).expect("an active flow").remaining();
        assert!(t.drain(id, left).unwrap().completed.is_some());
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
        drain_out(&mut t, FlowId::new(2));
        assert!(advanced(&t), "emptying drain");

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
        drain_out(&mut t, FlowId::new(1));
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
            drain_out(&mut t, FlowId::new(3));
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
    fn shortest_champion_ignores_arrival_order() {
        let mut t = FlowTable::new();
        t.insert(flow(5, 0, 1, 2)).unwrap();
        t.insert(flow(3, 0, 1, 9)).unwrap();
        let view = t.voqs().next().unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(5));
        assert_eq!(voq_len(&t, voq(0, 1)), 2);
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
        t.check_invariants().unwrap();
        // Drain out the shortest champion: the reused id must be re-ranked
        // at its *new* remaining, not the old incarnation's 10 units.
        drain_out(&mut t, FlowId::new(2));
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
    fn a_stale_handle_is_rejected_and_leaves_the_slots_new_flow_alone() {
        let id = FlowId::new;
        let mut t = FlowTable::new();
        let old = t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 1, 9)).unwrap();
        assert!(t.drain_at(old, id(1), 5).unwrap().completed.is_some());
        let unknown = FlowTableError::UnknownFlow(id(1));
        assert_eq!(t.drain_at(old, id(1), 1), Err(unknown), "freed slot");

        // The freed slot is reused by a flow on another VOQ: the old
        // handle names it, but carries the old id, so it is turned away.
        let reused = t.insert(flow(3, 2, 3, 7)).unwrap();
        assert_eq!(reused, old);
        let (version, before) = (t.version(), t.clone());
        assert_eq!(t.drain_at(old, id(1), 1), Err(unknown));
        assert_eq!(t.get_at(old, id(1)), None);
        assert_eq!(
            t.drain_at(FlowSlot::new(99), id(3), 1),
            Err(FlowTableError::UnknownFlow(id(3))),
            "past the slab"
        );
        assert_eq!(t.version(), version, "rejected calls change nothing");
        assert_eq!(t.get_at(reused, id(3)), before.get(id(3)));
        assert_eq!(t.get(id(3)).map(|f| f.remaining()), Some(7));
        assert_eq!(t.voq_backlog(voq(2, 3)), 7);
        assert_eq!(t.ingress_backlog(HostId::new(2)), 7);
        t.check_invariants().unwrap();

        // The right handle still reaches the new flow.
        let out = t.drain_at(reused, id(3), 2).unwrap();
        assert_eq!((out.drained, out.slot), (2, reused));
        assert!(t.drain_at(reused, id(3), 5).unwrap().completed.is_some());
        t.check_invariants().unwrap();
    }

    #[test]
    fn hosts_first_seen_out_of_order_grow_the_per_host_state() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 70, 2, 5)).unwrap();
        t.insert(flow(2, 3, 9, 4)).unwrap();
        t.insert(flow(3, 70, 1, 6)).unwrap();
        t.insert(flow(4, 3, 0, 1)).unwrap();
        let order: Vec<Voq> = t.voqs().map(|v| v.voq).collect();
        assert_eq!(order, vec![voq(3, 0), voq(3, 9), voq(70, 1), voq(70, 2)]);
        assert_eq!(t.ingress_backlog(HostId::new(70)), 11);
        assert_eq!(t.ingress_backlog(HostId::new(3)), 5);
        assert_eq!(t.ingress_backlog(HostId::new(40)), 0);
        assert_eq!(t.ingress_backlog(HostId::new(500)), 0);
        assert_eq!(t.max_ingress_backlog(), 11);
        t.check_invariants().unwrap();

        // Emptying a source's last VOQ returns its list to the pool; the
        // next source to need one takes it.
        t.drain(FlowId::new(1), 5).unwrap();
        t.drain(FlowId::new(3), 6).unwrap();
        assert_eq!(t.max_ingress_backlog(), 5);
        t.insert(flow(5, 130, 7, 2)).unwrap();
        let order: Vec<Voq> = t.voqs().map(|v| v.voq).collect();
        assert_eq!(order, vec![voq(3, 0), voq(3, 9), voq(130, 7)]);
        assert_eq!(t.num_nonempty_voqs(), 3);
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
        assert_eq!(voq_len(&t, voq(0, 1)), 1);
        t.check_invariants().unwrap();
    }

    /// The runner-up set of `voq`.
    fn runners(t: &FlowTable, voq: Voq) -> Vec<(u64, FlowId)> {
        let slot = &t.voq_slots[t.voq_lookup[&voq] as usize];
        slot.runners_short.iter().copied().collect()
    }

    /// The number of flows in `voq`.
    fn voq_len(t: &FlowTable, voq: Voq) -> usize {
        t.voq_slots[t.voq_lookup[&voq] as usize].len as usize
    }

    #[test]
    fn runner_sets_hold_exactly_the_non_champions_under_churn() {
        // A long-lived elephant keeps draining while mice come and go: the
        // runner-up set must track the live flows exactly instead of
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
            let len = voq_len(&t, voq(0, 1));
            assert_eq!(runners(&t, voq(0, 1)).len(), len - 1, "round {round}");
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
        assert_eq!(runners(&t, voq(0, 1)), vec![(20, id(2)), (30, id(3))]);

        // Flow 3, a runner-up, drains past the champion and displaces it.
        t.drain(id(3), 25).unwrap();
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!((view.shortest_remaining, view.shortest_flow), (5, id(3)));
        assert_eq!(runners(&t, voq(0, 1)), vec![(10, id(1)), (20, id(2))]);
        t.check_invariants().unwrap();

        // Draining out flow 2, a runner-up, leaves its exact key.
        drain_out(&mut t, id(2));
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!((view.shortest_remaining, view.shortest_flow), (5, id(3)));
        assert_eq!(voq_len(&t, voq(0, 1)), 2);
        assert_eq!(runners(&t, voq(0, 1)), vec![(10, id(1))]);
        t.check_invariants().unwrap();
    }
}
