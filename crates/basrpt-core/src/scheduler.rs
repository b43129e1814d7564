//! The scheduler interface and the shared greedy maximal-matching engine.
//!
//! # The drain-invariant key
//!
//! A key-driven discipline carries its matching from one decision to the
//! next ([`Ranking`]). When the lens reports a drain clock
//! ([`ViewAdjust::clock`]), a certified decision leaves unread the matched
//! VOQs no mutation touched, the *clean members*, and orders them by a key
//! that draining does not move. This section derives how far that key can
//! move anyway, the *margin* a decision relies on.
//!
//! **The premise.** A clean member read at `r` drains its champion at the
//! lens's rate `R` from an epoch `e` of its own, so at `t ≥ r` the
//! champion owes `d(t) = ⌊R ⊗ (t ⊖ e)⌋` bytes, where `⊗`, `⊖` and `⊕` are
//! `f64` operations and the truncation is the settlement's
//! (`dcn_fabric`'s `ScheduledEntry::target_at`; its clamp at the epoch's
//! size never binds before the flow completes, and a completion is a
//! mutation). The discipline's key falls by `f` per byte sent
//! ([`KeyMotion::Falls`]), so its exact value is `k*(t) = C − f·d(t)` for a
//! constant `C`.
//!
//! **The key.** A decision at `t` with clock `X = R ⊗ t` stores
//! `b = k ⊕ F` with `F = f ⊗ X` for every member it reads, where `k` is the
//! key the discipline computed. Write `R ⊗ (t ⊖ e) = R·(t − e) + η` and
//! `d(t) = R·(t − e) + η − φ(t)` with the truncated fraction
//! `φ(t) ∈ [0, 1)`. Then
//!
//! ```text
//! k*(t) + f·R·t = (C + f·R·e) + f·φ(t) − f·η
//! ```
//!
//! The first term is the member's own constant `c` (epochs differ per
//! flow, so the constants do too), the second turns within `[0, f)` as the
//! truncation's fraction turns, and the third is rounding.
//!
//! **The rounding.** Let `u = 2^-53` and let `S` bound every backlog the
//! ranking has read: the table's total backlog, kept as a running maximum
//! (a lazily settled table's total only overstates). Every input below is
//! an integer of at most `S`, and `X ≤ R·t·(1 + u)`.
//!
//! - `t ⊖ e` and the product by `R` give `|η| ≤ 3u·X`, so `f·|η| ≤ 3u·f·X`.
//! - `F` against `f·R·t`: the clock's and the product's rounding, and `f`'s
//!   own when it is derived as `V/N − 1`, at most `4u·f·X`.
//! - The key: `remaining` is exact below `2^53`, and
//!   `(f + 1)·remaining − backlog` rounds by at most `4u·(f + 2)·S`; the
//!   contract of [`KeyMotion::Falls`] asks this of every key.
//! - The sum `k ⊕ F` rounds by `u·|b| ≤ u·((f + 2)·S + f·X)·(1 + 4u)`.
//!
//! So `b(t)`, the value a read at `t` stores, lies within `E/4` of
//! `c + f·φ(t)`, with
//!
//! ```text
//! E = 2^-48 · ((f + 2)·(S + 1) + f·X)
//! ```
//!
//! The factor 4 of headroom also covers the rounding of the comparisons
//! below, and the `+ 1` covers `f` itself rounding when `X` is small.
//!
//! **The margin.** `b(t)` lies in `[c − E/4, c + f + E/4)` at every `t`, so a
//! carried `b` is within `drift = f + 2E` of the current `b(t)`. `⊕ F` is
//! monotone, so `b_x(t) < b_y(t)` implies `k_x(t) < k_y(t)`. Hence:
//!
//! - Two clean members whose carried keys are `margin = 2·drift` or more
//!   apart keep their order, and no flow-id tie-break can intervene. Sorted
//!   by carried key, adjacent members at least `margin` apart split the
//!   matched set into *clusters* whose order is fixed; a cluster of two or
//!   more is a near tie, read and ordered exactly.
//! - The repair compares a member against a rank `(k, id)` by its carried
//!   key when that is more than `drift` from `k ⊕ F`, and reads it
//!   otherwise.
//! - A departing owner's freed port is scanned from the owner's *stored*
//!   key, the key it had when last read, which is stale. That is safe
//!   because the repair reads an owner, and stores its current key,
//!   whenever it compares a waiting candidate against it and the stored
//!   key does not already rank first (see [`Ranking`]), so every waiting
//!   candidate keeps a blocker whose stored key ranks before it.
//!
//! **When it holds.** The lens names every VOQ whose view it may move
//! other than by its clock ([`ViewAdjust::off_clock_slots`]), such as a
//! matched VOQ the engine left idle, and the decision reads those as dirty.
//! Every other clean member drains by the clock, so the premise holds for
//! it. Without a clock the frame is zero: the lens names every VOQ it
//! corrects, an unnamed clean member's view is unchanged, and its carried
//! key is its exact key (`drift = 0`). The carried keys belong to the
//! previous decision's frame, so a decision whose frame does not continue
//! that one (a clock appearing or vanishing, another `f`, a clock that went
//! back) is a full pass. Debug builds re-read every clean member anyway and
//! assert its champion, that its key did not rise, and that its carried
//! key is within `drift` of the current one (equal to it when the drift is
//! 0).

use crate::table::{TableMark, VoqView};
use crate::{FlowTable, Schedule};
use dcn_types::{FlowId, Voq};
use std::collections::BinaryHeap;

/// A read-time correction applied to [`VoqView`]s before a discipline
/// ranks them.
///
/// Lazily settling engines (see `dcn_fabric::DeltaAllocator`) defer the
/// per-flow drain write-back: between observation points the [`FlowTable`]
/// is *stale* by exactly the bytes the currently scheduled flows have
/// transmitted since their last settlement. Because a schedule is a
/// crossbar matching, at most **one** scheduled flow drains per VOQ, so
/// the engine can correct a view in `O(1)` at read time — subtract the
/// owed bytes from `backlog`, lower (or replace) the champion — instead of
/// eagerly writing every flow back on every event.
///
/// The contract: after [`adjust`](ViewAdjust::adjust), the view must be
/// bit-identical to what [`FlowTable::voq_view`] would return had every
/// pending drain been applied. Disciplines that opt in via
/// [`Scheduler::supports_lazy_views`] promise their decision reads *only*
/// the (adjusted) views, never raw per-flow state.
pub trait ViewAdjust {
    /// Corrects `view` to account for drains not yet written back.
    fn adjust(&self, view: &mut VoqView);

    /// Calls `visit` with the slot ([`VoqView::slot`]) of every VOQ whose
    /// view [`adjust`](ViewAdjust::adjust) may move other than by the
    /// lens's [`clock`](ViewAdjust::clock): for a lens without a clock,
    /// every slot it corrects. A slot may be named more than once. A
    /// discipline carrying its matching across decisions ([`Ranking`])
    /// reads the named VOQs as if a mutation had touched them.
    fn off_clock_slots(&self, visit: &mut dyn FnMut(usize));

    /// The lens's drain clock `R·now`, in bytes: what a VOQ draining at
    /// the common rate `R` of the VOQs the lens corrects would have sent
    /// from time zero to the lens's instant, or `None` (the default) when
    /// the lens keeps no such clock.
    ///
    /// A lens that reports one promises, for every VOQ the last decision on
    /// its table matched and the lens does not name
    /// ([`off_clock_slots`](ViewAdjust::off_clock_slots)): the VOQ's
    /// champion is the flow draining, it drains at `R` from an epoch `e` of
    /// its own, and it owes `⌊R·(now − e)⌋` bytes, computed in `f64` as
    /// `R × (now − e)` and truncated. It corrects no other VOQ it does not
    /// name, and successive lenses over one table share `R` and report
    /// clocks that do not go back. A [`Ranking`] then orders the matched
    /// VOQs no mutation touched and the lens does not name by a key that
    /// draining does not move, and leaves them unread (see the module
    /// docs).
    fn clock(&self) -> Option<f64> {
        None
    }
}

/// The identity adjustment: views pass through unmodified. A view-based
/// discipline's [`Scheduler::schedule`] is its
/// [`schedule_adjusted`](Scheduler::schedule_adjusted) under `NoAdjust`, so
/// each discipline states its candidate key once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoAdjust;

impl ViewAdjust for NoAdjust {
    fn adjust(&self, _view: &mut VoqView) {}

    fn off_clock_slots(&self, _visit: &mut dyn FnMut(usize)) {}
}

/// A flow scheduling discipline.
///
/// Schedulers are consulted by the embedding simulator on every flow arrival
/// and completion (the paper's update rule) and return a crossbar matching
/// over the currently active flows. They may keep internal state, hence
/// `&mut self`: the key-driven disciplines' [`Ranking`], the matching
/// carried from one decision to the next behind a checked certificate,
/// which never changes a schedule and which no snapshot captures. No
/// discipline in this crate keeps state that shapes a decision.
pub trait Scheduler {
    /// Short human-readable name, used in experiment output.
    fn name(&self) -> &str;

    /// Computes the scheduling decision for the current set of active flows.
    ///
    /// The returned schedule must be *maximal*: no remaining flow could be
    /// added without violating the crossbar constraint. All disciplines in
    /// this crate satisfy that by construction.
    fn schedule(&mut self, table: &FlowTable) -> Schedule;

    /// For how many consecutive slots — starting with the slot `schedule`
    /// was computed for — re-invoking [`schedule`](Scheduler::schedule)
    /// every slot would provably return a bit-identical result, assuming
    /// the only table mutations are the schedule's own drains (one unit
    /// per scheduled flow per slot) and no scheduled flow completes inside
    /// the window. Any arrival, completion, or external mutation voids the
    /// bound immediately.
    ///
    /// Fast-forward drivers (see `dcn-switch`) use this to replay a cached
    /// schedule instead of re-deciding every slot; see the
    /// [`validity`](crate::validity) module for the invariance argument
    /// behind the per-discipline overrides. The default of `1` is always
    /// sound — a
    /// schedule is trivially valid for the slot it was computed for — and
    /// is what a discipline without an invariance argument (exact BASRPT's
    /// coupled objective) must keep so it is re-consulted every slot.
    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        let _ = (table, schedule);
        1
    }

    /// Whether this discipline's decision reads *only* the per-VOQ
    /// [`VoqView`]s, so an engine may substitute views corrected by a
    /// [`ViewAdjust`] (via
    /// [`schedule_adjusted`](Scheduler::schedule_adjusted)) for the raw
    /// table reads and still obtain the bit-identical schedule.
    ///
    /// The default is `false` — always sound, since the engine then falls
    /// back to eager settlement before every decision. Exact BASRPT keeps
    /// it: it runs only on the slotted switch and at small scale, where
    /// eager settlement costs nothing worth a view-based twin.
    fn supports_lazy_views(&self) -> bool {
        false
    }

    /// Computes the decision against views corrected by `adjust`.
    ///
    /// Engines call this **only** when
    /// [`supports_lazy_views`](Scheduler::supports_lazy_views) returns
    /// `true`; the default implementation ignores `adjust` and defers to
    /// [`schedule`](Scheduler::schedule), which is correct exactly when
    /// the engine honours that contract (it settles eagerly first).
    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        let _ = adjust;
        self.schedule(table)
    }

    /// Takes back the pair list of a schedule this scheduler returned,
    /// once the engine is done with it ([`Schedule::into_slotted`]), so
    /// the next decision can reuse its allocation. The default drops it;
    /// the disciplines that carry a matching ([`Ranking`]) keep it.
    fn recycle(&mut self, pairs: Vec<(FlowId, Voq, u32)>) {
        let _ = pairs;
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        (**self).schedule(table)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        (**self).schedule_validity(table, schedule)
    }

    fn supports_lazy_views(&self) -> bool {
        (**self).supports_lazy_views()
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        (**self).schedule_adjusted(table, adjust)
    }

    fn recycle(&mut self, pairs: Vec<(FlowId, Voq, u32)>) {
        (**self).recycle(pairs);
    }
}

/// A transparent [`Scheduler`] wrapper counting `schedule()` invocations.
///
/// Used to measure how many decisions a driver actually computes — e.g.
/// the switch driver's invocation-reduction acceptance test and the
/// `sched_overhead` bench group compare the count against the slot count.
///
/// # Example
///
/// ```
/// use basrpt_core::{CountingScheduler, FlowTable, Scheduler, Srpt};
///
/// let mut counted = CountingScheduler::new(Srpt::new());
/// let table = FlowTable::new();
/// counted.schedule(&table);
/// counted.schedule(&table);
/// assert_eq!(counted.calls(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CountingScheduler<S> {
    inner: S,
    calls: u64,
}

impl<S: Scheduler> CountingScheduler<S> {
    /// Wraps `inner`, starting the count at zero.
    pub fn new(inner: S) -> Self {
        CountingScheduler { inner, calls: 0 }
    }

    /// Number of [`Scheduler::schedule`] calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Returns the wrapped scheduler.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Scheduler> Scheduler for CountingScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.calls += 1;
        self.inner.schedule(table)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        self.inner.schedule_validity(table, schedule)
    }

    fn supports_lazy_views(&self) -> bool {
        self.inner.supports_lazy_views()
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        self.calls += 1;
        self.inner.schedule_adjusted(table, adjust)
    }

    fn recycle(&mut self, pairs: Vec<(FlowId, Voq, u32)>) {
        self.inner.recycle(pairs);
    }
}

/// One schedulable flow with its discipline-specific priority key
/// (smaller key = higher priority).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Priority key; must be finite so candidates are totally ordered.
    pub key: f64,
    /// The candidate flow.
    pub flow: FlowId,
    /// The VOQ the flow occupies.
    pub voq: Voq,
}

/// Runs the greedy maximal-matching skeleton shared by every one-pass
/// discipline (the paper's Algorithm 1 with a pluggable key).
///
/// Candidates are sorted by `(key, flow id)` — the id tie-break keeps
/// results deterministic — and admitted in order whenever both of their
/// ports are still free. With one candidate per non-empty VOQ this yields a
/// schedule that is maximal over the non-empty VOQs, exactly the "flows are
/// selected until all left flows are blocked" rule of §II-A.
///
/// This is the stateless skeleton that the tie-break tests pin; the
/// key-driven disciplines reach the same matching in the same
/// order through [`schedule_champions_adjusted`], which carries it across
/// decisions ([`Ranking`]) and repairs it around the VOQs that changed.
///
/// # Ordering contract
///
/// The admission order — and therefore the produced matching, its
/// [`Schedule`] iteration order, and [`Schedule`]'s `PartialEq` — is a
/// deterministic function of the multiset of `(key, flow id, voq)`
/// triples:
///
/// * keys compare by [`f64::total_cmp`] (so `-0.0 < 0.0` and the order is
///   total even for exotic values; keys are expected finite);
/// * equal keys fall back to the **flow id**, which is unique per table —
///   a flow lives in exactly one VOQ — so no pair of candidates ever ties
///   fully and the initial order of the candidate slice is irrelevant
///   (`sort_unstable` is safe, and so is starting from any hint order).
///
/// The full-scan oracle
/// ([`reference::schedule_scan`](crate::reference::schedule_scan))
/// reproduces this exact order from its own `(key, flow id)` sort, and the
/// switch driver's schedule cache (`dcn_switch::run_probed`) relies on the
/// same determinism: replaying an identical candidate ranking must yield
/// a bit-identical schedule. Tests in `crates/basrpt-core/tests/
/// tie_break.rs` pin the contract.
///
/// # Example
///
/// ```
/// use basrpt_core::{greedy_by_key, Candidate};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut cands = vec![
///     Candidate { key: 2.0, flow: FlowId::new(1), voq: Voq::new(HostId::new(0), HostId::new(1)) },
///     Candidate { key: 1.0, flow: FlowId::new(2), voq: Voq::new(HostId::new(2), HostId::new(1)) },
/// ];
/// let s = greedy_by_key(&mut cands);
/// // Flow 2 has the smaller key and grabs egress 1 first.
/// assert!(s.contains(FlowId::new(2)));
/// assert!(!s.contains(FlowId::new(1)));
/// ```
pub fn greedy_by_key(candidates: &mut [Candidate]) -> Schedule {
    candidates.sort_unstable_by(|a, b| rank_cmp(a.rank(), b.rank()));
    admit_in_order(Schedule::new(), candidates.iter())
}

/// A candidate's place in the admission order: its key and flow id.
type Rank = (f64, FlowId);

/// The admission order of the ordering contract on [`greedy_by_key`]:
/// ascending key by [`f64::total_cmp`], then ascending flow id.
fn rank_cmp(a: Rank, b: Rank) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl Candidate {
    fn rank(&self) -> Rank {
        (self.key, self.flow)
    }
}

/// The greedy pass: admits each ranked candidate whose two ports are
/// still free in `schedule`.
fn admit_in_order<'a>(
    mut schedule: Schedule,
    ranked: impl Iterator<Item = &'a Candidate>,
) -> Schedule {
    for cand in ranked {
        debug_assert!(cand.key.is_finite(), "candidate keys must be finite");
        if schedule.admits(cand.voq) {
            schedule
                .add(cand.flow, cand.voq)
                .expect("admits() checked both ports");
        }
    }
    schedule
}

/// How a discipline's candidate key moves while its VOQ transmits: the
/// premise of the certificate [`schedule_champions_adjusted`] checks
/// before it carries a matching across events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyMotion {
    /// A transmitting VOQ's key never rises: it falls by `per_byte` for
    /// each byte its champion sends. SRPT and RepFlow fall by 1, fast
    /// BASRPT with `V/N ≥ 1` by `V/N − 1`. The previous matching is carried
    /// and certified. The key must be computed from the view's integers
    /// with an `f64` error of at most `4u·(per_byte + 2)·backlog`
    /// (`u = 2^-53`), as `remaining` and `(f + 1)·remaining − backlog` are
    /// (see the module docs).
    Falls {
        /// The key's fall per byte sent, `f ≥ 0`.
        per_byte: f64,
    },
    /// A transmitting VOQ's key can rise: MaxWeight's `−backlog`, and fast
    /// BASRPT with `V/N < 1`. Every decision is a full pass.
    MayRise,
}

/// How a key-driven discipline's decisions were taken: certified from the
/// carried matching, or by a full pass, counted by the reason the
/// certificate was not attempted or did not hold; and what the certified
/// decisions read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCounts {
    /// Decisions that repaired the carried matching around the changed
    /// VOQs.
    pub certified: u64,
    /// Full passes with nothing carried for the table: the first decision,
    /// a table other than the previous decision's (a clone or a restored
    /// table is another table), or a frame that does not continue the
    /// previous decision's (a clock appearing or vanishing, another fall
    /// per byte, a clock that went back).
    pub cold: u64,
    /// Full passes because more mutations happened since the previous
    /// decision than the table's changed-slot record holds.
    pub overflow: u64,
    /// Full passes because a matched VOQ that no mutation touched changed
    /// its champion or raised its key.
    pub key_rose: u64,
    /// Full passes of a discipline whose keys can rise
    /// ([`KeyMotion::MayRise`]), which never attempts the certificate.
    pub key_can_rise: u64,
    /// VOQs certified decisions read because a mutation touched them.
    pub read_dirty: u64,
    /// VOQs certified decisions read because the lens named them
    /// ([`ViewAdjust::off_clock_slots`]) and no mutation touched them.
    pub read_named: u64,
    /// Clean matched VOQs certified decisions read because their carried
    /// drain-invariant keys lay too close to order them (module docs).
    pub read_near_tie: u64,
    /// Clean matched VOQs the repair read to compare a candidate against.
    pub read_on_demand: u64,
}

impl DecisionCounts {
    /// Every decision taken by a full pass, whatever the reason.
    pub fn full_passes(&self) -> u64 {
        self.cold + self.overflow + self.key_rose + self.key_can_rise
    }

    /// Every decision.
    pub fn decisions(&self) -> u64 {
        self.certified + self.full_passes()
    }
}

/// Where a non-empty VOQ's candidate stands in the carried matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Re-read this decision and waiting in the repair's work queue.
    Pending,
    /// In the matching, owning both of its ports.
    Matched,
    /// Out of the matching, listed at both of its ports.
    Waiting,
}

/// The carried candidate of one non-empty VOQ.
#[derive(Debug, Clone, Copy)]
struct VoqRank {
    /// The key when the VOQ was last read; a matched VOQ's current key is
    /// at most this.
    key: f64,
    flow: FlowId,
    /// The decision that last read the VOQ (`Ranking::stamp`).
    stamp: u64,
    /// The VOQ's table slot.
    slot: u32,
    status: Status,
}

impl VoqRank {
    fn rank(&self) -> Rank {
        (self.key, self.flow)
    }
}

/// One VOQ of the carried matching, a *member*: its drain-invariant key
/// `b` (see the module docs) and what its schedule pair needs.
#[derive(Debug, Clone, Copy)]
struct Member {
    b: f64,
    flow: FlowId,
    voq: Voq,
    /// The VOQ's table slot.
    slot: u32,
}

/// The drain clock of one decision (see the module docs): the key's fall
/// per byte `f`, the clock `X`, the shift `F = f ⊗ X` a read member's
/// drain-invariant key adds to its key, and the drift, how far a carried
/// drain-invariant key may lie from the current one. All zero without a
/// clock, where `b` is the key itself and an unread member's key does not
/// move.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    fall: f64,
    clock: f64,
    shift: f64,
    drift: f64,
}

impl Frame {
    /// The frame of a decision at clock `clock`, for a key falling by
    /// `fall` per byte and backlogs of at most `scale`.
    fn new(fall: f64, clock: f64, scale: f64) -> Frame {
        let rounding = ((fall + 2.0) * (scale + 1.0) + fall * clock) * 2f64.powi(-48);
        Frame {
            fall,
            clock,
            shift: fall * clock,
            drift: fall + 2.0 * rounding,
        }
    }

    /// The carried-key gap that fixes two clean members' order.
    fn margin(&self) -> f64 {
        2.0 * self.drift
    }

    /// Whether keys carried in this frame still order members in `next`:
    /// neither has a clock (only a clocked frame has a drift), or both do,
    /// with one fall per byte and a clock that did not go back.
    fn continues_to(&self, next: &Frame) -> bool {
        (self.drift > 0.0) == (next.drift > 0.0)
            && self.fall.to_bits() == next.fall.to_bits()
            && self.clock <= next.clock
    }
}

/// What a decision reads through: the table, the lens and the
/// discipline's key.
struct Reader<'a, K> {
    table: &'a FlowTable,
    adjust: &'a dyn ViewAdjust,
    key: &'a mut K,
}

impl<K: FnMut(&VoqView) -> Candidate> Reader<'_, K> {
    /// The candidate of the VOQ in `slot` through the lens, if it is
    /// non-empty.
    fn read(&mut self, slot: u32) -> Option<Candidate> {
        let mut view = self.table.view_at_slot(slot as usize)?;
        self.adjust.adjust(&mut view);
        Some((self.key)(&view))
    }
}

/// The `Ranking::index` entry of a VOQ slot without a candidate.
const ABSENT: u32 = u32::MAX;

/// One crossbar port of the carried matching: the matched VOQ slot
/// owning it, and the unmatched candidates on it in `(key, flow id)`
/// order, each with its VOQ slot.
#[derive(Debug, Clone, Default)]
struct Port {
    owner: Option<u32>,
    waiting: Vec<(Rank, u32)>,
}

impl Port {
    /// The position of the first waiting candidate ranked after `rank`.
    fn after(&self, rank: Rank) -> usize {
        self.waiting
            .partition_point(|&(waiting, _)| rank_cmp(waiting, rank).is_le())
    }

    fn insert(&mut self, rank: Rank, slot: u32) {
        let at = self.after(rank);
        self.waiting.insert(at, (rank, slot));
    }

    fn remove(&mut self, rank: Rank) {
        let at = self.after(rank);
        debug_assert!(
            at > 0 && rank_cmp(self.waiting[at - 1].0, rank).is_eq(),
            "a waiting candidate is listed at its ports"
        );
        self.waiting.remove(at - 1);
    }
}

/// The crossbar ports of `voq`, as indices into `Ranking::ports`: host
/// `h`'s ingress is `2h`, its egress `2h + 1`.
fn voq_ports(voq: Voq) -> (usize, usize) {
    (2 * voq.src().as_usize(), 2 * voq.dst().as_usize() + 1)
}

/// The crossbar ports of the VOQ in `table`'s slot `slot`.
fn ports_of(table: &FlowTable, slot: u32) -> (usize, usize) {
    voq_ports(table.voq_at_slot(slot as usize))
}

/// A candidate for the repair to (re-)examine, ordered by its rank; `scan`
/// names the freed port whose waiting list led to it, if any.
#[derive(Debug, Clone, Copy)]
struct Work {
    rank: Rank,
    slot: u32,
    scan: Option<usize>,
}

impl Ord for Work {
    /// Reversed, so the max-heap pops the smallest rank first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        rank_cmp(other.rank, self.rank)
    }
}

impl PartialOrd for Work {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Work {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Work {}

/// The matching a key-driven discipline carries from one decision to the
/// next, and the decision counts.
///
/// # What is carried
///
/// Per non-empty VOQ of the last decision's table: the candidate's key
/// and champion as last read, the decision that read it, and whether it is
/// matched (32 bytes, plus a 4-byte index entry per VOQ slot). Per crossbar
/// port: the matched VOQ owning it and the unmatched candidates on it, in
/// `(key, flow id)` order. And the matched set in admission order, one
/// 32-byte record per VOQ holding its drain-invariant key, flow, VOQ and
/// slot, so a decision emits its schedule by copying the records.
///
/// # Why carrying it is exact
///
/// The greedy pass of [`greedy_by_key`] yields the unique matching in
/// which every unmatched candidate shares a port with an *earlier* matched
/// one (induction over the admission order; the same safe-direction
/// argument as [`validity`](crate::validity)). That property survives an
/// event as long as no matched key rises and no unmatched candidate
/// changes. So a decision only has to look at the matched VOQs and the
/// *dirty* ones, which a mutation touched or the lens names; and of the
/// matched VOQs, only at those whose order it cannot otherwise prove:
///
/// 1. **Certificate.** The table's changed-slot record must reach back
///    to the previous decision on the same table, and the decision's frame
///    must continue that decision's (module docs). The *dirty* VOQs are
///    those a mutation touched and those the lens names
///    ([`ViewAdjust::off_clock_slots`]); they are read first. The *clean*
///    members, the other matched VOQs, keep their champions with keys that
///    did not rise, because the lens moves them only by its clock, if at
///    all. Their carried drain-invariant keys order them: sorted by that
///    key, only the near ties (clusters closer than the margin the module
///    docs derive) are read and ordered exactly. Without a clock the
///    margin is 0 and the carried keys are exact.
///
///    Dirty members leave the matched set. A dirty VOQ that keeps its
///    champion with a key no higher than when it was last read, or an
///    unmatched one whose candidate is unchanged, stays as it is.
/// 2. **Repair**, a dynamic greedy maximal independent set on the
///    crossbar's conflict graph (after Censor-Hillel, Haramaty & Karnin,
///    PODC 2016). The dirty VOQs are taken out — a matched one frees its
///    two ports — and the non-empty ones re-enter. Work is popped in
///    `(key, flow id)` order: a candidate is admitted when neither port
///    has an earlier owner, and it displaces a later owner, freeing that
///    owner's other port. A freed port scans its waiting list from the
///    freed rank until a candidate is admitted or an earlier owner blocks
///    the port. Each decision is final when made: owners earlier than the
///    candidate being examined are never displaced afterwards. An owner is
///    compared by its carried key where that decides, and read otherwise.
///    An admitted candidate's record is inserted into the matched set at
///    its rank and a displaced one's removed, so the set stays in
///    admission order.
/// 3. The matched set is emitted in that order, the admission order
///    [`greedy_by_key`] would produce.
///
/// A member's stored key is the key it had when last read, which is stale
/// for a member the decision did not read; its current key is no higher.
/// The repair keeps one invariant on stored keys: every waiting candidate
/// has a port whose owner's stored key ranks before the candidate's. The
/// full pass sets it up, and the repair keeps it: it compares a candidate
/// against an owner by the stored key when that already ranks before, and
/// otherwise reads the owner and stores its current key; a displacing
/// owner ranks before the one it displaces; and stored keys only fall
/// until the member leaves. So a departing owner's stored key ranks before
/// every waiting candidate it blocks, and a freed port's scan can start
/// from it.
///
/// Without a certificate — the first decision on a table or in a new
/// frame, a record overflow, a risen key, or a discipline whose keys can
/// rise ([`KeyMotion::MayRise`]) — the decision is a full pass: every view is
/// read, laid out in the previous full pass's order (new VOQs last) so the
/// run-adaptive stable sort finishes in near-linear time, and admitted
/// greedily.
///
/// Where a member is read, the certificate compares the keys the
/// discipline computes; where it is not, the margin covers every rounding.
/// A `Ranking` never changes a schedule: it compares equal to every other
/// `Ranking`, a fresh one ([`Ranking::default`]) decides exactly like a
/// warm one, and no snapshot captures it. Its [`counts`](Ranking::counts)
/// say how the decisions were taken.
#[derive(Clone, Default)]
pub struct Ranking {
    /// The full pass's candidates in `Voq` order, each with its VOQ slot.
    candidates: Vec<(Candidate, u32)>,
    /// Indices into `candidates`: laid out in the previous full pass's
    /// rank order with new VOQs last, then sorted into admission order.
    order: Vec<u32>,
    /// The previous full pass's VOQs in `Voq` order, each with its rank.
    ranks: Vec<(Voq, u32)>,
    /// The table and version the carried matching was decided on; `None`
    /// when nothing is carried.
    mark: Option<TableMark>,
    /// Per VOQ slot of that table, the position of its candidate in
    /// `ranked`, or [`ABSENT`] for an empty VOQ: 4 bytes per slot.
    index: Vec<u32>,
    /// The candidates of the non-empty VOQs, in no particular order.
    ranked: Vec<VoqRank>,
    /// Per crossbar port, indexed as in [`ports_of`].
    ports: Vec<Port>,
    /// The matched VOQs in admission order.
    matched: Vec<Member>,
    /// The number of decisions taken, which stamps each read.
    stamp: u64,
    /// This decision's drain clock, and the previous decision's, which
    /// the carried drain-invariant keys belong to.
    frame: Frame,
    carried: Frame,
    /// The largest total backlog of any table decided on: the `S` of the
    /// module docs.
    scale: f64,
    /// The repair's scratch: the dirty slots (sorted, once each), the
    /// dirty members' slots (a sorted subsequence), the slots to
    /// re-examine with their candidates read this decision, the freed
    /// ports with the rank their scan starts after, and the work queue.
    dirty: Vec<u32>,
    leaving: Vec<u32>,
    reads: Vec<(u32, Option<Candidate>)>,
    freed: Vec<(usize, Rank)>,
    work: BinaryHeap<Work>,
    /// Whether a read found a clean member that changed its champion or
    /// raised its key, so the decision must be a full pass.
    broken: bool,
    /// A spent pair list handed back by the engine, which the next
    /// certified decision fills instead of allocating.
    spare: Vec<(FlowId, Voq, u32)>,
    counts: DecisionCounts,
}

impl PartialEq for Ranking {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for Ranking {}

impl std::fmt::Debug for Ranking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ranking")
            .field("matched", &self.matched.len())
            .field("counts", &self.counts)
            .finish()
    }
}

impl Ranking {
    /// How this ranking's decisions were taken so far.
    pub fn counts(&self) -> DecisionCounts {
        self.counts
    }

    /// Keeps `pairs`, a spent schedule's pair list, for the next certified
    /// decision to fill. A list with room for more pairs than there are
    /// ports (no matching has that many) is dropped, so the kept capacity
    /// stays bounded.
    pub(crate) fn recycle(&mut self, pairs: Vec<(FlowId, Voq, u32)>) {
        if pairs.capacity() <= self.ports.len() {
            self.spare = pairs;
        }
    }

    /// Makes room for the ports of hosts below `hosts`.
    fn fit_ports(&mut self, hosts: u32) {
        let need = 2 * hosts as usize;
        if self.ports.len() < need {
            self.ports.reserve_exact(need - self.ports.len());
            self.ports.resize_with(need, Port::default);
        }
    }

    /// The carried candidate of the VOQ in `slot`, if it is non-empty.
    fn get(&self, slot: u32) -> Option<&VoqRank> {
        let at = *self.index.get(slot as usize)?;
        self.ranked.get(at as usize)
    }

    /// The carried candidate of the VOQ in `slot`, which must have one.
    fn at(&mut self, slot: u32) -> &mut VoqRank {
        &mut self.ranked[self.index[slot as usize] as usize]
    }

    /// Gives the VOQ in `slot` a candidate, read this decision.
    fn enter(&mut self, slot: u32, c: &Candidate, status: Status) {
        self.index[slot as usize] = self.ranked.len() as u32;
        self.ranked.push(VoqRank {
            key: c.key,
            flow: c.flow,
            stamp: self.stamp,
            slot,
            status,
        });
    }

    /// Drops the candidate of the VOQ in `slot`, which emptied.
    fn leave(&mut self, slot: u32) {
        let at = std::mem::replace(&mut self.index[slot as usize], ABSENT);
        self.ranked.swap_remove(at as usize);
        if let Some(moved) = self.ranked.get(at as usize) {
            self.index[moved.slot as usize] = at;
        }
    }

    /// The certificate and the repair, counting the decision either way.
    /// Without a certificate it returns `false` and the caller runs a full
    /// pass, which rebuilds everything this may have touched.
    fn certify<K: FnMut(&VoqView) -> Candidate>(&mut self, rd: &mut Reader<'_, K>) -> bool {
        let table = rd.table;
        let Some(mark) = self.mark.filter(|m| m.table == table.mark().table) else {
            self.counts.cold += 1;
            return false;
        };
        if !self.carried.continues_to(&self.frame) {
            self.counts.cold += 1;
            return false;
        }
        let Some(changed) = table.changed_since(mark) else {
            self.counts.overflow += 1;
            return false;
        };
        self.dirty.clear();
        self.dirty.extend_from_slice(changed);
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let touched = self.dirty.len();
        let dirty = &mut self.dirty;
        rd.adjust
            .off_clock_slots(&mut |slot| dirty.push(slot as u32));
        if self.dirty.len() > touched {
            self.dirty.sort_unstable();
            self.dirty.dedup();
        }
        self.counts.read_dirty += touched as u64;
        self.counts.read_named += (self.dirty.len() - touched) as u64;
        self.index.resize(table.num_voq_slots(), ABSENT);
        self.leaving.clear();
        self.reads.clear();
        for &slot in &self.dirty {
            let member = self
                .index
                .get(slot as usize)
                .and_then(|&at| self.ranked.get(at as usize))
                .is_some_and(|rank| rank.status == Status::Matched);
            if member {
                self.leaving.push(slot);
            }
            self.reads.push((slot, rd.read(slot)));
        }
        self.order_clean(rd);
        #[cfg(debug_assertions)]
        self.check_clean(rd);
        if !self.broken {
            self.repair(rd);
        }
        if std::mem::take(&mut self.broken) {
            self.counts.key_rose += 1;
            return false;
        }
        self.counts.certified += 1;
        true
    }

    /// The certificate's order of the clean members: dirty members leave
    /// the set, the rest are sorted by their carried drain-invariant keys,
    /// and each cluster of keys closer than the margin is read and ordered
    /// exactly. The sort notes whether any member moved or landed within
    /// the margin of the one before it; if none did, there is no cluster to
    /// look for.
    fn order_clean<K: FnMut(&VoqView) -> Candidate>(&mut self, rd: &mut Reader<'_, K>) {
        let margin = self.frame.margin();
        let (mut kept, mut tied) = (0, false);
        // The drain-invariant key of `matched[kept - 1]`.
        let mut last = f64::NEG_INFINITY;
        for i in 0..self.matched.len() {
            let member = self.matched[i];
            if !self.leaving.is_empty() && self.leaving.binary_search(&member.slot).is_ok() {
                continue;
            }
            if member.b < last {
                let mut to = kept;
                while to > 0 && member.b < self.matched[to - 1].b {
                    self.matched[to] = self.matched[to - 1];
                    to -= 1;
                }
                self.matched[to] = member;
                tied = true;
            } else {
                tied |= member.b - last < margin;
                if kept != i {
                    self.matched[kept] = member;
                }
                last = member.b;
            }
            kept += 1;
        }
        self.matched.truncate(kept);
        if !tied {
            return;
        }
        let mut start = 0;
        for end in 1..=kept {
            if end == kept || self.matched[end].b - self.matched[end - 1].b >= margin {
                if end - start > 1 {
                    self.order_tie(rd, start, end);
                }
                start = end;
            }
        }
    }

    /// Reads the near tie `matched[start..end]` and orders it exactly,
    /// storing each member's current drain-invariant key.
    fn order_tie<K: FnMut(&VoqView) -> Candidate>(
        &mut self,
        rd: &mut Reader<'_, K>,
        start: usize,
        end: usize,
    ) {
        for i in start..end {
            let at = self.index[self.matched[i].slot as usize] as usize;
            self.reread(rd, at);
        }
        self.counts.read_near_tie += (end - start) as u64;
        let (index, ranked, shift) = (&self.index, &self.ranked, self.frame.shift);
        let rank = |slot: u32| ranked[index[slot as usize] as usize].rank();
        let tie = &mut self.matched[start..end];
        tie.sort_unstable_by(|x, y| rank_cmp(rank(x.slot), rank(y.slot)));
        for member in tie {
            member.b = rank(member.slot).0 + shift;
        }
    }

    /// The rank of the matched VOQ in `slot` at this decision, read through
    /// the lens unless this decision already read it.
    fn exact<K: FnMut(&VoqView) -> Candidate>(
        &mut self,
        rd: &mut Reader<'_, K>,
        slot: u32,
    ) -> Rank {
        let at = self.index[slot as usize] as usize;
        if self.ranked[at].stamp != self.stamp {
            self.counts.read_on_demand += 1;
            self.reread(rd, at);
        }
        self.ranked[at].rank()
    }

    /// Re-reads the matched VOQ of `ranked[at]` at this decision. A read
    /// that finds its champion changed or its key risen breaks the
    /// certificate.
    fn reread<K: FnMut(&VoqView) -> Candidate>(&mut self, rd: &mut Reader<'_, K>, at: usize) {
        let rank = self.ranked[at];
        match rd.read(rank.slot) {
            Some(c) if c.flow == rank.flow && c.key.total_cmp(&rank.key).is_le() => {
                let rank = &mut self.ranked[at];
                (rank.key, rank.stamp) = (c.key, self.stamp);
            }
            _ => self.broken = true,
        }
    }

    /// Debug builds' check of the premise the unread clean members rest
    /// on: each keeps its champion, its key did not rise and its carried
    /// drain-invariant key is within the drift of the current one (equal
    /// to it when the drift is 0); and the matched set is in admission
    /// order.
    #[cfg(debug_assertions)]
    fn check_clean<K: FnMut(&VoqView) -> Candidate>(&self, rd: &mut Reader<'_, K>) {
        let frame = self.frame;
        let mut previous: Option<Rank> = None;
        for member in &self.matched {
            let rank = self.ranked[self.index[member.slot as usize] as usize];
            let now = if rank.stamp == self.stamp {
                rank.rank()
            } else {
                let c = rd.read(member.slot).expect("a clean member is non-empty");
                assert_eq!(c.flow, rank.flow, "a clean member keeps its champion");
                assert!(c.key <= rank.key, "a clean member's key did not rise");
                let b = c.key + frame.shift;
                let gap = (b - member.b).abs();
                assert!(
                    gap < frame.drift || gap == 0.0,
                    "a carried drain-invariant key {} is within {} of the current {b}",
                    member.b,
                    frame.drift
                );
                c.rank()
            };
            if let Some(previous) = previous {
                assert!(
                    rank_cmp(previous, now).is_lt(),
                    "the clean members are in admission order"
                );
            }
            previous = Some(now);
        }
    }

    /// Step 2 of the certified decision: takes the changed dirty VOQs out
    /// and re-admits around them.
    fn repair<K: FnMut(&VoqView) -> Candidate>(&mut self, rd: &mut Reader<'_, K>) {
        let table = rd.table;
        self.freed.clear();
        self.work.clear();
        for i in 0..self.reads.len() {
            let (slot, new) = self.reads[i];
            let old = self.get(slot).copied();
            match (old, new) {
                (Some(old), Some(c))
                    if old.status == Status::Matched
                        && c.flow == old.flow
                        && c.key.total_cmp(&old.key).is_le() =>
                {
                    let stamp = self.stamp;
                    let rank = self.at(slot);
                    (rank.key, rank.stamp) = (c.key, stamp);
                    self.list(rd, slot);
                    continue;
                }
                (Some(old), Some(c))
                    if old.status == Status::Waiting && rank_cmp(c.rank(), old.rank()).is_eq() =>
                {
                    continue;
                }
                _ => {}
            }
            let (src, dst) = ports_of(table, slot);
            match old {
                Some(old) if old.status == Status::Matched => {
                    for port in [src, dst] {
                        self.ports[port].owner = None;
                        self.freed.push((port, old.rank()));
                    }
                }
                Some(old) => {
                    self.ports[src].remove(old.rank());
                    self.ports[dst].remove(old.rank());
                }
                None => {}
            }
            match (old, new) {
                (Some(_), Some(c)) => {
                    let stamp = self.stamp;
                    let rank = self.at(slot);
                    (rank.key, rank.flow, rank.stamp) = (c.key, c.flow, stamp);
                    rank.status = Status::Pending;
                }
                (None, Some(c)) => self.enter(slot, &c, Status::Pending),
                (Some(_), None) => self.leave(slot),
                (None, None) => continue,
            }
            if let Some(c) = new {
                self.fit_ports(c.voq.src().index().max(c.voq.dst().index()) + 1);
                self.work.push(Work {
                    rank: c.rank(),
                    slot,
                    scan: None,
                });
            }
        }
        // Every removal is done, so the waiting lists hold exactly the
        // unmatched candidates the scans may reach.
        for i in 0..self.freed.len() {
            let (port, from) = self.freed[i];
            self.scan(port, from);
        }
        while let Some(work) = self.work.pop() {
            if self.broken {
                return;
            }
            self.examine(rd, work);
        }
    }

    /// The position in `matched` of the first member not ranked before
    /// `rank`. A member is compared by its carried drain-invariant key when
    /// that lies more than the drift from `rank`'s, and read otherwise.
    fn position<K: FnMut(&VoqView) -> Candidate>(
        &mut self,
        rd: &mut Reader<'_, K>,
        rank: Rank,
    ) -> usize {
        let (b, drift) = (rank.0 + self.frame.shift, self.frame.drift);
        let (mut lo, mut hi) = (0, self.matched.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let member = self.matched[mid];
            let before = if member.b + drift < b {
                true
            } else if member.b - drift > b {
                false
            } else {
                rank_cmp(self.exact(rd, member.slot), rank).is_lt()
            };
            if before {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Inserts the matched VOQ in `slot`, read this decision, into the
    /// matched set at its rank.
    fn list<K: FnMut(&VoqView) -> Candidate>(&mut self, rd: &mut Reader<'_, K>, slot: u32) {
        let rank = *self.at(slot);
        let at = self.position(rd, rank.rank());
        let member = Member {
            b: rank.key + self.frame.shift,
            flow: rank.flow,
            voq: rd.table.voq_at_slot(slot as usize),
            slot,
        };
        self.matched.insert(at, member);
    }

    /// Queues the first candidate waiting on `port` after `from`, tagged
    /// with that port so its examination continues the scan.
    fn scan(&mut self, port: usize, from: Rank) {
        let waiting = &self.ports[port];
        if let Some(&(rank, slot)) = waiting.waiting.get(waiting.after(from)) {
            self.work.push(Work {
                rank,
                slot,
                scan: Some(port),
            });
        }
    }

    /// Whether `port` is owned by a candidate ranked before `rank`. An
    /// owner's key only falls, so its last read decides when it already
    /// ranks before; otherwise the owner is read.
    fn owned_before<K: FnMut(&VoqView) -> Candidate>(
        &mut self,
        rd: &mut Reader<'_, K>,
        port: usize,
        rank: Rank,
    ) -> bool {
        let Some(owner) = self.ports[port].owner else {
            return false;
        };
        let last = self.at(owner).rank();
        rank_cmp(last, rank).is_lt() || rank_cmp(self.exact(rd, owner), rank).is_lt()
    }

    /// Admits or blocks one candidate, in the repair's global rank order.
    fn examine<K: FnMut(&VoqView) -> Candidate>(&mut self, rd: &mut Reader<'_, K>, work: Work) {
        let slot = work.slot;
        let rank = *self.at(slot);
        if rank.status == Status::Matched {
            return; // admitted through another port's scan
        }
        let (src, dst) = ports_of(rd.table, slot);
        if self.owned_before(rd, src, rank.rank()) || self.owned_before(rd, dst, rank.rank()) {
            if rank.status == Status::Pending {
                self.ports[src].insert(rank.rank(), slot);
                self.ports[dst].insert(rank.rank(), slot);
                self.at(slot).status = Status::Waiting;
            }
            if let Some(port) = work.scan {
                if !self.owned_before(rd, port, rank.rank()) {
                    self.scan(port, rank.rank());
                }
            }
            return;
        }
        if rank.status == Status::Waiting {
            self.ports[src].remove(rank.rank());
            self.ports[dst].remove(rank.rank());
        }
        // Later owners of either port are displaced: each waits at both
        // of its ports and frees the one it does not share.
        for port in [src, dst] {
            if let Some(owner) = self.ports[port].owner {
                self.displace(rd, owner, port);
            }
            self.ports[port].owner = Some(slot);
        }
        // An unmatched candidate's key is its key at this decision.
        let stamp = self.stamp;
        let admitted = self.at(slot);
        (admitted.status, admitted.stamp) = (Status::Matched, stamp);
        self.list(rd, slot);
    }

    /// Unmatches `owner`, displaced on port `lost`, and frees its other
    /// port.
    fn displace<K: FnMut(&VoqView) -> Candidate>(
        &mut self,
        rd: &mut Reader<'_, K>,
        owner: u32,
        lost: usize,
    ) {
        let rank = self.exact(rd, owner);
        let at = self.position(rd, rank);
        if self.broken {
            return;
        }
        debug_assert!(
            self.matched.get(at).is_some_and(|m| m.slot == owner),
            "a port's owner is in the matched set"
        );
        self.matched.remove(at);
        let (src, dst) = ports_of(rd.table, owner);
        self.ports[src].insert(rank, owner);
        self.ports[dst].insert(rank, owner);
        self.at(owner).status = Status::Waiting;
        let free = if lost == src { dst } else { src };
        self.ports[free].owner = None;
        self.scan(free, rank);
    }

    /// The certified decision's schedule: a copy of the matched set's
    /// records, in admission order, each pair with its VOQ slot. Each
    /// member must own both of its ports, so no two share one.
    fn emit(&mut self) -> Schedule {
        let mut pairs = std::mem::take(&mut self.spare);
        pairs.clear();
        let owns = |port: usize, slot: u32| self.ports[port].owner == Some(slot);
        pairs.extend(self.matched.iter().map(|m| {
            let (src, dst) = voq_ports(m.voq);
            assert!(
                owns(src, m.slot) && owns(dst, m.slot),
                "the carried matching is port-disjoint"
            );
            (m.flow, m.voq, m.slot)
        }));
        Schedule::from_disjoint(pairs)
    }

    /// The full pass: ranks every view and admits greedily. With `carry`,
    /// it also rebuilds the carried matching from scratch.
    fn full_pass<K: FnMut(&VoqView) -> Candidate>(
        &mut self,
        rd: &mut Reader<'_, K>,
        carry: bool,
    ) -> Schedule {
        let table = rd.table;
        let Ranking {
            candidates,
            order,
            ranks,
            ..
        } = self;
        candidates.clear();
        candidates.reserve(table.num_nonempty_voqs());
        order.clear();
        order.reserve(table.num_nonempty_voqs());
        // `order[rank]` receives the candidate holding that rank last time;
        // VOQs that emptied since leave `u32::MAX` holes, new VOQs append.
        order.resize(ranks.len(), u32::MAX);
        let mut carried = 0;
        let mut ports = 0;
        for mut view in table.voqs() {
            rd.adjust.adjust(&mut view);
            let index = candidates.len() as u32;
            candidates.push(((rd.key)(&view), view.slot));
            ports = ports.max(view.voq.src().index().max(view.voq.dst().index()) + 1);
            while carried < ranks.len() && ranks[carried].0 < view.voq {
                carried += 1;
            }
            match ranks.get(carried) {
                Some(&(voq, rank)) if voq == view.voq => order[rank as usize] = index,
                _ => order.push(index),
            }
        }
        order.retain(|&index| index != u32::MAX);
        order.sort_by(|&a, &b| {
            rank_cmp(
                candidates[a as usize].0.rank(),
                candidates[b as usize].0.rank(),
            )
        });

        ranks.clear();
        ranks.extend(candidates.iter().map(|(c, _)| (c.voq, 0)));
        for (rank, &index) in order.iter().enumerate() {
            ranks[index as usize].1 = rank as u32;
        }

        if carry {
            self.reset_carried(table, ports);
        } else {
            self.mark = None;
        }
        let mut schedule = Schedule::with_ports(ports, self.candidates.len());
        for i in 0..self.order.len() {
            let (c, slot) = self.candidates[self.order[i] as usize];
            debug_assert!(c.key.is_finite(), "candidate keys must be finite");
            let matched = schedule.admits(c.voq);
            if matched {
                schedule
                    .add_at(c.flow, c.voq, slot)
                    .expect("admits() checked both ports");
            }
            if !carry {
                continue;
            }
            let (src, dst) = ports_of(table, slot);
            if matched {
                self.enter(slot, &c, Status::Matched);
                self.ports[src].owner = Some(slot);
                self.ports[dst].owner = Some(slot);
                self.matched.push(Member {
                    b: c.key + self.frame.shift,
                    flow: c.flow,
                    voq: c.voq,
                    slot,
                });
            } else {
                // Admission order is rank order, so the lists stay sorted.
                self.enter(slot, &c, Status::Waiting);
                self.ports[src].waiting.push((c.rank(), slot));
                self.ports[dst].waiting.push((c.rank(), slot));
            }
        }
        if carry {
            self.mark = Some(table.mark());
        }
        schedule
    }

    /// Empties the carried matching for a full pass over `table`, whose
    /// candidates use hosts below `hosts`. The ports keep their waiting
    /// lists' allocations, whichever table they served.
    fn reset_carried(&mut self, table: &FlowTable, hosts: u32) {
        for port in &mut self.ports {
            port.owner = None;
            port.waiting.clear();
        }
        self.fit_ports(hosts);
        self.index.clear();
        self.index.resize(table.num_voq_slots(), ABSENT);
        self.ranked.clear();
        self.matched.clear();
    }
}

/// Decides one key-driven discipline's matching — one candidate per
/// non-empty VOQ, read off the table's champion index and corrected by
/// `adjust` — with the admission order of [`greedy_by_key`]: the shared
/// decision of SRPT, fast BASRPT, MaxWeight and RepFlow. Their
/// [`Scheduler::schedule`] is this call with [`NoAdjust`]; lazily settling
/// engines pass their pending-drain correction through
/// [`Scheduler::schedule_adjusted`].
///
/// Each discipline passes its own [`Ranking`] and the [`KeyMotion`] of
/// its key. When the keys only fall, the ranking carries the previous
/// matching and, behind a checked certificate, repairs it around the VOQs
/// that changed: `O(M + D log Q)` for `M` matched and `D` changed VOQs,
/// instead of reading and sorting all `Q` candidates. Of the `M` matched
/// VOQs it reads only those the lens names
/// ([`ViewAdjust::off_clock_slots`]), the near ties and those the repair
/// compares against. Otherwise — and whenever the certificate cannot be
/// proven — the decision is a full pass, `O(Q log Q)` and near `O(Q)` when
/// the previous order still mostly holds. Both produce the same schedule,
/// each pair with its VOQ slot; the `O(F + Q log Q)` full scan survives as
/// [`reference::schedule_scan`](crate::reference::schedule_scan) for
/// differential testing.
pub fn schedule_champions_adjusted<F>(
    ranking: &mut Ranking,
    table: &FlowTable,
    adjust: &dyn ViewAdjust,
    motion: KeyMotion,
    mut to_candidate: F,
) -> Schedule
where
    F: FnMut(&VoqView) -> Candidate,
{
    let mut rd = Reader {
        table,
        adjust,
        key: &mut to_candidate,
    };
    ranking.stamp += 1;
    let KeyMotion::Falls { per_byte } = motion else {
        ranking.counts.key_can_rise += 1;
        return ranking.full_pass(&mut rd, false);
    };
    ranking.scale = ranking.scale.max(table.total_backlog() as f64);
    ranking.frame = adjust.clock().map_or(Frame::default(), |clock| {
        Frame::new(per_byte, clock, ranking.scale)
    });
    let schedule = if ranking.certify(&mut rd) {
        ranking.mark = Some(table.mark());
        ranking.emit()
    } else {
        ranking.full_pass(&mut rd, true)
    };
    ranking.carried = ranking.frame;
    schedule
}

/// Asserts that `schedule` is a valid *maximal* matching over the non-empty
/// VOQs of `table`: every selected flow is active and in its claimed VOQ,
/// ports are used at most once (guaranteed by `Schedule`), and no non-empty
/// VOQ has both of its ports free. Returns a description of the first
/// violation. Intended for tests.
pub fn check_maximal(table: &FlowTable, schedule: &Schedule) -> Result<(), String> {
    for (id, voq) in schedule.iter() {
        match table.get(id) {
            None => return Err(format!("scheduled flow {id} is not active")),
            Some(f) if f.voq() != voq => {
                return Err(format!(
                    "flow {id} scheduled in {voq} but lives in {}",
                    f.voq()
                ))
            }
            Some(_) => {}
        }
    }
    for view in table.voqs() {
        if schedule.admits(view.voq) {
            return Err(format!(
                "schedule is not maximal: {} (backlog {}) could be added",
                view.voq, view.backlog
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowState;
    use dcn_types::HostId;

    fn cand(key: f64, id: u64, src: u32, dst: u32) -> Candidate {
        Candidate {
            key,
            flow: FlowId::new(id),
            voq: Voq::new(HostId::new(src), HostId::new(dst)),
        }
    }

    #[test]
    fn greedy_prefers_smaller_key() {
        let mut c = vec![cand(5.0, 1, 0, 1), cand(1.0, 2, 0, 2)];
        let s = greedy_by_key(&mut c);
        assert!(s.contains(FlowId::new(2)));
        assert!(!s.contains(FlowId::new(1)));
    }

    #[test]
    fn greedy_fills_independent_ports() {
        let mut c = vec![cand(1.0, 1, 0, 1), cand(2.0, 2, 2, 3), cand(3.0, 3, 4, 5)];
        let s = greedy_by_key(&mut c);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn ties_broken_by_flow_id() {
        let mut c = vec![cand(1.0, 9, 0, 1), cand(1.0, 2, 2, 1)];
        let s = greedy_by_key(&mut c);
        assert!(s.contains(FlowId::new(2)));
        assert!(!s.contains(FlowId::new(9)));
    }

    #[test]
    fn an_adjustment_changes_the_ranking() {
        // Flows 1 (5 units) and 2 (1 unit) contend for ingress 0; the
        // adjustment pretends flow 1 has drained down to 0 remaining, so
        // it must win the contention instead of flow 2.
        struct Shrink;
        impl ViewAdjust for Shrink {
            fn adjust(&self, view: &mut VoqView) {
                if view.shortest_flow == FlowId::new(1) {
                    view.shortest_remaining = 0;
                }
            }

            fn off_clock_slots(&self, _visit: &mut dyn FnMut(usize)) {
                unreachable!("a fresh ranking's first decision is a full pass");
            }
        }
        let mut t = FlowTable::new();
        for (id, src, dst, size) in [(1u64, 0, 1, 5u64), (2, 0, 2, 1)] {
            t.insert(FlowState::new(
                FlowId::new(id),
                Voq::new(HostId::new(src), HostId::new(dst)),
                size,
            ))
            .unwrap();
        }
        let key = |v: &VoqView| Candidate {
            key: v.shortest_remaining as f64,
            flow: v.shortest_flow,
            voq: v.voq,
        };
        let s = schedule_champions_adjusted(
            &mut Ranking::default(),
            &t,
            &Shrink,
            KeyMotion::Falls { per_byte: 1.0 },
            key,
        );
        assert!(s.contains(FlowId::new(1)));
        assert!(!s.contains(FlowId::new(2)));
    }

    #[test]
    fn check_maximal_detects_missing_voq() {
        let mut t = FlowTable::new();
        t.insert(FlowState::new(
            FlowId::new(1),
            Voq::new(HostId::new(0), HostId::new(1)),
            4,
        ))
        .unwrap();
        let empty = Schedule::new();
        assert!(check_maximal(&t, &empty).is_err());

        let mut s = Schedule::new();
        s.add(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(1)))
            .unwrap();
        assert!(check_maximal(&t, &s).is_ok());
    }

    #[test]
    fn check_maximal_detects_phantom_flow() {
        let t = FlowTable::new();
        let mut s = Schedule::new();
        s.add(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(1)))
            .unwrap();
        assert!(check_maximal(&t, &s).is_err());
    }
}
