//! Property tests for the champion index: random arrival / drain /
//! completion / removal scripts (with aggressive flow-id reuse) must
//! leave every per-VOQ champion equal to a from-scratch scan of the
//! table, tie-breaks included, and every key-driven discipline's
//! schedule equal to its full-scan twin's — both for a fresh discipline
//! and for one long-lived instance that decides after every step, so its
//! carried matching is certified and repaired around the VOQs that
//! changed (or, without a certificate, repaired by a full pass from an
//! empty matching).
//!
//! The tie-break contract under test is the one `tests/tie_break.rs`
//! pins directly: within a VOQ the shortest flow wins with the smaller
//! `FlowId` breaking remaining-size ties, and across VOQs `greedy_by_key`
//! admits in ascending
//! `(key, flow id)` order.

use basrpt_core::reference::{schedule_scan, ScanScheduler, VoqDiscipline};
use basrpt_core::{
    check_maximal, FastBasrpt, FlowState, FlowTable, MaxWeight, RepFlow, Schedule, Scheduler, Srpt,
    ThresholdBacklogSrpt, ViewAdjust, VoqView,
};
use dcn_types::{FlowId, HostId, Voq};
use proptest::prelude::*;

/// One step of a random table script. Flow identity is taken modulo a
/// small id space so completions and removals are routinely followed by
/// an insert reusing the same id — the hardest case for any index that
/// caches per-flow state.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert {
        id: u64,
        src: u32,
        dst: u32,
        size: u64,
    },
    Drain {
        pick: usize,
        units: u64,
    },
    /// Drain a flow's whole remaining size: the way a flow leaves.
    Remove {
        pick: usize,
    },
}

fn arb_op(ports: u32, ids: u64) -> impl Strategy<Value = Op> {
    (
        0u8..8,
        0u64..ids,
        0u32..ports,
        0u32..ports,
        1u64..40,
        0usize..64,
    )
        .prop_map(|(kind, id, src, dst, size, pick)| match kind {
            // Weighted towards inserts so tables actually grow.
            0..=3 => Op::Insert { id, src, dst, size },
            4..=6 => Op::Drain {
                pick,
                units: 1 + size % 12,
            },
            _ => Op::Remove { pick },
        })
}

/// Applies `op` to `table`, treating the pick as an index into the live
/// flow list (no-op when the table is empty or the id already exists).
fn apply(table: &mut FlowTable, op: Op) {
    match op {
        Op::Insert { id, src, dst, size } => {
            let flow = FlowState::new(
                FlowId::new(id),
                Voq::new(
                    HostId::new(src),
                    HostId::new(dst % 7 + if src == dst % 7 { 1 } else { 0 }),
                ),
                size,
            );
            let _ = table.insert(flow);
        }
        Op::Drain { pick, units } => {
            let live: Vec<FlowId> = table.iter().map(|f| f.id()).collect();
            if !live.is_empty() {
                let id = live[pick % live.len()];
                table.drain(id, units).expect("picked a live flow");
            }
        }
        Op::Remove { pick } => {
            let live: Vec<FlowId> = table.iter().map(|f| f.id()).collect();
            if !live.is_empty() {
                let id = live[pick % live.len()];
                drain_out(table, id);
            }
        }
    }
}

/// Drains flow `id`'s whole remaining size: the way a flow leaves.
fn drain_out(table: &mut FlowTable, id: FlowId) {
    let left = table.get(id).expect("a live flow").remaining();
    let out = table.drain(id, left).expect("a live flow");
    assert!(out.completed.is_some(), "draining the rest completes");
}

/// Recomputes every VOQ summary by scanning all flows and asserts the
/// champion index agrees field for field.
fn assert_champions_match_scan(table: &FlowTable) -> Result<(), TestCaseError> {
    let mut seen = 0usize;
    for view in table.voqs() {
        let mut backlog = 0u64;
        let mut len = 0usize;
        let mut shortest: Option<(u64, FlowId)> = None;
        for f in table.iter().filter(|f| f.voq() == view.voq) {
            backlog += f.remaining();
            len += 1;
            let key = (f.remaining(), f.id());
            shortest = Some(shortest.map_or(key, |s| s.min(key)));
        }
        prop_assert!(len > 0, "voqs() yielded empty VOQ {:?}", view.voq);
        let (srem, sflow) = shortest.expect("non-empty");
        prop_assert_eq!(view.backlog, backlog, "backlog of {:?}", view.voq);
        prop_assert_eq!(
            view.shortest_remaining,
            srem,
            "shortest remaining of {:?}",
            view.voq
        );
        prop_assert_eq!(
            view.shortest_flow,
            sflow,
            "shortest flow (id tie-break) of {:?}",
            view.voq
        );
        seen += 1;
    }
    prop_assert_eq!(seen, table.num_nonempty_voqs(), "voqs() cardinality");
    Ok(())
}

/// Asserts a discipline's two decision paths — the champion-index
/// one-pass and the full scan — produce the identical, maximal schedule.
fn assert_paths_agree<D>(discipline: D, table: &FlowTable) -> Result<(), TestCaseError>
where
    D: VoqDiscipline + Scheduler,
{
    let scanned = schedule_scan(&discipline, table);
    let mut direct = discipline;
    let indexed = direct.schedule(table);
    prop_assert_eq!(
        &indexed,
        &scanned,
        "{}: champion index vs full scan",
        Scheduler::name(&direct)
    );
    prop_assert!(
        check_maximal(table, &indexed).is_ok(),
        "{}: schedule not maximal",
        Scheduler::name(&direct)
    );
    Ok(())
}

/// One long-lived instance of every key-driven discipline. Each keeps
/// its ranking across decisions, so every decision after the first
/// starts from the previous decision's order — possibly on another table.
struct Warm {
    srpt: Srpt,
    maxweight: MaxWeight,
    /// `V/N = 1`: a served candidate's key stays constant.
    fast_unit: FastBasrpt,
    /// `V/N = 2`: dyadic, every key exact.
    fast_dyadic: FastBasrpt,
    /// The paper's `V/N = 2500/144`: non-dyadic, keys round.
    fast_paper: FastBasrpt,
    /// `V/N = 10/3`: non-dyadic with small integer near-ties
    /// (`(10/3)·r − b` for `r` three apart and `b` ten apart).
    fast_thirds: FastBasrpt,
    /// `V/N = 1/2 < 1`: transmitting keys rise, so nothing is carried and
    /// every decision sorts and admits every candidate.
    fast_sub: FastBasrpt,
    repflow: RepFlow,
}

impl Warm {
    fn new() -> Self {
        Warm {
            srpt: Srpt::new(),
            maxweight: MaxWeight::new(),
            fast_unit: FastBasrpt::new(8.0, 8),
            fast_dyadic: FastBasrpt::new(16.0, 8),
            fast_paper: FastBasrpt::new(2500.0, 144),
            fast_thirds: FastBasrpt::new(10.0, 3),
            fast_sub: FastBasrpt::new(1.0, 2),
            repflow: RepFlow::default(),
        }
    }

    /// Certified decisions summed over the instances whose keys only fall.
    fn certified(&self) -> u64 {
        [
            self.srpt.decisions(),
            self.fast_unit.decisions(),
            self.fast_dyadic.decisions(),
            self.fast_paper.decisions(),
            self.fast_thirds.decisions(),
            self.repflow.decisions(),
        ]
        .iter()
        .map(|c| c.certified)
        .sum()
    }

    /// Decides on `table` with every warm instance and asserts each
    /// schedule equals the full scan of a fresh instance.
    fn assert_match_fresh_scans(&mut self, table: &FlowTable) -> Result<(), TestCaseError> {
        assert_warm_agrees(&mut self.srpt, &Srpt::new(), table)?;
        assert_warm_agrees(&mut self.maxweight, &MaxWeight::new(), table)?;
        assert_warm_agrees(&mut self.fast_unit, &FastBasrpt::new(8.0, 8), table)?;
        assert_warm_agrees(&mut self.fast_dyadic, &FastBasrpt::new(16.0, 8), table)?;
        assert_warm_agrees(&mut self.fast_paper, &FastBasrpt::new(2500.0, 144), table)?;
        assert_warm_agrees(&mut self.fast_thirds, &FastBasrpt::new(10.0, 3), table)?;
        assert_warm_agrees(&mut self.fast_sub, &FastBasrpt::new(1.0, 2), table)?;
        // RepFlow ranks exactly like SRPT and has no scan twin of its own.
        prop_assert_eq!(
            self.repflow.schedule(table),
            schedule_scan(&Srpt::new(), table),
            "RepFlow: warm ranking vs fresh SRPT scan"
        );
        Ok(())
    }
}

/// Asserts a long-lived discipline's decision equals the full scan of a
/// fresh, identically configured instance.
fn assert_warm_agrees<D>(warm: &mut D, fresh: &D, table: &FlowTable) -> Result<(), TestCaseError>
where
    D: VoqDiscipline + Scheduler,
{
    let decided = warm.schedule(table);
    prop_assert_eq!(
        &decided,
        &schedule_scan(fresh, table),
        "{}: warm ranking vs fresh full scan",
        Scheduler::name(warm)
    );
    Ok(())
}

/// A VOQ that empties leaves a hole in the carried order, and one that
/// refills re-enters as new; the warm instances must stay exact through
/// both, down to an empty table and back.
#[test]
fn warm_ranking_survives_a_voq_emptying_and_refilling() {
    let q = |s, d| Voq::new(HostId::new(s), HostId::new(d));
    let mut table = FlowTable::new();
    let mut warm = Warm::new();
    let insert = |table: &mut FlowTable, id: u64, voq: Voq, size: u64| {
        table
            .insert(FlowState::new(FlowId::new(id), voq, size))
            .unwrap();
    };
    insert(&mut table, 1, q(0, 1), 30);
    insert(&mut table, 2, q(0, 2), 5);
    insert(&mut table, 3, q(1, 2), 12);
    insert(&mut table, 4, q(2, 0), 7);
    warm.assert_match_fresh_scans(&table).unwrap();
    // VOQ (0,2) empties: its carried rank is a hole in the next layout.
    drain_out(&mut table, FlowId::new(2));
    warm.assert_match_fresh_scans(&table).unwrap();
    // ...and refills with a flow that now outranks every other VOQ.
    insert(&mut table, 5, q(0, 2), 1);
    warm.assert_match_fresh_scans(&table).unwrap();
    // Every VOQ empties, then a different set refills.
    for id in [1, 3, 4, 5] {
        drain_out(&mut table, FlowId::new(id));
        warm.assert_match_fresh_scans(&table).unwrap();
    }
    assert!(table.is_empty());
    insert(&mut table, 6, q(2, 1), 9);
    insert(&mut table, 7, q(0, 1), 9);
    insert(&mut table, 8, q(1, 0), 2);
    warm.assert_match_fresh_scans(&table).unwrap();
}

/// A matched VOQ that empties frees both of its ports, and the repair
/// must follow the chain it starts: the waiting candidate it blocked is
/// admitted and displaces a later owner, whose freed port admits the next.
#[test]
fn an_emptied_matched_voq_starts_a_chain_of_repairs() {
    let q = |s, d| Voq::new(HostId::new(s), HostId::new(d));
    let mut table = FlowTable::new();
    let mut warm = Warm::new();
    // SRPT order: A (0,1) matched; B (0,2) waits behind A on ingress 0;
    // C (3,2) matched on the free egress 2; D (3,4) waits behind C.
    for (id, voq, size) in [
        (1, q(0, 1), 1),
        (2, q(0, 2), 2),
        (3, q(3, 2), 3),
        (4, q(3, 4), 4),
    ] {
        table
            .insert(FlowState::new(FlowId::new(id), voq, size))
            .unwrap();
    }
    warm.assert_match_fresh_scans(&table).unwrap();
    // A completes under its matched champion: B takes ingress 0 and
    // egress 2 from the later C, and C's freed ingress 3 admits D.
    let done = table.drain(FlowId::new(1), 1).unwrap();
    assert!(done.completed.is_some());
    warm.assert_match_fresh_scans(&table).unwrap();
    let srpt = warm.srpt.schedule(&table);
    let ids: Vec<u64> = srpt.flow_ids().map(FlowId::raw).collect();
    assert_eq!(ids, [2, 4]);
    // A refills (0,1) with the shortest flow: the chain runs backwards.
    table
        .insert(FlowState::new(FlowId::new(5), q(0, 1), 1))
        .unwrap();
    warm.assert_match_fresh_scans(&table).unwrap();
    assert!(warm.certified() > 0, "the warm instances repaired");
    assert_eq!(warm.fast_sub.decisions().certified, 0);
    assert_eq!(warm.maxweight.decisions().certified, 0);
}

/// More mutations between two decisions than the table's changed-slot
/// record holds: the next decision cannot be certified and runs a full
/// pass, which carries a fresh matching into the decision after it.
#[test]
fn a_gap_longer_than_the_changed_slot_record_forces_a_full_pass() {
    let q = |s, d| Voq::new(HostId::new(s), HostId::new(d));
    let mut table = FlowTable::new();
    table
        .insert(FlowState::new(FlowId::new(1), q(0, 1), 1_000_000))
        .unwrap();
    table
        .insert(FlowState::new(FlowId::new(2), q(0, 2), 2_000_000))
        .unwrap();
    table
        .insert(FlowState::new(FlowId::new(3), q(1, 2), 10))
        .unwrap();
    let mut srpt = Srpt::new();
    let decide = |srpt: &mut Srpt, table: &FlowTable| {
        assert_eq!(srpt.schedule(table), schedule_scan(&Srpt::new(), table));
        srpt.decisions()
    };
    assert_eq!(decide(&mut srpt, &table).cold, 1);
    for _ in 0..100 {
        table.drain(FlowId::new(2), 1).unwrap();
    }
    assert_eq!(decide(&mut srpt, &table).certified, 1);
    for _ in 0..10_000 {
        table.drain(FlowId::new(2), 1).unwrap();
    }
    table.drain(FlowId::new(1), 999_999).unwrap();
    let counts = decide(&mut srpt, &table);
    assert_eq!((counts.overflow, counts.certified), (1, 1));
    drain_out(&mut table, FlowId::new(3));
    assert_eq!(decide(&mut srpt, &table).certified, 2);
}

/// A lens that pretends the champion of each listed VOQ slot has sent
/// the given units, so keys fall by different amounts between two
/// decisions. It has no clock, so it names every slot it corrects.
struct SentLens(Vec<(usize, u64)>);

impl ViewAdjust for SentLens {
    fn adjust(&self, view: &mut VoqView) {
        if let Some(&(_, sent)) = self.0.iter().find(|&&(slot, _)| slot == view.slot()) {
            view.shortest_remaining -= sent;
            view.backlog -= sent;
        }
    }

    fn off_clock_slots(&self, visit: &mut dyn FnMut(usize)) {
        self.0.iter().for_each(|&(slot, _)| visit(slot));
    }
}

/// A lens that corrects an unmatched VOQ, which no mutation touched,
/// so that it overtakes its blocker: the lens names the slot, and the
/// decision reads it and repairs around it.
#[test]
fn an_unmatched_slot_the_lens_names_is_read_and_repaired_around() {
    let q = |s, d| Voq::new(HostId::new(s), HostId::new(d));
    let mut table = FlowTable::new();
    // A (0,1) is matched; B (0,2) waits behind it on ingress 0.
    table
        .insert(FlowState::new(FlowId::new(1), q(0, 1), 10))
        .unwrap();
    table
        .insert(FlowState::new(FlowId::new(2), q(0, 2), 20))
        .unwrap();
    let mut srpt = Srpt::new();
    let first = srpt.schedule_adjusted(&table, &SentLens(Vec::new()));
    assert_eq!(first.flow_ids().map(FlowId::raw).collect::<Vec<_>>(), [1]);
    let lens = SentLens(vec![(table.voq_slot(q(0, 2)).unwrap(), 15)]);
    let decided = srpt.schedule_adjusted(&table, &lens);
    assert_eq!(decided, Srpt::new().schedule_adjusted(&table, &lens));
    assert_eq!(decided.flow_ids().map(FlowId::raw).collect::<Vec<_>>(), [2]);
    let counts = srpt.decisions();
    assert_eq!(
        (counts.certified, counts.read_named),
        (1, 1),
        "named, then repaired"
    );
}

/// Clean matched keys that cross between two decisions, an entrant that
/// ranks mid-order and a matched VOQ that empties: the carried matching is
/// re-keyed, re-ordered and repaired in one certified decision, and emits
/// the fresh ranking's pairs in its order.
#[test]
fn crossing_keys_an_entrant_and_a_leaver_keep_admission_order() {
    let q = |s, d| Voq::new(HostId::new(s), HostId::new(d));
    let mut table = FlowTable::new();
    // Four matched VOQs on disjoint ports, SRPT order A < B < C < D.
    let (a, b, c, d) = (q(0, 1), q(2, 3), q(4, 5), q(6, 7));
    for (id, voq, size) in [(1, a, 10), (2, b, 20), (3, c, 30), (4, d, 40)] {
        table
            .insert(FlowState::new(FlowId::new(id), voq, size))
            .unwrap();
    }
    let mut srpt = Srpt::new();
    let mut fast = FastBasrpt::new(2500.0, 144);
    let none = SentLens(Vec::new());
    assert_eq!(
        srpt.schedule_adjusted(&table, &none),
        Srpt::new().schedule(&table)
    );
    fast.schedule_adjusted(&table, &none);
    // D drains 35 units and A one, through the lens only: D overtakes A,
    // B and C, A keeps its place. E enters between A and B; B empties.
    let slot = |voq| table.voq_slot(voq).unwrap();
    let lens = SentLens(vec![(slot(a), 1), (slot(d), 35)]);
    table
        .insert(FlowState::new(FlowId::new(5), q(8, 9), 15))
        .unwrap();
    drain_out(&mut table, FlowId::new(2));
    let decided = srpt.schedule_adjusted(&table, &lens);
    assert_eq!(decided, Srpt::new().schedule_adjusted(&table, &lens));
    let ids: Vec<u64> = decided.flow_ids().map(FlowId::raw).collect();
    assert_eq!(ids, [4, 1, 5, 3]);
    assert_eq!(
        fast.schedule_adjusted(&table, &lens),
        FastBasrpt::new(2500.0, 144).schedule_adjusted(&table, &lens)
    );
    for counts in [srpt.decisions(), fast.decisions()] {
        assert_eq!((counts.cold, counts.certified), (1, 1));
    }
}

/// A lens with a clock that raises the key of the VOQ in one slot by
/// `by` units without naming it: it breaks the premise of a certified
/// decision, which must find the risen key where it reads it.
struct RaisedLens {
    slot: usize,
    by: u64,
}

impl ViewAdjust for RaisedLens {
    fn adjust(&self, view: &mut VoqView) {
        if view.slot() == self.slot {
            view.shortest_remaining += self.by;
            view.backlog += self.by;
        }
    }

    fn off_clock_slots(&self, _visit: &mut dyn FnMut(usize)) {}

    fn clock(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Two matched VOQs on disjoint ports whose carried keys lie within the
/// margin are a near tie the certified decision reads; a lens that raised
/// one of them breaks the certificate, and the decision is rebuilt from
/// an empty matching, equal to a fresh instance's.
#[test]
fn a_risen_key_in_a_near_tie_rebuilds_the_decision() {
    let q = |s, d| Voq::new(HostId::new(s), HostId::new(d));
    let mut table = FlowTable::new();
    let (a, b) = (q(0, 1), q(2, 3));
    for (id, voq, size) in [(1, a, 100), (2, b, 101)] {
        table
            .insert(FlowState::new(FlowId::new(id), voq, size))
            .unwrap();
    }
    let slot = table.voq_slot(a).unwrap();
    let (still, raised) = (RaisedLens { slot, by: 0 }, RaisedLens { slot, by: 5 });
    let mut srpt = Srpt::new();
    let mut fast = FastBasrpt::new(2500.0, 144);
    let first = srpt.schedule_adjusted(&table, &still);
    assert_eq!(
        first.flow_ids().map(FlowId::raw).collect::<Vec<_>>(),
        [1, 2]
    );
    fast.schedule_adjusted(&table, &still);
    let decided = srpt.schedule_adjusted(&table, &raised);
    assert_eq!(decided, Srpt::new().schedule_adjusted(&table, &raised));
    assert_eq!(
        decided.flow_ids().map(FlowId::raw).collect::<Vec<_>>(),
        [2, 1]
    );
    let fresh = FastBasrpt::new(2500.0, 144).schedule_adjusted(&table, &raised);
    assert_eq!(fast.schedule_adjusted(&table, &raised), fresh);
    for counts in [srpt.decisions(), fast.decisions()] {
        assert!(counts.key_rose >= 1, "{counts:?}");
        assert_eq!(counts.decisions(), 2, "{counts:?}");
    }
}

/// A lens over the champions leaving host 0: with `grow == 0` it pretends
/// each has sent half of its remaining units (keys fall), otherwise that
/// each grew by `grow` units (keys rise). It has no clock, so it names
/// every slot it corrects.
struct HostZeroLens {
    grow: u64,
    slots: Vec<usize>,
}

impl HostZeroLens {
    fn on(table: &FlowTable, grow: u64) -> Self {
        let slots = table
            .voqs()
            .filter(|v| v.voq.src() == HostId::new(0))
            .map(|v| v.slot())
            .collect();
        HostZeroLens { grow, slots }
    }
}

impl ViewAdjust for HostZeroLens {
    fn adjust(&self, view: &mut VoqView) {
        if view.voq.src() != HostId::new(0) {
            return;
        }
        if self.grow == 0 {
            let sent = view.shortest_remaining / 2;
            view.shortest_remaining -= sent;
            view.backlog -= sent;
        } else {
            view.shortest_remaining += self.grow;
            view.backlog += self.grow;
        }
    }

    fn off_clock_slots(&self, visit: &mut dyn FnMut(usize)) {
        self.slots.iter().for_each(|&slot| visit(slot));
    }
}

/// One flow draining in a simulated allocator: bound to its VOQ's slot
/// from `epoch`, owing the truncated bytes of its elapsed time, as the
/// fabric's settlement computes them.
#[derive(Debug, Clone, Copy)]
struct Bound {
    slot: usize,
    flow: FlowId,
    epoch: f64,
    /// Remaining bytes at the epoch.
    remaining: u64,
    /// Bytes already drained from the table since the epoch.
    settled: u64,
}

/// The drain rate of [`Drains`], in bytes per unit of time: not a power of
/// two, so the truncation's fraction turns differently for every epoch.
const RATE: f64 = 0.7;

impl Bound {
    /// The bytes owed since the epoch at `now`: one product of the elapsed
    /// time, truncated, and clamped to the epoch's bytes.
    fn target(&self, now: f64) -> u64 {
        ((RATE * (now - self.epoch).max(0.0)) as u64).min(self.remaining)
    }
}

/// A lens over a simulated allocator that drains every bound VOQ's
/// champion at one rate, truncating per epoch, and reports its clock:
/// the lens a lazily settling engine lends its scheduler. It names the
/// pairs of the last schedule it left unbound.
struct Drains {
    now: f64,
    bound: Vec<Bound>,
    /// The slots of the last schedule's pairs left unbound.
    idle: Vec<usize>,
}

impl ViewAdjust for Drains {
    fn adjust(&self, view: &mut VoqView) {
        let Some(b) = self.bound.iter().find(|b| b.slot == view.slot()) else {
            return;
        };
        let target = b.target(self.now);
        let owed = target - b.settled;
        view.backlog -= owed;
        let live = b.remaining - target;
        if view.shortest_flow == b.flow {
            view.shortest_remaining -= owed;
        } else if (live, b.flow) < (view.shortest_remaining, view.shortest_flow) {
            view.shortest_flow = b.flow;
            view.shortest_remaining = live;
        }
    }

    fn off_clock_slots(&self, visit: &mut dyn FnMut(usize)) {
        self.idle.iter().for_each(|&slot| visit(slot));
    }

    fn clock(&self) -> Option<f64> {
        Some(RATE * self.now)
    }
}

impl Drains {
    /// Drains `b`'s owed bytes into the table.
    fn settle(table: &mut FlowTable, b: &mut Bound, now: f64) {
        let target = b.target(now);
        if target > b.settled {
            table
                .drain(b.flow, target - b.settled)
                .expect("a bound flow is live");
            b.settled = target;
        }
    }

    /// Completes every flow that has sent its last byte by `now`.
    fn complete_due(&mut self, table: &mut FlowTable) {
        let now = self.now;
        self.bound.retain_mut(|b| {
            if b.target(now) < b.remaining {
                return true;
            }
            Drains::settle(table, b, now);
            false
        });
    }

    /// Settles every bound flow, as a sample instant does.
    fn settle_all(&mut self, table: &mut FlowTable) {
        let now = self.now;
        self.bound
            .iter_mut()
            .for_each(|b| Drains::settle(table, b, now));
    }

    /// Binds `schedule`'s pairs, keeping the epochs of flows already bound
    /// and settling the flows it drops. With `idle`, pairs leaving that
    /// host stay unbound, as a core filter that does not admit them.
    fn apply(&mut self, table: &mut FlowTable, schedule: &Schedule, idle: Option<HostId>) {
        let now = self.now;
        let (pairs, withheld): (Vec<(FlowId, Voq)>, Vec<_>) = schedule
            .iter()
            .partition(|&(_, voq)| Some(voq.src()) != idle);
        self.idle = withheld
            .iter()
            .map(|&(_, voq)| table.voq_slot(voq).expect("a scheduled VOQ"))
            .collect();
        self.bound.retain_mut(|b| {
            if pairs.iter().any(|&(id, _)| id == b.flow) {
                return true;
            }
            Drains::settle(table, b, now);
            false
        });
        for (id, voq) in pairs {
            if self.bound.iter().all(|b| b.flow != id) {
                self.bound.push(Bound {
                    slot: table.voq_slot(voq).expect("a scheduled VOQ"),
                    flow: id,
                    epoch: now,
                    remaining: table.get(id).expect("a scheduled flow").remaining(),
                    settled: 0,
                });
            }
        }
    }
}

/// One step of a drained script: time passes, due flows complete, and an
/// arrival or a settlement of every account may follow.
#[derive(Debug, Clone, Copy)]
struct Tick {
    /// Elapsed time, in units of `1/RATE` bytes' worth, some zero.
    dt: f64,
    arrival: Option<(u32, u32, u64)>,
    settle_all: bool,
}

fn arb_tick(ports: u32) -> impl Strategy<Value = Tick> {
    (0u8..10, 0u8..6, 0u32..ports, 0u32..ports, 1u64..48).prop_map(
        move |(kind, dt, src, dst, size)| Tick {
            dt: [0.0, 0.0, 0.31, 1.0, 1.5, 2.9, 7.77, 23.0][usize::from(dt + kind % 3)],
            arrival: (kind < 6).then_some((src, (src + 1 + dst % (ports - 1)) % ports, size)),
            settle_all: kind == 9,
        },
    )
}

/// Runs `ticks` through a table and a simulated allocator with one
/// long-lived instance of `make`'s discipline, deciding through the drain
/// lens after every tick, and asserts each decision equals a fresh
/// instance's, a full pass from an empty matching. Returns the warm
/// instance.
fn drained_run<S: Scheduler>(
    make: impl Fn() -> S,
    ticks: &[Tick],
    idle: Option<HostId>,
) -> Result<S, TestCaseError> {
    let mut table = FlowTable::new();
    let mut lens = Drains {
        now: 0.0,
        bound: Vec::new(),
        idle: Vec::new(),
    };
    let mut warm = make();
    for (i, tick) in ticks.iter().enumerate() {
        lens.now += tick.dt / RATE;
        lens.complete_due(&mut table);
        if let Some((src, dst, size)) = tick.arrival {
            let voq = Voq::new(HostId::new(src), HostId::new(dst));
            table
                .insert(FlowState::new(FlowId::new(i as u64), voq, size))
                .expect("ids are fresh");
        }
        if tick.settle_all {
            lens.settle_all(&mut table);
        }
        let decided = warm.schedule_adjusted(&table, &lens);
        let fresh = make().schedule_adjusted(&table, &lens);
        prop_assert_eq!(&decided, &fresh, "{} at tick {}", warm.name(), i);
        lens.apply(&mut table, &decided, idle);
    }
    Ok(warm)
}

/// Runs `ticks` under every discipline whose keys fall and checks how
/// their decisions were taken: none found a risen key, every full pass
/// was the first decision, and with no idle host the lens named nothing.
/// Returns the VOQs the certified decisions read because the lens named
/// them, summed over the disciplines.
fn drained_runs(ticks: &[Tick], idle: Option<HostId>) -> Result<u64, TestCaseError> {
    let counts = [
        drained_run(Srpt::new, ticks, idle)?.decisions(),
        drained_run(RepFlow::default, ticks, idle)?.decisions(),
        // `V/N = 1`: keys stay put while they transmit.
        drained_run(|| FastBasrpt::new(8.0, 8), ticks, idle)?.decisions(),
        // `V/N = 2`: every key exact.
        drained_run(|| FastBasrpt::new(16.0, 8), ticks, idle)?.decisions(),
        // The paper's `V/N`: keys round.
        drained_run(|| FastBasrpt::new(2500.0, 144), ticks, idle)?.decisions(),
        // `V/N = 10/3`: small integer near-ties.
        drained_run(|| FastBasrpt::new(10.0, 3), ticks, idle)?.decisions(),
    ];
    for c in counts {
        prop_assert_eq!(c.key_rose, 0, "{:?}", c);
        prop_assert_eq!(c.full_passes(), c.cold, "{:?}", c);
        prop_assert_eq!(c.decisions(), ticks.len() as u64);
        if idle.is_none() {
            prop_assert_eq!(c.read_named, 0, "{:?}", c);
        }
    }
    Ok(counts.iter().map(|c| c.read_named).sum())
}

proptest! {
    /// A long-lived instance of each key-driven discipline decides after
    /// every step of a random script and must match a fresh instance's
    /// full scan each time. Three ports and six ids make VOQs empty and
    /// refill constantly; eight ports and 24 ids make many VOQs compete,
    /// so the carried order is long.
    #[test]
    fn warm_rankings_equal_fresh_scans_after_every_op(
        ops in prop_oneof![
            prop::collection::vec(arb_op(3, 6), 1..150),
            prop::collection::vec(arb_op(8, 24), 1..150),
        ],
    ) {
        let mut table = FlowTable::new();
        let mut warm = Warm::new();
        for &op in &ops {
            apply(&mut table, op);
            warm.assert_match_fresh_scans(&table)?;
        }
    }

    /// Every discipline whose keys fall decides through a lens that drains
    /// its matched champions at one rate, each from its own epoch and
    /// truncated: its clean members go unread, ordered by their carried
    /// drain-invariant keys, and every decision must equal a fresh full
    /// pass. Small byte counts and a rate of 0.7 make exact ties (broken
    /// by id), keys a byte apart and keys a few bytes apart common; time
    /// that stands still leaves owed bytes at zero.
    #[test]
    fn drained_rankings_equal_fresh_decisions(
        ticks in prop_oneof![
            prop::collection::vec(arb_tick(4), 1..120),
            prop::collection::vec(arb_tick(7), 1..160),
        ],
    ) {
        let ticks: Vec<Tick> = ticks;
        drained_runs(&ticks, None)?;
    }

    /// The same, with the VOQs leaving host 0 matched but never drained:
    /// the lens names them, so the decisions read them as dirty. An
    /// opening of two ticks leaves one idle across a decision that no
    /// mutation precedes, so every run reads a named VOQ.
    #[test]
    fn a_lens_that_leaves_members_idle_decides_exactly(
        ticks in prop::collection::vec(arb_tick(5), 1..120),
    ) {
        let opening = [
            Tick { dt: 0.0, arrival: Some((0, 1, 40)), settle_all: false },
            Tick { dt: 1.0, arrival: None, settle_all: false },
        ];
        let ticks: Vec<Tick> = opening.into_iter().chain(ticks).collect();
        prop_assert!(drained_runs(&ticks, Some(HostId::new(0)))? > 0);
    }

    /// One instance alternates between two unrelated tables, so each
    /// decision's carried order comes from the other table.
    #[test]
    fn warm_rankings_survive_alternating_tables(
        ops_a in prop::collection::vec(arb_op(8, 12), 1..80),
        ops_b in prop::collection::vec(arb_op(5, 30), 1..80),
    ) {
        let mut a = FlowTable::new();
        let mut b = FlowTable::new();
        let mut warm = Warm::new();
        for i in 0..ops_a.len().max(ops_b.len()) {
            if let Some(&op) = ops_a.get(i) {
                apply(&mut a, op);
            }
            if let Some(&op) = ops_b.get(i) {
                apply(&mut b, op);
            }
            warm.assert_match_fresh_scans(&a)?;
            warm.assert_match_fresh_scans(&b)?;
        }
    }

    /// One instance alternates between a table and its clone, which
    /// share their contents and version at the split but are different
    /// tables: a matching carried from one never certifies the other.
    #[test]
    fn warm_rankings_survive_a_table_and_its_clone(
        before in prop::collection::vec(arb_op(6, 16), 1..60),
        ops_a in prop::collection::vec(arb_op(6, 16), 1..40),
        ops_b in prop::collection::vec(arb_op(6, 16), 1..40),
    ) {
        let mut a = FlowTable::new();
        let mut warm = Warm::new();
        for &op in &before {
            apply(&mut a, op);
            warm.assert_match_fresh_scans(&a)?;
        }
        let mut b = a.clone();
        prop_assert_eq!(a.version(), b.version());
        for i in 0..ops_a.len().max(ops_b.len()) {
            warm.assert_match_fresh_scans(&b)?;
            if let Some(&op) = ops_a.get(i) {
                apply(&mut a, op);
            }
            warm.assert_match_fresh_scans(&a)?;
            if let Some(&op) = ops_b.get(i) {
                apply(&mut b, op);
            }
        }
    }

    /// Warm SRPT and fast BASRPT deciding through a lens that names the
    /// slots it corrects, one that lowers their keys and one that raises
    /// them: the named VOQs are read as dirty, so neither finds a risen
    /// key, and all equal a fresh instance's decision.
    #[test]
    fn lenses_decide_exactly_whether_or_not_they_certify(
        ops in prop::collection::vec(arb_op(5, 20), 1..100),
    ) {
        let mut table = FlowTable::new();
        let mut srpt = [Srpt::new(), Srpt::new()];
        let fresh_fast = || FastBasrpt::new(2500.0, 144);
        let mut fast = [fresh_fast(), fresh_fast()];
        for (step, &op) in ops.iter().enumerate() {
            apply(&mut table, op);
            let lenses = [
                HostZeroLens::on(&table, 0),
                HostZeroLens::on(&table, step as u64 + 1),
            ];
            for (i, lens) in lenses.iter().enumerate() {
                prop_assert_eq!(
                    srpt[i].schedule_adjusted(&table, lens),
                    Srpt::new().schedule_adjusted(&table, lens),
                    "SRPT, lens {}", i
                );
                prop_assert_eq!(
                    fast[i].schedule_adjusted(&table, lens),
                    fresh_fast().schedule_adjusted(&table, lens),
                    "fast BASRPT, lens {}", i
                );
            }
        }
        let decisions = ops.len() as u64;
        for named in [
            srpt[0].decisions(),
            fast[0].decisions(),
            srpt[1].decisions(),
            fast[1].decisions(),
        ] {
            prop_assert_eq!(named.key_rose, 0);
            prop_assert_eq!(named.decisions(), decisions);
        }
    }

    /// The core champion invariant: after any script of arrivals, partial
    /// drains, completions, and removals — with ids recycled — every VOQ
    /// view equals a from-scratch scan, and the table's own invariant
    /// audit passes.
    #[test]
    fn champions_equal_full_scan_under_random_scripts(
        ops in prop::collection::vec(arb_op(8, 12), 1..120),
    ) {
        let mut table = FlowTable::new();
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut table, op);
            // Audit at every step for short scripts, periodically (and at
            // the end) for long ones.
            if ops.len() <= 30 || i % 13 == 0 || i + 1 == ops.len() {
                table.check_invariants().expect("table invariants");
                assert_champions_match_scan(&table)?;
            }
        }
    }

    /// Schedules agree across both decision paths for every key-driven
    /// discipline at points along the script.
    #[test]
    fn schedules_agree_across_paths_under_random_scripts(
        ops in prop::collection::vec(arb_op(8, 12), 1..80),
    ) {
        let mut table = FlowTable::new();
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut table, op);
            if i % 7 == 0 || i + 1 == ops.len() {
                assert_paths_agree(Srpt::new(), &table)?;
                assert_paths_agree(FastBasrpt::new(8.0, 8), &table)?;
                assert_paths_agree(MaxWeight::new(), &table)?;
                assert_paths_agree(FastBasrpt::new(16.0, 8), &table)?;
                assert_paths_agree(FastBasrpt::new(4.0, 8), &table)?;
                assert_paths_agree(ThresholdBacklogSrpt::new(15), &table)?;
            }
        }
    }

    /// The `ScanScheduler` adapter is interchangeable with the raw
    /// `schedule_scan` call it wraps.
    #[test]
    fn scan_scheduler_wraps_schedule_scan(
        ops in prop::collection::vec(arb_op(6, 10), 1..40),
    ) {
        let mut table = FlowTable::new();
        for &op in &ops {
            apply(&mut table, op);
        }
        let mut wrapped = ScanScheduler::new(Srpt::new());
        prop_assert_eq!(wrapped.schedule(&table), schedule_scan(&Srpt::new(), &table));
    }
}
