//! Property tests for the champion index: random arrival / drain /
//! completion / removal scripts (with aggressive flow-id reuse) must
//! leave every per-VOQ champion equal to a from-scratch scan of the
//! table, tie-breaks included, and every key-driven discipline's
//! schedule equal to its full-scan twin's — both for a fresh discipline
//! and for one long-lived instance that decides after every step, so its
//! carried matching is certified and repaired around the VOQs that
//! changed (or, without a certificate, its full pass starts from the
//! previous order).
//!
//! The tie-break contract under test is the one `tests/tie_break.rs`
//! pins directly: within a VOQ the shortest flow wins with the smaller
//! `FlowId` breaking remaining-size ties, and across VOQs `greedy_by_key`
//! admits in ascending
//! `(key, flow id)` order.

use basrpt_core::reference::{schedule_scan, ScanScheduler, VoqDiscipline};
use basrpt_core::{
    check_maximal, FastBasrpt, FlowState, FlowTable, MaxWeight, RepFlow, Scheduler, Srpt,
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
    /// `V/N = 1/2 < 1`: transmitting keys rise, so every decision is a
    /// full pass.
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
/// decisions. It keeps the count of the slots it corrects and names them.
struct SentLens(Vec<(usize, u64)>);

impl ViewAdjust for SentLens {
    fn adjust(&self, view: &mut VoqView) {
        self.adjust_counted(view);
    }

    fn adjust_counted(&self, view: &mut VoqView) -> bool {
        let Some(&(_, sent)) = self.0.iter().find(|&&(slot, _)| slot == view.slot()) else {
            return false;
        };
        view.shortest_remaining -= sent;
        view.backlog -= sent;
        true
    }

    fn corrected_count(&self) -> Option<usize> {
        Some(self.0.len())
    }

    fn corrected_slots(&self, visit: &mut dyn FnMut(usize)) {
        self.0.iter().for_each(|&(slot, _)| visit(slot));
    }
}

/// A lens that corrects an unmatched VOQ, which no mutation touched,
/// so that it overtakes its blocker: the count of matched slots it
/// corrects falls short of its own, and the decision must have it name
/// its slots and repair around the unmatched one.
#[test]
fn a_count_that_misses_an_unmatched_slot_makes_the_lens_name_it() {
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
    assert_eq!(srpt.decisions().certified, 1, "named, then repaired");
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

/// A lens over the champions leaving host 0: with `grow == 0` it pretends
/// each has sent half of its remaining units (keys fall), otherwise that
/// each grew by `grow` units (keys rise). It names the slots it
/// corrects; `counted` says whether it also keeps their count, which
/// disagrees with the matched slots whenever a host-0 VOQ waits.
struct HostZeroLens {
    counted: bool,
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
        HostZeroLens {
            counted: false,
            grow,
            slots,
        }
    }

    fn counted(table: &FlowTable) -> Self {
        HostZeroLens {
            counted: true,
            ..HostZeroLens::on(table, 0)
        }
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

    fn corrected_slots(&self, visit: &mut dyn FnMut(usize)) {
        self.slots.iter().for_each(|&slot| visit(slot));
    }

    fn adjust_counted(&self, view: &mut VoqView) -> bool {
        self.adjust(view);
        view.voq.src() == HostId::new(0)
    }

    fn corrected_count(&self) -> Option<usize> {
        self.counted.then_some(self.slots.len())
    }
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

    /// Warm SRPT and fast BASRPT deciding through a lens: one that names
    /// the slots it corrects is certified, one that raises matched keys
    /// fails the certificate, and one whose count disagrees with the
    /// matched slots it corrects falls back to naming them; all equal a
    /// fresh instance's decision.
    #[test]
    fn lenses_decide_exactly_whether_or_not_they_certify(
        ops in prop::collection::vec(arb_op(5, 20), 1..100),
    ) {
        let mut table = FlowTable::new();
        let mut srpt = [Srpt::new(), Srpt::new(), Srpt::new()];
        let fresh_fast = || FastBasrpt::new(2500.0, 144);
        let mut fast = [fresh_fast(), fresh_fast(), fresh_fast()];
        for (step, &op) in ops.iter().enumerate() {
            apply(&mut table, op);
            let lenses = [
                HostZeroLens::on(&table, 0),
                HostZeroLens::on(&table, step as u64 + 1),
                HostZeroLens::counted(&table),
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
            srpt[2].decisions(),
            fast[2].decisions(),
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
