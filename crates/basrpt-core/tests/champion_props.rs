//! Property tests for the champion index: random arrival / drain /
//! completion / removal scripts (with aggressive flow-id reuse) must
//! leave every per-VOQ champion equal to a from-scratch scan of the
//! table, tie-breaks included, and every key-driven discipline's
//! schedule equal to its full-scan twin's — both for a fresh discipline
//! and for one long-lived instance that decides after every step, so its
//! carried ranking starts each decision from the previous one's order.
//!
//! The tie-break contract under test is the one `tests/tie_break.rs`
//! pins directly: within a VOQ the shortest flow wins with the smaller
//! `FlowId` breaking remaining-size ties, the oldest flow is the
//! smallest id, and across VOQs `greedy_by_key` admits in ascending
//! `(key, flow id)` order.

use basrpt_core::reference::{schedule_scan, ScanScheduler, VoqDiscipline};
use basrpt_core::{
    check_maximal, FastBasrpt, Fifo, FlowState, FlowTable, MaxWeight, RepFlow, Scheduler, Srpt,
    ThresholdBacklogSrpt,
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
                table.remove(id).expect("picked a live flow");
            }
        }
    }
}

/// Recomputes every VOQ summary by scanning all flows and asserts the
/// champion index agrees field for field.
fn assert_champions_match_scan(table: &FlowTable) -> Result<(), TestCaseError> {
    let mut seen = 0usize;
    for view in table.voqs() {
        let mut backlog = 0u64;
        let mut len = 0usize;
        let mut shortest: Option<(u64, FlowId)> = None;
        let mut oldest: Option<FlowId> = None;
        for f in table.iter().filter(|f| f.voq() == view.voq) {
            backlog += f.remaining();
            len += 1;
            let key = (f.remaining(), f.id());
            shortest = Some(shortest.map_or(key, |s| s.min(key)));
            oldest = Some(oldest.map_or(f.id(), |o| o.min(f.id())));
        }
        prop_assert!(len > 0, "voqs() yielded empty VOQ {:?}", view.voq);
        let (srem, sflow) = shortest.expect("non-empty");
        prop_assert_eq!(view.backlog, backlog, "backlog of {:?}", view.voq);
        prop_assert_eq!(view.len, len, "len of {:?}", view.voq);
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
        prop_assert_eq!(
            view.oldest_flow,
            oldest.expect("non-empty"),
            "oldest flow of {:?}",
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
    fifo: Fifo,
    maxweight: MaxWeight,
    /// `V/N = 2`: dyadic, every key exact.
    fast_dyadic: FastBasrpt,
    /// The paper's `V/N = 2500/144`: non-dyadic, keys round.
    fast_paper: FastBasrpt,
    /// `V/N = 10/3`: non-dyadic with small integer near-ties
    /// (`(10/3)·r − b` for `r` three apart and `b` ten apart).
    fast_thirds: FastBasrpt,
    repflow: RepFlow,
}

impl Warm {
    fn new() -> Self {
        Warm {
            srpt: Srpt::new(),
            fifo: Fifo::new(),
            maxweight: MaxWeight::new(),
            fast_dyadic: FastBasrpt::new(16.0, 8),
            fast_paper: FastBasrpt::new(2500.0, 144),
            fast_thirds: FastBasrpt::new(10.0, 3),
            repflow: RepFlow::default(),
        }
    }

    /// Decides on `table` with every warm instance and asserts each
    /// schedule equals the full scan of a fresh instance.
    fn assert_match_fresh_scans(&mut self, table: &FlowTable) -> Result<(), TestCaseError> {
        assert_warm_agrees(&mut self.srpt, &Srpt::new(), table)?;
        assert_warm_agrees(&mut self.fifo, &Fifo::new(), table)?;
        assert_warm_agrees(&mut self.maxweight, &MaxWeight::new(), table)?;
        assert_warm_agrees(&mut self.fast_dyadic, &FastBasrpt::new(16.0, 8), table)?;
        assert_warm_agrees(&mut self.fast_paper, &FastBasrpt::new(2500.0, 144), table)?;
        assert_warm_agrees(&mut self.fast_thirds, &FastBasrpt::new(10.0, 3), table)?;
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
    table.remove(FlowId::new(2)).unwrap();
    warm.assert_match_fresh_scans(&table).unwrap();
    // ...and refills with a flow that now outranks every other VOQ.
    insert(&mut table, 5, q(0, 2), 1);
    warm.assert_match_fresh_scans(&table).unwrap();
    // Every VOQ empties, then a different set refills.
    for id in [1, 3, 4, 5] {
        table.remove(FlowId::new(id)).unwrap();
        warm.assert_match_fresh_scans(&table).unwrap();
    }
    assert!(table.is_empty());
    insert(&mut table, 6, q(2, 1), 9);
    insert(&mut table, 7, q(0, 1), 9);
    insert(&mut table, 8, q(1, 0), 2);
    warm.assert_match_fresh_scans(&table).unwrap();
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
                assert_paths_agree(Fifo::new(), &table)?;
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
