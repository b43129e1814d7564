//! Property tests for the champion index: random arrival / drain /
//! completion / removal scripts (with aggressive flow-id reuse) must
//! leave every per-VOQ champion equal to a from-scratch scan of the
//! table, tie-breaks included, and every key-driven discipline's
//! schedule equal to its full-scan twin's.
//!
//! The tie-break contract under test is the one `tests/tie_break.rs`
//! pins directly: within a VOQ the shortest flow wins with the smaller
//! `FlowId` breaking remaining-size ties, the oldest flow is the
//! smallest id, and across VOQs `greedy_by_key` admits in ascending
//! `(key, flow id)` order.

use basrpt_core::reference::{schedule_scan, ScanScheduler, VoqDiscipline};
use basrpt_core::{
    check_maximal, FastBasrpt, Fifo, FlowState, FlowTable, MaxWeight, Scheduler, Srpt,
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

proptest! {
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
