//! Pins the ordering contract of [`greedy_by_key`] documented on the
//! function: candidates are admitted in ascending `(key, flow id)` order,
//! independent of the order they are presented in, and the full-scan
//! oracle reproduces the exact same admissions. The switch driver's
//! schedule cache (`dcn-switch`) relies on this determinism — a cached
//! schedule is only bit-comparable to a recomputed one if equal keys
//! always break the same way.

use basrpt_core::reference::schedule_scan;
use basrpt_core::{check_maximal, greedy_by_key, Candidate, FlowState, FlowTable, Scheduler, Srpt};
use dcn_types::{FlowId, HostId, Voq};

fn cand(key: f64, id: u64, src: u32, dst: u32) -> Candidate {
    Candidate {
        key,
        flow: FlowId::new(id),
        voq: Voq::new(HostId::new(src), HostId::new(dst)),
    }
}

/// Equal keys across port-disjoint VOQs: both are admitted, and the
/// admission order (which [`Schedule`](basrpt_core::Schedule) equality is
/// sensitive to) is ascending flow id.
#[test]
fn equal_keys_admit_in_flow_id_order() {
    let mut forward = [cand(5.0, 1, 0, 1), cand(5.0, 2, 2, 3)];
    let mut reversed = [cand(5.0, 2, 2, 3), cand(5.0, 1, 0, 1)];
    let a = greedy_by_key(&mut forward);
    let b = greedy_by_key(&mut reversed);
    assert_eq!(a, b, "presentation order must not matter");
    let order: Vec<u64> = a.iter().map(|(id, _)| id.raw()).collect();
    assert_eq!(order, vec![1, 2], "ties break towards the smaller flow id");
}

/// Equal keys on *contending* VOQs: the smaller flow id wins the ports.
#[test]
fn equal_keys_on_contending_voqs_favor_smaller_id() {
    for permutation in [
        [cand(7.0, 10, 0, 2), cand(7.0, 4, 1, 2)],
        [cand(7.0, 4, 1, 2), cand(7.0, 10, 0, 2)],
    ] {
        let mut cands = permutation;
        let schedule = greedy_by_key(&mut cands);
        assert_eq!(schedule.len(), 1, "egress 2 admits one flow");
        let (winner, _) = schedule.iter().next().unwrap();
        assert_eq!(winner, FlowId::new(4), "smaller id wins the tie");
    }
}

/// A negative-zero key sorts *before* positive zero under `total_cmp` —
/// part of the contract (total order over all finite f64s), pinned here so
/// a future switch to `partial_cmp` cannot slip through silently.
#[test]
fn total_cmp_orders_signed_zeros() {
    let mut cands = [cand(0.0, 1, 0, 2), cand(-0.0, 2, 1, 2)];
    let schedule = greedy_by_key(&mut cands);
    let (winner, _) = schedule.iter().next().unwrap();
    assert_eq!(
        winner,
        FlowId::new(2),
        "-0.0 precedes +0.0 in the total order"
    );
}

/// On a real table with many equal-remaining flows, the full-scan oracle
/// must reproduce the direct engine's admissions exactly — including every
/// tie-break — because the differential suites treat them as
/// interchangeable.
#[test]
fn scan_reproduces_direct_tie_breaks() {
    let mut table = FlowTable::new();
    // 12 flows, all remaining = 9 (every SRPT key ties), spread over a
    // 6-port switch with heavy port contention; ids deliberately inserted
    // out of order.
    let placements = [
        (7u64, 0u32, 1u32),
        (3, 0, 2),
        (11, 1, 2),
        (2, 1, 3),
        (9, 2, 3),
        (5, 2, 4),
        (1, 3, 4),
        (8, 3, 5),
        (4, 4, 5),
        (10, 4, 0),
        (6, 5, 0),
        (12, 5, 1),
    ];
    for &(id, src, dst) in &placements {
        table
            .insert(FlowState::new(
                FlowId::new(id),
                Voq::new(HostId::new(src), HostId::new(dst)),
                9,
            ))
            .unwrap();
    }
    let direct = Srpt::new().schedule(&table);
    let scanned = schedule_scan(&Srpt::new(), &table);
    assert_eq!(
        direct, scanned,
        "identical admissions, order included, on an all-ties table"
    );
    check_maximal(&table, &direct).expect("maximal matching");
    // And the winner set is exactly the id-order greedy outcome: flow 1
    // first, then every later id whose ports are still free.
    let order: Vec<u64> = direct.iter().map(|(id, _)| id.raw()).collect();
    assert_eq!(order, vec![1, 2, 3, 4, 6], "ascending-id greedy admission");
}
