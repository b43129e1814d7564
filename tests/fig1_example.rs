//! Integration test: the paper's Fig. 1 walk-through, driven end to end
//! through the facade crate (workload → slotted switch → schedulers).

use basrpt::core::{ExactBasrpt, FastBasrpt, MaxWeight, Scheduler, Srpt};
use basrpt::switch::fig1;

#[test]
fn srpt_strands_a_packet_where_basrpt_does_not() {
    let srpt = fig1::run_fig1(&mut Srpt::new());
    assert_eq!(srpt.leftover_packets, 1);
    assert_eq!(srpt.delivered_packets, fig1::TOTAL_PACKETS - 1);

    let exact = fig1::run_fig1(&mut ExactBasrpt::new(0.8));
    assert_eq!(exact.leftover_packets, 0);
    assert_eq!(exact.delivered_packets, fig1::TOTAL_PACKETS);
}

#[test]
fn fig1b_srpt_schedule_matches_the_paper_slot_by_slot() {
    // SRPT: slot 1 = f2, slot 2 = f3, slots 3-6 = f1 (4 of 5 packets).
    let run = fig1::run_fig1(&mut Srpt::new());
    // The two 1-packet flows complete in their first eligible slot.
    let mut one_pkt: Vec<(u64, u64)> = run
        .completions
        .iter()
        .filter(|c| c.size == 1)
        .map(|c| (c.arrival.index(), c.completion.index()))
        .collect();
    one_pkt.sort_unstable();
    assert_eq!(one_pkt, vec![(1, 1), (2, 2)]);
    // f1 never completes.
    assert!(run.completions.iter().all(|c| c.size == 1));
}

#[test]
fn fig1c_backlog_aware_schedule_matches_the_paper() {
    let run = fig1::run_fig1(&mut ExactBasrpt::new(0.8));
    // f1 completes exactly at the end of the 6-slot horizon.
    let f1 = run.completions.iter().find(|c| c.size == 5).unwrap();
    assert_eq!(f1.fct_slots(), 6);
    // The two shorts share slot 2.
    let shorts: Vec<u64> = run
        .completions
        .iter()
        .filter(|c| c.size == 1)
        .map(|c| c.completion.index())
        .collect();
    assert_eq!(shorts, vec![2, 2]);
}

#[test]
fn every_stable_discipline_clears_the_example() {
    let disciplines: Vec<Box<dyn Scheduler>> = vec![
        Box::new(ExactBasrpt::new(0.8)),
        Box::new(FastBasrpt::new(0.8, 4)),
        Box::new(MaxWeight::new()),
        Box::new(FastBasrpt::new(4.0, 4)),
    ];
    for mut d in disciplines {
        let run = fig1::run_fig1(d.as_mut());
        assert_eq!(
            run.leftover_packets,
            0,
            "{} should clear all packets",
            d.name()
        );
    }
}

#[test]
fn exact_basrpt_outside_the_window_degenerates() {
    // V >= 1 makes slot 1 go to f2 (SRPT-like): the example then strands a
    // packet exactly as SRPT does.
    let run = fig1::run_fig1(&mut ExactBasrpt::new(50.0));
    assert_eq!(run.leftover_packets, 1);
}
