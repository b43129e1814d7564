//! Property-based tests for the scheduling core.

use basrpt_core::reference::schedule_scan;
use basrpt_core::{
    check_maximal, ExactBasrpt, FastBasrpt, FlowState, FlowTable, MaxWeight, Scheduler, Srpt,
    ThresholdBacklogSrpt,
};
use dcn_types::{FlowId, HostId, Voq};
use proptest::prelude::*;

/// A randomly generated flow arrival for table construction.
#[derive(Debug, Clone, Copy)]
struct ArbFlow {
    src: u32,
    dst: u32,
    size: u64,
}

fn arb_flow(ports: u32) -> impl Strategy<Value = ArbFlow> {
    (0..ports, 0..ports, 1u64..500).prop_map(|(src, dst, size)| ArbFlow { src, dst, size })
}

fn build_table(flows: &[ArbFlow]) -> FlowTable {
    let mut table = FlowTable::new();
    for (i, f) in flows.iter().enumerate() {
        table
            .insert(FlowState::new(
                FlowId::new(i as u64),
                Voq::new(HostId::new(f.src), HostId::new(f.dst)),
                f.size,
            ))
            .expect("ids are unique by construction");
    }
    table
}

fn all_schedulers(num_ports: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Srpt::new()),
        Box::new(FastBasrpt::new(2500.0, num_ports)),
        Box::new(FastBasrpt::new(1.0, num_ports)),
        Box::new(MaxWeight::new()),
        Box::new(FastBasrpt::new(num_ports as f64, num_ports)),
        Box::new(ThresholdBacklogSrpt::new(100)),
    ]
}

proptest! {
    /// Every discipline produces a valid, maximal crossbar matching.
    #[test]
    fn schedules_are_valid_and_maximal(flows in prop::collection::vec(arb_flow(6), 0..40)) {
        let table = build_table(&flows);
        for mut sched in all_schedulers(6) {
            let s = sched.schedule(&table);
            prop_assert!(check_maximal(&table, &s).is_ok(),
                "{} produced an invalid schedule", sched.name());
        }
    }

    /// Exact BASRPT is valid and maximal on instances within its port limit.
    #[test]
    fn exact_basrpt_valid(flows in prop::collection::vec(arb_flow(4), 0..12),
                          v in 0.0f64..1e4) {
        let table = build_table(&flows);
        let s = ExactBasrpt::new(v).try_schedule(&table).unwrap();
        prop_assert!(check_maximal(&table, &s).is_ok());
    }

    /// The exact scheduler's objective never exceeds fast BASRPT's: fast
    /// BASRPT's schedule is itself maximal, hence inside the exact search
    /// space.
    #[test]
    fn exact_no_worse_than_fast(flows in prop::collection::vec(arb_flow(4), 1..12),
                                v in 0.0f64..1e4) {
        let table = build_table(&flows);
        let objective = |s: &basrpt_core::Schedule| -> f64 {
            if s.is_empty() { return 0.0; }
            let sizes: f64 = s
                .flow_ids()
                .map(|id| table.get(id).unwrap().remaining() as f64)
                .sum();
            let backlog: f64 = s
                .iter()
                .map(|(_, voq)| table.voq_backlog(voq) as f64)
                .sum();
            v * sizes / s.len() as f64 - backlog
        };
        let exact = ExactBasrpt::new(v).try_schedule(&table).unwrap();
        let fast = FastBasrpt::new(v, 4).schedule(&table);
        prop_assert!(objective(&exact) <= objective(&fast) + 1e-6,
            "exact {} > fast {}", objective(&exact), objective(&fast));
    }

    /// As V grows unboundedly, fast BASRPT's decision converges to SRPT's.
    /// Sizes are made pairwise distinct: with ties in remaining size the two
    /// disciplines may legitimately tie-break differently at any finite V.
    #[test]
    fn fast_basrpt_limits(flows in prop::collection::vec(arb_flow(6), 0..30)) {
        let flows: Vec<ArbFlow> = flows
            .into_iter()
            .enumerate()
            .map(|(i, f)| ArbFlow { size: f.size * 64 + i as u64, ..f })
            .collect();
        let table = build_table(&flows);
        let srpt: Vec<_> = Srpt::new().schedule(&table).flow_ids().collect();
        let huge_v: Vec<_> = FastBasrpt::new(1e15, 6).schedule(&table).flow_ids().collect();
        prop_assert_eq!(srpt, huge_v);

        let mw: Vec<_> = MaxWeight::new().schedule(&table).flow_ids().collect();
        let zero_v: Vec<_> = FastBasrpt::new(0.0, 6).schedule(&table).flow_ids().collect();
        prop_assert_eq!(mw, zero_v);
    }

    /// Stateless disciplines are deterministic: same table, same schedule.
    #[test]
    fn scheduling_is_deterministic(flows in prop::collection::vec(arb_flow(6), 0..30)) {
        let table = build_table(&flows);
        for mk in [
            || Box::new(Srpt::new()) as Box<dyn Scheduler>,
            || Box::new(FastBasrpt::new(2500.0, 6)) as Box<dyn Scheduler>,
        ] {
            let a: Vec<_> = mk().schedule(&table).flow_ids().collect();
            let b: Vec<_> = mk().schedule(&table).flow_ids().collect();
            prop_assert_eq!(a, b);
        }
    }

    /// Random interleavings of insert/drain/remove preserve every table
    /// invariant, and drains conserve units.
    #[test]
    fn table_ops_preserve_invariants(
        flows in prop::collection::vec(arb_flow(5), 1..25),
        ops in prop::collection::vec((0usize..25, 1u64..600), 0..60),
    ) {
        let mut table = build_table(&flows);
        let initial = table.total_backlog();
        let mut drained_total = 0u64;
        for (raw_idx, units) in ops {
            let id = FlowId::new((raw_idx % flows.len()) as u64);
            if table.get(id).is_some() {
                let out = table.drain(id, units).unwrap();
                drained_total += out.drained;
                prop_assert!(out.drained <= units);
            }
            table.check_invariants().map_err(TestCaseError::fail)?;
        }
        prop_assert_eq!(initial, table.total_backlog() + drained_total);
    }

    /// The literal all-flows Algorithm 1 and the optimized per-VOQ-head
    /// scheduler make identical decisions, for SRPT and for fast BASRPT at
    /// every V.
    #[test]
    fn literal_reference_matches_optimized(
        flows in prop::collection::vec(arb_flow(6), 0..40),
        v in 0.0f64..1e4,
    ) {
        let table = build_table(&flows);
        let lit_srpt: Vec<_> =
            basrpt_core::reference::srpt_all_flows(&table).flow_ids().collect();
        let opt_srpt: Vec<_> = Srpt::new().schedule(&table).flow_ids().collect();
        prop_assert_eq!(lit_srpt, opt_srpt);

        let lit_fb: Vec<_> = basrpt_core::reference::fast_basrpt_all_flows(&table, v, 6)
            .flow_ids()
            .collect();
        let opt_fb: Vec<_> = FastBasrpt::new(v, 6).schedule(&table).flow_ids().collect();
        prop_assert_eq!(lit_fb, opt_fb);
    }

    /// One-pass schedulers stay **bit-identical** to the full-scan oracle,
    /// and maximal, across random arrival/drain/removal traces, for every
    /// discipline the oracle ranks. The table's champion index is carried
    /// across the whole trace, so its repairs are exercised too.
    #[test]
    fn one_pass_matches_scan_on_traces(
        flows in prop::collection::vec(arb_flow(6), 0..16),
        ops in prop::collection::vec((0usize..4, arb_flow(6), 1u64..600), 0..50),
    ) {
        let mut table = build_table(&flows);
        let mut live: Vec<u64> = (0..flows.len() as u64).collect();
        let mut next_id = flows.len() as u64;

        macro_rules! check_one {
            ($discipline:expr) => {
                let one_pass = $discipline.schedule(&table);
                let scanned = schedule_scan(&$discipline, &table);
                prop_assert_eq!(&one_pass, &scanned, "{}", Scheduler::name(&$discipline));
                check_maximal(&table, &one_pass).map_err(TestCaseError::fail)?;
            };
        }
        macro_rules! check_all {
            () => {
                check_one!(Srpt::new());
                check_one!(FastBasrpt::new(2500.0, 6));
                check_one!(MaxWeight::new());
                check_one!(FastBasrpt::new(6.0, 6));
                check_one!(ThresholdBacklogSrpt::new(100));
            };
        }

        check_all!();
        for (op, f, units) in ops {
            match op {
                // Bias towards arrivals so queues build up.
                0 | 1 => {
                    table
                        .insert(FlowState::new(
                            FlowId::new(next_id),
                            Voq::new(HostId::new(f.src), HostId::new(f.dst)),
                            f.size,
                        ))
                        .expect("fresh ids never collide");
                    live.push(next_id);
                    next_id += 1;
                }
                2 if !live.is_empty() => {
                    let pick = (units as usize) % live.len();
                    let id = FlowId::new(live[pick]);
                    let out = table.drain(id, units).expect("picked a live flow");
                    if out.completed.is_some() {
                        live.swap_remove(pick);
                    }
                }
                3 if !live.is_empty() => {
                    let pick = (f.size as usize) % live.len();
                    let id = FlowId::new(live[pick]);
                    table.remove(id).expect("picked a live flow");
                    live.swap_remove(pick);
                }
                _ => {}
            }
            check_all!();
        }
    }

    /// A schedule never assigns two flows to one port in either direction
    /// (redundant with `Schedule`'s constructor guarantee, but checked
    /// end-to-end through every discipline).
    #[test]
    fn no_port_reuse(flows in prop::collection::vec(arb_flow(5), 0..30)) {
        let table = build_table(&flows);
        for mut sched in all_schedulers(5) {
            let s = sched.schedule(&table);
            let srcs: Vec<_> = s.iter().map(|(_, q)| q.src()).collect();
            let dsts: Vec<_> = s.iter().map(|(_, q)| q.dst()).collect();
            let mut s2 = srcs.clone();
            s2.sort_unstable();
            s2.dedup();
            prop_assert_eq!(srcs.len(), s2.len());
            let mut d2 = dsts.clone();
            d2.sort_unstable();
            d2.dedup();
            prop_assert_eq!(dsts.len(), d2.len());
        }
    }
}
