//! Golden regression snapshots for the single-seed Fig. 2 and Table I
//! experiment pipelines.
//!
//! Both simulators are seeded and deterministic ("rerunning any bench
//! reproduces the numbers bit-for-bit on the same toolchain" —
//! EXPERIMENTS.md), so the exact outputs of the experiment configurations
//! can be pinned as in-repo fixtures: any refactor that silently perturbs
//! the workload generator, the engine's drain accounting, a discipline's
//! key, or the metrics pipeline trips these assertions instead of quietly
//! shifting recorded results.
//!
//! The fixtures use the *default-scale* fabric and workload exactly as the
//! `fig2` / `table1` benches construct them (16-host fat-tree, same loads,
//! same seeds, same latency floor) with reduced horizons: debug-mode
//! simulation costs ~12 wall-seconds per simulated second at this scale,
//! so the benches' 25 s / 8 s horizons would take ~13 minutes of test
//! time; 1.0 s and 0.5 s keep the whole file around a minute while
//! exercising the identical pipeline (hundreds of thousands of events).
//!
//! To regenerate after an *intentional* behaviour change, run
//!
//! ```sh
//! BASRPT_GOLDEN_PRINT=1 cargo test --test figure_golden -- --nocapture
//! ```
//!
//! and paste the printed fixture blocks over the constants below.

use basrpt::core::{Scheduler, Srpt, ThresholdBacklogSrpt};
use basrpt::fabric::{FabricRun, SimConfig, Topology};
use basrpt::types::{FlowClass, SimTime};
use basrpt_bench::{paper_equivalent_fast_basrpt, run_fabric_with, Scale, FCT_BASE_LATENCY_US};

/// One discipline's pinned observables.
#[derive(Debug, PartialEq)]
struct Golden {
    arrivals: usize,
    completions: usize,
    arrived_bytes: u64,
    delivered_bytes: u64,
    leftover_bytes: u64,
    /// Final sample of the fabric-wide backlog series, as exact f64 bits.
    final_total_backlog_bits: u64,
    /// Mean background-flow FCT in seconds, as exact f64 bits.
    bg_mean_fct_bits: u64,
    /// Mean query-flow FCT in seconds, as exact f64 bits — the
    /// query/background split is Table I's entire point, and Fig. 2 uses
    /// the same two-class workload.
    query_mean_fct_bits: u64,
}

fn golden_of(run: &FabricRun) -> Golden {
    Golden {
        arrivals: run.arrivals,
        completions: run.completions,
        arrived_bytes: run.arrived_bytes.as_u64(),
        delivered_bytes: run.throughput.delivered().as_u64(),
        leftover_bytes: run.leftover_bytes.as_u64(),
        final_total_backlog_bits: run
            .total_backlog
            .values()
            .last()
            .copied()
            .unwrap_or(0.0)
            .to_bits(),
        bg_mean_fct_bits: run
            .fct
            .summary(FlowClass::Background)
            .expect("background flows complete")
            .mean_secs
            .to_bits(),
        query_mean_fct_bits: run
            .fct
            .summary(FlowClass::Query)
            .expect("query flows complete")
            .mean_secs
            .to_bits(),
    }
}

fn print_fixture(label: &str, g: &Golden) {
    println!(
        "const {label}: Golden = Golden {{\n    \
         arrivals: {},\n    completions: {},\n    arrived_bytes: {},\n    \
         delivered_bytes: {},\n    leftover_bytes: {},\n    \
         final_total_backlog_bits: 0x{:016x},\n    \
         bg_mean_fct_bits: 0x{:016x},\n    \
         query_mean_fct_bits: 0x{:016x},\n}};",
        g.arrivals,
        g.completions,
        g.arrived_bytes,
        g.delivered_bytes,
        g.leftover_bytes,
        g.final_total_backlog_bits,
        g.bg_mean_fct_bits,
        g.query_mean_fct_bits,
    );
}

fn harvesting() -> bool {
    std::env::var("BASRPT_GOLDEN_PRINT").is_ok()
}

fn check(label: &str, const_name: &str, run: &FabricRun, expected: &Golden) {
    let actual = golden_of(run);
    if harvesting() {
        print_fixture(const_name, &actual);
        return;
    }
    assert_eq!(
        &actual, expected,
        "{label}: run deviates from the pinned fixture — if the change is \
         intentional, regenerate with BASRPT_GOLDEN_PRINT=1 (see module doc)"
    );
}

// === Fig. 2 pipeline: seed 1, 92 % load, default-scale fabric ===========

const FIG2_SRPT: Golden = Golden {
    arrivals: 101305,
    completions: 101168,
    arrived_bytes: 18479075223,
    delivered_bytes: 16697548300,
    leftover_bytes: 1781526923,
    final_total_backlog_bits: 0x41da8bfc62c00000,
    bg_mean_fct_bits: 0x3f7d7025c9e84d19,
    query_mean_fct_bits: 0x3ef29c6630942373,
};

const FIG2_THRESHOLD: Golden = Golden {
    arrivals: 101305,
    completions: 99715,
    arrived_bytes: 18479075223,
    delivered_bytes: 16795570167,
    leftover_bytes: 1683505056,
    final_total_backlog_bits: 0x41d9160fe8000000,
    bg_mean_fct_bits: 0x3f80ab1281126b7f,
    query_mean_fct_bits: 0x3f6569009f395575,
};

/// The Fig.-2 single-seed configuration (seed 1, 0.92 load, 50 MB
/// threshold), horizon reduced to 1.0 s as explained in the module doc.
#[test]
fn fig2_single_seed_outputs_are_pinned() {
    let scale = Scale::Default;
    let topo = scale.topology();
    let spec = scale.spec(0.92).expect("valid load");
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(1.0))
        .build();
    let cases: Vec<(&str, &str, Box<dyn Scheduler>, &Golden)> = vec![
        ("fig2/srpt", "FIG2_SRPT", Box::new(Srpt::new()), &FIG2_SRPT),
        (
            "fig2/threshold",
            "FIG2_THRESHOLD",
            Box::new(ThresholdBacklogSrpt::new(50_000_000)),
            &FIG2_THRESHOLD,
        ),
    ];
    for (label, const_name, mut sched, expected) in cases {
        let run = run_fabric_with(&topo, &spec, sched.as_mut(), 1, config);
        check(label, const_name, &run, expected);
    }
}

// === Table I pipeline: seed 7, 95 % load, 100 µs latency floor ==========

const TABLE1_SRPT: Golden = Golden {
    arrivals: 52246,
    completions: 52142,
    arrived_bytes: 8915253285,
    delivered_bytes: 7859119933,
    leftover_bytes: 1056133352,
    final_total_backlog_bits: 0x41cf79a874000000,
    bg_mean_fct_bits: 0x3f74fe5c3a7c70dd,
    query_mean_fct_bits: 0x3f1ee2c235c7cefe,
};

const TABLE1_FAST_BASRPT: Golden = Golden {
    arrivals: 52246,
    completions: 52104,
    arrived_bytes: 8915253285,
    delivered_bytes: 7894239957,
    leftover_bytes: 1021013328,
    final_total_backlog_bits: 0x41ce6db6a8000000,
    bg_mean_fct_bits: 0x3f745f0bed113eef,
    query_mean_fct_bits: 0x3f324a689659c7e8,
};

/// The Table-I single-seed configuration (seed 7, saturating load,
/// paper-equivalent V = 2500), horizon reduced to 0.5 s.
#[test]
fn table1_single_seed_outputs_are_pinned() {
    let scale = Scale::Default;
    let topo = scale.topology();
    let spec = scale.spec(scale.saturating_load()).expect("valid load");
    let n = topo.num_hosts() as usize;
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.5))
        .base_latency(SimTime::from_micros(FCT_BASE_LATENCY_US))
        .build();
    let cases: Vec<(&str, &str, Box<dyn Scheduler>, &Golden)> = vec![
        (
            "table1/srpt",
            "TABLE1_SRPT",
            Box::new(Srpt::new()),
            &TABLE1_SRPT,
        ),
        (
            "table1/fast_basrpt",
            "TABLE1_FAST_BASRPT",
            Box::new(paper_equivalent_fast_basrpt(2500.0, n)),
            &TABLE1_FAST_BASRPT,
        ),
    ];
    for (label, const_name, mut sched, expected) in cases {
        let run = run_fabric_with(&topo, &spec, sched.as_mut(), 7, config);
        check(label, const_name, &run, expected);
    }
}
