//! Table I — average and 99th-percentile FCT (ms) for queries and
//! background flows: SRPT vs fast BASRPT (V = 2500) at saturating load,
//! plus the classical baselines the paper compares against — max-min
//! fair share (per-flow fairness, the TCP ideal), single-path ECMP SRPT
//! over the striped core planes, and RepFlow-style replication of
//! sub-100 KB flows across planes.
//!
//! The paper reports that at ~9.5 Gbps per port the fast BASRPT query FCT
//! stays below 2× SRPT's average and 4× its 99th percentile, while
//! background flows are essentially unaffected and the global throughput
//! improves. The `V` parameter is mapped to the paper-equivalent per-flow
//! weight `V/144` when the fabric is scaled down (see
//! `basrpt_bench::paper_equivalent_fast_basrpt`).

use basrpt_bench::{
    paper_equivalent_fast_basrpt, run_fabric_with, run_seeds, seeds_from_env, Scale, SeedStats,
    FCT_BASE_LATENCY_US,
};
use basrpt_core::{RepFlow, Srpt};
use dcn_fabric::{
    simulate_ecmp, simulate_fair_share, simulate_repflow, FabricRun, FatTree, SimConfig, Topology,
};
use dcn_metrics::TextTable;
use dcn_types::{FlowClass, SimTime};
use dcn_workload::TrafficSpec;

/// The seed the recorded single-run numbers were produced with.
const DEFAULT_SEED: u64 = 7;

/// One baseline row: a full engine invocation rather than a crossbar
/// scheduler, so the list can range over the non-crossbar fair-share and
/// RepFlow engines alongside the matched disciplines.
type RunRow = fn(&FatTree, &TrafficSpec, u64, SimConfig) -> FabricRun;

fn row_srpt(topo: &FatTree, spec: &TrafficSpec, seed: u64, cfg: SimConfig) -> FabricRun {
    run_fabric_with(topo, spec, &mut Srpt::new(), seed, cfg)
}

fn row_fast_basrpt(topo: &FatTree, spec: &TrafficSpec, seed: u64, cfg: SimConfig) -> FabricRun {
    let mut sched = paper_equivalent_fast_basrpt(2500.0, topo.num_hosts() as usize);
    run_fabric_with(topo, spec, &mut sched, seed, cfg)
}

fn row_fair_share(topo: &FatTree, spec: &TrafficSpec, seed: u64, cfg: SimConfig) -> FabricRun {
    simulate_fair_share(topo, spec.generator(seed).expect("valid spec"), cfg)
        .expect("valid simulation")
}

/// Single-path routing: each flow is hashed onto one of the fabric's
/// striped core planes and filtered against that plane's budget alone.
fn row_ecmp_srpt(topo: &FatTree, spec: &TrafficSpec, seed: u64, cfg: SimConfig) -> FabricRun {
    let mut cfg = cfg;
    cfg.enforce_core_capacity = true;
    simulate_ecmp(
        topo,
        &mut Srpt::new(),
        spec.generator(seed).expect("valid spec"),
        cfg,
    )
    .expect("valid simulation")
}

/// ECMP plus RepFlow replication: flows under 100 KB race a duplicate on
/// an alternate plane; the recorded FCT is the first copy to finish.
fn row_repflow(topo: &FatTree, spec: &TrafficSpec, seed: u64, cfg: SimConfig) -> FabricRun {
    let mut cfg = cfg;
    cfg.enforce_core_capacity = true;
    simulate_repflow(
        topo,
        &mut RepFlow::default(),
        spec.generator(seed).expect("valid spec"),
        cfg,
    )
    .expect("valid simulation")
    .run
}

/// The rows of the extended Table I. SRPT and fast BASRPT stay first so
/// the headline ratio below keeps its meaning.
fn baseline_rows() -> Vec<(&'static str, RunRow)> {
    vec![
        ("SRPT", row_srpt),
        ("fast BASRPT (V=2500)", row_fast_basrpt),
        ("max-min fair share", row_fair_share),
        ("ECMP SRPT (single path)", row_ecmp_srpt),
        ("RepFlow (<100 KB x2)", row_repflow),
    ]
}

/// Multi-seed variant: every metric as `mean ± CI95` over the sweep, one
/// simulation per (scheduler, seed) fanned out across cores.
fn seed_sweep(scale: Scale, seeds: &[u64]) {
    let topo = scale.topology();
    let spec = scale.spec(scale.saturating_load()).expect("valid load");
    let horizon = scale.fct_horizon();

    println!(
        "seed sweep over {} seeds {seeds:?}, {} worker threads\n",
        seeds.len(),
        basrpt_bench::threads_from_env().min(seeds.len())
    );
    let mut table = TextTable::new(vec![
        "scheme".into(),
        "query avg".into(),
        "query p99".into(),
        "bg avg".into(),
        "bg p99".into(),
        "throughput (Gbps)".into(),
    ]);
    for (label, row) in baseline_rows() {
        let runs = run_seeds(seeds, |seed| {
            let config = SimConfig::builder()
                .horizon(horizon)
                .base_latency(SimTime::from_micros(FCT_BASE_LATENCY_US))
                .build();
            row(&topo, &spec, seed, config)
        });
        let metric = |f: &dyn Fn(&dcn_fabric::FabricRun) -> f64| -> Vec<f64> {
            runs.iter().map(|(_, run)| f(run)).collect()
        };
        let q_avg = SeedStats::from_samples(&metric(&|r| {
            r.fct
                .summary(FlowClass::Query)
                .expect("queries finish")
                .mean_ms()
        }));
        let q_p99 = SeedStats::from_samples(&metric(&|r| {
            r.fct
                .summary(FlowClass::Query)
                .expect("queries finish")
                .p99_ms()
        }));
        let b_avg = SeedStats::from_samples(&metric(&|r| {
            r.fct
                .summary(FlowClass::Background)
                .expect("background finishes")
                .mean_ms()
        }));
        let b_p99 = SeedStats::from_samples(&metric(&|r| {
            r.fct
                .summary(FlowClass::Background)
                .expect("background finishes")
                .p99_ms()
        }));
        let tput = SeedStats::from_samples(&metric(&|r| r.average_throughput().gbps()));
        table.add_row(vec![
            label.to_string(),
            q_avg.display(3),
            q_p99.display(3),
            b_avg.display(2),
            b_p99.display(1),
            tput.display(1),
        ]);
    }
    println!("{table}");
}

fn main() {
    let scale = Scale::from_env();
    println!("== Table I: FCT (ms), SRPT vs fast BASRPT (V = 2500) ==");
    println!(
        "{scale}, load {:.0}%, latency floor {FCT_BASE_LATENCY_US} us\n",
        scale.saturating_load() * 100.0
    );

    let seeds = seeds_from_env(DEFAULT_SEED);
    if seeds.len() > 1 {
        seed_sweep(scale, &seeds);
        return;
    }

    let topo = scale.topology();
    let spec = scale.spec(scale.saturating_load()).expect("valid load");
    let horizon = scale.fct_horizon();

    let mut table = TextTable::new(vec![
        "scheme".into(),
        "query avg".into(),
        "query p99".into(),
        "bg avg".into(),
        "bg p99".into(),
        "throughput (Gbps)".into(),
        "completions".into(),
    ]);

    let mut summaries = Vec::new();
    for (label, row) in baseline_rows() {
        let config = SimConfig::builder()
            .horizon(horizon)
            .base_latency(SimTime::from_micros(FCT_BASE_LATENCY_US))
            .build();
        let run = row(&topo, &spec, DEFAULT_SEED, config);
        let q = run.fct.summary(FlowClass::Query).expect("queries finish");
        let b = run
            .fct
            .summary(FlowClass::Background)
            .expect("background finishes");
        table.add_row(vec![
            label.to_string(),
            format!("{:.3}", q.mean_ms()),
            format!("{:.3}", q.p99_ms()),
            format!("{:.2}", b.mean_ms()),
            format!("{:.1}", b.p99_ms()),
            format!("{:.1}", run.average_throughput().gbps()),
            format!("{}", run.completions),
        ]);
        summaries.push((label.to_string(), q, b, run.average_throughput()));
    }
    println!("{table}");

    let (_, q_srpt, b_srpt, t_srpt) = &summaries[0];
    let (_, q_fb, b_fb, t_fb) = &summaries[1];
    println!("ratios (fast BASRPT / SRPT):");
    println!(
        "  query avg {:.2}x, query p99 {:.2}x, bg avg {:.2}x, bg p99 {:.2}x, throughput {:+.1} Gbps",
        q_fb.mean_ms() / q_srpt.mean_ms(),
        q_fb.p99_ms() / q_srpt.p99_ms(),
        b_fb.mean_ms() / b_srpt.mean_ms(),
        b_fb.p99_ms() / b_srpt.p99_ms(),
        t_fb.gbps() - t_srpt.gbps()
    );
    println!(
        "paper: query avg < 2x, query p99 < 4x, background ~ SRPT, throughput higher.\n\
         note: FCTs include the {FCT_BASE_LATENCY_US} us propagation floor. Our SRPT query\n\
         baseline is still lower than the paper's (the flow-level engine has no\n\
         per-packet queueing), so the query ratios run higher than the paper's\n\
         <2x / <4x while the absolute fast-BASRPT FCTs remain in the paper's\n\
         millisecond range; the background and throughput shapes match."
    );
    println!(
        "baselines: max-min fair share spreads capacity evenly, so queries queue\n\
         behind background flows; ECMP hashes each flow onto one striped core\n\
         plane (collisions serialize); RepFlow additionally races a duplicate of\n\
         every sub-100 KB flow on an alternate plane and keeps the first copy."
    );
}
