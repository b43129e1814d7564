//! Fig. 2 — queue length at a port: SRPT grows without bound at a load
//! inside capacity; the simple threshold backlog-aware strategy stabilizes.
//!
//! Two parts:
//!
//! 1. the paper's setup — the fat-tree fabric under the measured traffic
//!    pattern at ~92 % per-port load (9.2 Gbps of 10 Gbps), comparing SRPT
//!    against the threshold strategy, with the max-min fair-share and
//!    RepFlow replication baselines run under the same load for context;
//! 2. a deterministic witness — the two-bottleneck starvation gadget where
//!    SRPT's growth rate is analytically ~97 MB/s, removing any doubt that
//!    part 1's growth is a transient.

use basrpt_bench::{run_fabric, run_seeds, seeds_from_env, Scale, SeedStats};
use basrpt_core::{RepFlow, Scheduler, Srpt, ThresholdBacklogSrpt};
use dcn_fabric::{
    simulate, simulate_fair_share, simulate_repflow, FabricRun, FatTree, SimConfig, Topology,
};
use dcn_metrics::{StabilityVerdict, TextTable, TrendConfig};
use dcn_types::SimTime;
use dcn_workload::{StarvationScript, TrafficSpec};

/// The seed the recorded single-run numbers were produced with.
const DEFAULT_SEED: u64 = 1;

/// A stability row: one full engine run at (threshold, seed, horizon), so
/// the comparison can include the non-crossbar fair-share and RepFlow
/// baselines alongside the crossbar disciplines.
type RunRow = fn(&FatTree, &TrafficSpec, u64, u64, SimTime) -> FabricRun;

fn row_srpt(
    topo: &FatTree,
    spec: &TrafficSpec,
    _thr: u64,
    seed: u64,
    horizon: SimTime,
) -> FabricRun {
    run_fabric(topo, spec, &mut Srpt::new(), seed, horizon)
}

fn row_threshold(
    topo: &FatTree,
    spec: &TrafficSpec,
    thr: u64,
    seed: u64,
    horizon: SimTime,
) -> FabricRun {
    run_fabric(
        topo,
        spec,
        &mut ThresholdBacklogSrpt::new(thr),
        seed,
        horizon,
    )
}

fn row_fair_share(
    topo: &FatTree,
    spec: &TrafficSpec,
    _thr: u64,
    seed: u64,
    horizon: SimTime,
) -> FabricRun {
    let cfg = SimConfig::builder().horizon(horizon).build();
    simulate_fair_share(topo, spec.generator(seed).expect("valid spec"), cfg)
        .expect("valid simulation")
}

fn row_repflow(
    topo: &FatTree,
    spec: &TrafficSpec,
    _thr: u64,
    seed: u64,
    horizon: SimTime,
) -> FabricRun {
    let cfg = SimConfig::builder()
        .horizon(horizon)
        .enforce_core_capacity(true)
        .build();
    simulate_repflow(
        topo,
        &mut RepFlow::default(),
        spec.generator(seed).expect("valid spec"),
        cfg,
    )
    .expect("valid simulation")
    .run
}

/// The part-1 comparison set: the paper's SRPT-vs-threshold pair plus the
/// fair-share and RepFlow baselines under the same saturating load.
fn stability_rows() -> Vec<(&'static str, RunRow)> {
    vec![
        ("SRPT", row_srpt),
        ("threshold backlog-aware SRPT", row_threshold),
        ("max-min fair share", row_fair_share),
        ("RepFlow (<100 KB x2)", row_repflow),
    ]
}

fn print_series(label: &str, series: &dcn_metrics::TimeSeries) {
    let s = series.downsample(12);
    let pts: Vec<String> = s
        .times()
        .iter()
        .zip(s.values())
        .map(|(t, v)| format!("{t:.1}s:{:.0}MB", v / 1e6))
        .collect();
    println!("  {label:32} {}", pts.join("  "));
}

/// Multi-seed variant of part 1: verdicts counted over seeds, scalar
/// metrics reported as `mean ± CI95`, one simulation per (scheduler, seed)
/// fanned out across cores.
fn part1_seed_sweep(scale: Scale, seeds: &[u64]) {
    println!("-- part 1: measured traffic pattern at 92% load --\n");
    let topo = scale.topology();
    let spec = scale.spec(0.92).expect("valid load");
    let horizon = scale.stability_horizon();
    let threshold = 50_000_000u64;

    println!(
        "seed sweep over {} seeds {seeds:?}, {} worker threads\n",
        seeds.len(),
        basrpt_bench::threads_from_env().min(seeds.len())
    );
    let mut table = TextTable::new(vec![
        "scheduler".into(),
        "unstable seeds".into(),
        "trend (MB/s)".into(),
        "final port queue (MB)".into(),
        "throughput (Gbps)".into(),
        "leftover (GB)".into(),
    ]);
    for (label, row) in stability_rows() {
        let runs = run_seeds(seeds, |seed| row(&topo, &spec, threshold, seed, horizon));
        let reports: Vec<_> = runs
            .iter()
            .map(|(_, run)| run.monitored_port_stability(TrendConfig::default()))
            .collect();
        let unstable = reports
            .iter()
            .filter(|st| st.verdict != StabilityVerdict::Stable)
            .count();
        let stat = |f: &dyn Fn(usize) -> f64| {
            SeedStats::from_samples(&(0..runs.len()).map(f).collect::<Vec<_>>())
        };
        table.add_row(vec![
            label.to_string(),
            format!("{unstable}/{}", runs.len()),
            stat(&|i| reports[i].slope_per_sec / 1e6).display(1),
            stat(&|i| reports[i].last_value / 1e6).display(0),
            stat(&|i| runs[i].1.average_throughput().gbps()).display(1),
            stat(&|i| runs[i].1.leftover_bytes.as_f64() / 1e9).display(2),
        ]);
    }
    println!("{table}");
}

fn part1_measured_traffic(scale: Scale) {
    println!("-- part 1: measured traffic pattern at 92% load --\n");
    let topo = scale.topology();
    let spec = scale.spec(0.92).expect("valid load");
    let horizon = scale.stability_horizon();
    // The threshold is scaled to the stable queue level observed at this
    // fabric size (50 MB per VOQ at default scale).
    let threshold = 50_000_000u64;

    let mut table = TextTable::new(vec![
        "scheduler".into(),
        "port queue verdict".into(),
        "trend (MB/s)".into(),
        "final port queue (MB)".into(),
        "throughput (Gbps)".into(),
        "leftover (GB)".into(),
    ]);
    let mut series = Vec::new();
    for (label, row) in stability_rows() {
        let run = row(&topo, &spec, threshold, DEFAULT_SEED, horizon);
        let st = run.monitored_port_stability(TrendConfig::default());
        table.add_row(vec![
            label.to_string(),
            st.verdict.to_string(),
            format!("{:+.1}", st.slope_per_sec / 1e6),
            format!("{:.0}", st.last_value / 1e6),
            format!("{:.1}", run.average_throughput().gbps()),
            format!("{:.2}", run.leftover_bytes.as_f64() / 1e9),
        ]);
        series.push((label.to_string(), run.monitored_port_backlog));
    }
    println!("{table}");
    println!("queue-length series (time:port-backlog):");
    for (label, s) in &series {
        print_series(label, s);
    }
    println!();
}

fn part2_deterministic_witness() {
    println!("-- part 2: deterministic starvation gadget (2 bottlenecks) --\n");
    let topo = FatTree::scaled(1, 4, 1).expect("valid");
    let script = || StarvationScript::with_defaults(topo.edge_rate()).expect("valid");
    let horizon = SimTime::from_secs(3.0);
    let mut table = TextTable::new(vec![
        "scheduler".into(),
        "A-port queue trend (MB/s)".into(),
        "leftover (MB)".into(),
    ]);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Srpt::new()),
        Box::new(ThresholdBacklogSrpt::new(15_000_000)),
    ];
    for mut sched in schedulers {
        let config = SimConfig::builder().horizon(horizon).build();
        let run = simulate(&topo, sched.as_mut(), script(), config).expect("valid simulation");
        let slope = run.monitored_port_backlog.slope().unwrap_or(0.0);
        table.add_row(vec![
            sched.name().to_string(),
            format!("{:+.1}", slope / 1e6),
            format!("{:.1}", run.leftover_bytes.as_f64() / 1e6),
        ]);
    }
    println!("{table}");
    println!("analytic SRPT growth rate for the gadget: ~97 MB/s.");
}

fn main() {
    let scale = Scale::from_env();
    println!("== Fig. 2: per-port queue evolution, SRPT vs backlog-aware ==");
    println!("{scale}\n");
    let seeds = seeds_from_env(DEFAULT_SEED);
    if seeds.len() > 1 {
        part1_seed_sweep(scale, &seeds);
    } else {
        part1_measured_traffic(scale);
    }
    // Part 2 is a deterministic script: seeds do not apply.
    part2_deterministic_witness();
}
