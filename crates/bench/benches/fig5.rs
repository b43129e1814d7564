//! Fig. 5 — (a) global throughput over the run and (b) the evolution of a
//! typical per-port queue, SRPT vs fast BASRPT (V = 2500) at saturating
//! load.
//!
//! The paper's claims: the SRPT queue keeps growing for the whole 500 s
//! while fast BASRPT's flattens at a finite level, and fast BASRPT's
//! cumulative delivered volume ends higher (the paper quotes a +5352 Gb
//! total gain).

use basrpt_bench::{
    paper_equivalent_fast_basrpt, run_fabric, run_seeds, seeds_from_env, Scale, SeedStats,
};
use basrpt_core::{Scheduler, Srpt};
use dcn_fabric::Topology;
use dcn_metrics::{StabilityVerdict, TextTable, TimeSeries, TrendConfig};

/// The seed the recorded single-run numbers were produced with.
const DEFAULT_SEED: u64 = 1;

fn print_series(label: &str, series: &TimeSeries, unit: f64, suffix: &str) {
    let s = series.downsample(10);
    let pts: Vec<String> = s
        .times()
        .iter()
        .zip(s.values())
        .map(|(t, v)| format!("{t:.0}s:{:.0}{suffix}", v / unit))
        .collect();
    println!("  {label:24} {}", pts.join(" "));
}

/// Multi-seed variant: the stability verdict must hold for *every* seed,
/// and the scalar metrics get `mean ± CI95` error bars.
fn seed_sweep(scale: Scale, seeds: &[u64]) {
    let topo = scale.topology();
    let spec = scale.spec(scale.saturating_load()).expect("valid load");
    let n = topo.num_hosts() as usize;
    let horizon = scale.stability_horizon();

    println!(
        "seed sweep over {} seeds {seeds:?}, {} worker threads\n",
        seeds.len(),
        basrpt_bench::threads_from_env().min(seeds.len())
    );
    let mut table = TextTable::new(vec![
        "scheme".into(),
        "unstable seeds".into(),
        "queue trend (MB/s)".into(),
        "stable level (MB)".into(),
        "delivered (GB)".into(),
        "avg throughput (Gbps)".into(),
    ]);
    type Mk = fn(usize) -> Box<dyn Scheduler>;
    let rows: Vec<(&str, Mk)> = vec![
        ("SRPT", |_| Box::new(Srpt::new())),
        ("fast BASRPT (V=2500)", |n| {
            Box::new(paper_equivalent_fast_basrpt(2500.0, n))
        }),
    ];
    for (label, mk) in rows {
        let runs = run_seeds(seeds, |seed| {
            let mut sched = mk(n);
            run_fabric(&topo, &spec, sched.as_mut(), seed, horizon)
        });
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
            stat(&|i| reports[i].tail_mean / 1e6).display(0),
            stat(&|i| runs[i].1.throughput.delivered().as_f64() / 1e9).display(1),
            stat(&|i| runs[i].1.average_throughput().gbps()).display(1),
        ]);
    }
    println!("{table}");
}

fn main() {
    let scale = Scale::from_env();
    println!("== Fig. 5: throughput and queue evolution at saturating load ==");
    println!("{scale}, load {:.0}%\n", scale.saturating_load() * 100.0);

    let seeds = seeds_from_env(DEFAULT_SEED);
    if seeds.len() > 1 {
        seed_sweep(scale, &seeds);
        return;
    }

    let topo = scale.topology();
    let spec = scale.spec(scale.saturating_load()).expect("valid load");
    let n = topo.num_hosts() as usize;
    let horizon = scale.stability_horizon();

    let mut runs = Vec::new();
    let mut schedulers: Vec<(String, Box<dyn Scheduler>)> = vec![
        ("SRPT".into(), Box::new(Srpt::new())),
        (
            "fast BASRPT (V=2500)".into(),
            Box::new(paper_equivalent_fast_basrpt(2500.0, n)),
        ),
    ];
    for (label, sched) in schedulers.iter_mut() {
        let run = run_fabric(&topo, &spec, sched.as_mut(), DEFAULT_SEED, horizon);
        runs.push((label.clone(), run));
    }

    println!("-- (a) cumulative delivered volume (GB) --");
    for (label, run) in &runs {
        print_series(label, &run.cumulative_delivered, 1e9, "");
    }
    println!();

    println!("-- (b) queue length of a typical port (MB) --");
    for (label, run) in &runs {
        print_series(label, &run.monitored_port_backlog, 1e6, "");
    }
    println!();

    let mut table = TextTable::new(vec![
        "scheme".into(),
        "queue verdict".into(),
        "queue trend (MB/s)".into(),
        "stable level (MB)".into(),
        "delivered (GB)".into(),
        "avg throughput (Gbps)".into(),
    ]);
    for (label, run) in &runs {
        let st = run.monitored_port_stability(TrendConfig::default());
        table.add_row(vec![
            label.clone(),
            st.verdict.to_string(),
            format!("{:+.1}", st.slope_per_sec / 1e6),
            format!("{:.0}", st.tail_mean / 1e6),
            format!("{:.1}", run.throughput.delivered().as_f64() / 1e9),
            format!("{:.1}", run.average_throughput().gbps()),
        ]);
    }
    println!("{table}");

    let gain_gbit = (runs[1].1.throughput.delivered().as_f64()
        - runs[0].1.throughput.delivered().as_f64())
        * 8.0
        / 1e9;
    println!(
        "fast BASRPT delivered {gain_gbit:+.0} Gb more than SRPT over the run \
         (paper: +5352 Gb over 500 s at full scale)."
    );
}
