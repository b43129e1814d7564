//! Fig. 6 — varying load 10 % → 80 %: average query FCT, 99th-percentile
//! query FCT and overall throughput for SRPT vs fast BASRPT (V = 2500).
//!
//! The paper's claims: at low load the two schemes are indistinguishable;
//! at 80 % load fast BASRPT's query FCT is within +7.4 % (mean) and
//! +29.7 % (p99) of SRPT's, and fast BASRPT's throughput is never lower.

use basrpt_bench::{paper_equivalent_fast_basrpt, run_fabric_with, Scale, FCT_BASE_LATENCY_US};
use basrpt_core::{Scheduler, Srpt};
use dcn_fabric::{SimConfig, Topology};
use dcn_metrics::TextTable;
use dcn_types::{FlowClass, SimTime};

fn main() {
    let scale = Scale::from_env();
    println!("== Fig. 6: load sweep 10%..80%, SRPT vs fast BASRPT (V=2500) ==");
    println!("{scale}, latency floor {FCT_BASE_LATENCY_US} us\n");

    let topo = scale.topology();
    let n = topo.num_hosts() as usize;
    let horizon = scale.fct_horizon();

    let mut table = TextTable::new(vec![
        "load".into(),
        "scheme".into(),
        "query avg (ms)".into(),
        "query p99 (ms)".into(),
        "bg avg (ms)".into(),
        "throughput (Gbps)".into(),
    ]);

    let loads = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let mut deltas = Vec::new();
    for &load in &loads {
        let spec = scale.spec(load).expect("valid load");
        let mut per_scheme = Vec::new();
        let mut schedulers: Vec<(String, Box<dyn Scheduler>)> = vec![
            ("SRPT".into(), Box::new(Srpt::new())),
            (
                "fast BASRPT".into(),
                Box::new(paper_equivalent_fast_basrpt(2500.0, n)),
            ),
        ];
        for (label, sched) in schedulers.iter_mut() {
            let config = SimConfig::builder()
                .horizon(horizon)
                .base_latency(SimTime::from_micros(FCT_BASE_LATENCY_US))
                .build();
            let run = run_fabric_with(&topo, &spec, sched.as_mut(), 11, config);
            let q = run.fct.summary(FlowClass::Query).expect("queries finish");
            let b = run
                .fct
                .summary(FlowClass::Background)
                .expect("background finishes");
            table.add_row(vec![
                format!("{:.0}%", load * 100.0),
                label.clone(),
                format!("{:.3}", q.mean_ms()),
                format!("{:.3}", q.p99_ms()),
                format!("{:.2}", b.mean_ms()),
                format!("{:.1}", run.average_throughput().gbps()),
            ]);
            per_scheme.push((q, run.average_throughput()));
        }
        let (q_srpt, t_srpt) = &per_scheme[0];
        let (q_fb, t_fb) = &per_scheme[1];
        deltas.push((
            load,
            (q_fb.mean_ms() / q_srpt.mean_ms() - 1.0) * 100.0,
            (q_fb.p99_ms() / q_srpt.p99_ms() - 1.0) * 100.0,
            t_fb.gbps() - t_srpt.gbps(),
        ));
    }
    println!("{table}");

    println!("fast BASRPT relative to SRPT:");
    let mut delta_table = TextTable::new(vec![
        "load".into(),
        "query avg delta".into(),
        "query p99 delta".into(),
        "throughput delta (Gbps)".into(),
    ]);
    for (load, dmean, dp99, dthpt) in &deltas {
        delta_table.add_row(vec![
            format!("{:.0}%", load * 100.0),
            format!("{dmean:+.1}%"),
            format!("{dp99:+.1}%"),
            format!("{dthpt:+.2}"),
        ]);
    }
    println!("{delta_table}");
    println!(
        "paper: near-identical at low load; at 80% load +7.4% (mean) and \
         +29.7% (p99), throughput always >= SRPT."
    );
}
