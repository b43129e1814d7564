//! Extension — FCT broken down by flow-size bucket (the pFabric-style view
//! behind the paper's query/background split).
//!
//! Table I aggregates flows into two classes; this bench shows the same
//! runs through size buckets `(0,100KB] / (100KB,10MB] / (10MB,1GB]`,
//! making visible *where* fast BASRPT's stabilization takes its toll: tiny
//! flows lose their absolute priority, mid-size background flows gain.

use basrpt_bench::{paper_equivalent_fast_basrpt, run_fabric, Scale};
use basrpt_core::{Scheduler, Srpt};
use dcn_fabric::Topology;
use dcn_metrics::TextTable;

fn main() {
    let scale = Scale::from_env();
    println!("== Extension: FCT by flow-size bucket at saturating load ==");
    println!("{scale}, load {:.0}%\n", scale.saturating_load() * 100.0);

    let topo = scale.topology();
    let spec = scale.spec(scale.saturating_load()).expect("valid load");
    let n = topo.num_hosts() as usize;
    let horizon = scale.fct_horizon();

    let mut table = TextTable::new(vec![
        "scheme".into(),
        "bucket".into(),
        "count".into(),
        "mean (ms)".into(),
        "p99 (ms)".into(),
        "max (ms)".into(),
    ]);
    let mut schedulers: Vec<(String, Box<dyn Scheduler>)> = vec![
        ("SRPT".into(), Box::new(Srpt::new())),
        (
            "fast BASRPT (V=2500)".into(),
            Box::new(paper_equivalent_fast_basrpt(2500.0, n)),
        ),
    ];
    for (label, sched) in schedulers.iter_mut() {
        let run = run_fabric(&topo, &spec, sched.as_mut(), 7, horizon);
        for (bucket, summary) in run.fct_by_size.summaries() {
            match summary {
                Some(s) => table.add_row(vec![
                    label.clone(),
                    bucket.to_string(),
                    s.count.to_string(),
                    format!("{:.3}", s.mean_secs * 1e3),
                    format!("{:.3}", s.p99_secs * 1e3),
                    format!("{:.3}", s.max_secs * 1e3),
                ]),
                None => table.add_row(vec![
                    label.clone(),
                    bucket.to_string(),
                    "0".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
    }
    println!("{table}");
    println!(
        "expected: SRPT's smallest bucket is near line rate; fast BASRPT \
         trades some small-flow latency for bounded queues, and the largest \
         bucket (the flows SRPT starves) completes instead of aging."
    );
}
