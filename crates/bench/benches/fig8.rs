//! Fig. 8 — impact of V on FCTs at saturating load,
//! V ∈ {1000, 2500, 5000, 10000}.
//!
//! The paper's claims: larger V sharply reduces both the average and the
//! 99th-percentile query FCT; background average FCT rises with V (larger
//! flows lose more slots to queries) while the background 99th percentile
//! slightly falls.

use basrpt_bench::{paper_equivalent_fast_basrpt, run_fabric, Scale};
use dcn_fabric::Topology;
use dcn_metrics::TextTable;
use dcn_types::FlowClass;

fn main() {
    let scale = Scale::from_env();
    println!("== Fig. 8: FCT vs V at saturating load ==");
    println!("{scale}, load {:.0}%\n", scale.saturating_load() * 100.0);

    let topo = scale.topology();
    let spec = scale.spec(scale.saturating_load()).expect("valid load");
    let n = topo.num_hosts() as usize;
    let horizon = scale.fct_horizon();

    let mut table = TextTable::new(vec![
        "V".into(),
        "query avg (ms)".into(),
        "query p99 (ms)".into(),
        "bg avg (ms)".into(),
        "bg p99 (ms)".into(),
    ]);
    let mut first_last = Vec::new();
    for v in [1000.0, 2500.0, 5000.0, 10000.0] {
        let mut sched = paper_equivalent_fast_basrpt(v, n);
        let run = run_fabric(&topo, &spec, &mut sched, 3, horizon);
        let q = run.fct.summary(FlowClass::Query).expect("queries finish");
        let b = run
            .fct
            .summary(FlowClass::Background)
            .expect("background finishes");
        table.add_row(vec![
            format!("{v}"),
            format!("{:.3}", q.mean_ms()),
            format!("{:.3}", q.p99_ms()),
            format!("{:.2}", b.mean_ms()),
            format!("{:.1}", b.p99_ms()),
        ]);
        first_last.push((q.mean_ms(), q.p99_ms()));
    }
    println!("{table}");
    let (first, last) = (first_last.first().unwrap(), first_last.last().unwrap());
    println!(
        "query FCT improvement from V=1000 to V=10000: avg {:.1}x, p99 {:.1}x",
        first.0 / last.0,
        first.1 / last.1
    );
    println!(
        "paper: query avg and p99 fall sharply with V; background avg rises, \
         background p99 slightly falls."
    );
}
