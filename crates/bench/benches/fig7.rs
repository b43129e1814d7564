//! Fig. 7 — impact of V on throughput (a) and queue-length evolution (b)
//! at saturating load, V ∈ {1000, 2500, 5000, 10000}.
//!
//! The paper's claims: as V grows the stable queue level rises slightly
//! and the global throughput declines slightly — V buys FCT (Fig. 8) at a
//! small stability/throughput cost.

use basrpt_bench::{paper_equivalent_fast_basrpt, run_fabric, Scale};
use dcn_fabric::Topology;
use dcn_metrics::{TextTable, TimeSeries, TrendConfig};

fn print_series(label: &str, series: &TimeSeries) {
    let s = series.downsample(10);
    let pts: Vec<String> = s
        .times()
        .iter()
        .zip(s.values())
        .map(|(t, v)| format!("{t:.0}s:{:.0}MB", v / 1e6))
        .collect();
    println!("  {label:12} {}", pts.join(" "));
}

fn main() {
    let scale = Scale::from_env();
    println!("== Fig. 7: throughput and queue level vs V ==");
    println!("{scale}, load {:.0}%\n", scale.saturating_load() * 100.0);

    let topo = scale.topology();
    let spec = scale.spec(scale.saturating_load()).expect("valid load");
    let n = topo.num_hosts() as usize;
    let horizon = scale.stability_horizon();

    let mut table = TextTable::new(vec![
        "V".into(),
        "queue verdict".into(),
        "queue trend (MB/s)".into(),
        "stable level (MB)".into(),
        "throughput (Gbps)".into(),
        "leftover (GB)".into(),
    ]);
    let mut series = Vec::new();
    for v in [1000.0, 2500.0, 5000.0, 10000.0] {
        let mut sched = paper_equivalent_fast_basrpt(v, n);
        let run = run_fabric(&topo, &spec, &mut sched, 1, horizon);
        let st = run.monitored_port_stability(TrendConfig::default());
        table.add_row(vec![
            format!("{v}"),
            st.verdict.to_string(),
            format!("{:+.1}", st.slope_per_sec / 1e6),
            format!("{:.0}", st.tail_mean / 1e6),
            format!("{:.1}", run.average_throughput().gbps()),
            format!("{:.2}", run.leftover_bytes.as_f64() / 1e9),
        ]);
        series.push((format!("V={v}"), run.monitored_port_backlog));
    }
    println!("{table}");
    println!("queue-length series at a typical port:");
    for (label, s) in &series {
        print_series(label, s);
    }
    println!(
        "\npaper: the stable queue level rises slightly and throughput \
         declines slightly as V grows."
    );
}
