//! A five-way shoot-out on the flow-level fabric: SRPT, fast BASRPT,
//! threshold backlog-aware SRPT and MaxWeight compete on the same
//! high-load workload (same seed, same arrivals), next to max-min fair
//! sharing, the no-scheduling baseline.
//!
//! This is the kind of comparison a practitioner would run before picking a
//! discipline: it shows the paper's delay/stability triangle — SRPT wins
//! short-flow FCT but its queues grow; MaxWeight keeps queues short but
//! ruins query latency; fast BASRPT sits in between with V steering the
//! balance.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example fabric_showdown
//! ```

use basrpt::metrics::TextTable;
use basrpt::prelude::*;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let topo = FatTree::scaled(4, 4, 1)?;
    let spec = TrafficSpec::scaled(4, 4, 0.92)?;
    let n = topo.num_hosts() as usize;
    let horizon = SimTime::from_secs(4.0);
    println!(
        "fabric: {} hosts at {:.0}% load, horizon {horizon}\n",
        topo.num_hosts(),
        spec.load() * 100.0
    );

    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Srpt::new()),
        Box::new(FastBasrpt::new(2500.0, n)),
        Box::new(ThresholdBacklogSrpt::new(50_000_000)),
        Box::new(MaxWeight::new()),
    ];
    let config = SimConfig::builder().horizon(horizon).build();
    let mut runs = Vec::new();
    for mut sched in schedulers {
        let run = simulate(&topo, sched.as_mut(), spec.generator(1234)?, config)?;
        runs.push((sched.name().to_string(), run));
    }
    let fair = simulate_fair_share(&topo, spec.generator(1234)?, config)?;
    runs.push(("max-min fair share".to_string(), fair));

    let mut table = TextTable::new(vec![
        "scheme".into(),
        "query avg".into(),
        "query p99".into(),
        "bg avg".into(),
        "bg p99".into(),
        "thpt (Gbps)".into(),
        "queue trend".into(),
    ]);

    for (name, run) in runs {
        let q = run.fct.summary(FlowClass::Query);
        let b = run.fct.summary(FlowClass::Background);
        let st = run.monitored_port_stability(TrendConfig::default());
        let ms = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.3} ms"));
        table.add_row(vec![
            name,
            ms(q.map(|s| s.mean_ms())),
            ms(q.map(|s| s.p99_ms())),
            ms(b.map(|s| s.mean_ms())),
            ms(b.map(|s| s.p99_ms())),
            format!("{:.1}", run.average_throughput().gbps()),
            format!("{} ({:+.0} MB/s)", st.verdict, st.slope_per_sec / 1e6),
        ]);
    }
    println!("{table}");
    Ok(())
}
