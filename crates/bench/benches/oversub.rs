//! Extension — oversubscribed cores (beyond the paper's full-bisection
//! assumption).
//!
//! The paper abstracts the fabric as a non-blocking big switch because its
//! topology has full bisection bandwidth; real fabrics are often 2:1 or
//! 4:1 oversubscribed. Here the engine's per-rack uplink enforcement is
//! switched on and the same workload runs on a full-bisection fabric and a
//! 2:1-oversubscribed one, under SRPT and fast BASRPT. The qualitative
//! question: does backlog-awareness still stabilize queues when the
//! binding constraint moves from the hosts into the core?

use basrpt_bench::paper_equivalent_fast_basrpt;
use basrpt_core::{Scheduler, Srpt};
use dcn_fabric::{simulate, FatTree, SimConfig, Topology};
use dcn_metrics::{TextTable, TrendConfig};
use dcn_types::SimTime;
use dcn_workload::TrafficSpec;

fn main() {
    println!("== Extension: full-bisection vs 2:1-oversubscribed core ==\n");
    // 2 racks x 8 hosts. Full bisection needs 2 cores (80 Gbps of uplink);
    // one core gives 2:1 oversubscription.
    let full = FatTree::scaled(2, 8, 2).expect("valid");
    let over = FatTree::scaled(2, 8, 1).expect("valid");
    // Raise the cross-rack share so the core matters: 55 % of bytes are
    // queries with fabric-wide destinations. Expected cross-rack offered
    // load: 0.9 x 0.55 x (8 x 10 Gbps) x (8/15 of query destinations are in
    // the other rack) ~ 21 Gbps per direction on a 40 Gbps uplink *plus*
    // the matching constraint: at most 4 concurrent inter-rack flows per
    // rack at 10 Gbps each on the oversubscribed fabric, against 8 on the
    // full-bisection one. The binding resource is concurrency, not average
    // volume — exactly where the backlog-aware priority order matters.
    let spec = TrafficSpec::scaled(2, 8, 0.9)
        .expect("valid")
        .with_query_fraction(0.55)
        .expect("valid fraction");
    let horizon = SimTime::from_secs(10.0);
    let n = full.num_hosts() as usize;

    let mut table = TextTable::new(vec![
        "fabric".into(),
        "scheme".into(),
        "thpt (Gbps)".into(),
        "leftover (GB)".into(),
        "max-port queue verdict".into(),
        "query avg (ms)".into(),
    ]);
    for (fabric_label, topo) in [("full bisection", &full), ("2:1 oversub", &over)] {
        let mut schedulers: Vec<(String, Box<dyn Scheduler>)> = vec![
            ("SRPT".into(), Box::new(Srpt::new())),
            (
                "fast BASRPT (V=2500)".into(),
                Box::new(paper_equivalent_fast_basrpt(2500.0, n)),
            ),
        ];
        for (label, sched) in schedulers.iter_mut() {
            let run = simulate(
                topo,
                sched.as_mut(),
                spec.generator(5).expect("valid spec"),
                SimConfig::builder().horizon(horizon).build(),
            )
            .expect("valid simulation");
            let st = dcn_metrics::StabilityReport::classify(
                &run.max_port_backlog,
                TrendConfig::default(),
            );
            let q = run
                .fct
                .summary(dcn_types::FlowClass::Query)
                .expect("queries finish");
            table.add_row(vec![
                fabric_label.to_string(),
                label.clone(),
                format!("{:.1}", run.average_throughput().gbps()),
                format!("{:.2}", run.leftover_bytes.as_f64() / 1e9),
                st.verdict.to_string(),
                format!("{:.3}", q.mean_ms()),
            ]);
        }
    }
    println!("{table}");
    println!(
        "finding: with the paper's rack-local background pattern the core \
         rarely binds even at 2:1 oversubscription — cross-rack traffic is \
         query-dominated and bursty concurrency only occasionally exceeds \
         the 4-flow uplink budget (slightly higher leftover). This is \
         evidence *for* the paper's big-switch abstraction: under its \
         workload the edge really is the bottleneck. Raising the uplink \
         pressure further simply overloads the core, which no scheduler \
         can fix (admissibility now fails at the uplinks)."
    );
}
