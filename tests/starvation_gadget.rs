//! Integration test: the deterministic two-bottleneck starvation gadget
//! (continuous-time Fig. 1) separates SRPT from the backlog-aware
//! disciplines on the flow-level fabric — SRPT's long-flow queue grows
//! linearly at a load strictly inside the capacity region, the
//! backlog-aware schedulers bound it.

use basrpt::core::{FastBasrpt, MaxWeight, Scheduler, Srpt, ThresholdBacklogSrpt};
use basrpt::fabric::{simulate, FabricRun, FatTree, SimConfig, Topology};
use basrpt::types::SimTime;
use basrpt::workload::StarvationScript;

fn run_gadget(scheduler: &mut dyn Scheduler, horizon_secs: f64) -> FabricRun {
    let topo = FatTree::scaled(1, 4, 1).expect("valid");
    let script = StarvationScript::with_defaults(topo.edge_rate()).expect("valid gadget");
    simulate(
        &topo,
        scheduler,
        script,
        SimConfig::builder()
            .horizon(SimTime::from_secs(horizon_secs))
            .build(),
    )
    .expect("valid simulation")
}

/// SRPT loses `ρ_l − (1 − 2ρ_s)·L/(L−S)` ≈ 0.078 of capacity to
/// starvation: at 1.25 GB/s that is ~97 MB of A-port backlog per second.
#[test]
fn srpt_backlog_grows_linearly() {
    let run = run_gadget(&mut Srpt::new(), 1.5);
    let leftover_mb = run.leftover_bytes.as_f64() / 1e6;
    assert!(
        leftover_mb > 80.0,
        "SRPT should strand ~97 MB/s, got {leftover_mb} MB over 1.5 s"
    );
    // The trend is robustly positive.
    let slope = run.monitored_port_backlog.slope().expect("sampled");
    assert!(slope > 50e6, "slope {slope} B/s should be ~97 MB/s");
}

#[test]
fn backlog_aware_disciplines_bound_the_queue() {
    let schedulers: Vec<(Box<dyn Scheduler>, f64)> = vec![
        // weight V/N = 3.5 => stable long-VOQ level ~ w * (L - S) = 31.5 MB.
        (Box::new(FastBasrpt::new(14.0, 4)), 70.0),
        (Box::new(MaxWeight::new()), 40.0),
        (Box::new(ThresholdBacklogSrpt::new(15_000_000)), 40.0),
    ];
    for (mut sched, cap_mb) in schedulers {
        let run = run_gadget(sched.as_mut(), 1.5);
        let leftover_mb = run.leftover_bytes.as_f64() / 1e6;
        assert!(
            leftover_mb < cap_mb,
            "{} stranded {leftover_mb} MB (cap {cap_mb} MB)",
            sched.name()
        );
    }
}

#[test]
fn backlog_aware_throughput_beats_srpt() {
    let srpt = run_gadget(&mut Srpt::new(), 1.5);
    let basrpt = run_gadget(&mut FastBasrpt::new(14.0, 4), 1.5);
    assert!(
        basrpt.throughput.delivered() > srpt.throughput.delivered(),
        "backlog awareness must recover the starved capacity: {} vs {}",
        basrpt.throughput.delivered(),
        srpt.throughput.delivered()
    );
}

/// The shorts pay for the longs' progress, but only boundedly: under fast
/// BASRPT the short flows still complete and their mean FCT stays within a
/// modest multiple of their line-rate time (0.8 ms for 1 MB at 10 Gbps) —
/// at worst they wait out one protected long transfer (~8 ms).
#[test]
fn shorts_pay_a_bounded_price() {
    let run = run_gadget(&mut FastBasrpt::new(14.0, 4), 1.5);
    let shorts = run
        .fct
        .summary(basrpt::FlowClass::Query)
        .expect("shorts complete");
    assert!(shorts.count > 800, "most shorts complete");
    assert!(
        shorts.mean_secs < 0.030,
        "short mean FCT {} s should stay bounded",
        shorts.mean_secs
    );
}
