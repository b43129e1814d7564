//! Golden pin for the paper topology across the Topology API redesign.
//!
//! The PR that introduced the `Topology` trait (parameterized k-ary
//! fat-trees) rewired every layer the paper fabric
//! passes through: the topology type, the engine's capacity queries, the
//! core-budget filter, and the builder. This file pins
//! `FatTree::paper_topology()` runs **bit-for-bit** to fixtures harvested
//! from the pre-redesign engine (PR 6, commit `2cbf054`), so the redesign
//! provably did not shift a single observable of the paper's fabric.
//!
//! To regenerate after an *intentional* behaviour change, run
//!
//! ```sh
//! BASRPT_GOLDEN_PRINT=1 cargo test --release --test topology_redesign_golden -- --nocapture
//! ```
//!
//! and paste the printed fixture blocks over the constants below.

use basrpt::core::{FastBasrpt, Scheduler, Srpt};
use basrpt::fabric::{simulate, FabricRun, FatTree, SimConfig, Topology};
use basrpt::metrics::TimeSeries;
use basrpt::types::{FlowClass, SimTime};
use basrpt::workload::TrafficSpec;

/// One run's pinned observables.
#[derive(Debug, PartialEq)]
struct Golden {
    arrivals: usize,
    completions: usize,
    arrived_bytes: u64,
    delivered_bytes: u64,
    leftover_bytes: u64,
    /// FNV-1a fingerprint over all four sampled series (times and values
    /// as exact f64 bits).
    series_fnv: u64,
    /// Mean background-flow FCT in seconds, as exact f64 bits.
    bg_mean_fct_bits: u64,
    /// Mean query-flow FCT in seconds, as exact f64 bits.
    query_mean_fct_bits: u64,
}

fn fnv(h: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn series_hash(h: &mut u64, ts: &TimeSeries) {
    fnv(h, ts.len() as u64);
    for (&t, &v) in ts.times().iter().zip(ts.values()) {
        fnv(h, t.to_bits());
        fnv(h, v.to_bits());
    }
}

fn golden_of(run: &FabricRun) -> Golden {
    let mut h = 0xcbf29ce484222325u64;
    series_hash(&mut h, &run.total_backlog);
    series_hash(&mut h, &run.monitored_port_backlog);
    series_hash(&mut h, &run.max_port_backlog);
    series_hash(&mut h, &run.cumulative_delivered);
    Golden {
        arrivals: run.arrivals,
        completions: run.completions,
        arrived_bytes: run.arrived_bytes.as_u64(),
        delivered_bytes: run.throughput.delivered().as_u64(),
        leftover_bytes: run.leftover_bytes.as_u64(),
        series_fnv: h,
        bg_mean_fct_bits: run
            .fct
            .summary(FlowClass::Background)
            .expect("background flows complete")
            .mean_secs
            .to_bits(),
        query_mean_fct_bits: run
            .fct
            .summary(FlowClass::Query)
            .expect("query flows complete")
            .mean_secs
            .to_bits(),
    }
}

fn print_fixture(label: &str, g: &Golden) {
    println!(
        "const {label}: Golden = Golden {{\n    \
         arrivals: {},\n    completions: {},\n    arrived_bytes: {},\n    \
         delivered_bytes: {},\n    leftover_bytes: {},\n    \
         series_fnv: 0x{:016x},\n    \
         bg_mean_fct_bits: 0x{:016x},\n    \
         query_mean_fct_bits: 0x{:016x},\n}};",
        g.arrivals,
        g.completions,
        g.arrived_bytes,
        g.delivered_bytes,
        g.leftover_bytes,
        g.series_fnv,
        g.bg_mean_fct_bits,
        g.query_mean_fct_bits,
    );
}

fn harvesting() -> bool {
    std::env::var("BASRPT_GOLDEN_PRINT").is_ok()
}

fn paper_run(scheduler: &mut dyn Scheduler, seed: u64) -> FabricRun {
    let topo = FatTree::paper_topology();
    assert_eq!(topo.num_hosts(), 144, "the paper fabric has 144 hosts");
    let spec = TrafficSpec::paper_default(0.8).unwrap();
    let config = SimConfig::builder()
        .horizon(SimTime::from_millis(5.0))
        .build();
    simulate(&topo, scheduler, spec.generator(seed).unwrap(), config).unwrap()
}

const SRPT_SEED1: Golden = Golden {
    arrivals: 4015,
    completions: 3915,
    arrived_bytes: 811494952,
    delivered_bytes: 272680779,
    leftover_bytes: 538814173,
    series_fnv: 0x1cd9e0198457a6e5,
    bg_mean_fct_bits: 0x3f35431198802f0d,
    query_mean_fct_bits: 0x3ef24f57bf7a3f8d,
};

const SRPT_SEED2: Golden = Golden {
    arrivals: 3991,
    completions: 3895,
    arrived_bytes: 712833875,
    delivered_bytes: 285670668,
    leftover_bytes: 427163207,
    series_fnv: 0x3a238fea1c394230,
    bg_mean_fct_bits: 0x3f3663e0b43a3929,
    query_mean_fct_bits: 0x3ef273421c036264,
};

const FAST_BASRPT_SEED1: Golden = Golden {
    arrivals: 4015,
    completions: 2787,
    arrived_bytes: 811494952,
    delivered_bytes: 275547069,
    leftover_bytes: 535947883,
    series_fnv: 0x1117662cab80ab1e,
    bg_mean_fct_bits: 0x3f387c75fba05239,
    query_mean_fct_bits: 0x3f2e8ba3a0fb7802,
};

#[test]
fn paper_topology_runs_match_pre_redesign_goldens() {
    type MakeSched = Box<dyn Fn() -> Box<dyn Scheduler>>;
    let cases: [(&str, MakeSched, u64, &Golden); 3] = [
        (
            "SRPT_SEED1",
            Box::new(|| Box::new(Srpt::new())),
            1,
            &SRPT_SEED1,
        ),
        (
            "SRPT_SEED2",
            Box::new(|| Box::new(Srpt::new())),
            2,
            &SRPT_SEED2,
        ),
        (
            "FAST_BASRPT_SEED1",
            Box::new(|| Box::new(FastBasrpt::new(2500.0 * 8.0 / 144.0, 144))),
            1,
            &FAST_BASRPT_SEED1,
        ),
    ];
    for (label, make, seed, want) in cases {
        let got = golden_of(&paper_run(make().as_mut(), seed));
        if harvesting() {
            print_fixture(label, &got);
        } else {
            assert_eq!(&got, want, "{label}: paper-topology run drifted");
        }
    }
}
