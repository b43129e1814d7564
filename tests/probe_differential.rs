//! Differential tests for the probe redesign.
//!
//! The engine's sampling used to push directly into `TimeSeries`; it now
//! emits `SampleEvent`s to an internal `BacklogSampler` probe. These tests
//! pin that refactor three ways:
//!
//! 1. against golden FNV-1a fingerprints of the four sampled series (and
//!    the FCT mean, to the bit) captured from the pre-probe engine on the
//!    same workload — the redesign must be invisible in the output;
//! 2. an externally attached `BacklogSampler` must reproduce the
//!    `FabricRun` series exactly (same code path, same events);
//! 3. attaching probes must not perturb the simulation itself.

use basrpt::core::{FastBasrpt, Scheduler, Srpt};
use basrpt::fabric::{simulate, simulate_probed, FabricRun, FatTree, SimConfig};
use basrpt::metrics::TimeSeries;
use basrpt::probe::{BacklogSampler, EventCounterProbe, Fanout};
use basrpt::types::{FlowClass, HostId, SimTime};
use basrpt::workload::TrafficSpec;

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

fn fingerprint(run: &FabricRun) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    series_hash(&mut h, &run.total_backlog);
    series_hash(&mut h, &run.monitored_port_backlog);
    series_hash(&mut h, &run.max_port_backlog);
    series_hash(&mut h, &run.cumulative_delivered);
    h
}

fn golden_run(scheduler: &mut dyn Scheduler) -> FabricRun {
    let topo = FatTree::scaled(2, 4, 1).unwrap();
    let spec = TrafficSpec::scaled(2, 4, 0.9).unwrap();
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.2))
        .build();
    simulate(&topo, scheduler, spec.generator(42).unwrap(), config).unwrap()
}

struct Golden {
    hash: u64,
    samples: usize,
    arrivals: usize,
    completions: usize,
    reschedules: u64,
    fct_mean_bits: u64,
    last_total: f64,
    last_cum: f64,
}

fn check_against(run: &FabricRun, golden: &Golden) {
    assert_eq!(
        fingerprint(run),
        golden.hash,
        "sampled series diverged from the pre-probe engine"
    );
    assert_eq!(run.total_backlog.len(), golden.samples);
    assert_eq!(run.arrivals, golden.arrivals);
    assert_eq!(run.completions, golden.completions);
    assert_eq!(run.reschedules, golden.reschedules);
    let fct = run.fct.summary(FlowClass::Background).unwrap();
    assert_eq!(fct.mean_secs.to_bits(), golden.fct_mean_bits);
    assert_eq!(run.total_backlog.last_value(), Some(golden.last_total));
    assert_eq!(run.cumulative_delivered.last_value(), Some(golden.last_cum));
}

/// Golden fingerprint of a `simulate` run of SRPT on the scaled 8-host
/// fabric at load 0.9, seed 42, 0.2 s horizon.
///
/// Recaptured when the engine moved to exact epoch-based drain accounting
/// and the indexed completion calendar (drain amounts lost their per-event
/// `.round()` noise, so delivered-byte series and FCT means legitimately
/// shifted by a few bytes / ulps; arrival and completion counts were
/// unchanged). Originally captured from the pre-probe seed engine at
/// commit 124a4a9.
#[test]
fn srpt_output_is_bit_identical_to_pre_probe_engine() {
    let run = golden_run(&mut Srpt::new());
    check_against(
        &run,
        &Golden {
            hash: 0xd37476ef228dddf1,
            samples: 400,
            arrivals: 10006,
            completions: 9975,
            reschedules: 19916,
            fct_mean_bits: 0x3f6cbd4b14be2af0,
            last_total: 311233915.0,
            last_cum: 1467880296.0,
        },
    );
}

/// Same capture for FastBasrpt with the paper-equivalent V on 8 ports.
/// Completion count matches the pre-exact-accounting engine; the
/// reschedule count moved slightly (19649 → 19674) because exact
/// completion instants no longer coincide where rounding used to merge
/// them into one wakeup.
#[test]
fn fast_basrpt_output_is_bit_identical_to_pre_probe_engine() {
    let run = golden_run(&mut FastBasrpt::new(2500.0 * 8.0 / 144.0, 8));
    check_against(
        &run,
        &Golden {
            hash: 0xb9ba81518c23fe9b,
            samples: 400,
            arrivals: 10006,
            completions: 9966,
            reschedules: 19674,
            fct_mean_bits: 0x3f6c775987679cc1,
            last_total: 307254687.0,
            last_cum: 1471859524.0,
        },
    );
}

/// An externally attached `BacklogSampler` rides the same event stream as
/// the engine's internal one, so its series must equal the run's exactly.
#[test]
fn external_sampler_probe_reproduces_run_series() {
    let topo = FatTree::scaled(2, 4, 1).unwrap();
    let spec = TrafficSpec::scaled(2, 4, 0.9).unwrap();
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.05))
        .build();
    let mut sampler = BacklogSampler::new(HostId::new(0));
    let run = simulate_probed(
        &topo,
        &mut Srpt::new(),
        spec.generator(42).unwrap(),
        config,
        &mut sampler,
    )
    .unwrap();
    let series = sampler.into_series();
    assert_eq!(series.total_backlog, run.total_backlog);
    assert_eq!(series.monitored_port_backlog, run.monitored_port_backlog);
    assert_eq!(series.max_port_backlog, run.max_port_backlog);
    assert_eq!(series.cumulative_delivered, run.cumulative_delivered);
    assert!(
        run.total_backlog.len() > 10,
        "enough samples to be meaningful"
    );
}

/// Attaching observers (even several, with decision timing on) must not
/// change a single bit of the simulation output.
#[test]
fn probes_do_not_perturb_the_simulation() {
    let topo = FatTree::scaled(2, 4, 1).unwrap();
    let spec = TrafficSpec::scaled(2, 4, 0.9).unwrap();
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.05))
        .build();
    let bare = simulate(&topo, &mut Srpt::new(), spec.generator(42).unwrap(), config).unwrap();
    let mut counter = EventCounterProbe::new();
    let mut sampler = BacklogSampler::new(HostId::new(0));
    let observed = simulate_probed(
        &topo,
        &mut Srpt::new(),
        spec.generator(42).unwrap(),
        config,
        Fanout::new(&mut counter, &mut sampler),
    )
    .unwrap();
    assert_eq!(fingerprint(&bare), fingerprint(&observed));
    assert_eq!(bare.completions, observed.completions);
    assert_eq!(bare.reschedules, observed.reschedules);
    // And the observers actually saw the run.
    assert_eq!(counter.decisions(), observed.reschedules);
    assert!(counter.decision_latency().count() > 0);
    assert_eq!(
        sampler.series().total_backlog.len(),
        observed.total_backlog.len()
    );
}
