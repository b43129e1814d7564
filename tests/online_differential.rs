//! Differential tests for the online (step-able) fabric engine.
//!
//! PR 8 extracted the monolithic `simulate` loop into the resumable
//! `OnlineFabric` state machine; the batch driver is now a thin wrapper
//! over it. Two contracts are pinned here, bit for bit, across seeds ×
//! {SRPT, fast BASRPT} × topologies (the paper's full-bisection fat-tree
//! and an oversubscribed k-ary fat-tree):
//!
//! 1. **Wrapper equivalence** — manually driving the online engine
//!    (`offer` / `step_before` / `finish`, including through backpressure
//!    retries) produces the exact `FabricRun` of batch `simulate`.
//! 2. **Snapshot/restore transparency** — suspending a run at an
//!    arbitrary point with `snapshot()`, rebuilding via `restore()` with a
//!    freshly constructed scheduler, and continuing produces runs, FCT
//!    bits, sampled-series fingerprints, and probe event streams identical
//!    to the uninterrupted run.
//!
//! A property test sweeps random scripted workloads and random snapshot
//! cut points (including cuts with a non-empty in-flight buffer).

mod support;

use basrpt::core::{FastBasrpt, MaxWeight, Scheduler, Srpt};
use basrpt::fabric::{
    simulate, FabricRun, FatTree, KAryFatTree, OfferError, OnlineFabric, SimConfig, Topology,
};
use basrpt::types::{Bytes, FlowClass, FlowId, HostId, SimTime, Voq};
use basrpt::workload::{FlowArrival, TrafficSpec};
use support::conservation::assert_bit_identical;
use support::fingerprint::{fingerprint, fnv, FnvProbe};

type MakeScheduler = Box<dyn Fn(u32) -> Box<dyn Scheduler>>;

fn disciplines() -> Vec<(&'static str, MakeScheduler)> {
    vec![
        ("srpt", Box::new(|_| Box::new(Srpt::new()))),
        (
            "fast_basrpt",
            Box::new(|hosts| {
                Box::new(FastBasrpt::new(2500.0 * 8.0 / hosts as f64, hosts as usize))
            }),
        ),
    ]
}

/// The two topologies the matrix quantifies over: the scaled-down
/// full-bisection paper fabric and an oversubscribed k-ary fat-tree.
fn topologies() -> Vec<(&'static str, Box<dyn Topology>)> {
    let paper = FatTree::scaled(2, 4, 1).expect("valid scaled fat-tree");
    let kary = KAryFatTree::builder(4)
        .hosts_per_edge(2)
        .oversubscription(2.0)
        .build()
        .expect("valid k-ary parameters");
    vec![
        ("fat-tree-8", Box::new(paper)),
        ("kary-4-oversub", Box::new(kary)),
    ]
}

fn arrivals_for(topo: &dyn Topology, load: f64, seed: u64, horizon: SimTime) -> Vec<FlowArrival> {
    let spec = TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), load)
        .expect("valid scaled spec");
    spec.generator(seed)
        .expect("valid generator")
        .take_while(|a| a.time < horizon)
        .collect()
}

fn config(horizon_secs: f64) -> SimConfig {
    SimConfig::builder()
        .horizon(SimTime::from_secs(horizon_secs))
        .build()
}

/// Drives the online engine exactly like an external event source would:
/// one offer per arrival, stepping strictly before each arrival instant,
/// through a deliberately tiny in-flight buffer so the backpressure path
/// is exercised (on `Backpressure` the driver steps to drain the buffer
/// and retries the offer).
fn drive_online(
    topo: &dyn Topology,
    scheduler: &mut dyn Scheduler,
    arrivals: &[FlowArrival],
    cfg: SimConfig,
    watermark: usize,
) -> FabricRun {
    let mut online = OnlineFabric::new(topo, scheduler, cfg).high_watermark(watermark);
    for arrival in arrivals {
        loop {
            online
                .step_before(arrival.time)
                .expect("valid buffered arrivals");
            if online.is_finished() {
                break;
            }
            match online.offer(*arrival) {
                Ok(_) => break,
                Err(OfferError::Backpressure { .. }) => continue,
                Err(e) => panic!("unexpected offer error: {e}"),
            }
        }
        if online.is_finished() {
            break;
        }
    }
    online.finish().expect("valid run")
}

/// Runs the workload with a suspension: offer/step to the `cut`-th
/// arrival, optionally step up to the next arrival instant (so the cut
/// can also land with a non-empty in-flight buffer when `step_at_cut` is
/// false), snapshot, restore with a *freshly constructed* scheduler, and
/// continue to the horizon.
fn interrupted_online(
    topo: &dyn Topology,
    make: &dyn Fn() -> Box<dyn Scheduler>,
    arrivals: &[FlowArrival],
    cfg: SimConfig,
    cut: usize,
    step_at_cut: bool,
) -> FabricRun {
    let cut = cut.min(arrivals.len());
    let mut first_sched = make();
    let mut online = OnlineFabric::new(topo, first_sched.as_mut(), cfg);
    for arrival in &arrivals[..cut] {
        online
            .step_before(arrival.time)
            .expect("valid buffered arrivals");
        if online.is_finished() {
            break;
        }
        online.offer(*arrival).expect("valid arrival");
    }
    if step_at_cut && !online.is_finished() {
        if let Some(next) = arrivals.get(cut) {
            online.step_before(next.time).expect("valid arrivals");
        } else {
            let midway =
                SimTime::from_secs((online.clock().as_secs() + cfg.horizon.as_secs()) * 0.5);
            online.step_until(midway).expect("valid arrivals");
        }
    }
    let snapshot = online.snapshot();
    drop(online);

    let mut second_sched = make();
    let mut resumed = OnlineFabric::restore(topo, second_sched.as_mut(), snapshot)
        .expect("snapshot of a live engine restores");
    for arrival in &arrivals[cut..] {
        resumed
            .step_before(arrival.time)
            .expect("valid buffered arrivals");
        if resumed.is_finished() {
            break;
        }
        resumed.offer(*arrival).expect("valid arrival");
    }
    resumed.finish().expect("valid run")
}

/// Contract 1: manual offer/step/finish driving — both unbounded and
/// through a tiny backpressured buffer — is bit-identical to batch
/// `simulate` across seeds × disciplines × topologies.
#[test]
fn online_driving_matches_batch_bit_for_bit() {
    let cfg = config(0.02);
    for (topo_name, topo) in &topologies() {
        for (name, make) in &disciplines() {
            for seed in 1..=3u64 {
                let arrivals = arrivals_for(topo.as_ref(), 0.9, seed, cfg.horizon);
                let batch = simulate(
                    topo.as_ref(),
                    make(topo.num_hosts()).as_mut(),
                    arrivals.clone(),
                    cfg,
                )
                .expect("valid batch run");
                for watermark in [usize::MAX, 4] {
                    let online = drive_online(
                        topo.as_ref(),
                        make(topo.num_hosts()).as_mut(),
                        &arrivals,
                        cfg,
                        watermark,
                    );
                    assert_bit_identical(
                        &online,
                        &batch,
                        &format!("{topo_name}/{name}/seed{seed}/watermark {watermark}"),
                    );
                }
            }
        }
    }
}

/// Contract 2: snapshot → restore → continue is bit-identical to the
/// uninterrupted run at every quartile cut point, with and without a
/// drained in-flight buffer at the cut.
#[test]
fn snapshot_restore_continue_matches_uninterrupted_bit_for_bit() {
    let cfg = config(0.02);
    for (topo_name, topo) in &topologies() {
        for (name, make) in &disciplines() {
            for seed in 1..=3u64 {
                let arrivals = arrivals_for(topo.as_ref(), 0.9, seed, cfg.horizon);
                let hosts = topo.num_hosts();
                let fresh: Box<dyn Fn() -> Box<dyn Scheduler>> = Box::new(|| make(hosts));
                let batch = simulate(topo.as_ref(), fresh().as_mut(), arrivals.clone(), cfg)
                    .expect("valid batch run");
                for cut in [
                    arrivals.len() / 4,
                    arrivals.len() / 2,
                    3 * arrivals.len() / 4,
                ] {
                    for step_at_cut in [false, true] {
                        let resumed = interrupted_online(
                            topo.as_ref(),
                            fresh.as_ref(),
                            &arrivals,
                            cfg,
                            cut,
                            step_at_cut,
                        );
                        assert_bit_identical(
                            &resumed,
                            &batch,
                            &format!(
                                "{topo_name}/{name}/seed{seed}/cut {cut} (stepped: {step_at_cut})"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The probe event stream of a suspended-then-restored run is the exact
/// continuation of the uninterrupted stream: hashing the pre-snapshot
/// events, seeding a fresh probe with that hash at restore, and hashing
/// the rest lands on the uninterrupted stream's hash.
#[test]
fn restored_probe_stream_continues_the_suspended_stream() {
    let topo = FatTree::scaled(2, 4, 1).expect("valid scaled fat-tree");
    let cfg = config(0.02);
    for seed in 1..=3u64 {
        let arrivals = arrivals_for(&topo, 0.9, seed, cfg.horizon);

        let mut probe = FnvProbe::new();
        let mut sched = Srpt::new();
        let mut whole = OnlineFabric::with_probe(&topo, &mut sched, cfg, &mut probe);
        for a in &arrivals {
            whole.step_before(a.time).expect("valid arrivals");
            if whole.is_finished() {
                break;
            }
            whole.offer(*a).expect("valid arrival");
        }
        whole.finish().expect("valid run");
        let uninterrupted_hash = probe.hash;

        let cut = arrivals.len() / 2;
        let mut pre = FnvProbe::new();
        let mut sched_a = Srpt::new();
        let mut first = OnlineFabric::with_probe(&topo, &mut sched_a, cfg, &mut pre);
        for a in &arrivals[..cut] {
            first.step_before(a.time).expect("valid arrivals");
            if first.is_finished() {
                break;
            }
            first.offer(*a).expect("valid arrival");
        }
        let snapshot = first.snapshot();
        drop(first);

        let mut post = FnvProbe::resumed_at(pre.hash);
        let mut sched_b = Srpt::new();
        let mut resumed =
            OnlineFabric::restore_with_probe(&topo, &mut sched_b, &mut post, snapshot)
                .expect("snapshot restores");
        for a in &arrivals[cut..] {
            resumed.step_before(a.time).expect("valid arrivals");
            if resumed.is_finished() {
                break;
            }
            resumed.offer(*a).expect("valid arrival");
        }
        resumed.finish().expect("valid run");

        assert_eq!(
            post.hash, uninterrupted_hash,
            "seed {seed}: restored event stream diverged from the uninterrupted stream"
        );
    }
}

/// Completions drained incrementally from the streaming engine are exactly
/// the batch run's completions: same count, and FCT sums match the
/// recorder bit for bit.
#[test]
fn streamed_completions_match_the_batch_recorders() {
    let topo = FatTree::scaled(2, 4, 1).expect("valid scaled fat-tree");
    let cfg = config(0.02);
    let arrivals = arrivals_for(&topo, 0.9, 7, cfg.horizon);
    let batch = simulate(&topo, &mut Srpt::new(), arrivals.clone(), cfg).expect("valid run");

    let mut sched = Srpt::new();
    let mut online = OnlineFabric::new(&topo, &mut sched, cfg);
    let mut streamed = Vec::new();
    for a in &arrivals {
        online.step_before(a.time).expect("valid arrivals");
        streamed.extend(online.drain_completions());
        if online.is_finished() {
            break;
        }
        online.offer(*a).expect("valid arrival");
    }
    // drain_completions before finish must not lose the tail.
    online.step_until(cfg.horizon).expect("valid arrivals");
    streamed.extend(online.drain_completions());
    let run = online.finish().expect("valid run");
    assert!(online_is_empty_tail(&run));

    assert_eq!(streamed.len(), batch.completions, "completion count");
    assert!(
        streamed.windows(2).all(|w| w[0].time <= w[1].time),
        "streamed completions are time-ordered"
    );
    let mut h_streamed = 0xcbf29ce484222325u64;
    for c in &streamed {
        fnv(&mut h_streamed, c.flow.raw());
        fnv(&mut h_streamed, c.time.as_secs().to_bits());
        fnv(&mut h_streamed, c.fct.as_secs().to_bits());
        fnv(&mut h_streamed, c.size.as_u64());
    }
    // Re-derive the same hash from a second batch-equivalent online run to
    // pin the stream itself (batch `simulate` has no completion log).
    let mut sched2 = Srpt::new();
    let mut online2 = OnlineFabric::new(&topo, &mut sched2, cfg);
    for a in &arrivals {
        online2.step_before(a.time).expect("valid arrivals");
        if online2.is_finished() {
            break;
        }
        online2.offer(*a).expect("valid arrival");
    }
    online2.step_until(cfg.horizon).expect("valid arrivals");
    let all_at_once = online2.drain_completions();
    let mut h_bulk = 0xcbf29ce484222325u64;
    for c in &all_at_once {
        fnv(&mut h_bulk, c.flow.raw());
        fnv(&mut h_bulk, c.time.as_secs().to_bits());
        fnv(&mut h_bulk, c.fct.as_secs().to_bits());
        fnv(&mut h_bulk, c.size.as_u64());
    }
    assert_eq!(
        h_streamed, h_bulk,
        "incremental drains must concatenate to the bulk drain"
    );
}

/// Checkpoints restored onto the *same* warm scheduler instance — a
/// snapshot every seventh of the arrivals, each restored onto the
/// scheduler the suspended engine used, as a long-running service
/// checkpoints — are bit-identical to the uninterrupted run. The
/// instance's carried matching belongs to the dropped engine's table; a
/// restored table is another table, so its first decision starts afresh.
#[test]
fn restoring_onto_the_same_warm_scheduler_matches_uninterrupted() {
    let cfg = config(0.02);
    for (topo_name, topo) in &topologies() {
        for (name, make) in &disciplines() {
            for seed in 1..=3u64 {
                let topo = topo.as_ref();
                let arrivals = arrivals_for(topo, 0.9, seed, cfg.horizon);
                let batch = simulate(topo, make(topo.num_hosts()).as_mut(), arrivals.clone(), cfg)
                    .expect("valid batch run");
                let mut sched = make(topo.num_hosts());
                let every = (arrivals.len() / 7).max(1);
                let mut online = OnlineFabric::new(topo, sched.as_mut(), cfg);
                for (i, a) in arrivals.iter().enumerate() {
                    if i > 0 && i % every == 0 {
                        let snapshot = online.snapshot();
                        drop(online);
                        online = OnlineFabric::restore(topo, sched.as_mut(), snapshot)
                            .expect("snapshot of a live engine restores");
                    }
                    online.step_before(a.time).expect("valid buffered arrivals");
                    if online.is_finished() {
                        break;
                    }
                    online.offer(*a).expect("valid arrival");
                }
                let run = online.finish().expect("valid run");
                assert_bit_identical(
                    &run,
                    &batch,
                    &format!("{topo_name}/{name}/seed{seed}/restored every {every} arrivals"),
                );
            }
        }
    }
}

/// On the paper's fabric and traffic, fast BASRPT certifies its carried
/// matching in all but at most 1% of decisions (the first decision, and
/// any gap the table's changed-slot record no longer covers), while
/// MaxWeight, whose keys rise as it transmits, never attempts the
/// certificate.
#[test]
fn fast_basrpt_certifies_its_decisions_and_maxweight_never_tries() {
    let topo = FatTree::paper_topology();
    let cfg = config(0.004);
    let arrivals: Vec<FlowArrival> = TrafficSpec::paper_default(0.95)
        .expect("valid paper spec")
        .generator(1)
        .expect("valid generator")
        .take_while(|a| a.time < cfg.horizon)
        .collect();

    let mut fast = FastBasrpt::new(2500.0, topo.num_hosts() as usize);
    simulate(&topo, &mut fast, arrivals.clone(), cfg).expect("valid run");
    let counts = fast.decisions();
    assert!(counts.decisions() > 1_000, "{counts:?}");
    assert!(
        counts.full_passes() * 100 <= counts.decisions(),
        "more than 1% full passes: {counts:?}"
    );
    assert_eq!(counts.key_rose, 0, "{counts:?}");

    let mut maxweight = MaxWeight::new();
    simulate(&topo, &mut maxweight, arrivals, cfg).expect("valid run");
    let counts = maxweight.decisions();
    assert!(counts.decisions() > 1_000, "{counts:?}");
    assert_eq!(counts.key_can_rise, counts.decisions(), "{counts:?}");
}

fn online_is_empty_tail(run: &FabricRun) -> bool {
    run.completions + run.leftover_flows == run.arrivals
}

mod random_workloads {
    //! Property test: snapshot/restore transparency on *scripted* random
    //! workloads with a random cut point — adversarial inter-arrival gaps,
    //! same-instant arrival bursts, and odd sizes, cut anywhere including
    //! with arrivals still in flight.

    use super::*;
    use proptest::prelude::*;

    /// Turns raw generated tuples into a valid, time-ordered arrival
    /// script on the 8-host scaled fabric (no self-loops, non-zero
    /// sizes). A zero `dt` produces same-instant arrival bursts.
    fn scripted(raw: &[(u64, u32, u32, u64)]) -> Vec<FlowArrival> {
        let mut t = SimTime::ZERO;
        raw.iter()
            .enumerate()
            .map(|(i, &(dt_us, s, d, size))| {
                t += SimTime::from_micros(dt_us as f64);
                let src = s % 8;
                let dst = (src + 1 + d % 7) % 8;
                FlowArrival {
                    id: FlowId::new(i as u64),
                    time: t,
                    voq: Voq::new(HostId::new(src), HostId::new(dst)),
                    size: Bytes::new(size),
                    class: FlowClass::Background,
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn snapshot_restore_is_transparent_on_random_workloads(
            raw in prop::collection::vec(
                (0u64..400, 0u32..8, 0u32..7, 1u64..2_000_000),
                1..30,
            ),
            cut_frac in 0usize..=100,
            step_sel in 0u32..2,
        ) {
            let step_at_cut = step_sel == 1;
            let arrivals = scripted(&raw);
            let topo = FatTree::scaled(2, 4, 1).expect("valid");
            let cfg = SimConfig::builder()
                .horizon(SimTime::from_millis(20.0))
                .build();
            let make: Box<dyn Fn() -> Box<dyn Scheduler>> =
                Box::new(|| Box::new(FastBasrpt::new(2500.0, 8)));
            let batch = simulate(&topo, make().as_mut(), arrivals.clone(), cfg)
                .expect("valid batch run");
            let cut = cut_frac * arrivals.len() / 100;
            let resumed =
                interrupted_online(&topo, make.as_ref(), &arrivals, cfg, cut, step_at_cut);
            prop_assert_eq!(resumed.completions, batch.completions, "completions");
            prop_assert_eq!(resumed.reschedules, batch.reschedules, "reschedules");
            prop_assert_eq!(
                resumed.throughput.delivered(),
                batch.throughput.delivered(),
                "delivered bytes"
            );
            prop_assert_eq!(
                fingerprint(&resumed),
                fingerprint(&batch),
                "series fingerprint"
            );
            match (
                resumed.fct.summary(FlowClass::Background),
                batch.fct.summary(FlowClass::Background),
            ) {
                (Some(r), Some(b)) => {
                    prop_assert_eq!(r.count, b.count);
                    prop_assert_eq!(r.mean_secs.to_bits(), b.mean_secs.to_bits());
                    prop_assert_eq!(r.p99_secs.to_bits(), b.p99_secs.to_bits());
                }
                (None, None) => {}
                _ => return Err(TestCaseError::fail("FCT summary presence differs")),
            }
        }
    }
}
