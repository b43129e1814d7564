//! End-to-end and per-layer benchmark of the BASRPT fabric simulator.
//!
//! One run sets up one workload from a seed, drives it through the
//! simulator's public API again and again for a fixed host-time window,
//! checks every repetition's outputs, and reports medians. Host times are
//! scaled by the host's speed, measured with a fixed reference kernel
//! between repetitions (see [`reference`]). A traced run alternates
//! untraced and traced repetitions of the same program and reports the
//! per-layer split instead. See `README.md` in this directory for the
//! workloads, the metric map and the measured spreads.

pub mod heap;
pub mod reference;
pub mod trace;

use basrpt_core::{FastBasrpt, RepFlow, Scheduler, Srpt};
use dcn_fabric::{
    simulate_fair_share_probed, simulate_repflow_probed, ConstraintSpec, FabricRun,
    FairShareAllocator, FatTree, KAryFatTree, OfferError, OnlineFabric, SettleMode, SimConfig,
    Topology,
};
use dcn_metrics::percentile_sorted;
use dcn_probe::{Fanout, NoProbe, Probe};
use dcn_types::SimTime;
use dcn_workload::{FlowArrival, QueryScope, TrafficSpec};
use std::collections::HashMap;
use std::time::Instant;
use trace::{CountProbe, FctProbe, Spans, TimedArrivals, TimedScheduler};

#[global_allocator]
static HEAP: heap::CountingAlloc = heap::CountingAlloc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's fabric and traffic under fast BASRPT, driven arrival by
    /// arrival through `OnlineFabric` with a checkpoint every sim-ms.
    PaperBasrpt,
    /// A 9216-host 3:1 oversubscribed k = 32 fat-tree under SRPT.
    FatTree9216,
    /// A small 2:1 oversubscribed fat-tree through the fair-share and
    /// RepFlow batch engines.
    OversubBaselines,
}

impl Workload {
    /// Every workload, in the order the documents list them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperBasrpt,
        Workload::FatTree9216,
        Workload::OversubBaselines,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBasrpt => "paper_basrpt",
            Workload::FatTree9216 => "fat_tree_9216",
            Workload::OversubBaselines => "oversub_baselines",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated horizon of one repetition, and how many independent
    /// segments (arrival streams from derived seeds) a run rotates through.
    fn shape(self, quick: bool) -> (SimTime, u64) {
        match (self, quick) {
            (Workload::PaperBasrpt, false) => (SimTime::from_millis(20.0), 6),
            (Workload::PaperBasrpt, true) => (SimTime::from_millis(3.0), 2),
            (Workload::FatTree9216, false) => (SimTime::from_micros(300.0), 1),
            (Workload::FatTree9216, true) => (SimTime::from_micros(10.0), 1),
            (Workload::OversubBaselines, false) => (SimTime::from_millis(75.0), 16),
            (Workload::OversubBaselines, true) => (SimTime::from_millis(5.0), 2),
        }
    }
}

/// The paper's importance weight V (§V), used with its N = 144 servers.
const PAPER_V: f64 = 2500.0;
/// Simulated interval between `paper_basrpt` checkpoints.
const CHECKPOINT_EVERY_MS: f64 = 1.0;
/// Untraced repetitions of each segment per run at least, whatever the
/// time window.
const MIN_REPS_PER_SEGMENT: usize = 2;

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated arrivals.
    pub seed: u64,
    /// Host-time window of the measured repetitions, in seconds.
    pub seconds: f64,
    /// Report the per-layer split from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Tiny horizons and a single repetition, for the benchmark's tests.
    pub quick: bool,
    /// Checkpoint `paper_basrpt` every simulated millisecond (its defining
    /// shape); off only to show checkpoints change no output.
    pub checkpoints: bool,
}

impl Options {
    /// A full run of `workload` on `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Options {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            quick: false,
            checkpoints: true,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted: offers, checkpoints and engine runs.
    pub attempted: u64,
    /// Operations that failed (all of them when a gate failed).
    pub failed: u64,
    /// The reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, one line per failed gate.
    pub errors: Vec<String>,
    /// The span log of a traced run, as JSON lines (empty otherwise).
    pub spans_jsonl: String,
}

impl Report {
    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON; a non-finite one (never expected) as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// End-to-end metrics, printed by an untraced run. Every host time among
/// them is scaled by the host's speed (see [`reference`]).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("norm_s_per_sim_s", "s/s"),
    ("norm_arrival_p50_us", "us"),
    ("norm_arrival_p99_us", "us"),
    ("peak_heap_mib", "MiB"),
    ("sim_fct_mean_ms", "ms"),
    ("sim_fct_p99_ms", "ms"),
    ("sim_goodput_gbps", "Gbps"),
];

/// Per-layer metrics, printed by a traced run. A metric of a layer the
/// workload does not exercise reads 0 (see `README.md`).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workload.flows", "count"),
    ("workload.gen_ns_per_flow", "ns"),
    ("decision.calls", "count"),
    ("decision.busy_share", "ratio"),
    ("decision.ns_p50", "ns"),
    ("decision.ns_p99", "ns"),
    ("decision.matched_mean", "count"),
    ("table.active_flows_mean", "count"),
    ("table.active_flows_peak", "count"),
    ("fabric.self_ns_per_event", "ns"),
    ("fabric.self_share", "ratio"),
    ("fabric.offer_ns_mean", "ns"),
    ("fabric.drain_ns_mean", "ns"),
    ("fabric.finish_ms", "ms"),
    ("fabric.backpressure_retries", "count"),
    ("alloc.entered", "count"),
    ("alloc.left", "count"),
    ("alloc.kept", "count"),
    ("alloc.kept_ratio", "ratio"),
    ("fabric.snapshot_ms_mean", "ms"),
    ("fabric.restore_ms_mean", "ms"),
    ("fabric.checkpoint_flows_mean", "count"),
    ("fabric.checkpoint_share", "ratio"),
    ("engine.fair_share_ns_per_event", "ns"),
    ("engine.repflow_ns_per_event", "ns"),
    ("repflow.replica_win_ratio", "ratio"),
    ("repflow.wasted_byte_ratio", "ratio"),
    ("probe.arrivals", "count"),
    ("probe.drains", "count"),
    ("probe.completions", "count"),
    ("probe.decisions", "count"),
    ("probe.samples", "count"),
    ("probe.drains_per_event", "ratio"),
    ("trace.overhead_pct", "%"),
    ("metrics.summarize_ms", "ms"),
    ("run.traced_reps", "count"),
    ("host.wall_s_per_sim_s", "s/s"),
    ("host.reference_ms", "ms"),
    ("host.speed", "ratio"),
];

/// The fabric a workload runs on.
enum Fabric {
    Paper(FatTree),
    KAry(KAryFatTree),
}

/// A workload's inputs, built once per set-up: one arrival stream per
/// segment.
struct Prepared {
    fabric: Fabric,
    segments: Vec<Vec<FlowArrival>>,
    config: SimConfig,
}

/// The simulated outputs of one repetition; every repetition of the same
/// segment, traced or not, must reproduce them bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimOutcome {
    fct_mean_ms: f64,
    fct_p99_ms: f64,
    /// Simulated seconds summed over the engines the repetition ran.
    engine_secs: f64,
    arrivals: usize,
    completions: usize,
    delivered: u64,
    leftover: u64,
}

/// Counted operations and failed gates of one repetition.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ops {
    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One measured repetition of one segment.
struct Rep {
    segment: usize,
    wall_s: f64,
    /// The host's speed around this repetition: the factor that scales its
    /// host times to the reference host's (see [`reference`]).
    speed: f64,
    /// Host time per arrival.
    arrival_ns: Vec<u64>,
    peak_heap: usize,
    sim: Option<SimOutcome>,
    /// Per-flow FCTs in seconds, for the run-wide FCT statistics.
    fct_secs: Vec<f64>,
    ops: Ops,
    layers: HashMap<&'static str, f64>,
}

impl Rep {
    fn failed(wall_s: f64, peak_heap: usize, ops: Ops) -> Rep {
        Rep {
            segment: 0,
            wall_s,
            speed: 1.0,
            arrival_ns: Vec::new(),
            peak_heap,
            sim: None,
            fct_secs: Vec::new(),
            ops,
            layers: HashMap::new(),
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Percentile `p` (0–100) of `values`, interpolated; 0 when empty.
fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&values, p).unwrap_or(0.0)
}

fn median(values: &[f64]) -> f64 {
    percentile(values.to_vec(), 50.0)
}

/// Percentile `p` (0–100) of nanosecond samples, in nanoseconds.
fn percentile_ns(samples: &[u64], p: f64) -> f64 {
    percentile(samples.iter().map(|&x| x as f64).collect(), p)
}

fn mean(sum: f64, count: f64) -> f64 {
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// The generator seed of segment `k` of run seed `seed`: seeds 16s … 16s+15
/// belong to run seed s, so no two run seeds share a segment.
fn segment_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(16).wrapping_add(k)
}

/// Builds the workload's fabric, arrivals and engine once; returns the
/// inputs and the arrival-generation time alone.
fn setup_once(opts: &Options, spans: &mut Spans, parent: usize) -> Result<(Prepared, f64), String> {
    let (horizon, segments) = opts.workload.shape(opts.quick);
    let config = SimConfig::builder().horizon(horizon).build();
    let span = spans.open("setup.topology", Some(parent));
    let fabric = match opts.workload {
        Workload::PaperBasrpt => Fabric::Paper(FatTree::paper_topology()),
        Workload::FatTree9216 => Fabric::KAry(
            KAryFatTree::builder(32)
                .hosts_per_edge(18)
                .oversubscription(3.0)
                .build()
                .map_err(|e| e.to_string())?,
        ),
        Workload::OversubBaselines => Fabric::KAry(
            KAryFatTree::builder(4)
                .hosts_per_edge(4)
                .oversubscription(2.0)
                .build()
                .map_err(|e| e.to_string())?,
        ),
    };
    spans.close(span);

    let span = spans.open("setup.workload", Some(parent));
    let started = Instant::now();
    let spec = match (&fabric, opts.workload) {
        (Fabric::Paper(_), _) => TrafficSpec::paper_default(0.95),
        (Fabric::KAry(t), Workload::FatTree9216) => {
            TrafficSpec::scaled(t.num_racks(), t.hosts_per_rack(), 0.6)
                .and_then(|s| s.with_query_scope(QueryScope::Cluster(16)))
        }
        (Fabric::KAry(t), _) => TrafficSpec::scaled(t.num_racks(), t.hosts_per_rack(), 0.8),
    }
    .map_err(|e| e.to_string())?;
    let segments = (0..segments)
        .map(|k| {
            let arrivals = spec.generator(segment_seed(opts.seed, k))?;
            Ok(arrivals.take_while(|a| a.time < horizon).collect())
        })
        .collect::<Result<Vec<Vec<FlowArrival>>, dcn_workload::WorkloadError>>()
        .map_err(|e| e.to_string())?;
    let gen_s = secs(started);
    spans.close(span);

    let span = spans.open("setup.engine", Some(parent));
    match &fabric {
        Fabric::Paper(t) => {
            let mut sched = FastBasrpt::new(PAPER_V, t.num_hosts() as usize);
            std::hint::black_box(OnlineFabric::new(t, &mut sched, config));
        }
        Fabric::KAry(t) if opts.workload == Workload::FatTree9216 => {
            let mut sched = Srpt::new();
            std::hint::black_box(OnlineFabric::new(t, &mut sched, config));
        }
        Fabric::KAry(t) => {
            let enforce = config.enforce_core_capacity || !t.is_full_bisection();
            std::hint::black_box(FairShareAllocator::new(ConstraintSpec::new(t, enforce)));
            std::hint::black_box(RepFlow::default());
        }
    }
    spans.close(span);
    Ok((
        Prepared {
            fabric,
            segments,
            config,
        },
        gen_s,
    ))
}

/// Per-flow FCT samples (seconds) to the mean and p99 in milliseconds,
/// summed in sorted order so the result does not depend on completion
/// order.
fn fct_stats(mut fct_secs: Vec<f64>) -> (f64, f64) {
    fct_secs.sort_unstable_by(f64::total_cmp);
    let sum: f64 = fct_secs.iter().sum();
    let mean = mean(sum, fct_secs.len() as f64);
    let p99 = percentile_sorted(&fct_secs, 99.0).unwrap_or(0.0);
    (mean * 1e3, p99 * 1e3)
}

/// The exact conservation identities every engine run must satisfy.
fn check_conservation(ops: &mut Ops, label: &str, run: &FabricRun) {
    ops.gate(
        run.arrived_bytes == run.throughput.delivered() + run.leftover_bytes,
        || {
            format!(
                "{label}: arrived {} != delivered {} + leftover {}",
                run.arrived_bytes,
                run.throughput.delivered(),
                run.leftover_bytes
            )
        },
    );
    ops.gate(run.arrivals == run.completions + run.leftover_flows, || {
        format!(
            "{label}: {} arrivals != {} completions + {} leftover flows",
            run.arrivals, run.completions, run.leftover_flows
        )
    });
}

/// Times `FctRecorder::overall_summary` (the dcn-metrics layer) and checks
/// it agrees with the benchmark's own per-flow count.
fn summarize(ops: &mut Ops, label: &str, run: &FabricRun, flows: usize) -> u64 {
    let started = Instant::now();
    let summary = std::hint::black_box(run.fct.overall_summary());
    let elapsed = ns(started);
    let count = summary.map_or(0, |s| s.count);
    ops.gate(count == flows, || {
        format!("{label}: FCT summary counts {count} flows, per-flow records {flows}")
    });
    elapsed
}

/// What the arrival-by-arrival loop measured, beyond the run itself.
#[derive(Default)]
struct OnlineDrive {
    arrival_ns: Vec<u64>,
    fct_secs: Vec<f64>,
    accepted: u64,
    rejected: u64,
    retries: u64,
    checkpoints: u64,
    step_ns: u64,
    drain_ns: u64,
    offer_ns: u64,
    finish_ns: u64,
    snapshot_ns: u64,
    restore_ns: u64,
    checkpoint_flows: u64,
    lazy: bool,
    alloc: dcn_fabric::DeltaStats,
}

impl OnlineDrive {
    fn collect(&mut self, done: Vec<dcn_fabric::CompletionRecord>) {
        self.fct_secs.extend(done.iter().map(|c| c.fct.as_secs()));
    }
}

/// Drives `arrivals` one by one through `OnlineFabric`: step to just
/// before the arrival, drain completions, offer it — timed per arrival —
/// and, every `every` of simulated time, snapshot the engine, drop it and
/// restore it (timed apart). With `TRACE`, the three calls are timed
/// separately as well.
#[allow(clippy::too_many_arguments)]
fn drive_online<T, S, P, const TRACE: bool>(
    topo: &T,
    sched: &mut S,
    probe: &mut P,
    arrivals: &[FlowArrival],
    config: SimConfig,
    every: Option<SimTime>,
    spans: &mut Spans,
    parent: usize,
) -> Result<(FabricRun, OnlineDrive), String>
where
    T: Topology + ?Sized,
    S: Scheduler + ?Sized,
    P: Probe,
{
    let fabric_err = |e: dcn_fabric::FabricError| e.to_string();
    let mut d = OnlineDrive {
        arrival_ns: Vec::with_capacity(arrivals.len()),
        ..OnlineDrive::default()
    };
    let mut online = OnlineFabric::with_probe(topo, &mut *sched, config, &mut *probe);
    let mut next_checkpoint = every.unwrap_or(SimTime::INFINITY);
    for &arrival in arrivals {
        while arrival.time >= next_checkpoint {
            online.step_before(next_checkpoint).map_err(fabric_err)?;
            d.collect(online.drain_completions());
            let span = spans.open("checkpoint", Some(parent));
            let started = Instant::now();
            let snapshot = online.snapshot();
            d.snapshot_ns += ns(started);
            d.checkpoint_flows += snapshot.active_flows() as u64;
            drop(online);
            let started = Instant::now();
            online = OnlineFabric::restore_with_probe(topo, &mut *sched, &mut *probe, snapshot)
                .map_err(|e| format!("restore failed: {e}"))?;
            d.restore_ns += ns(started);
            spans.close(span);
            d.checkpoints += 1;
            next_checkpoint += every.unwrap_or(SimTime::INFINITY);
        }

        let started = Instant::now();
        online.step_before(arrival.time).map_err(fabric_err)?;
        let stepped = TRACE.then(Instant::now);
        d.collect(online.drain_completions());
        let drained = TRACE.then(Instant::now);
        loop {
            match online.offer(arrival) {
                Ok(_) => {
                    d.accepted += 1;
                    break;
                }
                Err(OfferError::Backpressure { .. }) => {
                    d.retries += 1;
                    online.step_until(arrival.time).map_err(fabric_err)?;
                    d.collect(online.drain_completions());
                }
                Err(_) => {
                    d.rejected += 1;
                    break;
                }
            }
        }
        let total = ns(started);
        d.arrival_ns.push(total);
        if let (Some(stepped), Some(drained)) = (stepped, drained) {
            let step = (stepped - started).as_nanos() as u64;
            let drain = (drained - stepped).as_nanos() as u64;
            d.step_ns += step;
            d.drain_ns += drain;
            d.offer_ns += total.saturating_sub(step + drain);
        }
    }

    let span = spans.open("finish", Some(parent));
    let started = Instant::now();
    online.step_until(config.horizon).map_err(fabric_err)?;
    d.collect(online.drain_completions());
    d.alloc = online.delta_stats();
    d.lazy = online.settle_mode() == SettleMode::Lazy;
    let run = online.finish().map_err(fabric_err)?;
    d.finish_ns = ns(started);
    spans.close(span);
    Ok((run, d))
}

/// One repetition of an `OnlineFabric` workload.
#[allow(clippy::too_many_arguments)]
fn rep_online<T: Topology + ?Sized, S: Scheduler>(
    topo: &T,
    sched: S,
    arrivals: &[FlowArrival],
    config: SimConfig,
    every: Option<SimTime>,
    traced: bool,
    spans: &mut Spans,
    parent: usize,
) -> Rep {
    let mut ops = Ops::default();
    let mut layers = HashMap::new();
    heap::reset_peak();
    let started = Instant::now();
    let (result, decisions, probe) = if traced {
        let mut timed = TimedScheduler::new(sched);
        let mut probe = CountProbe::default();
        let result = drive_online::<_, _, _, true>(
            topo, &mut timed, &mut probe, arrivals, config, every, spans, parent,
        );
        (result, Some(timed), Some(probe))
    } else {
        let mut sched = sched;
        let result = drive_online::<_, _, _, false>(
            topo,
            &mut sched,
            &mut NoProbe,
            arrivals,
            config,
            every,
            spans,
            parent,
        );
        (result, None, None)
    };
    let wall_s = secs(started);
    let peak_heap = heap::peak_growth();

    let (run, d) = match result {
        Ok(ok) => ok,
        Err(e) => {
            ops.attempted = arrivals.len() as u64;
            ops.errors.push(e);
            return Rep::failed(wall_s, peak_heap, ops);
        }
    };
    ops.attempted = d.accepted + d.rejected + d.checkpoints;
    ops.failed = d.rejected;
    check_conservation(&mut ops, "online", &run);
    ops.gate(d.lazy, || "the engine did not settle lazily".to_string());
    ops.gate(d.fct_secs.len() == run.completions, || {
        format!(
            "{} completions streamed, the run recorded {}",
            d.fct_secs.len(),
            run.completions
        )
    });
    ops.gate(run.arrivals as u64 == d.accepted, || {
        format!(
            "{} offers accepted, the run admitted {}",
            d.accepted, run.arrivals
        )
    });
    let summarize_ns = summarize(&mut ops, "online", &run, d.fct_secs.len());
    let (fct_mean_ms, fct_p99_ms) = fct_stats(d.fct_secs.clone());
    let sim = SimOutcome {
        fct_mean_ms,
        fct_p99_ms,
        engine_secs: config.horizon.as_secs(),
        arrivals: run.arrivals,
        completions: run.completions,
        delivered: run.throughput.delivered().as_u64(),
        leftover: run.leftover_bytes.as_u64(),
    };

    if let (Some(timed), Some(probe)) = (decisions, probe) {
        let events = (run.arrivals + run.completions) as f64;
        let decision_ns: u64 = timed.decision_ns.iter().sum();
        let calls = timed.decision_ns.len() as f64;
        let inside = (d.step_ns + d.drain_ns + d.offer_ns + d.finish_ns) as f64;
        let self_ns = inside - decision_ns as f64;
        let wall_ns = wall_s * 1e9;
        let a = d.alloc;
        let checkpoints = d.checkpoints as f64;
        for (name, value) in [
            ("decision.calls", calls),
            ("decision.busy_share", decision_ns as f64 / wall_ns),
            ("decision.ns_p50", percentile_ns(&timed.decision_ns, 50.0)),
            ("decision.ns_p99", percentile_ns(&timed.decision_ns, 99.0)),
            ("decision.matched_mean", mean(timed.matched as f64, calls)),
            (
                "table.active_flows_mean",
                mean(timed.active_sum as f64, calls),
            ),
            ("table.active_flows_peak", timed.active_peak as f64),
            ("fabric.self_ns_per_event", mean(self_ns, events)),
            ("fabric.self_share", self_ns / wall_ns),
            (
                "fabric.offer_ns_mean",
                mean(d.offer_ns as f64, d.accepted as f64),
            ),
            (
                "fabric.drain_ns_mean",
                mean(d.drain_ns as f64, d.accepted as f64),
            ),
            ("fabric.finish_ms", d.finish_ns as f64 / 1e6),
            ("fabric.backpressure_retries", d.retries as f64),
            ("alloc.entered", a.entered as f64),
            ("alloc.left", a.left as f64),
            ("alloc.kept", a.kept as f64),
            (
                "alloc.kept_ratio",
                mean(a.kept as f64, (a.kept + a.entered) as f64),
            ),
            (
                "fabric.snapshot_ms_mean",
                mean(d.snapshot_ns as f64, checkpoints) / 1e6,
            ),
            (
                "fabric.restore_ms_mean",
                mean(d.restore_ns as f64, checkpoints) / 1e6,
            ),
            (
                "fabric.checkpoint_flows_mean",
                mean(d.checkpoint_flows as f64, checkpoints),
            ),
            (
                "fabric.checkpoint_share",
                (d.snapshot_ns + d.restore_ns) as f64 / wall_ns,
            ),
            ("metrics.summarize_ms", summarize_ns as f64 / 1e6),
        ] {
            layers.insert(name, value);
        }
        insert_probe_counts(&mut layers, &probe, events);
        ops.gate(probe.completions as usize == run.completions, || {
            "probe completions disagree with the run".to_string()
        });
    }

    Rep {
        segment: 0,
        wall_s,
        speed: 1.0,
        arrival_ns: d.arrival_ns,
        peak_heap,
        sim: Some(sim),
        fct_secs: d.fct_secs,
        ops,
        layers,
    }
}

fn insert_probe_counts(layers: &mut HashMap<&'static str, f64>, probe: &CountProbe, events: f64) {
    for (name, value) in [
        ("probe.arrivals", probe.arrivals as f64),
        ("probe.drains", probe.drains as f64),
        ("probe.completions", probe.completions as f64),
        ("probe.decisions", probe.decisions as f64),
        ("probe.samples", probe.samples as f64),
        ("probe.drains_per_event", mean(probe.drains as f64, events)),
    ] {
        layers.insert(name, value);
    }
}

/// One repetition of the baseline workload: the same arrivals through the
/// fair-share engine, then the RepFlow engine.
fn rep_baselines(
    topo: &KAryFatTree,
    arrivals: &[FlowArrival],
    config: SimConfig,
    traced: bool,
    spans: &mut Spans,
    parent: usize,
) -> Rep {
    let mut ops = Ops::default();
    let mut layers = HashMap::new();
    let mut fair_fct = FctProbe::default();
    let mut fair_count = CountProbe::default();
    let mut rep_count = CountProbe::default();
    heap::reset_peak();

    let span = spans.open("engine.fair_share", Some(parent));
    let started = Instant::now();
    let mut fair_arrivals = TimedArrivals::new(arrivals);
    let fair = if traced {
        let probe = Fanout::new(&mut fair_fct, &mut fair_count);
        simulate_fair_share_probed(topo, &mut fair_arrivals, config, probe)
    } else {
        simulate_fair_share_probed(topo, &mut fair_arrivals, config, &mut fair_fct)
    };
    let fair_s = secs(started);
    spans.close(span);

    let span = spans.open("engine.repflow", Some(parent));
    let started = Instant::now();
    let mut rep_arrivals = TimedArrivals::new(arrivals);
    let mut discipline = RepFlow::default();
    let repflow = if traced {
        simulate_repflow_probed(
            topo,
            &mut discipline,
            &mut rep_arrivals,
            config,
            &mut rep_count,
        )
    } else {
        simulate_repflow_probed(topo, &mut discipline, &mut rep_arrivals, config, NoProbe)
    };
    let rep_s = secs(started);
    spans.close(span);
    let peak_heap = heap::peak_growth();

    ops.attempted = 2;
    let (fair, repflow) = match (fair, repflow) {
        (Ok(f), Ok(r)) => (f, r),
        (f, r) => {
            for e in [f.err(), r.err()].into_iter().flatten() {
                ops.errors.push(e.to_string());
            }
            return Rep::failed(fair_s + rep_s, peak_heap, ops);
        }
    };
    check_conservation(&mut ops, "fair share", &fair);
    check_conservation(&mut ops, "repflow", &repflow.run);
    for (label, run) in [("fair share", &fair), ("repflow", &repflow.run)] {
        ops.gate(run.arrivals == arrivals.len(), || {
            format!(
                "{label}: admitted {} of {} arrivals",
                run.arrivals,
                arrivals.len()
            )
        });
    }
    ops.gate(repflow.completions.len() == repflow.run.completions, || {
        format!(
            "repflow: {} completion records, the run recorded {}",
            repflow.completions.len(),
            repflow.run.completions
        )
    });
    let summarize_ns = summarize(&mut ops, "fair share", &fair, fair_fct.fct_secs.len())
        + summarize(&mut ops, "repflow", &repflow.run, repflow.completions.len());

    let mut fct_secs = fair_fct.fct_secs;
    fct_secs.extend(repflow.completions.iter().map(|c| c.fct.as_secs()));
    let (fct_mean_ms, fct_p99_ms) = fct_stats(fct_secs.clone());
    let delivered =
        fair.throughput.delivered().as_u64() + repflow.run.throughput.delivered().as_u64();
    let sim = SimOutcome {
        fct_mean_ms,
        fct_p99_ms,
        engine_secs: 2.0 * config.horizon.as_secs(),
        arrivals: fair.arrivals + repflow.run.arrivals,
        completions: fair.completions + repflow.run.completions,
        delivered,
        leftover: fair.leftover_bytes.as_u64() + repflow.run.leftover_bytes.as_u64(),
    };

    if traced {
        let events = |run: &FabricRun| (run.arrivals + run.completions) as f64;
        let s = repflow.stats;
        let wasted = s.losing_replica_bytes.as_u64() + s.cancelled_primary_bytes.as_u64();
        let decisions = rep_count.decisions as f64;
        for (name, value) in [
            (
                "engine.fair_share_ns_per_event",
                fair_s * 1e9 / events(&fair),
            ),
            (
                "engine.repflow_ns_per_event",
                rep_s * 1e9 / events(&repflow.run),
            ),
            (
                "repflow.replica_win_ratio",
                mean(s.replica_wins as f64, s.replicated_flows as f64),
            ),
            (
                "repflow.wasted_byte_ratio",
                mean(wasted as f64, s.replica_bytes.as_u64() as f64),
            ),
            ("decision.calls", decisions),
            (
                "decision.matched_mean",
                mean(rep_count.matched as f64, decisions),
            ),
            ("metrics.summarize_ms", summarize_ns as f64 / 1e6),
        ] {
            layers.insert(name, value);
        }
        let mut both = CountProbe::default();
        for p in [&fair_count, &rep_count] {
            both.arrivals += p.arrivals;
            both.drains += p.drains;
            both.completions += p.completions;
            both.decisions += p.decisions;
            both.samples += p.samples;
        }
        insert_probe_counts(&mut layers, &both, events(&fair) + events(&repflow.run));
    }

    let mut arrival_ns = fair_arrivals.gaps_ns;
    arrival_ns.extend(rep_arrivals.gaps_ns);
    Rep {
        segment: 0,
        wall_s: fair_s + rep_s,
        speed: 1.0,
        arrival_ns,
        peak_heap,
        sim: Some(sim),
        fct_secs,
        ops,
        layers,
    }
}

/// One repetition of segment `segment` of `opts.workload`.
fn rep(
    opts: &Options,
    prepared: &Prepared,
    segment: usize,
    traced: bool,
    spans: &mut Spans,
    parent: usize,
) -> Rep {
    let every = (opts.checkpoints && opts.workload == Workload::PaperBasrpt)
        .then(|| SimTime::from_millis(CHECKPOINT_EVERY_MS));
    let arrivals = &prepared.segments[segment];
    let config = prepared.config;
    let name = if traced { "rep.traced" } else { "rep.untraced" };
    let span = spans.open(name, Some(parent));
    let mut rep = match &prepared.fabric {
        Fabric::Paper(t) => {
            let sched = FastBasrpt::new(PAPER_V, t.num_hosts() as usize);
            rep_online(t, sched, arrivals, config, every, traced, spans, span)
        }
        Fabric::KAry(t) if opts.workload == Workload::FatTree9216 => {
            rep_online(t, Srpt::new(), arrivals, config, every, traced, spans, span)
        }
        Fabric::KAry(t) => rep_baselines(t, arrivals, config, traced, spans, span),
    };
    spans.close(span);
    rep.segment = segment;
    rep
}

/// Per segment, the median over that segment's repetitions of `f`.
fn per_segment_median(reps: &[Rep], segments: usize, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    (0..segments)
        .map(|k| {
            let values: Vec<f64> = reps.iter().filter(|r| r.segment == k).map(&f).collect();
            median(&values)
        })
        .collect()
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

fn average(values: &[f64]) -> f64 {
    mean(sum(values), values.len() as f64)
}

/// Combines one per-layer metric over segments: peaks by maximum, counts
/// by sum, and means, ratios and times by average.
fn combine(name: &str, unit: &str, values: &[f64]) -> f64 {
    if name.ends_with("_peak") {
        values.iter().copied().fold(0.0, f64::max)
    } else if unit == "count" && !name.ends_with("_mean") {
        sum(values)
    } else {
        average(values)
    }
}

/// One timed set-up: the inputs, the set-up's host time and its arrival
/// generation time.
fn timed_setup(
    opts: &Options,
    spans: &mut Spans,
    root: usize,
) -> Result<(Prepared, f64, f64), String> {
    let span = spans.open("setup", Some(root));
    let started = Instant::now();
    let result = setup_once(opts, spans, span);
    let setup_s = secs(started);
    spans.close(span);
    result.map(|(prepared, gen_s)| (prepared, setup_s, gen_s))
}

/// Runs the benchmark once as `opts` asks.
pub fn run(opts: &Options) -> Report {
    let mut spans = Spans::new(opts.trace);
    let root = spans.open("run", None);
    let mut errors = Vec::new();

    // The first set-up provides the inputs. One more runs in every round
    // of repetitions, so `setup_s`, their median, samples the whole window
    // as the repetitions do.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let prepared = match timed_setup(opts, &mut spans, root) {
        Ok((p, _, _)) => p,
        Err(e) => {
            return Report {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                errors: vec![format!("set-up failed: {e}")],
                spans_jsonl: String::new(),
            }
        }
    };

    // Rounds of repetitions, rotating through the segments, while another
    // round still fits in the window; a traced run follows each untraced
    // repetition with a traced one of the same segment. The reference
    // kernel runs between rounds; the mean of its two times around a round
    // gives the host's speed during it.
    let segments = prepared.segments.len();
    let window = if opts.quick { 0.0 } else { opts.seconds };
    let min_reps = segments * if opts.quick { 1 } else { MIN_REPS_PER_SEGMENT };
    let started = Instant::now();
    let mut last_round = 0.0;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut reference_s = vec![reference::sample(0.0)];
    while untraced.len() < min_reps || secs(started) + last_round <= window {
        let round = Instant::now();
        let setup = match timed_setup(opts, &mut spans, root) {
            Ok((_, setup, generation)) => {
                gen_s.push(generation);
                Some(setup)
            }
            Err(e) => {
                errors.push(format!("set-up failed: {e}"));
                None
            }
        };
        let segment = untraced.len() % segments;
        let mut r = rep(opts, &prepared, segment, false, &mut spans, root);
        let traced_rep = opts
            .trace
            .then(|| rep(opts, &prepared, segment, true, &mut spans, root));
        let before = reference_s[reference_s.len() - 1];
        let after = reference::sample(r.wall_s);
        reference_s.push(after);
        r.speed = reference::NOMINAL_S / ((before + after) / 2.0);
        setup_s.extend(setup.map(|s| s * r.speed));
        eprintln!(
            "segment {segment}: untraced {:.4} s, speed {:.3}",
            r.wall_s, r.speed
        );
        untraced.push(r);
        if let Some(r) = traced_rep {
            eprintln!("segment {segment}: traced {:.4} s", r.wall_s);
            traced.push(r);
        }
        last_round = secs(round);
    }
    spans.close(root);

    // Gates: each repetition's own, then bit-identical simulated outputs
    // across every repetition of a segment, traced or not.
    let mut attempted = 0;
    let mut failed = 0;
    let first: Vec<&Rep> = untraced[..segments].iter().collect();
    for r in untraced.iter().chain(&traced) {
        attempted += r.ops.attempted;
        failed += r.ops.failed;
        errors.extend(r.ops.errors.iter().cloned());
        let want = first[r.segment].sim;
        if r.sim.is_none() || r.sim != want {
            errors.push(format!(
                "segment {}: simulated outputs differ between repetitions: {:?} vs {want:?}",
                r.segment, r.sim
            ));
        }
    }
    let correct = errors.is_empty();
    if !correct {
        failed = attempted;
    }

    let flows: usize = prepared.segments.iter().map(Vec::len).sum();
    let sim_secs = segments as f64 * prepared.config.horizon.as_secs();
    let metrics = if opts.trace {
        let wall_untraced = sum(&per_segment_median(&untraced, segments, |r| r.wall_s));
        let wall_traced = sum(&per_segment_median(&traced, segments, |r| r.wall_s));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "workload.flows" => flows as f64,
                    "workload.gen_ns_per_flow" => median(&gen_s) * 1e9 / flows.max(1) as f64,
                    "trace.overhead_pct" => (wall_traced / wall_untraced - 1.0) * 100.0,
                    "run.traced_reps" => traced.len() as f64,
                    "host.wall_s_per_sim_s" => wall_untraced / sim_secs,
                    "host.reference_ms" => median(&reference_s) * 1e3,
                    "host.speed" => median(&untraced.iter().map(|r| r.speed).collect::<Vec<_>>()),
                    _ => {
                        let per_segment = per_segment_median(&traced, segments, |r| {
                            r.layers.get(name).copied().unwrap_or(0.0)
                        });
                        combine(name, unit, &per_segment)
                    }
                };
                Metric { name, value, unit }
            })
            .collect()
    } else {
        let mut fct_secs = Vec::new();
        let (mut delivered, mut engine_secs) = (0u64, 0.0);
        for r in &first {
            fct_secs.extend_from_slice(&r.fct_secs);
            if let Some(sim) = r.sim {
                delivered += sim.delivered;
                engine_secs += sim.engine_secs;
            }
        }
        let (fct_mean_ms, fct_p99_ms) = fct_stats(fct_secs);
        let wall = sum(&per_segment_median(&untraced, segments, |r| {
            r.wall_s * r.speed
        }));
        let arrival_ns: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.arrival_ns.iter().map(|&x| x as f64 * r.speed))
            .collect();
        let arrival_us = |p| percentile(arrival_ns.clone(), p) / 1e3;
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => median(&setup_s),
                    "norm_s_per_sim_s" => wall / sim_secs,
                    "norm_arrival_p50_us" => arrival_us(50.0),
                    "norm_arrival_p99_us" => arrival_us(99.0),
                    "peak_heap_mib" => {
                        per_segment_median(&untraced, segments, |r| r.peak_heap as f64)
                            .into_iter()
                            .fold(0.0, f64::max)
                            / (1u64 << 20) as f64
                    }
                    "sim_fct_mean_ms" => fct_mean_ms,
                    "sim_fct_p99_ms" => fct_p99_ms,
                    _ => mean(delivered as f64 * 8.0 / 1e9, engine_secs),
                };
                Metric { name, value, unit }
            })
            .collect()
    };

    Report {
        correct,
        attempted,
        failed,
        metrics,
        errors,
        spans_jsonl: spans.to_jsonl(),
    }
}
