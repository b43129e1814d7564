//! Run configuration and results, and the eager reference event loop
//! every fabric engine is pinned against.

use crate::online::Crossbar;
use crate::settle::ScheduledEntry;
use crate::topology::Topology;
use basrpt_core::{FlowState, FlowTable, Schedule, Scheduler};
use dcn_metrics::{
    FctRecorder, SizeBucketRecorder, StabilityReport, ThroughputMeter, TimeSeries, TrendConfig,
};
use dcn_probe::{
    ArrivalEvent, BacklogSampler, CompletionEvent, DecisionEvent, DrainEvent, Fanout, NoProbe,
    Probe, SampleEvent,
};
use dcn_types::{Bytes, FlowClass, FlowId, HostId, Rate, SimTime, Voq};
use dcn_workload::FlowArrival;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Error produced by [`simulate`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FabricError {
    /// An arrival referenced a host outside the topology or a self-loop.
    BadArrival(String),
    /// The configuration was inconsistent.
    BadConfig(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::BadArrival(msg) => write!(f, "bad arrival: {msg}"),
            FabricError::BadConfig(msg) => write!(f, "bad simulation config: {msg}"),
        }
    }
}

impl Error for FabricError {}

/// Configuration of one fabric simulation run.
///
/// Every run samples its time series every
/// [`sample_every`](SimConfig::sample_every) (derived from the horizon)
/// and traces the backlog of host [`MONITORED_PORT`](SimConfig::MONITORED_PORT).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated duration.
    pub horizon: SimTime,
    /// Enforce per-rack uplink capacity even on full-bisection fabrics
    /// (always enforced on oversubscribed ones).
    pub enforce_core_capacity: bool,
    /// Additive latency floor applied to every recorded FCT, modelling the
    /// propagation and per-hop forwarding pipeline that the big-switch
    /// abstraction leaves out (zero by default; ~100 us is a typical
    /// three-hop data-center figure). It does not affect scheduling or
    /// bandwidth — only the reported completion times.
    pub base_latency: SimTime,
}

impl SimConfig {
    /// The smallest sampling period a run uses: one slot, i.e. the ~1.2 µs
    /// it takes to transmit one 1500-byte MTU at the 10 Gbps edge rate.
    /// Sampling below this timescale cannot observe anything new (queue
    /// state only changes when bytes move) but makes the event loop wake
    /// on every sample point, so short horizons used to slow down
    /// quadratically as `horizon / 400` underflowed the slot.
    pub const MIN_SAMPLE_PERIOD: SimTime = SimTime::from_micros_const(1.2);

    /// The host whose queue-length trace is recorded: the paper plots
    /// "the queue length... from one of the servers", and every run
    /// monitors host 0.
    pub const MONITORED_PORT: HostId = HostId::new(0);

    /// Starts building a configuration: set the duration with
    /// [`horizon`](SimConfigBuilder::horizon), then any optional knobs, then
    /// [`build`](SimConfigBuilder::build).
    ///
    /// # Example
    ///
    /// ```
    /// use dcn_fabric::SimConfig;
    /// use dcn_types::SimTime;
    ///
    /// let config = SimConfig::builder()
    ///     .horizon(SimTime::from_secs(0.4))
    ///     .build();
    /// assert_eq!(config.sample_every(), SimTime::from_millis(1.0));
    /// ```
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// The sampling period of the recorded time series: `horizon / 400`,
    /// clamped from below to [`SimConfig::MIN_SAMPLE_PERIOD`] so short
    /// horizons never sample finer than one transmission slot.
    pub fn sample_every(&self) -> SimTime {
        SimTime::from_secs(self.horizon.as_secs() / 400.0).max(Self::MIN_SAMPLE_PERIOD)
    }

    /// Checks the settings every engine needs to terminate: the fields are
    /// public, so a struct literal can bypass [`SimConfigBuilder::build`].
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadConfig`] if the horizon is zero or
    /// infinite, or the latency floor is infinite.
    pub fn validate(&self) -> Result<(), FabricError> {
        let positive_finite = self.horizon > SimTime::ZERO && !self.horizon.is_infinite();
        let problem = if !positive_finite {
            "horizon must be positive and finite"
        } else if self.base_latency.is_infinite() {
            "latency floor must be finite"
        } else {
            return Ok(());
        };
        Err(FabricError::BadConfig(problem.to_string()))
    }

    /// Panics with [`validate`](SimConfig::validate)'s message.
    pub(crate) fn assert_valid(&self) {
        if let Err(FabricError::BadConfig(problem)) = self.validate() {
            panic!("{problem}");
        }
    }
}

/// Builder for [`SimConfig`], obtained from [`SimConfig::builder`].
///
/// Defaults: a 1 s horizon, core capacity not enforced, no FCT latency
/// floor.
#[must_use = "call .build() to obtain the SimConfig"]
#[derive(Debug, Clone, Copy)]
pub struct SimConfigBuilder {
    horizon: SimTime,
    enforce_core_capacity: bool,
    base_latency: SimTime,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            horizon: SimTime::from_secs(1.0),
            enforce_core_capacity: false,
            base_latency: SimTime::ZERO,
        }
    }
}

impl SimConfigBuilder {
    /// Sets the simulated duration (default 1 s).
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Enforces per-rack uplink capacity even on full-bisection fabrics.
    pub fn enforce_core_capacity(mut self, enforce: bool) -> Self {
        self.enforce_core_capacity = enforce;
        self
    }

    /// Sets the additive latency floor applied to every recorded FCT.
    pub fn base_latency(mut self, latency: SimTime) -> Self {
        self.base_latency = latency;
        self
    }

    /// Validates the settings and produces the [`SimConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the horizon is zero or infinite, or the latency floor is
    /// infinite.
    pub fn build(self) -> SimConfig {
        let config = SimConfig {
            horizon: self.horizon,
            enforce_core_capacity: self.enforce_core_capacity,
            base_latency: self.base_latency,
        };
        config.assert_valid();
        config
    }
}

/// The measurements of one fabric run.
#[derive(Debug, Clone)]
pub struct FabricRun {
    /// Per-class FCT statistics.
    pub fct: FctRecorder,
    /// FCT statistics broken down by flow size (pFabric-style buckets).
    pub fct_by_size: SizeBucketRecorder,
    /// Bytes that left the fabric.
    pub throughput: ThroughputMeter,
    /// Total fabric backlog (bytes) over time.
    pub total_backlog: TimeSeries,
    /// Backlog of the monitored port over time (Figs. 2 / 5b / 7b).
    pub monitored_port_backlog: TimeSeries,
    /// Backlog of the most loaded port at each sample instant.
    pub max_port_backlog: TimeSeries,
    /// Cumulative delivered bytes over time (Fig. 5a).
    pub cumulative_delivered: TimeSeries,
    /// Number of flow arrivals processed.
    pub arrivals: usize,
    /// Number of flows that completed.
    pub completions: usize,
    /// Total bytes offered by processed arrivals.
    pub arrived_bytes: Bytes,
    /// Bytes still queued at the end of the run.
    pub leftover_bytes: Bytes,
    /// Flows still active at the end of the run.
    pub leftover_flows: usize,
    /// Number of scheduling decisions computed.
    pub reschedules: u64,
    /// The simulated duration.
    pub horizon: SimTime,
}

impl FabricRun {
    /// Average goodput over the whole run.
    pub fn average_throughput(&self) -> Rate {
        self.throughput.average_rate(self.horizon)
    }

    /// Stability verdict for the monitored port's backlog trace.
    pub fn monitored_port_stability(&self, config: TrendConfig) -> StabilityReport {
        StabilityReport::classify(&self.monitored_port_backlog, config)
    }
}

/// Engine-side metadata of one active flow (what the [`FlowTable`] does
/// not carry but completions must report; the size is the drained
/// [`FlowState`]'s).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct FlowMeta {
    pub(crate) class: FlowClass,
    pub(crate) arrival: SimTime,
}

/// Whether a run enforces per-rack core capacity: always on
/// oversubscribed fabrics, on request ([`SimConfig::enforce_core_capacity`])
/// on full-bisection ones. The one place every engine derives it from.
pub(crate) fn enforces_core<T: Topology + ?Sized>(topo: &T, config: &SimConfig) -> bool {
    config.enforce_core_capacity || !topo.is_full_bisection()
}

/// Computes one crossbar decision, reporting it (with its wall-clock
/// latency when an observer asks for it) as a [`DecisionEvent`].
pub(crate) fn timed_decision<O: Probe + ?Sized>(
    obs: &mut O,
    now: SimTime,
    decide: impl FnOnce() -> Schedule,
) -> Schedule {
    let started = obs.wants_decision_timing().then(Instant::now);
    let schedule = decide();
    let latency = started.map(|s| s.elapsed());
    obs.on_decision(&DecisionEvent {
        time: now.as_secs(),
        schedule: &schedule,
        latency,
    });
    schedule
}

/// Runs one flow-level simulation.
///
/// Flows arrive from `generator` (any time-ordered arrival stream — the
/// `dcn-workload` generator or a scripted `Vec`), are scheduled by
/// `scheduler` on every arrival and completion, and drain at the edge line
/// rate while selected. Returns all run measurements.
///
/// This is [`simulate_probed`] with no observer attached ([`NoProbe`]).
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] if an arrival references hosts
/// outside `topo`, is a self-loop, has zero size, or goes backwards in
/// time, and [`FabricError::BadConfig`] if `config` fails
/// [`SimConfig::validate`].
pub fn simulate<T: Topology + ?Sized, S: Scheduler + ?Sized>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    simulate_probed(topo, scheduler, generator, config, NoProbe)
}

/// Like [`simulate`], but additionally streams every event of the run to
/// `probe`: arrivals, drains, completions, scheduling decisions (with wall
/// latency if the probe asks for it) and samples. Pass `&mut probe` to
/// keep ownership and read the observations afterwards; pass several
/// observers by nesting them in a [`Fanout`].
///
/// The run is the shared event core under the crossbar allocation policy
/// (a persistent [`DeltaAllocator`](crate::DeltaAllocator) that pays
/// calendar work only for the flows whose allocation actually changed),
/// driven through the same offer/step machine as
/// [`OnlineFabric`](crate::OnlineFabric). The differential suites
/// (`tests/delta_differential.rs`, `tests/online_differential.rs`) pin the
/// outputs bit-identical to the eager reference loop.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`simulate`].
///
/// # Example
///
/// ```
/// use basrpt_core::Srpt;
/// use dcn_fabric::{simulate_probed, FatTree, SimConfig};
/// use dcn_probe::EventCounterProbe;
/// use dcn_types::SimTime;
/// use dcn_workload::TrafficSpec;
///
/// let topo = FatTree::scaled(2, 4, 1)?;
/// let spec = TrafficSpec::scaled(2, 4, 0.5)?;
/// let mut counter = EventCounterProbe::new();
/// let run = simulate_probed(
///     &topo,
///     &mut Srpt::new(),
///     spec.generator(7)?,
///     SimConfig::builder().horizon(SimTime::from_secs(0.05)).build(),
///     &mut counter,
/// )?;
/// assert_eq!(counter.completions() as usize, run.completions);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_probed<T: Topology + ?Sized, S: Scheduler + ?Sized, P: Probe>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    crate::online::run_batch(topo, generator, config, probe, |enforce_core| {
        Crossbar::new(topo, scheduler, enforce_core, 1)
    })
    .map(|(run, ..)| run)
}

/// The eager reference event loop — the single oracle the shared event
/// core is differentially pinned against (see [`crate::reference`]).
///
/// `allocate` is the allocation: given the decision instant, the
/// (eagerly settled, hence exact) flow table and the observers, it emits
/// the transmitting flows as `(flow, voq, rate)` in emission order — the
/// order drains and completions are reported in. A flow re-allocated at
/// the same rate (to the bit) keeps its drain epoch; every other flow
/// opens a fresh epoch at its current remaining size; a zero rate
/// transmits nothing. Next-completion lookup is a linear rescan and every
/// account settles on every event — `O(n)` per event by design, the
/// simplest loop that computes the same bits.
///
/// The engine always composes an internal [`BacklogSampler`] (which fills
/// `FabricRun`'s time-series fields) with the caller's `probe` via
/// [`Fanout`]. Event ordering within one instant: completions (drains
/// settle first), then arrivals, then the sample, then the allocation —
/// so a sample taken at an instant with coincident arrivals sees them.
pub(crate) fn run_reference<T, P, A>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
    mut allocate: A,
) -> Result<FabricRun, FabricError>
where
    T: Topology + ?Sized,
    P: Probe,
    A: FnMut(SimTime, &FlowTable, &mut dyn Probe, &mut Vec<(FlowId, Voq, Rate)>),
{
    config.validate()?;
    let mut generator = generator.into_iter();
    let mut table = FlowTable::new();
    let mut meta: HashMap<FlowId, FlowMeta> = HashMap::new();
    // The transmitting set in emission order, with per-entry drain epochs
    // (see `ScheduledEntry`).
    let mut entries: Vec<ScheduledEntry> = Vec::new();
    // Scratch reused across allocations: the emitted allocation, and the
    // previous accounts keyed by flow so unchanged-rate flows keep them.
    let mut allocation: Vec<(FlowId, Voq, Rate)> = Vec::new();
    let mut carry: HashMap<FlowId, ScheduledEntry> = HashMap::new();

    let mut fct = FctRecorder::new();
    let mut fct_by_size = SizeBucketRecorder::pfabric_buckets();
    let mut throughput = ThroughputMeter::new();
    let mut sampler = BacklogSampler::new(SimConfig::MONITORED_PORT);
    let mut fan = Fanout::new(&mut sampler, probe);
    let mut arrivals_count = 0usize;
    let mut completions_count = 0usize;
    let mut arrived_bytes = Bytes::ZERO;
    let mut reschedules = 0u64;

    let mut clock = SimTime::ZERO;
    let mut next_sample = SimTime::ZERO;
    let mut next_arrival = generator.next();
    let mut last_arrival_time = SimTime::ZERO;

    loop {
        // --- determine the next event instant ---
        let t_arrival = next_arrival.as_ref().map_or(SimTime::INFINITY, |a| a.time);
        let t_completion = entries
            .iter()
            .map(|e| e.completes_at)
            .min()
            .unwrap_or(SimTime::INFINITY);
        let t = t_arrival
            .min(t_completion)
            .min(next_sample)
            .min(config.horizon);

        // --- advance: settle every transmitting flow's account at t ---
        let mut completed_any = false;
        if t > clock {
            let mut i = 0;
            while i < entries.len() {
                let entry = &mut entries[i];
                let target = entry.target_at(t);
                let amount = target - entry.settled;
                if amount == 0 {
                    i += 1;
                    continue;
                }
                entry.settled = target;
                let id = entry.flow;
                let outcome = table
                    .drain_at(entry.slot, id, amount)
                    .expect("scheduled flow is active");
                let voq = outcome.voq;
                debug_assert_eq!(outcome.drained, amount, "exact drain cannot be short");
                throughput.deliver(Bytes::new(outcome.drained));
                fan.on_drain(&DrainEvent {
                    time: t.as_secs(),
                    flow: id,
                    voq,
                    amount: outcome.drained,
                });
                if let Some(done) = outcome.completed {
                    let info = meta.remove(&id).expect("active flow has metadata");
                    let size = Bytes::new(done.size());
                    let flow_fct = t - info.arrival + config.base_latency;
                    fct.record(info.class, size, flow_fct);
                    fct_by_size.record(size, flow_fct);
                    fan.on_completion(&CompletionEvent {
                        time: t.as_secs(),
                        flow: id,
                        voq,
                        size: done.size(),
                        fct: flow_fct.as_secs(),
                    });
                    completions_count += 1;
                    completed_any = true;
                    // Preserve emission order for the rest of this pass; the
                    // pending reallocation rebuilds the vector anyway.
                    entries.remove(i);
                } else {
                    i += 1;
                }
            }
        }
        clock = t;

        if clock >= config.horizon {
            break;
        }

        // --- arrivals landing at (or before) the current instant ---
        let mut arrived_any = false;
        while let Some(arrival) = next_arrival.take_if(|a| a.time <= clock) {
            validate_arrival(topo, &arrival, last_arrival_time)?;
            last_arrival_time = arrival.time;
            table
                .insert(FlowState::new(
                    arrival.id,
                    arrival.voq,
                    arrival.size.as_u64(),
                ))
                .map_err(|e| FabricError::BadArrival(e.to_string()))?;
            meta.insert(
                arrival.id,
                FlowMeta {
                    class: arrival.class,
                    arrival: arrival.time,
                },
            );
            arrivals_count += 1;
            arrived_bytes += arrival.size;
            arrived_any = true;
            fan.on_arrival(&ArrivalEvent {
                time: arrival.time.as_secs(),
                flow: arrival.id,
                voq: arrival.voq,
                size: arrival.size.as_u64(),
            });
            next_arrival = generator.next();
        }

        // --- sampling (after same-instant arrivals, so a t = 0 sample
        //     records the admitted backlog, not a spurious zero) ---
        if next_sample <= clock {
            fan.on_sample(&SampleEvent {
                time: clock.as_secs(),
                table: &table,
                delivered: throughput.delivered().as_f64(),
            });
            next_sample += config.sample_every();
        }

        // --- reallocate on arrival or completion (the paper's update rule) ---
        if arrived_any || completed_any {
            allocation.clear();
            allocate(clock, &table, &mut fan, &mut allocation);
            carry.clear();
            carry.extend(entries.drain(..).map(|e| (e.flow, e)));
            for &(id, _, rate) in &allocation {
                match carry.remove(&id) {
                    Some(entry) if entry.keeps_rate(rate) => entries.push(entry),
                    _ if rate.is_zero() => {}
                    _ => {
                        let slot = table.slot_of(id).expect("allocated flow is active");
                        let remaining = table.get_at(slot, id).expect("slot holds it").remaining();
                        entries.push(ScheduledEntry::new(id, slot, clock, remaining, rate));
                    }
                }
            }
            reschedules += 1;
        }
    }
    drop(fan);
    let series = sampler.into_series();

    Ok(FabricRun {
        fct,
        fct_by_size,
        throughput,
        total_backlog: series.total_backlog,
        monitored_port_backlog: series.monitored_port_backlog,
        max_port_backlog: series.max_port_backlog,
        cumulative_delivered: series.cumulative_delivered,
        arrivals: arrivals_count,
        completions: completions_count,
        arrived_bytes,
        leftover_bytes: Bytes::new(table.total_backlog()),
        leftover_flows: table.len(),
        reschedules,
        horizon: config.horizon,
    })
}

/// The largest flow an engine accepts, 2^53 bytes (8 PiB): every size up
/// to it is exact as an `f64`, which the decision keys and the drain
/// arithmetic compute in, and a few thousand such flows still sum within
/// the `u64` byte totals. Larger arrivals are rejected with
/// [`FabricError::BadArrival`].
pub const MAX_FLOW_BYTES: u64 = 1 << 53;

pub(crate) fn validate_arrival<T: Topology + ?Sized>(
    topo: &T,
    arrival: &FlowArrival,
    last_time: SimTime,
) -> Result<(), FabricError> {
    if !topo.contains(arrival.voq.src()) || !topo.contains(arrival.voq.dst()) {
        return Err(FabricError::BadArrival(format!(
            "flow {} uses hosts outside the {}-host topology",
            arrival.id,
            topo.num_hosts()
        )));
    }
    if arrival.voq.is_self_loop() {
        return Err(FabricError::BadArrival(format!(
            "flow {} is a self-loop at {}",
            arrival.id,
            arrival.voq.src()
        )));
    }
    if arrival.size.is_zero() {
        return Err(FabricError::BadArrival(format!(
            "flow {} has zero size",
            arrival.id
        )));
    }
    if arrival.size.as_u64() > MAX_FLOW_BYTES {
        return Err(FabricError::BadArrival(format!(
            "flow {} of {} bytes exceeds the {MAX_FLOW_BYTES}-byte limit",
            arrival.id,
            arrival.size.as_u64()
        )));
    }
    if arrival.time < last_time {
        return Err(FabricError::BadArrival(format!(
            "flow {} arrives at {} before the previous arrival at {}",
            arrival.id, arrival.time, last_time
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FatTree;
    use basrpt_core::Srpt;

    fn arrival(id: u64, t: f64, src: u32, dst: u32, size: u64) -> FlowArrival {
        FlowArrival {
            id: FlowId::new(id),
            time: SimTime::from_secs(t),
            voq: Voq::new(HostId::new(src), HostId::new(dst)),
            size: Bytes::new(size),
            class: FlowClass::Background,
        }
    }

    fn small_topo() -> FatTree {
        FatTree::scaled(2, 4, 1).unwrap()
    }

    #[test]
    fn sample_period_clamped_to_one_slot_for_short_horizons() {
        // 100 µs / 400 would be 250 ns — well below one MTU transmission.
        let short = SimConfig::builder()
            .horizon(SimTime::from_micros(100.0))
            .build();
        assert_eq!(short.sample_every(), SimConfig::MIN_SAMPLE_PERIOD);
        // Long horizons keep the ~400-point resolution.
        let long = SimConfig::builder()
            .horizon(SimTime::from_secs(4.0))
            .build();
        assert_eq!(long.sample_every(), SimTime::from_millis(10.0));
    }

    #[test]
    fn single_flow_fct_is_size_over_rate() {
        let topo = small_topo();
        // 1.25 MB at 10 Gbps = 1 ms.
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            vec![arrival(0, 0.0, 0, 1, 1_250_000)],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
        )
        .unwrap();
        assert_eq!(run.completions, 1);
        let s = run.fct.summary(FlowClass::Background).unwrap();
        assert!(
            (s.mean_ms() - 1.0).abs() < 1e-6,
            "fct = {} ms, expected 1 ms",
            s.mean_ms()
        );
        assert_eq!(run.leftover_flows, 0);
        assert_eq!(run.throughput.delivered(), Bytes::new(1_250_000));
        // The 1.25 MB flow lands in the (100 KB, 10 MB] bucket.
        let rows = run.fct_by_size.summaries();
        assert!(rows[0].1.is_none());
        assert_eq!(rows[1].1.unwrap().count, 1);
    }

    #[test]
    fn odd_sized_flow_completes_exactly_with_one_drain() {
        // Regression for the `.round()`-vs-`.floor()` era: 7,777 bytes at
        // 10 Gbps does not divide any sampling slot, and the old per-event
        // rounding could strand a 1-byte residue that needed an extra
        // micro-wakeup. With epoch accounting the flow must finish in a
        // single drain event at the exact analytic instant.
        let topo = small_topo();
        let size = Bytes::new(7_777);
        let mut counter = dcn_probe::EventCounterProbe::new();
        let run = simulate_probed(
            &topo,
            &mut Srpt::new(),
            vec![arrival(0, 0.0, 0, 1, size.as_u64())],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
            &mut counter,
        )
        .unwrap();
        assert_eq!(run.completions, 1);
        assert_eq!(counter.drains(), 1, "no residue micro-drains allowed");
        assert_eq!(run.throughput.delivered(), size);
        let want = topo.edge_rate().transfer_time(size).as_secs();
        let got = run.fct.summary(FlowClass::Background).unwrap().mean_secs;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "FCT must be bit-exact size/rate"
        );
    }

    #[test]
    fn first_sample_sees_same_instant_arrivals() {
        // Regression: the sampler used to fire before t = 0 arrivals were
        // admitted, so every trace of a workload starting at t = 0 opened
        // with a spurious all-zero point. Arrivals at an instant are now
        // admitted before the sample at that instant.
        let topo = small_topo();
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            vec![arrival(0, 0.0, 0, 1, 50_000_000)],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.001))
                .build(),
        )
        .unwrap();
        assert_eq!(run.total_backlog.times().first(), Some(&0.0));
        assert_eq!(
            run.total_backlog.values().first(),
            Some(&50_000_000.0),
            "the t = 0 sample must include the t = 0 arrival"
        );
    }

    #[test]
    fn srpt_serializes_contending_flows() {
        let topo = small_topo();
        // Two flows from host 0: the short one goes first under SRPT.
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            vec![
                arrival(0, 0.0, 0, 1, 2_500_000), // 2 ms alone
                arrival(1, 0.0, 0, 2, 1_250_000), // 1 ms alone
            ],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
        )
        .unwrap();
        assert_eq!(run.completions, 2);
        let mut fcts: Vec<f64> = run
            .fct
            .summary(FlowClass::Background)
            .map(|s| vec![s.mean_secs])
            .unwrap();
        // mean of (1 ms, 3 ms) = 2 ms.
        assert!((fcts.pop().unwrap() - 0.002).abs() < 1e-7);
    }

    #[test]
    fn bytes_are_conserved() {
        let topo = small_topo();
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            vec![
                arrival(0, 0.0, 0, 1, 50_000_000), // won't finish in 10 ms
                arrival(1, 0.001, 2, 3, 1_000),
                arrival(2, 0.002, 1, 0, 7_777),
            ],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
        )
        .unwrap();
        assert_eq!(
            run.arrived_bytes,
            run.throughput.delivered() + run.leftover_bytes
        );
        assert!(run.leftover_flows >= 1);
    }

    #[test]
    fn arrivals_after_horizon_are_ignored() {
        let topo = small_topo();
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            vec![arrival(0, 0.0, 0, 1, 1_000), arrival(1, 99.0, 0, 1, 1_000)],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
        )
        .unwrap();
        assert_eq!(run.arrivals, 1);
        assert_eq!(run.completions, 1);
    }

    #[test]
    fn preempted_flow_pays_the_pause() {
        let topo = small_topo();
        // A long flow starts alone; a shorter same-source flow preempts it.
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            vec![
                arrival(0, 0.0, 0, 1, 2_500_000),  // 2 ms alone
                arrival(1, 0.0005, 0, 2, 625_000), // 0.5 ms alone, shorter remaining
            ],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.02))
                .build(),
        )
        .unwrap();
        assert_eq!(run.completions, 2);
        // Flow 0 runs 0.5 ms, pauses 0.5 ms, then finishes: FCT 2.5 ms.
        // Flow 1 FCT = 0.5 ms.
        let s = run.fct.summary(FlowClass::Background).unwrap();
        assert!((s.max_secs - 0.0025).abs() < 1e-7, "max {}", s.max_secs);
        assert!((s.mean_secs - 0.0015).abs() < 1e-7, "mean {}", s.mean_secs);
    }

    #[test]
    fn sampling_produces_series() {
        let topo = small_topo();
        let config = SimConfig::builder()
            .horizon(SimTime::from_secs(0.01))
            .build();
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            vec![arrival(0, 0.0, 0, 1, 50_000_000)],
            config,
        )
        .unwrap();
        assert!(run.total_backlog.len() >= 9);
        assert_eq!(run.total_backlog.len(), run.monitored_port_backlog.len());
        assert_eq!(run.total_backlog.len(), run.cumulative_delivered.len());
        // The monitored port holds the only flow: backlogs match.
        assert_eq!(
            run.total_backlog.values(),
            run.monitored_port_backlog.values()
        );
        // Cumulative delivered bytes are non-decreasing.
        let vals = run.cumulative_delivered.values();
        assert!(vals.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn bad_arrivals_are_rejected() {
        let topo = small_topo();
        let out_of_range = simulate(
            &topo,
            &mut Srpt::new(),
            vec![arrival(0, 0.0, 0, 99, 1_000)],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
        );
        assert!(matches!(out_of_range, Err(FabricError::BadArrival(_))));

        let self_loop = simulate(
            &topo,
            &mut Srpt::new(),
            vec![arrival(0, 0.0, 3, 3, 1_000)],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
        );
        assert!(matches!(self_loop, Err(FabricError::BadArrival(_))));

        let backwards = simulate(
            &topo,
            &mut Srpt::new(),
            vec![
                arrival(0, 0.005, 0, 1, 1_000),
                arrival(1, 0.001, 0, 2, 1_000),
            ],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
        );
        assert!(matches!(backwards, Err(FabricError::BadArrival(_))));
    }

    #[test]
    fn oversubscribed_core_limits_inter_rack_flows() {
        // 4 hosts per rack but a single 40 Gbps core carrying at most
        // 4 × 10 Gbps... make it binding: 8 hosts/rack, 1 core => 4 flows.
        let topo = FatTree::scaled(2, 8, 1).unwrap();
        assert!(!topo.is_full_bisection());
        // 8 inter-rack flows from distinct hosts to distinct hosts.
        let flows: Vec<FlowArrival> = (0..8)
            .map(|i| arrival(i, 0.0, i as u32, 8 + i as u32, 12_500_000))
            .collect();
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            flows,
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.1))
                .build(),
        )
        .unwrap();
        // Only 4 can transmit concurrently: after 10 ms (one flow's solo
        // time) at most ~4 flows have finished.
        let done_at_12ms = run
            .fct
            .summary(FlowClass::Background)
            .map(|s| {
                (0..s.count).filter(|_| true).count() // all completed eventually
            })
            .unwrap_or(0);
        assert_eq!(done_at_12ms, 8, "all complete within the long horizon");
        // The last completion must be >= 20 ms (two serialized batches).
        let s = run.fct.summary(FlowClass::Background).unwrap();
        assert!(s.max_secs >= 0.0199, "max fct {} too small", s.max_secs);
        // And on a full-bisection fabric the same load pipelines freely.
        let topo_fb = FatTree::scaled(2, 8, 2).unwrap();
        let flows: Vec<FlowArrival> = (0..8)
            .map(|i| arrival(i, 0.0, i as u32, 8 + i as u32, 12_500_000))
            .collect();
        let run_fb = simulate(
            &topo_fb,
            &mut Srpt::new(),
            flows,
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.1))
                .build(),
        )
        .unwrap();
        let s_fb = run_fb.fct.summary(FlowClass::Background).unwrap();
        assert!(
            s_fb.max_secs <= 0.0101,
            "full bisection max {}",
            s_fb.max_secs
        );
    }

    #[test]
    fn base_latency_shifts_fcts_only() {
        let topo = small_topo();
        let base = SimConfig::builder()
            .horizon(SimTime::from_secs(0.01))
            .build();
        let shifted = SimConfig::builder()
            .horizon(SimTime::from_secs(0.01))
            .base_latency(SimTime::from_micros(100.0))
            .build();
        let flows = || vec![arrival(0, 0.0, 0, 1, 1_250_000)];
        let a = simulate(&topo, &mut Srpt::new(), flows(), base).unwrap();
        let b = simulate(&topo, &mut Srpt::new(), flows(), shifted).unwrap();
        let fa = a.fct.summary(FlowClass::Background).unwrap();
        let fb = b.fct.summary(FlowClass::Background).unwrap();
        assert!((fb.mean_secs - fa.mean_secs - 1e-4).abs() < 1e-12);
        assert_eq!(a.throughput.delivered(), b.throughput.delivered());
    }

    #[test]
    fn average_throughput_accounts_only_delivered() {
        let topo = small_topo();
        let run = simulate(
            &topo,
            &mut Srpt::new(),
            vec![arrival(0, 0.0, 0, 1, 1_250_000)],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.001))
                .build(),
        )
        .unwrap();
        // The flow needs exactly the whole horizon; everything delivered.
        assert!((run.average_throughput().gbps() - 10.0).abs() < 0.1);
    }

    #[test]
    fn default_config_is_one_second_horizon() {
        assert_eq!(
            SimConfig::builder().build().horizon,
            SimTime::from_secs(1.0)
        );
    }

    #[test]
    fn probe_observes_the_run() {
        let topo = small_topo();
        let mut counter = dcn_probe::EventCounterProbe::new();
        let run = simulate_probed(
            &topo,
            &mut Srpt::new(),
            vec![
                arrival(0, 0.0, 0, 1, 1_250_000),
                arrival(1, 0.001, 2, 3, 20_000),
            ],
            SimConfig::builder()
                .horizon(SimTime::from_secs(0.01))
                .build(),
            &mut counter,
        )
        .unwrap();
        assert_eq!(counter.arrivals() as usize, run.arrivals);
        assert_eq!(counter.completions() as usize, run.completions);
        assert_eq!(counter.decisions(), run.reschedules);
        assert_eq!(counter.samples() as usize, run.total_backlog.len());
        assert_eq!(counter.drained_units(), run.throughput.delivered().as_u64());
        // The default wants_decision_timing() == true fills latencies.
        assert_eq!(counter.decision_latency().count(), counter.decisions());
    }
}
