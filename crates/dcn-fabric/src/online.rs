//! The streaming, step-able simulation engine: a fabric run as a
//! resumable process.
//!
//! [`simulate`](crate::simulate) consumes a whole arrival stream and
//! returns once the horizon is reached. This module exposes the same
//! engine as an **online state machine**, [`OnlineFabric`]: callers
//! [`offer`](OnlineFabric::offer) arrivals one at a time (with
//! backpressure once the in-flight buffer fills),
//! [`step_until`](OnlineFabric::step_until) the simulated clock forward,
//! [`drain_completions`](OnlineFabric::drain_completions) as flows finish,
//! and [`finish`](OnlineFabric::finish) to obtain the exact
//! [`FabricRun`] a batch run would have produced. The batch entry points
//! run the very same event core, so the two cannot drift — and
//! `tests/online_differential.rs` pins them bit-identical anyway.
//!
//! That core is the only product event loop of the crate: every engine —
//! crossbar matching, ECMP, RepFlow, max-min fair share — is the core
//! under one [`AllocationPolicy`], and `OnlineFabric` is the core under
//! the crossbar policy.
//!
//! A run can also be **suspended and resumed**: [`snapshot`] captures the
//! full engine state — active flows, drain accounts of the scheduled set,
//! metric recorders, clocks, and the in-flight arrival buffer — into a
//! plain-data [`FabricSnapshot`], and [`restore`] rebuilds an engine that
//! continues bit-for-bit as if never interrupted (given the same topology
//! and a scheduler in an equivalent state; the shipped disciplines are
//! stateless across decisions, so a freshly constructed one qualifies).
//!
//! [`snapshot`]: OnlineFabric::snapshot
//! [`restore`]: OnlineFabric::restore
//!
//! # Event semantics
//!
//! The engine processes events at exactly the instants and in exactly the
//! order of the eager reference loop ([`crate::reference`]): at each
//! event instant, completions settle first, then arrivals at (or before)
//! the instant are admitted, then a due sample is taken, and a scheduling
//! decision runs if any flow arrived or completed. Arrivals offered at or
//! past the horizon are ignored, mirroring the batch loop that stopped
//! before admitting them.
//!
//! # Example
//!
//! ```
//! use basrpt_core::Srpt;
//! use dcn_fabric::{FatTree, OnlineFabric, SimConfig};
//! use dcn_types::{Bytes, FlowClass, FlowId, HostId, SimTime, Voq};
//! use dcn_workload::FlowArrival;
//!
//! let topo = FatTree::scaled(2, 4, 1)?;
//! let mut sched = Srpt::new();
//! let config = SimConfig::builder()
//!     .horizon(SimTime::from_secs(0.01))
//!     .build();
//! let mut online = OnlineFabric::new(&topo, &mut sched, config);
//!
//! // 1.25 MB at the 10 Gbps edge rate completes after exactly 1 ms.
//! online.offer(FlowArrival {
//!     id: FlowId::new(0),
//!     time: SimTime::ZERO,
//!     voq: Voq::new(HostId::new(0), HostId::new(1)),
//!     size: Bytes::new(1_250_000),
//!     class: FlowClass::Background,
//! })?;
//! online.step_until(SimTime::from_millis(2.0))?;
//! let done = online.drain_completions();
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].fct, SimTime::from_millis(1.0));
//!
//! let run = online.finish()?;
//! assert_eq!(run.completions, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::delta::{CoreBudgets, DeltaAllocator, DeltaStats};
use crate::engine::{
    enforces_core, timed_decision, validate_arrival, FabricError, FabricRun, FlowMeta, SimConfig,
};
use crate::settle::{ScheduledEntry, SettleMode, SettledDrain};
use crate::topology::Topology;
use basrpt_core::{FlowSlot, FlowState, FlowTable, Scheduler};
use dcn_metrics::{FctRecorder, SizeBucketRecorder, ThroughputMeter};
use dcn_probe::{
    ArrivalEvent, BacklogSampler, CompletionEvent, DrainEvent, Fanout, NoProbe, Probe, SampleEvent,
};
use dcn_types::{Bytes, FlowClass, FlowId, SimTime, Voq};
use dcn_workload::FlowArrival;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;

/// Default bound on the in-flight arrival buffer: past this many offered
/// but not-yet-admitted arrivals, [`OnlineFabric::offer`] reports
/// [`OfferError::Backpressure`] until the caller steps the clock forward.
pub const DEFAULT_HIGH_WATERMARK: usize = 65_536;

/// One completed flow, as [`OnlineFabric::drain_completions`] hands it
/// out in completion order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// The completed flow.
    pub flow: FlowId,
    /// The completion instant.
    pub time: SimTime,
    /// The VOQ the flow occupied.
    pub voq: Voq,
    /// The flow's traffic class.
    pub class: FlowClass,
    /// The flow's size.
    pub size: Bytes,
    /// The recorded flow completion time (includes any configured base
    /// latency).
    pub fct: SimTime,
}

/// Outcome of a successful [`OnlineFabric::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accepted {
    /// The arrival joined the in-flight buffer; `in_flight` counts the
    /// buffered arrivals including this one.
    Queued {
        /// Arrivals currently buffered (offered but not yet admitted).
        in_flight: usize,
    },
    /// The arrival lands at or past the horizon and was dropped without
    /// validation — exactly as the batch loop, which stops at the horizon
    /// before admitting it.
    IgnoredAfterHorizon,
}

/// Why [`OnlineFabric::offer`] declined an arrival.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OfferError {
    /// The in-flight buffer is at its high-watermark; step the engine
    /// (draining the buffer into the flow table) and retry.
    Backpressure {
        /// Arrivals currently buffered.
        in_flight: usize,
        /// The configured bound ([`OnlineFabric::high_watermark`]).
        high_watermark: usize,
    },
    /// The arrival is invalid (unknown hosts, self-loop, zero size, or
    /// time running backwards) — the same conditions batch
    /// [`simulate`](crate::simulate) rejects.
    Rejected(FabricError),
    /// The engine already reached its horizon ([`OnlineFabric::finish`]
    /// is the only remaining useful call).
    Finished,
}

impl fmt::Display for OfferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfferError::Backpressure {
                in_flight,
                high_watermark,
            } => write!(
                f,
                "backpressure: {in_flight} arrivals in flight (high-watermark {high_watermark})"
            ),
            OfferError::Rejected(e) => write!(f, "{e}"),
            OfferError::Finished => write!(f, "the engine already reached its horizon"),
        }
    }
}

impl Error for OfferError {}

/// A suspended [`OnlineFabric`]: every piece of engine state needed to
/// continue a run bit-for-bit, as plain data.
///
/// Produced by [`OnlineFabric::snapshot`], consumed by
/// [`OnlineFabric::restore`] / [`restore_with_probe`]. The snapshot
/// carries the active flows (with exact remaining bytes), the scheduled
/// set's drain accounts (epoch-anchored, so restored completions land on
/// the same analytic instants), the in-flight arrival buffer, all metric
/// recorders and sampled series, and the engine clocks and counters. It
/// does **not** carry the topology or the scheduler: restore onto the
/// same topology (checked structurally as far as host membership allows)
/// and a scheduler in an equivalent state — the shipped disciplines keep
/// no state across decisions, so a freshly built one is equivalent.
///
/// The type derives the `serde` traits, but the workspace's vendored
/// `serde` is a set of marker traits: nothing serializes a snapshot yet,
/// and a real `serde` backend is needed before one can be written out.
///
/// [`restore_with_probe`]: OnlineFabric::restore_with_probe
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricSnapshot {
    config: SimConfig,
    /// Active flows with their metadata, sorted by id.
    flows: Vec<(FlowState, FlowMeta)>,
    /// Live scheduled entries in schedule-priority order.
    entries: Vec<ScheduledEntry>,
    alloc_stats: DeltaStats,
    pending: Vec<FlowArrival>,
    fct: FctRecorder,
    fct_by_size: SizeBucketRecorder,
    throughput: ThroughputMeter,
    sampler: BacklogSampler,
    clock: SimTime,
    next_sample: SimTime,
    last_arrival_time: SimTime,
    arrivals: usize,
    completions: usize,
    arrived_bytes: Bytes,
    reschedules: u64,
    finished: bool,
    high_watermark: usize,
    completed: Vec<CompletionRecord>,
}

impl FabricSnapshot {
    /// The simulated instant at which the engine was snapshotted.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Number of active (not yet completed) flows captured.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }
}

/// What differs between the fabric engines — everything else is the one
/// event step of [`Core`].
///
/// A policy owns the transmitting set: it chooses which flows transmit at
/// which rates, binds them to epoch-anchored drain accounts, and knows
/// when the next one completes. The core owns the flow table, clocks,
/// recorders, observers and the event ordering within an instant, and
/// decides *when* accounts must settle ([`SettleMode`]). Three policies
/// exist: [`Crossbar`] (a scheduler's matching through the delta
/// allocator and the core-capacity filter — also ECMP when the filter is
/// per plane), the max-min fair-share policy, and the RepFlow replica
/// race layered over a per-plane crossbar. Dispatch is static: each
/// engine monomorphizes its own event step, so the hooks a policy leaves
/// at their defaults compile to nothing.
pub(crate) trait AllocationPolicy {
    /// Whether the policy can decide from a lazily settled table.
    fn supports_lazy_views(&self) -> bool;

    /// The earliest completion instant among transmitting flows.
    fn next_completion(&mut self) -> SimTime;

    /// Settles accounts at `t` into `out`, in emission order: every
    /// account when `observe_all`, otherwise only the flows due to
    /// complete. Completing flows leave the transmitting set. Returns
    /// whether any flow completed.
    fn settle(&mut self, t: SimTime, observe_all: bool, out: &mut Vec<SettledDrain>) -> bool;

    /// Recomputes the allocation at `now` from `table` (stale by the
    /// unsettled accounts when `lazy`), reporting any decision to `obs`
    /// and the unsettled progress of flows whose epoch closes (evicted or
    /// re-rated, never completing) to `out`.
    fn reschedule<T: Topology + ?Sized, O: Probe>(
        &mut self,
        topo: &T,
        now: SimTime,
        table: &FlowTable,
        lazy: bool,
        obs: &mut O,
        out: &mut Vec<SettledDrain>,
    );

    /// A flow was admitted into the table, at `slot`.
    fn on_arrival<T: Topology + ?Sized>(
        &mut self,
        _topo: &T,
        _arrival: &FlowArrival,
        _slot: FlowSlot,
    ) {
    }

    /// The event instant `t` is about to be processed (before settlement).
    fn before_settle(&mut self, _t: SimTime) {}

    /// One settled drain was applied to the table.
    fn on_drain(&mut self, _drain: &SettledDrain) {}

    /// The FCT to record for a flow of `size` on `voq` completing at `t`
    /// whose own transmission scored FCT `base`.
    fn completion_fct(
        &mut self,
        _t: SimTime,
        _drain: &SettledDrain,
        _voq: Voq,
        _info: &FlowMeta,
        _size: Bytes,
        base: SimTime,
    ) -> SimTime {
        base
    }
}

/// The crossbar allocation policy: a scheduler's matching, filtered by
/// core capacity, bound to drain accounts by a persistent
/// [`DeltaAllocator`] so only the flows whose allocation changed pay
/// hash or calendar work.
#[derive(Debug)]
pub(crate) struct Crossbar<'s, S: ?Sized> {
    scheduler: &'s mut S,
    pub(crate) alloc: DeltaAllocator,
    /// The core-capacity filter, present when core capacity is enforced
    /// (one plane for the aggregate filter, the fabric's planes for ECMP).
    pub(crate) budgets: Option<CoreBudgets>,
}

impl<'s, S: Scheduler + ?Sized> Crossbar<'s, S> {
    pub(crate) fn new<T: Topology + ?Sized>(
        topo: &T,
        scheduler: &'s mut S,
        enforce_core: bool,
        planes: u32,
    ) -> Self {
        Crossbar {
            scheduler,
            alloc: DeltaAllocator::new(topo.edge_rate()),
            budgets: enforce_core.then(|| CoreBudgets::new(topo, planes)),
        }
    }
}

impl<S: Scheduler + ?Sized> AllocationPolicy for Crossbar<'_, S> {
    fn supports_lazy_views(&self) -> bool {
        self.scheduler.supports_lazy_views()
    }

    fn next_completion(&mut self) -> SimTime {
        self.alloc.next_completion()
    }

    fn settle(&mut self, t: SimTime, observe_all: bool, out: &mut Vec<SettledDrain>) -> bool {
        if observe_all {
            self.alloc.settle(t, |d| out.push(d))
        } else {
            self.alloc.settle_due(t, |d| out.push(d))
        }
    }

    fn reschedule<T: Topology + ?Sized, O: Probe>(
        &mut self,
        topo: &T,
        now: SimTime,
        table: &FlowTable,
        lazy: bool,
        obs: &mut O,
        out: &mut Vec<SettledDrain>,
    ) {
        // Lazy mode decides from settlement-adjusted VOQ views — the exact
        // views an eagerly settled table would serve — so the stale table
        // never leaks into a decision.
        let schedule = timed_decision(obs, now, || {
            if lazy {
                self.scheduler
                    .schedule_adjusted(table, &self.alloc.live_views(now))
            } else {
                self.scheduler.schedule(table)
            }
        });
        // The allocator adopts the schedule's own pair list. Pairs decided
        // from the table's views carry their VOQ slot; only a discipline
        // that builds its schedule otherwise costs a lookup.
        let mut selected = schedule.into_slotted(|voq| {
            table
                .voq_slot(voq)
                .expect("a scheduled flow's VOQ has a slot")
        });
        // The allocator keeps the pairs the filter withholds: its lens
        // names them, since they stay idle while its clock runs.
        if let Some(budgets) = self.budgets.as_mut() {
            budgets.filter(
                topo,
                &mut selected,
                &mut self.alloc.withheld,
                |&(id, voq, _)| (id, voq),
            );
        }
        // Entrants' remaining bytes are exact in the stale table too: a
        // flow entering the scheduled set was not transmitting, so it has
        // no unsettled drains. Each entrant's slot is found by id, once per
        // admission. Evicted flows settle their unsettled progress on the
        // way out.
        let admit = |id| {
            let slot = table.slot_of(id).expect("scheduled flow is active");
            let flow = table.get_at(slot, id).expect("slot holds it");
            (slot, flow.remaining())
        };
        self.alloc.apply(now, &mut selected, admit, |d| out.push(d));
        // `apply` handed back the previous decision's list.
        self.scheduler.recycle(selected);
    }
}

/// The shared event core: one fabric run's state and its event step,
/// generic over the [`AllocationPolicy`]. [`OnlineFabric`] is this core
/// under the [`Crossbar`] policy; the baseline engines drive it through
/// [`run_batch`].
#[derive(Debug)]
pub(crate) struct Core<'t, T: Topology + ?Sized, A, P> {
    topo: &'t T,
    policy: A,
    probe: P,
    config: SimConfig,
    /// When scheduled accounts convert into table drains. Chosen once at
    /// construction ([`SettleMode::choose`]) and not serialized — restore
    /// re-derives it from the restored probe and scheduler, which is
    /// unobservable because the flow table always mirrors the settled
    /// accounts exactly, in either mode.
    mode: SettleMode,
    table: FlowTable,
    /// Each active flow's class and arrival, indexed by its table slot
    /// ([`FlowSlot`]): written at admission, read at completion.
    meta: Vec<FlowMeta>,
    /// Reusable scratch for settled drains, so the hot per-event path
    /// never allocates (the policy cannot call back into the core while
    /// it is mutably borrowed, so drains are staged here first).
    drain_buf: Vec<SettledDrain>,
    fct: FctRecorder,
    fct_by_size: SizeBucketRecorder,
    throughput: ThroughputMeter,
    sampler: BacklogSampler,
    arrivals: usize,
    completions: usize,
    arrived_bytes: Bytes,
    reschedules: u64,
    clock: SimTime,
    next_sample: SimTime,
    last_arrival_time: SimTime,
    /// Offered arrivals not yet admitted into the flow table, in offer
    /// order (offers are time-ordered, so this is also time order).
    pending: VecDeque<FlowArrival>,
    high_watermark: usize,
    /// Whether completions are logged: on for every `OnlineFabric` (so
    /// restored engines too), for `drain_completions`; off in
    /// `run_batch`, which never reads the log.
    collect_completions: bool,
    completed: Vec<CompletionRecord>,
    finished: bool,
}

impl<'t, T: Topology + ?Sized, A: AllocationPolicy, P: Probe> Core<'t, T, A, P> {
    /// An idle core at `t = 0`; `policy` receives whether core capacity is
    /// enforced.
    fn new(topo: &'t T, config: SimConfig, probe: P, policy: impl FnOnce(bool) -> A) -> Self {
        let policy = policy(enforces_core(topo, &config));
        let mode = SettleMode::choose(probe.wants_flow_fidelity(), policy.supports_lazy_views());
        Core {
            topo,
            policy,
            probe,
            config,
            mode,
            table: FlowTable::with_hosts(topo.num_hosts()),
            meta: Vec::new(),
            drain_buf: Vec::new(),
            fct: FctRecorder::new(),
            fct_by_size: SizeBucketRecorder::pfabric_buckets(),
            throughput: ThroughputMeter::new(),
            sampler: BacklogSampler::new(SimConfig::MONITORED_PORT),
            arrivals: 0,
            completions: 0,
            arrived_bytes: Bytes::ZERO,
            reschedules: 0,
            clock: SimTime::ZERO,
            next_sample: SimTime::ZERO,
            last_arrival_time: SimTime::ZERO,
            pending: VecDeque::new(),
            high_watermark: DEFAULT_HIGH_WATERMARK,
            collect_completions: true,
            completed: Vec::new(),
            finished: false,
        }
    }

    fn offer(&mut self, arrival: FlowArrival) -> Result<Accepted, OfferError> {
        if self.finished {
            return Err(OfferError::Finished);
        }
        if arrival.time >= self.config.horizon {
            // The batch loop stops at the horizon before admitting (or
            // even validating) such an arrival; mirror it exactly.
            return Ok(Accepted::IgnoredAfterHorizon);
        }
        if self.pending.len() >= self.high_watermark {
            return Err(OfferError::Backpressure {
                in_flight: self.pending.len(),
                high_watermark: self.high_watermark,
            });
        }
        validate_arrival(self.topo, &arrival, self.last_arrival_time)
            .map_err(OfferError::Rejected)?;
        if arrival.time < self.clock {
            return Err(OfferError::Rejected(FabricError::BadArrival(format!(
                "flow {} arrives at {} but the engine already stepped to {}",
                arrival.id, arrival.time, self.clock
            ))));
        }
        self.last_arrival_time = arrival.time;
        self.pending.push_back(arrival);
        Ok(Accepted::Queued {
            in_flight: self.pending.len(),
        })
    }

    /// Processes event instants while `keep_going` accepts the next one:
    /// the earliest of the first buffered arrival, the next completion,
    /// the next sample point, and the horizon (always finite).
    fn step_while(
        &mut self,
        mut keep_going: impl FnMut(SimTime) -> bool,
    ) -> Result<u64, FabricError> {
        let mut steps = 0;
        while !self.finished {
            let t = self
                .pending
                .front()
                .map_or(SimTime::INFINITY, |a| a.time)
                .min(self.policy.next_completion())
                .min(self.next_sample)
                .min(self.config.horizon);
            if !keep_going(t) {
                break;
            }
            self.advance_to(t)?;
            steps += 1;
        }
        Ok(steps)
    }

    fn step_until(&mut self, limit: SimTime) -> Result<u64, FabricError> {
        self.step_while(|t| t <= limit)
    }

    fn step_before(&mut self, limit: SimTime) -> Result<u64, FabricError> {
        self.step_while(|t| t < limit)
    }

    /// Applies one settled drain to the flow table, meters, recorders,
    /// and observers — the one body every settlement site (per-event,
    /// observation-point, and eviction) routes through.
    fn apply_drain(&mut self, t: SimTime, drain: SettledDrain) {
        let outcome = self
            .table
            .drain_at(drain.slot, drain.flow, drain.amount)
            .expect("scheduled flow is active");
        debug_assert_eq!(outcome.drained, drain.amount, "exact drain cannot be short");
        debug_assert_eq!(outcome.completed.is_some(), drain.completed);
        self.throughput.deliver(Bytes::new(outcome.drained));
        self.policy.on_drain(&drain);
        let mut fan = Fanout::new(&mut self.sampler, &mut self.probe);
        fan.on_drain(&DrainEvent {
            time: t.as_secs(),
            flow: drain.flow,
            voq: outcome.voq,
            amount: outcome.drained,
        });
        if let Some(done) = outcome.completed {
            let info = self.meta[outcome.slot.index()];
            let size = Bytes::new(done.size());
            let base_fct = t - info.arrival + self.config.base_latency;
            let flow_fct =
                self.policy
                    .completion_fct(t, &drain, outcome.voq, &info, size, base_fct);
            self.fct.record(info.class, size, flow_fct);
            self.fct_by_size.record(size, flow_fct);
            fan.on_completion(&CompletionEvent {
                time: t.as_secs(),
                flow: drain.flow,
                voq: outcome.voq,
                size: done.size(),
                fct: flow_fct.as_secs(),
            });
            if self.collect_completions {
                self.completed.push(CompletionRecord {
                    flow: drain.flow,
                    time: t,
                    voq: outcome.voq,
                    class: info.class,
                    size,
                    fct: flow_fct,
                });
            }
            self.completions += 1;
        }
    }

    /// Runs one event instant `t`: settle completions, admit due
    /// arrivals, sample, reallocate.
    fn advance_to(&mut self, t: SimTime) -> Result<(), FabricError> {
        self.policy.before_settle(t);
        let mut drains = std::mem::take(&mut self.drain_buf);
        let mut completed_any = false;
        if t > self.clock {
            // Eager mode settles every account on every event. Lazy mode
            // settles only the due completions — unless this instant is an
            // observation point (a sample fires here, or the horizon is
            // reached and the final table state is about to be read), where
            // every account must be exact at once.
            let observe_all =
                !self.mode.is_lazy() || self.next_sample <= t || t >= self.config.horizon;
            completed_any = self.policy.settle(t, observe_all, &mut drains);
            for drain in drains.drain(..) {
                self.apply_drain(t, drain);
            }
        }
        self.clock = t;

        if self.clock >= self.config.horizon {
            self.finished = true;
            self.drain_buf = drains;
            return Ok(());
        }

        // Arrivals landing at (or before) the current instant.
        let mut arrived_any = false;
        let clock = self.clock;
        while let Some(arrival) = self.pending.pop_front_if(|a| a.time <= clock) {
            let slot = self
                .table
                .insert(FlowState::new(
                    arrival.id,
                    arrival.voq,
                    arrival.size.as_u64(),
                ))
                .map_err(|e| FabricError::BadArrival(e.to_string()))?;
            put_meta(
                &mut self.meta,
                slot,
                FlowMeta {
                    class: arrival.class,
                    arrival: arrival.time,
                },
            );
            self.policy.on_arrival(self.topo, &arrival, slot);
            self.arrivals += 1;
            self.arrived_bytes += arrival.size;
            arrived_any = true;
            Fanout::new(&mut self.sampler, &mut self.probe).on_arrival(&ArrivalEvent {
                time: arrival.time.as_secs(),
                flow: arrival.id,
                voq: arrival.voq,
                size: arrival.size.as_u64(),
            });
        }

        // Sampling (after same-instant arrivals, so a t = 0 sample records
        // the admitted backlog, not a spurious zero).
        if self.next_sample <= self.clock {
            Fanout::new(&mut self.sampler, &mut self.probe).on_sample(&SampleEvent {
                time: self.clock.as_secs(),
                table: &self.table,
                delivered: self.throughput.delivered().as_f64(),
            });
            self.next_sample += self.config.sample_every();
        }

        // Reallocate on arrival or completion (the paper's update rule).
        if arrived_any || completed_any {
            let mut fan = Fanout::new(&mut self.sampler, &mut self.probe);
            let lazy = self.mode.is_lazy();
            self.policy
                .reschedule(self.topo, t, &self.table, lazy, &mut fan, &mut drains);
            for drain in drains.drain(..) {
                debug_assert!(!drain.completed, "evictions never complete a flow");
                self.apply_drain(t, drain);
            }
            self.reschedules += 1;
        }
        self.drain_buf = drains;
        Ok(())
    }

    /// Runs to the horizon and returns the run measurements and the
    /// policy's final state.
    fn finish(mut self) -> Result<(FabricRun, A), FabricError> {
        self.step_until(self.config.horizon)?;
        debug_assert!(self.finished, "the horizon event marks the engine finished");
        let series = self.sampler.into_series();
        let run = FabricRun {
            fct: self.fct,
            fct_by_size: self.fct_by_size,
            throughput: self.throughput,
            total_backlog: series.total_backlog,
            monitored_port_backlog: series.monitored_port_backlog,
            max_port_backlog: series.max_port_backlog,
            cumulative_delivered: series.cumulative_delivered,
            arrivals: self.arrivals,
            completions: self.completions,
            arrived_bytes: self.arrived_bytes,
            leftover_bytes: Bytes::new(self.table.total_backlog()),
            leftover_flows: self.table.len(),
            reschedules: self.reschedules,
            horizon: self.config.horizon,
        };
        Ok((run, self.policy))
    }
}

/// Records an admitted flow's metadata at its table slot. Slots are dense
/// (a new slot is the slab's next index), so `meta` grows by at most one.
fn put_meta(meta: &mut Vec<FlowMeta>, slot: FlowSlot, info: FlowMeta) {
    meta.resize(meta.len().max(slot.index() + 1), info);
    meta[slot.index()] = info;
}

/// The batch loop of every engine: the core under the policy `policy`
/// builds, fed arrival by arrival. For each arrival the loop steps
/// through every event instant *strictly before* the arrival, then offers
/// it — so same-instant completions, samples and decisions coalesce with
/// the arrival into one event, and the in-flight buffer never holds more
/// than one instant's arrivals.
pub(crate) fn run_batch<T: Topology + ?Sized, A: AllocationPolicy, P: Probe>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
    policy: impl FnOnce(bool) -> A,
) -> Result<(FabricRun, A), FabricError> {
    config.validate()?;
    let mut core = Core::new(topo, config, probe, policy);
    core.high_watermark = usize::MAX;
    core.collect_completions = false;
    for arrival in generator {
        core.step_before(arrival.time)?;
        if core.finished {
            // The horizon passed while stepping: the remaining arrivals
            // can never be admitted.
            break;
        }
        match core.offer(arrival) {
            Ok(_) => {}
            Err(OfferError::Rejected(e)) => return Err(e),
            Err(e) => unreachable!("unbounded buffer on an unfinished engine: {e}"),
        }
    }
    core.finish()
}

/// The step-able online fabric engine — one simulation run as a resumable
/// state machine (see the module docs in `online.rs` for the protocol and an
/// example).
///
/// Obtained from [`OnlineFabric::new`] / [`with_probe`], or from a
/// [`FabricSnapshot`] via [`restore`](OnlineFabric::restore).
///
/// [`with_probe`]: OnlineFabric::with_probe
#[derive(Debug)]
pub struct OnlineFabric<'t, 's, T: Topology + ?Sized, S: Scheduler + ?Sized, P: Probe = NoProbe> {
    core: Core<'t, T, Crossbar<'s, S>, P>,
}

impl<'t, 's, T: Topology + ?Sized, S: Scheduler + ?Sized> OnlineFabric<'t, 's, T, S, NoProbe> {
    /// Creates an idle engine at `t = 0` with no observer attached.
    ///
    /// # Panics
    ///
    /// As [`with_probe`](OnlineFabric::with_probe).
    pub fn new(topo: &'t T, scheduler: &'s mut S, config: SimConfig) -> Self {
        Self::with_probe(topo, scheduler, config, NoProbe)
    }

    /// Rebuilds an engine from a [`FabricSnapshot`] with no observer
    /// attached — see [`restore_with_probe`] for the contract.
    ///
    /// [`restore_with_probe`]: OnlineFabric::restore_with_probe
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadConfig`] when the snapshot is internally
    /// inconsistent or references hosts outside `topo`.
    pub fn restore(
        topo: &'t T,
        scheduler: &'s mut S,
        snapshot: FabricSnapshot,
    ) -> Result<Self, FabricError> {
        Self::restore_with_probe(topo, scheduler, NoProbe, snapshot)
    }
}

impl<'t, 's, T: Topology + ?Sized, S: Scheduler + ?Sized, P: Probe> OnlineFabric<'t, 's, T, S, P> {
    /// Creates an idle engine at `t = 0` whose event stream feeds `probe`.
    ///
    /// # Panics
    ///
    /// Panics with [`SimConfig::validate`]'s message if `config` fails it
    /// (a zero or infinite horizon or sampling period would never let the
    /// clock reach the horizon).
    pub fn with_probe(topo: &'t T, scheduler: &'s mut S, config: SimConfig, probe: P) -> Self {
        config.assert_valid();
        OnlineFabric {
            core: Core::new(topo, config, probe, |enforce_core| {
                Crossbar::new(topo, scheduler, enforce_core, 1)
            }),
        }
    }

    /// Rebuilds an engine from a [`FabricSnapshot`], feeding subsequent
    /// events to `probe`.
    ///
    /// The caller supplies the topology and scheduler the snapshot was
    /// taken under (neither is serialized). With the same topology and an
    /// equivalently-stated scheduler, the restored engine's remaining
    /// events, completions, series points, and final [`FabricRun`] are
    /// bit-identical to the uninterrupted run — the contract pinned by
    /// `tests/online_differential.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadConfig`] when the snapshot is internally
    /// inconsistent (duplicate flows, drain accounts that disagree with
    /// the flow table, or two accounts on one VOQ), references hosts
    /// outside `topo`, or carries a config that fails
    /// [`SimConfig::validate`].
    pub fn restore_with_probe(
        topo: &'t T,
        scheduler: &'s mut S,
        probe: P,
        snapshot: FabricSnapshot,
    ) -> Result<Self, FabricError> {
        snapshot.config.validate()?;
        let bad = |msg: String| FabricError::BadConfig(format!("bad snapshot: {msg}"));

        let mut table = FlowTable::with_hosts(topo.num_hosts());
        let mut meta = Vec::with_capacity(snapshot.flows.len());
        for &(flow, info) in &snapshot.flows {
            if !topo.contains(flow.voq().src()) || !topo.contains(flow.voq().dst()) {
                return Err(bad(format!(
                    "flow {} uses hosts outside the {}-host topology",
                    flow.id(),
                    topo.num_hosts()
                )));
            }
            let slot = table.insert(flow).map_err(|e| bad(e.to_string()))?;
            put_meta(&mut meta, slot, info);
        }

        let mut bound = HashSet::with_capacity(snapshot.entries.len());
        let mut entries = Vec::with_capacity(snapshot.entries.len());
        for &e in &snapshot.entries {
            let unknown = || bad(format!("scheduled entry for unknown flow {}", e.flow));
            // The restored table assigned its own slots.
            let at = table.slot_of(e.flow).ok_or_else(unknown)?;
            let flow = table.get_at(at, e.flow).ok_or_else(unknown)?;
            // The allocator binds each entry to its flow's VOQ's table
            // slot (an entry names no VOQ of its own), and
            // a crossbar matching schedules at most one flow per VOQ (so a
            // flow listed twice is caught here too).
            let slot = table
                .voq_slot(flow.voq())
                .ok_or_else(|| bad(format!("flow {} has no VOQ slot", e.flow)))?;
            if !bound.insert(slot) {
                return Err(bad(format!(
                    "{:?} scheduled twice (again by flow {})",
                    flow.voq(),
                    e.flow
                )));
            }
            if e.settled >= e.epoch_remaining {
                return Err(bad(format!(
                    "flow {} snapshotted fully settled (tombstones are never captured)",
                    e.flow
                )));
            }
            if flow.remaining() != e.epoch_remaining - e.settled {
                return Err(bad(format!(
                    "flow {} drain account disagrees with the flow table \
                     ({} remaining vs {} owed)",
                    e.flow,
                    flow.remaining(),
                    e.epoch_remaining - e.settled
                )));
            }
            entries.push((ScheduledEntry { slot: at, ..e }, flow.voq(), slot));
        }
        let alloc = DeltaAllocator::restore(topo.edge_rate(), entries, snapshot.alloc_stats);
        let core = Core::new(topo, snapshot.config, probe, |enforce_core| Crossbar {
            alloc,
            ..Crossbar::new(topo, scheduler, enforce_core, 1)
        });
        Ok(OnlineFabric {
            core: Core {
                table,
                meta,
                fct: snapshot.fct,
                fct_by_size: snapshot.fct_by_size,
                throughput: snapshot.throughput,
                sampler: snapshot.sampler,
                arrivals: snapshot.arrivals,
                completions: snapshot.completions,
                arrived_bytes: snapshot.arrived_bytes,
                reschedules: snapshot.reschedules,
                clock: snapshot.clock,
                next_sample: snapshot.next_sample,
                last_arrival_time: snapshot.last_arrival_time,
                pending: snapshot.pending.into(),
                high_watermark: snapshot.high_watermark,
                completed: snapshot.completed,
                finished: snapshot.finished,
                ..core
            },
        })
    }

    /// Replaces the in-flight buffer bound (builder style; default
    /// [`DEFAULT_HIGH_WATERMARK`]). `usize::MAX` disables backpressure.
    pub fn high_watermark(mut self, limit: usize) -> Self {
        self.core.high_watermark = limit;
        self
    }

    /// The settlement mode this engine runs under.
    pub fn settle_mode(&self) -> SettleMode {
        self.core.mode
    }

    /// Offers one arrival to the engine.
    ///
    /// Arrivals must be offered in non-decreasing time order (the same
    /// contract batch [`simulate`](crate::simulate) enforces) and are
    /// buffered until the clock steps up to their arrival instant.
    ///
    /// # Errors
    ///
    /// [`OfferError::Backpressure`] when the in-flight buffer is at its
    /// high-watermark (step the engine, then retry),
    /// [`OfferError::Rejected`] when the arrival itself is invalid, and
    /// [`OfferError::Finished`] once the horizon has been reached.
    pub fn offer(&mut self, arrival: FlowArrival) -> Result<Accepted, OfferError> {
        self.core.offer(arrival)
    }

    /// Processes every internal event at instants `<= limit`, returning
    /// how many event instants were processed. The clock never moves past
    /// the earliest pending event, so stepping far beyond the last offered
    /// arrival is safe — the engine stops at the horizon.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadArrival`] if a buffered arrival's flow id
    /// collides with an active flow (the only admission failure left after
    /// [`offer`](OnlineFabric::offer) validation).
    pub fn step_until(&mut self, limit: SimTime) -> Result<u64, FabricError> {
        self.core.step_until(limit)
    }

    /// Processes every internal event at instants strictly before
    /// `limit` — the batch wrapper's primitive: stepping strictly before
    /// the next arrival's instant leaves same-instant completions and
    /// samples to coalesce with that arrival into a single event.
    ///
    /// # Errors
    ///
    /// As [`step_until`](OnlineFabric::step_until).
    pub fn step_before(&mut self, limit: SimTime) -> Result<u64, FabricError> {
        self.core.step_before(limit)
    }

    /// Takes the completions recorded since the last call (or since
    /// construction), in completion order.
    pub fn drain_completions(&mut self) -> Vec<CompletionRecord> {
        std::mem::take(&mut self.core.completed)
    }

    /// Runs the engine to its horizon and returns the run measurements —
    /// bit-identical to batch [`simulate`](crate::simulate) over the same
    /// offered arrivals.
    ///
    /// # Errors
    ///
    /// As [`step_until`](OnlineFabric::step_until).
    pub fn finish(self) -> Result<FabricRun, FabricError> {
        self.core.finish().map(|(run, ..)| run)
    }

    /// Captures the full engine state as a [`FabricSnapshot`]. The engine
    /// is untouched and can keep running; the snapshot restores (onto the
    /// same topology and an equivalently-stated scheduler) to an engine
    /// that continues bit-for-bit.
    pub fn snapshot(&self) -> FabricSnapshot {
        let core = &self.core;
        let mut flows: Vec<(FlowState, FlowMeta)> = core
            .table
            .slots()
            .map(|(slot, f)| (*f, core.meta[slot.index()]))
            .collect();
        flows.sort_by_key(|(f, _)| f.id());
        FabricSnapshot {
            config: core.config,
            flows,
            entries: core.policy.alloc.snapshot_entries(),
            alloc_stats: core.policy.alloc.stats(),
            pending: core.pending.iter().copied().collect(),
            fct: core.fct.clone(),
            fct_by_size: core.fct_by_size.clone(),
            throughput: core.throughput,
            sampler: core.sampler.clone(),
            clock: core.clock,
            next_sample: core.next_sample,
            last_arrival_time: core.last_arrival_time,
            arrivals: core.arrivals,
            completions: core.completions,
            arrived_bytes: core.arrived_bytes,
            reschedules: core.reschedules,
            finished: core.finished,
            high_watermark: core.high_watermark,
            completed: core.completed.clone(),
        }
    }

    /// The current simulated instant (the last processed event's time).
    pub fn clock(&self) -> SimTime {
        self.core.clock
    }

    /// Whether the horizon has been reached; once `true`, only
    /// [`drain_completions`](OnlineFabric::drain_completions),
    /// [`snapshot`](OnlineFabric::snapshot) and
    /// [`finish`](OnlineFabric::finish) remain useful.
    pub fn is_finished(&self) -> bool {
        self.core.finished
    }

    /// Number of currently active (admitted, not completed) flows.
    pub fn active_flows(&self) -> usize {
        self.core.table.len()
    }

    /// Cumulative delta-rescheduling statistics so far.
    pub fn delta_stats(&self) -> DeltaStats {
        self.core.policy.alloc.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairshare::FairShare;
    use crate::repflow::Replicated;
    use crate::{FatTree, KAryFatTree};
    use basrpt_core::{RepFlow, Srpt};
    use dcn_types::{FlowClass, FlowId, HostId, Voq};
    use dcn_workload::TrafficSpec;

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

    fn config(horizon_s: f64) -> SimConfig {
        SimConfig::builder()
            .horizon(SimTime::from_secs(horizon_s))
            .build()
    }

    #[test]
    fn offer_step_finish_matches_batch_counters() {
        let topo = small_topo();
        let mut sched = Srpt::new();
        let mut online = OnlineFabric::new(&topo, &mut sched, config(0.01));
        online.offer(arrival(0, 0.0, 0, 1, 1_250_000)).unwrap();
        assert_eq!(online.core.pending.len(), 1);
        online.step_until(SimTime::from_millis(2.0)).unwrap();
        assert_eq!(online.core.pending.len(), 0);
        // The clock sits at the last processed event instant, at or before
        // the step limit but past the 1 ms completion.
        assert!(online.clock() >= SimTime::from_millis(1.0));
        assert!(online.clock() <= SimTime::from_millis(2.0));
        let done = online.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].fct, SimTime::from_millis(1.0));
        assert_eq!(done[0].size, Bytes::new(1_250_000));
        let run = online.finish().unwrap();
        assert_eq!(run.completions, 1);
        assert_eq!(run.leftover_flows, 0);
    }

    #[test]
    fn a_reused_slot_keeps_each_flows_class_and_arrival() {
        // Query flow A (1 ms at line rate) completes at the instant
        // background flow B arrives; B takes A's freed table slot.
        let topo = small_topo();
        let base = SimTime::from_micros(7.0);
        let config = SimConfig::builder()
            .horizon(SimTime::from_secs(0.01))
            .base_latency(base)
            .build();
        let mut sched = Srpt::new();
        let mut online = OnlineFabric::new(&topo, &mut sched, config);
        let mut a = arrival(0, 0.0, 0, 1, 1_250_000);
        a.class = FlowClass::Query;
        let b = arrival(1, 0.001, 2, 3, 2_500_000);
        online.offer(a).unwrap();
        online.offer(b).unwrap();
        online.step_until(b.time).unwrap();
        let slots: Vec<(usize, FlowId)> = online
            .core
            .table
            .slots()
            .map(|(slot, f)| (slot.index(), f.id()))
            .collect();
        assert_eq!(slots, vec![(0, b.id)], "B reuses A's slot");

        online.step_until(SimTime::from_millis(5.0)).unwrap();
        let done = online.drain_completions();
        assert_eq!(done.len(), 2);
        let (rec_a, rec_b) = (done[0], done[1]);
        assert_eq!((rec_a.flow, rec_a.class), (a.id, FlowClass::Query));
        assert_eq!(rec_a.time, b.time);
        assert_eq!(rec_a.fct, rec_a.time - a.time + base);
        assert_eq!((rec_b.flow, rec_b.class), (b.id, FlowClass::Background));
        assert!(rec_b.time > b.time);
        assert_eq!(rec_b.fct, rec_b.time - b.time + base);
    }

    #[test]
    fn backpressure_trips_at_the_watermark_and_clears_after_stepping() {
        let topo = small_topo();
        let mut sched = Srpt::new();
        let mut online = OnlineFabric::new(&topo, &mut sched, config(1.0)).high_watermark(2);
        online.offer(arrival(0, 0.001, 0, 1, 100)).unwrap();
        online.offer(arrival(1, 0.002, 2, 3, 100)).unwrap();
        let err = online.offer(arrival(2, 0.003, 4, 5, 100)).unwrap_err();
        assert_eq!(
            err,
            OfferError::Backpressure {
                in_flight: 2,
                high_watermark: 2
            }
        );
        online.step_until(SimTime::from_secs(0.0025)).unwrap();
        assert_eq!(online.core.pending.len(), 0);
        assert!(matches!(
            online.offer(arrival(2, 0.003, 4, 5, 100)),
            Ok(Accepted::Queued { in_flight: 1 })
        ));
    }

    #[test]
    fn arrivals_at_or_past_the_horizon_are_ignored() {
        let topo = small_topo();
        let mut sched = Srpt::new();
        let mut online = OnlineFabric::new(&topo, &mut sched, config(0.01));
        assert_eq!(
            online.offer(arrival(0, 0.01, 0, 1, 100)).unwrap(),
            Accepted::IgnoredAfterHorizon
        );
        // Dropped without validation — even an invalid self-loop passes.
        let mut bad = arrival(1, 0.5, 3, 3, 0);
        bad.size = Bytes::ZERO;
        assert_eq!(online.offer(bad).unwrap(), Accepted::IgnoredAfterHorizon);
        let run = online.finish().unwrap();
        assert_eq!(run.arrivals, 0);
    }

    #[test]
    fn offers_after_finish_report_finished() {
        let topo = small_topo();
        let mut sched = Srpt::new();
        let mut online = OnlineFabric::new(&topo, &mut sched, config(0.01));
        online.step_until(SimTime::from_secs(1.0)).unwrap();
        assert!(online.is_finished());
        assert_eq!(
            online.offer(arrival(0, 0.001, 0, 1, 100)).unwrap_err(),
            OfferError::Finished
        );
    }

    #[test]
    fn invalid_arrivals_are_rejected_at_offer_time() {
        let topo = small_topo();
        let mut sched = Srpt::new();
        let mut online = OnlineFabric::new(&topo, &mut sched, config(1.0));
        assert!(matches!(
            online.offer(arrival(0, 0.1, 0, 0, 100)),
            Err(OfferError::Rejected(FabricError::BadArrival(_)))
        ));
        online.offer(arrival(1, 0.2, 0, 1, 100)).unwrap();
        // Time must not run backwards across offers.
        assert!(matches!(
            online.offer(arrival(2, 0.1, 2, 3, 100)),
            Err(OfferError::Rejected(FabricError::BadArrival(_)))
        ));
    }

    /// Flows larger than `MAX_FLOW_BYTES` would overflow the byte totals:
    /// two `u64::MAX` flows on different sources are both rejected.
    #[test]
    fn oversized_flows_are_rejected_at_offer_time() {
        let topo = small_topo();
        let mut sched = Srpt::new();
        let mut online = OnlineFabric::new(&topo, &mut sched, config(1.0));
        for (id, src) in [(0, 0), (1, 2)] {
            assert!(matches!(
                online.offer(arrival(id, 0.1, src, 1, u64::MAX)),
                Err(OfferError::Rejected(FabricError::BadArrival(_)))
            ));
        }
        assert!(matches!(
            online.offer(arrival(2, 0.1, 0, 1, crate::MAX_FLOW_BYTES + 1)),
            Err(OfferError::Rejected(FabricError::BadArrival(_)))
        ));
        let run = online.finish().unwrap();
        assert_eq!((run.arrivals, run.arrived_bytes.as_u64()), (0, 0));
    }

    /// A flow of exactly `MAX_FLOW_BYTES` is accepted, and its run, with a
    /// small flow competing for its ports, conserves every byte.
    #[test]
    fn a_flow_at_the_size_limit_is_accepted_and_conserved() {
        let topo = small_topo();
        for mut sched in [
            Box::new(Srpt::new()) as Box<dyn Scheduler>,
            Box::new(basrpt_core::FastBasrpt::new(2500.0, 8)),
        ] {
            let mut online = OnlineFabric::new(&topo, sched.as_mut(), config(0.01));
            online
                .offer(arrival(0, 0.0, 0, 1, crate::MAX_FLOW_BYTES))
                .unwrap();
            online.offer(arrival(1, 0.001, 2, 1, 5_000)).unwrap();
            let run = online.finish().unwrap();
            assert_eq!(run.arrivals, 2);
            assert_eq!(run.arrived_bytes.as_u64(), crate::MAX_FLOW_BYTES + 5_000);
            assert_eq!(
                run.arrived_bytes,
                run.throughput.delivered() + run.leftover_bytes
            );
            assert_eq!((run.completions, run.leftover_flows), (1, 1));
        }
    }

    /// Struct literals bypass `SimConfigBuilder::build`; an infinite
    /// horizon would never let the clock reach it, so every entry point
    /// rejects it up front.
    #[test]
    fn configs_that_never_reach_the_horizon_are_rejected() {
        let topo = small_topo();
        let workload = [arrival(0, 0.0, 0, 1, 100)];
        let endless = SimConfig {
            horizon: SimTime::INFINITY,
            ..config(0.01)
        };
        let err = crate::simulate(&topo, &mut Srpt::new(), workload, endless).unwrap_err();
        assert!(matches!(err, FabricError::BadConfig(_)), "{err}");
        let err = crate::reference::simulate_scan(&topo, &mut Srpt::new(), workload, endless)
            .unwrap_err();
        assert!(matches!(err, FabricError::BadConfig(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "horizon must be positive and finite")]
    fn online_fabric_panics_on_an_endless_horizon() {
        let config = SimConfig {
            horizon: SimTime::INFINITY,
            ..config(0.01)
        };
        OnlineFabric::new(&small_topo(), &mut Srpt::new(), config);
    }

    #[test]
    fn snapshot_restore_midrun_continues_to_the_same_run() {
        let topo = small_topo();
        let workload = vec![
            arrival(0, 0.0, 0, 1, 1_250_000),
            arrival(1, 0.0002, 2, 1, 600_000),
            arrival(2, 0.0005, 4, 5, 2_000_000),
            arrival(3, 0.0011, 6, 7, 40_000),
        ];

        let mut sched_a = Srpt::new();
        let mut uninterrupted = OnlineFabric::new(&topo, &mut sched_a, config(0.01));
        for a in &workload {
            uninterrupted.offer(*a).unwrap();
        }
        let want = uninterrupted.finish().unwrap();

        let mut sched_b = Srpt::new();
        let mut first = OnlineFabric::new(&topo, &mut sched_b, config(0.01));
        for a in &workload[..2] {
            first.offer(*a).unwrap();
        }
        first.step_until(SimTime::from_secs(0.0004)).unwrap();
        let snap = first.snapshot();
        assert!(snap.active_flows() > 0);
        let snap_clock = first.clock();
        drop(first);

        let mut sched_c = Srpt::new();
        let mut resumed = OnlineFabric::restore(&topo, &mut sched_c, snap).unwrap();
        assert_eq!(resumed.clock(), snap_clock);
        for a in &workload[2..] {
            resumed.offer(*a).unwrap();
        }
        let got = resumed.finish().unwrap();

        assert_eq!(got.completions, want.completions);
        assert_eq!(got.arrivals, want.arrivals);
        assert_eq!(got.reschedules, want.reschedules);
        assert_eq!(got.throughput.delivered(), want.throughput.delivered());
        assert_eq!(
            got.total_backlog.values(),
            want.total_backlog.values(),
            "restored series must continue bit-for-bit"
        );
    }

    /// Runs `workload` on the core under the policy `policy` builds,
    /// eagerly settled when `eager`.
    fn drive<T: Topology, A: AllocationPolicy>(
        topo: &T,
        workload: &[FlowArrival],
        eager: bool,
        policy: impl FnOnce(bool) -> A,
    ) -> (SettleMode, FabricRun, A) {
        let mut core = Core::new(topo, config(0.01), NoProbe, policy);
        if eager {
            core.mode = SettleMode::Eager;
        }
        for a in workload {
            core.offer(*a).unwrap();
        }
        let mode = core.mode;
        let (run, policy) = core.finish().unwrap();
        (mode, run, policy)
    }

    fn assert_same_run(lazy: &FabricRun, eager: &FabricRun, label: &str) {
        assert_eq!(lazy.arrivals, eager.arrivals, "{label}");
        assert_eq!(lazy.completions, eager.completions, "{label}");
        assert_eq!(lazy.reschedules, eager.reschedules, "{label}");
        assert_eq!(lazy.arrived_bytes, eager.arrived_bytes, "{label}");
        assert_eq!(
            lazy.throughput.delivered(),
            eager.throughput.delivered(),
            "{label}"
        );
        assert_eq!(lazy.leftover_bytes, eager.leftover_bytes, "{label}");
        assert_eq!(lazy.leftover_flows, eager.leftover_flows, "{label}");
        assert_eq!(lazy.total_backlog, eager.total_backlog, "{label}");
        assert_eq!(
            lazy.monitored_port_backlog, eager.monitored_port_backlog,
            "{label}"
        );
        assert_eq!(lazy.max_port_backlog, eager.max_port_backlog, "{label}");
        assert_eq!(
            lazy.cumulative_delivered, eager.cumulative_delivered,
            "{label}"
        );
        assert_eq!(
            lazy.fct.overall_summary(),
            eager.fct.overall_summary(),
            "{label}"
        );
        assert!(lazy.completions > 0, "{label}: non-trivial run");
    }

    /// Lazy settlement is unobservable under every allocation policy:
    /// crossbar, max-min fair share, ECMP and RepFlow each produce the
    /// bit-identical run — and, for RepFlow, the identical completion log
    /// and replica accounting — lazily and eagerly settled.
    #[test]
    fn lazy_and_eager_settlement_agree_bitwise() {
        let topo = small_topo();
        // Contention on egress 1 forces SRPT preemptions (evictions with
        // unsettled bytes), completions exercise due-settlement, and the
        // default sample cadence exercises observation-point settlement.
        let workload = vec![
            arrival(0, 0.0, 0, 1, 2_000_000),
            arrival(1, 0.0002, 2, 1, 300_000),
            arrival(2, 0.0003, 4, 1, 100_000),
            arrival(3, 0.0004, 0, 5, 400_000),
            arrival(4, 0.0007, 6, 7, 1_250_000),
            arrival(5, 0.0012, 2, 3, 50_000),
        ];
        let crossbar = |eager| {
            let mut sched = Srpt::new();
            let (mode, run, _) = drive(&topo, &workload, eager, |e| {
                Crossbar::new(&topo, &mut sched, e, 1)
            });
            (mode, run)
        };
        let ((lazy_mode, lazy), (eager_mode, eager)) = (crossbar(false), crossbar(true));
        assert_eq!(eager_mode, SettleMode::Eager);
        assert!(lazy_mode.is_lazy(), "SRPT + NoProbe runs lazy");
        assert_same_run(&lazy, &eager, "crossbar");

        // Fair share re-rates flows on every arrival and completion, so
        // unsettled residues drain at rate changes too.
        let (lazy_mode, lazy, _) = drive(&topo, &workload, false, |e| FairShare::new(&topo, e));
        let (_, eager, _) = drive(&topo, &workload, true, |e| FairShare::new(&topo, e));
        assert!(lazy_mode.is_lazy());
        assert_same_run(&lazy, &eager, "fair share");

        // ECMP and RepFlow on the 2-plane, 2:1 fabric, where plane
        // collisions reject flows and replicas win races.
        let kary = KAryFatTree::builder(4)
            .hosts_per_edge(4)
            .oversubscription(2.0)
            .build()
            .unwrap();
        let traffic: Vec<FlowArrival> = TrafficSpec::scaled(kary.num_racks(), 4, 0.8)
            .unwrap()
            .generator(3)
            .unwrap()
            .take_while(|a| a.time < SimTime::from_secs(0.01))
            .collect();
        let ecmp = |eager| {
            let mut sched = Srpt::new();
            let (mode, run, _) = drive(&kary, &traffic, eager, |e| {
                Crossbar::new(&kary, &mut sched, e, kary.core_planes())
            });
            (mode, run)
        };
        let ((lazy_mode, lazy), (_, eager)) = (ecmp(false), ecmp(true));
        assert!(lazy_mode.is_lazy());
        assert_same_run(&lazy, &eager, "ecmp");

        let repflow = |eager| {
            let mut discipline = RepFlow::default();
            let cfg = config(0.01);
            let (mode, run, policy) = drive(&kary, &traffic, eager, |e| {
                Replicated::new(&kary, &mut discipline, &cfg, e)
            });
            (mode, policy.into_run(run, cfg.horizon))
        };
        let ((lazy_mode, lazy), (_, eager)) = (repflow(false), repflow(true));
        assert!(lazy_mode.is_lazy());
        assert_same_run(&lazy.run, &eager.run, "repflow");
        assert_eq!(
            lazy.completions, eager.completions,
            "repflow completion log"
        );
        assert_eq!(lazy.stats, eager.stats, "repflow stats");
        assert!(lazy.stats.replica_wins > 0, "non-trivial races");
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let topo = small_topo();
        let mut sched = Srpt::new();
        let mut online = OnlineFabric::new(&topo, &mut sched, config(0.01));
        online.offer(arrival(0, 0.0, 0, 1, 1_250_000)).unwrap();
        // A longer flow waits behind flow 0 on the same VOQ, and another
        // on a second VOQ, so both VOQs hold table slots.
        online.offer(arrival(1, 0.0, 0, 1, 2_500_000)).unwrap();
        online.offer(arrival(2, 0.0, 2, 3, 2_500_000)).unwrap();
        online.step_until(SimTime::from_secs(0.0001)).unwrap();
        let snap = online.snapshot();
        drop(online);
        assert_eq!(snap.entries[0].flow, FlowId::new(0));
        let restore = |snap: FabricSnapshot| {
            let mut sched = Srpt::new();
            OnlineFabric::restore(&topo, &mut sched, snap).map(drop)
        };
        restore(snap.clone()).expect("the untouched snapshot restores");

        // A smaller topology no longer contains the snapshot's hosts.
        let tiny = FatTree::scaled(1, 1, 1).unwrap();
        let mut sched2 = Srpt::new();
        let err = OnlineFabric::restore(&tiny, &mut sched2, snap.clone()).unwrap_err();
        assert!(matches!(err, FabricError::BadConfig(_)), "{err}");

        // So is a config no run could finish under.
        let mut broken = snap.clone();
        broken.config.horizon = SimTime::INFINITY;
        let err = restore(broken).unwrap_err();
        assert!(matches!(err, FabricError::BadConfig(_)), "{err}");

        // A flow listed twice is rejected as it enters the table.
        let mut broken = snap.clone();
        broken.flows.push(broken.flows[0]);
        let err = restore(broken).unwrap_err();
        assert!(matches!(err, FabricError::BadConfig(_)), "{err}");

        // Corrupting the drain account must be caught.
        let mut broken = snap.clone();
        broken.entries[0].settled += 1;
        let err = restore(broken).unwrap_err();
        assert!(matches!(err, FabricError::BadConfig(_)), "{err}");

        // A flow scheduled twice is caught as well.
        let mut broken = snap.clone();
        broken.entries.push(broken.entries[0]);
        let err = restore(broken).unwrap_err();
        assert!(matches!(err, FabricError::BadConfig(_)), "{err}");

        // Two flows scheduled on one VOQ are not a crossbar matching.
        let mut broken = snap;
        let waiting = ScheduledEntry {
            flow: FlowId::new(1),
            epoch_remaining: 2_500_000,
            settled: 0,
            ..broken.entries[0]
        };
        broken.entries.push(waiting);
        let err = restore(broken).unwrap_err();
        assert!(matches!(err, FabricError::BadConfig(_)), "{err}");
    }
}
