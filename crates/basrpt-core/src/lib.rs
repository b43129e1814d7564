//! Flow scheduling disciplines for data-center fabrics.
//!
//! This crate implements the primary contribution of *"Backlog-Aware SRPT
//! Flow Scheduling in Data Center Networks"* (ICDCS 2016): the **BASRPT**
//! family of schedulers, together with the SRPT discipline they improve on
//! and several baselines used in the evaluation and ablations.
//!
//! All schedulers operate on a [`FlowTable`] — the set of active flows
//! organized in virtual output queues (VOQs), mirroring the paper's "one big
//! switch" abstraction of the fabric (§III) — and produce a [`Schedule`]: a
//! crossbar matching that uses each ingress and each egress port at most
//! once.
//!
//! Flow sizes are measured in abstract *units* so the same schedulers drive
//! both the packet-granularity slotted switch model (`dcn-switch`, units =
//! packets) and the byte-granularity flow-level fabric simulator
//! (`dcn-fabric`, units = bytes).
//!
//! # Disciplines
//!
//! | Type | Paper reference | Ranking key (smaller = served first) |
//! |------|-----------------|--------------------------------------|
//! | [`Srpt`] | §II, the greedy maximal SRPT of PDQ/pFabric/PASE | remaining size |
//! | [`FastBasrpt`] | §IV-C, Algorithm 1 | `(V/N)·remaining − voq_backlog` |
//! | [`ExactBasrpt`] | §IV-A optimization problem | exhaustive search over maximal schedules minimizing `V·ȳ − Σ X_ij R_ij` |
//! | [`ThresholdBacklogSrpt`] | Fig. 2's comparison strategy | SRPT, but VOQs whose backlog exceeds a threshold jump the queue |
//! | [`MaxWeight`] | classic throughput-optimal baseline (the `V → 0` limit) | `−voq_backlog` |
//!
//! The fair-share baseline is not a crossbar matching, so it is not here:
//! it is `dcn-fabric`'s max-min water-filling engine.
//!
//! # Decision paths
//!
//! Every key-driven discipline decides through one function over the
//! per-VOQ champions ([`schedule_champions_adjusted`]). Each discipline
//! owns a [`Ranking`] that carries the previous decision's matching into
//! the next: behind a checked certificate, a decision repairs it around
//! the VOQs that changed; without one (or when the discipline's keys can
//! rise, [`KeyMotion::MayRise`]) it runs the full greedy pass, `O(Q log Q)`
//! in the number of non-empty VOQs. Either way the schedule is the same,
//! and the decision counts ([`DecisionCounts`]) say which way each went.
//! The single oracle is the full-scan
//! [`reference::schedule_scan`], which rebuilds every champion from the
//! flows and ranks them with its own [`reference::VoqDiscipline`] keys;
//! the differential suites pin the two bit-identical.
//!
//! # Example
//!
//! ```
//! use basrpt_core::{FastBasrpt, FlowState, FlowTable, Scheduler};
//! use dcn_types::{FlowId, HostId, Voq};
//!
//! let mut table = FlowTable::new();
//! let q01 = Voq::new(HostId::new(0), HostId::new(1));
//! let q21 = Voq::new(HostId::new(2), HostId::new(1));
//! table.insert(FlowState::new(FlowId::new(1), q01, 5))?;
//! table.insert(FlowState::new(FlowId::new(2), q21, 1))?;
//!
//! let mut sched = FastBasrpt::new(2500.0, 144);
//! let schedule = sched.schedule(&table);
//! // Both flows target egress 1, so exactly one of them is selected.
//! assert_eq!(schedule.len(), 1);
//! # Ok::<(), basrpt_core::FlowTableError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod disciplines;
mod flow;
pub mod reference;
mod schedule;
mod scheduler;
mod table;
pub mod validity;

pub use disciplines::{
    ExactBasrpt, ExactBasrptError, FastBasrpt, MaxWeight, PenaltyKind, RepFlow, Srpt,
    ThresholdBacklogSrpt, REPFLOW_DEFAULT_THRESHOLD,
};
pub use flow::FlowState;
pub use schedule::{Schedule, ScheduleError};
pub use scheduler::{
    check_maximal, greedy_by_key, schedule_champions_adjusted, Candidate, CountingScheduler,
    DecisionCounts, KeyMotion, NoAdjust, Ranking, Scheduler, ViewAdjust,
};
pub use table::{DrainOutcome, FlowSlot, FlowTable, FlowTableError, VoqView};
