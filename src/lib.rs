//! # basrpt — Backlog-Aware SRPT Flow Scheduling in Data Center Networks
//!
//! A from-scratch Rust reproduction of *"Backlog-Aware SRPT Flow Scheduling
//! in Data Center Networks"* (Zhang, Ren, Shu — ICDCS 2016): the BASRPT /
//! fast BASRPT schedulers, the SRPT discipline they repair, the slotted
//! input-queued switch model the theory is stated on, an event-driven
//! flow-level fat-tree fabric simulator, the measured traffic pattern, and
//! the metrics pipeline that regenerates every table and figure of the
//! paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! roof so applications can depend on a single name.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`types`] | `dcn-types` | ids and units (hosts, VOQs, bytes, rates, times) |
//! | [`core`] | `basrpt-core` | the schedulers ([`Srpt`], [`FastBasrpt`], [`ExactBasrpt`], …) |
//! | [`switch`] | `dcn-switch` | slotted switch model, Lyapunov tools, Fig. 1 scenario |
//! | [`fabric`] | `dcn-fabric` | event-driven flow-level fat-tree simulator |
//! | [`workload`] | `dcn-workload` | empirical CDFs and the paper's traffic pattern |
//! | [`metrics`] | `dcn-metrics` | FCT/throughput/stability analysis |
//! | [`probe`] | `dcn-probe` | event-level observability (the [`probe::Probe`] API) |
//!
//! The [`prelude`] re-exports the handful of names almost every program
//! needs, so examples start with a single `use basrpt::prelude::*;`.
//!
//! # Quickstart
//!
//! Compare SRPT against fast BASRPT on a small fabric at high load:
//!
//! ```
//! use basrpt::prelude::*;
//!
//! let topo = FatTree::scaled(2, 4, 1)?;
//! let spec = TrafficSpec::scaled(2, 4, 0.9)?;
//! let config = SimConfig::builder().horizon(SimTime::from_secs(0.2)).build();
//!
//! let srpt = simulate(&topo, &mut Srpt::new(), spec.generator(1)?, config)?;
//! let mut fb = FastBasrpt::new(2500.0, topo.num_hosts() as usize);
//! let basrpt = simulate(&topo, &mut fb, spec.generator(1)?, config)?;
//!
//! println!(
//!     "SRPT delivered {} vs fast BASRPT {}",
//!     srpt.throughput.delivered(),
//!     basrpt.throughput.delivered()
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The scheduling disciplines (re-export of `basrpt-core`).
pub mod core {
    pub use basrpt_core::*;
}

/// Shared identifiers and units (re-export of `dcn-types`).
pub mod types {
    pub use dcn_types::*;
}

/// The slotted input-queued switch model (re-export of `dcn-switch`).
pub mod switch {
    pub use dcn_switch::*;
}

/// The flow-level fabric simulator (re-export of `dcn-fabric`).
pub mod fabric {
    pub use dcn_fabric::*;
}

/// Workload generation (re-export of `dcn-workload`).
pub mod workload {
    pub use dcn_workload::*;
}

/// Metrics and analysis (re-export of `dcn-metrics`).
pub mod metrics {
    pub use dcn_metrics::*;
}

/// Event-level observability (re-export of `dcn-probe`).
pub mod probe {
    pub use dcn_probe::*;
}

pub use basrpt_core::{
    ExactBasrpt, FastBasrpt, Fifo, MaxWeight, PenaltyKind, RoundRobin, Scheduler, Srpt,
    ThresholdBacklogSrpt,
};
pub use dcn_types::{Bytes, FlowClass, FlowId, HostId, RackId, Rate, SimTime, Slot, Voq};

/// The names almost every program needs, importable in one line.
///
/// Covers the schedulers, both simulators' entry points (including the
/// sharded fabric engine), the topology layer ([`prelude::Topology`],
/// [`prelude::FatTree`], [`prelude::KAryFatTree`]), workload generation,
/// the common id/unit types, and the probe API. Anything more specialised
/// (metrics internals, Lyapunov tooling) stays behind its module path.
///
/// # Example
///
/// ```
/// use basrpt::prelude::*;
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
/// assert!(run.completions > 0);
/// assert_eq!(counter.completions() as usize, run.completions);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub mod prelude {
    pub use basrpt_core::{
        ExactBasrpt, FastBasrpt, Fifo, FlowTable, MaxWeight, PenaltyKind, RepFlow, RoundRobin,
        Schedule, Scheduler, Srpt, ThresholdBacklogSrpt,
    };
    pub use dcn_fabric::{
        simulate, simulate_ecmp, simulate_fair_share, simulate_fair_share_sharded, simulate_probed,
        simulate_repflow, simulate_sharded, FabricRun, FabricSnapshot, FatTree, KAryFatTree,
        KAryFatTreeBuilder, OnlineFabric, RepFlowRun, RepFlowStats, ShardedRun, SimConfig,
        Topology, TopologyError,
    };
    pub use dcn_metrics::{StabilityReport, TimeSeries, TrendConfig};
    pub use dcn_probe::{
        BacklogSampler, DriftProbe, EventCounterProbe, Fanout, JsonlProbe, NoProbe, Probe,
    };
    pub use dcn_switch::{RunConfig, SlottedSwitch};
    pub use dcn_types::{Bytes, FlowClass, FlowId, HostId, RackId, Rate, SimTime, Slot, Voq};
    pub use dcn_workload::{FlowArrival, QueryScope, TrafficSpec};
}
