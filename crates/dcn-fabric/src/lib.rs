//! Event-driven flow-level data-center fabric simulator.
//!
//! This crate stands in for the flow-level simulator the paper's authors
//! wrote in Java (§V-A): a multi-rooted fat-tree fabric
//! ([`FatTree::paper_topology`]: 144 hosts, 12 ToRs, 3 cores, 10 Gbps edge
//! and 40 Gbps core links) driven by the `dcn-workload` traffic pattern and
//! scheduled centrally by any `basrpt_core::Scheduler`.
//!
//! The simulation is *flow-level* and *event-driven*: between events the
//! scheduled flow set is fixed and each selected flow drains at its
//! allocated (line) rate, so the next completion instant is analytic. The
//! scheduling decision is recomputed on every flow arrival and completion,
//! exactly the update rule of the paper's centralized schedulers. With the
//! paper's full-bisection topology the binding constraints are the host
//! NICs, so a decision is a crossbar matching over (source, destination)
//! hosts — the "one big switch" abstraction — while the optional
//! oversubscribed mode additionally enforces per-rack uplink capacity.
//!
//! Every discipline has one front door in two spellings, without and with
//! an observer: [`simulate`] / [`simulate_probed`] for a crossbar
//! scheduler, [`simulate_fair_share`] / [`simulate_fair_share_probed`]
//! for max-min fair sharing, and [`simulate_ecmp`] / [`simulate_repflow`]
//! (and their `_probed` forms) for the multi-plane baselines. All of them
//! run on one event core; [`OnlineFabric`] exposes the crossbar run as a
//! step-able engine, and [`reference`](mod@reference) holds the eager
//! oracle they are pinned to.
//!
//! # Example
//!
//! ```
//! use basrpt_core::Srpt;
//! use dcn_fabric::{simulate, FatTree, SimConfig};
//! use dcn_types::SimTime;
//! use dcn_workload::TrafficSpec;
//!
//! let topo = FatTree::scaled(2, 4, 1)?; // 8 hosts, 1 core
//! let spec = TrafficSpec::scaled(2, 4, 0.5)?;
//! let run = simulate(
//!     &topo,
//!     &mut Srpt::new(),
//!     spec.generator(7)?,
//!     SimConfig::builder().horizon(SimTime::from_secs(0.2)).build(),
//! )?;
//! assert!(run.completions > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod calendar;
mod delta;
mod engine;
mod fairshare;
mod online;
pub mod reference;
mod repflow;
mod settle;
mod topology;

pub use calendar::CompletionCalendar;
pub use delta::{DeltaAllocator, DeltaOutcome, DeltaStats, LiveViews};
pub use engine::{simulate, simulate_probed, FabricError, FabricRun, SimConfig, SimConfigBuilder};
pub use fairshare::{
    simulate_fair_share, simulate_fair_share_probed, ConstraintSpec, FairShareAllocator,
    FairShareKey,
};
pub use online::{
    Accepted, CompletionRecord, FabricSnapshot, OfferError, OnlineFabric, DEFAULT_HIGH_WATERMARK,
};
pub use repflow::{
    plane_of, simulate_ecmp, simulate_ecmp_probed, simulate_repflow, simulate_repflow_probed,
    RepFlowCompletion, RepFlowRun, RepFlowStats,
};
pub use settle::{SettleMode, SettledDrain};
pub use topology::{FatTree, KAryFatTree, KAryFatTreeBuilder, Topology, TopologyError};
