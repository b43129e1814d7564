//! The eager reference engine, kept as the single differential oracle.
//!
//! Every product engine — crossbar matching ([`crate::simulate`], the
//! [`OnlineFabric`](crate::OnlineFabric) it wraps), ECMP, RepFlow and max-min
//! fair share — runs on one shared event core that keeps persistent
//! allocation state, opens a new drain epoch only for the flows whose
//! rate changed, and settles byte accounts lazily. This module runs the same
//! model through the simplest loop that computes the same bits: a linear
//! rescan of every transmitting flow for the next completion, every
//! account settled on every event, and the allocation rebuilt from a
//! carry-over map on every decision — `O(n)` per event by design.
//!
//! Two allocations drive it:
//!
//! * [`simulate_scan`] — a scheduler's crossbar matching under the
//!   aggregate core-capacity filter, the oracle for [`crate::simulate`];
//! * [`simulate_fair_share_naive`] — the deliberately naive `O(n²)`
//!   water-filler, the oracle for
//!   [`simulate_fair_share`](crate::simulate_fair_share).
//!
//! Both paths share the exact epoch-based drain accounting and the event
//! ordering within an instant with the product core, so their outputs
//! must be **bit-identical**: any divergence is an engine bug, not a
//! modelling difference. `tests/delta_differential.rs` and
//! `tests/fairshare_differential.rs` pin exactly that across seeds ×
//! disciplines × topologies.
//!
//! Per-event costs are measured in the `event_loop` and `delta_reschedule`
//! bench groups of `sched_overhead` and modelled in `PERFMODEL.md`; these
//! paths are for tests and benches — production callers should use
//! [`crate::simulate`] or [`crate::simulate_probed`].

use crate::delta::CoreBudgets;
use crate::engine::{enforces_core, run_reference, timed_decision};
use crate::fairshare::{waterfill_naive, ConstraintSpec};
use crate::{FabricError, FabricRun, SimConfig, Topology};
use basrpt_core::Scheduler;
use dcn_probe::{NoProbe, Probe};
use dcn_types::Rate;
use dcn_workload::FlowArrival;

/// Runs one simulation on the eager reference loop.
///
/// Identical semantics to [`crate::simulate`] — same inputs, same exact
/// accounting, bit-identical outputs — differing only in how much work
/// each event does.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_scan<T: Topology + ?Sized, S: Scheduler + ?Sized>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    simulate_scan_probed(topo, scheduler, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_scan`], for differential tests
/// that compare full event streams, not just run summaries.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_scan_probed<T: Topology + ?Sized, S: Scheduler + ?Sized, P: Probe>(
    topo: &T,
    scheduler: &mut S,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    let edge = topo.edge_rate();
    let mut budgets = enforces_core(topo, &config).then(|| CoreBudgets::new(topo, 1));
    run_reference(topo, generator, config, probe, |now, table, obs, out| {
        let schedule = timed_decision(obs, now, || scheduler.schedule(table));
        let mut selected: Vec<_> = schedule.iter().collect();
        if let Some(budgets) = budgets.as_mut() {
            budgets.filter(topo, &mut selected, |&p| p);
        }
        out.extend(selected.iter().map(|&(id, voq)| (id, voq, edge)));
    })
}

/// Runs one max-min fair-share simulation with the **naive** `O(n²)`
/// reference water-filler on the eager reference loop — the
/// differential-testing reference for
/// [`simulate_fair_share`](crate::simulate_fair_share), which
/// `tests/fairshare_differential.rs` pins bit-identical across seeds ×
/// topologies (see the `fairshare` module docs for the
/// arithmetic contract that makes two genuinely different implementations
/// agree to the last bit).
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_fair_share_naive<T: Topology + ?Sized>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
) -> Result<FabricRun, FabricError> {
    simulate_fair_share_naive_probed(topo, generator, config, NoProbe)
}

/// Probe-instrumented variant of [`simulate_fair_share_naive`], for
/// differential tests that compare full event streams.
///
/// # Errors
///
/// Returns [`FabricError::BadArrival`] under the same conditions as
/// [`crate::simulate`].
pub fn simulate_fair_share_naive_probed<T: Topology + ?Sized, P: Probe>(
    topo: &T,
    generator: impl IntoIterator<Item = FlowArrival>,
    config: SimConfig,
    probe: P,
) -> Result<FabricRun, FabricError> {
    let spec = ConstraintSpec::new(topo, enforces_core(topo, &config));
    let mut rates = Vec::new();
    run_reference(topo, generator, config, probe, |_, table, _, out| {
        let mut flows: Vec<_> = table.iter().map(|f| (f.id(), f.voq())).collect();
        flows.sort_unstable_by_key(|&(id, _)| id);
        waterfill_naive(&spec, &flows, &mut rates);
        out.extend(
            flows
                .iter()
                .zip(&rates)
                .map(|(&(id, voq), &rate)| (id, voq, Rate::from_bytes_per_sec(rate))),
        );
    })
}
