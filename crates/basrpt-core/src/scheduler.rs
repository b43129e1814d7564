//! The scheduler interface and the shared greedy maximal-matching engine.

use crate::table::VoqView;
use crate::{FlowTable, Schedule};
use dcn_types::{FlowId, Voq};

/// A read-time correction applied to [`VoqView`]s before a discipline
/// ranks them.
///
/// Lazily settling engines (see `dcn_fabric::DeltaAllocator`) defer the
/// per-flow drain write-back: between observation points the [`FlowTable`]
/// is *stale* by exactly the bytes the currently scheduled flows have
/// transmitted since their last settlement. Because a schedule is a
/// crossbar matching, at most **one** scheduled flow drains per VOQ, so
/// the engine can correct a view in `O(1)` at read time — subtract the
/// owed bytes from `backlog`, lower (or replace) the champion — instead of
/// eagerly writing every flow back on every event.
///
/// The contract: after [`adjust`](ViewAdjust::adjust), the view must be
/// bit-identical to what [`FlowTable::voq_view`] would return had every
/// pending drain been applied. Disciplines that opt in via
/// [`Scheduler::supports_lazy_views`] promise their decision reads *only*
/// the (adjusted) views, never raw per-flow state.
pub trait ViewAdjust {
    /// Corrects `view` to account for drains not yet written back.
    fn adjust(&self, view: &mut VoqView);
}

/// The identity adjustment: views pass through unmodified. A view-based
/// discipline's [`Scheduler::schedule`] is its
/// [`schedule_adjusted`](Scheduler::schedule_adjusted) under `NoAdjust`, so
/// each discipline states its candidate key once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoAdjust;

impl ViewAdjust for NoAdjust {
    fn adjust(&self, _view: &mut VoqView) {}
}

/// A flow scheduling discipline.
///
/// Schedulers are consulted by the embedding simulator on every flow arrival
/// and completion (the paper's update rule) and return a crossbar matching
/// over the currently active flows. They may keep internal state (e.g. the
/// round-robin pointer), hence `&mut self`.
pub trait Scheduler {
    /// Short human-readable name, used in experiment output.
    fn name(&self) -> &str;

    /// Computes the scheduling decision for the current set of active flows.
    ///
    /// The returned schedule must be *maximal*: no remaining flow could be
    /// added without violating the crossbar constraint. All disciplines in
    /// this crate satisfy that by construction.
    fn schedule(&mut self, table: &FlowTable) -> Schedule;

    /// For how many consecutive slots — starting with the slot `schedule`
    /// was computed for — re-invoking [`schedule`](Scheduler::schedule)
    /// every slot would provably return a bit-identical result, assuming
    /// the only table mutations are the schedule's own drains (one unit
    /// per scheduled flow per slot) and no scheduled flow completes inside
    /// the window. Any arrival, completion, or external mutation voids the
    /// bound immediately.
    ///
    /// Fast-forward drivers (see `dcn-switch`) use this to replay a cached
    /// schedule instead of re-deciding every slot; see the
    /// [`validity`](crate::validity) module for the invariance argument
    /// behind the per-discipline overrides. The default of `1` is always
    /// sound — a
    /// schedule is trivially valid for the slot it was computed for — and
    /// is what stateful disciplines (round-robin's rotation, exact
    /// BASRPT) must keep so they are re-consulted every slot.
    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        let _ = (table, schedule);
        1
    }

    /// Whether this discipline's decision reads *only* the per-VOQ
    /// [`VoqView`]s, so an engine may substitute views corrected by a
    /// [`ViewAdjust`] (via
    /// [`schedule_adjusted`](Scheduler::schedule_adjusted)) for the raw
    /// table reads and still obtain the bit-identical schedule.
    ///
    /// The default is `false` — always sound, since the engine then falls
    /// back to eager settlement before every decision. Stateful or
    /// per-flow-reading disciplines (round-robin's rotation, exact
    /// BASRPT's enumeration) must keep it.
    fn supports_lazy_views(&self) -> bool {
        false
    }

    /// Computes the decision against views corrected by `adjust`.
    ///
    /// Engines call this **only** when
    /// [`supports_lazy_views`](Scheduler::supports_lazy_views) returns
    /// `true`; the default implementation ignores `adjust` and defers to
    /// [`schedule`](Scheduler::schedule), which is correct exactly when
    /// the engine honours that contract (it settles eagerly first).
    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        let _ = adjust;
        self.schedule(table)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        (**self).schedule(table)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        (**self).schedule_validity(table, schedule)
    }

    fn supports_lazy_views(&self) -> bool {
        (**self).supports_lazy_views()
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        (**self).schedule_adjusted(table, adjust)
    }
}

/// A thread-safe factory of identically configured [`Scheduler`]s.
///
/// Parallel drivers — the sharded fabric engine (`dcn-fabric`), multi-seed
/// sweeps — need one scheduler instance *per partition*, built to the same
/// parameters, because disciplines carry internal state (round-robin
/// pointers and rotation counters) that must not be shared across
/// partitions. A `MakeScheduler` is that recipe: `make()` returns a fresh,
/// identically configured instance, and the `Sync` bound lets worker
/// threads call it concurrently.
///
/// Any `Fn() -> S + Sync` closure is a factory via the blanket impl:
///
/// ```
/// use basrpt_core::{MakeScheduler, Scheduler, Srpt};
///
/// let factory = || Srpt::new();
/// let a = factory.make();
/// let b = factory.make();
/// assert_eq!(a.name(), b.name());
/// ```
pub trait MakeScheduler: Sync {
    /// The scheduler type this factory produces.
    type Sched: Scheduler;

    /// Builds a fresh, identically configured scheduler instance.
    fn make(&self) -> Self::Sched;
}

impl<S: Scheduler, F: Fn() -> S + Sync> MakeScheduler for F {
    type Sched = S;

    fn make(&self) -> S {
        self()
    }
}

/// A transparent [`Scheduler`] wrapper counting `schedule()` invocations.
///
/// Used to measure how many decisions a driver actually computes — e.g.
/// the switch driver's invocation-reduction acceptance test and the
/// `sched_overhead` bench group compare the count against the slot count.
///
/// # Example
///
/// ```
/// use basrpt_core::{CountingScheduler, FlowTable, Scheduler, Srpt};
///
/// let mut counted = CountingScheduler::new(Srpt::new());
/// let table = FlowTable::new();
/// counted.schedule(&table);
/// counted.schedule(&table);
/// assert_eq!(counted.calls(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CountingScheduler<S> {
    inner: S,
    calls: u64,
}

impl<S: Scheduler> CountingScheduler<S> {
    /// Wraps `inner`, starting the count at zero.
    pub fn new(inner: S) -> Self {
        CountingScheduler { inner, calls: 0 }
    }

    /// Number of [`Scheduler::schedule`] calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Returns the wrapped scheduler.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Scheduler> Scheduler for CountingScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.calls += 1;
        self.inner.schedule(table)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        self.inner.schedule_validity(table, schedule)
    }

    fn supports_lazy_views(&self) -> bool {
        self.inner.supports_lazy_views()
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        self.calls += 1;
        self.inner.schedule_adjusted(table, adjust)
    }
}

/// One schedulable flow with its discipline-specific priority key
/// (smaller key = higher priority).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Priority key; must be finite so candidates are totally ordered.
    pub key: f64,
    /// The candidate flow.
    pub flow: FlowId,
    /// The VOQ the flow occupies.
    pub voq: Voq,
}

/// Runs the greedy maximal-matching skeleton shared by every one-pass
/// discipline (the paper's Algorithm 1 with a pluggable key).
///
/// Candidates are sorted by `(key, flow id)` — the id tie-break keeps
/// results deterministic — and admitted in order whenever both of their
/// ports are still free. With one candidate per non-empty VOQ this yields a
/// schedule that is maximal over the non-empty VOQs, exactly the "flows are
/// selected until all left flows are blocked" rule of §II-A.
///
/// # Ordering contract
///
/// The admission order — and therefore the produced matching, its
/// [`Schedule`] iteration order, and [`Schedule`]'s `PartialEq` — is a
/// deterministic function of the multiset of `(key, flow id, voq)`
/// triples:
///
/// * keys compare by [`f64::total_cmp`] (so `-0.0 < 0.0` and the order is
///   total even for exotic values; keys are expected finite);
/// * equal keys fall back to the **flow id**, which is unique per table —
///   a flow lives in exactly one VOQ — so no pair of candidates ever ties
///   fully and the initial order of the candidate slice is irrelevant
///   (`sort_unstable` is safe).
///
/// The full-scan oracle
/// ([`reference::schedule_scan`](crate::reference::schedule_scan))
/// reproduces this exact order from its own `(key, flow id)` sort, and the
/// switch driver's schedule cache (`dcn_switch::run_probed`) relies on the
/// same determinism: replaying an identical candidate ranking must yield
/// a bit-identical schedule. Tests in `crates/basrpt-core/tests/
/// tie_break.rs` pin the contract.
///
/// # Example
///
/// ```
/// use basrpt_core::{greedy_by_key, Candidate};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut cands = vec![
///     Candidate { key: 2.0, flow: FlowId::new(1), voq: Voq::new(HostId::new(0), HostId::new(1)) },
///     Candidate { key: 1.0, flow: FlowId::new(2), voq: Voq::new(HostId::new(2), HostId::new(1)) },
/// ];
/// let s = greedy_by_key(&mut cands);
/// // Flow 2 has the smaller key and grabs egress 1 first.
/// assert!(s.contains(FlowId::new(2)));
/// assert!(!s.contains(FlowId::new(1)));
/// ```
pub fn greedy_by_key(candidates: &mut [Candidate]) -> Schedule {
    debug_assert!(
        candidates.iter().all(|c| c.key.is_finite()),
        "candidate keys must be finite"
    );
    candidates.sort_unstable_by(|a, b| a.key.total_cmp(&b.key).then(a.flow.cmp(&b.flow)));
    let mut schedule = Schedule::new();
    for cand in candidates.iter() {
        if schedule.admits(cand.voq) {
            schedule
                .add(cand.flow, cand.voq)
                .expect("admits() checked both ports");
        }
    }
    schedule
}

/// Ranks one candidate per non-empty VOQ — read in `O(1)` apiece off the
/// table's champion index, then corrected by `adjust` — and runs
/// [`greedy_by_key`]: the shared skeleton of the key-driven one-pass
/// disciplines (SRPT, fast BASRPT, MaxWeight, FIFO, RepFlow). Their
/// [`Scheduler::schedule`] is this call with [`NoAdjust`]; lazily settling
/// engines pass their pending-drain correction through
/// [`Scheduler::schedule_adjusted`]. The whole decision costs `O(Q log Q)`
/// in the number of non-empty VOQs (≤ P² for P ports), independent of the
/// flow count; the `O(F + Q log Q)` full scan survives as
/// [`reference::schedule_scan`](crate::reference::schedule_scan) for
/// differential testing.
pub fn schedule_champions_adjusted<F>(
    table: &FlowTable,
    adjust: &dyn ViewAdjust,
    to_candidate: F,
) -> Schedule
where
    F: FnMut(&VoqView) -> Candidate,
{
    let mut to_candidate = to_candidate;
    let mut candidates: Vec<Candidate> = table
        .voqs()
        .map(|mut v| {
            adjust.adjust(&mut v);
            to_candidate(&v)
        })
        .collect();
    greedy_by_key(&mut candidates)
}

/// Asserts that `schedule` is a valid *maximal* matching over the non-empty
/// VOQs of `table`: every selected flow is active and in its claimed VOQ,
/// ports are used at most once (guaranteed by `Schedule`), and no non-empty
/// VOQ has both of its ports free. Returns a description of the first
/// violation. Intended for tests.
pub fn check_maximal(table: &FlowTable, schedule: &Schedule) -> Result<(), String> {
    for (id, voq) in schedule.iter() {
        match table.get(id) {
            None => return Err(format!("scheduled flow {id} is not active")),
            Some(f) if f.voq() != voq => {
                return Err(format!(
                    "flow {id} scheduled in {voq} but lives in {}",
                    f.voq()
                ))
            }
            Some(_) => {}
        }
    }
    for view in table.voqs() {
        if schedule.admits(view.voq) {
            return Err(format!(
                "schedule is not maximal: {} (backlog {}) could be added",
                view.voq, view.backlog
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowState;
    use dcn_types::HostId;

    fn cand(key: f64, id: u64, src: u32, dst: u32) -> Candidate {
        Candidate {
            key,
            flow: FlowId::new(id),
            voq: Voq::new(HostId::new(src), HostId::new(dst)),
        }
    }

    #[test]
    fn greedy_prefers_smaller_key() {
        let mut c = vec![cand(5.0, 1, 0, 1), cand(1.0, 2, 0, 2)];
        let s = greedy_by_key(&mut c);
        assert!(s.contains(FlowId::new(2)));
        assert!(!s.contains(FlowId::new(1)));
    }

    #[test]
    fn greedy_fills_independent_ports() {
        let mut c = vec![cand(1.0, 1, 0, 1), cand(2.0, 2, 2, 3), cand(3.0, 3, 4, 5)];
        let s = greedy_by_key(&mut c);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn ties_broken_by_flow_id() {
        let mut c = vec![cand(1.0, 9, 0, 1), cand(1.0, 2, 2, 1)];
        let s = greedy_by_key(&mut c);
        assert!(s.contains(FlowId::new(2)));
        assert!(!s.contains(FlowId::new(9)));
    }

    #[test]
    fn an_adjustment_changes_the_ranking() {
        // Flows 1 (5 units) and 2 (1 unit) contend for ingress 0; the
        // adjustment pretends flow 1 has drained down to 0 remaining, so
        // it must win the contention instead of flow 2.
        struct Shrink;
        impl ViewAdjust for Shrink {
            fn adjust(&self, view: &mut VoqView) {
                if view.shortest_flow == FlowId::new(1) {
                    view.shortest_remaining = 0;
                }
            }
        }
        let mut t = FlowTable::new();
        for (id, src, dst, size) in [(1u64, 0, 1, 5u64), (2, 0, 2, 1)] {
            t.insert(FlowState::new(
                FlowId::new(id),
                Voq::new(HostId::new(src), HostId::new(dst)),
                size,
            ))
            .unwrap();
        }
        let key = |v: &VoqView| Candidate {
            key: v.shortest_remaining as f64,
            flow: v.shortest_flow,
            voq: v.voq,
        };
        let s = schedule_champions_adjusted(&t, &Shrink, key);
        assert!(s.contains(FlowId::new(1)));
        assert!(!s.contains(FlowId::new(2)));
    }

    #[test]
    fn check_maximal_detects_missing_voq() {
        let mut t = FlowTable::new();
        t.insert(FlowState::new(
            FlowId::new(1),
            Voq::new(HostId::new(0), HostId::new(1)),
            4,
        ))
        .unwrap();
        let empty = Schedule::new();
        assert!(check_maximal(&t, &empty).is_err());

        let mut s = Schedule::new();
        s.add(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(1)))
            .unwrap();
        assert!(check_maximal(&t, &s).is_ok());
    }

    #[test]
    fn check_maximal_detects_phantom_flow() {
        let t = FlowTable::new();
        let mut s = Schedule::new();
        s.add(FlowId::new(1), Voq::new(HostId::new(0), HostId::new(1)))
            .unwrap();
        assert!(check_maximal(&t, &s).is_err());
    }
}
