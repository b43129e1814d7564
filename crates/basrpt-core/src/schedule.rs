//! Crossbar schedules (matchings between ingress and egress ports).

use dcn_types::{FlowId, HostId, PortSet, Voq};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Error returned when adding a flow to a [`Schedule`] would violate the
/// crossbar constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The flow's ingress port is already transmitting in this schedule.
    IngressBusy(HostId),
    /// The flow's egress port is already receiving in this schedule.
    EgressBusy(HostId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::IngressBusy(h) => write!(f, "ingress port {h} already scheduled"),
            ScheduleError::EgressBusy(h) => write!(f, "egress port {h} already scheduled"),
        }
    }
}

impl Error for ScheduleError {}

/// A scheduling decision: the set of flows selected to transmit, one per
/// matched (ingress, egress) port pair.
///
/// `Schedule` enforces the paper's crossbar constraint (Eq. 2's per-slot
/// form): each ingress port sends at most one flow and each egress port
/// receives at most one flow. [`Schedule::add`] rejects violations, so any
/// schedule that exists is valid by construction.
///
/// Port occupancy is tracked in dense [`PortSet`] bitmaps, so the greedy
/// admission loops ([`Schedule::admits`], [`Schedule::add`]) are `O(1)`
/// and hash-free. A schedule a carried matching emits has its pairs
/// checked port-disjoint as they are copied, and builds the bitmaps only
/// when first asked: the fabric binds it without asking. Flow membership
/// ([`Schedule::contains`]) scans the at most `P` selected pairs; no
/// decision path asks it.
///
/// A schedule decided from a [`FlowTable`](crate::FlowTable)'s VOQ views
/// also carries each pair's VOQ slot, so the fabric's allocator adopts its
/// pair list ([`Schedule::into_slotted`]) without hashing a VOQ; a pair
/// added through [`Schedule::add`] has none. Slots never take part in
/// equality.
///
/// # Example
///
/// ```
/// use basrpt_core::{Schedule, ScheduleError};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut s = Schedule::new();
/// let q = Voq::new(HostId::new(0), HostId::new(1));
/// s.add(FlowId::new(1), q)?;
/// assert!(s.add(FlowId::new(2), q).is_err()); // both ports busy
/// assert_eq!(s.len(), 1);
/// # Ok::<(), ScheduleError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// The selected pairs in selection order, each with its VOQ's table
    /// slot or [`NO_SLOT`].
    selected: Vec<(FlowId, Voq, u32)>,
    /// Whether some pair was added without a slot.
    slotless: bool,
    /// The busy ingress and egress ports, built from `selected` on first
    /// use.
    busy: OnceLock<[PortSet; 2]>,
}

/// The slot of a pair added without one.
const NO_SLOT: u32 = u32::MAX;

/// Two schedules are equal when they select the same flows in the same
/// order; the busy sets and slots are derived from the selection, so they
/// never need comparing.
impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Schedule {}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// An empty schedule pre-sized for ports `0..num_ports` and at most
    /// `max_len` selected flows, so a decision's admissions never
    /// reallocate.
    pub(crate) fn with_ports(num_ports: u32, max_len: usize) -> Self {
        Schedule {
            selected: Vec::with_capacity(max_len.min(num_ports as usize)),
            slotless: false,
            busy: OnceLock::from([
                PortSet::with_ports(num_ports),
                PortSet::with_ports(num_ports),
            ]),
        }
    }

    /// The schedule of `pairs`, in their order, which the caller has
    /// checked port-disjoint and which all carry a slot; the busy port
    /// sets are built on first use.
    pub(crate) fn from_disjoint(pairs: Vec<(FlowId, Voq, u32)>) -> Self {
        debug_assert!(pairs.iter().all(|p| p.2 != NO_SLOT));
        Schedule {
            selected: pairs,
            slotless: false,
            busy: OnceLock::new(),
        }
    }

    /// Number of selected flows.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Whether no flow is selected.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// The busy ingress and egress ports.
    fn busy(&self) -> &[PortSet; 2] {
        self.busy.get_or_init(|| {
            let mut busy = [PortSet::new(), PortSet::new()];
            for &(_, voq, _) in &self.selected {
                busy[0].insert(voq.src());
                busy[1].insert(voq.dst());
            }
            busy
        })
    }

    fn ingress_busy(&self, ingress: HostId) -> bool {
        self.busy()[0].contains(ingress)
    }

    fn egress_busy(&self, egress: HostId) -> bool {
        self.busy()[1].contains(egress)
    }

    /// Whether a flow in `voq` could still be added.
    pub fn admits(&self, voq: Voq) -> bool {
        !self.ingress_busy(voq.src()) && !self.egress_busy(voq.dst())
    }

    /// Adds a flow transmitting from `voq.src()` to `voq.dst()`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if either port is already in use.
    pub fn add(&mut self, flow: FlowId, voq: Voq) -> Result<(), ScheduleError> {
        self.add_at(flow, voq, NO_SLOT)
    }

    /// [`Schedule::add`] for a flow whose VOQ sits in table slot `slot`.
    pub(crate) fn add_at(
        &mut self,
        flow: FlowId,
        voq: Voq,
        slot: u32,
    ) -> Result<(), ScheduleError> {
        if self.ingress_busy(voq.src()) {
            return Err(ScheduleError::IngressBusy(voq.src()));
        }
        if self.egress_busy(voq.dst()) {
            return Err(ScheduleError::EgressBusy(voq.dst()));
        }
        let [ingress, egress] = self.busy.get_mut().expect("built by the checks above");
        ingress.insert(voq.src());
        egress.insert(voq.dst());
        self.selected.push((flow, voq, slot));
        self.slotless |= slot == NO_SLOT;
        Ok(())
    }

    /// Iterates over the selected `(flow, voq)` pairs in selection order
    /// (highest priority first — the order the discipline admitted them).
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, Voq)> + '_ {
        self.into_iter()
    }

    /// The selected pairs in selection order, each with its VOQ's slot in
    /// the table the schedule was decided from ([`VoqView::slot`]): the
    /// schedule's own pair list, handed over without a copy. `slot_of`
    /// resolves the VOQ of each pair added through [`Schedule::add`]; it is
    /// not called, and the list not walked, when every pair has a slot.
    ///
    /// [`VoqView::slot`]: crate::VoqView::slot
    pub fn into_slotted(self, mut slot_of: impl FnMut(Voq) -> usize) -> Vec<(FlowId, Voq, u32)> {
        let mut pairs = self.selected;
        if self.slotless {
            for (_, voq, slot) in pairs.iter_mut().filter(|p| p.2 == NO_SLOT) {
                *slot = u32::try_from(slot_of(*voq)).expect("VOQ slots fit in u32");
            }
        }
        pairs
    }

    /// The selected flow ids, in selection order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.selected.iter().map(|&(id, _, _)| id)
    }

    /// Whether this schedule selects the given flow. `O(len)`: a scan of
    /// the selection, meant for tests and assertions.
    pub fn contains(&self, flow: FlowId) -> bool {
        self.flow_ids().any(|id| id == flow)
    }
}

impl<'a> IntoIterator for &'a Schedule {
    type Item = (FlowId, Voq);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (FlowId, Voq, u32)>,
        fn(&(FlowId, Voq, u32)) -> (FlowId, Voq),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.selected.iter().map(|&(id, voq, _)| (id, voq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voq(src: u32, dst: u32) -> Voq {
        Voq::new(HostId::new(src), HostId::new(dst))
    }

    #[test]
    fn add_marks_ports_busy() {
        let mut s = Schedule::new();
        s.add(FlowId::new(1), voq(0, 1)).unwrap();
        assert!(s.ingress_busy(HostId::new(0)));
        assert!(s.egress_busy(HostId::new(1)));
        assert!(!s.ingress_busy(HostId::new(1)));
        assert!(s.admits(voq(2, 3)));
        assert!(!s.admits(voq(0, 3)));
        assert!(!s.admits(voq(2, 1)));
    }

    #[test]
    fn conflicting_adds_rejected() {
        let mut s = Schedule::new();
        s.add(FlowId::new(1), voq(0, 1)).unwrap();
        assert_eq!(
            s.add(FlowId::new(2), voq(0, 2)),
            Err(ScheduleError::IngressBusy(HostId::new(0)))
        );
        assert_eq!(
            s.add(FlowId::new(3), voq(2, 1)),
            Err(ScheduleError::EgressBusy(HostId::new(1)))
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_preserves_selection_order() {
        let mut s = Schedule::new();
        s.add(FlowId::new(5), voq(0, 1)).unwrap();
        s.add(FlowId::new(2), voq(2, 3)).unwrap();
        let ids: Vec<FlowId> = s.flow_ids().collect();
        assert_eq!(ids, vec![FlowId::new(5), FlowId::new(2)]);
        assert!(s.contains(FlowId::new(2)));
        assert!(!s.contains(FlowId::new(9)));
        let pairs: Vec<_> = (&s).into_iter().collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn slots_ride_along_but_never_decide_equality() {
        let mut a = Schedule::new();
        let mut b = Schedule::new();
        a.add_at(FlowId::new(1), voq(0, 1), 7).unwrap();
        b.add(FlowId::new(1), voq(0, 1)).unwrap();
        b.add_at(FlowId::new(2), voq(2, 3), 4).unwrap();
        a.add(FlowId::new(2), voq(2, 3)).unwrap();
        assert_eq!(a, b);
        let resolve = |q: Voq| 10 + q.src().as_usize();
        assert_eq!(
            a.into_slotted(resolve),
            [
                (FlowId::new(1), voq(0, 1), 7),
                (FlowId::new(2), voq(2, 3), 12)
            ]
        );
        assert_eq!(
            b.into_slotted(resolve),
            [
                (FlowId::new(1), voq(0, 1), 10),
                (FlowId::new(2), voq(2, 3), 4)
            ]
        );
        let mut c = Schedule::new();
        c.add_at(FlowId::new(3), voq(0, 1), 5).unwrap();
        assert_eq!(
            c.into_slotted(|_| unreachable!("every pair has a slot")),
            [(FlowId::new(3), voq(0, 1), 5)]
        );
    }

    #[test]
    fn an_adopted_pair_list_builds_its_busy_ports_on_first_use() {
        let mut s = Schedule::from_disjoint(vec![(FlowId::new(1), voq(0, 1), 3)]);
        assert!(s.busy.get().is_none());
        assert!(!s.admits(voq(0, 2)) && !s.admits(voq(2, 1)) && s.admits(voq(2, 3)));
        s.add(FlowId::new(2), voq(2, 3)).unwrap();
        assert_eq!(
            s.add(FlowId::new(3), voq(2, 4)),
            Err(ScheduleError::IngressBusy(HostId::new(2)))
        );
        assert_eq!(
            s.into_slotted(|_| 9),
            [
                (FlowId::new(1), voq(0, 1), 3),
                (FlowId::new(2), voq(2, 3), 9)
            ]
        );
    }

    #[test]
    fn schedules_cross_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Schedule>();
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn equality_is_by_selection() {
        let mut a = Schedule::new();
        let mut b = Schedule::new();
        assert_eq!(a, b);
        a.add(FlowId::new(1), voq(0, 1)).unwrap();
        assert_ne!(a, b);
        b.add(FlowId::new(1), voq(0, 1)).unwrap();
        assert_eq!(a, b);
        // Rejected adds leave no trace that could break equality.
        assert!(b.add(FlowId::new(2), voq(0, 2)).is_err());
        assert_eq!(a, b);
    }
}
