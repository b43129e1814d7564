//! Crossbar schedules (matchings between ingress and egress ports).

use dcn_types::{FlowId, HostId, PortSet, Voq};
use std::error::Error;
use std::fmt;

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
/// and hash-free. Flow membership ([`Schedule::contains`]) scans the at
/// most `P` selected pairs; no decision path asks it.
///
/// A schedule decided from a [`FlowTable`](crate::FlowTable)'s VOQ views
/// also carries each pair's VOQ slot ([`Schedule::slotted`]), so the
/// fabric's allocator binds it without hashing a VOQ; a pair added through
/// [`Schedule::add`] has none. Slots never take part in equality.
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
    busy_ingress: PortSet,
    busy_egress: PortSet,
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
            busy_ingress: PortSet::with_ports(num_ports),
            busy_egress: PortSet::with_ports(num_ports),
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

    /// Whether `ingress` already sends in this schedule.
    pub fn ingress_busy(&self, ingress: HostId) -> bool {
        self.busy_ingress.contains(ingress)
    }

    /// Whether `egress` already receives in this schedule.
    pub fn egress_busy(&self, egress: HostId) -> bool {
        self.busy_egress.contains(egress)
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
        self.busy_ingress.insert(voq.src());
        self.busy_egress.insert(voq.dst());
        self.selected.push((flow, voq, slot));
        Ok(())
    }

    /// Iterates over the selected `(flow, voq)` pairs in selection order
    /// (highest priority first — the order the discipline admitted them).
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, Voq)> + '_ {
        self.into_iter()
    }

    /// The selected pairs in selection order, each with its VOQ's slot in
    /// the table the schedule was decided from ([`VoqView::slot`]), or
    /// `None` for a pair added through [`Schedule::add`].
    ///
    /// [`VoqView::slot`]: crate::VoqView::slot
    pub fn slotted(&self) -> impl Iterator<Item = (FlowId, Voq, Option<usize>)> + '_ {
        self.selected
            .iter()
            .map(|&(id, voq, slot)| (id, voq, (slot != NO_SLOT).then_some(slot as usize)))
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
        assert_eq!(a, b);
        assert_eq!(
            a.slotted().collect::<Vec<_>>(),
            vec![(FlowId::new(1), voq(0, 1), Some(7))]
        );
        assert_eq!(
            b.slotted().collect::<Vec<_>>(),
            vec![(FlowId::new(1), voq(0, 1), None)]
        );
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
