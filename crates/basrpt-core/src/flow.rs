//! Per-flow scheduling state.

use dcn_types::{FlowId, Voq};
use serde::{Deserialize, Serialize};

/// The scheduler-visible state of one active flow.
///
/// Sizes are in abstract *units*: packets for the slotted switch model,
/// bytes for the flow-level fabric simulator. The schedulers only ever
/// compare and combine unit counts, so the choice of unit is up to the
/// embedding simulator.
///
/// # Example
///
/// ```
/// use basrpt_core::FlowState;
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let voq = Voq::new(HostId::new(0), HostId::new(1));
/// let f = FlowState::new(FlowId::new(7), voq, 5);
/// assert_eq!(f.remaining(), 5);
/// assert_eq!(f.size(), 5);
/// assert!(!f.is_complete());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowState {
    id: FlowId,
    voq: Voq,
    size: u64,
    remaining: u64,
}

impl FlowState {
    /// Creates the state for a newly arrived flow of `size` units.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero — zero-length flows complete instantaneously
    /// and must never enter a flow table.
    pub fn new(id: FlowId, voq: Voq, size: u64) -> Self {
        assert!(size > 0, "flow {id} has zero size");
        FlowState {
            id,
            voq,
            size,
            remaining: size,
        }
    }

    /// The flow's identifier.
    pub const fn id(&self) -> FlowId {
        self.id
    }

    /// The VOQ this flow waits in (its ingress/egress port pair).
    pub const fn voq(&self) -> Voq {
        self.voq
    }

    /// The original size in units.
    pub const fn size(&self) -> u64 {
        self.size
    }

    /// The remaining size in units (the paper's `y_f(t)`).
    pub const fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Whether the flow has finished transferring.
    pub const fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// Drains up to `units` from the flow, returning how many units were
    /// actually drained (less than `units` if the flow finishes first).
    pub fn drain(&mut self, units: u64) -> u64 {
        let drained = units.min(self.remaining);
        self.remaining -= drained;
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_types::HostId;

    fn voq() -> Voq {
        Voq::new(HostId::new(0), HostId::new(1))
    }

    #[test]
    fn new_flow_has_full_remaining() {
        let f = FlowState::new(FlowId::new(1), voq(), 10);
        assert_eq!(f.size(), 10);
        assert_eq!(f.remaining(), 10);
        assert_eq!(f.id(), FlowId::new(1));
        assert_eq!(f.voq(), voq());
    }

    #[test]
    fn drain_decrements_and_clamps() {
        let mut f = FlowState::new(FlowId::new(1), voq(), 10);
        assert_eq!(f.drain(4), 4);
        assert_eq!(f.remaining(), 6);
        assert_eq!(f.drain(100), 6);
        assert!(f.is_complete());
        assert_eq!(f.drain(1), 0);
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn zero_size_rejected() {
        let _ = FlowState::new(FlowId::new(1), voq(), 0);
    }
}
