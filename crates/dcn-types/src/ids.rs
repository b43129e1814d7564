//! Identifiers for fabric endpoints and virtual output queues.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a server (equivalently, a port of the paper's "one big
/// switch" abstraction — each port of the non-blocking input-queued switch
/// represents one server).
///
/// # Example
///
/// ```
/// use dcn_types::HostId;
/// let h = HostId::new(42);
/// assert_eq!(h.index(), 42);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct HostId(u32);

impl HostId {
    /// Creates a host identifier from its zero-based index.
    pub const fn new(index: u32) -> Self {
        HostId(index)
    }

    /// Returns the zero-based index of this host.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for slice indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl From<u32> for HostId {
    fn from(index: u32) -> Self {
        HostId(index)
    }
}

/// Identifier of a rack (a top-of-rack switch and the hosts below it).
///
/// The paper's topology has 12 racks of 12 hosts each.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RackId(u32);

impl RackId {
    /// Creates a rack identifier from its zero-based index.
    pub const fn new(index: u32) -> Self {
        RackId(index)
    }

    /// Returns the zero-based index of this rack.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for slice indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

impl From<u32> for RackId {
    fn from(index: u32) -> Self {
        RackId(index)
    }
}

/// A virtual output queue: the queue at ingress port `src` holding flows
/// destined for egress port `dst` (the paper's `q_ij`).
///
/// In a fabric of `N` servers there are `N^2` VOQs. The backlog of a VOQ is
/// the quantity the backlog-aware schedulers subtract from the (scaled)
/// remaining flow size when ranking flows.
///
/// # Example
///
/// ```
/// use dcn_types::{HostId, Voq};
/// let q = Voq::new(HostId::new(1), HostId::new(2));
/// assert_eq!(q.src(), HostId::new(1));
/// assert_eq!(q.dst(), HostId::new(2));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Voq {
    src: HostId,
    dst: HostId,
}

impl Voq {
    /// Creates the VOQ for flows entering at `src` and destined for `dst`.
    pub const fn new(src: HostId, dst: HostId) -> Self {
        Voq { src, dst }
    }

    /// The ingress port (source server) of this VOQ.
    pub const fn src(self) -> HostId {
        self.src
    }

    /// The egress port (destination server) of this VOQ.
    pub const fn dst(self) -> HostId {
        self.dst
    }

    /// Whether this VOQ loops a host back to itself. Self-loops never occur
    /// in generated workloads but may appear in hand-built scenarios.
    pub fn is_self_loop(self) -> bool {
        self.src == self.dst
    }
}

impl fmt::Display for Voq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q[{},{}]", self.src.index(), self.dst.index())
    }
}

/// Identifier of one core plane of a multi-path fabric.
///
/// A k-ary fat-tree has `k/2` independent core planes; ECMP-style routing
/// hashes each inter-rack flow onto one of them, and replication schemes
/// (RepFlow) send copies of a flow down *distinct* planes.
///
/// # Example
///
/// ```
/// use dcn_types::PlaneId;
/// let p = PlaneId::new(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "plane2");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PlaneId(u32);

impl PlaneId {
    /// Creates a plane identifier from its zero-based index.
    pub const fn new(index: u32) -> Self {
        PlaneId(index)
    }

    /// Returns the zero-based index of this plane.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for slice indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PlaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plane{}", self.0)
    }
}

impl From<u32> for PlaneId {
    fn from(index: u32) -> Self {
        PlaneId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_id_roundtrip() {
        let h = HostId::new(17);
        assert_eq!(h.index(), 17);
        assert_eq!(h.as_usize(), 17);
        assert_eq!(HostId::from(17), h);
        assert_eq!(h.to_string(), "h17");
    }

    #[test]
    fn rack_id_roundtrip() {
        let r = RackId::new(3);
        assert_eq!(r.index(), 3);
        assert_eq!(r.to_string(), "rack3");
        assert_eq!(RackId::from(3), r);
    }

    #[test]
    fn voq_accessors() {
        let q = Voq::new(HostId::new(1), HostId::new(2));
        assert_eq!(q.src(), HostId::new(1));
        assert_eq!(q.dst(), HostId::new(2));
        assert!(!q.is_self_loop());
        assert!(Voq::new(HostId::new(5), HostId::new(5)).is_self_loop());
    }

    #[test]
    fn voq_ordering_is_lexicographic() {
        let a = Voq::new(HostId::new(0), HostId::new(9));
        let b = Voq::new(HostId::new(1), HostId::new(0));
        assert!(a < b);
    }

    #[test]
    fn display_voq() {
        let q = Voq::new(HostId::new(4), HostId::new(7));
        assert_eq!(q.to_string(), "q[4,7]");
    }

    #[test]
    fn plane_id_roundtrip() {
        let p = PlaneId::new(2);
        assert_eq!(p.index(), 2);
        assert_eq!(p.as_usize(), 2);
        assert_eq!(PlaneId::from(2), p);
        assert_eq!(p.to_string(), "plane2");
    }
}
