//! Fabric topologies: the capacity-constraint interface ([`Topology`]),
//! the paper's fixed multi-rooted tree ([`FatTree`], Fig. 4), and the
//! parameterized [`KAryFatTree`] for 1k–16k-host fabrics.
//!
//! The flow-level engine never routes packets; a topology is exactly the
//! set of capacity constraints the scheduler's matching must respect:
//! per-host edge (NIC) rates, per-rack uplink budgets, and the number of
//! independent core planes (ECMP-style path groups). [`Topology`] is that
//! interface, and both concrete trees implement it — the engine, the
//! delta allocator's core-budget filter, and the builder are generic over
//! it, so the paper topology runs bit-identically to the pre-trait engine
//! (`tests/topology_redesign_golden.rs` pins this).

use dcn_types::{HostId, RackId, Rate, Voq};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error building a topology.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A dimension (racks, hosts per rack, cores, pods…) was zero.
    #[non_exhaustive]
    ZeroDimension {
        /// Which dimension was zero.
        what: &'static str,
    },
    /// A link rate was zero (or otherwise not positive).
    #[non_exhaustive]
    NonPositiveRate {
        /// Which rate was invalid.
        what: &'static str,
    },
    /// A k-ary fat-tree needs an even arity `k ≥ 2`.
    #[non_exhaustive]
    OddArity {
        /// The rejected arity.
        k: u32,
    },
    /// The oversubscription ratio must be positive and finite.
    #[non_exhaustive]
    NonPositiveOversubscription {
        /// The rejected ratio.
        ratio: f64,
    },
    /// The requested dimensions overflow the host address space.
    #[non_exhaustive]
    TooManyHosts {
        /// The requested host count.
        hosts: u64,
        /// The largest supported host count.
        max: u64,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ZeroDimension { what } => {
                write!(f, "invalid topology: {what} must be positive")
            }
            TopologyError::NonPositiveRate { what } => {
                write!(f, "invalid topology: {what} must be positive")
            }
            TopologyError::OddArity { k } => {
                write!(
                    f,
                    "invalid topology: fat-tree arity k = {k} must be even and >= 2"
                )
            }
            TopologyError::NonPositiveOversubscription { ratio } => {
                write!(
                    f,
                    "invalid topology: oversubscription ratio {ratio} must be positive and finite"
                )
            }
            TopologyError::TooManyHosts { hosts, max } => {
                write!(
                    f,
                    "invalid topology: {hosts} hosts exceed the supported {max}"
                )
            }
        }
    }
}

impl Error for TopologyError {}

/// The capacity constraints a fabric imposes on the central scheduler.
///
/// The engine is flow-level: it never routes, it only asks *what limits
/// concurrent transmission*. Those limits are (a) each host's NIC rate
/// ([`edge_rate`](Topology::edge_rate)), (b) each rack's aggregate uplink
/// budget ([`rack_uplink_capacity`](Topology::rack_uplink_capacity)),
/// shared by all of the rack's inter-rack flows in both directions, and
/// (c) the number of independent core planes
/// ([`core_planes`](Topology::core_planes)) the uplink capacity is striped
/// over (an ECMP-style path-group count; informational to the flow-level
/// model since budgets already aggregate the planes).
///
/// The trait is object-safe — the engine accepts `&dyn Topology` — and
/// every derived quantity (host count, rack membership, bisection test)
/// has a default implementation in terms of the five required methods, so
/// a new topology only describes its capacities.
///
/// # Example
///
/// ```
/// use dcn_fabric::{FatTree, KAryFatTree, Topology};
///
/// let paper = FatTree::paper_topology();
/// let kary = KAryFatTree::builder(4).build()?;
/// for topo in [&paper as &dyn Topology, &kary] {
///     assert!(topo.num_hosts() >= 16);
///     assert!(topo.is_full_bisection());
/// }
/// # Ok::<(), dcn_fabric::TopologyError>(())
/// ```
pub trait Topology {
    /// Number of racks (= ToR / edge switches).
    fn num_racks(&self) -> u32;

    /// Hosts per rack.
    fn hosts_per_rack(&self) -> u32;

    /// Host NIC rate — the per-flow line rate of the flow-level model.
    fn edge_rate(&self) -> Rate;

    /// Aggregate uplink capacity of one rack, shared by its inter-rack
    /// flows (enforced separately for the up and down directions).
    fn rack_uplink_capacity(&self) -> Rate;

    /// Number of independent core planes (ECMP-style path groups) the
    /// uplink capacity is striped over.
    fn core_planes(&self) -> u32;

    /// Total number of hosts.
    fn num_hosts(&self) -> u32 {
        self.num_racks() * self.hosts_per_rack()
    }

    /// Whether a host is part of this topology.
    fn contains(&self, host: HostId) -> bool {
        host.index() < self.num_hosts()
    }

    /// The rack a host lives in.
    ///
    /// # Panics
    ///
    /// Panics if the host is outside the topology.
    fn rack_of(&self, host: HostId) -> RackId {
        assert!(self.contains(host), "host {host} outside topology");
        RackId::new(host.index() / self.hosts_per_rack())
    }

    /// Whether a flow between this VOQ's endpoints stays inside one rack
    /// (and therefore never consumes uplink budget).
    fn is_intra_rack(&self, voq: Voq) -> bool {
        self.rack_of(voq.src()) == self.rack_of(voq.dst())
    }

    /// Whether every rack's uplink capacity covers its hosts' aggregate
    /// edge capacity — the paper's "bottleneck not in the network"
    /// configuration.
    fn is_full_bisection(&self) -> bool {
        self.rack_uplink_capacity().bytes_per_sec()
            >= self.edge_rate().bytes_per_sec() * self.hosts_per_rack() as f64
    }

    /// The oversubscription ratio: host capacity per rack divided by
    /// uplink capacity (1.0 = exactly full bisection, > 1 = oversubscribed).
    fn oversubscription(&self) -> f64 {
        self.edge_rate().bytes_per_sec() * self.hosts_per_rack() as f64
            / self.rack_uplink_capacity().bytes_per_sec()
    }

    /// Maximum number of concurrently transmitting *inter-rack* flows a
    /// single rack can source (or sink) at full edge rate.
    fn max_inter_rack_flows_per_rack(&self) -> u32 {
        let ratio = self.rack_uplink_capacity().bytes_per_sec() / self.edge_rate().bytes_per_sec();
        ratio.floor() as u32
    }
}

/// A three-layer multi-rooted tree: `num_racks` top-of-rack switches each
/// serving `hosts_per_rack` hosts over `edge_rate` links, fully connected
/// to `num_cores` core switches over `core_rate` links (the paper's Fig. 4
/// has 12 racks × 12 hosts, 3 cores, 10/40 Gbps).
///
/// The paper configures the bandwidths so "the bottleneck is not in the
/// network": [`Topology::is_full_bisection`] checks that a rack's uplink
/// capacity covers all of its hosts (12 × 10 Gbps ≤ 3 × 40 Gbps holds
/// with equality). In full-bisection mode only the edge
/// (host NIC) constraints bind and scheduling is a pure crossbar matching;
/// otherwise the engine additionally enforces per-rack uplink capacity.
///
/// `FatTree` is one [`Topology`] implementation; the parameterized
/// [`KAryFatTree`] is another.
///
/// # Example
///
/// ```
/// use dcn_fabric::{FatTree, Topology};
/// let topo = FatTree::paper_topology();
/// assert_eq!(topo.num_hosts(), 144);
/// assert!(topo.is_full_bisection());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FatTree {
    num_racks: u32,
    hosts_per_rack: u32,
    num_cores: u32,
    edge_rate: Rate,
    core_rate: Rate,
}

impl FatTree {
    /// Builds a topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroDimension`] if any dimension is zero
    /// and [`TopologyError::NonPositiveRate`] if a rate is not positive.
    pub fn new(
        num_racks: u32,
        hosts_per_rack: u32,
        num_cores: u32,
        edge_rate: Rate,
        core_rate: Rate,
    ) -> Result<Self, TopologyError> {
        for (value, what) in [
            (num_racks, "number of racks"),
            (hosts_per_rack, "hosts per rack"),
            (num_cores, "number of cores"),
        ] {
            if value == 0 {
                return Err(TopologyError::ZeroDimension { what });
            }
        }
        if edge_rate.is_zero() {
            return Err(TopologyError::NonPositiveRate { what: "edge rate" });
        }
        if core_rate.is_zero() {
            return Err(TopologyError::NonPositiveRate { what: "core rate" });
        }
        Ok(FatTree {
            num_racks,
            hosts_per_rack,
            num_cores,
            edge_rate,
            core_rate,
        })
    }

    /// The paper's evaluation fabric: 12 racks × 12 hosts, 3 cores,
    /// 10 Gbps edge links, 40 Gbps core links (Fig. 4).
    pub fn paper_topology() -> Self {
        FatTree::new(12, 12, 3, Rate::from_gbps(10.0), Rate::from_gbps(40.0))
            .expect("paper topology is valid")
    }

    /// A scaled-down fabric with the paper's link rates and full bisection
    /// preserved when `num_cores × 40 ≥ hosts_per_rack × 10`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroDimension`] on zero dimensions.
    pub fn scaled(
        num_racks: u32,
        hosts_per_rack: u32,
        num_cores: u32,
    ) -> Result<Self, TopologyError> {
        FatTree::new(
            num_racks,
            hosts_per_rack,
            num_cores,
            Rate::from_gbps(10.0),
            Rate::from_gbps(40.0),
        )
    }
}

impl Topology for FatTree {
    fn num_racks(&self) -> u32 {
        self.num_racks
    }
    fn hosts_per_rack(&self) -> u32 {
        self.hosts_per_rack
    }
    fn edge_rate(&self) -> Rate {
        self.edge_rate
    }
    /// `num_cores × core_rate`.
    fn rack_uplink_capacity(&self) -> Rate {
        self.core_rate * self.num_cores as f64
    }
    /// Each core switch is an independent path group.
    fn core_planes(&self) -> u32 {
        self.num_cores
    }
}

/// A parameterized k-ary fat-tree (Al-Fares et al.): `k` pods, each with
/// `k/2` edge (ToR) switches serving `hosts_per_edge` hosts, aggregated
/// over `k/2` core planes of `k/2` switches each.
///
/// The flow-level model reduces the tree to its [`Topology`] capacities:
/// `k·k/2` racks of `hosts_per_edge` hosts at `edge_rate`, each rack's
/// uplink budget `hosts_per_edge × edge_rate / oversubscription`. The
/// canonical tree has `hosts_per_edge = k/2` (so `k³/4` hosts: k = 16 →
/// 1024, k = 32 → 8192, k = 40 → 16000); `hosts_per_edge` is a free knob
/// so host counts like 1152 (k = 16 × 9 hosts/edge) are reachable without
/// jumping a whole arity step.
///
/// # Example
///
/// ```
/// use dcn_fabric::{KAryFatTree, Topology};
/// use dcn_types::Rate;
///
/// // Canonical k = 16 tree: 1024 hosts, full bisection.
/// let t = KAryFatTree::builder(16).build()?;
/// assert_eq!(t.num_hosts(), 1024);
/// assert!(t.is_full_bisection());
///
/// // 1152 hosts at 3:1 oversubscription.
/// let t = KAryFatTree::builder(16)
///     .hosts_per_edge(9)
///     .oversubscription(3.0)
///     .build()?;
/// assert_eq!(t.num_hosts(), 1152);
/// assert!((t.oversubscription() - 3.0).abs() < 1e-12);
/// # Ok::<(), dcn_fabric::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KAryFatTree {
    k: u32,
    hosts_per_edge: u32,
    edge_rate: Rate,
    oversubscription: f64,
}

impl KAryFatTree {
    /// Starts building a k-ary fat-tree of arity `k`. Defaults:
    /// `hosts_per_edge = k/2` (the canonical tree), 10 Gbps edge links,
    /// oversubscription 1.0 (full bisection).
    pub fn builder(k: u32) -> KAryFatTreeBuilder {
        KAryFatTreeBuilder {
            k,
            hosts_per_edge: None,
            edge_rate: Rate::from_gbps(10.0),
            oversubscription: 1.0,
        }
    }
}

impl Topology for KAryFatTree {
    fn num_racks(&self) -> u32 {
        self.k * (self.k / 2)
    }
    fn hosts_per_rack(&self) -> u32 {
        self.hosts_per_edge
    }
    fn edge_rate(&self) -> Rate {
        self.edge_rate
    }
    fn rack_uplink_capacity(&self) -> Rate {
        self.edge_rate * (self.hosts_per_edge as f64 / self.oversubscription)
    }
    /// The aggregation layer stripes each rack's uplinks over `k/2`
    /// independent core planes.
    fn core_planes(&self) -> u32 {
        self.k / 2
    }
    fn oversubscription(&self) -> f64 {
        self.oversubscription
    }
}

/// Builder for [`KAryFatTree`], obtained from [`KAryFatTree::builder`].
#[must_use = "call .build() to obtain the KAryFatTree"]
#[derive(Debug, Clone, Copy)]
pub struct KAryFatTreeBuilder {
    k: u32,
    hosts_per_edge: Option<u32>,
    edge_rate: Rate,
    oversubscription: f64,
}

impl KAryFatTreeBuilder {
    /// Sets the hosts attached to each edge switch (default `k/2`).
    pub fn hosts_per_edge(mut self, hosts: u32) -> Self {
        self.hosts_per_edge = Some(hosts);
        self
    }

    /// Sets the host NIC rate (default 10 Gbps).
    pub fn edge_rate(mut self, rate: Rate) -> Self {
        self.edge_rate = rate;
        self
    }

    /// Sets the oversubscription ratio: each rack's uplink budget is
    /// `hosts_per_edge × edge_rate / ratio` (default 1.0, full bisection;
    /// 3.0 means three hosts contend for one host's worth of uplink).
    pub fn oversubscription(mut self, ratio: f64) -> Self {
        self.oversubscription = ratio;
        self
    }

    /// Validates the parameters and builds the tree.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::OddArity`] unless `k` is even and ≥ 2,
    /// [`TopologyError::ZeroDimension`] if `hosts_per_edge` is zero,
    /// [`TopologyError::NonPositiveRate`] if the edge rate is zero,
    /// [`TopologyError::NonPositiveOversubscription`] unless the ratio is
    /// positive and finite, and [`TopologyError::TooManyHosts`] if the
    /// dimensions overflow the host address space.
    pub fn build(self) -> Result<KAryFatTree, TopologyError> {
        if self.k < 2 || !self.k.is_multiple_of(2) {
            return Err(TopologyError::OddArity { k: self.k });
        }
        let hosts_per_edge = self.hosts_per_edge.unwrap_or(self.k / 2);
        if hosts_per_edge == 0 {
            return Err(TopologyError::ZeroDimension {
                what: "hosts per edge switch",
            });
        }
        if self.edge_rate.is_zero() {
            return Err(TopologyError::NonPositiveRate { what: "edge rate" });
        }
        if !(self.oversubscription > 0.0 && self.oversubscription.is_finite()) {
            return Err(TopologyError::NonPositiveOversubscription {
                ratio: self.oversubscription,
            });
        }
        let racks = self.k as u64 * (self.k / 2) as u64;
        let hosts = racks * hosts_per_edge as u64;
        if hosts > u32::MAX as u64 {
            return Err(TopologyError::TooManyHosts {
                hosts,
                max: u32::MAX as u64,
            });
        }
        Ok(KAryFatTree {
            k: self.k,
            hosts_per_edge,
            edge_rate: self.edge_rate,
            oversubscription: self.oversubscription,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_matches_fig4() {
        let t = FatTree::paper_topology();
        assert_eq!(t.num_racks(), 12);
        assert_eq!(t.hosts_per_rack(), 12);
        assert_eq!(t.num_cores, 3);
        assert_eq!(t.num_hosts(), 144);
        assert!((t.edge_rate().gbps() - 10.0).abs() < 1e-9);
        assert!((t.core_rate.gbps() - 40.0).abs() < 1e-9);
        assert!(t.is_full_bisection());
        assert!((t.oversubscription() - 1.0).abs() < 1e-12);
        assert_eq!(t.max_inter_rack_flows_per_rack(), 12);
    }

    #[test]
    fn rack_membership() {
        let t = FatTree::paper_topology();
        assert_eq!(t.rack_of(HostId::new(0)), RackId::new(0));
        assert_eq!(t.rack_of(HostId::new(11)), RackId::new(0));
        assert_eq!(t.rack_of(HostId::new(12)), RackId::new(1));
        assert_eq!(t.rack_of(HostId::new(143)), RackId::new(11));
        assert!(t.is_intra_rack(Voq::new(HostId::new(0), HostId::new(5))));
        assert!(!t.is_intra_rack(Voq::new(HostId::new(0), HostId::new(20))));
        assert!(t.contains(HostId::new(143)));
        assert!(!t.contains(HostId::new(144)));
    }

    #[test]
    fn oversubscribed_topology_detected() {
        // 12 hosts × 10 Gbps = 120 Gbps vs 1 core × 40 Gbps.
        let t = FatTree::scaled(4, 12, 1).unwrap();
        assert!(!t.is_full_bisection());
        assert!((t.oversubscription() - 3.0).abs() < 1e-12);
        assert_eq!(t.max_inter_rack_flows_per_rack(), 4);
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert!(matches!(
            FatTree::scaled(0, 12, 3),
            Err(TopologyError::ZeroDimension { .. })
        ));
        assert!(matches!(
            FatTree::scaled(12, 0, 3),
            Err(TopologyError::ZeroDimension { .. })
        ));
        assert!(matches!(
            FatTree::scaled(12, 12, 0),
            Err(TopologyError::ZeroDimension { .. })
        ));
        assert!(matches!(
            FatTree::new(1, 1, 1, Rate::ZERO, Rate::from_gbps(40.0)),
            Err(TopologyError::NonPositiveRate { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn rack_of_checks_bounds() {
        let t = FatTree::scaled(2, 2, 1).unwrap();
        let _ = t.rack_of(HostId::new(99));
    }

    #[test]
    fn trait_view_of_fat_tree_matches_inherent() {
        let t = FatTree::paper_topology();
        let dt: &dyn Topology = &t;
        assert_eq!(dt.num_racks(), t.num_racks());
        assert_eq!(dt.hosts_per_rack(), t.hosts_per_rack());
        assert_eq!(dt.num_hosts(), t.num_hosts());
        assert_eq!(dt.core_planes(), t.num_cores);
        assert_eq!(
            dt.rack_uplink_capacity().bytes_per_sec().to_bits(),
            t.rack_uplink_capacity().bytes_per_sec().to_bits(),
            "trait and inherent capacities must be bit-identical"
        );
        assert_eq!(dt.is_full_bisection(), t.is_full_bisection());
        assert_eq!(
            dt.oversubscription().to_bits(),
            t.oversubscription().to_bits()
        );
        assert_eq!(
            dt.max_inter_rack_flows_per_rack(),
            t.max_inter_rack_flows_per_rack()
        );
        assert_eq!(dt.rack_of(HostId::new(13)), t.rack_of(HostId::new(13)));
    }

    #[test]
    fn canonical_kary_dimensions() {
        // k = 4: 4 pods × 2 edges × 2 hosts = 16 hosts, cores in 2 planes.
        let t = KAryFatTree::builder(4).build().unwrap();
        assert_eq!(t.num_racks(), 8);
        assert_eq!(t.hosts_per_rack(), 2);
        assert_eq!(t.num_hosts(), 16);
        assert_eq!(t.core_planes(), 2);
        assert!(t.is_full_bisection());
        // k = 16 canonical: k³/4 = 1024 hosts.
        let t = KAryFatTree::builder(16).build().unwrap();
        assert_eq!(t.num_hosts(), 1024);
        // k = 32: 8192 hosts; k = 40: 16000 hosts (the 1k–16k range).
        assert_eq!(KAryFatTree::builder(32).build().unwrap().num_hosts(), 8192);
        assert_eq!(KAryFatTree::builder(40).build().unwrap().num_hosts(), 16000);
    }

    #[test]
    fn kary_oversubscription_scales_uplink_budget() {
        let t = KAryFatTree::builder(16)
            .hosts_per_edge(9)
            .oversubscription(3.0)
            .build()
            .unwrap();
        assert_eq!(t.num_hosts(), 1152);
        assert!(!t.is_full_bisection());
        assert!((t.oversubscription() - 3.0).abs() < 1e-12);
        // 9 hosts × 10 Gbps / 3 = 30 Gbps uplink → 3 concurrent flows.
        assert!((t.rack_uplink_capacity().gbps() - 30.0).abs() < 1e-9);
        assert_eq!(t.max_inter_rack_flows_per_rack(), 3);
        // Full bisection at ratio 1.0.
        let fb = KAryFatTree::builder(16).hosts_per_edge(9).build().unwrap();
        assert!(fb.is_full_bisection());
        assert_eq!(fb.max_inter_rack_flows_per_rack(), 9);
    }

    #[test]
    fn kary_rack_membership() {
        let t = KAryFatTree::builder(4).build().unwrap();
        // 2 hosts per edge (rack).
        assert_eq!(t.rack_of(HostId::new(5)), RackId::new(2));
    }

    #[test]
    fn invalid_kary_parameters_rejected() {
        assert!(matches!(
            KAryFatTree::builder(5).build(),
            Err(TopologyError::OddArity { k: 5 })
        ));
        assert!(matches!(
            KAryFatTree::builder(0).build(),
            Err(TopologyError::OddArity { k: 0 })
        ));
        assert!(matches!(
            KAryFatTree::builder(4).hosts_per_edge(0).build(),
            Err(TopologyError::ZeroDimension { .. })
        ));
        assert!(matches!(
            KAryFatTree::builder(4).edge_rate(Rate::ZERO).build(),
            Err(TopologyError::NonPositiveRate { .. })
        ));
        assert!(matches!(
            KAryFatTree::builder(4).oversubscription(0.0).build(),
            Err(TopologyError::NonPositiveOversubscription { .. })
        ));
        assert!(matches!(
            KAryFatTree::builder(4).oversubscription(f64::NAN).build(),
            Err(TopologyError::NonPositiveOversubscription { .. })
        ));
        assert!(matches!(
            KAryFatTree::builder(92682).hosts_per_edge(46341).build(),
            Err(TopologyError::TooManyHosts { .. })
        ));
        // Error messages render.
        let err = KAryFatTree::builder(5).build().unwrap_err();
        assert!(err.to_string().contains("even"));
    }

    #[test]
    fn kary_builder_is_reusable() {
        let b = KAryFatTree::builder(8).hosts_per_edge(6);
        let fb = b.build().unwrap();
        let over = b.oversubscription(2.0).build().unwrap();
        assert_eq!(fb.num_hosts(), over.num_hosts());
        assert!(fb.is_full_bisection());
        assert!(!over.is_full_bisection());
        assert_eq!(over.max_inter_rack_flows_per_rack(), 3);
    }
}
