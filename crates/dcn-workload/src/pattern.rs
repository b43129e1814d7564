//! The paper's query/background traffic pattern and its flow generator.

use crate::{EmpiricalCdf, PoissonProcess, WorkloadError};
use dcn_types::{Bytes, FlowClass, FlowId, HostId, RackId, Rate, SimTime, Voq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Destination scope of the query population.
///
/// The paper draws query destinations uniformly over **all** other hosts
/// ([`QueryScope::Fabric`]). [`QueryScope::Cluster`] keeps queries inside
/// the source's cluster of racks (`Cluster(1)`: its own rack), so no flow
/// connects two clusters: the separable traffic the fabric-scale benches
/// drive large fat-trees with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QueryScope {
    /// Uniform over all other hosts of the fabric (the paper's pattern).
    #[default]
    Fabric,
    /// Uniform over the other hosts of the source's cluster of this many
    /// consecutive racks (must divide the rack count).
    Cluster(u32),
}

/// One generated flow arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowArrival {
    /// Identifier, strictly increasing with arrival order.
    pub id: FlowId,
    /// Arrival instant.
    pub time: SimTime,
    /// Source/destination pair (the VOQ the flow joins).
    pub voq: Voq,
    /// Flow size in bytes.
    pub size: Bytes,
    /// Traffic class (query or background).
    pub class: FlowClass,
}

/// Configuration of the paper's two-population workload (§V-A), calibrated
/// to a target per-port load.
///
/// Each host runs two independent Poisson sources:
///
/// * queries of the fixed `query_size`, destination uniform over all
///   *other* hosts;
/// * background flows with sizes from the `background_sizes`
///   distribution, destination uniform over the other hosts of the *same
///   rack*.
///
/// Arrival rates are derived so each ingress port offers
/// `load × edge_rate` bytes per second, split `query_fraction` /
/// `1 − query_fraction` between the two populations. By symmetry (uniform
/// destinations within scope) the expected egress load per port equals the
/// ingress load, which is how the paper "carefully controls the volume
/// between each server pair so that the workload on each port does not
/// exceed link capacity".
///
/// # Example
///
/// ```
/// use dcn_workload::TrafficSpec;
/// let spec = TrafficSpec::paper_default(0.8)?;
/// assert_eq!(spec.num_hosts(), 144);
/// // Offered ≈ 8 Gbps of the 10 Gbps edge.
/// assert!((spec.offered_bytes_per_sec() - 1e9).abs() < 1e-6);
/// # Ok::<(), dcn_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    num_racks: u32,
    hosts_per_rack: u32,
    edge_rate: Rate,
    load: f64,
    query_fraction: f64,
    query_size: Bytes,
    background_sizes: EmpiricalCdf,
    #[serde(default)]
    query_scope: QueryScope,
}

impl TrafficSpec {
    /// Fraction of offered bytes carried by queries in
    /// [`TrafficSpec::paper_default`]. The paper does not publish its split;
    /// 10 % queries / 90 % background matches the "numerous small queries,
    /// byte volume dominated by background transfers" description.
    pub const DEFAULT_QUERY_FRACTION: f64 = 0.1;

    /// Builds a fully custom specification.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] if any dimension is zero, the
    /// load is not in `(0, ∞)` (loads ≥ 1 violate the admissibility
    /// condition (2) and are only useful for overload experiments), the
    /// query fraction is outside `[0, 1]`, or a population has no valid
    /// destination (queries need ≥ 2 hosts, background needs ≥ 2 hosts per
    /// rack).
    pub fn new(
        num_racks: u32,
        hosts_per_rack: u32,
        edge_rate: Rate,
        load: f64,
        query_fraction: f64,
        query_size: Bytes,
        background_sizes: EmpiricalCdf,
    ) -> Result<Self, WorkloadError> {
        let invalid = |msg: String| Err(WorkloadError::InvalidSpec(msg));
        if num_racks == 0 || hosts_per_rack == 0 {
            return invalid("topology must have at least one rack and host".into());
        }
        if edge_rate.is_zero() {
            return invalid("edge rate must be positive".into());
        }
        if !load.is_finite() || load <= 0.0 {
            return invalid(format!("load must be positive and finite, got {load}"));
        }
        if !(0.0..=1.0).contains(&query_fraction) {
            return invalid(format!(
                "query fraction must be in [0, 1], got {query_fraction}"
            ));
        }
        if query_size.is_zero() {
            return invalid("query size must be positive".into());
        }
        if query_fraction > 0.0 && u64::from(num_racks) * u64::from(hosts_per_rack) < 2 {
            return invalid("queries need at least two hosts".into());
        }
        if query_fraction < 1.0 && hosts_per_rack < 2 {
            return invalid("rack-local background flows need at least two hosts per rack".into());
        }
        Ok(TrafficSpec {
            num_racks,
            hosts_per_rack,
            edge_rate,
            load,
            query_fraction,
            query_size,
            background_sizes,
            query_scope: QueryScope::Fabric,
        })
    }

    /// The paper's configuration: 12 racks × 12 hosts behind 10 Gbps edge
    /// links, 20 KB queries ([`TrafficSpec::DEFAULT_QUERY_FRACTION`] of the
    /// bytes) over the web-search background distribution, at the given
    /// per-port `load` fraction.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] if `load` is not positive and
    /// finite.
    pub fn paper_default(load: f64) -> Result<Self, WorkloadError> {
        TrafficSpec::new(
            12,
            12,
            Rate::from_gbps(10.0),
            load,
            Self::DEFAULT_QUERY_FRACTION,
            Bytes::from_kb(20),
            EmpiricalCdf::web_search(),
        )
    }

    /// A scaled-down topology with the same per-port dynamics, for fast
    /// tests and default bench runs: `num_racks` racks of `hosts_per_rack`
    /// hosts, everything else as in [`TrafficSpec::paper_default`].
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] on invalid dimensions or load.
    pub fn scaled(num_racks: u32, hosts_per_rack: u32, load: f64) -> Result<Self, WorkloadError> {
        TrafficSpec::new(
            num_racks,
            hosts_per_rack,
            Rate::from_gbps(10.0),
            load,
            Self::DEFAULT_QUERY_FRACTION,
            Bytes::from_kb(20),
            EmpiricalCdf::web_search(),
        )
    }

    /// Replaces the query byte-share (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] if the fraction is invalid for
    /// this topology.
    pub fn with_query_fraction(mut self, query_fraction: f64) -> Result<Self, WorkloadError> {
        self.query_fraction = query_fraction;
        TrafficSpec::new(
            self.num_racks,
            self.hosts_per_rack,
            self.edge_rate,
            self.load,
            query_fraction,
            self.query_size,
            self.background_sizes,
        )
    }

    /// Replaces the background size distribution (builder style).
    pub fn with_background_sizes(mut self, cdf: EmpiricalCdf) -> Self {
        self.background_sizes = cdf;
        self
    }

    /// Replaces the query destination scope (builder style). The default,
    /// [`QueryScope::Fabric`], is the paper's fabric-wide pattern and
    /// leaves the generator's random draw sequence untouched.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] if the scope has no valid
    /// destination for this topology (a cluster scope needs a positive
    /// rack count per cluster that divides the total rack count, and at
    /// least two hosts per cluster).
    pub fn with_query_scope(mut self, scope: QueryScope) -> Result<Self, WorkloadError> {
        let invalid = |msg: String| Err(WorkloadError::InvalidSpec(msg));
        match scope {
            QueryScope::Fabric => {}
            QueryScope::Cluster(racks) => {
                if racks == 0 || !self.num_racks.is_multiple_of(racks) {
                    return invalid(format!(
                        "cluster size {racks} must be positive and divide the {} racks",
                        self.num_racks
                    ));
                }
                if self.query_fraction > 0.0 && racks * self.hosts_per_rack < 2 {
                    return invalid("cluster-scoped queries need at least two hosts".into());
                }
            }
        }
        self.query_scope = scope;
        Ok(self)
    }

    /// Number of racks.
    pub fn num_racks(&self) -> u32 {
        self.num_racks
    }

    /// Hosts per rack.
    pub fn hosts_per_rack(&self) -> u32 {
        self.hosts_per_rack
    }

    /// Total number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.num_racks * self.hosts_per_rack
    }

    /// The edge (host NIC) rate.
    pub fn edge_rate(&self) -> Rate {
        self.edge_rate
    }

    /// The target per-port load fraction.
    pub fn load(&self) -> f64 {
        self.load
    }

    /// The rack a host belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the host is outside the topology.
    pub fn rack_of(&self, host: HostId) -> RackId {
        assert!(host.index() < self.num_hosts(), "host {host} out of range");
        RackId::new(host.index() / self.hosts_per_rack)
    }

    /// Offered bytes per second per ingress port (`load × edge_rate`).
    pub fn offered_bytes_per_sec(&self) -> f64 {
        self.load * self.edge_rate.bytes_per_sec()
    }

    /// Expected query arrivals per host per second.
    pub fn query_rate_per_host(&self) -> f64 {
        self.offered_bytes_per_sec() * self.query_fraction / self.query_size.as_f64()
    }

    /// Expected background arrivals per host per second.
    pub fn background_rate_per_host(&self) -> f64 {
        self.offered_bytes_per_sec() * (1.0 - self.query_fraction) / self.background_sizes.mean()
    }

    /// Builds the deterministic, endless arrival stream for this spec.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] if both populations have zero
    /// rate (nothing would ever arrive).
    pub fn generator(&self, seed: u64) -> Result<FlowGenerator, WorkloadError> {
        FlowGenerator::new(self.clone(), seed)
    }
}

/// Which population a pending per-host arrival belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Population {
    Query,
    Background,
}

/// An endless, deterministic stream of [`FlowArrival`]s merging every
/// host's query and background Poisson processes in time order.
///
/// Flow ids are assigned in strictly increasing arrival order (see
/// [`FlowId`](dcn_types::FlowId)). The stream never ends; consumers stop by
/// bounding simulated time.
///
/// # Example
///
/// ```
/// use dcn_workload::TrafficSpec;
/// let mut gen = TrafficSpec::scaled(2, 3, 0.5)?.generator(7)?;
/// let a = gen.next().unwrap();
/// let b = gen.next().unwrap();
/// assert!(a.time <= b.time);
/// assert!(a.id < b.id);
/// # Ok::<(), dcn_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowGenerator {
    spec: TrafficSpec,
    rng: StdRng,
    pending: BinaryHeap<Reverse<(SimTime, u32, Population)>>,
    query_process: Option<PoissonProcess>,
    background_process: Option<PoissonProcess>,
    next_id: u64,
}

impl FlowGenerator {
    fn new(spec: TrafficSpec, seed: u64) -> Result<Self, WorkloadError> {
        let query_process = if spec.query_fraction > 0.0 {
            Some(PoissonProcess::new(spec.query_rate_per_host()))
        } else {
            None
        };
        let background_process = if spec.query_fraction < 1.0 {
            Some(PoissonProcess::new(spec.background_rate_per_host()))
        } else {
            None
        };
        if query_process.is_none() && background_process.is_none() {
            return Err(WorkloadError::InvalidSpec(
                "both populations have zero rate".into(),
            ));
        }
        let mut gen = FlowGenerator {
            spec,
            rng: StdRng::seed_from_u64(seed),
            pending: BinaryHeap::new(),
            query_process,
            background_process,
            next_id: 0,
        };
        // Seed each host's first arrival of each active population.
        for host in 0..gen.spec.num_hosts() {
            if let Some(p) = gen.query_process {
                let t = SimTime::ZERO + p.next_gap(&mut gen.rng);
                gen.pending.push(Reverse((t, host, Population::Query)));
            }
            if let Some(p) = gen.background_process {
                let t = SimTime::ZERO + p.next_gap(&mut gen.rng);
                gen.pending.push(Reverse((t, host, Population::Background)));
            }
        }
        Ok(gen)
    }

    /// The specification this generator was built from.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// Uniformly draws a destination different from `src` within
    /// `[base, base + span)`.
    fn pick_dst(&mut self, src: u32, base: u32, span: u32) -> HostId {
        debug_assert!(span >= 2, "validated at spec construction");
        let offset_src = src - base;
        let raw = self.rng.gen_range(0..span - 1);
        let offset = if raw >= offset_src { raw + 1 } else { raw };
        HostId::new(base + offset)
    }
}

impl Iterator for FlowGenerator {
    type Item = FlowArrival;

    fn next(&mut self) -> Option<FlowArrival> {
        let Reverse((time, host, population)) = self.pending.pop()?;
        let src = HostId::new(host);
        let (dst, size, class, process) = match population {
            Population::Query => {
                let (base, span) = match self.spec.query_scope {
                    QueryScope::Fabric => (0, self.spec.num_hosts()),
                    QueryScope::Cluster(racks) => {
                        let cluster = self.spec.rack_of(src).index() / racks;
                        (
                            cluster * racks * self.spec.hosts_per_rack,
                            racks * self.spec.hosts_per_rack,
                        )
                    }
                };
                let dst = self.pick_dst(host, base, span);
                (
                    dst,
                    self.spec.query_size,
                    FlowClass::Query,
                    self.query_process.expect("query arrival implies process"),
                )
            }
            Population::Background => {
                let rack_base = self.spec.rack_of(src).index() * self.spec.hosts_per_rack;
                let dst = self.pick_dst(host, rack_base, self.spec.hosts_per_rack);
                let size = self.spec.background_sizes.sample(&mut self.rng);
                (
                    dst,
                    size,
                    FlowClass::Background,
                    self.background_process
                        .expect("background arrival implies process"),
                )
            }
        };
        // Schedule this host/population's next arrival.
        let next_time = time + process.next_gap(&mut self.rng);
        self.pending.push(Reverse((next_time, host, population)));

        let id = FlowId::new(self.next_id);
        self.next_id += 1;
        Some(FlowArrival {
            id,
            time,
            voq: Voq::new(src, dst),
            size,
            class,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_dimensions() {
        let spec = TrafficSpec::paper_default(0.95).unwrap();
        assert_eq!(spec.num_hosts(), 144);
        assert_eq!(spec.num_racks(), 12);
        assert_eq!(spec.hosts_per_rack(), 12);
        assert_eq!(spec.query_size, Bytes::from_kb(20));
        assert!((spec.edge_rate().gbps() - 10.0).abs() < 1e-9);
        assert_eq!(spec.rack_of(HostId::new(0)), RackId::new(0));
        assert_eq!(spec.rack_of(HostId::new(143)), RackId::new(11));
        assert_eq!(spec.rack_of(HostId::new(12)), RackId::new(1));
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(TrafficSpec::paper_default(0.0).is_err());
        assert!(TrafficSpec::paper_default(f64::NAN).is_err());
        assert!(TrafficSpec::scaled(0, 4, 0.5).is_err());
        // Single-host racks cannot host rack-local background flows.
        assert!(TrafficSpec::scaled(4, 1, 0.5).is_err());
        // ...unless the workload is queries only.
        let queries_only = TrafficSpec::new(
            4,
            1,
            Rate::from_gbps(10.0),
            0.5,
            1.0,
            Bytes::from_kb(20),
            EmpiricalCdf::web_search(),
        );
        assert!(queries_only.is_ok());
        let bad_fraction = TrafficSpec::paper_default(0.5)
            .unwrap()
            .with_query_fraction(1.5);
        assert!(bad_fraction.is_err());
    }

    #[test]
    fn rates_recover_offered_load() {
        let spec = TrafficSpec::paper_default(0.8).unwrap();
        let offered = spec.offered_bytes_per_sec();
        let recovered = spec.query_rate_per_host() * spec.query_size.as_f64()
            + spec.background_rate_per_host() * spec.background_sizes.mean();
        assert!((offered - recovered).abs() / offered < 1e-12);
        assert!((offered - 0.8 * 1.25e9).abs() < 1e-3);
    }

    #[test]
    fn arrivals_are_time_ordered_with_increasing_ids() {
        let mut gen = TrafficSpec::scaled(2, 4, 0.7)
            .unwrap()
            .generator(1)
            .unwrap();
        let mut last_time = SimTime::ZERO;
        let mut last_id = None;
        for _ in 0..2_000 {
            let a = gen.next().unwrap();
            assert!(a.time >= last_time);
            if let Some(prev) = last_id {
                assert!(a.id > prev);
            }
            last_time = a.time;
            last_id = Some(a.id);
        }
    }

    #[test]
    fn destinations_respect_class_scopes() {
        let spec = TrafficSpec::scaled(3, 4, 0.7).unwrap();
        let mut gen = spec.generator(2).unwrap();
        for _ in 0..5_000 {
            let a = gen.next().unwrap();
            assert_ne!(a.voq.src(), a.voq.dst(), "no self-loops");
            match a.class {
                FlowClass::Background => {
                    assert_eq!(
                        spec.rack_of(a.voq.src()),
                        spec.rack_of(a.voq.dst()),
                        "background flows stay in-rack"
                    );
                    assert!(a.size.as_f64() >= spec.background_sizes.quantile(0.0));
                }
                FlowClass::Query => {
                    assert_eq!(a.size, spec.query_size);
                }
            }
        }
    }

    #[test]
    fn query_destinations_leave_the_rack() {
        let spec = TrafficSpec::scaled(4, 3, 0.7).unwrap();
        let mut gen = spec.generator(3).unwrap();
        let mut crossed = false;
        for _ in 0..2_000 {
            let a = gen.next().unwrap();
            if a.class == FlowClass::Query && spec.rack_of(a.voq.src()) != spec.rack_of(a.voq.dst())
            {
                crossed = true;
                break;
            }
        }
        assert!(crossed, "queries should cross racks");
    }

    #[test]
    fn generated_load_matches_target() {
        let spec = TrafficSpec::scaled(2, 6, 0.6).unwrap();
        let mut gen = spec.generator(4).unwrap();
        let horizon = 5.0;
        let mut total_bytes = 0u64;
        for a in gen.by_ref() {
            if a.time.as_secs() > horizon {
                break;
            }
            total_bytes += a.size.as_u64();
        }
        let offered = total_bytes as f64 / horizon / spec.num_hosts() as f64;
        let target = spec.offered_bytes_per_sec();
        assert!(
            (offered - target).abs() / target < 0.15,
            "offered {offered} B/s per host vs target {target}"
        );
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = TrafficSpec::scaled(2, 4, 0.7).unwrap();
        let a: Vec<FlowArrival> = spec.generator(9).unwrap().take(500).collect();
        let b: Vec<FlowArrival> = spec.generator(9).unwrap().take(500).collect();
        assert_eq!(a, b);
        let c: Vec<FlowArrival> = spec.generator(10).unwrap().take(500).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn query_only_and_background_only() {
        let q_only = TrafficSpec::paper_default(0.5)
            .unwrap()
            .with_query_fraction(1.0)
            .unwrap();
        let mut gen = q_only.generator(1).unwrap();
        for _ in 0..200 {
            assert_eq!(gen.next().unwrap().class, FlowClass::Query);
        }
        let bg_only = TrafficSpec::paper_default(0.5)
            .unwrap()
            .with_query_fraction(0.0)
            .unwrap();
        let mut gen = bg_only.generator(1).unwrap();
        for _ in 0..200 {
            assert_eq!(gen.next().unwrap().class, FlowClass::Background);
        }
    }

    #[test]
    fn with_background_sizes_swaps_distribution() {
        let spec = TrafficSpec::paper_default(0.5)
            .unwrap()
            .with_background_sizes(EmpiricalCdf::data_mining());
        assert_eq!(spec.background_sizes, EmpiricalCdf::data_mining());
    }

    #[test]
    fn fabric_scope_leaves_the_arrival_stream_untouched() {
        let baseline = TrafficSpec::paper_default(0.8).unwrap();
        let scoped = TrafficSpec::paper_default(0.8)
            .unwrap()
            .with_query_scope(QueryScope::Fabric)
            .unwrap();
        let mut a = baseline.generator(42).unwrap();
        let mut b = scoped.generator(42).unwrap();
        for _ in 0..500 {
            let (x, y) = (a.next().unwrap(), b.next().unwrap());
            assert_eq!((x.id, x.voq, x.size), (y.id, y.voq, y.size));
            assert_eq!(x.time.as_secs().to_bits(), y.time.as_secs().to_bits());
        }
    }

    #[test]
    fn scoped_queries_stay_inside_their_scope() {
        let spec = TrafficSpec::paper_default(0.8)
            .unwrap()
            .with_query_scope(QueryScope::Cluster(1))
            .unwrap();
        let mut gen = spec.generator(7).unwrap();
        for _ in 0..500 {
            let a = gen.next().unwrap();
            assert_eq!(spec.rack_of(a.voq.src()), spec.rack_of(a.voq.dst()));
        }

        let clustered = TrafficSpec::paper_default(0.8)
            .unwrap()
            .with_query_scope(QueryScope::Cluster(3))
            .unwrap();
        let mut gen = clustered.generator(7).unwrap();
        for _ in 0..500 {
            let a = gen.next().unwrap();
            let src_cluster = clustered.rack_of(a.voq.src()).index() / 3;
            let dst_cluster = clustered.rack_of(a.voq.dst()).index() / 3;
            assert_eq!(src_cluster, dst_cluster);
        }
    }

    #[test]
    fn invalid_query_scopes_are_rejected() {
        let spec = TrafficSpec::paper_default(0.8).unwrap(); // 12 racks
        assert!(spec.with_query_scope(QueryScope::Cluster(0)).is_err());
        let spec = TrafficSpec::paper_default(0.8).unwrap();
        assert!(spec.with_query_scope(QueryScope::Cluster(5)).is_err());
        let single = TrafficSpec::new(
            4,
            1,
            Rate::from_gbps(10.0),
            0.5,
            1.0, // queries only, so one host per rack passes `new`
            Bytes::from_kb(20),
            EmpiricalCdf::web_search(),
        )
        .unwrap();
        assert!(single.with_query_scope(QueryScope::Cluster(1)).is_err());
    }
}
