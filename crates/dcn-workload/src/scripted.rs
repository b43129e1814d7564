//! Deterministic adversarial workloads.

use crate::{FlowArrival, WorkloadError};
use dcn_types::{Bytes, FlowClass, FlowId, HostId, Rate, SimTime, Voq};
use serde::{Deserialize, Serialize};

/// The continuous-time generalization of the paper's Fig.-1 instability
/// example: a periodic three-population pattern over two bottleneck links
/// that starves SRPT while staying strictly inside the capacity region.
///
/// Four hosts A, B, C, D:
///
/// * *short* flows A → C arrive every `short_period` (load `ρ_s` on A's
///   uplink);
/// * *short* flows D → B arrive every `short_period`, offset by half a
///   period so their busy windows interleave with A's;
/// * *long* flows A → B arrive every `long_period` (load `ρ_l` on both
///   bottlenecks).
///
/// Under SRPT a long flow with remaining size above the short size `S`
/// only transmits when **both** bottlenecks are simultaneously free of
/// shorter flows; with the half-period offset that overlap is only
/// `1 − 2ρ_s` of the time. Each long of size `L` must push its *exposed*
/// portion `L − S` through those windows before its remaining drops below
/// `S` and it starts beating fresh shorts, so the long class starves —
/// and its backlog grows forever — whenever
///
/// ```text
/// ρ_l · (L − S) > (1 − 2ρ_s) · L      (starvation)
/// ρ_s + ρ_l < 1                       (inside the capacity region)
/// ```
///
/// A backlog-aware scheduler lets the A→B queue accumulate only until its
/// backlog outweighs the shorts' size advantage, then serves it — the
/// queue stabilizes near `(V/N)·(L − S)` for fast BASRPT.
///
/// With the defaults (1 MB shorts every 2.5 MB-times, 10 MB longs every
/// 33⅓ MB-times) the loads are `ρ_s = 0.4`, `ρ_l = 0.3`:
/// `0.4 + 0.3 = 0.7 < 1` but `0.3 · 9 = 2.7 > 0.2 · 10 = 2`, so SRPT
/// loses ≈ `0.3 − 0.2·10/9 ≈ 0.078` of a link's capacity (~97 MB/s at
/// 10 Gbps) to starvation.
///
/// # Example
///
/// ```
/// use dcn_workload::StarvationScript;
/// use dcn_types::Rate;
///
/// let mut script = StarvationScript::with_defaults(Rate::from_gbps(10.0))?;
/// let first = script.next().unwrap();
/// assert_eq!(first.time.as_secs(), 0.0);
/// # Ok::<(), dcn_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StarvationScript {
    short_size: Bytes,
    long_size: Bytes,
    short_period: SimTime,
    long_period: SimTime,
    /// Next arrival index per population: A→C shorts, D→B shorts, A→B longs.
    next_index: [u64; 3],
    next_id: u64,
}

/// Host A: source of the shorts to C and of the starved long flows.
pub const HOST_A: HostId = HostId::new(0);
/// Host B: destination shared by the longs and D's shorts.
pub const HOST_B: HostId = HostId::new(1);
/// Host C: sink of A's shorts.
pub const HOST_C: HostId = HostId::new(2);
/// Host D: source of the shorts to B.
pub const HOST_D: HostId = HostId::new(3);

impl StarvationScript {
    /// Builds the gadget from explicit sizes and periods.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] if a size is zero, a period
    /// is non-positive, the combined load of a bottleneck reaches 1 (the
    /// gadget must stay inside the capacity region), or the starvation
    /// condition `ρ_l > 1 − 2ρ_s` fails (the gadget would not starve SRPT).
    pub fn new(
        edge_rate: Rate,
        short_size: Bytes,
        short_period: SimTime,
        long_size: Bytes,
        long_period: SimTime,
    ) -> Result<Self, WorkloadError> {
        let invalid = |m: String| Err(WorkloadError::InvalidSpec(m));
        if short_size.is_zero() || long_size.is_zero() {
            return invalid("sizes must be positive".into());
        }
        if short_period <= SimTime::ZERO || long_period <= SimTime::ZERO {
            return invalid("periods must be positive".into());
        }
        if long_size <= short_size {
            return invalid("long flows must be larger than short flows".into());
        }
        let rho_s = edge_rate.transfer_time(short_size).as_secs() / short_period.as_secs();
        let rho_l = edge_rate.transfer_time(long_size).as_secs() / long_period.as_secs();
        if rho_s + rho_l >= 1.0 {
            return invalid(format!(
                "bottleneck load {rho_s} + {rho_l} must stay below capacity"
            ));
        }
        let exposed = (long_size.as_f64() - short_size.as_f64()) / long_size.as_f64();
        if rho_l * exposed <= 1.0 - 2.0 * rho_s {
            return invalid(format!(
                "starvation condition rho_l (L-S)/L > 1 - 2 rho_s violated \
                 ({} <= {})",
                rho_l * exposed,
                1.0 - 2.0 * rho_s
            ));
        }
        Ok(StarvationScript {
            short_size,
            long_size,
            short_period,
            long_period,
            next_index: [0; 3],
            next_id: 0,
        })
    }

    /// The default gadget at the given edge rate: 1 MB shorts every
    /// 2.5 MB-transfer-times (`ρ_s = 0.4` per bottleneck) and 10 MB longs
    /// every 33⅓ MB-transfer-times (`ρ_l = 0.3`).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] only if `edge_rate` is zero.
    pub fn with_defaults(edge_rate: Rate) -> Result<Self, WorkloadError> {
        if edge_rate.is_zero() {
            return Err(WorkloadError::InvalidSpec(
                "edge rate must be positive".into(),
            ));
        }
        let mb_time = edge_rate.transfer_time(Bytes::from_mb(1));
        StarvationScript::new(
            edge_rate,
            Bytes::from_mb(1),
            SimTime::from_secs(mb_time.as_secs() * 2.5),
            Bytes::from_mb(10),
            SimTime::from_secs(mb_time.as_secs() * 100.0 / 3.0),
        )
    }

    /// Arrival time of population `p`'s `k`-th flow.
    fn time_of(&self, p: usize, k: u64) -> SimTime {
        match p {
            // A -> C shorts at k * short_period.
            0 => SimTime::from_secs(self.short_period.as_secs() * k as f64),
            // D -> B shorts offset by half a period.
            1 => SimTime::from_secs(self.short_period.as_secs() * (k as f64 + 0.5)),
            // A -> B longs.
            _ => SimTime::from_secs(self.long_period.as_secs() * k as f64),
        }
    }
}

impl Iterator for StarvationScript {
    type Item = FlowArrival;

    fn next(&mut self) -> Option<FlowArrival> {
        // Pick the population with the earliest pending arrival
        // (deterministic tie-break by population index).
        let p = (0..3)
            .min_by(|&a, &b| {
                self.time_of(a, self.next_index[a])
                    .cmp(&self.time_of(b, self.next_index[b]))
            })
            .expect("three populations");
        let k = self.next_index[p];
        self.next_index[p] += 1;
        let (voq, size, class) = match p {
            0 => (Voq::new(HOST_A, HOST_C), self.short_size, FlowClass::Query),
            1 => (Voq::new(HOST_D, HOST_B), self.short_size, FlowClass::Query),
            _ => (
                Voq::new(HOST_A, HOST_B),
                self.long_size,
                FlowClass::Background,
            ),
        };
        let id = FlowId::new(self.next_id);
        self.next_id += 1;
        Some(FlowArrival {
            id,
            time: self.time_of(p, k),
            voq,
            size,
            class,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_satisfy_the_starvation_conditions() {
        let rate = Rate::from_gbps(10.0);
        let s = StarvationScript::with_defaults(rate).unwrap();
        // Per-bottleneck loads of the short (`ρ_s`) and long (`ρ_l`)
        // populations.
        let load = |size, period: SimTime| rate.transfer_time(size).as_secs() / period.as_secs();
        let rho_s = load(s.short_size, s.short_period);
        let rho_l = load(s.long_size, s.long_period);
        assert!((rho_s - 0.4).abs() < 1e-12);
        assert!((rho_l - 0.3).abs() < 1e-12);
        assert!(rho_s + rho_l < 1.0);
        // Exposed-portion starvation condition.
        assert!(rho_l * 0.9 > 1.0 - 2.0 * rho_s);
    }

    #[test]
    fn invalid_gadgets_rejected() {
        let rate = Rate::from_gbps(10.0);
        let mb = rate.transfer_time(Bytes::from_mb(1)).as_secs();
        // Overloaded bottleneck.
        assert!(StarvationScript::new(
            rate,
            Bytes::from_mb(1),
            SimTime::from_secs(mb * 1.2),
            Bytes::from_mb(10),
            SimTime::from_secs(mb * 100.0 / 3.0),
        )
        .is_err());
        // No starvation: shorts too sparse.
        assert!(StarvationScript::new(
            rate,
            Bytes::from_mb(1),
            SimTime::from_secs(mb * 10.0),
            Bytes::from_mb(10),
            SimTime::from_secs(mb * 100.0 / 3.0),
        )
        .is_err());
        // Longs not larger than shorts.
        assert!(StarvationScript::new(
            rate,
            Bytes::from_mb(2),
            SimTime::from_secs(mb * 5.0),
            Bytes::from_mb(2),
            SimTime::from_secs(mb * 8.0),
        )
        .is_err());
    }

    #[test]
    fn arrivals_are_time_ordered_and_periodic() {
        let mut s = StarvationScript::with_defaults(Rate::from_gbps(10.0)).unwrap();
        let arrivals: Vec<FlowArrival> = s.by_ref().take(200).collect();
        for pair in arrivals.windows(2) {
            assert!(pair[0].time <= pair[1].time);
            assert!(pair[0].id < pair[1].id);
        }
        // All three populations appear.
        assert!(arrivals.iter().any(|a| a.voq == Voq::new(HOST_A, HOST_C)));
        assert!(arrivals.iter().any(|a| a.voq == Voq::new(HOST_D, HOST_B)));
        assert!(arrivals.iter().any(|a| a.voq == Voq::new(HOST_A, HOST_B)));
        // Longs are Background, shorts are Query.
        for a in &arrivals {
            if a.voq == Voq::new(HOST_A, HOST_B) {
                assert_eq!(a.class, FlowClass::Background);
                assert_eq!(a.size, Bytes::from_mb(10));
            } else {
                assert_eq!(a.class, FlowClass::Query);
                assert_eq!(a.size, Bytes::from_mb(1));
            }
        }
    }

    #[test]
    fn offered_load_is_periodic_average() {
        let rate = Rate::from_gbps(10.0);
        let mut s = StarvationScript::with_defaults(rate).unwrap();
        let horizon = 1.0; // seconds
        let mut a_bytes = 0u64;
        for a in s.by_ref() {
            if a.time.as_secs() > horizon {
                break;
            }
            if a.voq.src() == HOST_A {
                a_bytes += a.size.as_u64();
            }
        }
        // A's egress load = 0.4 + 0.3 = 0.7 of 1.25 GB/s.
        let load = a_bytes as f64 / horizon / rate.bytes_per_sec();
        assert!((load - 0.7).abs() < 0.04, "A load {load}");
    }
}
