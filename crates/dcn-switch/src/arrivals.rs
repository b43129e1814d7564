//! Slot-level arrival processes (`A_ij(t)` of Eq. 1).

use dcn_types::{HostId, Slot, Voq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of flow arrivals for the slotted switch.
///
/// At the end of each slot the switch polls the process; every returned
/// `(voq, packets)` pair becomes a new flow of that many packets in that
/// VOQ. Per the model's assumptions (§III-B), at most one flow arrives at a
/// given VOQ in a given slot and flow sizes are bounded (so `E[A²] ≤ B`).
pub trait SlotArrivals {
    /// The flows arriving at the end of `slot`.
    fn poll(&mut self, slot: Slot) -> Vec<(Voq, u64)>;

    /// What the process can promise about its arrivals at or after `from`
    /// without advancing its own state.
    ///
    /// The driver ([`run_probed`](crate::run_probed)) uses the promise
    /// to skip polls it knows return nothing; the default is
    /// [`ArrivalLookahead::Unknown`], which forces a poll every slot and
    /// is always correct. Implementations may assume `from` is at least
    /// every previously polled slot (drivers advance monotonically).
    fn lookahead(&self, from: Slot) -> ArrivalLookahead {
        let _ = from;
        ArrivalLookahead::Unknown
    }
}

/// What a [`SlotArrivals`] process can promise about its future — the
/// return value of [`SlotArrivals::lookahead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalLookahead {
    /// The process cannot predict its next arrival (e.g. it draws random
    /// bits per slot); the driver must poll every slot.
    Unknown,
    /// The next arrival lands at the end of exactly this slot; polls for
    /// earlier not-yet-polled slots return no flows and may be skipped.
    NextAt(Slot),
    /// No further arrival will ever occur; every remaining poll returns
    /// no flows and may be skipped.
    Exhausted,
}

/// A deterministic, pre-scripted arrival sequence; drives the paper's
/// Fig. 1 walk-through and unit tests.
///
/// # Example
///
/// ```
/// use dcn_switch::arrivals::{ScriptedArrivals, SlotArrivals};
/// use dcn_types::{HostId, Slot, Voq};
///
/// let voq = Voq::new(HostId::new(0), HostId::new(1));
/// let mut s = ScriptedArrivals::new(vec![(1, voq, 5)]);
/// assert!(s.poll(Slot::new(0)).is_empty());
/// assert_eq!(s.poll(Slot::new(1)), vec![(voq, 5)]);
/// ```
#[derive(Debug, Clone)]
pub struct ScriptedArrivals {
    /// `(slot, voq, packets)` sorted by slot.
    script: Vec<(u64, Voq, u64)>,
    cursor: usize,
}

impl ScriptedArrivals {
    /// Creates the process from `(slot_index, voq, packets)` entries; the
    /// entries are sorted by slot internally.
    pub fn new(mut script: Vec<(u64, Voq, u64)>) -> Self {
        script.sort_by_key(|&(slot, voq, _)| (slot, voq));
        ScriptedArrivals { script, cursor: 0 }
    }
}

impl SlotArrivals for ScriptedArrivals {
    fn poll(&mut self, slot: Slot) -> Vec<(Voq, u64)> {
        let mut out = Vec::new();
        while let Some(&(s, voq, pkts)) = self.script.get(self.cursor) {
            if s != slot.index() {
                break;
            }
            out.push((voq, pkts));
            self.cursor += 1;
        }
        out
    }

    fn lookahead(&self, from: Slot) -> ArrivalLookahead {
        match self.script.get(self.cursor) {
            // Clamp to `from` so the promise stays well-formed even for a
            // caller that never polled the earlier scripted slots.
            Some(&(s, _, _)) => ArrivalLookahead::NextAt(Slot::new(s.max(from.index()))),
            None => ArrivalLookahead::Exhausted,
        }
    }
}

/// Independent Bernoulli flow arrivals: each slot, each VOQ `(i, j)` with
/// `i ≠ j` receives a new flow with probability `p_ij`, whose size is
/// uniform on `[1, 2·mean − 1]` packets (bounded, so the second-moment
/// bound `B` of §III-B exists and is computable).
///
/// The per-VOQ packet rate is `λ_ij = p_ij · mean`, so admissibility
/// (Eq. 2) holds iff every row and column of `(p_ij · mean)` sums below 1.
///
/// # Example
///
/// ```
/// use dcn_switch::arrivals::BernoulliFlowArrivals;
///
/// // 4 ports, 80 % uniform load, mean flow 5 packets.
/// let arr = BernoulliFlowArrivals::uniform(4, 0.8, 5, 42).unwrap();
/// assert!((arr.port_load() - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct BernoulliFlowArrivals {
    num_ports: u32,
    /// Arrival probability per off-diagonal VOQ per slot.
    prob: f64,
    mean_size: u64,
    rng: StdRng,
}

impl BernoulliFlowArrivals {
    /// Uniform traffic at per-port packet load `rho` across `num_ports`
    /// ports with the given mean flow size: each of the `num_ports − 1`
    /// off-diagonal VOQs of a row receives `rho / (num_ports − 1)` packets
    /// per slot in expectation.
    ///
    /// # Errors
    ///
    /// Returns an error string if `num_ports < 2`, `mean_size == 0`, `rho`
    /// is not in `(0, 1]`, or the implied per-VOQ flow probability exceeds
    /// 1 (load too high for the chosen mean size).
    pub fn uniform(num_ports: u32, rho: f64, mean_size: u64, seed: u64) -> Result<Self, String> {
        if num_ports < 2 {
            return Err("need at least two ports".into());
        }
        if mean_size == 0 {
            return Err("mean size must be positive".into());
        }
        if !rho.is_finite() || rho <= 0.0 || rho > 1.0 {
            return Err(format!("rho must be in (0, 1], got {rho}"));
        }
        let lambda_per_voq = rho / (num_ports - 1) as f64;
        let prob = lambda_per_voq / mean_size as f64;
        if prob > 1.0 {
            return Err(format!(
                "per-VOQ flow probability {prob} > 1; lower rho or raise mean size"
            ));
        }
        Ok(BernoulliFlowArrivals {
            num_ports,
            prob,
            mean_size,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The expected packet arrivals per port per slot (`Σ_j λ_ij`).
    pub fn port_load(&self) -> f64 {
        self.prob * self.mean_size as f64 * (self.num_ports - 1) as f64
    }

    /// The per-VOQ capacity slack `ε` of Theorem 1 for this uniform
    /// process: the largest `ε'` with `λ_ij + ε' ≤ R̄_ij` for a stationary
    /// reference algorithm. The best uniform doubly stochastic cover of
    /// zero-diagonal uniform traffic is `M_ij = 1/(N−1)` off the diagonal
    /// (a convex combination of derangements by Birkhoff's theorem), so
    /// `ε = (1 − ρ)/(N − 1)`.
    pub fn capacity_slack(&self) -> f64 {
        (1.0 - self.port_load()) / (self.num_ports - 1) as f64
    }

    /// The second-moment bound `B ≥ E[A_ij²]` of §III-B for this process.
    ///
    /// With probability `p` the arrival is uniform on `[1, 2m−1]`, so
    /// `E[A²] = p · E[S²]` with
    /// `E[S²] = m² + ((2m−1)² − 1)/12 · ... ` computed exactly below.
    pub fn second_moment_bound(&self) -> f64 {
        let m = self.mean_size as f64;
        let k = 2.0 * m - 1.0; // sizes uniform on 1..=k
                               // E[S²] for discrete uniform on [1, k]: (k+1)(2k+1)/6.
        let e_s2 = (k + 1.0) * (2.0 * k + 1.0) / 6.0;
        self.prob * e_s2
    }

    fn sample_size(&mut self) -> u64 {
        self.rng.gen_range(1..=2 * self.mean_size - 1)
    }
}

impl SlotArrivals for BernoulliFlowArrivals {
    fn poll(&mut self, _slot: Slot) -> Vec<(Voq, u64)> {
        let mut out = Vec::new();
        for i in 0..self.num_ports {
            for j in 0..self.num_ports {
                if i == j {
                    continue;
                }
                if self.rng.gen_bool(self.prob) {
                    let size = self.sample_size();
                    out.push((Voq::new(HostId::new(i), HostId::new(j)), size));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_delivers_in_slot_order() {
        let q1 = Voq::new(HostId::new(0), HostId::new(1));
        let q2 = Voq::new(HostId::new(1), HostId::new(0));
        let mut s = ScriptedArrivals::new(vec![(2, q2, 3), (0, q1, 5), (2, q1, 1)]);
        assert_eq!(s.poll(Slot::new(0)), vec![(q1, 5)]);
        assert!(s.poll(Slot::new(1)).is_empty());
        assert_eq!(s.poll(Slot::new(2)), vec![(q1, 1), (q2, 3)]);
        assert_eq!(s.cursor, s.script.len());
    }

    #[test]
    fn scripted_lookahead_tracks_the_cursor() {
        let q = Voq::new(HostId::new(0), HostId::new(1));
        let mut s = ScriptedArrivals::new(vec![(3, q, 5), (7, q, 1)]);
        assert_eq!(
            s.lookahead(Slot::new(0)),
            ArrivalLookahead::NextAt(Slot::new(3))
        );
        // A lookahead from beyond the entry clamps to `from`.
        assert_eq!(
            s.lookahead(Slot::new(5)),
            ArrivalLookahead::NextAt(Slot::new(5))
        );
        assert!(s.poll(Slot::new(3)).len() == 1);
        assert_eq!(
            s.lookahead(Slot::new(4)),
            ArrivalLookahead::NextAt(Slot::new(7))
        );
        assert!(s.poll(Slot::new(7)).len() == 1);
        assert_eq!(s.lookahead(Slot::new(8)), ArrivalLookahead::Exhausted);
    }

    #[test]
    fn bernoulli_lookahead_is_unknown() {
        let arr = BernoulliFlowArrivals::uniform(4, 0.6, 5, 7).unwrap();
        assert_eq!(arr.lookahead(Slot::new(0)), ArrivalLookahead::Unknown);
    }

    #[test]
    fn bernoulli_rate_matches_target() {
        let mut arr = BernoulliFlowArrivals::uniform(4, 0.6, 5, 7).unwrap();
        let slots = 20_000u64;
        let mut packets = [0u64; 4];
        for t in 0..slots {
            for (voq, pkts) in arr.poll(Slot::new(t)) {
                packets[voq.src().as_usize()] += pkts;
                assert!((1..=9).contains(&pkts));
                assert_ne!(voq.src(), voq.dst());
            }
        }
        for (port, &count) in packets.iter().enumerate() {
            let rate = count as f64 / slots as f64;
            assert!(
                (rate - 0.6).abs() < 0.05,
                "port {port} rate {rate} should be ~0.6"
            );
        }
    }

    #[test]
    fn bernoulli_rejects_bad_config() {
        assert!(BernoulliFlowArrivals::uniform(1, 0.5, 5, 0).is_err());
        assert!(BernoulliFlowArrivals::uniform(4, 0.0, 5, 0).is_err());
        assert!(BernoulliFlowArrivals::uniform(4, 1.5, 5, 0).is_err());
        assert!(BernoulliFlowArrivals::uniform(4, 0.5, 0, 0).is_err());
    }

    #[test]
    fn capacity_slack_formula() {
        let arr = BernoulliFlowArrivals::uniform(8, 0.8, 5, 0).unwrap();
        // (1 - 0.8) / 7.
        assert!((arr.capacity_slack() - 0.2 / 7.0).abs() < 1e-12);
        // Slack shrinks as load grows.
        let busier = BernoulliFlowArrivals::uniform(8, 0.95, 5, 0).unwrap();
        assert!(busier.capacity_slack() < arr.capacity_slack());
        assert!(busier.capacity_slack() > 0.0);
    }

    #[test]
    fn second_moment_bound_is_positive_and_consistent() {
        let arr = BernoulliFlowArrivals::uniform(4, 0.9, 5, 0).unwrap();
        let b = arr.second_moment_bound();
        assert!(b > 0.0);
        // E[A²] >= (E[A])² / P(A>0) is not needed; just sanity: B >= p*m².
        let p = 0.9 / 3.0 / 5.0;
        assert!(b >= p * 25.0);
    }
}
