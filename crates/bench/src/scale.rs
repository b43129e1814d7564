//! Experiment scaling.

use dcn_fabric::FatTree;
use dcn_types::SimTime;
use dcn_workload::{TrafficSpec, WorkloadError};
use std::fmt;

/// How large to run each experiment; selected with `BASRPT_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test size: 8 hosts, 1–2 s horizons.
    Quick,
    /// Reduced fabric (16 hosts) with horizons of tens of seconds — the
    /// scale used for the recorded results in `EXPERIMENTS.md`.
    Default,
    /// The paper's exact configuration: 144 hosts, 500 s horizons.
    Paper,
}

impl Scale {
    /// Reads `BASRPT_SCALE` (`quick` / `default` / `paper`, case
    /// insensitive); unset or unrecognized values map to `Default`.
    pub fn from_env() -> Scale {
        match std::env::var("BASRPT_SCALE")
            .unwrap_or_default()
            .to_ascii_lowercase()
            .as_str()
        {
            "quick" => Scale::Quick,
            "paper" => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// Racks, hosts per rack and cores at this scale.
    pub fn dimensions(&self) -> (u32, u32, u32) {
        match self {
            Scale::Quick => (2, 4, 1),
            Scale::Default => (4, 4, 1),
            Scale::Paper => (12, 12, 3),
        }
    }

    /// The fabric topology at this scale (paper link rates throughout).
    pub fn topology(&self) -> FatTree {
        let (racks, hpr, cores) = self.dimensions();
        FatTree::scaled(racks, hpr, cores).expect("scale dimensions are valid")
    }

    /// The workload at this scale and per-port `load`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for an invalid load.
    pub fn spec(&self, load: f64) -> Result<TrafficSpec, WorkloadError> {
        let (racks, hpr, _) = self.dimensions();
        TrafficSpec::scaled(racks, hpr, load)
    }

    /// Number of hosts at this scale.
    pub fn num_hosts(&self) -> u32 {
        let (racks, hpr, _) = self.dimensions();
        racks * hpr
    }

    /// Horizon for stability experiments (Figs. 2, 5, 7): long enough for
    /// the SRPT/BASRPT queue trends to separate.
    pub fn stability_horizon(&self) -> SimTime {
        SimTime::from_secs(match self {
            Scale::Quick => 2.0,
            Scale::Default => 25.0,
            Scale::Paper => 500.0,
        })
    }

    /// Horizon for FCT experiments (Table I, Figs. 6, 8): long enough for
    /// tens of thousands of completions per class.
    pub fn fct_horizon(&self) -> SimTime {
        SimTime::from_secs(match self {
            Scale::Quick => 1.0,
            Scale::Default => 8.0,
            Scale::Paper => 100.0,
        })
    }

    /// Slots for slotted-switch experiments (Theorem 1).
    pub fn switch_slots(&self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Default => 200_000,
            Scale::Paper => 2_000_000,
        }
    }

    /// The saturating load of the paper's stability experiments
    /// (~9.5 Gbps of the 10 Gbps ports).
    pub fn saturating_load(&self) -> f64 {
        0.95
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (racks, hpr, cores) = self.dimensions();
        let name = match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Paper => "paper",
        };
        write!(
            f,
            "{name} scale: {racks} racks x {hpr} hosts ({} total), {cores} cores, \
             stability horizon {}, FCT horizon {}",
            racks * hpr,
            self.stability_horizon(),
            self.fct_horizon()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_fabric::Topology;

    #[test]
    fn paper_scale_matches_paper() {
        let s = Scale::Paper;
        assert_eq!(s.dimensions(), (12, 12, 3));
        assert_eq!(s.num_hosts(), 144);
        assert_eq!(s.stability_horizon(), SimTime::from_secs(500.0));
        assert!(s.topology().is_full_bisection());
    }

    #[test]
    fn all_scales_build_valid_topologies_and_specs() {
        for s in [Scale::Quick, Scale::Default, Scale::Paper] {
            let topo = s.topology();
            assert!(topo.is_full_bisection(), "{s} must be full bisection");
            assert!(s.spec(0.5).is_ok());
            assert!(!s.to_string().is_empty());
        }
    }

    #[test]
    fn env_parsing_defaults() {
        // from_env reads the live environment; only check it never panics
        // and yields one of the variants.
        let s = Scale::from_env();
        assert!(matches!(s, Scale::Quick | Scale::Default | Scale::Paper));
    }
}
