//! Experiment execution helpers shared by the bench targets.

use basrpt_core::{FastBasrpt, Scheduler};
use dcn_fabric::{simulate, FabricRun, FatTree, SimConfig};
use dcn_types::SimTime;
use dcn_workload::TrafficSpec;

/// Latency floor used by the FCT-focused benches (Table I, Fig. 6): a
/// conservative three-hop propagation + forwarding figure. The paper's
/// simulator reports millisecond-scale query FCTs even under SRPT, which a
/// zero-overhead big-switch engine cannot produce; the floor restores a
/// comparable baseline without touching scheduling or bandwidth.
pub const FCT_BASE_LATENCY_US: f64 = 100.0;

/// Number of servers in the paper's fabric; the reference point for
/// [`paper_equivalent_fast_basrpt`].
pub const PAPER_NUM_HOSTS: usize = 144;

/// Builds a fast BASRPT scheduler whose *per-flow weight* `V/N` equals that
/// of the paper's scheduler with parameter `v_paper` on the 144-host
/// fabric.
///
/// The quantity that enters Algorithm 1's key is the weight `V/N`, not `V`
/// itself, so when an experiment runs on a reduced fabric the paper's `V`
/// values must be mapped to `v_paper × N/144` to exercise the same
/// delay-vs-stability operating point. On the paper-scale fabric this is
/// the identity.
///
/// # Example
///
/// ```
/// use basrpt_bench::paper_equivalent_fast_basrpt;
/// let s16 = paper_equivalent_fast_basrpt(2500.0, 16);
/// let s144 = paper_equivalent_fast_basrpt(2500.0, 144);
/// assert!((s16.weight() - s144.weight()).abs() < 1e-9);
/// assert!((s144.v() - 2500.0).abs() < 1e-9);
/// ```
pub fn paper_equivalent_fast_basrpt(v_paper: f64, num_hosts: usize) -> FastBasrpt {
    let v = v_paper * num_hosts as f64 / PAPER_NUM_HOSTS as f64;
    FastBasrpt::new(v, num_hosts)
}

/// Runs one fabric experiment and returns its measurements.
///
/// # Panics
///
/// Panics if the workload or simulation reports an error — bench targets
/// construct both from validated [`crate::Scale`] values, so an error here
/// is a harness bug worth crashing on.
pub fn run_fabric(
    topo: &FatTree,
    spec: &TrafficSpec,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    horizon: SimTime,
) -> FabricRun {
    let config = SimConfig::builder().horizon(horizon).build();
    run_fabric_with(topo, spec, scheduler, seed, config)
}

/// Like [`run_fabric`] with an explicit simulation config (latency floor,
/// sampling, monitored port).
///
/// # Panics
///
/// Panics on workload or simulation errors, as in [`run_fabric`].
pub fn run_fabric_with(
    topo: &FatTree,
    spec: &TrafficSpec,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    config: SimConfig,
) -> FabricRun {
    let generator = spec.generator(seed).expect("valid spec");
    simulate(topo, scheduler, generator, config).expect("valid simulation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use basrpt_core::Srpt;

    #[test]
    fn paper_equivalent_weight_is_invariant() {
        for n in [8usize, 16, 36, 144] {
            let s = paper_equivalent_fast_basrpt(2500.0, n);
            assert!((s.weight() - 2500.0 / 144.0).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn run_fabric_smoke() {
        let scale = Scale::Quick;
        let topo = scale.topology();
        let spec = scale.spec(0.5).unwrap();
        let run = run_fabric(&topo, &spec, &mut Srpt::new(), 1, SimTime::from_secs(0.05));
        assert!(run.arrivals > 0);
    }
}
