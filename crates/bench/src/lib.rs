//! Shared harness for the experiment benches.
//!
//! Every table and figure of the paper has a `[[bench]]` target in this
//! crate (run them all with `cargo bench`). The harness scales each
//! experiment to the machine it runs on via the `BASRPT_SCALE` environment
//! variable:
//!
//! * `quick` — seconds-long smoke runs (CI);
//! * `default` — a reduced 16-host fabric with horizons of a few tens of
//!   simulated seconds; the full suite completes in minutes on one core
//!   while preserving every qualitative result;
//! * `paper` — the paper's exact 144-host fabric and 500 s horizon
//!   (hundreds of core-hours; for record runs only).
//!
//! Independently, `BASRPT_SEEDS` turns the seed-sensitive experiments
//! (`fig2`, `fig5`, `table1`) into multi-seed sweeps run in parallel across
//! cores, reporting `mean ± CI95` per metric (see [`parallel`]).
//!
//! `EXPERIMENTS.md` documents which scale produced the recorded numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod record;
pub mod runner;
pub mod scale;
pub mod timer;

pub use parallel::{run_seeds, run_seeds_with, seeds_from_env, threads_from_env, SeedStats};
pub use record::{median_ns, parse_groups, write_merged, BenchRow, Groups};
pub use runner::{paper_equivalent_fast_basrpt, run_fabric, run_fabric_with, FCT_BASE_LATENCY_US};
pub use scale::Scale;
pub use timer::Timer;
