//! The scheduling disciplines evaluated in the paper, plus baselines.

mod exact_basrpt;
mod fast_basrpt;
mod maxweight;
mod repflow;
mod srpt;
mod threshold;

pub use exact_basrpt::{ExactBasrpt, ExactBasrptError, PenaltyKind};
pub use fast_basrpt::FastBasrpt;
pub use maxweight::MaxWeight;
pub use repflow::{RepFlow, REPFLOW_DEFAULT_THRESHOLD};
pub use srpt::Srpt;
pub use threshold::ThresholdBacklogSrpt;
