//! Slotted input-queued switch model — the paper's network model (§III).
//!
//! The data-center fabric is abstracted as one non-blocking `N × N`
//! input-queued switch: each port is a server, flows wait in `N²` virtual
//! output queues, time advances in packet-transmission slots, and during
//! each slot a crossbar matching moves at most one packet per ingress and
//! per egress port. Queue lengths evolve exactly per Eq. (1):
//!
//! ```text
//! X_ij(t+1) = X_ij(t) + A_ij(t) − R_ij(t) + L_ij(t)
//! ```
//!
//! with arrivals `A_ij(t)` applied at the end of each slot. [`run`] is the
//! simulation driver: it caches each schedule for as long as it provably
//! stays valid and advances whole macro-slot windows, bit-identical to
//! the slot-by-slot oracle [`reference::run`]. This model is
//! where the paper's theory lives, so the crate also provides the
//! quadratic Lyapunov function and the Theorem-1 bounds ([`lyapunov`];
//! the run's Lyapunov series is [`lyapunov::quadratic_lyapunov`] per
//! sample) and the exact Fig.-1 three-flow instability scenario
//! ([`fig1`]).
//!
//! # Example
//!
//! ```
//! use basrpt_core::Srpt;
//! use dcn_switch::{arrivals::ScriptedArrivals, RunConfig, SlottedSwitch};
//! use dcn_types::{HostId, Voq};
//!
//! // One 2-packet flow from port 0 to port 1, injected at slot 0.
//! let mut arrivals = ScriptedArrivals::new(vec![(0, Voq::new(HostId::new(0), HostId::new(1)), 2)]);
//! let run = dcn_switch::run(2, &mut Srpt::new(), &mut arrivals, RunConfig::new(10));
//! assert_eq!(run.completions.len(), 1);
//! assert_eq!(run.delivered_packets, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arrivals;
pub mod fig1;
pub mod lyapunov;
pub mod reference;
mod switch;

pub use arrivals::{ArrivalLookahead, ScriptedArrivals};
pub use switch::{
    run, run_probed, CompletedFlow, RunConfig, SlotOutcome, SlottedSwitch, SwitchRun,
};
