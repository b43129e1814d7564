//! The shared invariant-test layer for the integration suites.
//!
//! Seven differential suites grew private copies of the same three
//! instruments: FNV-1a fingerprinting of sampled series and probe event
//! streams, the bit-exact "two runs are the same run" comparison, and the
//! conservation identities every engine must satisfy. This module is the
//! single home for all of them, plus [`battery`]: implement
//! [`battery::DisciplineUnderTest`] for a new scheduler (one closure) and
//! [`battery::run_invariant_battery`] runs the full set — determinism,
//! byte/flow conservation, work conservation, series sanity — across
//! seeds × topologies, so a new discipline is pinned before it grows its
//! own bespoke suite.
//!
//! Integration tests opt in with `mod support;` and take what they need:
//!
//! ```ignore
//! mod support;
//! use support::fingerprint::{fingerprint, FnvProbe};
//! use support::conservation::{assert_bit_identical, assert_conserved};
//! ```
//!
//! Every suite compiles this file independently, so helpers one suite
//! skips are dead code in another — hence the module-wide allow.
#![allow(dead_code)]

pub mod battery;
pub mod conservation;
pub mod fingerprint;
pub mod oracles;
pub mod shards;
