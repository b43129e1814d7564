//! Flow identifiers and traffic classes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a flow.
///
/// Generators assign identifiers in strictly increasing arrival order, so a
/// smaller `FlowId` always means an earlier (or simultaneous) arrival — so
/// the schedulers' tie-break (the smaller id first among equal keys) favours
/// the earlier arrival without storing timestamps.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FlowId(u64);

impl FlowId {
    /// Creates a flow identifier from its raw value.
    pub const fn new(raw: u64) -> Self {
        FlowId(raw)
    }

    /// Returns the raw identifier value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl From<u64> for FlowId {
    fn from(raw: u64) -> Self {
        FlowId(raw)
    }
}

/// The paper's two traffic classes (§V-A).
///
/// *Queries* are fixed 20 KB request/response flows whose destinations are
/// uniform over the whole fabric; *background* flows follow a heavy-tailed
/// size distribution and stay within the source's rack. FCT statistics are
/// reported separately per class (Table I, Figs. 6 and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FlowClass {
    /// Small latency-sensitive query/response flow (20 KB in the paper).
    Query,
    /// Heavy-tailed rack-local background transfer (backups, shuffles).
    Background,
}

impl FlowClass {
    /// All classes, in a stable order (useful for per-class reporting).
    pub const ALL: [FlowClass; 2] = [FlowClass::Query, FlowClass::Background];

    /// A short human-readable label, as used in the paper's tables.
    pub const fn label(self) -> &'static str {
        match self {
            FlowClass::Query => "query",
            FlowClass::Background => "background",
        }
    }
}

impl fmt::Display for FlowClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_orders_by_raw_value() {
        assert!(FlowId::new(1) < FlowId::new(2));
        assert_eq!(FlowId::from(7u64).raw(), 7);
        assert_eq!(FlowId::new(3).to_string(), "f3");
    }

    #[test]
    fn class_labels() {
        assert_eq!(FlowClass::Query.label(), "query");
        assert_eq!(FlowClass::Background.to_string(), "background");
        assert_eq!(FlowClass::ALL.len(), 2);
    }
}
