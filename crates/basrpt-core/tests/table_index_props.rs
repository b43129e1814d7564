//! Property tests for the flow table's per-event indexes: the per-source
//! non-empty index behind `voqs()`, the per-host ingress vector, and the
//! slot handles. Random scripts of slot-keyed inserts, drains and
//! removals — over hosts first seen out of order, so the per-host
//! vectors grow mid-run, and with stale handles thrown in — run against a
//! plain `BTreeMap` model of the live flows; after every step the table
//! must serve exactly the model's VOQ order, backlogs and handles. A
//! script may also snapshot the table by cloning it and later restore
//! that copy, which must carry on exactly like the model it was taken
//! with.

use basrpt_core::{FlowSlot, FlowState, FlowTable, FlowTableError};
use dcn_types::{FlowId, HostId, Voq};
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The hosts a script draws from: out of order, sparse, and on both
/// sides of a 64-host word boundary.
const HOSTS: [u32; 9] = [70, 3, 0, 129, 64, 5, 63, 200, 1];

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert {
        id: u64,
        src: usize,
        dst: usize,
        size: u64,
    },
    Drain {
        pick: usize,
        units: u64,
    },
    /// Drain a flow's whole remaining size: the way a flow leaves.
    Remove {
        pick: usize,
    },
    /// Drain through the handle of the most recently departed flow.
    Stale {
        units: u64,
    },
    Snapshot,
    Restore,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        0u64..20,
        0usize..HOSTS.len(),
        0usize..HOSTS.len(),
        1u64..30,
        0usize..64,
    )
        .prop_map(|(kind, id, src, dst, size, pick)| match kind {
            0..=4 => Op::Insert { id, src, dst, size },
            5..=7 => Op::Drain {
                pick,
                units: 1 + size % 9,
            },
            8 => Op::Remove { pick },
            9 => Op::Stale { units: size },
            10 => Op::Snapshot,
            _ => Op::Restore,
        })
}

/// The model: every live flow's VOQ, remaining units and slot.
type Model = BTreeMap<FlowId, (Voq, u64, FlowSlot)>;

struct Script {
    table: FlowTable,
    model: Model,
    saved: Option<(FlowTable, Model)>,
    /// The handle and id of the last flow to leave the table.
    departed: Option<(FlowSlot, FlowId)>,
}

impl Script {
    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        let live: Vec<FlowId> = self.model.keys().copied().collect();
        match op {
            Op::Insert { id, src, dst, size } => {
                let (src, dst) = (HOSTS[src], HOSTS[dst]);
                let dst = if src == dst { dst + 1 } else { dst };
                let voq = Voq::new(HostId::new(src), HostId::new(dst));
                let id = FlowId::new(id);
                let got = self.table.insert(FlowState::new(id, voq, size));
                match self.model.entry(id) {
                    Entry::Occupied(_) => {
                        prop_assert_eq!(got, Err(FlowTableError::DuplicateFlow(id)));
                    }
                    Entry::Vacant(v) => {
                        v.insert((voq, size, got.map_err(TestCaseError::fail)?));
                    }
                }
            }
            Op::Drain { pick, units } if !live.is_empty() => {
                let id = live[pick % live.len()];
                let (voq, remaining, slot) = self.model[&id];
                let out = self
                    .table
                    .drain_at(slot, id, units)
                    .map_err(TestCaseError::fail)?;
                prop_assert_eq!(out.drained, units.min(remaining));
                prop_assert_eq!(out.slot, slot);
                prop_assert_eq!(out.completed.is_some(), units >= remaining);
                if units >= remaining {
                    self.model.remove(&id);
                    self.departed = Some((slot, id));
                } else {
                    self.model.insert(id, (voq, remaining - units, slot));
                }
            }
            Op::Remove { pick } if !live.is_empty() => {
                let id = live[pick % live.len()];
                let (_, remaining, slot) = self.model[&id];
                let out = self
                    .table
                    .drain_at(slot, id, remaining)
                    .map_err(TestCaseError::fail)?;
                prop_assert_eq!(out.drained, remaining);
                prop_assert_eq!(out.completed.map(|f| f.id()), Some(id));
                self.model.remove(&id);
                self.departed = Some((slot, id));
            }
            Op::Stale { units } => {
                if let Some((slot, id)) =
                    self.departed.filter(|(_, id)| !self.model.contains_key(id))
                {
                    let version = self.table.version();
                    prop_assert_eq!(
                        self.table.drain_at(slot, id, units),
                        Err(FlowTableError::UnknownFlow(id))
                    );
                    prop_assert_eq!(self.table.get_at(slot, id), None);
                    prop_assert_eq!(self.table.version(), version);
                }
            }
            Op::Snapshot => self.saved = Some((self.table.clone(), self.model.clone())),
            Op::Restore => {
                if let Some((table, model)) = &self.saved {
                    (self.table, self.model) = (table.clone(), model.clone());
                    self.departed = None;
                }
            }
            Op::Drain { .. } | Op::Remove { .. } => {}
        }
        self.check()
    }

    /// The table against the model, index by index.
    fn check(&self) -> Result<(), TestCaseError> {
        let t = &self.table;
        t.check_invariants().map_err(TestCaseError::fail)?;

        let mut voqs: BTreeMap<Voq, u64> = BTreeMap::new();
        let mut ingress: BTreeMap<u32, u64> = BTreeMap::new();
        for &(voq, remaining, _) in self.model.values() {
            *voqs.entry(voq).or_default() += remaining;
            *ingress.entry(voq.src().index()).or_default() += remaining;
        }
        let served: Vec<(Voq, u64)> = t.voqs().map(|v| (v.voq, v.backlog)).collect();
        let want: Vec<(Voq, u64)> = voqs.into_iter().collect();
        prop_assert_eq!(&served, &want, "voqs() order and backlogs");
        prop_assert_eq!(t.num_nonempty_voqs(), want.len());

        for host in (0..=201).map(HostId::new) {
            let want = ingress.get(&host.index()).copied().unwrap_or(0);
            prop_assert_eq!(t.ingress_backlog(host), want, "ingress of {}", host);
        }
        prop_assert_eq!(
            t.max_ingress_backlog(),
            ingress.values().copied().max().unwrap_or(0)
        );

        prop_assert_eq!(t.len(), self.model.len());
        for (&id, &(voq, remaining, slot)) in &self.model {
            prop_assert_eq!(t.slot_of(id), Some(slot), "slot of {}", id);
            prop_assert_eq!(
                t.get_at(slot, id).map(|f| (f.voq(), f.remaining())),
                Some((voq, remaining))
            );
        }
        Ok(())
    }
}

proptest! {
    /// Slot-keyed scripts, checked against the model after every step,
    /// on a table sized up front for none, some or all of the hosts.
    #[test]
    fn indexes_match_a_btreemap_model_under_slot_keyed_churn(
        ops in prop::collection::vec(arb_op(), 1..200),
        presized in 0u32..260,
    ) {
        let mut script = Script {
            table: FlowTable::with_hosts(presized),
            model: Model::new(),
            saved: None,
            departed: None,
        };
        for op in ops {
            script.apply(op)?;
        }
    }
}

/// A VOQ flips between empty and non-empty many times while its source
/// keeps another VOQ: its entry leaves and re-enters the source's list
/// at the same rank each time, and the source's list is never returned.
#[test]
fn a_voq_flipping_empty_keeps_its_rank_in_its_sources_list() {
    let voq = |s, d| Voq::new(HostId::new(s), HostId::new(d));
    let mut t = FlowTable::new();
    t.insert(FlowState::new(FlowId::new(0), voq(5, 9), 100))
        .unwrap();
    t.insert(FlowState::new(FlowId::new(1), voq(5, 1), 100))
        .unwrap();
    for round in 0..50u64 {
        let id = FlowId::new(10 + round);
        let slot = t.insert(FlowState::new(id, voq(5, 4), 3)).unwrap();
        let order: Vec<Voq> = t.voqs().map(|v| v.voq).collect();
        assert_eq!(order, [voq(5, 1), voq(5, 4), voq(5, 9)], "round {round}");
        assert!(t.drain_at(slot, id, 3).unwrap().completed.is_some());
        let order: Vec<Voq> = t.voqs().map(|v| v.voq).collect();
        assert_eq!(order, [voq(5, 1), voq(5, 9)], "round {round}");
        assert_eq!(t.ingress_backlog(HostId::new(5)), 200);
    }
    t.check_invariants().unwrap();
}
