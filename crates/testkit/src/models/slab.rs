//! Reference model of the generational pair slab.
//!
//! `qn_hardware::PairStore` keeps pairs in a dense slab: handles pack
//! `(slot index, generation)`, vacated slots are reused LIFO with a
//! bumped generation, and the decoherence sweep streams the slots in
//! order. The protocols rely on three behavioural guarantees — a
//! handle is never re-issued (stale handles resolve to `None`, not to
//! the slot's new occupant), live handles always resolve to their own
//! pair, and churn never corrupts the live count. The model below is
//! the obviously-correct version: a plain map from handle bits to pair
//! facts, plus the set of every handle ever issued.

use crate::ModelSpec;
use proptest::prelude::*;
use qn_hardware::device::QubitId;
use qn_hardware::pairs::{PairId, PairStore};
use qn_quantum::bell::BellState;
use qn_quantum::pairstate::{BellDiagonal, PairState, StateRep};
use qn_sim::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;

/// One operation of the slab interface. Slot arguments index into the
/// model's issued-handle list (modulo its length), so shrunk
/// counterexamples stay valid as earlier operations disappear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlabOp {
    /// Create a pair between `node % 4` and `(node % 4) + 1` announced
    /// in the `announced % 4`-th Bell state.
    Create {
        /// Selects the node pair.
        node: u32,
        /// Selects the announced Bell state.
        announced: usize,
    },
    /// Discard the `slot % issued`-th handle ever issued (live or
    /// stale — stale discards must be `None` no-ops).
    Discard {
        /// Selects the handle.
        slot: usize,
    },
    /// Resolve the `slot % issued`-th handle and compare every
    /// observable fact (liveness, announced state, creation time, end
    /// nodes).
    Get {
        /// Selects the handle.
        slot: usize,
    },
    /// Advance the whole store by `dt_ms` and compare the live count
    /// (the sweep must touch noise clocks, never liveness).
    AdvanceAll {
        /// Sweep step in milliseconds.
        dt_ms: u64,
    },
}

/// What the model remembers about one issued handle.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelPair {
    /// Announced Bell state.
    pub announced: BellState,
    /// Creation time.
    pub created: SimTime,
    /// End nodes, in order.
    pub nodes: [NodeId; 2],
}

/// The reference: handle bits → pair facts for live pairs, plus every
/// handle ever issued (for stale-handle probes).
#[derive(Default)]
pub struct SlabModel {
    /// Live pairs by handle bits.
    pub live: HashMap<u64, ModelPair>,
    /// Every handle ever issued, in issue order.
    pub issued: Vec<u64>,
    /// The model clock (monotone; `AdvanceAll` moves it).
    pub now_ps: u64,
}

/// [`ModelSpec`] for the generational slab behind [`PairStore`].
pub struct SlabSpec;

impl ModelSpec for SlabSpec {
    type Op = SlabOp;
    type Model = SlabModel;
    type System = PairStore;

    fn new_model(&self) -> SlabModel {
        SlabModel::default()
    }

    fn new_system(&self) -> PairStore {
        PairStore::new(StateRep::Bell)
    }

    fn op_strategy(&self) -> BoxedStrategy<SlabOp> {
        prop_oneof![
            (0u32..4, 0usize..4).prop_map(|(node, announced)| SlabOp::Create { node, announced }),
            (0usize..64).prop_map(|slot| SlabOp::Discard { slot }),
            (0usize..64).prop_map(|slot| SlabOp::Get { slot }),
            (1u64..50).prop_map(|dt_ms| SlabOp::AdvanceAll { dt_ms }),
        ]
        .boxed()
    }

    fn precondition(&self, model: &SlabModel, op: &SlabOp) -> bool {
        match op {
            SlabOp::Discard { .. } | SlabOp::Get { .. } => !model.issued.is_empty(),
            _ => true,
        }
    }

    fn apply(
        &self,
        model: &mut SlabModel,
        system: &mut PairStore,
        op: &SlabOp,
    ) -> Result<(), String> {
        let now = SimTime::from_ps(model.now_ps);
        match *op {
            SlabOp::Create { node, announced } => {
                let announced = BellState::from_index(announced % 4);
                let nodes = [NodeId(node % 4), NodeId(node % 4 + 1)];
                let id = system.create_pair(
                    now,
                    PairState::Bell(BellDiagonal::from_bell_state(announced)),
                    announced,
                    [
                        (nodes[0], QubitId(0), 3600.0, 60.0),
                        (nodes[1], QubitId(0), 3600.0, 60.0),
                    ],
                );
                if model.issued.contains(&id.0) {
                    return Err(format!(
                        "handle {:#x} re-issued (slot {} generation {}) — stale \
                         handles would alias the new occupant",
                        id.0,
                        id.index(),
                        id.generation()
                    ));
                }
                model.issued.push(id.0);
                model.live.insert(
                    id.0,
                    ModelPair {
                        announced,
                        created: now,
                        nodes,
                    },
                );
                Ok(())
            }
            SlabOp::Discard { slot } => {
                let bits = model.issued[slot % model.issued.len()];
                let expected = model.live.remove(&bits);
                let got = system.discard(PairId(bits));
                match (&expected, &got) {
                    (Some(m), Some(ends)) => {
                        let got_nodes = [ends[0].0, ends[1].0];
                        if got_nodes != m.nodes {
                            return Err(format!(
                                "discard of {bits:#x}: freed ends {got_nodes:?}, model \
                                 expected {:?}",
                                m.nodes
                            ));
                        }
                        Ok(())
                    }
                    (None, None) => Ok(()),
                    _ => Err(format!(
                        "discard of {bits:#x}: system {}, model {}",
                        if got.is_some() {
                            "freed a pair"
                        } else {
                            "no-op"
                        },
                        if expected.is_some() {
                            "expected a live pair"
                        } else {
                            "expected a stale no-op"
                        }
                    )),
                }
            }
            SlabOp::Get { slot } => {
                let bits = model.issued[slot % model.issued.len()];
                let expected = model.live.get(&bits);
                let got = system.get(PairId(bits));
                match (expected, got) {
                    (Some(m), Some(view)) => {
                        if view.announced != m.announced
                            || view.created != m.created
                            || [view.ends()[0].node, view.ends()[1].node] != m.nodes
                        {
                            return Err(format!(
                                "get of {bits:#x}: view ({:?}, {:?}) vs model {m:?}",
                                view.announced, view.created
                            ));
                        }
                        Ok(())
                    }
                    (None, None) => Ok(()),
                    (e, g) => Err(format!(
                        "get of {bits:#x}: system live={}, model live={}",
                        g.is_some(),
                        e.is_some()
                    )),
                }
            }
            SlabOp::AdvanceAll { dt_ms } => {
                model.now_ps += SimDuration::from_millis(dt_ms).as_ps();
                system.advance_all(SimTime::from_ps(model.now_ps));
                Ok(())
            }
        }
    }

    fn invariants(&self, model: &SlabModel, system: &PairStore) -> Result<(), String> {
        if system.len() != model.live.len() {
            return Err(format!(
                "live count: system {} vs model {}",
                system.len(),
                model.live.len()
            ));
        }
        if system.is_empty() != model.live.is_empty() {
            return Err("is_empty disagrees with len".to_string());
        }
        if system.slot_count() > model.issued.len() {
            return Err(format!(
                "slot count {} exceeds handles ever issued {} — slots must only \
                 come from creates",
                system.slot_count(),
                model.issued.len()
            ));
        }
        // Every live handle the model knows must come back from the
        // store's slot-ordered iteration, exactly once.
        let mut seen = 0usize;
        for view in system.iter() {
            let m = model
                .live
                .get(&view.id.0)
                .ok_or_else(|| format!("iter yielded unknown handle {:#x}", view.id.0))?;
            if view.announced != m.announced {
                return Err(format!("iter handle {:#x} announced mismatch", view.id.0));
            }
            seen += 1;
        }
        if seen != model.live.len() {
            return Err(format!(
                "iter yielded {seen} pairs, model has {}",
                model.live.len()
            ));
        }
        Ok(())
    }
}
