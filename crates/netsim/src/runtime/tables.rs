//! The runtime's dense lookup tables: per-node correlator rows and the
//! pair store's back-references. They own no event.

use qn_hardware::pairs::PairId;
use qn_net::ids::Correlator;
use qn_sim::NodeId;

/// Dense per-node correlator table: the runtime's `(NodeId, Correlator)
/// -> T` maps, stored as one short row per node. A node's row holds one
/// entry per qubit it currently has entangled — bounded by its memory
/// size, not by circuit count — so lookups are a short linear scan and
/// idle circuits cost nothing.
pub(super) struct NodeTable<T> {
    pub(super) rows: Vec<Vec<(Correlator, T)>>,
}

impl<T: Copy> NodeTable<T> {
    pub(super) fn new(n_nodes: usize) -> Self {
        NodeTable {
            rows: (0..n_nodes).map(|_| Vec::new()).collect(),
        }
    }

    /// Insert or overwrite the entry for `(node, c)`.
    pub(super) fn insert(&mut self, node: NodeId, c: Correlator, value: T) {
        let row = &mut self.rows[node.0 as usize];
        match row.iter_mut().find(|(k, _)| *k == c) {
            Some(entry) => entry.1 = value,
            None => row.push((c, value)),
        }
    }

    pub(super) fn get(&self, node: NodeId, c: Correlator) -> Option<T> {
        self.rows[node.0 as usize]
            .iter()
            .find(|(k, _)| *k == c)
            .map(|(_, v)| *v)
    }

    pub(super) fn remove(&mut self, node: NodeId, c: Correlator) -> Option<T> {
        let row = &mut self.rows[node.0 as usize];
        let i = row.iter().position(|(k, _)| *k == c)?;
        Some(row.swap_remove(i).1)
    }

    /// Take the whole row of `node` (a crashed node loses every entry
    /// at once).
    pub(super) fn drain_row(&mut self, node: NodeId) -> Vec<(Correlator, T)> {
        std::mem::take(&mut self.rows[node.0 as usize])
    }

    /// Total entries across all rows (leak introspection).
    pub(super) fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Reverse references `pair -> (node, correlator)` views, stored
/// slab-parallel to the [`PairStore`](qn_hardware::pairs::PairStore):
/// slot `i` belongs to the pair whose id currently occupies slab slot
/// `i` (the full id bits are kept for the generation check). Vacated
/// slots keep their `Vec` capacity for the slot's next occupant, so
/// steady-state churn does not allocate; iteration is slot-ordered and
/// thus deterministic.
pub(super) struct PairRefs {
    slots: Vec<(u64, Vec<(NodeId, Correlator)>)>,
}

/// Slot id marking a vacant [`PairRefs`] entry.
const REFS_VACANT: u64 = u64::MAX;

impl PairRefs {
    pub(super) fn new() -> Self {
        PairRefs { slots: Vec::new() }
    }

    fn slot_mut(&mut self, pid: PairId) -> &mut (u64, Vec<(NodeId, Correlator)>) {
        let i = pid.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || (REFS_VACANT, Vec::new()));
        }
        &mut self.slots[i]
    }

    /// Register a fresh two-ended pair, reusing the slot's capacity.
    pub(super) fn insert_pair(
        &mut self,
        pid: PairId,
        a: (NodeId, Correlator),
        b: (NodeId, Correlator),
    ) {
        let slot = self.slot_mut(pid);
        slot.0 = pid.0;
        slot.1.clear();
        slot.1.push(a);
        slot.1.push(b);
    }

    /// Register a pair with an explicit reference list (swap re-pointing).
    pub(super) fn insert(&mut self, pid: PairId, ends: Vec<(NodeId, Correlator)>) {
        let slot = self.slot_mut(pid);
        slot.0 = pid.0;
        slot.1 = ends;
    }

    pub(super) fn get_mut(&mut self, pid: PairId) -> Option<&mut Vec<(NodeId, Correlator)>> {
        let slot = self.slots.get_mut(pid.index())?;
        (slot.0 == pid.0).then_some(&mut slot.1)
    }

    /// Vacate the pair's slot, returning its references (the slot keeps
    /// no capacity — the caller usually re-inserts the `Vec` elsewhere).
    pub(super) fn take(&mut self, pid: PairId) -> Option<Vec<(NodeId, Correlator)>> {
        let slot = self.slots.get_mut(pid.index())?;
        if slot.0 != pid.0 {
            return None;
        }
        slot.0 = REFS_VACANT;
        Some(std::mem::take(&mut slot.1))
    }

    /// Vacate the pair's slot in place (keeps the `Vec` capacity for the
    /// slot's next occupant).
    pub(super) fn remove(&mut self, pid: PairId) {
        if let Some(slot) = self.slots.get_mut(pid.index()) {
            if slot.0 == pid.0 {
                slot.0 = REFS_VACANT;
                slot.1.clear();
            }
        }
    }

    /// Iterate live entries in slot order (deterministic by
    /// construction, unlike the hash map this replaced).
    pub(super) fn iter(&self) -> impl Iterator<Item = (PairId, &[(NodeId, Correlator)])> {
        self.slots
            .iter()
            .filter(|(id, _)| *id != REFS_VACANT)
            .map(|(id, ends)| (PairId(*id), ends.as_slice()))
    }
}
