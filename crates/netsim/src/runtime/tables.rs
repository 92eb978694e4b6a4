//! The runtime's dense lookup tables: one short correlator row per
//! node. They own no event.

use qn_hardware::pairs::PairId;
use qn_net::ids::Correlator;
use qn_sim::NodeId;

/// One pair end a node holds: the physical pair now holding the qubit,
/// and whether the end's PAIR_READY has reached the node's QNP (wire
/// mode only; a duplicated announcement finds it set and is dropped).
#[derive(Clone, Copy)]
pub(super) struct HeldEnd {
    pub(super) pair: PairId,
    pub(super) link_delivered: bool,
}

/// Dense per-node correlator table: the runtime's `(NodeId, Correlator)
/// -> T` maps, stored as one short row per node. A node's row holds one
/// entry per qubit it currently has entangled — bounded by its memory
/// size, not by circuit count — so lookups are a short linear scan and
/// idle circuits cost nothing.
pub(super) struct NodeTable<T> {
    rows: Vec<Vec<(Correlator, T)>>,
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

    pub(super) fn get_mut(&mut self, node: NodeId, c: Correlator) -> Option<&mut T> {
        self.rows[node.0 as usize]
            .iter_mut()
            .find(|(k, _)| *k == c)
            .map(|(_, v)| v)
    }

    /// Every entry of `node`'s row, in row order.
    pub(super) fn row(&self, node: NodeId) -> &[(Correlator, T)] {
        &self.rows[node.0 as usize]
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

    /// The correlator of the first entry of `node`'s row whose value
    /// `matches`, if any.
    pub(super) fn key_of(&self, node: NodeId, matches: impl Fn(&T) -> bool) -> Option<Correlator> {
        self.rows[node.0 as usize]
            .iter()
            .find(|(_, v)| matches(v))
            .map(|(k, _)| *k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corr(seq: u64) -> Correlator {
        Correlator {
            node_a: NodeId(0),
            node_b: NodeId(1),
            seq,
        }
    }

    #[test]
    fn key_of_finds_the_entry_holding_a_value() {
        let mut t: NodeTable<u32> = NodeTable::new(2);
        t.insert(NodeId(1), corr(4), 7);
        assert_eq!(t.key_of(NodeId(1), |v| *v == 7), Some(corr(4)));
        assert_eq!(t.row(NodeId(1)), &[(corr(4), 7)][..]);
    }

    #[test]
    fn key_of_misses_a_value_held_elsewhere_or_gone() {
        let mut t: NodeTable<u32> = NodeTable::new(2);
        t.insert(NodeId(0), corr(4), 7);
        assert_eq!(t.key_of(NodeId(1), |v| *v == 7), None);
        assert_eq!(t.key_of(NodeId(0), |v| *v == 8), None);
        t.remove(NodeId(0), corr(4));
        assert_eq!(t.key_of(NodeId(0), |v| *v == 7), None);
        assert!(t.row(NodeId(0)).is_empty());
    }

    #[test]
    fn a_row_holding_ends_of_two_pairs_tells_them_apart() {
        let mut t: NodeTable<u32> = NodeTable::new(1);
        t.insert(NodeId(0), corr(1), 10);
        t.insert(NodeId(0), corr(2), 20);
        assert_eq!(t.key_of(NodeId(0), |v| *v == 10), Some(corr(1)));
        assert_eq!(t.key_of(NodeId(0), |v| *v == 20), Some(corr(2)));
        // Re-pointing one end leaves the other pair's end in place.
        t.insert(NodeId(0), corr(1), 30);
        assert_eq!(t.key_of(NodeId(0), |v| *v == 10), None);
        assert_eq!(t.key_of(NodeId(0), |v| *v == 30), Some(corr(1)));
        assert_eq!(t.row(NodeId(0)), &[(corr(1), 30), (corr(2), 20)][..]);
    }
}
