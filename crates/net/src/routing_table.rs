//! Per-circuit routing state installed by the signalling protocol
//! (paper §4.1 "Routing table").
//!
//! The entry holds exactly the seven fields the paper lists — next
//! downstream/upstream node, the two link-labels, the downstream link
//! minimum fidelity, the downstream max-LPR, and the circuit max-EER —
//! plus the cutoff value, which the paper has the routing protocol choose
//! and the signalling protocol distribute.

use crate::ids::CircuitId;
use qn_link::LinkLabel;
use qn_sim::{NodeId, SimDuration};

/// Which adjacent link of a node a pair, command or message refers to:
/// the one direction type of the protocol and the runtime. The
/// discriminant indexes per-side state (`[_; 2]`, upstream first).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkSide {
    /// The link towards the head-end.
    Upstream = 0,
    /// The link towards the tail-end.
    Downstream = 1,
}

impl LinkSide {
    /// Both sides, upstream first.
    pub const BOTH: [LinkSide; 2] = [LinkSide::Upstream, LinkSide::Downstream];

    /// The other side.
    pub fn opposite(self) -> LinkSide {
        match self {
            LinkSide::Upstream => LinkSide::Downstream,
            LinkSide::Downstream => LinkSide::Upstream,
        }
    }
}

/// The upstream-facing half of a routing entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UpstreamHop {
    /// The next node towards the head-end.
    pub node: NodeId,
    /// The circuit's label on the upstream link.
    pub label: LinkLabel,
}

/// The downstream-facing half of a routing entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DownstreamHop {
    /// The next node towards the tail-end.
    pub node: NodeId,
    /// The circuit's label on the downstream link.
    pub label: LinkLabel,
    /// Minimum fidelity the link must produce for this circuit.
    pub min_fidelity: f64,
    /// Maximum link-pair rate allocated to this circuit on the link,
    /// pairs/s.
    pub max_lpr: f64,
}

/// A node's routing-table entry for one virtual circuit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutingEntry {
    /// The circuit this entry belongs to.
    pub circuit: CircuitId,
    /// Upstream hop; `None` at the head-end.
    pub upstream: Option<UpstreamHop>,
    /// Downstream hop; `None` at the tail-end.
    pub downstream: Option<DownstreamHop>,
    /// The circuit's allocated maximum end-to-end rate, pairs/s.
    pub max_eer: f64,
    /// Cutoff deadline for unswapped pairs held at this node
    /// (intermediate nodes only; end-nodes never run cutoff timers).
    pub cutoff: SimDuration,
}

/// A node's role on a circuit, derived from its routing entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Upstream end of the circuit: originates FORWARD/COMPLETE, polices
    /// and shapes, advances epochs, applies Pauli corrections.
    HeadEnd,
    /// Downstream end of the circuit.
    TailEnd,
    /// Entanglement-swapping repeater.
    Intermediate,
}

impl RoutingEntry {
    /// Derive the node's role from which hops are present.
    pub fn role(&self) -> Role {
        match (&self.upstream, &self.downstream) {
            (None, Some(_)) => Role::HeadEnd,
            (Some(_), None) => Role::TailEnd,
            (Some(_), Some(_)) => Role::Intermediate,
            (None, None) => panic!("routing entry with no hops"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down() -> DownstreamHop {
        DownstreamHop {
            node: NodeId(1),
            label: LinkLabel(1),
            min_fidelity: 0.95,
            max_lpr: 50.0,
        }
    }

    fn up() -> UpstreamHop {
        UpstreamHop {
            node: NodeId(0),
            label: LinkLabel(1),
        }
    }

    #[test]
    fn role_derivation() {
        let head = RoutingEntry {
            circuit: CircuitId(1),
            upstream: None,
            downstream: Some(down()),
            max_eer: 10.0,
            cutoff: SimDuration::from_millis(100),
        };
        assert_eq!(head.role(), Role::HeadEnd);
        let tail = RoutingEntry {
            upstream: Some(up()),
            downstream: None,
            ..head
        };
        assert_eq!(tail.role(), Role::TailEnd);
        let mid = RoutingEntry {
            upstream: Some(up()),
            downstream: Some(down()),
            ..head
        };
        assert_eq!(mid.role(), Role::Intermediate);
    }

    #[test]
    #[should_panic]
    fn entry_without_hops_is_invalid() {
        let bad = RoutingEntry {
            circuit: CircuitId(1),
            upstream: None,
            downstream: None,
            max_eer: 0.0,
            cutoff: SimDuration::ZERO,
        };
        let _ = bad.role();
    }

    #[test]
    fn side_opposite() {
        assert_eq!(LinkSide::Upstream.opposite(), LinkSide::Downstream);
        assert_eq!(LinkSide::Downstream.opposite(), LinkSide::Upstream);
    }
}
