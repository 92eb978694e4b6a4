//! The link layer service interface (paper §3.5).
//!
//! The network layer requires four properties from the link layer, all
//! present here:
//!
//! 1. a link-unique request identifier accompanying every delivered qubit
//!    (**Purpose ID** → [`LinkLabel`]);
//! 2. a per-pair identifier unique within the request (**Entanglement
//!    ID** → [`EntanglementId`]);
//! 3. the Bell state of each delivered pair ([`LinkPair::announced`]);
//! 4. quality-of-service parameters on requests: minimum fidelity and a
//!    scheduling weight ([`LinkRequest`]).
//!
//! A request asks for one continuous stream of pairs, which runs until
//! the network layer stops it: the QNP has the link layer "produce a
//! continuous stream of pairs until the end-nodes signal the completion
//! of the request".

use qn_quantum::bell::BellState;
use qn_sim::NodeId;
use std::fmt;

/// The link-unique label identifying a virtual circuit's traffic on one
/// link (the paper's MPLS-like link-label / the link layer's Purpose ID).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LinkLabel(pub u32);

impl fmt::Display for LinkLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lbl{}", self.0)
    }
}

/// Unique identifier of a link pair: the two node ids plus a link-scoped
/// sequence number (Appendix C.1's three-tuple).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntanglementId {
    /// Lower endpoint of the link.
    pub node_a: NodeId,
    /// Higher endpoint of the link.
    pub node_b: NodeId,
    /// Link-scoped sequence number.
    pub seq: u64,
}

impl fmt::Display for EntanglementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})#{}", self.node_a, self.node_b, self.seq)
    }
}

/// A request to the link layer service: a stream of pairs until stopped.
#[derive(Clone, Copy, Debug)]
pub struct LinkRequest {
    /// The circuit's label on this link (Purpose ID).
    pub label: LinkLabel,
    /// Minimum acceptable fidelity of produced pairs.
    pub min_fidelity: f64,
    /// Scheduling weight — the circuit's link-pair rate (LPR) share.
    /// The link scheduler allocates *time* proportionally to this value.
    pub weight: f64,
}

/// A pair delivered by the link layer (one notification per end in the
/// real system; the simulation fans it out to both ends).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkPair {
    /// Per-pair unique identifier.
    pub id: EntanglementId,
    /// The request this pair belongs to.
    pub label: LinkLabel,
    /// Which Bell state was heralded.
    pub announced: BellState,
    /// The bright-state parameter used for this pair's generation.
    pub alpha: f64,
    /// The link layer's fidelity estimate at creation ("goodness").
    pub goodness: f64,
    /// How many physical attempts the generation took (used to charge
    /// nuclear dephasing on storage qubits at both nodes).
    pub attempts: u64,
}

/// Why a request was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The requested fidelity exceeds what the link can produce.
    FidelityUnattainable,
    /// A request with this label is already active.
    DuplicateLabel,
    /// The weight was not a positive finite number.
    InvalidWeight,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::FidelityUnattainable => "requested fidelity unattainable on this link",
            RejectReason::DuplicateLabel => "label already in use",
            RejectReason::InvalidWeight => "invalid scheduling weight",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entanglement_id_identity() {
        let a = EntanglementId {
            node_a: NodeId(0),
            node_b: NodeId(1),
            seq: 7,
        };
        let b = EntanglementId { seq: 8, ..a };
        assert_ne!(a, b);
        assert_eq!(format!("{a}"), "(n0,n1)#7");
    }

    #[test]
    fn labels_are_ordered() {
        assert!(LinkLabel(1) < LinkLabel(2));
        assert_eq!(format!("{}", LinkLabel(3)), "lbl3");
    }
}
