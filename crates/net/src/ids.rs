//! Identifiers of the quantum network protocol (Appendix C.1).

use qn_link::EntanglementId;
use qn_sim::NodeId;
use std::fmt;

/// Opaque circuit identifier allocated by the signalling protocol. The
/// QNP only uses it to associate messages with circuits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CircuitId(pub u64);

impl fmt::Display for CircuitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

/// Identifies a request between a pair of addresses; assigned by the
/// application. Duplicates on the same circuit are rejected.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// A communication end-point: locator (node) + identifier (port-like),
/// the paper's locator/identifier addressing scheme.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Address {
    /// The node (locator).
    pub node: NodeId,
    /// End-point within the node (identifier).
    pub identifier: u32,
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.identifier)
    }
}

/// The link-pair correlator (Appendix C.1): the link layer's entanglement
/// identifier, meaningful to the pair of nodes sharing the link. It is a
/// held pair end's only name at the QNP boundary: every input and output
/// that concerns a pair names it by the correlator of its link pair at
/// that node, and the runtime resolves it to the physical pair.
pub type Correlator = EntanglementId;

/// An epoch: a version of the set of active requests on a circuit
/// (activated through TRACK messages; see paper §4.1 "Aggregation").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The successor epoch.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", CircuitId(3)), "vc3");
        assert_eq!(format!("{}", RequestId(9)), "req9");
        assert_eq!(
            format!(
                "{}",
                Address {
                    node: NodeId(2),
                    identifier: 5
                }
            ),
            "n2:5"
        );
        assert_eq!(format!("{}", Epoch(4)), "e4");
    }

    #[test]
    fn epoch_advances() {
        assert_eq!(Epoch(0).next(), Epoch(1));
        assert!(Epoch(1) > Epoch(0));
    }
}
