//! Inputs and outputs of the QNP node state machine.
//!
//! The node core is sans-IO: it consumes [`NetInput`]s and emits
//! [`NetOutput`] effects. The simulation runtime (or a unit test) is
//! responsible for turning effects into scheduled events, physical
//! operations and message transmissions.

use crate::ids::{Address, CircuitId, Correlator, RequestId};
use crate::messages::Message;
use crate::request::UserRequest;
use crate::routing_table::{LinkSide, RoutingEntry};
use qn_link::LinkLabel;
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_sim::SimDuration;

/// A link-layer pair as seen by the network layer at one node.
#[derive(Clone, Copy, Debug)]
pub struct PairInfo {
    /// The pair's correlator.
    pub pair: Correlator,
    /// The Bell state announced by the link layer.
    pub announced: BellState,
}

/// Everything that can happen to a QNP node.
#[derive(Clone, Debug)]
pub enum NetInput {
    /// Signalling installed a circuit through this node.
    InstallCircuit {
        /// The routing entry to install.
        entry: RoutingEntry,
    },
    /// Signalling tore the circuit down (e.g. transport liveness failed).
    TeardownCircuit {
        /// The circuit to remove.
        circuit: CircuitId,
    },
    /// An application submitted a request (head-end only; the paper has
    /// the tail-end forward user requests to the head-end).
    UserRequest {
        /// Circuit to serve the request.
        circuit: CircuitId,
        /// The request.
        request: UserRequest,
    },
    /// An application cancelled a (typically rate-based) request.
    CancelRequest {
        /// The circuit carrying the request.
        circuit: CircuitId,
        /// The request to cancel.
        request: RequestId,
    },
    /// The link layer delivered a pair for this circuit.
    LinkPair {
        /// The circuit the pair's label maps to.
        circuit: CircuitId,
        /// Which of the node's links produced it.
        side: LinkSide,
        /// The pair.
        info: PairInfo,
    },
    /// A control message arrived from an adjacent node on the circuit.
    Message {
        /// The side of the circuit the sender is on.
        from: LinkSide,
        /// The message.
        msg: Message,
    },
    /// The runtime finished a swap this node requested via
    /// [`NetOutput::StartSwap`].
    SwapCompleted {
        /// The circuit of the swap.
        circuit: CircuitId,
        /// Correlator of the consumed upstream pair.
        up: Correlator,
        /// Correlator of the consumed downstream pair.
        down: Correlator,
        /// The announced two-bit outcome.
        outcome: BellState,
    },
    /// The runtime finished a measurement requested via
    /// [`NetOutput::MeasureNow`].
    MeasureCompleted {
        /// The circuit of the measured pair.
        circuit: CircuitId,
        /// Correlator of the measured pair.
        correlator: Correlator,
        /// The (readout-noisy) outcome.
        outcome: bool,
    },
    /// A runtime-armed expiry fired for a pair an end-node is still
    /// holding unconfirmed (no TRACK/EXPIRE arrived). Only armed when
    /// the classical plane is faulty — on a reliable plane every chain
    /// resolves via TRACK or EXPIRE and end-nodes never need timers
    /// (§4.1 "Cutoff time").
    TrackTimeout {
        /// The circuit of the unconfirmed pair.
        circuit: CircuitId,
        /// The pair's correlator at this end-node.
        correlator: Correlator,
    },
    /// The runtime reclaimed a link qubit whose pair announcement never
    /// arrived (a PAIR_READY lost on a faulty wire): the correlator will
    /// never be delivered at this node. The QNP marks it expired so any
    /// held or future TRACK referencing it bounces an EXPIRE back to the
    /// chain's origin instead of waiting for the origin's own timeout.
    LinkOrphaned {
        /// The circuit the lost pair belonged to.
        circuit: CircuitId,
        /// Which of the node's links produced it.
        side: LinkSide,
        /// The never-announced pair's correlator.
        correlator: Correlator,
    },
    /// A cutoff timer set via [`NetOutput::SetCutoff`] fired.
    CutoffExpired {
        /// The circuit of the expired pair.
        circuit: CircuitId,
        /// Which link the pair belongs to.
        side: LinkSide,
        /// The expired pair's correlator.
        correlator: Correlator,
    },
}

impl NetInput {
    /// The circuit this input concerns.
    pub fn circuit(&self) -> CircuitId {
        match self {
            NetInput::InstallCircuit { entry } => entry.circuit,
            NetInput::TeardownCircuit { circuit }
            | NetInput::UserRequest { circuit, .. }
            | NetInput::CancelRequest { circuit, .. }
            | NetInput::LinkPair { circuit, .. }
            | NetInput::SwapCompleted { circuit, .. }
            | NetInput::MeasureCompleted { circuit, .. }
            | NetInput::TrackTimeout { circuit, .. }
            | NetInput::LinkOrphaned { circuit, .. }
            | NetInput::CutoffExpired { circuit, .. } => *circuit,
            NetInput::Message { msg, .. } => msg.circuit(),
        }
    }
}

/// What a delivery hands to the application.
#[derive(Clone, Copy, Debug)]
pub enum DeliveryKind {
    /// A live qubit confirmed by tracking (KEEP requests).
    Qubit {
        /// The delivered pair end.
        pair: Correlator,
        /// The pair's Bell state (post-correction for final-state
        /// requests).
        state: BellState,
    },
    /// A live qubit delivered before tracking confirmation (EARLY
    /// requests); the application owns error handling from here on.
    EarlyQubit {
        /// The delivered pair end.
        pair: Correlator,
        /// The link-level announced state at delivery time (the
        /// end-to-end state arrives later as [`DeliveryKind::EarlyTracking`]).
        state: BellState,
    },
    /// Tracking information for a qubit already delivered early.
    EarlyTracking {
        /// The previously delivered pair.
        pair: Correlator,
        /// The confirmed Bell state.
        state: BellState,
    },
    /// A measurement outcome (MEASURE requests), withheld until tracking
    /// confirmed the pair.
    Measurement {
        /// The reported outcome bit.
        outcome: bool,
        /// The measurement basis.
        basis: Pauli,
        /// The pair's tracked Bell state (needed to interpret outcomes).
        state: BellState,
    },
}

/// The network's *entangled pair identifier* (paper §3.2): the pair of
/// origin correlators of the two tracking messages that confirmed the
/// chain. Both end-nodes compute the identical value — the head knows its
/// own link-pair correlator plus the tail's from the received TRACK, and
/// vice versa — so applications can match deliveries across the network
/// without any extra coordination.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChainId {
    /// The head-end's link-pair correlator for this chain.
    pub head: Correlator,
    /// The tail-end's link-pair correlator for this chain.
    pub tail: Correlator,
}

/// A delivery to a local application end-point.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// The request being served.
    pub request: RequestId,
    /// Delivery sequence number within the request (per end).
    pub sequence: u64,
    /// The end-to-end entangled pair identifier (equal at both ends).
    /// `None` only for unconfirmed EARLY qubit deliveries, whose tracking
    /// information has not arrived yet.
    pub chain: Option<ChainId>,
    /// The local end-point address.
    pub address: Address,
    /// The payload.
    pub kind: DeliveryKind,
}

/// Application-visible request lifecycle notifications.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AppEvent {
    /// The request was admitted.
    RequestAccepted(RequestId),
    /// The request was delayed by the shaper.
    RequestShaped(RequestId),
    /// The request was rejected by policing.
    RequestRejected(RequestId, &'static str),
    /// All pairs of the request have been delivered (head-end view).
    RequestCompleted(RequestId),
    /// An early-delivered pair turned out to be broken; the application
    /// owns the qubit and must handle it (paper §4.1 "Early delivery").
    EarlyPairExpired {
        /// The affected request.
        request: RequestId,
        /// The affected pair.
        pair: Correlator,
    },
    /// The circuit was torn down; outstanding requests aborted.
    CircuitDown(CircuitId),
}

/// Effects the node asks the runtime to perform.
#[derive(Clone, Debug)]
pub enum NetOutput {
    /// Send a message to the neighbour on this side of the circuit.
    Send(LinkSide, Message),
    /// Submit a continuous link-layer request on one of this node's links.
    LinkSubmit {
        /// Which link.
        side: LinkSide,
        /// The circuit's label on that link.
        label: LinkLabel,
        /// Minimum link fidelity from the routing entry.
        min_fidelity: f64,
        /// Scheduling weight (LPR share).
        weight: f64,
    },
    /// Update the scheduling weight of the circuit's link request.
    LinkSetWeight {
        /// Which link.
        side: LinkSide,
        /// The label whose weight changes.
        label: LinkLabel,
        /// New weight.
        weight: f64,
    },
    /// Stop the circuit's link request.
    LinkStop {
        /// Which link.
        side: LinkSide,
        /// The label to stop.
        label: LinkLabel,
    },
    /// Perform an entanglement swap of the two pairs (report back with
    /// [`NetInput::SwapCompleted`]).
    StartSwap {
        /// The upstream-link pair.
        up: Correlator,
        /// The downstream-link pair.
        down: Correlator,
    },
    /// Arm a cutoff timer for a pair held at this node.
    SetCutoff {
        /// The pair to watch.
        pair: Correlator,
        /// Which link it belongs to.
        side: LinkSide,
        /// Fire after this long: always finite, since a circuit without
        /// a cutoff arms no timer.
        after: SimDuration,
    },
    /// Disarm the pair's cutoff timer (it is about to be consumed).
    CancelCutoff {
        /// The pair whose timer to cancel.
        pair: Correlator,
    },
    /// Free the pair's qubits (cutoff discard, cross-check failure,
    /// expiry notification).
    DiscardPair {
        /// The pair to discard.
        pair: Correlator,
    },
    /// Measure the local end of the pair now (MEASURE requests); report
    /// back with [`NetInput::MeasureCompleted`].
    MeasureNow {
        /// The pair to measure.
        pair: Correlator,
        /// Measurement basis.
        basis: Pauli,
    },
    /// Apply a Pauli correction to the local end of the pair (final-state
    /// requests at the head-end).
    ApplyCorrection {
        /// The pair to correct.
        pair: Correlator,
        /// The Pauli to apply.
        pauli: Pauli,
    },
    /// Hand a delivery to the local application.
    Deliver(Delivery),
    /// Notify the application of a request lifecycle event.
    Notify(AppEvent),
    /// A TRACK_ACK for a chain this end-node originated reached it: the
    /// runtime may disarm any retransmit timer keyed on `origin`.
    /// Emitted only on retransmitting runtimes; a stray ack (corrupted
    /// or already-satisfied) is a silent no-op.
    TrackAcked {
        /// Correlator of the origin link-pair from the acknowledged TRACK.
        origin: Correlator,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_sim::NodeId;

    #[test]
    fn input_circuit_accessor() {
        let input = NetInput::CutoffExpired {
            circuit: CircuitId(7),
            side: LinkSide::Upstream,
            correlator: Correlator {
                node_a: NodeId(0),
                node_b: NodeId(1),
                seq: 0,
            },
        };
        assert_eq!(input.circuit(), CircuitId(7));
    }
}
