//! The QNP rule implementations (Appendix C.3).
//!
//! * [`endpoint`] — head-end rules (Algorithms 1–3) and tail-end rules
//!   (Algorithms 4–6), which differ only in the head-end's management
//!   duties (policing, epochs, FORWARD/COMPLETE origination, Pauli
//!   correction);
//! * [`repeater`] — intermediate-node rules (Algorithms 7–9): swap
//!   scheduling, swap records, entanglement-tracking relay, cutoff
//!   discards and discard records.

pub mod endpoint;
pub mod repeater;

use crate::events::{AppEvent, NetOutput};
use crate::ids::CircuitId;
use crate::messages::Message;
use crate::node::{Circuit, CircuitState, NodeStats};
use crate::routing_table::LinkSide;

/// Route an incoming message to the right rule for this node's role.
///
/// Every rule must *absorb* anomalous inputs — duplicates, stale
/// references, role-inconsistent messages — rather than panic or corrupt
/// state: on a faulty classical plane (drops, duplication, reordering,
/// byte corruption) all of them occur. Absorbed anomalies are counted
/// in [`NodeStats`].
pub(crate) fn dispatch_message(
    circuit: CircuitId,
    c: &mut Circuit,
    from: LinkSide,
    msg: Message,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    match (&mut c.state, msg) {
        (CircuitState::Endpoint(_), Message::Track(t)) => {
            endpoint::track_rule(circuit, c, t, out, stats);
        }
        (CircuitState::Endpoint(_), Message::Expire(e)) => {
            endpoint::expire_rule(c, e, out, stats);
        }
        (CircuitState::Endpoint(_), Message::Forward(f)) => {
            endpoint::on_forward(c, f, out, stats);
        }
        (CircuitState::Endpoint(_), Message::Complete(m)) => {
            endpoint::on_complete(c, m, out, stats);
        }
        (CircuitState::Endpoint(_), Message::TrackAck(a)) => {
            // Consumed at the origin end-node: let the runtime disarm
            // its retransmit timer. Stray acks no-op there.
            out.push(NetOutput::TrackAcked { origin: a.origin });
        }
        (CircuitState::Mid(_), Message::Track(t)) => {
            repeater::track_rule(c, from, t, out, stats);
        }
        (CircuitState::Mid(_), msg @ (Message::Expire(_) | Message::TrackAck(_))) => {
            // Intermediate nodes relay EXPIRE and TRACK_ACK on in the
            // direction of travel, towards the TRACK's origin end-node.
            out.push(NetOutput::Send(from.opposite(), msg));
        }
        (CircuitState::Mid(_), Message::Forward(f)) => {
            repeater::on_forward(c, f, out, stats);
        }
        (CircuitState::Mid(_), Message::Complete(m)) => {
            repeater::on_complete(c, m, out, stats);
        }
    }
}

/// Tear down a circuit at this node: release pairs, stop link requests,
/// notify applications (endpoint only). In-transit pairs are released in
/// ascending correlator order, so the outputs (and the order in which
/// the runtime frees their qubits) are a function of the seed, not of
/// the in-transit map's hasher.
pub(crate) fn teardown(circuit: CircuitId, c: Circuit, out: &mut Vec<NetOutput>) {
    match c.state {
        CircuitState::Endpoint(mut ep) => {
            let mut in_transit: Vec<_> = ep.in_transit.drain().collect();
            in_transit.sort_unstable_by_key(|(correlator, _)| *correlator);
            for (_, it) in in_transit {
                endpoint::release(&mut ep, it, out);
            }
            if ep.link_submitted {
                let (side, label) = endpoint::own_link(&c.entry);
                out.push(NetOutput::LinkStop { side, label });
            }
            out.push(NetOutput::Notify(AppEvent::CircuitDown(circuit)));
        }
        CircuitState::Mid(mid) => {
            for p in mid.sides.iter().flat_map(|s| &s.queue) {
                out.push(NetOutput::CancelCutoff { pair: p.pair });
                out.push(NetOutput::DiscardPair { pair: p.pair });
            }
            if !mid.active_requests.is_empty() {
                if let Some(down) = &c.entry.downstream {
                    out.push(NetOutput::LinkStop {
                        side: LinkSide::Downstream,
                        label: down.label,
                    });
                }
            }
        }
    }
}
