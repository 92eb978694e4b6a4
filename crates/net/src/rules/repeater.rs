//! Intermediate-node (repeater) rules: Algorithms 7–9 of Appendix C.
//!
//! The repeater's job: swap pairs "as soon as pairs with labels for the
//! same VC are available on the upstream and downstream links", log swap
//! records, relay TRACK messages (rewriting their `link` correlator and
//! folding in the swap outcome), and discard pairs whose cutoff timer
//! pops — logging discard records so late TRACKs convert into EXPIREs.
//!
//! One deliberate deviation from the paper's pseudocode: Algorithm 7 says
//! "Clear **all** upstream_expire_record contents" after forwarding a
//! TRACK. Clearing all records would break chains whose discard record is
//! still waiting for its own TRACK, so we clear only the record that was
//! consumed (a strictly safer reading of the same mechanism).

use crate::events::{NetOutput, PairInfo};
use crate::ids::{Correlator, PairHandle};
use crate::messages::{Complete, Expire, Forward, Message, Track};
use crate::node::{Circuit, CircuitState, MidState, NodeStats, PendingPair, SwapRecord};
use crate::policing::link_weight;
use crate::routing_table::LinkSide;
use qn_quantum::bell::BellState;

fn mid(c: &mut Circuit) -> &mut MidState {
    match &mut c.state {
        CircuitState::Mid(m) => m,
        CircuitState::Endpoint(_) => panic!("repeater rule on endpoint"),
    }
}

/// Start a swap if both queues have a pair and no swap is running
/// (repeaters have one quantum processor).
fn try_start_swap(m: &mut MidState, out: &mut Vec<NetOutput>) {
    if m.swapping.is_some() || m.up_queue.is_empty() || m.down_queue.is_empty() {
        return;
    }
    // Oldest unexpired pairs first (paper §5 scheduling policy).
    let up = m.up_queue.pop_front().expect("checked");
    let down = m.down_queue.pop_front().expect("checked");
    out.push(NetOutput::CancelCutoff { pair: up.pair });
    out.push(NetOutput::CancelCutoff { pair: down.pair });
    out.push(NetOutput::StartSwap {
        up: up.pair,
        down: down.pair,
    });
    m.swapping = Some((up, down));
}

/// LINK rule (Algorithm 7's entry condition): queue the fresh pair, arm
/// its cutoff, and swap if a partner is available.
pub(crate) fn link_rule(c: &mut Circuit, side: LinkSide, info: PairInfo, out: &mut Vec<NetOutput>) {
    let cutoff = c.entry.cutoff;
    let m = mid(c);
    let pending = PendingPair {
        pair: info.pair,
        announced: info.announced,
    };
    if !cutoff.is_infinite() {
        out.push(NetOutput::SetCutoff {
            pair: info.pair,
            side,
            after: cutoff,
        });
    }
    match side {
        LinkSide::Upstream => m.up_queue.push_back(pending),
        LinkSide::Downstream => m.down_queue.push_back(pending),
    }
    try_start_swap(m, out);
}

/// Swap completion (Algorithm 7 body): log records or forward waiting
/// TRACKs in both directions, then look for more work.
pub(crate) fn swap_completed(
    c: &mut Circuit,
    up: Correlator,
    down: Correlator,
    outcome: BellState,
    new_handle: PairHandle,
    out: &mut Vec<NetOutput>,
) {
    let m = mid(c);
    let Some((up_pair, down_pair)) = m.swapping.take() else {
        debug_assert!(false, "swap completion without in-flight swap");
        return;
    };
    debug_assert_eq!(up_pair.pair.correlator, up);
    debug_assert_eq!(down_pair.pair.correlator, down);
    let _ = new_handle; // the joined pair's ends live at other nodes

    // Downstream-travelling TRACK waiting on the upstream pair?
    if let Some(mut track) = m.up_track.remove(&up) {
        track.link = down_pair.pair.correlator;
        track.outcome_state = track.outcome_state.combine(down_pair.announced, outcome);
        m.up_relayed.insert(up, track);
        out.push(NetOutput::SendDownstream(Message::Track(track)));
    } else {
        m.up_record.insert(
            up,
            SwapRecord {
                other: down_pair,
                outcome,
            },
        );
    }

    // Upstream-travelling TRACK waiting on the downstream pair?
    if let Some(mut track) = m.down_track.remove(&down) {
        track.link = up_pair.pair.correlator;
        track.outcome_state = track.outcome_state.combine(up_pair.announced, outcome);
        m.down_relayed.insert(down, track);
        out.push(NetOutput::SendUpstream(Message::Track(track)));
    } else {
        m.down_record.insert(
            down,
            SwapRecord {
                other: up_pair,
                outcome,
            },
        );
    }

    try_start_swap(m, out);
}

/// TRACK rule (Algorithm 8).
///
/// Duplicated TRACKs (retransmissions racing their ack, or a
/// duplication fault) find their swap record already consumed; the
/// bounded relayed-TRACK memory re-forwards the stored rewritten copy
/// so the duplicate still reaches the far end (which absorbs or
/// re-acks it). Discard records are likewise *kept* after the first
/// match so every duplicate re-bounces the EXPIRE.
pub(crate) fn track_rule(
    c: &mut Circuit,
    from_upstream: bool,
    mut track: Track,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let m = mid(c);
    if from_upstream {
        // Head-originated TRACK travelling downstream; keyed by our
        // upstream-link pair.
        if let Some(rec) = m.up_record.remove(&track.link) {
            let key = track.link;
            track.link = rec.other.pair.correlator;
            track.outcome_state = track
                .outcome_state
                .combine(rec.other.announced, rec.outcome);
            m.up_relayed.insert(key, track);
            out.push(NetOutput::SendDownstream(Message::Track(track)));
        } else if let Some(fwd) = m.up_relayed.get(&track.link) {
            stats.duplicate_tracks_relayed += 1;
            out.push(NetOutput::SendDownstream(Message::Track(*fwd)));
        } else if m.up_expired.contains_key(&track.link) {
            out.push(NetOutput::SendUpstream(Message::Expire(Expire {
                circuit: track.circuit,
                origin: track.origin,
            })));
        } else {
            m.up_track.insert(track.link, track);
        }
    } else {
        // Tail-originated TRACK travelling upstream; keyed by our
        // downstream-link pair.
        if let Some(rec) = m.down_record.remove(&track.link) {
            let key = track.link;
            track.link = rec.other.pair.correlator;
            track.outcome_state = track
                .outcome_state
                .combine(rec.other.announced, rec.outcome);
            m.down_relayed.insert(key, track);
            out.push(NetOutput::SendUpstream(Message::Track(track)));
        } else if let Some(fwd) = m.down_relayed.get(&track.link) {
            stats.duplicate_tracks_relayed += 1;
            out.push(NetOutput::SendUpstream(Message::Track(*fwd)));
        } else if m.down_expired.contains_key(&track.link) {
            out.push(NetOutput::SendDownstream(Message::Expire(Expire {
                circuit: track.circuit,
                origin: track.origin,
            })));
        } else {
            m.down_track.insert(track.link, track);
        }
    }
}

/// Cutoff expiry rule (Algorithm 9): discard the idle pair; if its TRACK
/// already arrived, bounce an EXPIRE back to the originating end-node,
/// otherwise log a discard record.
pub(crate) fn cutoff_expired(
    c: &mut Circuit,
    side: LinkSide,
    correlator: Correlator,
    out: &mut Vec<NetOutput>,
) {
    let circuit = c.entry.circuit;
    let m = mid(c);
    let queue = match side {
        LinkSide::Upstream => &mut m.up_queue,
        LinkSide::Downstream => &mut m.down_queue,
    };
    let Some(pos) = queue.iter().position(|p| p.pair.correlator == correlator) else {
        // Already consumed by a swap (timer raced the cancel) — ignore.
        return;
    };
    let pending = queue.remove(pos).expect("indexed");
    out.push(NetOutput::DiscardPair { pair: pending.pair });

    // The correlator is recorded as expired in *both* arms: a
    // retransmitted TRACK arriving after the bounce must draw a fresh
    // EXPIRE (recovering a lost one), not be held forever.
    match side {
        LinkSide::Upstream => {
            if let Some(track) = m.up_track.remove(&correlator) {
                out.push(NetOutput::SendUpstream(Message::Expire(Expire {
                    circuit,
                    origin: track.origin,
                })));
            }
            m.up_expired.insert(correlator, ());
        }
        LinkSide::Downstream => {
            if let Some(track) = m.down_track.remove(&correlator) {
                out.push(NetOutput::SendDownstream(Message::Expire(Expire {
                    circuit,
                    origin: track.origin,
                })));
            }
            m.down_expired.insert(correlator, ());
        }
    }
}

/// The runtime reclaimed a link qubit whose announcement never arrived
/// (`signalling_on_wire` + losses): the correlator is dead at this node.
/// Bounce an EXPIRE for any TRACK already held for it, and mark it
/// expired so later (retransmitted) TRACKs bounce too — otherwise the
/// chain's origin end-node sits on its qubit until its own timeout.
pub(crate) fn link_orphaned(
    c: &mut Circuit,
    side: LinkSide,
    correlator: Correlator,
    out: &mut Vec<NetOutput>,
) {
    let circuit = c.entry.circuit;
    let m = mid(c);
    match side {
        LinkSide::Upstream => {
            if let Some(track) = m.up_track.remove(&correlator) {
                out.push(NetOutput::SendUpstream(Message::Expire(Expire {
                    circuit,
                    origin: track.origin,
                })));
            }
            m.up_expired.insert(correlator, ());
        }
        LinkSide::Downstream => {
            if let Some(track) = m.down_track.remove(&correlator) {
                out.push(NetOutput::SendDownstream(Message::Expire(Expire {
                    circuit,
                    origin: track.origin,
                })));
            }
            m.down_expired.insert(correlator, ());
        }
    }
}

/// FORWARD at an intermediate node: manage the downstream link's
/// generation and relay.
///
/// Duplicated FORWARDs (a faulty plane) are relayed — downstream nodes
/// absorb their own copies — but must not be counted twice locally, or
/// `active_requests` never returns to zero and the link generates
/// forever after the circuit drains.
pub(crate) fn on_forward(
    c: &mut Circuit,
    f: Forward,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let entry = c.entry;
    let m = mid(c);
    if m.counted_requests.contains(&f.request) || m.retired_requests.contains_key(&f.request) {
        stats.duplicate_forwards += 1;
        out.push(NetOutput::SendDownstream(Message::Forward(f)));
        return;
    }
    m.active_requests += 1;
    m.counted_requests.insert(f.request);
    let down = entry
        .downstream
        .as_ref()
        .expect("intermediate has downstream");
    let weight = link_weight(down.max_lpr, entry.max_eer, f.rate);
    if m.link_submitted {
        out.push(NetOutput::LinkSetWeight {
            side: LinkSide::Downstream,
            label: down.label,
            weight,
        });
    } else {
        out.push(NetOutput::LinkSubmit {
            side: LinkSide::Downstream,
            label: down.label,
            min_fidelity: down.min_fidelity,
            weight,
        });
        m.link_submitted = true;
    }
    out.push(NetOutput::SendDownstream(Message::Forward(f)));
}

/// COMPLETE at an intermediate node: update or stop the downstream
/// link's generation and relay.
pub(crate) fn on_complete(
    c: &mut Circuit,
    msg: Complete,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let entry = c.entry;
    let m = mid(c);
    if !m.counted_requests.remove(&msg.request) {
        // Duplicated COMPLETE (or its FORWARD was dropped upstream):
        // nothing to retire locally, but downstream still needs it.
        stats.duplicate_completes += 1;
        out.push(NetOutput::SendDownstream(Message::Complete(msg)));
        return;
    }
    m.retired_requests.insert(msg.request, ());
    m.active_requests = m.active_requests.saturating_sub(1);
    let down = entry
        .downstream
        .as_ref()
        .expect("intermediate has downstream");
    if m.active_requests == 0 {
        if m.link_submitted {
            out.push(NetOutput::LinkStop {
                side: LinkSide::Downstream,
                label: down.label,
            });
            m.link_submitted = false;
        }
    } else {
        out.push(NetOutput::LinkSetWeight {
            side: LinkSide::Downstream,
            label: down.label,
            weight: link_weight(down.max_lpr, entry.max_eer, msg.rate),
        });
    }
    out.push(NetOutput::SendDownstream(Message::Complete(msg)));
}
