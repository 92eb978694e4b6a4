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
use crate::ids::Correlator;
use crate::messages::{Complete, Expire, Forward, Message, Track};
use crate::node::{Circuit, CircuitState, MidSide, MidState, NodeStats, PendingPair, SwapRecord};
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
    if m.swapping.is_some() || m.sides.iter().any(|s| s.queue.is_empty()) {
        return;
    }
    // Oldest unexpired pairs first (paper §5 scheduling policy).
    let pairs = m
        .sides
        .each_mut()
        .map(|s| s.queue.pop_front().expect("checked"));
    for p in &pairs {
        out.push(NetOutput::CancelCutoff { pair: p.pair });
    }
    out.push(NetOutput::StartSwap {
        up: pairs[0].pair,
        down: pairs[1].pair,
    });
    m.swapping = Some(pairs);
}

/// LINK rule (Algorithm 7's entry condition): queue the fresh pair, arm
/// its cutoff, and swap if a partner is available.
pub(crate) fn link_rule(c: &mut Circuit, side: LinkSide, info: PairInfo, out: &mut Vec<NetOutput>) {
    let cutoff = c.entry.cutoff;
    let m = mid(c);
    if !cutoff.is_infinite() {
        out.push(NetOutput::SetCutoff {
            pair: info.pair,
            side,
            after: cutoff,
        });
    }
    m.sides[side as usize].queue.push_back(PendingPair {
        pair: info.pair,
        announced: info.announced,
    });
    try_start_swap(m, out);
}

/// Forward `track`, which arrived from `from` for our pair `key` on that
/// side, across the swap `rec` to the other side: the TRACK now names
/// the pair continuing the chain and folds in its announced state and
/// the swap outcome. The only writer of the relayed-TRACK memory, which
/// keeps the rewritten copy for a duplicate of the same TRACK on a node
/// that can receive one.
fn relay(
    s: &mut MidSide,
    from: LinkSide,
    key: Correlator,
    mut track: Track,
    rec: SwapRecord,
    out: &mut Vec<NetOutput>,
) {
    track.link = rec.other.pair;
    track.outcome_state = track
        .outcome_state
        .combine(rec.other.announced, rec.outcome);
    if let Some(relayed) = &mut s.relayed {
        relayed.insert(key, track);
    }
    out.push(NetOutput::Send(from.opposite(), Message::Track(track)));
}

/// Swap completion (Algorithm 7 body): on each side, relay the TRACK
/// waiting on the consumed pair or log a swap record for it, then look
/// for more work. The upstream side goes first: output order is frame
/// order.
pub(crate) fn swap_completed(
    c: &mut Circuit,
    up: Correlator,
    down: Correlator,
    outcome: BellState,
    out: &mut Vec<NetOutput>,
) {
    let m = mid(c);
    let Some(pairs) = m.swapping.take() else {
        debug_assert!(false, "swap completion without in-flight swap");
        return;
    };
    debug_assert_eq!(pairs[0].pair, up);
    debug_assert_eq!(pairs[1].pair, down);

    for side in LinkSide::BOTH {
        let key = pairs[side as usize].pair;
        let rec = SwapRecord {
            other: pairs[side.opposite() as usize],
            outcome,
        };
        let s = &mut m.sides[side as usize];
        match s.track.remove(&key) {
            Some(track) => relay(s, side, key, track, rec, out),
            None => {
                s.record.insert(key, rec);
            }
        }
    }
    try_start_swap(m, out);
}

/// TRACK rule (Algorithm 8): a TRACK from one side is keyed by our pair
/// on that side and travels on to the other.
///
/// Duplicated TRACKs (retransmissions racing their ack, or a
/// duplication fault) find their swap record already consumed; the
/// bounded relayed-TRACK memory, kept where duplicates can arrive,
/// re-forwards the stored rewritten copy so the duplicate still reaches
/// the far end (which absorbs or re-acks it). Discard records are
/// likewise *kept* after the first match so every duplicate re-bounces
/// the EXPIRE.
pub(crate) fn track_rule(
    c: &mut Circuit,
    from: LinkSide,
    track: Track,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let s = &mut mid(c).sides[from as usize];
    let key = track.link;
    if let Some(rec) = s.record.remove(&key) {
        relay(s, from, key, track, rec, out);
    } else if let Some(fwd) = s.relayed.as_ref().and_then(|r| r.get(&key)) {
        stats.duplicate_tracks_relayed += 1;
        out.push(NetOutput::Send(from.opposite(), Message::Track(*fwd)));
    } else if s.expired.contains_key(&key) {
        out.push(NetOutput::Send(
            from,
            Message::Expire(Expire {
                circuit: track.circuit,
                origin: track.origin,
            }),
        ));
    } else {
        s.track.insert(key, track);
    }
}

/// Cutoff expiry rule (Algorithm 9): discard the idle pair; then, as for
/// an orphaned pair, bounce an EXPIRE back to the originating end-node
/// if its TRACK already arrived, and log a discard record.
pub(crate) fn cutoff_expired(
    c: &mut Circuit,
    side: LinkSide,
    correlator: Correlator,
    out: &mut Vec<NetOutput>,
) {
    let queue = &mut mid(c).sides[side as usize].queue;
    let Some(pos) = queue.iter().position(|p| p.pair == correlator) else {
        // Already consumed by a swap (timer raced the cancel) — ignore.
        return;
    };
    let pending = queue.remove(pos).expect("indexed");
    out.push(NetOutput::DiscardPair { pair: pending.pair });
    link_orphaned(c, side, correlator, out);
}

/// The correlator of our pair on `side` is dead at this node: a cutoff
/// discarded the pair, or the runtime reclaimed a link qubit whose
/// announcement never arrived (`signalling_on_wire` + losses). Bounce an
/// EXPIRE for any TRACK already held for it, and mark it expired so
/// later (retransmitted) TRACKs bounce too — a lost EXPIRE is then
/// recovered, and the chain's origin end-node does not sit on its qubit
/// until its own timeout.
pub(crate) fn link_orphaned(
    c: &mut Circuit,
    side: LinkSide,
    correlator: Correlator,
    out: &mut Vec<NetOutput>,
) {
    let circuit = c.entry.circuit;
    let s = &mut mid(c).sides[side as usize];
    if let Some(track) = s.track.remove(&correlator) {
        out.push(NetOutput::Send(
            side,
            Message::Expire(Expire {
                circuit,
                origin: track.origin,
            }),
        ));
    }
    s.expired.insert(correlator, ());
}

/// FORWARD at an intermediate node: manage the downstream link's
/// generation and relay.
///
/// Duplicated FORWARDs (a faulty plane) are relayed — downstream nodes
/// absorb their own copies — but must not be counted twice locally, or
/// `active_requests` never empties and the link generates forever after
/// the circuit drains.
pub(crate) fn on_forward(
    c: &mut Circuit,
    f: Forward,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let entry = c.entry;
    let m = mid(c);
    if m.active_requests.contains(&f.request) || m.retired_requests.contains_key(&f.request) {
        stats.duplicate_forwards += 1;
        out.push(NetOutput::Send(LinkSide::Downstream, Message::Forward(f)));
        return;
    }
    let link_live = !m.active_requests.is_empty();
    m.active_requests.insert(f.request);
    let down = entry
        .downstream
        .as_ref()
        .expect("intermediate has downstream");
    let weight = link_weight(down.max_lpr, entry.max_eer, f.rate);
    if link_live {
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
    }
    out.push(NetOutput::Send(LinkSide::Downstream, Message::Forward(f)));
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
    if !m.active_requests.remove(&msg.request) {
        // Duplicated COMPLETE (or its FORWARD was dropped upstream):
        // nothing to retire locally, but downstream still needs it.
        stats.duplicate_completes += 1;
        out.push(NetOutput::Send(
            LinkSide::Downstream,
            Message::Complete(msg),
        ));
        return;
    }
    m.retired_requests.insert(msg.request, ());
    let down = entry
        .downstream
        .as_ref()
        .expect("intermediate has downstream");
    if m.active_requests.is_empty() {
        out.push(NetOutput::LinkStop {
            side: LinkSide::Downstream,
            label: down.label,
        });
    } else {
        out.push(NetOutput::LinkSetWeight {
            side: LinkSide::Downstream,
            label: down.label,
            weight: link_weight(down.max_lpr, entry.max_eer, msg.rate),
        });
    }
    out.push(NetOutput::Send(
        LinkSide::Downstream,
        Message::Complete(msg),
    ));
}
