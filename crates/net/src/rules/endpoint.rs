//! End-node rules: head-end (Algorithms 1–3) and tail-end (Algorithms
//! 4–6) of Appendix C, plus FORWARD/COMPLETE request management.
//!
//! Head and tail share the LINK / TRACK / EXPIRE skeleton; the head-end
//! additionally polices and shapes requests, originates FORWARD and
//! COMPLETE, stamps and advances epochs, and applies Pauli corrections
//! for final-state requests.

use crate::events::{AppEvent, Delivery, DeliveryKind, NetOutput, PairInfo};
use crate::ids::{Address, CircuitId, Correlator, Epoch, RequestId};
use crate::messages::{Complete, Forward, Message, Track};
use crate::node::{Circuit, CircuitState, EndpointState, InTransit, NodeStats, ReqState};
use crate::policing::{link_weight, AdmitDecision};
use crate::request::{RequestType, UserRequest};
use crate::routing_table::{LinkSide, RoutingEntry};

/// The single link an end-node has: downstream at the head, upstream at
/// the tail.
pub(crate) fn own_link(entry: &RoutingEntry) -> (LinkSide, qn_link::LinkLabel) {
    match (&entry.downstream, &entry.upstream) {
        (Some(d), None) => (LinkSide::Downstream, d.label),
        (None, Some(u)) => (LinkSide::Upstream, u.label),
        _ => panic!("endpoint rules on a non-endpoint circuit"),
    }
}

fn ep(c: &mut Circuit) -> &mut EndpointState {
    match &mut c.state {
        CircuitState::Endpoint(ep) => ep,
        CircuitState::Mid(_) => panic!("endpoint rule on intermediate node"),
    }
}

/// Send towards the peer end-node: downstream from the head, upstream
/// from the tail.
fn send_along(is_head: bool, msg: Message) -> NetOutput {
    if is_head {
        NetOutput::SendDownstream(msg)
    } else {
        NetOutput::SendUpstream(msg)
    }
}

/// Register a request into the endpoint's tables (does not touch the
/// policer — admission happened already).
fn register_request(
    ep: &mut EndpointState,
    id: RequestId,
    head_identifier: u32,
    tail_identifier: u32,
    request_type: RequestType,
    final_state: Option<qn_quantum::BellState>,
    count: Option<u64>,
) {
    ep.requests.insert(
        id,
        ReqState {
            head_identifier,
            tail_identifier,
            request_type,
            final_state,
            count,
            delivered: 0,
            next_seq: 0,
            assigned: 0,
            completed: false,
        },
    );
    ep.demux.add_request(id);
}

/// Issue or update the link-layer request on the endpoint's single link
/// according to the advertised rate.
fn sync_link(entry: &RoutingEntry, ep: &mut EndpointState, out: &mut Vec<NetOutput>) {
    let (side, label) = own_link(entry);
    // Only the upstream endpoint of a link manages its generation; at the
    // tail-end the upstream *neighbour* owns the link, so the tail issues
    // no link commands.
    if !ep.is_head {
        return;
    }
    let down = entry.downstream.as_ref().expect("head has downstream");
    let rate = ep.policer.advertised_rate();
    if ep.policer.active_len() == 0 {
        if ep.link_submitted {
            out.push(NetOutput::LinkStop { side, label });
            ep.link_submitted = false;
        }
        return;
    }
    let weight = link_weight(down.max_lpr, entry.max_eer, rate);
    if ep.link_submitted {
        out.push(NetOutput::LinkSetWeight {
            side,
            label,
            weight,
        });
    } else {
        out.push(NetOutput::LinkSubmit {
            side,
            label,
            min_fidelity: down.min_fidelity,
            weight,
        });
        ep.link_submitted = true;
    }
}

/// Accept an admitted request at the head-end: register, FORWARD, sync
/// the link layer.
fn activate_request(
    circuit: CircuitId,
    entry: &RoutingEntry,
    ep: &mut EndpointState,
    req: &UserRequest,
    out: &mut Vec<NetOutput>,
) {
    ep.policer.admit(req);
    register_request(
        ep,
        req.id,
        req.head.identifier,
        req.tail.identifier,
        req.request_type,
        req.final_state,
        req.demand.count(),
    );
    sync_link(entry, ep, out);
    out.push(send_along(
        true,
        Message::Forward(Forward {
            circuit,
            request: req.id,
            head_identifier: req.head.identifier,
            tail_identifier: req.tail.identifier,
            request_type: req.request_type,
            number_of_pairs: req.demand.count(),
            final_state: req.final_state,
            rate: ep.policer.advertised_rate(),
        }),
    ));
    out.push(NetOutput::Notify(AppEvent::RequestAccepted(req.id)));
}

/// Head-end: a user request arrived (paper §4.1 "Policing and shaping").
pub(crate) fn user_request(
    circuit: CircuitId,
    c: &mut Circuit,
    req: UserRequest,
    out: &mut Vec<NetOutput>,
) {
    let entry = c.entry;
    let ep = ep(c);
    assert!(ep.is_head, "user requests enter at the head-end");
    if let Err(reason) = req.validate() {
        out.push(NetOutput::Notify(AppEvent::RequestRejected(req.id, reason)));
        return;
    }
    if ep.requests.contains_key(&req.id) {
        out.push(NetOutput::Notify(AppEvent::RequestRejected(
            req.id,
            "duplicate request id",
        )));
        return;
    }
    match ep.policer.decide(&req) {
        AdmitDecision::Reject(reason) => {
            out.push(NetOutput::Notify(AppEvent::RequestRejected(req.id, reason)));
        }
        AdmitDecision::Shape => {
            ep.policer.shape(req);
            out.push(NetOutput::Notify(AppEvent::RequestShaped(req.id)));
        }
        AdmitDecision::Accept => {
            activate_request(circuit, &entry, ep, &req, out);
        }
    }
}

/// Complete a request at the head-end: COMPLETE downstream, release
/// bandwidth, admit shaped requests that now fit.
fn finish_request(
    circuit: CircuitId,
    entry: &RoutingEntry,
    ep: &mut EndpointState,
    id: RequestId,
    out: &mut Vec<NetOutput>,
) {
    let Some(req) = ep.requests.get_mut(&id) else {
        return;
    };
    if req.completed {
        return;
    }
    req.completed = true;
    let head_identifier = req.head_identifier;
    let tail_identifier = req.tail_identifier;
    ep.demux.remove_request(id);
    ep.policer.release(id);
    sync_link(entry, ep, out);
    out.push(send_along(
        true,
        Message::Complete(Complete {
            circuit,
            request: id,
            head_identifier,
            tail_identifier,
            rate: ep.policer.advertised_rate(),
        }),
    ));
    out.push(NetOutput::Notify(AppEvent::RequestCompleted(id)));
    // Shaped requests may now fit (FIFO).
    for shaped in ep.policer.admissible_shaped() {
        // `admissible_shaped` already recorded admission in the policer;
        // register + FORWARD without double-admitting.
        register_request(
            ep,
            shaped.id,
            shaped.head.identifier,
            shaped.tail.identifier,
            shaped.request_type,
            shaped.final_state,
            shaped.demand.count(),
        );
        sync_link(entry, ep, out);
        out.push(send_along(
            true,
            Message::Forward(Forward {
                circuit,
                request: shaped.id,
                head_identifier: shaped.head.identifier,
                tail_identifier: shaped.tail.identifier,
                request_type: shaped.request_type,
                number_of_pairs: shaped.demand.count(),
                final_state: shaped.final_state,
                rate: ep.policer.advertised_rate(),
            }),
        ));
        out.push(NetOutput::Notify(AppEvent::RequestAccepted(shaped.id)));
    }
}

/// Head-end: application cancels a (rate-based) request.
pub(crate) fn cancel_request(
    circuit: CircuitId,
    c: &mut Circuit,
    id: RequestId,
    out: &mut Vec<NetOutput>,
) {
    let entry = c.entry;
    let ep = ep(c);
    if ep.is_head {
        finish_request(circuit, &entry, ep, id, out);
    }
}

/// LINK rule at an end-node (Algorithm 1 at the head, Algorithm 4 at the
/// tail): assign the fresh pair to a request, originate the TRACK
/// message, and for EARLY/MEASURE requests act on the qubit immediately.
pub(crate) fn link_rule(
    circuit: CircuitId,
    c: &mut Circuit,
    info: PairInfo,
    out: &mut Vec<NetOutput>,
) {
    let node = c.node;
    let ep = ep(c);
    let is_head = ep.is_head;

    // Pick the request this pair serves; skip requests that are already
    // fully assigned (bounded demand) — mirrors at both ends.
    let select = |ep: &mut EndpointState| -> Option<RequestId> {
        for _ in 0..ep.demux.active_set().len().max(1) {
            match ep.demux.next_request() {
                None => break,
                Some(id) => {
                    let full = ep
                        .requests
                        .get(&id)
                        .map(|r| r.completed || matches!(r.count, Some(n) if r.assigned >= n))
                        .unwrap_or(true);
                    if !full {
                        return Some(id);
                    }
                }
            }
        }
        None
    };
    let mut chosen = select(&mut *ep);
    if chosen.is_none() && ep.demux.active() < ep.demux.latest() {
        // Every request in the active epoch has finished locally but a
        // newer epoch exists (e.g. a fresh request arrived after the
        // previous one completed). Advance — the paper's epoch mechanism
        // only moves on TRACK deliveries, which cannot happen while no
        // pair is assignable; both ends apply this same deterministic
        // escape, and the TRACK cross-check cleans up any transient
        // disagreement.
        let latest = ep.demux.latest();
        ep.demux.activate(latest);
        chosen = select(&mut *ep);
    }
    let Some(req_id) = chosen else {
        // No request wants this pair (e.g. generation continuing while a
        // COMPLETE is in flight, or the active requests are fully
        // assigned): release the qubit AND log a discard record so the
        // peer's TRACK for this chain — if one ever arrives — is answered
        // with an EXPIRE instead of leaking the peer's assignment slot.
        out.push(NetOutput::DiscardPair { pair: info.pair });
        ep.discard_records.insert(info.pair.correlator, ());
        return;
    };
    let epoch = if is_head { ep.demux.latest() } else { Epoch(0) };
    let req = ep
        .requests
        .get_mut(&req_id)
        .expect("assigned request exists");
    req.assigned += 1;
    let track = Track {
        circuit,
        request: req_id,
        head_identifier: req.head_identifier,
        tail_identifier: req.tail_identifier,
        origin: info.pair.correlator,
        link: info.pair.correlator,
        outcome_state: info.announced,
        epoch: if is_head { Some(epoch) } else { None },
    };
    out.push(send_along(is_head, Message::Track(track)));

    let mut it = InTransit {
        request: req_id,
        pair: info.pair,
        epoch,
        delivered_early: false,
        awaiting_measure: false,
        measure_outcome: None,
        pending_track: None,
    };
    match req.request_type {
        RequestType::Keep => {}
        RequestType::Early => {
            let address = Address {
                node,
                identifier: if is_head {
                    req.head_identifier
                } else {
                    req.tail_identifier
                },
            };
            out.push(NetOutput::Deliver(Delivery {
                request: req_id,
                sequence: req.take_seq(),
                chain: None,
                address,
                kind: DeliveryKind::EarlyQubit {
                    pair: info.pair,
                    state: info.announced,
                },
            }));
            it.delivered_early = true;
        }
        RequestType::Measure(basis) => {
            out.push(NetOutput::MeasureNow {
                pair: info.pair,
                basis,
            });
            it.awaiting_measure = true;
        }
    }
    ep.in_transit.insert(info.pair.correlator, it);
}

/// TRACK rule at an end-node (Algorithm 2 at the head, Algorithm 5 at
/// the tail).
pub(crate) fn track_rule(
    circuit: CircuitId,
    c: &mut Circuit,
    track: Track,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let entry = c.entry;
    let node = c.node;
    let ep = ep(c);

    // MEASURE ordering: the TRACK may beat the readout completion.
    if let Some(it) = ep.in_transit.get_mut(&track.link) {
        if it.awaiting_measure && it.measure_outcome.is_none() {
            it.pending_track = Some(track);
            return;
        }
    }
    let Some(it) = ep.in_transit.remove(&track.link) else {
        // No in-transit entry. If we discarded this pair unassigned, the
        // chain is broken: bounce an EXPIRE back so the peer frees its
        // qubit (mirrors the repeater's discard-record rule). The record
        // is kept (bounded) so a duplicated TRACK re-bounces the EXPIRE
        // — a lost EXPIRE is then recovered by the next retransmission.
        if ep.discard_records.contains_key(&track.link) {
            out.push(send_along(
                ep.is_head,
                Message::Expire(crate::messages::Expire {
                    circuit,
                    origin: track.origin,
                }),
            ));
        } else {
            // Neither in-transit nor discarded: a duplicated TRACK
            // (already consumed) or a corrupted correlator. Absorb.
            stats.stale_tracks += 1;
        }
        return;
    };
    finish_delivery(circuit, &entry, node, ep, it, track, out);
}

/// MEASURE readout completed (runtime callback).
pub(crate) fn measure_completed(
    circuit: CircuitId,
    c: &mut Circuit,
    correlator: Correlator,
    outcome: bool,
    out: &mut Vec<NetOutput>,
) {
    let entry = c.entry;
    let node = c.node;
    let ep = ep(c);
    let Some(it) = ep.in_transit.get_mut(&correlator) else {
        return;
    };
    it.awaiting_measure = false;
    it.measure_outcome = Some(outcome);
    if it.pending_track.is_some() {
        let mut it = ep.in_transit.remove(&correlator).expect("present");
        let track = it.pending_track.take().expect("checked");
        finish_delivery(circuit, &entry, node, ep, it, track, out);
    }
}

/// Shared confirmation path: cross-check, epoch activation, correction,
/// delivery, completion accounting.
fn finish_delivery(
    circuit: CircuitId,
    entry: &RoutingEntry,
    node: qn_sim::NodeId,
    ep: &mut EndpointState,
    it: InTransit,
    track: Track,
    out: &mut Vec<NetOutput>,
) {
    let is_head = ep.is_head;

    // Epoch activation (paper §4.1 "Aggregation"): the head activates the
    // epoch it stamped on its own TRACK for this pair; the tail activates
    // the epoch announced on the head's TRACK.
    if is_head {
        ep.demux.activate(it.epoch);
    } else if let Some(e) = track.epoch {
        ep.demux.activate(e);
    }

    // Cross-check (Algorithm 2/5): both ends must serve the chain to the
    // same request. The head's assignment is authoritative (it rides the
    // head-originated TRACK the tail receives); on a mismatch the tail
    // *reassigns* its pair to the head's choice — the paper's "if a qubit
    // was not delivered early it can be reassigned". Without this, heavy
    // aggregation (Fig 9 beyond saturation) decorrelates the two ends'
    // round-robin cursors and throughput collapses. EARLY pairs cannot be
    // reassigned (the application already owns the qubit).
    let mut serve_as = it.request;
    if !ep.demux.cross_check(it.request, track.request) {
        let compatible = match (
            ep.requests
                .get(&it.request)
                .map(|r| (r.request_type, r.final_state)),
            ep.requests
                .get(&track.request)
                .map(|r| (r.request_type, r.final_state)),
        ) {
            // KEEP chains carry an intact qubit: any KEEP request can take
            // them (the head — the authority — corrects per its choice).
            (Some((RequestType::Keep, _)), Some((RequestType::Keep, _))) => true,
            // MEASURE outcomes were obtained in the original basis; they
            // only transfer to a request with identical semantics.
            (Some((RequestType::Measure(b1), f1)), Some((RequestType::Measure(b2), f2))) => {
                b1 == b2 && f1 == f2
            }
            _ => false,
        };
        let reassignable = !is_head
            && !it.delivered_early
            && compatible
            && ep
                .requests
                .get(&track.request)
                .map(|r| !r.completed && !r.is_full())
                .unwrap_or(false);
        if reassignable {
            // Return the slot to the original request, take one from the
            // head's choice.
            if let Some(orig) = ep.requests.get_mut(&it.request) {
                orig.assigned = orig.assigned.saturating_sub(1);
            }
            if let Some(new) = ep.requests.get_mut(&track.request) {
                new.assigned += 1;
            }
            serve_as = track.request;
        } else if is_head && compatible {
            // The head keeps its own assignment; the tail converges to it.
        } else {
            // Incompatible semantics (e.g. the peer measured its end while
            // we expected a live qubit): the chain is unusable at both
            // ends — discard. The compatibility predicate is symmetric, so
            // both ends reach the same verdict independently.
            if let Some(req) = ep.requests.get_mut(&it.request) {
                req.assigned = req.assigned.saturating_sub(1);
            }
            if it.delivered_early {
                out.push(NetOutput::Notify(AppEvent::EarlyPairExpired {
                    request: it.request,
                    pair: it.pair,
                }));
            } else {
                out.push(NetOutput::DiscardPair { pair: it.pair });
            }
            return;
        }
    }

    let Some(req) = ep.requests.get_mut(&serve_as) else {
        out.push(NetOutput::DiscardPair { pair: it.pair });
        return;
    };
    // Bounded requests deliver exactly `count` pairs at each end; excess
    // confirmations release their pairs.
    if req.is_full() {
        if !it.delivered_early {
            out.push(NetOutput::DiscardPair { pair: it.pair });
        }
        return;
    }

    // The entangled pair identifier (paper §3.2): the two TRACK origins.
    // Our own link-pair correlator plus the peer's TRACK origin — both
    // ends compute the same tuple.
    let chain = Some(if is_head {
        crate::events::ChainId {
            head: it.pair.correlator,
            tail: track.origin,
        }
    } else {
        crate::events::ChainId {
            head: track.origin,
            tail: it.pair.correlator,
        }
    });

    let raw_state = track.outcome_state;
    let mut state = raw_state;
    if let Some(final_state) = req.final_state {
        // The head performs the correction; for MEASURE requests the
        // qubit is already gone, so the correction is applied classically
        // to the outcome below instead.
        if is_head && !matches!(req.request_type, RequestType::Measure(_)) {
            let pauli = state.correction_to(final_state);
            if pauli != qn_quantum::Pauli::I {
                out.push(NetOutput::ApplyCorrection {
                    pair: it.pair,
                    pauli,
                });
            }
        }
        // Both ends report the corrected state (the head performs the
        // physical correction; Algorithm 5 note).
        state = final_state;
    }

    let address = Address {
        node,
        identifier: if is_head {
            req.head_identifier
        } else {
            req.tail_identifier
        },
    };
    match req.request_type {
        RequestType::Keep => {
            out.push(NetOutput::Deliver(Delivery {
                request: serve_as,
                sequence: req.take_seq(),
                chain,
                address,
                kind: DeliveryKind::Qubit {
                    pair: it.pair,
                    state,
                },
            }));
        }
        RequestType::Early => {
            out.push(NetOutput::Deliver(Delivery {
                request: serve_as,
                sequence: req.take_seq(),
                chain,
                address,
                kind: DeliveryKind::EarlyTracking {
                    pair: it.pair,
                    state,
                },
            }));
        }
        RequestType::Measure(basis) => {
            let mut outcome = it.measure_outcome.expect("outcome present by ordering");
            // Classical Pauli correction: the head flips its reported bit
            // when the correction Pauli anticommutes with the basis,
            // which transforms the outcome statistics into those of the
            // requested final state.
            if let Some(final_state) = req.final_state {
                if is_head {
                    let pauli = raw_state.correction_to(final_state);
                    if anticommutes(pauli, basis) {
                        outcome = !outcome;
                    }
                }
            }
            out.push(NetOutput::Deliver(Delivery {
                request: serve_as,
                sequence: req.take_seq(),
                chain,
                address,
                kind: DeliveryKind::Measurement {
                    outcome,
                    basis,
                    state,
                },
            }));
        }
    }
    req.delivered += 1;
    let full = req.is_full();
    if is_head && full {
        finish_request(circuit, entry, ep, serve_as, out);
    } else if !is_head && full {
        // The tail marks completion locally; removal from the demux
        // happens when COMPLETE arrives (the head owns the lifecycle).
        req.completed = true;
    }
}

/// Whether a Pauli anticommutes with a measurement basis operator (the
/// condition under which a frame correction flips a classical outcome).
fn anticommutes(pauli: qn_quantum::Pauli, basis: qn_quantum::Pauli) -> bool {
    use qn_quantum::Pauli as P;
    match (pauli, basis) {
        (P::I, _) | (_, P::I) => false,
        (a, b) if a == b => false,
        _ => true,
    }
}

/// EXPIRE rule at an end-node (Algorithm 3 at the head, Algorithm 6 at
/// the tail): free the local qubit of a broken chain.
pub(crate) fn expire_rule(
    c: &mut Circuit,
    expire: crate::messages::Expire,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let ep = ep(c);
    let Some(it) = ep.in_transit.remove(&expire.origin) else {
        // Duplicated EXPIRE, or its pair already confirmed/timed out.
        stats.stale_expires += 1;
        return;
    };
    // Return the assignment slot so the request can be served by a
    // replacement pair.
    if let Some(req) = ep.requests.get_mut(&it.request) {
        req.assigned = req.assigned.saturating_sub(1);
    }
    if it.delivered_early {
        out.push(NetOutput::Notify(AppEvent::EarlyPairExpired {
            request: it.request,
            pair: it.pair,
        }));
    } else {
        out.push(NetOutput::DiscardPair { pair: it.pair });
    }
}

/// Local track-timeout (faulty classical plane only): the pair's
/// TRACK/EXPIRE never arrived, so free the qubit rather than hold it
/// forever — the expiry/retransmission-safe analogue of the repeater
/// cutoff for end-nodes, where the paper's no-timer rule assumes a
/// reliable plane. A discard record is logged so a merely-late TRACK
/// still converts into an EXPIRE towards the peer.
pub(crate) fn track_timeout(
    c: &mut Circuit,
    correlator: Correlator,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let ep = ep(c);
    // A pending TRACK means confirmation is imminent (only the local
    // readout completion is outstanding): let it finish.
    if ep
        .in_transit
        .get(&correlator)
        .is_some_and(|it| it.pending_track.is_some())
    {
        return;
    }
    let Some(it) = ep.in_transit.remove(&correlator) else {
        return; // already confirmed or expired — the common case
    };
    stats.expired_in_transit += 1;
    if let Some(req) = ep.requests.get_mut(&it.request) {
        req.assigned = req.assigned.saturating_sub(1);
    }
    if it.delivered_early {
        out.push(NetOutput::Notify(AppEvent::EarlyPairExpired {
            request: it.request,
            pair: it.pair,
        }));
    } else {
        out.push(NetOutput::DiscardPair { pair: it.pair });
    }
    ep.discard_records.insert(correlator, ());
}

/// The runtime reclaimed an end-node link qubit whose pair announcement
/// was lost on the wire: the QNP never saw the pair, so there is no
/// state to unwind — just log a discard record so the peer's TRACK for
/// this chain draws an EXPIRE instead of leaking the peer's qubit until
/// its own timeout.
pub(crate) fn link_orphaned(c: &mut Circuit, correlator: Correlator) {
    ep(c).discard_records.insert(correlator, ());
}

/// FORWARD at the tail-end: learn the new request.
pub(crate) fn on_forward(
    c: &mut Circuit,
    f: Forward,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let _ = out;
    let ep = ep(c);
    if ep.is_head {
        // Only reachable through corruption (FORWARD travels head→tail).
        stats.misrouted += 1;
        return;
    }
    if ep.requests.contains_key(&f.request) {
        // A duplicated FORWARD: re-registering would reset the request's
        // delivery counters and fork a spurious epoch. Absorb it.
        stats.duplicate_forwards += 1;
        return;
    }
    register_request(
        ep,
        f.request,
        f.head_identifier,
        f.tail_identifier,
        f.request_type,
        f.final_state,
        f.number_of_pairs,
    );
}

/// COMPLETE at the tail-end: retire the request from the demultiplexer
/// (the request state is kept for TRACKs still in flight).
pub(crate) fn on_complete(
    c: &mut Circuit,
    m: Complete,
    out: &mut Vec<NetOutput>,
    stats: &mut NodeStats,
) {
    let _ = out;
    let ep = ep(c);
    if ep.is_head {
        stats.misrouted += 1;
        return;
    }
    if !ep.demux.in_latest(m.request) {
        // Nothing to retire: either a duplicated COMPLETE (already
        // removed) or a COMPLETE whose request this end never learned
        // (its FORWARD was dropped, or the id was corrupted in flight).
        // Removing anyway would fork a spurious epoch at this end only,
        // desynchronising the two ends' demultiplexers.
        stats.duplicate_completes += 1;
        return;
    }
    if let Some(req) = ep.requests.get_mut(&m.request) {
        req.completed = true;
    }
    ep.demux.remove_request(m.request);
}
