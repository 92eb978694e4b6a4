//! Wire signalling and its timers: the hop-acked INSTALL/TEARDOWN
//! chain, TRACK retransmission, request copies, track expiry and the
//! orphan check — [`Ev::TrackExpiry`], [`Ev::OrphanCheck`],
//! [`Ev::TrackRetransmit`], [`Ev::SignalKick`], [`Ev::SignalRetransmit`]
//! and [`Ev::RequestResend`] (perfbench span `signal.timer`).

use super::{Ev, NetworkModel, MAX_RETRIES, RETRANSMIT_BASE};
use qn_net::events::NetInput;
use qn_net::ids::{CircuitId, Correlator};
use qn_net::messages::{Message, Track};
use qn_net::routing_table::LinkSide;
use qn_sim::{Context, EventId, NodeId, SimDuration, TraceKind};

/// Retransmission state for one unacknowledged TRACK at its origin
/// end-node, keyed `(node, origin correlator)` in a
/// [`NodeTable`](super::tables::NodeTable).
#[derive(Clone, Copy)]
pub(super) struct TrackRetry {
    /// Retries already sent.
    attempt: u32,
    /// The armed [`Ev::TrackRetransmit`] (cancelled on TRACK_ACK).
    pub(super) event: EventId,
    /// Direction the original TRACK was sent in.
    downstream: bool,
    /// The frame to re-send, verbatim.
    track: Track,
}

/// Retransmission timer for one unacknowledged signalling hop.
#[derive(Clone, Copy)]
pub(super) struct SignalRetry {
    attempt: u32,
    pub(super) event: EventId,
}

/// Wire-borne signalling state of one circuit (`signalling_on_wire`):
/// the INSTALL/TEARDOWN chain walks the path hop by hop, each hop acked
/// and retransmitted independently. The struct outlives the circuit so
/// that late duplicates of already-processed frames still draw a re-ack
/// (which is what stops the sender's retransmission).
pub(super) struct SignalRt {
    pub(super) path: Vec<NodeId>,
    /// Routing entries aligned with `path` (cutoff overrides applied).
    pub(super) entries: Vec<qn_net::routing_table::RoutingEntry>,
    /// Whether `path[i]` has processed its INSTALL.
    pub(super) installed: Vec<bool>,
    /// Whether `path[i]` has processed its TEARDOWN.
    pub(super) torn: Vec<bool>,
    /// Teardown supersedes installation (stale INSTALL acks are ignored
    /// once set, so they cannot cancel a TEARDOWN retransmit timer).
    pub(super) tearing: bool,
    /// `pending[i]` guards the unacked frame from `path[i]` to
    /// `path[i + 1]`.
    pub(super) pending: Vec<Option<SignalRetry>>,
}

/// Deterministic, draw-free exponential backoff: `base << attempt`,
/// saturating.
fn backoff(base: SimDuration, attempt: u32) -> SimDuration {
    SimDuration::from_ps(base.as_ps().saturating_mul(1u64 << attempt.min(20)))
}

impl NetworkModel {
    /// Arm the track-expiry timer for a freshly announced pair and
    /// remember the event so resolution can cancel it.
    pub(super) fn arm_track_expiry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        correlator: Correlator,
        timeout: SimDuration,
    ) {
        let ev = ctx.schedule_in(
            timeout,
            Ev::TrackExpiry {
                node,
                circuit,
                correlator,
            },
        );
        self.track_expiry_events.insert(node, correlator, ev);
    }

    /// Cancel the track-expiry timer of `(node, correlator)`, if armed.
    pub(super) fn cancel_track_expiry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        c: Correlator,
    ) {
        if let Some(ev) = self.track_expiry_events.remove(node, c) {
            ctx.cancel(ev);
        }
    }

    /// An armed track-expiry timer fired: the pair's TRACK never came.
    pub(super) fn track_expiry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        correlator: Correlator,
    ) {
        self.track_expiry_events.remove(node, correlator);
        self.qnp_input(
            ctx,
            node,
            circuit,
            NetInput::TrackTimeout {
                circuit,
                correlator,
            },
        );
    }

    /// Check that the PAIR_READY announcing a pair arrived.
    pub(super) fn orphan_check(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        correlator: Correlator,
        side: LinkSide,
    ) {
        // Announcement delivery is a single classical hop, so by
        // now a pair the QNP has never heard of lost its
        // PAIR_READY for good: reclaim the qubit and let the
        // protocol bounce EXPIREs for any TRACK that references
        // it. A resolved (delivered, swapped or discarded) pair
        // makes this a no-op — the check is never cancelled.
        if self.qubit_owner.get(node, correlator).is_some()
            && !self.nodes[node.0 as usize]
                .qnp
                .knows_pair(circuit, correlator)
        {
            self.discarded_pairs += 1;
            self.trace.record(
                ctx.now(),
                TraceKind::Discard,
                format_args!("{node}"),
                format_args!("orphaned pair {correlator} reclaimed"),
            );
            self.release_end(ctx, node, correlator, true);
            self.qnp_input(
                ctx,
                node,
                circuit,
                NetInput::LinkOrphaned {
                    circuit,
                    side,
                    correlator,
                },
            );
        }
    }

    /// If `msg` is a TRACK this end-node just *originated* (`origin ==
    /// link` — a repeater rewrite can never produce that), arm its
    /// retransmission timer. Wire mode only; no RNG draws.
    pub(super) fn maybe_arm_track_retry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: &Message,
    ) {
        if !self.cfg.signalling_on_wire {
            return;
        }
        let Message::Track(t) = msg else { return };
        if t.origin != t.link {
            return;
        }
        let event = ctx.schedule_in(
            RETRANSMIT_BASE,
            Ev::TrackRetransmit {
                node,
                circuit,
                origin: t.origin,
            },
        );
        self.track_retransmits.insert(
            node,
            t.origin,
            TrackRetry {
                attempt: 0,
                event,
                downstream,
                track: *t,
            },
        );
    }

    /// An armed TRACK retransmission timer fired.
    pub(super) fn track_retransmit_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        origin: Correlator,
    ) {
        let Some(mut retry) = self.track_retransmits.remove(node, origin) else {
            return; // acknowledged meanwhile
        };
        if self.circuit_rt(circuit).is_none() {
            return; // torn down; nothing left to confirm
        }
        if retry.attempt >= MAX_RETRIES {
            self.plane.stats.retransmits_abandoned += 1;
            return;
        }
        retry.attempt += 1;
        retry.event = ctx.schedule_in(
            backoff(RETRANSMIT_BASE, retry.attempt),
            Ev::TrackRetransmit {
                node,
                circuit,
                origin,
            },
        );
        self.plane.stats.track_retransmits += 1;
        let (downstream, track) = (retry.downstream, retry.track);
        self.track_retransmits.insert(node, origin, retry);
        self.send_message(ctx, node, circuit, downstream, Message::Track(track));
    }

    /// If `msg` is a request-level message (FORWARD/COMPLETE) leaving
    /// this node over a wire that can lose frames, schedule its first
    /// redundant copy. These messages are one-shot in the protocol —
    /// a lost FORWARD silently wedges the whole request, because link
    /// generation downstream never starts — but they are idempotent
    /// (receivers count and absorb duplicates) and per-request rare,
    /// so bounded blind redundancy is cheaper and simpler than an ack
    /// channel. No RNG draws.
    pub(super) fn maybe_schedule_request_resend(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: &Message,
    ) {
        if !self.cfg.signalling_on_wire || !self.lossy_wire {
            return;
        }
        if !matches!(msg, Message::Forward(_) | Message::Complete(_)) {
            return;
        }
        // Only the head end-node (the fan-out's origin) arms copies.
        // Repeaters relay every copy they receive — including
        // duplicates — so origin redundancy already covers every hop;
        // arming at relays too would amplify each copy per hop.
        if !self
            .circuit_rt(circuit)
            .is_some_and(|rt| rt.path.first() == Some(&node))
        {
            return;
        }
        ctx.schedule_in(
            RETRANSMIT_BASE,
            Ev::RequestResend {
                node,
                circuit,
                downstream,
                attempt: 1,
                msg: *msg,
            },
        );
    }

    /// A scheduled redundant request-level copy came due: re-send it
    /// and, within the retry budget, schedule the next copy.
    pub(super) fn request_resend_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        attempt: u32,
        msg: Message,
    ) {
        if self.circuit_rt(circuit).is_none() {
            return; // torn down; the fan-out is moot
        }
        if attempt < MAX_RETRIES {
            ctx.schedule_in(
                backoff(RETRANSMIT_BASE, attempt),
                Ev::RequestResend {
                    node,
                    circuit,
                    downstream,
                    attempt: attempt + 1,
                    msg,
                },
            );
        }
        self.plane.stats.request_retransmits += 1;
        self.send_message(ctx, node, circuit, downstream, msg);
    }

    /// Kick off a wire-borne installation: the head installs locally and
    /// the INSTALL chain starts down the path.
    pub(super) fn signal_kick(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        let (head, entry, more) = {
            let Some(st) = self
                .signal_state
                .get_mut(circuit.0 as usize)
                .and_then(|s| s.as_mut())
            else {
                return;
            };
            if st.tearing || st.installed[0] {
                return;
            }
            st.installed[0] = true;
            (st.path[0], st.entries[0], st.path.len() > 1)
        };
        self.qnp_input(ctx, head, circuit, NetInput::InstallCircuit { entry });
        if more {
            self.send_signal_hop(ctx, circuit, 0);
        }
    }

    /// Send the signalling frame (INSTALL, or TEARDOWN once tearing)
    /// from `path[hop]` to `path[hop + 1]` and arm its retransmit timer.
    fn send_signal_hop(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId, hop: usize) {
        let Some(st) = self
            .signal_state
            .get(circuit.0 as usize)
            .and_then(|s| s.as_ref())
        else {
            return;
        };
        let (from, to) = (st.path[hop], st.path[hop + 1]);
        let msg = if st.tearing {
            qn_routing::wire::SignalMessage::Teardown { circuit }
        } else {
            qn_routing::wire::SignalMessage::Install {
                entry: st.entries[hop + 1],
            }
        };
        self.transmit(ctx, from, to, true, |b| msg.encode_to(b));
        let event = ctx.schedule_in(RETRANSMIT_BASE, Ev::SignalRetransmit { circuit, hop });
        if let Some(st) = self
            .signal_state
            .get_mut(circuit.0 as usize)
            .and_then(|s| s.as_mut())
        {
            // An unacked INSTALL's timer may still guard this hop when a
            // TEARDOWN overtakes it; the new frame supersedes it.
            if let Some(SignalRetry { event, .. }) =
                st.pending[hop].replace(SignalRetry { attempt: 0, event })
            {
                ctx.cancel(event);
            }
        }
    }

    /// A signalling retransmit timer fired for the frame from
    /// `path[hop]` to `path[hop + 1]`.
    pub(super) fn signal_retransmit_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        circuit: CircuitId,
        hop: usize,
    ) {
        let (msg, from, to, attempt) = {
            let Some(st) = self
                .signal_state
                .get_mut(circuit.0 as usize)
                .and_then(|s| s.as_mut())
            else {
                return;
            };
            let Some(retry) = st.pending[hop].take() else {
                return; // acknowledged meanwhile
            };
            if retry.attempt >= MAX_RETRIES {
                self.plane.stats.retransmits_abandoned += 1;
                return;
            }
            let msg = if st.tearing {
                qn_routing::wire::SignalMessage::Teardown { circuit }
            } else {
                qn_routing::wire::SignalMessage::Install {
                    entry: st.entries[hop + 1],
                }
            };
            (msg, st.path[hop], st.path[hop + 1], retry.attempt + 1)
        };
        self.plane.stats.signal_retransmits += 1;
        let event = ctx.schedule_in(
            backoff(RETRANSMIT_BASE, attempt),
            Ev::SignalRetransmit { circuit, hop },
        );
        if let Some(st) = self
            .signal_state
            .get_mut(circuit.0 as usize)
            .and_then(|s| s.as_mut())
        {
            st.pending[hop] = Some(SignalRetry { attempt, event });
        }
        self.transmit(ctx, from, to, true, |b| msg.encode_to(b));
    }

    /// Demuxed handler for routing-signalling frames (kinds
    /// `0x20..=0x23`) arriving over the wire.
    pub(super) fn handle_signal_frame(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        frame: &[u8],
    ) {
        let msg = match qn_routing::wire::SignalMessage::decode(frame) {
            Ok(msg) => msg,
            Err(err) => {
                self.plane.stats.signal_decode_failures += 1;
                self.trace.record(
                    ctx.now(),
                    TraceKind::Info,
                    format_args!("{to}"),
                    format_args!("undecodable signalling frame dropped: {err}"),
                );
                return;
            }
        };
        use qn_routing::wire::SignalMessage as Sm;
        let circuit = match msg {
            Sm::Install { entry } => entry.circuit,
            Sm::Teardown { circuit } | Sm::InstallAck { circuit } | Sm::TeardownAck { circuit } => {
                circuit
            }
        };
        // Position of the receiving node on the signalled path. Frames
        // for unknown circuits (corrupted id) or from nodes off the path
        // are stale noise: drop.
        let Some(i) = self
            .signal_state
            .get(circuit.0 as usize)
            .and_then(|s| s.as_ref())
            .map(|st| st.path.as_slice())
            .and_then(|p| p.iter().position(|n| *n == to))
        else {
            return;
        };
        match msg {
            Sm::Install { entry } => {
                if i == 0 {
                    return; // the head installs locally, never via wire
                }
                let (first, prev, last) = {
                    let st = self.signal_state[circuit.0 as usize]
                        .as_mut()
                        .expect("checked");
                    let first = !st.installed[i] && !st.tearing;
                    st.installed[i] = true;
                    (first, st.path[i - 1], st.path.len() - 1)
                };
                if first {
                    self.qnp_input(ctx, to, circuit, NetInput::InstallCircuit { entry });
                    if i < last {
                        self.send_signal_hop(ctx, circuit, i);
                    }
                }
                // Always ack — re-acks recover lost acks; a node caught
                // by teardown acks too (the sender must stop either way).
                self.plane.stats.signal_acks += 1;
                let msg = Sm::InstallAck { circuit };
                self.transmit(ctx, to, prev, false, |b| msg.encode_to(b));
            }
            Sm::Teardown { .. } => {
                if i == 0 {
                    return;
                }
                let (first, prev, last) = {
                    let st = self.signal_state[circuit.0 as usize]
                        .as_mut()
                        .expect("checked");
                    let first = !st.torn[i];
                    st.torn[i] = true;
                    st.tearing = true;
                    (first, st.path[i - 1], st.path.len() - 1)
                };
                if first {
                    self.qnp_input(ctx, to, circuit, NetInput::TeardownCircuit { circuit });
                    if i < last {
                        self.send_signal_hop(ctx, circuit, i);
                    } else {
                        self.finish_teardown(circuit);
                    }
                }
                self.plane.stats.signal_acks += 1;
                let msg = Sm::TeardownAck { circuit };
                self.transmit(ctx, to, prev, false, |b| msg.encode_to(b));
            }
            Sm::InstallAck { .. } => {
                let st = self.signal_state[circuit.0 as usize]
                    .as_mut()
                    .expect("checked");
                // Once tearing, the pending slot guards a TEARDOWN; a
                // straggling install ack must not cancel it.
                if !st.tearing {
                    if let Some(SignalRetry { event, .. }) = st.pending[i].take() {
                        ctx.cancel(event);
                    }
                }
            }
            Sm::TeardownAck { .. } => {
                let st = self.signal_state[circuit.0 as usize]
                    .as_mut()
                    .expect("checked");
                if st.tearing {
                    if let Some(SignalRetry { event, .. }) = st.pending[i].take() {
                        ctx.cancel(event);
                    }
                }
            }
        }
    }

    /// Wire-borne teardown: cancel outstanding INSTALL retransmissions,
    /// tear the head down locally, and start the TEARDOWN chain.
    pub(super) fn teardown_wire(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        let (head, more) = {
            let Some(st) = self
                .signal_state
                .get_mut(circuit.0 as usize)
                .and_then(|s| s.as_mut())
            else {
                return;
            };
            if st.tearing {
                return;
            }
            st.tearing = true;
            st.torn[0] = true;
            for slot in &mut st.pending {
                if let Some(SignalRetry { event, .. }) = slot.take() {
                    ctx.cancel(event);
                }
            }
            (st.path[0], st.path.len() > 1)
        };
        self.qnp_input(ctx, head, circuit, NetInput::TeardownCircuit { circuit });
        self.trace.record(
            ctx.now(),
            TraceKind::Info,
            format_args!("signalling"),
            format_args!("{circuit} teardown signalled"),
        );
        if more {
            self.send_signal_hop(ctx, circuit, 0);
        } else {
            self.finish_teardown(circuit);
        }
    }
}
