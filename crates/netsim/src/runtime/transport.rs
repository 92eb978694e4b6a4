//! Transport: every frame a node sends crosses the classical plane
//! here, and [`Ev::BatchDeliver`] (perfbench span `plane.deliver`)
//! drains an arriving group, demuxes each frame by kind byte, decodes
//! it and answers a TRACK with its end-to-end ack.

use super::{Ev, NetworkModel};
use crate::classical::BatchId;
use qn_net::events::NetInput;
use qn_net::ids::CircuitId;
use qn_net::messages::{Message, TrackAck};
use qn_sim::{Context, LinkId, NodeId, TraceKind};

impl NetworkModel {
    /// Send a QNP message from `from` to its neighbour on `circuit`.
    pub(super) fn send_message(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: Message,
    ) {
        let rt = self.circuit_rt(circuit).expect("circuit installed");
        let (up, down) = rt.neighbours(from);
        let to = if downstream {
            down.expect("downstream neighbour")
        } else {
            up.expect("upstream neighbour")
        };
        if self.transmit(ctx, from, to, downstream, |b| msg.encode_to(b)) {
            self.trace.record(
                ctx.now(),
                TraceKind::Message,
                format_args!("{from}"),
                format_args!(
                    "{} -> {to} ({})",
                    msg.kind_name(),
                    if downstream { "down" } else { "up" }
                ),
            );
        }
    }

    /// Transmit one frame between two adjacent nodes over the classical
    /// plane and schedule the delivery of every group it opens. The
    /// frame crosses the hop as encoded bytes: the plane transports
    /// (and may drop/duplicate/reorder/corrupt) frames, never Rust
    /// values. Encoding goes through the shared scratch buffer, and the
    /// plane groups same-tick frames, so only newly opened groups cost
    /// an event. The lane (`downstream`) only selects the group a frame
    /// coalesces into; receivers demux link-layer and signalling frames
    /// by kind byte, not direction.
    ///
    /// Returns `false` when the hop (or one of its endpoints) is down:
    /// the frame dies on the dead wire. A plan-free run never does that.
    pub(super) fn transmit(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        to: NodeId,
        downstream: bool,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        let link = self.link_between(from, to);
        if !self.hop_alive(link, from, to) {
            self.plane.stats.sent += 1;
            self.plane.stats.dropped += 1;
            return false;
        }
        let latency = self.links[link.0 as usize].latency;
        let frame = self.scratch.frame(encode);
        let opened = self
            .plane
            .transmit(from, to, downstream, ctx.now(), latency, frame);
        for b in opened.into_iter().flatten() {
            ctx.schedule_at(
                b.at,
                Ev::BatchDeliver {
                    to,
                    from_upstream: downstream,
                    batch: b.id,
                    link,
                },
            );
        }
        true
    }

    /// Whether a hop can carry traffic right now: the link is up and so
    /// are both of its endpoints. Always true without a fault plan.
    fn hop_alive(&self, link: LinkId, from: NodeId, to: NodeId) -> bool {
        self.links[link.0 as usize].up
            && self.nodes[from.0 as usize].up
            && self.nodes[to.0 as usize].up
    }

    /// A group of frames arrives: drain it, demux each frame by kind
    /// byte and decode it at the receiver.
    pub(super) fn batch_deliver(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        from_upstream: bool,
        batch: BatchId,
        link: LinkId,
    ) {
        let batch = self
            .plane
            .take_batch(batch)
            .expect("BatchDeliver drains each open group exactly once");
        // A component fault took the hop (or the receiver) down
        // while the group was in flight: every frame in it dies
        // on the wire. Plan-free runs never take this branch.
        if !self.links[link.0 as usize].up || !self.nodes[to.0 as usize].up {
            let lost = batch.frames().count() as u64;
            self.plane.stats.delivered -= lost;
            self.plane.stats.dropped += lost;
            self.plane.recycle(batch);
            return;
        }
        let wire = self.cfg.signalling_on_wire;
        for frame in batch.frames() {
            // One lane carries three planes; the kind byte
            // demuxes. Link-layer and signalling kinds only ever
            // appear with `signalling_on_wire` (their handlers
            // are total regardless).
            match frame.get(1).copied() {
                Some(k)
                    if (qn_net::wire::KIND_LINK_PAIR_READY..=qn_net::wire::KIND_LINK_REJECTED)
                        .contains(&k) =>
                {
                    self.handle_link_frame(ctx, to, frame);
                    continue;
                }
                Some(k)
                    if (qn_net::wire::KIND_SIGNAL_INSTALL
                        ..=qn_net::wire::KIND_SIGNAL_TEARDOWN_ACK)
                        .contains(&k) =>
                {
                    self.handle_signal_frame(ctx, to, frame);
                    continue;
                }
                _ => {}
            }
            // Decode at the receiver: a frame corrupted in flight
            // may fail here (counted, dropped — the message is
            // simply lost) or decode into a different valid
            // message the protocol rules must absorb.
            match Message::decode(frame) {
                Ok(msg) => {
                    let circuit = msg.circuit();
                    let input = NetInput::Message { from_upstream, msg };
                    self.qnp_input(ctx, to, circuit, input);
                    // End-to-end TRACK acknowledgement: an
                    // end-node receiving a TRACK (first copy or
                    // duplicate — re-acks recover lost acks)
                    // answers towards its origin. Guarded
                    // structurally, not just by role: a
                    // corrupted circuit id can name a circuit
                    // this node is not an end of (or not on at
                    // all), and the ack can only go where the
                    // named circuit actually has a hop.
                    let ack_down = !from_upstream;
                    if let Message::Track(t) = msg {
                        let can_ack = wire
                            && self.circuit_rt(circuit).is_some_and(|rt| {
                                match rt.path.iter().position(|n| *n == to) {
                                    Some(0) => ack_down && rt.path.len() > 1,
                                    Some(i) => i + 1 == rt.path.len() && !ack_down,
                                    None => false,
                                }
                            });
                        if can_ack {
                            let ack = Message::TrackAck(TrackAck {
                                circuit,
                                origin: t.origin,
                            });
                            self.plane.stats.track_acks += 1;
                            self.send_message(ctx, to, circuit, ack_down, ack);
                        }
                    }
                }
                Err(err) => {
                    self.plane.stats.count_decode_failure(frame.get(1).copied());
                    self.trace.record(
                        ctx.now(),
                        TraceKind::Info,
                        format_args!("{to}"),
                        format_args!("undecodable frame dropped: {err}"),
                    );
                }
            }
        }
        self.plane.recycle(batch);
    }
}
