//! Transport: every frame a node sends crosses the classical plane
//! here, and [`Ev::BatchDeliver`] (perfbench span `plane.deliver`)
//! drains an arriving group, hands each frame to its plane's handler,
//! counts each frame a corruption left undecodable and answers a TRACK
//! with its end-to-end ack.

use super::{Ev, NetworkModel};
use crate::classical::{BatchId, Undecodable};
use qn_net::events::NetInput;
use qn_net::ids::CircuitId;
use qn_net::messages::{Message, TrackAck};
use qn_net::routing_table::LinkSide;
use qn_net::wire::Frame;
use qn_sim::{Context, LinkId, NodeId, TraceKind};

impl NetworkModel {
    /// Send a QNP message from `from` to its neighbour on the `toward`
    /// side of `circuit`.
    pub(super) fn send_message(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        circuit: CircuitId,
        toward: LinkSide,
        msg: Message,
    ) {
        let rt = self.circuit_rt(circuit).expect("circuit installed");
        let to = rt
            .neighbour(from, toward)
            .expect("a neighbour on that side");
        if self.transmit(ctx, from, to, toward, Frame::Qnp(msg)) {
            self.trace.record(
                ctx.now(),
                TraceKind::Message,
                format_args!("{from}"),
                format_args!(
                    "{} -> {to} ({})",
                    msg.kind_name(),
                    match toward {
                        LinkSide::Upstream => "up",
                        LinkSide::Downstream => "down",
                    }
                ),
            );
        }
    }

    /// Transmit one frame between two adjacent nodes over the classical
    /// plane and schedule the delivery of every group it opens. The
    /// plane carries (and may drop/duplicate/reorder/corrupt) the frame
    /// as a value, and groups same-tick frames, so only newly opened
    /// groups cost an event. The lane (`toward`, the side of `from`
    /// that `to` is on) only selects the group a frame coalesces into;
    /// receivers tell the planes apart by the frame, not by direction.
    ///
    /// Returns `false` when the hop (or one of its endpoints) is down:
    /// the frame dies on the dead wire. A plan-free run never does that.
    pub(super) fn transmit(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        to: NodeId,
        toward: LinkSide,
        frame: Frame,
    ) -> bool {
        let link = self.link_between(from, to);
        if !self.hop_alive(link) {
            self.plane.stats.sent += 1;
            self.plane.stats.dropped += 1;
            return false;
        }
        let latency = self.links[link.0 as usize].latency;
        let opened = self
            .plane
            .transmit(from, to, toward, ctx.now(), latency, &frame);
        for b in opened.into_iter().flatten() {
            ctx.schedule_at(
                b.at,
                Ev::BatchDeliver {
                    to,
                    from: toward.opposite(),
                    batch: b.id,
                    link,
                },
            );
        }
        true
    }

    /// A group of frames arrives: drain it and hand each frame to the
    /// receiver.
    pub(super) fn batch_deliver(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        from: LinkSide,
        batch: BatchId,
        link: LinkId,
    ) {
        let arrivals = self
            .plane
            .take_batch(batch)
            .expect("BatchDeliver drains each open group exactly once");
        // A component fault took the hop (or the receiver) down
        // while the group was in flight: every frame in it dies
        // on the wire. Plan-free runs never take this branch.
        if !self.links[link.0 as usize].up || !self.nodes[to.0 as usize].up {
            let lost = arrivals.len() as u64;
            self.plane.stats.delivered -= lost;
            self.plane.stats.dropped += lost;
            self.plane.recycle(arrivals);
            return;
        }
        for &arrival in &arrivals {
            // A frame corrupted in flight may not decode (counted against
            // the plane its kind byte names, and dropped — the message is
            // simply lost) or may have become a different valid frame
            // the handlers must absorb. PAIR_READY and signalling frames
            // only ever travel with `signalling_on_wire` (their handlers
            // are total regardless).
            match arrival {
                Ok(Frame::Qnp(msg)) => self.message_received(ctx, to, from, msg),
                Ok(Frame::PairReady(pair)) => self.pair_ready_at(ctx, to, pair),
                Ok(Frame::Signal(msg)) => self.signal_received(ctx, to, msg),
                Err(Undecodable { kind, error }) => {
                    self.plane.stats.count_decode_failure(kind);
                    self.trace.record(
                        ctx.now(),
                        TraceKind::Info,
                        format_args!("{to}"),
                        format_args!("undecodable frame dropped: {error}"),
                    );
                }
            }
        }
        self.plane.recycle(arrivals);
    }

    /// A QNP message reached `to` from its `from` side: hand it to the
    /// node's QNP and, in wire mode, answer a TRACK with its ack.
    fn message_received(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        from: LinkSide,
        msg: Message,
    ) {
        let circuit = msg.circuit();
        self.qnp_input(ctx, to, NetInput::Message { from, msg });
        // End-to-end TRACK acknowledgement: an end-node receiving a
        // TRACK (first copy or duplicate — re-acks recover lost acks)
        // answers back the way it came, towards its origin. Guarded
        // structurally, not just by role: a corrupted circuit id can
        // name a circuit this node is not an end of (or not on at all),
        // and the ack can only go where the named circuit actually has
        // a hop.
        if let Message::Track(t) = msg {
            let can_ack = self.cfg.signalling_on_wire
                && self.circuit_rt(circuit).is_some_and(|rt| {
                    match rt.path.iter().position(|n| *n == to) {
                        Some(0) => from == LinkSide::Downstream && rt.path.len() > 1,
                        Some(i) => i + 1 == rt.path.len() && from == LinkSide::Upstream,
                        None => false,
                    }
                });
            if can_ack {
                let ack = Message::TrackAck(TrackAck {
                    circuit,
                    origin: t.origin,
                });
                self.plane.stats.track_acks += 1;
                self.send_message(ctx, to, circuit, from, ack);
            }
        }
    }
}
