//! The QNP effect interpreter: runs one input through a node's
//! protocol instance and applies the outputs it asks for. It owns no
//! event; every handler above calls into it.

use super::signalling::TrackRetry;
use super::{Ev, NetworkModel};
use qn_link::{LinkEvent, LinkRequest, PairDemand};
use qn_net::events::{AppEvent, NetInput, NetOutput};
use qn_net::ids::CircuitId;
use qn_net::routing_table::LinkSide;
use qn_sim::{Context, NodeId, SimDuration, TraceKind};

impl NetworkModel {
    /// Run one input through `node`'s QNP and apply its effects. The
    /// output buffer is the model's own, reused across inputs: taken for
    /// the call and put back after, so a nested call fills a buffer of
    /// its own and stays correct.
    pub(super) fn qnp_input(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        input: NetInput,
    ) {
        let mut outs = std::mem::take(&mut self.outs);
        self.nodes[node.0 as usize].qnp.handle(input, &mut outs);
        self.process_outputs(ctx, node, circuit, &mut outs);
        self.outs = outs;
    }

    /// Apply (and drain) the effects a QNP node requested.
    fn process_outputs(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        outs: &mut Vec<NetOutput>,
    ) {
        for out in outs.drain(..) {
            match out {
                NetOutput::SendUpstream(msg) => {
                    self.maybe_arm_track_retry(ctx, node, circuit, false, &msg);
                    self.maybe_schedule_request_resend(ctx, node, circuit, false, &msg);
                    self.send_message(ctx, node, circuit, false, msg);
                }
                NetOutput::SendDownstream(msg) => {
                    self.maybe_arm_track_retry(ctx, node, circuit, true, &msg);
                    self.maybe_schedule_request_resend(ctx, node, circuit, true, &msg);
                    self.send_message(ctx, node, circuit, true, msg);
                }
                NetOutput::TrackAcked { origin } => {
                    // The peer end-node confirmed our TRACK: disarm the
                    // retransmission. A stray ack (corruption, or an ack
                    // raced by the retry it answers) is a silent no-op.
                    if let Some(TrackRetry { event, .. }) =
                        self.track_retransmits.remove(node, origin)
                    {
                        ctx.cancel(event);
                    }
                }
                NetOutput::LinkSubmit {
                    side,
                    label,
                    min_fidelity,
                    weight,
                } => {
                    let link = self.side_link(circuit, node, side);
                    let evs = self.links[link.0 as usize].proto.submit(LinkRequest {
                        label,
                        min_fidelity,
                        demand: PairDemand::Continuous,
                        weight,
                    });
                    for e in evs {
                        if let LinkEvent::Rejected(l, reason) = e {
                            if self.cfg.signalling_on_wire {
                                // The admission verdict comes back from
                                // the link over the classical plane.
                                let (la, lb) = self.links[link.0 as usize].proto.nodes();
                                let peer = if la == node { lb } else { la };
                                let downstream = side == LinkSide::Upstream;
                                self.transmit(ctx, peer, node, downstream, |b| {
                                    qn_net::wire::encode_link_event(
                                        &LinkEvent::Rejected(l, reason),
                                        b,
                                    )
                                });
                            } else {
                                self.trace.record(
                                    ctx.now(),
                                    TraceKind::Info,
                                    format_args!("{node}"),
                                    format_args!("link request {l} rejected: {reason}"),
                                );
                            }
                        }
                    }
                    self.poll_link(ctx, link);
                }
                NetOutput::LinkSetWeight {
                    side,
                    label,
                    weight,
                } => {
                    let link = self.side_link(circuit, node, side);
                    self.links[link.0 as usize].proto.set_weight(label, weight);
                }
                NetOutput::LinkStop { side, label } => {
                    let link = self.side_link(circuit, node, side);
                    let l = &mut self.links[link.0 as usize];
                    let was_generating = l.proto.generating() == Some(label);
                    l.proto.stop(label);
                    if was_generating {
                        if let Some(inflight) = l.inflight.take() {
                            ctx.cancel(inflight.event);
                            let (na, qa) = inflight.qubit_a;
                            let (nb, qb) = inflight.qubit_b;
                            self.nodes[na.0 as usize].device.free(qa);
                            self.nodes[nb.0 as usize].device.free(qb);
                        }
                    }
                    self.poll_link(ctx, link);
                }
                NetOutput::StartSwap { up, down } => {
                    debug_assert!(self.qubit_owner.get(node, up.correlator).is_some());
                    debug_assert!(self.qubit_owner.get(node, down.correlator).is_some());
                    let params = self.nodes[node.0 as usize].device.params();
                    let dur = params.gates.two_qubit.duration
                        + params.gates.electron_single.duration
                        + 2.0 * params.gates.readout.duration;
                    self.trace.record(
                        ctx.now(),
                        TraceKind::Quantum,
                        format_args!("{node}"),
                        format_args!("SWAP start ({} x {})", up.correlator, down.correlator),
                    );
                    ctx.schedule_in(
                        SimDuration::from_secs_f64(dur),
                        Ev::SwapDone {
                            node,
                            circuit,
                            up: up.correlator,
                            down: down.correlator,
                        },
                    );
                }
                NetOutput::SetCutoff { pair, side, after } => {
                    if after.is_infinite() {
                        continue;
                    }
                    let ev = ctx.schedule_in(
                        after,
                        Ev::Cutoff {
                            node,
                            circuit,
                            side,
                            correlator: pair.correlator,
                        },
                    );
                    self.cutoff_events.insert(node, pair.correlator, ev);
                }
                NetOutput::CancelCutoff { pair } => {
                    if let Some(ev) = self.cutoff_events.remove(node, pair.correlator) {
                        ctx.cancel(ev);
                    }
                }
                NetOutput::DiscardPair { pair } => {
                    self.discarded_pairs += 1;
                    self.trace.record(
                        ctx.now(),
                        TraceKind::Discard,
                        format_args!("{node}"),
                        format_args!("discard {}", pair.correlator),
                    );
                    self.release_end(ctx, node, pair.correlator, true);
                }
                NetOutput::MeasureNow { pair, basis } => {
                    let params = self.nodes[node.0 as usize].device.params();
                    let dur = params.gates.readout.duration;
                    ctx.schedule_in(
                        SimDuration::from_secs_f64(dur),
                        Ev::MeasureDone {
                            node,
                            circuit,
                            correlator: pair.correlator,
                            basis,
                        },
                    );
                }
                NetOutput::ApplyCorrection { pair, pauli } => {
                    if let Some(pid) = self.qubit_owner.get(node, pair.correlator) {
                        self.pairs.apply_pauli(pid, node, pauli, ctx.now());
                        self.trace.record(
                            ctx.now(),
                            TraceKind::Quantum,
                            format_args!("{node}"),
                            format_args!("Pauli {pauli:?} correction on {}", pair.correlator),
                        );
                    }
                }
                NetOutput::Deliver(delivery) => {
                    self.record_delivery(ctx, node, circuit, delivery);
                }
                NetOutput::Notify(ev) => {
                    if let AppEvent::EarlyPairExpired { pair, .. } = &ev {
                        self.release_end(ctx, node, pair.correlator, false);
                    }
                    self.app.on_event(ctx.now(), node, circuit, ev);
                }
            }
        }
    }
}
