//! The QNP effect interpreter: runs one input through a node's
//! protocol instance and applies the outputs it asks for. It owns no
//! event; every handler above calls into it.

use super::signalling::TrackRetry;
use super::{Ev, NetworkModel};
use qn_link::LinkRequest;
use qn_net::events::{AppEvent, NetInput, NetOutput};
use qn_net::ids::CircuitId;
use qn_sim::{Context, NodeId, TraceKind};

impl NetworkModel {
    /// Run one input through `node`'s QNP and apply its effects on the
    /// circuit the input names. The output buffer is the model's own,
    /// reused across inputs: taken for the call and put back after, so a
    /// nested call fills a buffer of its own and stays correct.
    pub(super) fn qnp_input(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId, input: NetInput) {
        let circuit = input.circuit();
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
                NetOutput::Send(toward, msg) => {
                    self.maybe_arm_track_retry(ctx, node, circuit, toward, &msg);
                    self.maybe_schedule_request_resend(ctx, node, circuit, toward, &msg);
                    self.send_message(ctx, node, circuit, toward, msg);
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
                    let admitted = self.links[link.0 as usize].proto.submit(LinkRequest {
                        label,
                        min_fidelity,
                        weight,
                    });
                    // The QNP has no input for a refused request: the
                    // refusal is traced where it was submitted.
                    if let Err(reason) = admitted {
                        self.trace.record(
                            ctx.now(),
                            TraceKind::Info,
                            format_args!("{node}"),
                            format_args!("link request {label} rejected: {reason}"),
                        );
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
                    self.stop_link_request(ctx, link, label);
                }
                NetOutput::StartSwap { up, down } => {
                    debug_assert!(self.qubit_owner.get(node, up).is_some());
                    debug_assert!(self.qubit_owner.get(node, down).is_some());
                    self.trace.record(
                        ctx.now(),
                        TraceKind::Quantum,
                        format_args!("{node}"),
                        format_args!("SWAP start ({up} x {down})"),
                    );
                    ctx.schedule_in(
                        self.nodes[node.0 as usize].gates.swap_time,
                        Ev::SwapDone {
                            node,
                            circuit,
                            up,
                            down,
                        },
                    );
                }
                NetOutput::SetCutoff { pair, side, after } => {
                    debug_assert!(
                        !after.is_infinite(),
                        "the LINK rule arms finite cutoffs only"
                    );
                    let ev = ctx.schedule_in(
                        after,
                        Ev::Cutoff {
                            node,
                            circuit,
                            side,
                            correlator: pair,
                        },
                    );
                    self.cutoff_events.insert(node, pair, ev);
                }
                NetOutput::CancelCutoff { pair } => {
                    if let Some(ev) = self.cutoff_events.remove(node, pair) {
                        ctx.cancel(ev);
                    }
                }
                NetOutput::DiscardPair { pair } => {
                    self.discarded_pairs += 1;
                    self.trace.record(
                        ctx.now(),
                        TraceKind::Discard,
                        format_args!("{node}"),
                        format_args!("discard {pair}"),
                    );
                    self.release_end(ctx, node, pair, true);
                }
                NetOutput::MeasureNow { pair, basis } => {
                    ctx.schedule_in(
                        self.nodes[node.0 as usize].gates.readout_time,
                        Ev::MeasureDone {
                            node,
                            circuit,
                            correlator: pair,
                            basis,
                        },
                    );
                }
                NetOutput::ApplyCorrection { pair, pauli } => {
                    if let Some(end) = self.qubit_owner.get(node, pair) {
                        self.pairs.apply_pauli(end.pair, node, pauli, ctx.now());
                        self.trace.record(
                            ctx.now(),
                            TraceKind::Quantum,
                            format_args!("{node}"),
                            format_args!("Pauli {pauli:?} correction on {pair}"),
                        );
                    }
                }
                NetOutput::Deliver(delivery) => {
                    self.record_delivery(ctx, node, circuit, delivery);
                }
                NetOutput::Notify(ev) => {
                    if let AppEvent::EarlyPairExpired { pair, .. } = ev {
                        self.release_end(ctx, node, pair, false);
                    }
                    self.app.on_event(ctx.now(), node, circuit, ev);
                }
            }
        }
    }
}
