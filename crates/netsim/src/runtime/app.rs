//! Application hooks and accounting — [`Ev::SubmitRequest`] and
//! [`Ev::CancelRequest`] (perfbench span `app.submit`),
//! [`Ev::Teardown`] (`app.teardown`) — and the record of each delivery.

use super::{Ev, NetworkModel};
use crate::app::{DeliveryRecord, Payload};
use qn_net::events::{DeliveryKind, NetInput};
use qn_net::ids::{CircuitId, RequestId};
use qn_net::request::UserRequest;
use qn_sim::{Context, NodeId, TraceKind};

impl NetworkModel {
    /// Submit an application request at the circuit's head-end.
    pub(super) fn submit_request(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        circuit: CircuitId,
        request: UserRequest,
    ) {
        let head = self.circuit_rt(circuit).expect("circuit installed").path[0];
        self.app.submitted.insert((circuit, request.id), ctx.now());
        self.qnp_input(
            ctx,
            head,
            circuit,
            NetInput::UserRequest { circuit, request },
        );
    }

    /// Cancel a request at the circuit's head-end.
    pub(super) fn cancel_request(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        circuit: CircuitId,
        request: RequestId,
    ) {
        let head = self.circuit_rt(circuit).expect("circuit installed").path[0];
        self.qnp_input(
            ctx,
            head,
            circuit,
            NetInput::CancelRequest { circuit, request },
        );
    }

    /// Tear a circuit down at every node: the QNP aborts requests and
    /// releases pairs; the label mapping is removed so in-flight link
    /// generations for the circuit are dropped at delivery.
    pub(super) fn teardown(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        if self.cfg.signalling_on_wire {
            return self.teardown_wire(ctx, circuit);
        }
        let Some(rt) = self.circuit_rt(circuit) else {
            return;
        };
        let path = rt.path.clone();
        for node in path {
            self.qnp_input(ctx, node, circuit, NetInput::TeardownCircuit { circuit });
        }
        self.trace.record(
            ctx.now(),
            TraceKind::Info,
            format_args!("signalling"),
            format_args!("{circuit} torn down"),
        );
        self.finish_teardown(circuit);
    }

    pub(super) fn record_delivery(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        delivery: qn_net::events::Delivery,
    ) {
        let now = ctx.now();
        // A confirmed delivery resolves the local end of the chain, so
        // its track-expiry timer must not fire later. Measured pairs
        // bypass `release_end` (the qubit slot was freed at readout), so
        // the cancellation lives here. Only the local end's correlator
        // can be in this node's row; trying both sides of the chain is
        // cheaper than resolving which end we are.
        if let Some(chain) = delivery.chain {
            for c in [chain.head, chain.tail] {
                self.cancel_track_expiry(ctx, node, c);
            }
        }
        let (oracle, consistent, release) = match &delivery.kind {
            // Confirmed deliveries: read the oracle, then release the
            // local end (the application consumed the qubit). Fidelity is
            // measured against the *omniscient* frame (the pair's true
            // quality); `state_consistent` separately records whether the
            // protocol's claimed Bell state agrees. For final-state
            // requests the tail can deliver before the head's physical
            // correction lands — transiently "inconsistent" by design.
            DeliveryKind::Qubit { pair, state } | DeliveryKind::EarlyTracking { pair, state } => {
                let pid = self.qubit_owner.get(node, pair.correlator);
                match pid {
                    Some(pid) => {
                        let omniscient = self.pairs.get(pid).map(|p| p.announced);
                        let frame = omniscient.unwrap_or(*state);
                        let f = self.pairs.fidelity_to(pid, frame, now);
                        let consistent = omniscient.map(|o| o == *state);
                        (Some(f), consistent, true)
                    }
                    None => (None, None, false),
                }
            }
            // EARLY qubits are unconfirmed: the qubit stays live until
            // the tracking info (or an expiry notification) arrives.
            DeliveryKind::EarlyQubit { .. } => (None, None, false),
            DeliveryKind::Measurement { .. } => (None, None, false),
        };
        let payload = Payload::from_kind(&delivery.kind);
        if let Some(c) = consistent {
            if !c {
                self.state_mismatches += 1;
            }
        }
        self.trace.record(
            now,
            TraceKind::Delivery,
            format_args!("{node}"),
            format_args!(
                "deliver req {} seq {} ({:?})",
                delivery.request, delivery.sequence, payload
            ),
        );
        self.app.deliveries.push(DeliveryRecord {
            time: now,
            node,
            circuit,
            request: delivery.request,
            sequence: delivery.sequence,
            chain: delivery.chain,
            payload,
            oracle_fidelity: oracle,
            state_consistent: consistent,
        });
        if release {
            if let DeliveryKind::Qubit { pair, .. } | DeliveryKind::EarlyTracking { pair, .. } =
                &delivery.kind
            {
                self.release_end(ctx, node, pair.correlator, false);
            }
        }
    }
}
