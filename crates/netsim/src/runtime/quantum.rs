//! Quantum operations on the pair store — [`Ev::SwapDone`] (perfbench
//! span `quantum.swap`), [`Ev::MeasureDone`] (`quantum.measure`),
//! [`Ev::Cutoff`] (`qnp.cutoff`) and [`Ev::Checkpoint`]
//! (`pairs.checkpoint`) — and the release of one pair end.

use super::{CheckpointPolicy, Ev, NetworkModel};
use qn_hardware::pairs::PairId;
use qn_net::events::NetInput;
use qn_net::ids::{CircuitId, Correlator};
use qn_net::routing_table::LinkSide;
use qn_quantum::gates::Pauli;
use qn_sim::{Context, NodeId, TraceKind};

impl NetworkModel {
    pub(super) fn swap_done(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        up: Correlator,
        down: Correlator,
    ) {
        // Resolve the correlators to the pairs *currently* holding the
        // local qubits (a neighbour's swap may have re-pointed them).
        let (Some(up_end), Some(down_end)) = (
            self.qubit_owner.get(node, up),
            self.qubit_owner.get(node, down),
        ) else {
            // Circuit torn down mid-swap; the SM state went with it.
            return;
        };
        let noise = &self.nodes[node.0 as usize].gates.swap_noise;
        let rng = &mut self.rng_nodes[node.0 as usize];
        let (up_pid, down_pid) = (up_end.pair, down_end.pair);
        let res = self
            .pairs
            .swap(up_pid, down_pid, node, ctx.now(), noise, rng);
        // Free the two local slots.
        for (n, q) in res.freed {
            debug_assert_eq!(n, node);
            self.nodes[n.0 as usize].device.free(q);
        }
        // Re-point the outer ends still held to the joined pair: its end
        // 0 is the up pair's outer end, end 1 the down pair's.
        let outer = self.pairs.get(res.new_pair).expect("the joined pair");
        let outer = outer.ends().each_ref().map(|e| e.node);
        let mut held = false;
        for ((old_pid, consumed), end_node) in
            [(up_pid, up), (down_pid, down)].into_iter().zip(outer)
        {
            self.qubit_owner.remove(node, consumed);
            // The swap consumed the link pair at this node: its
            // (wire-mode) reclamation timer is done.
            self.cancel_track_expiry(ctx, node, consumed);
            if let Some(c) = self.qubit_owner.key_of(end_node, |end| end.pair == old_pid) {
                let end = self.qubit_owner.get_mut(end_node, c).expect("found above");
                end.pair = res.new_pair;
                held = true;
            }
        }
        if !held {
            // Both outer ends were already abandoned: drop the pair.
            self.pairs.discard(res.new_pair);
        }
        self.trace.record(
            ctx.now(),
            TraceKind::Quantum,
            format_args!("{node}"),
            format_args!("SWAP done -> {}", res.outcome),
        );
        self.qnp_input(
            ctx,
            node,
            NetInput::SwapCompleted {
                circuit,
                up,
                down,
                outcome: res.outcome,
            },
        );
        self.poll_links_of(ctx, node);
    }

    pub(super) fn measure_done(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        correlator: Correlator,
        basis: Pauli,
    ) {
        let Some(pid) = self.qubit_owner.get(node, correlator).map(|end| end.pair) else {
            return;
        };
        let readout = self.nodes[node.0 as usize].gates.swap_noise.readout();
        let rng = &mut self.rng_nodes[node.0 as usize];
        let result = self
            .pairs
            .measure_end(pid, node, basis, readout, ctx.now(), rng);
        self.trace.record(
            ctx.now(),
            TraceKind::Quantum,
            format_args!("{node}"),
            format_args!("measure {correlator} in {basis:?} -> {}", result.reported),
        );
        // The track-expiry timer stays armed: a measured pair still
        // awaits its TRACK, and the timeout is what reclaims the request
        // slot if that TRACK never arrives.
        self.qubit_owner.remove(node, correlator);
        // The measured qubit's slot frees immediately; the pair state
        // stays in the store until both ends are done (correlations!).
        self.drop_end(pid, node);
        self.qnp_input(
            ctx,
            node,
            NetInput::MeasureCompleted {
                circuit,
                correlator,
                outcome: result.reported,
            },
        );
        self.poll_links_of(ctx, node);
    }

    /// Free one end of a pair at a node: release the memory slot, drop
    /// the reference, and — because freed qubits get re-initialised for
    /// new attempts — replace the abandoned end with white noise when the
    /// pair survives at the other end.
    pub(super) fn release_end(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        correlator: Correlator,
        reinitialise: bool,
    ) {
        // The pair is resolved at this node whatever happens below: its
        // track-expiry timer (if armed) must never fire late.
        self.cancel_track_expiry(ctx, node, correlator);
        let Some(pid) = self
            .qubit_owner
            .remove(node, correlator)
            .map(|end| end.pair)
        else {
            return;
        };
        if self.drop_end(pid, node) && reinitialise {
            // Full depolarisation of the abandoned end: dephase, then
            // mix the populations.
            self.pairs.apply_dephasing(pid, node, 0.5);
            self.pairs.depolarize_end(pid, node, 1.0);
        }
        self.poll_links_of(ctx, node);
    }

    /// Free `node`'s qubit of `pid`, whose row entry the caller has just
    /// removed, and discard the pair unless its other end's row still
    /// holds it. Returns whether the pair lives on.
    fn drop_end(&mut self, pid: PairId, node: NodeId) -> bool {
        let Some(pair) = self.pairs.get(pid) else {
            return false;
        };
        if let Some(idx) = pair.end_at(node) {
            self.nodes[node.0 as usize]
                .device
                .free(pair.ends()[idx].qubit);
        }
        let held = pair.ends().iter().any(|e| {
            e.node != node
                && self
                    .qubit_owner
                    .key_of(e.node, |end| end.pair == pid)
                    .is_some()
        });
        if !held {
            self.pairs.discard(pid);
        }
        held
    }

    /// A cutoff timer fired: the protocol discards the pair.
    pub(super) fn cutoff(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        side: LinkSide,
        correlator: Correlator,
    ) {
        self.cutoff_events.remove(node, correlator);
        self.qnp_input(
            ctx,
            node,
            NetInput::CutoffExpired {
                circuit,
                side,
                correlator,
            },
        );
    }

    /// Periodic whole-store decoherence sweep; reschedules itself.
    pub(super) fn checkpoint(&mut self, ctx: &mut Context<'_, Ev>) {
        self.pairs.advance_all(ctx.now());
        if let CheckpointPolicy::Interval(dt) = self.cfg.checkpoint {
            ctx.schedule_in(dt, Ev::Checkpoint);
        }
    }
}
