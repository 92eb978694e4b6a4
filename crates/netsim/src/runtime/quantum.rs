//! Quantum operations on the pair store — [`Ev::SwapDone`] (perfbench
//! span `quantum.swap`), [`Ev::MeasureDone`] (`quantum.measure`),
//! [`Ev::Cutoff`] (`qnp.cutoff`) and [`Ev::Checkpoint`]
//! (`pairs.checkpoint`) — and the release of one pair end.

use super::{CheckpointPolicy, Ev, NetworkModel};
use qn_hardware::pairs::SwapNoise;
use qn_net::events::NetInput;
use qn_net::ids::{CircuitId, Correlator, PairHandle};
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
        let (Some(up_pid), Some(down_pid)) = (
            self.qubit_owner.get(node, up),
            self.qubit_owner.get(node, down),
        ) else {
            // Circuit torn down mid-swap; the SM state went with it.
            return;
        };
        let noise = SwapNoise::from_params(self.nodes[node.0 as usize].device.params());
        let rng = &mut self.rng_nodes[node.0 as usize];
        let res = self
            .pairs
            .swap(up_pid, down_pid, node, ctx.now(), &noise, rng);
        // Free the two local slots.
        for (n, q) in res.freed {
            debug_assert_eq!(n, node);
            self.nodes[n.0 as usize].device.free(q);
        }
        // Re-point surviving references to the joined pair.
        let mut new_refs = Vec::with_capacity(2);
        for (old_pid, consumed_corr) in [(up_pid, up), (down_pid, down)] {
            self.qubit_owner.remove(node, consumed_corr);
            // The swap consumed the link pair at this node: its
            // (wire-mode) reclamation timer and dedup entry are done.
            self.cancel_track_expiry(ctx, node, consumed_corr);
            self.link_delivered.remove(node, consumed_corr);
            if let Some(old) = self.refs.take(old_pid) {
                for (n, c) in old {
                    if n == node && c == consumed_corr {
                        continue;
                    }
                    self.qubit_owner.insert(n, c, res.new_pair);
                    new_refs.push((n, c));
                }
            }
        }
        if new_refs.is_empty() {
            // Both outer ends were already abandoned: drop the pair.
            self.pairs.discard(res.new_pair);
        } else {
            self.refs.insert(res.new_pair, new_refs);
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
            circuit,
            NetInput::SwapCompleted {
                circuit,
                up,
                down,
                outcome: res.outcome,
                new_handle: PairHandle(res.new_pair.0),
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
        let Some(pid) = self.qubit_owner.get(node, correlator) else {
            return;
        };
        let readout = self.nodes[node.0 as usize].device.params().gates.readout;
        let rng = &mut self.rng_nodes[node.0 as usize];
        let result = self
            .pairs
            .measure_end(pid, node, basis, &readout, ctx.now(), rng);
        self.trace.record(
            ctx.now(),
            TraceKind::Quantum,
            format_args!("{node}"),
            format_args!("measure {correlator} in {basis:?} -> {}", result.reported),
        );
        // The measured qubit's slot frees immediately; the pair state
        // stays in the store until both ends are done (correlations!).
        if let Some(pair) = self.pairs.get(pid) {
            if let Some(idx) = pair.end_at(node) {
                let qubit = pair.ends()[idx].qubit;
                self.nodes[node.0 as usize].device.free(qubit);
            }
        }
        self.qubit_owner.remove(node, correlator);
        // The dedup entry is done; the track-expiry timer stays armed —
        // a measured pair still awaits its TRACK, and the timeout is
        // what reclaims the request slot if that TRACK never arrives.
        self.link_delivered.remove(node, correlator);
        if let Some(refs) = self.refs.get_mut(pid) {
            refs.retain(|(n, c)| !(*n == node && *c == correlator));
            if refs.is_empty() {
                self.refs.remove(pid);
                self.pairs.discard(pid);
            }
        }
        self.qnp_input(
            ctx,
            node,
            circuit,
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
        // track-expiry timer (if armed) must never fire late, and the
        // wire-delivery dedup entry is done.
        self.cancel_track_expiry(ctx, node, correlator);
        self.link_delivered.remove(node, correlator);
        let Some(pid) = self.qubit_owner.remove(node, correlator) else {
            return;
        };
        if let Some(refs) = self.refs.get_mut(pid) {
            refs.retain(|(n, c)| !(*n == node && *c == correlator));
            let empty = refs.is_empty();
            // Free the local slot.
            if let Some(pair) = self.pairs.get(pid) {
                if let Some(idx) = pair.end_at(node) {
                    let qubit = pair.ends()[idx].qubit;
                    self.nodes[node.0 as usize].device.free(qubit);
                }
            }
            if empty {
                self.refs.remove(pid);
                self.pairs.discard(pid);
            } else if reinitialise {
                // Full depolarisation of the abandoned end: dephase,
                // then mix the populations.
                self.pairs.apply_dephasing(pid, node, 0.5);
                self.pairs.depolarize_end(pid, node, 1.0);
            }
        }
        self.poll_links_of(ctx, node);
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
            circuit,
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
