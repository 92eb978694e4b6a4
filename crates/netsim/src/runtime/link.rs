//! Link generation: heralding on each link, pair creation and the
//! PAIR_READY delivery to the QNP — [`Ev::GenDone`] and
//! [`Ev::MoveDone`] (perfbench span `link.gen_done`).

use super::{Ev, HeldEnd, Inflight, NetworkModel, RETRANSMIT_BASE};
use qn_hardware::device::QubitId;
use qn_hardware::pairs::PairId;
use qn_link::{LinkLabel, LinkPair};
use qn_net::events::{NetInput, PairInfo};
use qn_net::ids::CircuitId;
use qn_net::routing_table::LinkSide;
use qn_net::wire::Frame;
use qn_sim::{Context, LinkId, NodeId, TraceKind};

impl NetworkModel {
    /// Re-examine every link attached to `node` (a qubit freed or a
    /// request changed).
    pub(super) fn poll_links_of(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        for i in 0..self.node_links[node.0 as usize].len() {
            let link = self.node_links[node.0 as usize][i].1;
            self.poll_link(ctx, link);
        }
    }

    /// Start the next generation on a link that is idle and alive (the
    /// link and both its ends up) if the protocol has work and both
    /// endpoint devices can reserve a communication qubit.
    pub(super) fn poll_link(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        if self.links[link.0 as usize].inflight.is_some() || !self.hop_alive(link) {
            return;
        }
        let l = &self.links[link.0 as usize];
        let Some(spec) = l.proto.next_action() else {
            return;
        };
        let (na, nb) = (l.a, l.b);
        // Reserve a communication qubit at each end, or stall.
        let Some(qa) = self.nodes[na.0 as usize].device.alloc_comm(link) else {
            return;
        };
        let Some(qb) = self.nodes[nb.0 as usize].device.alloc_comm(link) else {
            self.nodes[na.0 as usize].device.free(qa);
            return;
        };
        let l = &mut self.links[link.0 as usize];
        let attempts = self.rng_links[link.0 as usize].sample_geometric(spec.attempts);
        let duration = l.proto.physics().cycle_time().saturating_mul(attempts);
        let event = ctx.schedule_in(duration, Ev::GenDone { link });
        l.inflight = Some(Inflight {
            label: spec.label,
            attempts,
            started: ctx.now(),
            event,
            qubit_a: qa,
            qubit_b: qb,
        });
    }

    /// Stop `label`'s request on `link`: a generation in flight for it
    /// is dropped with its reserved qubits, and the link moves on to
    /// its next request.
    pub(super) fn stop_link_request(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        link: LinkId,
        label: LinkLabel,
    ) {
        let l = &mut self.links[link.0 as usize];
        l.proto.stop(label);
        if l.inflight.as_ref().is_some_and(|f| f.label == label) {
            self.drop_inflight(ctx, link);
        }
        self.poll_link(ctx, link);
    }

    /// Drop the heralding attempt in flight on `link`, if any: its
    /// [`Ev::GenDone`] is cancelled, its elapsed time is charged to its
    /// label (a stopped label has nothing left to charge), and both
    /// reserved communication qubits return to their devices.
    pub(super) fn drop_inflight(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &mut self.links[link.0 as usize];
        let Some(inflight) = l.inflight.take() else {
            return;
        };
        ctx.cancel(inflight.event);
        let elapsed = ctx.now().since(inflight.started);
        l.proto.on_generation_aborted(inflight.label, elapsed);
        let (na, nb) = (l.a, l.b);
        self.nodes[na.0 as usize].device.free(inflight.qubit_a);
        self.nodes[nb.0 as usize].device.free(inflight.qubit_b);
    }

    /// A link generation heralded success: create the physical pair,
    /// charge nuclear dephasing, notify the network layers.
    pub(super) fn gen_done(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &mut self.links[link.0 as usize];
        let inflight = l.inflight.take().expect("GenDone without inflight");
        let elapsed = ctx.now().since(inflight.started);
        let announced = l
            .proto
            .physics()
            .sample_announced(&mut self.rng_links[link.0 as usize]);
        let (pair, state) =
            l.proto
                .on_generation_complete(inflight.label, announced, inflight.attempts, elapsed);
        let (na, nb) = (l.a, l.b);
        let (qa, qb) = (inflight.qubit_a, inflight.qubit_b);
        let (t1a, t2a) = self.nodes[na.0 as usize].device.coherence_times(qa);
        let (t1b, t2b) = self.nodes[nb.0 as usize].device.coherence_times(qb);
        let pid = self.pairs.create_pair(
            ctx.now(),
            state,
            announced,
            [(na, qa, t1a, t2a), (nb, qb, t1b, t2b)],
        );
        let correlator = pair.id;
        let end = HeldEnd {
            pair: pid,
            link_delivered: false,
        };
        self.qubit_owner.insert(na, correlator, end);
        self.qubit_owner.insert(nb, correlator, end);
        self.trace.record(
            ctx.now(),
            TraceKind::LinkPair,
            format_args!("{na}-{nb}"),
            format_args!(
                "pair {correlator} ({announced}) after {} attempts",
                inflight.attempts
            ),
        );

        // Nuclear dephasing: the attempts degrade carbon-stored qubits at
        // both endpoint devices (near-term mode).
        let lambda_per = self.nodes[na.0 as usize]
            .device
            .params()
            .nuclear_dephasing_per_attempt(pair.alpha);
        if lambda_per > 0.0 {
            // Coherence decays per attempt: λ_total = (1−(1−2λ)^k)/2.
            let lambda_total =
                0.5 * (1.0 - (1.0 - 2.0 * lambda_per).powi(inflight.attempts.min(1 << 30) as i32));
            for node in [na, nb] {
                // Every other pair end the node holds; each application
                // touches one pair only, so the row's order is harmless.
                for &(_, victim) in self.qubit_owner.row(node) {
                    if victim.pair != pid {
                        self.pairs.apply_dephasing(victim.pair, node, lambda_total);
                    }
                }
            }
        }

        // Route the pair to the two QNP instances.
        let Some(info) = self.label_map[link.0 as usize]
            .iter()
            .find(|(l, _)| *l == pair.label)
            .map(|(_, info)| *info)
        else {
            // Label no longer mapped (circuit torn down): free everything.
            self.release_end(ctx, na, correlator, false);
            self.release_end(ctx, nb, correlator, false);
            return;
        };
        let circuit = info.circuit;
        let orphan_after = RETRANSMIT_BASE.max(self.links[link.0 as usize].latency * 2);
        let pair_info = PairInfo {
            pair: correlator,
            announced,
        };
        for node in [na, nb] {
            let side = info.side_at(node);
            // On a faulty plane an end-node's chain can lose its
            // TRACK/EXPIRE forever; the optional track-timeout frees
            // the qubit instead of holding it until the heat death of
            // the run. Never armed by default. Armed *before* delivery
            // so an immediately rejected pair cancels it right back via
            // `release_end`.
            if let Some(timeout) = self.cfg.track_timeout {
                if !self.is_intermediate_on(circuit, node) {
                    self.arm_track_expiry(ctx, node, circuit, correlator, timeout);
                }
            }
            if self.cfg.signalling_on_wire {
                // With the announcement itself on the wire, PAIR_READY
                // can be lost — the receiver then holds a qubit the QNP
                // never hears about, outside every protocol timer. The
                // orphan check fires on the classical plane's response
                // timescale, not the end-to-end track-timeout:
                // announcement delivery is one hop, so a pair still
                // unknown after the retransmit base, or after the hop's
                // round trip when that is longer, is gone for good. Never
                // cancelled — a resolved pair makes the check a no-op.
                ctx.schedule_in(
                    orphan_after,
                    Ev::OrphanCheck {
                        node,
                        circuit,
                        correlator,
                        side,
                    },
                );
                // The announcement crosses the classical plane (latency,
                // batching, faults) to the receiver.
                let peer = if node == na { nb } else { na };
                self.transmit(ctx, peer, node, side.opposite(), Frame::PairReady(pair));
            } else {
                self.deliver_link_pair(ctx, node, pid, circuit, side, pair_info);
            }
        }

        // The link may start its next generation immediately (if qubits
        // remain free).
        self.poll_link(ctx, link);
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MoveDone event fields
    pub(super) fn move_done(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        pid: PairId,
        storage: QubitId,
        circuit: CircuitId,
        side: LinkSide,
        info: PairInfo,
    ) {
        // The pair may have died while moving (other end discarded).
        if !self.pairs.contains(pid) || self.pairs.get(pid).and_then(|p| p.end_at(node)).is_none() {
            self.nodes[node.0 as usize].device.free(storage);
            return;
        }
        let n = &self.nodes[node.0 as usize];
        let (t1, t2) = n.device.coherence_times(storage);
        let p_move = n.gates.move_noise;
        let electron = self
            .pairs
            .retarget_end(pid, node, storage, t1, t2, p_move, ctx.now());
        self.nodes[node.0 as usize].device.free(electron);
        self.trace.record(
            ctx.now(),
            TraceKind::Quantum,
            format_args!("{node}"),
            format_args!("moved pair end to storage {storage}"),
        );
        self.qnp_input(
            ctx,
            node,
            NetInput::LinkPair {
                circuit,
                side,
                info,
            },
        );
        self.poll_links_of(ctx, node);
    }

    /// Deliver a link pair announcement to one node's QNP, routing
    /// near-term repeaters through the move-to-storage step first.
    fn deliver_link_pair(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        pid: PairId,
        circuit: CircuitId,
        side: LinkSide,
        info: PairInfo,
    ) {
        // Near-term repeaters must move the pair into carbon storage
        // before the shared electron frees up; the network layer learns
        // of the pair once it is safely stored.
        if self.cfg.near_term.is_some() && self.is_intermediate_on(circuit, node) {
            let n = &mut self.nodes[node.0 as usize];
            if let Some(storage) = n.device.alloc_storage() {
                ctx.schedule_in(
                    n.gates.move_time,
                    Ev::MoveDone {
                        node,
                        pair: pid,
                        storage,
                        circuit,
                        side,
                        info,
                    },
                );
                return;
            }
            // No storage: the electron stays occupied; deliver anyway.
        }
        self.qnp_input(
            ctx,
            node,
            NetInput::LinkPair {
                circuit,
                side,
                info,
            },
        );
    }

    /// A PAIR_READY frame reached `node` over the wire: resolve it
    /// against the runtime's current state (the pair may be long gone)
    /// and hand it to the local QNP exactly once.
    pub(super) fn pair_ready_at(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        pair: LinkPair,
    ) {
        let correlator = pair.id;
        // The physical qubit may already have been reclaimed (timeout,
        // teardown) by the time the announcement lands: stale, drop. A
        // duplication fault can deliver the same announcement twice; a
        // second LinkPair would occupy a second request slot downstream.
        let pid = match self.qubit_owner.get(node, correlator) {
            Some(end) if !end.link_delivered => end.pair,
            _ => return,
        };
        let Some(link) = self.hop(pair.id.node_a, pair.id.node_b) else {
            return;
        };
        let Some(info) = self.label_map[link.0 as usize]
            .iter()
            .find(|(l, _)| *l == pair.label)
            .map(|(_, info)| info)
        else {
            // Circuit torn down while the frame was in flight: free the
            // local end (the other end resolves on its own copy).
            self.release_end(ctx, node, correlator, false);
            return;
        };
        let circuit = info.circuit;
        let side = info.side_at(node);
        let pair_info = PairInfo {
            pair: correlator,
            announced: pair.announced,
        };
        self.qubit_owner
            .get_mut(node, correlator)
            .expect("checked above")
            .link_delivered = true;
        self.deliver_link_pair(ctx, node, pid, circuit, side, pair_info);
    }
}
