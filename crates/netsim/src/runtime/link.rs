//! Link generation: heralding on each link, pair creation and the
//! PAIR_READY delivery to the QNP — [`Ev::GenDone`] and
//! [`Ev::MoveDone`] (perfbench span `link.gen_done`).

use super::{Ev, Inflight, NetworkModel, RETRANSMIT_BASE};
use qn_hardware::device::QubitId;
use qn_hardware::pairs::PairId;
use qn_link::LinkEvent;
use qn_net::events::{NetInput, PairInfo};
use qn_net::ids::{CircuitId, Correlator, PairHandle, PairRef};
use qn_net::routing_table::LinkSide;
use qn_sim::{Context, LinkId, NodeId, SimDuration, TraceKind};

impl NetworkModel {
    /// Re-examine every link attached to `node` (a qubit freed or a
    /// request changed).
    pub(super) fn poll_links_of(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        for i in 0..self.node_links[node.0 as usize].len() {
            let link = self.node_links[node.0 as usize][i].1;
            self.poll_link(ctx, link);
        }
    }

    /// Start the next generation on a link if the protocol has work and
    /// both endpoint devices can reserve a communication qubit.
    pub(super) fn poll_link(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &mut self.links[link.0 as usize];
        if l.inflight.is_some() {
            return;
        }
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
        l.proto.on_generation_started(spec.label);
        let p = l.proto.physics().success_prob(spec.alpha);
        let attempts = self.rng_links[link.0 as usize].geometric(p);
        let duration = l.proto.physics().cycle_time().saturating_mul(attempts);
        let event = ctx.schedule_in(duration, Ev::GenDone { link });
        l.inflight = Some(Inflight {
            label: spec.label,
            attempts,
            started: ctx.now(),
            event,
            qubit_a: (na, qa),
            qubit_b: (nb, qb),
        });
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
        let (pair, state, events) =
            l.proto
                .on_generation_complete(announced, inflight.attempts, elapsed);
        let (na, qa) = inflight.qubit_a;
        let (nb, qb) = inflight.qubit_b;
        let (t1a, t2a) = self.nodes[na.0 as usize].device.coherence_times(qa);
        let (t1b, t2b) = self.nodes[nb.0 as usize].device.coherence_times(qb);
        let pid = self.pairs.create_pair(
            ctx.now(),
            state,
            announced,
            [(na, qa, t1a, t2a), (nb, qb, t1b, t2b)],
        );
        let correlator = Correlator {
            node_a: pair.id.node_a,
            node_b: pair.id.node_b,
            seq: pair.id.seq,
        };
        self.qubit_owner.insert(na, correlator, pid);
        self.qubit_owner.insert(nb, correlator, pid);
        self.refs
            .insert_pair(pid, (na, correlator), (nb, correlator));
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
            for node in [na, nb] {
                // Slot-ordered scan: deterministic, unlike the hash map
                // iteration this replaced (the dephasing applications
                // commute, but observable order must never depend on
                // hasher state).
                let victims: Vec<PairId> = self
                    .refs
                    .iter()
                    .filter(|(p, ends)| *p != pid && ends.iter().any(|(n, _)| *n == node))
                    .map(|(p, _)| p)
                    .collect();
                // Coherence decays per attempt: λ_total = (1−(1−2λ)^k)/2.
                let lambda_total = 0.5
                    * (1.0 - (1.0 - 2.0 * lambda_per).powi(inflight.attempts.min(1 << 30) as i32));
                for v in victims {
                    self.pairs.apply_dephasing(v, node, lambda_total);
                }
            }
        }

        // Route the pair to the two QNP instances.
        let Some(info) = self.label_map[link.0 as usize]
            .iter()
            .find(|(l, _)| *l == pair.label)
            .map(|(_, info)| info)
        else {
            // Label no longer mapped (circuit torn down): free everything.
            self.release_end(ctx, na, correlator, false);
            self.release_end(ctx, nb, correlator, false);
            return;
        };
        let circuit = info.circuit;
        let upstream_node = info.upstream_node;
        let pair_info = PairInfo {
            pair: PairRef {
                correlator,
                handle: PairHandle(pid.0),
            },
            announced,
        };
        for node in [na, nb] {
            let side = if node == upstream_node {
                LinkSide::Downstream
            } else {
                LinkSide::Upstream
            };
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
                // timescale (the retransmit base), not the end-to-end
                // track-timeout: announcement delivery is one hop, so a
                // pair still unknown after it is gone for good. Never
                // cancelled — a resolved pair makes the check a no-op.
                ctx.schedule_in(
                    RETRANSMIT_BASE,
                    Ev::OrphanCheck {
                        node,
                        circuit,
                        correlator,
                        side,
                    },
                );
                // The announcement crosses the classical plane (latency,
                // batching, faults) and is decoded at the receiver.
                let peer = if node == na { nb } else { na };
                let downstream = peer == upstream_node;
                self.transmit(ctx, peer, node, downstream, |b| {
                    qn_net::wire::encode_link_event(&LinkEvent::PairReady(pair), b)
                });
            } else {
                self.deliver_link_pair(ctx, node, pid, circuit, side, pair_info);
            }
        }

        // The link may start its next generation immediately (if qubits
        // remain free).
        for e in events {
            if let LinkEvent::RequestDone(label) = e {
                if self.cfg.signalling_on_wire {
                    for (from, to) in [(nb, na), (na, nb)] {
                        let downstream = from == upstream_node;
                        self.transmit(ctx, from, to, downstream, |b| {
                            qn_net::wire::encode_link_event(&LinkEvent::RequestDone(label), b)
                        });
                    }
                } else {
                    self.trace.record(
                        ctx.now(),
                        TraceKind::Info,
                        format_args!("{na}-{nb}"),
                        format_args!("link request {label} done"),
                    );
                }
            }
        }
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
        let params = *self.nodes[node.0 as usize].device.params();
        let (t1, t2) = self.nodes[node.0 as usize].device.coherence_times(storage);
        // Transfer noise: two E-C gates plus carbon initialisation.
        let f_move = params.gates.two_qubit.fidelity
            * params.gates.two_qubit.fidelity
            * params.gates.carbon_init.map(|g| g.fidelity).unwrap_or(1.0);
        let p_move = qn_quantum::channels::depolarizing_param_for_fidelity(f_move, 2);
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
            circuit,
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
            if let Some(storage) = self.nodes[node.0 as usize].device.alloc_storage() {
                let params = self.nodes[node.0 as usize].device.params();
                let move_time = 2.0 * params.gates.two_qubit.duration
                    + params.gates.carbon_init.map(|g| g.duration).unwrap_or(0.0);
                ctx.schedule_in(
                    SimDuration::from_secs_f64(move_time),
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
            circuit,
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
    fn pair_ready_at(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId, pair: qn_link::LinkPair) {
        let correlator = Correlator {
            node_a: pair.id.node_a,
            node_b: pair.id.node_b,
            seq: pair.id.seq,
        };
        // A duplication fault can deliver the same announcement twice; a
        // second LinkPair would occupy a second request slot downstream.
        if self.link_delivered.get(node, correlator).is_some() {
            return;
        }
        // The physical qubit may already have been reclaimed (timeout,
        // teardown) by the time the announcement lands: stale, drop.
        let Some(pid) = self.qubit_owner.get(node, correlator) else {
            return;
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
        let side = if node == info.upstream_node {
            LinkSide::Downstream
        } else {
            LinkSide::Upstream
        };
        let pair_info = PairInfo {
            pair: PairRef {
                correlator,
                handle: PairHandle(pid.0),
            },
            announced: pair.announced,
        };
        self.link_delivered.insert(node, correlator, ());
        self.deliver_link_pair(ctx, node, pid, circuit, side, pair_info);
    }

    /// Demuxed handler for link-layer frames (kinds `0x10..=0x12`)
    /// arriving over the wire.
    pub(super) fn handle_link_frame(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to: NodeId,
        frame: &[u8],
    ) {
        match qn_net::wire::decode_link_event(frame) {
            Ok(LinkEvent::PairReady(pair)) => self.pair_ready_at(ctx, to, pair),
            Ok(LinkEvent::RequestDone(label)) => {
                self.trace.record(
                    ctx.now(),
                    TraceKind::Info,
                    format_args!("{to}"),
                    format_args!("link request {label} done"),
                );
            }
            Ok(LinkEvent::Rejected(label, reason)) => {
                self.trace.record(
                    ctx.now(),
                    TraceKind::Info,
                    format_args!("{to}"),
                    format_args!("link request {label} rejected: {reason}"),
                );
            }
            Err(err) => {
                self.plane
                    .stats
                    .count_link_decode_failure(frame.get(1).copied());
                self.trace.record(
                    ctx.now(),
                    TraceKind::Info,
                    format_args!("{to}"),
                    format_args!("undecodable link frame dropped: {err}"),
                );
            }
        }
    }
}
