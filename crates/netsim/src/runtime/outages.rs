//! Component faults from the run's [`crate::faults::FaultPlan`]: links
//! and nodes going down and coming back — [`Ev::ComponentFault`]
//! (perfbench span `faults.component`).

use super::{Ev, NetworkModel};
use crate::faults::ComponentEvent;
use qn_net::events::NetInput;
use qn_net::ids::{CircuitId, Correlator};
use qn_net::routing_table::LinkSide;
use qn_net::QnpNode;
use qn_sim::{Context, LinkId, NodeId, TraceKind};

impl NetworkModel {
    /// Dispatch one [`ComponentEvent`] from the expanded fault plan.
    pub(super) fn component_fault(&mut self, ctx: &mut Context<'_, Ev>, event: ComponentEvent) {
        match event {
            ComponentEvent::LinkDown { a, b } => self.link_down(ctx, a, b),
            ComponentEvent::LinkUp { a, b } => self.link_up(ctx, a, b),
            ComponentEvent::NodeCrash { node } => self.node_crash(ctx, node),
            ComponentEvent::NodeRestart { node } => self.node_restart(ctx, node),
        }
    }

    /// A link goes down: generation halts (any heralding attempt in
    /// flight dies), new frames on the hop are dropped at the sender,
    /// in-flight batches die at delivery, and the link's live pairs are
    /// scrapped through the protocols' expiry machinery.
    fn link_down(&mut self, ctx: &mut Context<'_, Ev>, a: NodeId, b: NodeId) {
        let link = self
            .hop(a, b)
            .expect("validated fault plan names an existing link");
        debug_assert!(self.links[link.0 as usize].up, "expanded outages alternate");
        self.links[link.0 as usize].up = false;
        self.trace.record(
            ctx.now(),
            TraceKind::Info,
            format_args!("{a}"),
            format_args!("link {a}-{b} DOWN"),
        );
        self.refresh_link_activity(ctx, link);
        self.scrap_link_pairs(ctx, link);
    }

    /// A downed link comes back: resume generation (unless an endpoint
    /// is still crashed) and re-poll for queued work.
    fn link_up(&mut self, ctx: &mut Context<'_, Ev>, a: NodeId, b: NodeId) {
        let link = self
            .hop(a, b)
            .expect("validated fault plan names an existing link");
        debug_assert!(
            !self.links[link.0 as usize].up,
            "expanded outages alternate"
        );
        self.links[link.0 as usize].up = true;
        self.trace.record(
            ctx.now(),
            TraceKind::Info,
            format_args!("{a}"),
            format_args!("link {a}-{b} UP"),
        );
        self.refresh_link_activity(ctx, link);
    }

    /// A node crashes: its volatile protocol state is lost, every pair
    /// end it holds is reclaimed, its timers are disarmed, its attached
    /// links halt, and circuits routed through it are torn down
    /// end-to-end by the management plane (end-nodes see
    /// [`AppEvent::CircuitDown`](qn_net::events::AppEvent::CircuitDown)).
    /// Counters ([`NodeStats`](qn_net::node::NodeStats)) survive — they
    /// model the experimenter's observability, not device memory.
    fn node_crash(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        let idx = node.0 as usize;
        debug_assert!(self.nodes[idx].up, "expanded outages alternate");
        self.nodes[idx].up = false;
        self.trace.record(
            ctx.now(),
            TraceKind::Info,
            format_args!("{node}"),
            format_args!("node {node} CRASH"),
        );
        // Tear down circuits through the node first, while the path
        // metadata is still installed: live path nodes discard their
        // queued pairs and stop their link requests through the normal
        // teardown rule; the dead node is skipped (its state is gone).
        let affected: Vec<CircuitId> = self
            .circuits
            .iter()
            .enumerate()
            .filter(|(_, rt)| rt.as_ref().is_some_and(|rt| rt.path.contains(&node)))
            .map(|(i, _)| CircuitId(i as u64))
            .collect();
        for circuit in affected {
            self.teardown_by_fault(ctx, circuit, node);
        }
        // The crash wipes the node's protocol state; stale correlators
        // arriving after restart hit a fresh instance and are absorbed
        // (and counted) by the anomaly rules.
        let stats = self.nodes[idx].qnp.stats;
        self.nodes[idx].qnp = QnpNode::new(node, self.cfg.duplicate_tracks());
        self.nodes[idx].qnp.stats = stats;
        // Reclaim every pair end the node still holds (memory power
        // loss): the far ends of swapped chains survive, depolarised.
        let held: Vec<Correlator> = self.qubit_owner.row(node).iter().map(|(c, _)| *c).collect();
        for correlator in held {
            self.discarded_pairs += 1;
            self.release_end(ctx, node, correlator, true);
        }
        // Disarm every timer keyed at the node.
        for (_, ev) in self.cutoff_events.drain_row(node) {
            ctx.cancel(ev);
        }
        for (_, ev) in self.track_expiry_events.drain_row(node) {
            ctx.cancel(ev);
        }
        for (_, retry) in self.track_retransmits.drain_row(node) {
            ctx.cancel(retry.event);
        }
        // Attached links can no longer generate.
        self.refresh_links_of(ctx, node);
    }

    /// A crashed node restarts with a blank protocol instance and
    /// re-registers its links: any attached link whose other pieces are
    /// healthy resumes generation immediately.
    fn node_restart(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        let idx = node.0 as usize;
        debug_assert!(!self.nodes[idx].up, "expanded outages alternate");
        self.nodes[idx].up = true;
        self.trace.record(
            ctx.now(),
            TraceKind::Info,
            format_args!("{node}"),
            format_args!("node {node} RESTART"),
        );
        self.refresh_links_of(ctx, node);
    }

    /// [`Self::refresh_link_activity`] on every link attached to `node`.
    fn refresh_links_of(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        for i in 0..self.node_links[node.0 as usize].len() {
            let link = self.node_links[node.0 as usize][i].1;
            self.refresh_link_activity(ctx, link);
        }
    }

    /// Reconcile a link's generation with the up/down state of the link
    /// and its endpoints: a dead hop drops the heralding attempt in
    /// flight, a live one polls for its next generation. Requests stay
    /// admitted either way, so those held through an outage resume when
    /// it ends.
    fn refresh_link_activity(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        if self.hop_alive(link) {
            self.poll_link(ctx, link);
        } else {
            self.drop_inflight(ctx, link);
        }
    }

    /// Scrap every live pair end whose correlator was generated on a
    /// link that just died, through the protocols' own expiry machinery:
    /// end-nodes expire the pair as if its track-timeout fired,
    /// repeaters as if its cutoff fired (both paths discard the pair,
    /// record the dead correlator and recover lost TRACKs with EXPIREs).
    /// Ends the protocol never learned of (announcement lost with the
    /// link) are reclaimed directly, like the orphan check would.
    fn scrap_link_pairs(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let (a, b) = (self.links[link.0 as usize].a, self.links[link.0 as usize].b);
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        for node in [a, b] {
            let held: Vec<Correlator> = self
                .qubit_owner
                .row(node)
                .iter()
                .map(|(c, _)| *c)
                .filter(|c| c.node_a == lo && c.node_b == hi)
                .collect();
            for correlator in held {
                let owner = self.label_map[link.0 as usize]
                    .iter()
                    .find(|(_, info)| {
                        self.nodes[node.0 as usize]
                            .qnp
                            .knows_pair(info.circuit, correlator)
                    })
                    .map(|(_, info)| (info.circuit, info.side_at(node)));
                match owner {
                    Some((circuit, side)) => {
                        let input = if self.is_intermediate_on(circuit, node) {
                            if let Some(ev) = self.cutoff_events.remove(node, correlator) {
                                ctx.cancel(ev);
                            }
                            NetInput::CutoffExpired {
                                circuit,
                                side,
                                correlator,
                            }
                        } else {
                            self.cancel_track_expiry(ctx, node, correlator);
                            NetInput::TrackTimeout {
                                circuit,
                                correlator,
                            }
                        };
                        self.qnp_input(ctx, node, input);
                    }
                    None => {
                        self.discarded_pairs += 1;
                        self.release_end(ctx, node, correlator, true);
                    }
                }
            }
        }
    }

    /// Management-plane teardown after a node death: every *live* node
    /// on the path drops the circuit through the normal teardown rule
    /// (end-nodes report
    /// [`AppEvent::CircuitDown`](qn_net::events::AppEvent::CircuitDown)
    /// to their applications), and the dead node's link request on its
    /// downstream hop stops as its own rule would have stopped it;
    /// wire-signalling retransmit timers for the circuit are disarmed —
    /// there is no peer left to ack them.
    fn teardown_by_fault(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId, dead: NodeId) {
        let Some(rt) = self.circuit_rt(circuit) else {
            return;
        };
        let path = rt.path.clone();
        // The dead node's state went with it, so no teardown rule runs
        // there; a request it submitted would otherwise outlive the
        // circuit and herald pairs for its label after the restart.
        if let Some(down) = rt.neighbour(dead, LinkSide::Downstream) {
            let link = self.link_between(dead, down);
            let own = self.label_map[link.0 as usize]
                .iter()
                .find(|(_, info)| info.circuit == circuit)
                .map(|(label, _)| *label)
                .filter(|label| self.links[link.0 as usize].proto.has_request(*label));
            if let Some(label) = own {
                self.stop_link_request(ctx, link, label);
            }
        }
        if let Some(st) = self
            .signal_state
            .get_mut(circuit.0 as usize)
            .and_then(Option::as_mut)
        {
            st.tearing = true;
            for slot in st.pending.iter_mut() {
                if let Some(retry) = slot.take() {
                    ctx.cancel(retry.event);
                }
            }
            for torn in st.torn.iter_mut() {
                *torn = true;
            }
        }
        for node in path {
            if node == dead || !self.nodes[node.0 as usize].up {
                continue;
            }
            self.qnp_input(ctx, node, NetInput::TeardownCircuit { circuit });
        }
        self.finish_teardown(circuit);
    }
}
