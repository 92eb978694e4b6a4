//! The network simulation runtime: the discrete-event [`Model`] that
//! wires the hardware substrate, the link layer and the QNP node state
//! machines together.
//!
//! Responsibilities (everything the sans-IO cores delegate), one module
//! each, cut where perfbench's spans sit:
//!
//! * `transport` — classical messaging: reliable, in-order, per-hop FIFO
//!   channels with propagation + processing delay and Fig 10c's
//!   injectable extra delay;
//! * `signalling` — link and routing signalling on the wire, with its
//!   acks, retransmission and timers;
//! * `link` — link-pair generation: geometric fast-forward sampling of
//!   the heralding process, qubit reservation at both ends (the Fig 8c
//!   congestion mechanism), physical pair creation, nuclear dephasing of
//!   stored qubits at the endpoint devices, and near-term mode's move to
//!   carbon storage before a repeater can serve its second link
//!   (Fig 11);
//! * `quantum` — timed noisy swaps and measurements against the
//!   [`PairStore`], cutoff timers, pair release bookkeeping;
//! * `outages` — component faults;
//! * `app` — application accounting: the [`AppHarness`] with oracle
//!   annotations.
//!
//! `qnp` applies the QNP's outputs and `tables` holds the per-node
//! lookup tables. This module holds the configuration, the event
//! alphabet, the model's state, circuit installation and the dispatch
//! of each event to its module.

mod app;
mod link;
mod outages;
mod qnp;
mod quantum;
mod signalling;
mod tables;
mod transport;

use crate::app::AppHarness;
use crate::classical::{BatchId, ClassicalFaults, ClassicalPlane, ClassicalStats};
use crate::faults::{ComponentEvent, FaultPlan};
use qn_hardware::device::{QDevice, QubitId};
use qn_hardware::pairs::{PairId, PairStore, SwapNoise};
use qn_hardware::params::HardwareParams;
use qn_hardware::StateRep;
use qn_link::{LinkLabel, LinkProtocol};
use qn_net::events::{NetInput, NetOutput, PairInfo};
use qn_net::ids::{CircuitId, Correlator, RequestId};
use qn_net::messages::Message;
use qn_net::node::NodeStats;
use qn_net::request::UserRequest;
use qn_net::routing_table::LinkSide;
use qn_net::QnpNode;
use qn_quantum::gates::Pauli;
use qn_routing::signalling::InstalledCircuit;
use qn_routing::topology::Topology;
use qn_sim::{Context, EventId, LinkId, Model, NodeId, SimDuration, SimRng, SimTime, Trace};
use signalling::{SignalRt, TrackRetry};
use tables::{HeldEnd, NodeTable};

/// When the runtime advances decoherence across the whole pair store.
///
/// The default (`OnTouch`) is the lazy discipline the baselines were
/// recorded under: each pair is advanced at exactly the `SimTime`s an
/// operation touches it, so elapsed-time decay composes identically and
/// `dm` trajectories stay bit-identical. `Interval` additionally runs
/// the slab sweep ([`qn_hardware::PairStore::advance_all`]) on a fixed
/// period — useful for sustained open-world runs where the sweep keeps
/// idle-pair decay amortised and cache-linear. Interval checkpoints
/// change *where* the (divisible) T1/T2 channels are cut, which agrees
/// with the lazy path to ~1e-12 per step (pinned by
/// `prop_decoherence_sweep.rs`) but is not bit-identical; scenarios
/// that gate on tolerance-0 baselines record their baseline with the
/// same policy they run under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Advance each pair lazily, at exactly the times operations touch
    /// it (baseline-compatible; the default).
    OnTouch,
    /// Lazy advancement plus a periodic whole-store sweep every
    /// interval. The rescheduling checkpoint event keeps the queue
    /// non-empty: run such simulations with `run_until`, not `run`.
    Interval(SimDuration),
}

/// Per-hop message processing delay, on top of fibre propagation.
const PROCESSING_DELAY: SimDuration = SimDuration::from_micros(5);

/// Communication qubits dedicated to each link at each node (Appendix
/// B: two in the main simulations).
const COMM_PER_LINK: usize = 2;

/// Delay before the first re-send of a wire-borne frame
/// ([`RuntimeConfig::signalling_on_wire`]); attempt `n` waits
/// `RETRANSMIT_BASE << n`. Backoff draws no randomness, so a fault-free
/// wired run is a pure function of its seed.
const RETRANSMIT_BASE: SimDuration = SimDuration::from_millis(10);

/// Re-sends before a retransmit chain gives up (the abandonment is
/// counted in [`ClassicalStats::retransmits_abandoned`]).
const MAX_RETRIES: u32 = 8;

/// Runtime configuration knobs.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Pair-state representation (`QNP_QSTATE`): the Bell-diagonal
    /// fast path (default) or dense density matrices.
    pub state_rep: qn_hardware::StateRep,
    /// Extra injected per-hop delay (Fig 10c sweep).
    pub extra_message_delay: SimDuration,
    /// Classical-plane fault injection (default off: the reliable
    /// in-order plane of the paper, bit-identical to the pre-fault
    /// runtime).
    pub faults: ClassicalFaults,
    /// Expire unconfirmed in-transit pairs at end-nodes after this long
    /// (default `None`). Only useful on a faulty plane, where a chain's
    /// TRACK/EXPIRE can be lost — on a reliable plane end-nodes never
    /// need timers (§4.1 "Cutoff time").
    pub track_timeout: Option<SimDuration>,
    /// Near-term mode (Fig 11): one shared electron per node plus this
    /// many carbon storage qubits. `None` (the default) gives every
    /// node two communication qubits per attached link.
    pub near_term: Option<usize>,
    /// Disable intermediate cutoff timers (the Fig 10 oracle baseline).
    pub disable_cutoff: bool,
    /// Whole-store decoherence checkpointing (see [`CheckpointPolicy`]).
    pub checkpoint: CheckpointPolicy,
    /// Record a human-readable trace.
    pub trace: bool,
    /// Carry link-layer (PAIR_READY) and routing signalling
    /// (INSTALL/TEARDOWN) frames over the classical plane —
    /// with real latency, batching and fault injection — instead of
    /// handing the in-memory values to the nodes at once. Enables the
    /// hop-by-hop INSTALL/TEARDOWN ack chain and end-to-end TRACK
    /// acknowledgement + retransmission. Default off: every recorded
    /// baseline was produced without it and stays bit-identical.
    pub signalling_on_wire: bool,
    /// Component-level fault plan: scripted link and node outages and
    /// stochastic link outages (see [`crate::faults::FaultPlan`]).
    /// The empty default plan schedules no events and draws no
    /// randomness — bit-identical to the pre-fault runtime.
    pub fault_plan: FaultPlan,
}

impl RuntimeConfig {
    /// Whether a QNP node can receive the same TRACK twice: wire-borne
    /// signalling retransmits TRACKs held at a repeater even on a
    /// fault-free wire, and a faulty plane duplicates or corrupts
    /// frames. Only then do repeaters keep their relayed-TRACK memory.
    fn duplicate_tracks(&self) -> bool {
        self.signalling_on_wire || self.faults.enabled()
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            state_rep: qn_hardware::StateRep::from_env(),
            extra_message_delay: SimDuration::ZERO,
            faults: ClassicalFaults::OFF,
            track_timeout: None,
            near_term: None,
            disable_cutoff: false,
            checkpoint: CheckpointPolicy::OnTouch,
            trace: false,
            signalling_on_wire: false,
            fault_plan: FaultPlan::new(),
        }
    }
}

/// The event alphabet of the network model.
pub enum Ev {
    /// A group of classical frames, sent over one hop toward the same
    /// tick, arrives at a node. The receiver drains the group in send
    /// order; a frame whose corrupted bytes did not decode is counted
    /// and dropped.
    BatchDeliver {
        /// Receiving node.
        to: NodeId,
        /// The receiver's side the sender is on (the group's lane:
        /// frames only group within one orientation).
        from: LinkSide,
        /// The plane's open-group handle to drain.
        batch: BatchId,
        /// The physical hop the batch travels on. A component fault can
        /// take the hop down while the batch is in flight: delivery
        /// checks the link (and receiver) are still up and otherwise
        /// drops the whole batch on the floor.
        link: LinkId,
    },
    /// A track-timeout armed for an unconfirmed end-node pair fired
    /// (faulty-plane resilience; never armed by default).
    TrackExpiry {
        /// The end-node holding the pair.
        node: NodeId,
        /// The pair's circuit.
        circuit: CircuitId,
        /// The pair's correlator.
        correlator: Correlator,
    },
    /// Wire mode: check that the PAIR_READY announcing this pair actually
    /// arrived. A qubit whose announcement was lost is invisible to the
    /// QNP — no cutoff timer, no TRACK handling — so the runtime reclaims
    /// it and tells the protocol the correlator is dead.
    OrphanCheck {
        /// The node holding the (possibly orphaned) qubit.
        node: NodeId,
        /// The pair's circuit.
        circuit: CircuitId,
        /// The pair's correlator.
        correlator: Correlator,
        /// Which of the node's links produced it.
        side: LinkSide,
    },
    /// A link generation process heralds success.
    GenDone {
        /// The link that succeeded.
        link: LinkId,
    },
    /// A swap circuit finishes at a node.
    ///
    /// Pairs are referenced by correlator and resolved to physical pairs
    /// at completion time: the neighbour at the other end of a link pair
    /// may have swapped it meanwhile (its gates act on disjoint qubits,
    /// so sequential application of the two swaps is exact).
    SwapDone {
        /// Swapping node.
        node: NodeId,
        /// Circuit of the swap.
        circuit: CircuitId,
        /// Correlator of the upstream pair.
        up: Correlator,
        /// Correlator of the downstream pair.
        down: Correlator,
    },
    /// A readout finishes at a node.
    MeasureDone {
        /// Measuring node.
        node: NodeId,
        /// Circuit of the measured pair.
        circuit: CircuitId,
        /// The measured pair's correlator at this node.
        correlator: Correlator,
        /// Measurement basis.
        basis: Pauli,
    },
    /// A cutoff timer fires.
    Cutoff {
        /// Node holding the pair.
        node: NodeId,
        /// Circuit of the pair.
        circuit: CircuitId,
        /// Which link the pair belongs to at this node.
        side: LinkSide,
        /// The pair's correlator.
        correlator: Correlator,
    },
    /// A move-to-carbon-storage completes (near-term mode).
    MoveDone {
        /// Node performing the move.
        node: NodeId,
        /// The moved pair.
        pair: PairId,
        /// Destination storage qubit.
        storage: QubitId,
        /// Deferred LinkPair info to deliver to the local QNP.
        circuit: CircuitId,
        /// Side of the circuit at this node.
        side: LinkSide,
        /// The pair announcement.
        info: PairInfo,
    },
    /// A TRACK retransmission timer fired at the end-node that
    /// originated the chain (`signalling_on_wire` only). The node
    /// re-sends its TRACK unless the chain was acknowledged meanwhile.
    TrackRetransmit {
        /// The originating end-node.
        node: NodeId,
        /// The chain's circuit.
        circuit: CircuitId,
        /// Correlator of the origin link pair (the retransmit key).
        origin: Correlator,
    },
    /// Start a wire-borne circuit installation at the head of the path
    /// (`signalling_on_wire` only): the head installs locally and sends
    /// the first INSTALL frame to its downstream neighbour.
    SignalKick {
        /// The circuit to install.
        circuit: CircuitId,
    },
    /// A routing-signalling retransmission timer fired: the INSTALL (or
    /// TEARDOWN, once tearing) from `path[hop]` to `path[hop + 1]` was
    /// never acknowledged.
    SignalRetransmit {
        /// The circuit being signalled.
        circuit: CircuitId,
        /// Index of the *sending* node on the circuit's path.
        hop: usize,
    },
    /// A scheduled redundant copy of an idempotent request-level
    /// message (FORWARD/COMPLETE) on a lossy wire (`signalling_on_wire`
    /// with loss faults): the request fan-out is one-shot in the
    /// protocol and wedges the circuit forever if a copy is lost, so
    /// the runtime re-sends it on a bounded deterministic backoff —
    /// receivers absorb the duplicates — instead of adding an ack
    /// channel the paper doesn't have.
    RequestResend {
        /// The re-sending node.
        node: NodeId,
        /// The circuit the message rides on.
        circuit: CircuitId,
        /// Side the original was sent toward.
        toward: LinkSide,
        /// Copies already scheduled (bounds the redundancy).
        attempt: u32,
        /// The message to re-send, verbatim.
        msg: Message,
    },
    /// Scenario hook: submit an application request at the head-end.
    SubmitRequest {
        /// Circuit to use.
        circuit: CircuitId,
        /// The request.
        request: UserRequest,
    },
    /// Scenario hook: cancel a request at the head-end.
    CancelRequest {
        /// Circuit carrying the request.
        circuit: CircuitId,
        /// The request to cancel.
        request: RequestId,
    },
    /// Scenario hook: tear the circuit down at every node (loss of
    /// classical connectivity, operator action).
    Teardown {
        /// The circuit to remove.
        circuit: CircuitId,
    },
    /// Periodic whole-store decoherence sweep
    /// ([`CheckpointPolicy::Interval`]); reschedules itself.
    Checkpoint,
    /// A component fault from the run's [`FaultPlan`] comes due: a link
    /// goes down or comes back, a node crashes or restarts. The whole
    /// schedule is expanded (deterministically per seed) before the run
    /// starts; an empty plan schedules none of these.
    ComponentFault {
        /// What happens to which component.
        event: ComponentEvent,
    },
}

/// What a node's operations take, derived once from its hardware.
#[derive(Clone, Copy)]
struct NodeGates {
    /// The swap circuit's noise, with the tables or POVM the run's
    /// representation swaps on.
    swap_noise: SwapNoise,
    /// How long a swap takes: the two-qubit gate, the single-qubit gate
    /// and two readouts.
    swap_time: SimDuration,
    /// How long one readout takes.
    readout_time: SimDuration,
    /// The two-qubit depolarising parameter of a move to carbon storage
    /// (near-term mode): two E-C gates plus carbon initialisation.
    move_noise: f64,
    /// How long that move takes.
    move_time: SimDuration,
}

impl NodeGates {
    fn new(params: &HardwareParams, rep: StateRep) -> Self {
        let gates = &params.gates;
        let f_move = gates.two_qubit.fidelity
            * gates.two_qubit.fidelity
            * gates.carbon_init.map(|g| g.fidelity).unwrap_or(1.0);
        NodeGates {
            swap_noise: SwapNoise::from_params(params, rep),
            swap_time: SimDuration::from_secs_f64(
                gates.two_qubit.duration
                    + gates.electron_single.duration
                    + 2.0 * gates.readout.duration,
            ),
            readout_time: SimDuration::from_secs_f64(gates.readout.duration),
            move_noise: qn_quantum::channels::depolarizing_param_for_fidelity(f_move, 2),
            move_time: SimDuration::from_secs_f64(
                2.0 * gates.two_qubit.duration
                    + gates.carbon_init.map(|g| g.duration).unwrap_or(0.0),
            ),
        }
    }
}

struct NodeRt {
    qnp: QnpNode,
    device: QDevice,
    gates: NodeGates,
    /// False while the node is crashed: it processes no frames, its
    /// links do not generate, and its volatile protocol state is gone.
    up: bool,
}

/// A heralding attempt in flight on a link: at most one per link, as a
/// link runs one midpoint interference process at a time.
struct Inflight {
    label: LinkLabel,
    attempts: u64,
    started: SimTime,
    event: EventId,
    /// The communication qubits reserved at the link's `a` and `b` ends.
    qubit_a: QubitId,
    qubit_b: QubitId,
}

struct LinkRt {
    proto: LinkProtocol,
    a: NodeId,
    b: NodeId,
    /// What a classical frame takes to cross the hop: propagation +
    /// [`PROCESSING_DELAY`] + [`RuntimeConfig::extra_message_delay`],
    /// a constant of the run.
    latency: SimDuration,
    inflight: Option<Inflight>,
    /// False while the link itself is administratively/physically down
    /// (a [`ComponentEvent::LinkDown`]). The hop generates and carries
    /// frames only while the link *and* both endpoints are up
    /// ([`NetworkModel::hop_alive`]).
    up: bool,
}

#[derive(Clone, Copy)]
struct LabelInfo {
    circuit: CircuitId,
    /// The path-earlier node of this link (the circuit's upstream side).
    upstream_node: NodeId,
}

impl LabelInfo {
    /// The side of `node`, an end of this label's link, the link is on.
    fn side_at(&self, node: NodeId) -> LinkSide {
        if node == self.upstream_node {
            LinkSide::Downstream
        } else {
            LinkSide::Upstream
        }
    }
}

struct CircuitRt {
    path: Vec<NodeId>,
}

impl CircuitRt {
    /// The (upstream, downstream) neighbours of `node` on this circuit.
    /// Paths are a handful of hops; a linear scan beats any map.
    fn neighbours(&self, node: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        let i = self
            .path
            .iter()
            .position(|n| *n == node)
            .expect("node is on the circuit path");
        let up = (i > 0).then(|| self.path[i - 1]);
        let down = (i + 1 < self.path.len()).then(|| self.path[i + 1]);
        (up, down)
    }

    /// The neighbour of `node` on `side` of this circuit.
    fn neighbour(&self, node: NodeId, side: LinkSide) -> Option<NodeId> {
        let (up, down) = self.neighbours(node);
        match side {
            LinkSide::Upstream => up,
            LinkSide::Downstream => down,
        }
    }
}

/// The complete network simulation model.
pub struct NetworkModel {
    cfg: RuntimeConfig,
    nodes: Vec<NodeRt>,
    links: Vec<LinkRt>,
    /// Each node's `(neighbour, link)` row in the topology's adjacency
    /// order, built once so per-event link lookups are a short scan.
    node_links: Vec<Vec<(NodeId, LinkId)>>,
    /// All live entangled pairs.
    pub pairs: PairStore,
    /// The one index from a held pair end to its physical pair: each
    /// node's row maps the correlator the QNP names the end by to the
    /// pair now holding that qubit (a swap elsewhere re-points it to the
    /// joined pair), with the flag that absorbs a duplicated PAIR_READY.
    /// A pair's live ends are the [`PairStore`] ends whose node's row
    /// still maps a correlator to it; the pair is discarded once none
    /// does.
    qubit_owner: NodeTable<HeldEnd>,
    /// Per-link label table: one short row per link, scanned linearly
    /// (a link carries a handful of circuit labels).
    label_map: Vec<Vec<(LinkLabel, LabelInfo)>>,
    /// Circuit runtime state indexed by `CircuitId` (ids are allocated
    /// densely from 1 by the signaller; torn-down slots go `None`).
    circuits: Vec<Option<CircuitRt>>,
    cutoff_events: NodeTable<EventId>,
    /// Armed [`Ev::TrackExpiry`] timers: cancelled the moment the pair
    /// resolves, so a completed pair never sees a late timeout.
    track_expiry_events: NodeTable<EventId>,
    /// Unacknowledged TRACKs at their origin end-nodes
    /// (`signalling_on_wire` only).
    track_retransmits: NodeTable<TrackRetry>,
    /// Wire-borne signalling chains, indexed like `circuits`
    /// (`signalling_on_wire` only; slots stay populated after teardown
    /// so late duplicates still draw re-acks).
    signal_state: Vec<Option<SignalRt>>,
    /// Application observations.
    pub app: AppHarness,
    /// Trace recorder (enabled via config).
    pub trace: Trace,
    rng_links: Vec<SimRng>,
    rng_nodes: Vec<SimRng>,
    plane: ClassicalPlane,
    /// Reused QNP output buffer (see [`Self::qnp_input`]).
    outs: Vec<NetOutput>,
    /// Diagnostics: confirmed deliveries whose claimed Bell state
    /// differs from the pair's announced frame.
    pub state_mismatches: u64,
    /// Diagnostics: confirmed deliveries whose pair's true frame differs
    /// from its announced one (a swap readout error flipped it).
    pub readout_frame_errors: u64,
    /// Diagnostics: pairs released before use.
    pub discarded_pairs: u64,
    /// Whether *any* hop can lose frames — loss or corruption faults,
    /// or a component fault plan (a downed hop eats frames). Gates the
    /// blind request-level redundancy: one-shot FORWARD/COMPLETE fan-out
    /// wedges a circuit forever if its only copy dies on such a hop.
    lossy_wire: bool,
}

impl NetworkModel {
    /// Build the model over a topology with the given seed and config.
    ///
    /// # Panics
    ///
    /// If `cfg.faults` or `cfg.fault_plan` fails validation; the
    /// message names the error.
    pub fn new(topology: Topology, seed: u64, cfg: RuntimeConfig) -> Self {
        if let Err(e) = cfg.faults.validate() {
            panic!("invalid ClassicalFaults: {e}");
        }
        if let Err(e) = cfg.fault_plan.validate(&topology) {
            panic!("invalid FaultPlan: {e}");
        }
        let node_ids = topology.nodes();
        let n_nodes = node_ids.len();
        assert_eq!(
            node_ids.iter().map(|n| n.0 as usize).max().unwrap_or(0) + 1,
            n_nodes,
            "node ids must be dense 0..n"
        );
        let mut nodes: Vec<NodeRt> = Vec::with_capacity(n_nodes);
        let mut node_links = Vec::with_capacity(n_nodes);
        for id in &node_ids {
            let links = topology.links_of(*id);
            node_links.push(
                links
                    .iter()
                    .map(|l| {
                        let spec = topology.link(*l);
                        (if spec.a == *id { spec.b } else { spec.a }, *l)
                    })
                    .collect(),
            );
            // Per-node hardware params: taken from the first attached link
            // (the paper's evaluations use identical hardware everywhere).
            let params = *topology.link(links[0]).physics.params();
            let device = match cfg.near_term {
                Some(carbons) => QDevice::near_term(carbons, params),
                None => QDevice::per_link(&links, COMM_PER_LINK, params),
            };
            // Nodes with the same hardware share their gate constants.
            let gates = match nodes.last() {
                Some(prev) if prev.device.params() == &params => prev.gates,
                _ => NodeGates::new(&params, cfg.state_rep),
            };
            nodes.push(NodeRt {
                qnp: QnpNode::new(*id, cfg.duplicate_tracks()),
                device,
                gates,
                up: true,
            });
        }
        let links: Vec<LinkRt> = topology
            .links()
            .iter()
            .map(|l| LinkRt {
                proto: LinkProtocol::new((l.a, l.b), l.physics.clone(), cfg.state_rep),
                a: l.a,
                b: l.b,
                latency: l.physics.fibre().propagation_delay()
                    + PROCESSING_DELAY
                    + cfg.extra_message_delay,
                inflight: None,
                up: true,
            })
            .collect();
        let lossy_wire =
            cfg.faults.drop > 0.0 || cfg.faults.corrupt > 0.0 || !cfg.fault_plan.is_empty();
        let rng_links = (0..links.len())
            .map(|i| SimRng::substream_indexed(seed, "link", i as u64))
            .collect();
        let rng_nodes = (0..n_nodes)
            .map(|i| SimRng::substream_indexed(seed, "node", i as u64))
            .collect();
        let n_links = links.len();
        NetworkModel {
            nodes,
            links,
            node_links,
            pairs: PairStore::new(cfg.state_rep),
            qubit_owner: NodeTable::new(n_nodes),
            label_map: (0..n_links).map(|_| Vec::new()).collect(),
            circuits: Vec::new(),
            cutoff_events: NodeTable::new(n_nodes),
            track_expiry_events: NodeTable::new(n_nodes),
            track_retransmits: NodeTable::new(n_nodes),
            signal_state: Vec::new(),
            app: AppHarness::default(),
            trace: if cfg.trace {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            rng_links,
            rng_nodes,
            plane: ClassicalPlane::new(seed, cfg.faults),
            outs: Vec::new(),
            cfg,
            state_mismatches: 0,
            readout_frame_errors: 0,
            discarded_pairs: 0,
            lossy_wire,
        }
    }

    /// Classical-plane traffic counters.
    pub fn classical_stats(&self) -> ClassicalStats {
        self.plane.stats
    }

    /// Protocol resilience counters, aggregated over all nodes.
    pub fn node_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for n in &self.nodes {
            total.merge(&n.qnp.stats);
        }
        total
    }

    /// Install a circuit (signalling action): registers labels, records
    /// path metadata, and feeds the routing entries to the nodes.
    ///
    /// Returns `true` when `signalling_on_wire` is set: the entries are
    /// *not* installed here — the caller must schedule
    /// [`Ev::SignalKick`] so the INSTALL chain walks the path over the
    /// classical plane with real latency and fault exposure.
    pub fn install_circuit(&mut self, installed: &InstalledCircuit) -> bool {
        let idx = installed.circuit.0 as usize;
        if self.circuits.len() <= idx {
            self.circuits.resize_with(idx + 1, || None);
        }
        self.circuits[idx] = Some(CircuitRt {
            path: installed.path.clone(),
        });
        for (i, (link, label)) in installed.labels.iter().enumerate() {
            self.label_map[link.0 as usize].push((
                *label,
                LabelInfo {
                    circuit: installed.circuit,
                    upstream_node: installed.path[i],
                },
            ));
        }
        // The signaller builds the entries in path order. The cutoff
        // override is applied before the split, so on the wire the frames
        // carry the entries the nodes install.
        debug_assert!(installed
            .entries
            .iter()
            .map(|(node, _)| node)
            .eq(&installed.path));
        let disable_cutoff = self.cfg.disable_cutoff;
        let entries = installed.entries.iter().map(|&(node, mut entry)| {
            if disable_cutoff {
                entry.cutoff = SimDuration::MAX;
            }
            (node, entry)
        });
        if self.cfg.signalling_on_wire {
            let entries: Vec<_> = entries.map(|(_, entry)| entry).collect();
            let n = installed.path.len();
            if self.signal_state.len() <= idx {
                self.signal_state.resize_with(idx + 1, || None);
            }
            self.signal_state[idx] = Some(SignalRt {
                path: installed.path.clone(),
                entries,
                installed: vec![false; n],
                torn: vec![false; n],
                tearing: false,
                pending: vec![None; n],
            });
            return true;
        }
        for (node, entry) in entries {
            self.nodes[node.0 as usize]
                .qnp
                .handle(NetInput::InstallCircuit { entry }, &mut self.outs);
            debug_assert!(self.outs.is_empty());
        }
        false
    }

    // ----- helpers ---------------------------------------------------

    fn circuit_rt(&self, circuit: CircuitId) -> Option<&CircuitRt> {
        self.circuits
            .get(circuit.0 as usize)
            .and_then(|c| c.as_ref())
    }

    /// The link joining `a` and `b`, if they are adjacent (`None` for
    /// unknown node ids too: a corrupted frame can name any).
    fn hop(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.node_links
            .get(a.0 as usize)?
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    fn link_between(&self, a: NodeId, b: NodeId) -> LinkId {
        self.hop(a, b).expect("circuit hops follow links")
    }

    /// Whether a hop can generate and carry traffic right now: the link
    /// is up and so are both of its endpoints. Always true without a
    /// fault plan.
    fn hop_alive(&self, link: LinkId) -> bool {
        let l = &self.links[link.0 as usize];
        l.up && self.nodes[l.a.0 as usize].up && self.nodes[l.b.0 as usize].up
    }

    /// The link on `side` of `node` for `circuit`.
    fn side_link(&self, circuit: CircuitId, node: NodeId, side: LinkSide) -> LinkId {
        let rt = self.circuit_rt(circuit).expect("circuit installed");
        let peer = rt.neighbour(node, side).expect("a link on that side");
        self.link_between(node, peer)
    }

    /// Whether `node` is an intermediate (repeater) on the circuit.
    fn is_intermediate_on(&self, circuit: CircuitId, node: NodeId) -> bool {
        self.circuit_rt(circuit).is_some_and(|rt| {
            let (u, d) = rt.neighbours(node);
            u.is_some() && d.is_some()
        })
    }

    /// Final bookkeeping once the TEARDOWN chain reaches the tail: only
    /// now do in-flight generations stop routing and the circuit slot
    /// free (`side_link`/`circuit_rt` must work until every node tore
    /// down).
    fn finish_teardown(&mut self, circuit: CircuitId) {
        for row in &mut self.label_map {
            row.retain(|(_, info)| info.circuit != circuit);
        }
        if let Some(slot) = self.circuits.get_mut(circuit.0 as usize) {
            *slot = None;
        }
    }

    /// Leak introspection: every timer currently armed with the
    /// scheduler — cutoffs, track expiries, TRACK retransmits and
    /// signalling retransmits. Zero after a settled run.
    pub fn armed_timers(&self) -> usize {
        let signal_pending: usize = self
            .signal_state
            .iter()
            .flatten()
            .map(|st| st.pending.iter().flatten().count())
            .sum();
        self.cutoff_events.len()
            + self.track_expiry_events.len()
            + self.track_retransmits.len()
            + signal_pending
    }

    /// Leak introspection: correlator state the runtime retains — the
    /// live pair ends. Zero after a settled run.
    pub fn retained_correlators(&self) -> usize {
        self.qubit_owner.len()
    }

    /// Leak introspection: device qubits held by a pair end or by a
    /// heralding attempt or move in flight, summed over every node. Zero
    /// after a settled run.
    pub fn reserved_qubits(&self) -> usize {
        self.nodes.iter().map(|n| n.device.reserved()).sum()
    }
}

impl Model for NetworkModel {
    type Event = Ev;

    fn handle(&mut self, _now: SimTime, event: Ev, ctx: &mut Context<'_, Ev>) {
        match event {
            Ev::BatchDeliver {
                to,
                from,
                batch,
                link,
            } => self.batch_deliver(ctx, to, from, batch, link),
            Ev::TrackExpiry {
                node,
                circuit,
                correlator,
            } => self.track_expiry(ctx, node, circuit, correlator),
            Ev::OrphanCheck {
                node,
                circuit,
                correlator,
                side,
            } => self.orphan_check(ctx, node, circuit, correlator, side),
            Ev::GenDone { link } => self.gen_done(ctx, link),
            Ev::SwapDone {
                node,
                circuit,
                up,
                down,
            } => self.swap_done(ctx, node, circuit, up, down),
            Ev::MeasureDone {
                node,
                circuit,
                correlator,
                basis,
            } => self.measure_done(ctx, node, circuit, correlator, basis),
            Ev::Cutoff {
                node,
                circuit,
                side,
                correlator,
            } => self.cutoff(ctx, node, circuit, side, correlator),
            Ev::MoveDone {
                node,
                pair,
                storage,
                circuit,
                side,
                info,
            } => self.move_done(ctx, node, pair, storage, circuit, side, info),
            Ev::SubmitRequest { circuit, request } => self.submit_request(ctx, circuit, request),
            Ev::CancelRequest { circuit, request } => self.cancel_request(ctx, circuit, request),
            Ev::TrackRetransmit {
                node,
                circuit,
                origin,
            } => self.track_retransmit_fire(ctx, node, circuit, origin),
            Ev::SignalKick { circuit } => self.signal_kick(ctx, circuit),
            Ev::SignalRetransmit { circuit, hop } => self.signal_retransmit_fire(ctx, circuit, hop),
            Ev::RequestResend {
                node,
                circuit,
                toward,
                attempt,
                msg,
            } => self.request_resend_fire(ctx, node, circuit, toward, attempt, msg),
            Ev::Teardown { circuit } => self.teardown(ctx, circuit),
            Ev::Checkpoint => self.checkpoint(ctx),
            Ev::ComponentFault { event } => self.component_fault(ctx, event),
        }
    }
}
