//! The network simulation runtime: the discrete-event [`Model`] that
//! wires the hardware substrate, the link layer and the QNP node state
//! machines together.
//!
//! Responsibilities (everything the sans-IO cores delegate):
//!
//! * classical messaging — reliable, in-order, per-hop FIFO channels with
//!   propagation + processing delay and Fig 10c's injectable extra delay;
//! * link-pair generation — geometric fast-forward sampling of the
//!   heralding process, qubit reservation at both ends (the Fig 8c
//!   congestion mechanism), physical pair creation, nuclear dephasing of
//!   stored qubits at the endpoint devices;
//! * quantum operations — timed noisy swaps and measurements against the
//!   [`PairStore`], cutoff timers, pair release bookkeeping;
//! * near-term mode — single communication qubit per node with explicit
//!   move-to-carbon-storage before a repeater can serve its second link
//!   (Fig 11);
//! * application accounting — the [`AppHarness`] with oracle annotations.

use crate::app::{AppHarness, DeliveryRecord, Payload};
use crate::classical::{BatchId, ChannelModel, ClassicalFaults, ClassicalPlane, ClassicalStats};
use crate::faults::{ComponentEvent, FaultPlan};
use qn_hardware::device::{QDevice, QubitId};
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::pairs::{PairId, PairStore, SwapNoise};
use qn_link::{LinkEvent, LinkLabel, LinkProtocol, LinkRequest, PairDemand};
use qn_net::events::{AppEvent, DeliveryKind, NetInput, NetOutput, PairInfo};
use qn_net::ids::{CircuitId, Correlator, PairHandle, PairRef, RequestId};
use qn_net::messages::{Message, Track, TrackAck};
use qn_net::node::NodeStats;
use qn_net::request::UserRequest;
use qn_net::routing_table::LinkSide;
use qn_net::QnpNode;
use qn_quantum::gates::Pauli;
use qn_routing::signalling::InstalledCircuit;
use qn_routing::topology::Topology;
use qn_sim::{
    Context, EventId, LinkId, Model, NodeId, SimDuration, SimRng, SimTime, Trace, TraceKind,
};

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

/// Retransmission knobs for wire-borne signalling
/// ([`RuntimeConfig::signalling_on_wire`]). Backoff is a deterministic
/// doubling of `base` per attempt — no RNG draws, so a fault-free run
/// with retransmission configured stays bit-identical to one without.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Give up on a frame after this many re-sends (the abandonment is
    /// counted in [`ClassicalStats::retransmits_abandoned`]).
    pub max_retries: u32,
    /// Delay before the first retry; attempt `n` waits `base << n`.
    pub base: SimDuration,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            max_retries: 8,
            base: SimDuration::from_millis(10),
        }
    }
}

/// Runtime configuration knobs.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Pair-state representation (`QNP_QSTATE`): the Bell-diagonal
    /// fast path (default) or dense density matrices.
    pub state_rep: qn_hardware::StateRep,
    /// Per-hop message processing delay (on top of fibre propagation).
    pub processing_delay: SimDuration,
    /// Extra injected per-hop delay (Fig 10c sweep).
    pub extra_message_delay: SimDuration,
    /// Uniform per-message jitter bound (the reliable transport still
    /// delivers in order).
    pub message_jitter: SimDuration,
    /// Classical-plane fault injection (default off: the reliable
    /// in-order plane of the paper, bit-identical to the pre-fault
    /// runtime).
    pub faults: ClassicalFaults,
    /// Expire unconfirmed in-transit pairs at end-nodes after this long
    /// (default `None`). Only useful on a faulty plane, where a chain's
    /// TRACK/EXPIRE can be lost — on a reliable plane end-nodes never
    /// need timers (§4.1 "Cutoff time").
    pub track_timeout: Option<SimDuration>,
    /// Communication qubits dedicated to each link at each node
    /// (Appendix B: two in the main simulations).
    pub comm_per_link: usize,
    /// Near-term mode: one shared electron + carbon storage per node.
    pub near_term: bool,
    /// Carbon storage qubits per node (near-term mode).
    pub carbons: usize,
    /// Disable intermediate cutoff timers (the Fig 10 oracle baseline).
    pub disable_cutoff: bool,
    /// Whole-store decoherence checkpointing (see [`CheckpointPolicy`]).
    pub checkpoint: CheckpointPolicy,
    /// Record a human-readable trace.
    pub trace: bool,
    /// Carry link-layer (PAIR_READY/REQUEST_DONE/REJECTED) and routing
    /// signalling (INSTALL/TEARDOWN) frames over the classical plane —
    /// with real latency, batching and fault injection — instead of
    /// handing the in-memory values to the nodes at once. Enables the
    /// hop-by-hop INSTALL/TEARDOWN ack chain and end-to-end TRACK
    /// acknowledgement + retransmission. Default off: every recorded
    /// baseline was produced without it and stays bit-identical.
    pub signalling_on_wire: bool,
    /// Retransmission bounds and backoff (only consulted when
    /// `signalling_on_wire` is set).
    pub retransmit: RetransmitConfig,
    /// Component-level fault plan: scheduled and stochastic link
    /// outages and node crashes (see [`crate::faults::FaultPlan`]).
    /// The empty default plan schedules no events and draws no
    /// randomness — bit-identical to the pre-fault runtime.
    pub fault_plan: FaultPlan,
    /// Per-link overrides of the message-level fault model. Links not
    /// listed keep the global [`RuntimeConfig::faults`]. Empty by
    /// default; the no-override path is bit-identical to the global
    /// path (same single `classical-faults` RNG substream, same draw
    /// order).
    pub link_faults: Vec<(NodeId, NodeId, ClassicalFaults)>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            state_rep: qn_hardware::StateRep::from_env(),
            processing_delay: SimDuration::from_micros(5),
            extra_message_delay: SimDuration::ZERO,
            message_jitter: SimDuration::ZERO,
            faults: ClassicalFaults::OFF,
            track_timeout: None,
            comm_per_link: 2,
            near_term: false,
            carbons: 0,
            disable_cutoff: false,
            checkpoint: CheckpointPolicy::OnTouch,
            trace: false,
            signalling_on_wire: false,
            retransmit: RetransmitConfig::default(),
            fault_plan: FaultPlan::new(),
            link_faults: Vec::new(),
        }
    }
}

/// The event alphabet of the network model.
pub enum Ev {
    /// A group of encoded classical frames, sent over one hop toward the
    /// same tick, arrives at a node. The receiver drains the group in
    /// send order and decodes each frame with its plane's owned decoder;
    /// frames that fail to decode are counted and dropped — the bytes,
    /// not the structs, are the interface.
    BatchDeliver {
        /// Receiving node.
        to: NodeId,
        /// Whether the sender is the receiver's upstream neighbour (the
        /// group's lane: frames only group within one orientation).
        from_upstream: bool,
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
        /// The link whose pair is being stored (for the deferred
        /// network-layer notification).
        link: LinkId,
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
        /// Direction of the original send.
        downstream: bool,
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

struct NodeRt {
    qnp: QnpNode,
    device: QDevice,
    /// False while the node is crashed: it processes no frames, its
    /// links do not generate, and its volatile protocol state is gone.
    up: bool,
}

struct Inflight {
    label: LinkLabel,
    alpha: f64,
    attempts: u64,
    started: SimTime,
    event: EventId,
    qubit_a: (NodeId, QubitId),
    qubit_b: (NodeId, QubitId),
}

struct LinkRt {
    proto: LinkProtocol,
    physics: LinkPhysics,
    a: NodeId,
    b: NodeId,
    inflight: Option<Inflight>,
    /// False while the link itself is administratively/physically down
    /// (a [`ComponentEvent::LinkDown`]). Distinct from the protocol's
    /// paused flag, which also covers endpoint crashes: the link is
    /// only active when it is up *and* both endpoints are up.
    up: bool,
}

struct LabelInfo {
    circuit: CircuitId,
    /// The path-earlier node of this link (the circuit's upstream side).
    upstream_node: NodeId,
}

struct CircuitRt {
    path: Vec<NodeId>,
    /// Fidelity target (for metrics only).
    threshold: f64,
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
}

/// Retransmission state for one unacknowledged TRACK at its origin
/// end-node, keyed `(node, origin correlator)` in a [`NodeTable`].
#[derive(Clone, Copy)]
struct TrackRetry {
    /// Retries already sent.
    attempt: u32,
    /// The armed [`Ev::TrackRetransmit`] (cancelled on TRACK_ACK).
    event: EventId,
    /// Direction the original TRACK was sent in.
    downstream: bool,
    /// The frame to re-send, verbatim.
    track: Track,
}

/// Retransmission timer for one unacknowledged signalling hop.
#[derive(Clone, Copy)]
struct SignalRetry {
    attempt: u32,
    event: EventId,
}

/// Wire-borne signalling state of one circuit (`signalling_on_wire`):
/// the INSTALL/TEARDOWN chain walks the path hop by hop, each hop acked
/// and retransmitted independently. The struct outlives the circuit so
/// that late duplicates of already-processed frames still draw a re-ack
/// (which is what stops the sender's retransmission).
struct SignalRt {
    path: Vec<NodeId>,
    /// Routing entries aligned with `path` (cutoff overrides applied).
    entries: Vec<qn_net::routing_table::RoutingEntry>,
    /// Whether `path[i]` has processed its INSTALL.
    installed: Vec<bool>,
    /// Whether `path[i]` has processed its TEARDOWN.
    torn: Vec<bool>,
    /// Teardown supersedes installation (stale INSTALL acks are ignored
    /// once set, so they cannot cancel a TEARDOWN retransmit timer).
    tearing: bool,
    /// `pending[i]` guards the unacked frame from `path[i]` to
    /// `path[i + 1]`.
    pending: Vec<Option<SignalRetry>>,
}

/// Deterministic, draw-free exponential backoff: `base << attempt`,
/// saturating.
fn backoff(base: SimDuration, attempt: u32) -> SimDuration {
    SimDuration::from_ps(base.as_ps().saturating_mul(1u64 << attempt.min(20)))
}

/// Dense per-node correlator table: the runtime's `(NodeId, Correlator)
/// -> T` maps, stored as one short row per node. A node's row holds one
/// entry per qubit it currently has entangled — bounded by its memory
/// size, not by circuit count — so lookups are a short linear scan and
/// idle circuits cost nothing.
struct NodeTable<T> {
    rows: Vec<Vec<(Correlator, T)>>,
}

impl<T: Copy> NodeTable<T> {
    fn new(n_nodes: usize) -> Self {
        NodeTable {
            rows: (0..n_nodes).map(|_| Vec::new()).collect(),
        }
    }

    /// Insert or overwrite the entry for `(node, c)`.
    fn insert(&mut self, node: NodeId, c: Correlator, value: T) {
        let row = &mut self.rows[node.0 as usize];
        match row.iter_mut().find(|(k, _)| *k == c) {
            Some(entry) => entry.1 = value,
            None => row.push((c, value)),
        }
    }

    fn get(&self, node: NodeId, c: Correlator) -> Option<T> {
        self.rows[node.0 as usize]
            .iter()
            .find(|(k, _)| *k == c)
            .map(|(_, v)| *v)
    }

    fn remove(&mut self, node: NodeId, c: Correlator) -> Option<T> {
        let row = &mut self.rows[node.0 as usize];
        let i = row.iter().position(|(k, _)| *k == c)?;
        Some(row.swap_remove(i).1)
    }

    /// Take the whole row of `node` (a crashed node loses every entry
    /// at once).
    fn drain_row(&mut self, node: NodeId) -> Vec<(Correlator, T)> {
        std::mem::take(&mut self.rows[node.0 as usize])
    }

    /// Total entries across all rows (leak introspection).
    fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Reverse references `pair -> (node, correlator)` views, stored
/// slab-parallel to the [`PairStore`]: slot `i` belongs to the pair
/// whose id currently occupies slab slot `i` (the full id bits are kept
/// for the generation check). Vacated slots keep their `Vec` capacity
/// for the slot's next occupant, so steady-state churn does not
/// allocate; iteration is slot-ordered and thus deterministic.
struct PairRefs {
    slots: Vec<(u64, Vec<(NodeId, Correlator)>)>,
}

/// Slot id marking a vacant [`PairRefs`] entry.
const REFS_VACANT: u64 = u64::MAX;

impl PairRefs {
    fn new() -> Self {
        PairRefs { slots: Vec::new() }
    }

    fn slot_mut(&mut self, pid: PairId) -> &mut (u64, Vec<(NodeId, Correlator)>) {
        let i = pid.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || (REFS_VACANT, Vec::new()));
        }
        &mut self.slots[i]
    }

    /// Register a fresh two-ended pair, reusing the slot's capacity.
    fn insert_pair(&mut self, pid: PairId, a: (NodeId, Correlator), b: (NodeId, Correlator)) {
        let slot = self.slot_mut(pid);
        slot.0 = pid.0;
        slot.1.clear();
        slot.1.push(a);
        slot.1.push(b);
    }

    /// Register a pair with an explicit reference list (swap re-pointing).
    fn insert(&mut self, pid: PairId, ends: Vec<(NodeId, Correlator)>) {
        let slot = self.slot_mut(pid);
        slot.0 = pid.0;
        slot.1 = ends;
    }

    fn get_mut(&mut self, pid: PairId) -> Option<&mut Vec<(NodeId, Correlator)>> {
        let slot = self.slots.get_mut(pid.index())?;
        (slot.0 == pid.0).then_some(&mut slot.1)
    }

    /// Vacate the pair's slot, returning its references (the slot keeps
    /// no capacity — the caller usually re-inserts the `Vec` elsewhere).
    fn take(&mut self, pid: PairId) -> Option<Vec<(NodeId, Correlator)>> {
        let slot = self.slots.get_mut(pid.index())?;
        if slot.0 != pid.0 {
            return None;
        }
        slot.0 = REFS_VACANT;
        Some(std::mem::take(&mut slot.1))
    }

    /// Vacate the pair's slot in place (keeps the `Vec` capacity for the
    /// slot's next occupant).
    fn remove(&mut self, pid: PairId) {
        if let Some(slot) = self.slots.get_mut(pid.index()) {
            if slot.0 == pid.0 {
                slot.0 = REFS_VACANT;
                slot.1.clear();
            }
        }
    }

    /// Iterate live entries in slot order (deterministic by
    /// construction, unlike the hash map this replaced).
    fn iter(&self) -> impl Iterator<Item = (PairId, &[(NodeId, Correlator)])> {
        self.slots
            .iter()
            .filter(|(id, _)| *id != REFS_VACANT)
            .map(|(id, ends)| (PairId(*id), ends.as_slice()))
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
    /// (node, correlator) -> physical pair currently holding that qubit.
    qubit_owner: NodeTable<PairId>,
    /// Reverse references: pair -> (node, correlator) views.
    refs: PairRefs,
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
    /// PAIR_READY frames already delivered to a node's QNP: a
    /// duplication fault must not hand the protocol the same pair twice
    /// (`signalling_on_wire` only).
    link_delivered: NodeTable<()>,
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
    rng_msgs: SimRng,
    plane: ClassicalPlane,
    /// Shared encode buffer: every outgoing frame (data plane and
    /// signalling) is encoded here instead of a fresh `Vec`.
    scratch: qn_net::wire::ScratchEncoder,
    /// Reused QNP output buffer (see [`Self::qnp_input`]).
    outs: Vec<NetOutput>,
    /// Diagnostics: protocol-vs-omniscient state mismatches observed.
    pub state_mismatches: u64,
    /// Diagnostics: pairs released before use.
    pub discarded_pairs: u64,
    /// Per-link effective message-fault models (`Some` only when the
    /// config carries per-link overrides; `None` keeps the global
    /// [`RuntimeConfig::faults`] on the untouched fast path).
    link_fault_table: Option<Vec<ClassicalFaults>>,
    /// Whether *any* hop can lose frames — global loss/corruption
    /// faults, a per-link override with either, or a component fault
    /// plan (a downed hop eats frames). Gates the blind request-level
    /// redundancy: one-shot FORWARD/COMPLETE fan-out wedges a circuit
    /// forever if its only copy dies on such a hop.
    lossy_wire: bool,
}

impl NetworkModel {
    /// Build the model over a topology with the given seed and config.
    pub fn new(topology: Topology, seed: u64, cfg: RuntimeConfig) -> Self {
        cfg.faults
            .validate()
            .expect("classical fault probabilities");
        cfg.fault_plan
            .validate(&topology)
            .expect("component fault plan");
        let node_ids = topology.nodes();
        let n_nodes = node_ids.len();
        assert_eq!(
            node_ids.iter().map(|n| n.0 as usize).max().unwrap_or(0) + 1,
            n_nodes,
            "node ids must be dense 0..n"
        );
        let mut nodes = Vec::with_capacity(n_nodes);
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
            let device = if cfg.near_term {
                QDevice::near_term(*id, cfg.carbons, params)
            } else {
                QDevice::per_link(*id, &links, cfg.comm_per_link, params)
            };
            nodes.push(NodeRt {
                qnp: QnpNode::new(*id),
                device,
                up: true,
            });
        }
        let links: Vec<LinkRt> = topology
            .links()
            .iter()
            .map(|l| LinkRt {
                proto: LinkProtocol::new((l.a, l.b), l.physics.clone()),
                physics: l.physics.clone(),
                a: l.a,
                b: l.b,
                inflight: None,
                up: true,
            })
            .collect();
        let link_fault_table = if cfg.link_faults.is_empty() {
            None
        } else {
            let mut table = vec![cfg.faults; links.len()];
            for (a, b, faults) in &cfg.link_faults {
                faults.validate().expect("per-link fault probabilities");
                let link = topology
                    .link_between(*a, *b)
                    .expect("per-link fault override names an existing link");
                table[link.0 as usize] = *faults;
            }
            Some(table)
        };
        let lossy = |f: &ClassicalFaults| f.drop > 0.0 || f.corrupt > 0.0;
        let lossy_wire = lossy(&cfg.faults)
            || cfg.link_faults.iter().any(|(_, _, f)| lossy(f))
            || !cfg.fault_plan.is_empty();
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
            pairs: PairStore::with_rep(cfg.state_rep),
            qubit_owner: NodeTable::new(n_nodes),
            refs: PairRefs::new(),
            label_map: (0..n_links).map(|_| Vec::new()).collect(),
            circuits: Vec::new(),
            cutoff_events: NodeTable::new(n_nodes),
            track_expiry_events: NodeTable::new(n_nodes),
            track_retransmits: NodeTable::new(n_nodes),
            link_delivered: NodeTable::new(n_nodes),
            signal_state: Vec::new(),
            app: AppHarness::default(),
            trace: if cfg.trace {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            rng_links,
            rng_nodes,
            rng_msgs: SimRng::substream(seed, "messages"),
            plane: ClassicalPlane::new(seed),
            scratch: qn_net::wire::ScratchEncoder::new(),
            outs: Vec::new(),
            cfg,
            state_mismatches: 0,
            discarded_pairs: 0,
            link_fault_table,
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
            threshold: installed.plan.e2e_fidelity,
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
        if self.cfg.signalling_on_wire {
            // Path-aligned entries with the cutoff override applied, so
            // the bytes on the wire are the entries the nodes install.
            let entries: Vec<_> = installed
                .path
                .iter()
                .map(|node| {
                    let (_, entry) = installed
                        .entries
                        .iter()
                        .find(|(n, _)| n == node)
                        .expect("every path node has a routing entry");
                    let mut entry = *entry;
                    if self.cfg.disable_cutoff {
                        entry.cutoff = SimDuration::MAX;
                    }
                    entry
                })
                .collect();
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
        for (node, entry) in &installed.entries {
            let mut entry = *entry;
            if self.cfg.disable_cutoff {
                entry.cutoff = SimDuration::MAX;
            }
            self.nodes[node.0 as usize]
                .qnp
                .handle(NetInput::InstallCircuit { entry }, &mut self.outs);
            debug_assert!(self.outs.is_empty());
        }
        false
    }

    /// The fidelity threshold of a circuit (for oracle baselines).
    pub fn circuit_threshold(&self, circuit: CircuitId) -> Option<f64> {
        self.circuit_rt(circuit).map(|c| c.threshold)
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

    /// The link on `side` of `node` for `circuit`.
    fn side_link(&self, circuit: CircuitId, node: NodeId, side: LinkSide) -> LinkId {
        let rt = self.circuit_rt(circuit).expect("circuit installed");
        let (up, down) = rt.neighbours(node);
        let peer = match side {
            LinkSide::Upstream => up.expect("upstream link exists"),
            LinkSide::Downstream => down.expect("downstream link exists"),
        };
        self.link_between(node, peer)
    }

    fn send_message(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: Message,
    ) {
        let rt = self.circuit_rt(circuit).expect("circuit installed");
        let (up, down) = rt.neighbours(from);
        let to = if downstream {
            down.expect("downstream neighbour")
        } else {
            up.expect("upstream neighbour")
        };
        let link = self.link_between(from, to);
        if !self.hop_alive(link, from, to) {
            // The hop (or one of its endpoints) is down: the frame dies
            // on the dead wire. A plan-free run never takes this branch.
            self.plane.stats.sent += 1;
            self.plane.stats.dropped += 1;
            return;
        }
        let channel = ChannelModel {
            propagation: self.links[link.0 as usize]
                .physics
                .fibre()
                .propagation_delay(),
            processing: self.cfg.processing_delay,
            extra: self.cfg.extra_message_delay,
            jitter: self.cfg.message_jitter,
        };
        self.trace.record(
            ctx.now(),
            TraceKind::Message,
            format_args!("{from}"),
            format_args!(
                "{} -> {to} ({})",
                msg.kind_name(),
                if downstream { "down" } else { "up" }
            ),
        );
        // The message crosses the hop as encoded bytes: the classical
        // plane transports (and may drop/duplicate/reorder/corrupt)
        // frames, never Rust values. Default config is a bit-identical
        // pass-through of the reliable in-order transport. Encoding goes
        // through the shared scratch buffer and the plane groups
        // same-tick frames, so only newly opened groups cost an event.
        let faults = self.hop_faults(link);
        let frame = self.scratch.message(&msg);
        let opened = self.plane.transmit(
            faults,
            from,
            to,
            downstream,
            ctx.now(),
            &channel,
            &mut self.rng_msgs,
            frame,
        );
        for b in opened.into_iter().flatten() {
            ctx.schedule_at(
                b.at,
                Ev::BatchDeliver {
                    to,
                    from_upstream: downstream,
                    batch: b.id,
                    link,
                },
            );
        }
    }

    /// Transmit one link-layer or signalling frame between two adjacent
    /// nodes over the classical plane (`signalling_on_wire` paths). The
    /// lane (`downstream`) only selects the batch the frame coalesces
    /// into; receivers demux these frames by kind byte, not direction.
    fn transmit_frame(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        to: NodeId,
        downstream: bool,
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        let Some(link) = self.hop(from, to) else {
            return;
        };
        if !self.hop_alive(link, from, to) {
            self.plane.stats.sent += 1;
            self.plane.stats.dropped += 1;
            return;
        }
        let channel = ChannelModel {
            propagation: self.links[link.0 as usize]
                .physics
                .fibre()
                .propagation_delay(),
            processing: self.cfg.processing_delay,
            extra: self.cfg.extra_message_delay,
            jitter: self.cfg.message_jitter,
        };
        let faults = self.hop_faults(link);
        let frame = self.scratch.frame(encode);
        let opened = self.plane.transmit(
            faults,
            from,
            to,
            downstream,
            ctx.now(),
            &channel,
            &mut self.rng_msgs,
            frame,
        );
        for b in opened.into_iter().flatten() {
            ctx.schedule_at(
                b.at,
                Ev::BatchDeliver {
                    to,
                    from_upstream: downstream,
                    batch: b.id,
                    link,
                },
            );
        }
    }

    /// Whether a hop can carry traffic right now: the link is up and so
    /// are both of its endpoints. Always true without a fault plan.
    fn hop_alive(&self, link: LinkId, from: NodeId, to: NodeId) -> bool {
        self.links[link.0 as usize].up
            && self.nodes[from.0 as usize].up
            && self.nodes[to.0 as usize].up
    }

    /// The message-fault model for a hop: its per-link override if one
    /// was configured, the global config otherwise.
    fn hop_faults(&self, link: LinkId) -> ClassicalFaults {
        match &self.link_fault_table {
            Some(table) => table[link.0 as usize],
            None => self.cfg.faults,
        }
    }

    /// Whether `node` is an intermediate (repeater) on the circuit.
    fn is_intermediate_on(&self, circuit: CircuitId, node: NodeId) -> bool {
        self.circuit_rt(circuit).is_some_and(|rt| {
            let (u, d) = rt.neighbours(node);
            u.is_some() && d.is_some()
        })
    }

    /// Arm the track-expiry timer for a freshly announced pair and
    /// remember the event so resolution can cancel it.
    fn arm_track_expiry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        correlator: Correlator,
        timeout: SimDuration,
    ) {
        let ev = ctx.schedule_in(
            timeout,
            Ev::TrackExpiry {
                node,
                circuit,
                correlator,
            },
        );
        self.track_expiry_events.insert(node, correlator, ev);
    }

    /// Cancel the track-expiry timer of `(node, correlator)`, if armed.
    fn cancel_track_expiry(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId, c: Correlator) {
        if let Some(ev) = self.track_expiry_events.remove(node, c) {
            ctx.cancel(ev);
        }
    }

    /// If `msg` is a TRACK this end-node just *originated* (`origin ==
    /// link` — a repeater rewrite can never produce that), arm its
    /// retransmission timer. Wire mode only; no RNG draws.
    fn maybe_arm_track_retry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: &Message,
    ) {
        if !self.cfg.signalling_on_wire {
            return;
        }
        let Message::Track(t) = msg else { return };
        if t.origin != t.link {
            return;
        }
        let event = ctx.schedule_in(
            self.cfg.retransmit.base,
            Ev::TrackRetransmit {
                node,
                circuit,
                origin: t.origin,
            },
        );
        self.track_retransmits.insert(
            node,
            t.origin,
            TrackRetry {
                attempt: 0,
                event,
                downstream,
                track: *t,
            },
        );
    }

    /// If `msg` is a request-level message (FORWARD/COMPLETE) leaving
    /// this node over a wire that can lose frames, schedule its first
    /// redundant copy. These messages are one-shot in the protocol —
    /// a lost FORWARD silently wedges the whole request, because link
    /// generation downstream never starts — but they are idempotent
    /// (receivers count and absorb duplicates) and per-request rare,
    /// so bounded blind redundancy is cheaper and simpler than an ack
    /// channel. No RNG draws.
    fn maybe_schedule_request_resend(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        msg: &Message,
    ) {
        if !self.cfg.signalling_on_wire || !self.lossy_wire {
            return;
        }
        if !matches!(msg, Message::Forward(_) | Message::Complete(_)) {
            return;
        }
        // Only the head end-node (the fan-out's origin) arms copies.
        // Repeaters relay every copy they receive — including
        // duplicates — so origin redundancy already covers every hop;
        // arming at relays too would amplify each copy per hop.
        if !self
            .circuit_rt(circuit)
            .is_some_and(|rt| rt.path.first() == Some(&node))
        {
            return;
        }
        ctx.schedule_in(
            self.cfg.retransmit.base,
            Ev::RequestResend {
                node,
                circuit,
                downstream,
                attempt: 1,
                msg: *msg,
            },
        );
    }

    /// A scheduled redundant request-level copy came due: re-send it
    /// and, within the retry budget, schedule the next copy.
    fn request_resend_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        downstream: bool,
        attempt: u32,
        msg: Message,
    ) {
        if self.circuit_rt(circuit).is_none() {
            return; // torn down; the fan-out is moot
        }
        if attempt < self.cfg.retransmit.max_retries {
            ctx.schedule_in(
                backoff(self.cfg.retransmit.base, attempt),
                Ev::RequestResend {
                    node,
                    circuit,
                    downstream,
                    attempt: attempt + 1,
                    msg,
                },
            );
        }
        self.plane.stats.request_retransmits += 1;
        self.send_message(ctx, node, circuit, downstream, msg);
    }

    /// An armed TRACK retransmission timer fired.
    fn track_retransmit_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        origin: Correlator,
    ) {
        let Some(mut retry) = self.track_retransmits.remove(node, origin) else {
            return; // acknowledged meanwhile
        };
        if self.circuit_rt(circuit).is_none() {
            return; // torn down; nothing left to confirm
        }
        if retry.attempt >= self.cfg.retransmit.max_retries {
            self.plane.stats.retransmits_abandoned += 1;
            return;
        }
        retry.attempt += 1;
        retry.event = ctx.schedule_in(
            backoff(self.cfg.retransmit.base, retry.attempt),
            Ev::TrackRetransmit {
                node,
                circuit,
                origin,
            },
        );
        self.plane.stats.track_retransmits += 1;
        let (downstream, track) = (retry.downstream, retry.track);
        self.track_retransmits.insert(node, origin, retry);
        self.send_message(ctx, node, circuit, downstream, Message::Track(track));
    }

    /// Deliver a link pair announcement to one node's QNP, routing
    /// near-term repeaters through the move-to-storage step first.
    #[allow(clippy::too_many_arguments)] // mirrors the announcement fields
    fn deliver_link_pair(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        link: LinkId,
        pid: PairId,
        circuit: CircuitId,
        side: LinkSide,
        info: PairInfo,
    ) {
        // Near-term repeaters must move the pair into carbon storage
        // before the shared electron frees up; the network layer learns
        // of the pair once it is safely stored.
        if self.cfg.near_term && self.is_intermediate_on(circuit, node) {
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
                        link,
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
        self.deliver_link_pair(ctx, node, link, pid, circuit, side, pair_info);
    }

    /// Demuxed handler for link-layer frames (kinds `0x10..=0x12`)
    /// arriving over the wire.
    fn handle_link_frame(&mut self, ctx: &mut Context<'_, Ev>, to: NodeId, frame: &[u8]) {
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

    /// Send the signalling frame (INSTALL, or TEARDOWN once tearing)
    /// from `path[hop]` to `path[hop + 1]` and arm its retransmit timer.
    fn send_signal_hop(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId, hop: usize) {
        let Some(st) = self
            .signal_state
            .get(circuit.0 as usize)
            .and_then(|s| s.as_ref())
        else {
            return;
        };
        let (from, to) = (st.path[hop], st.path[hop + 1]);
        let msg = if st.tearing {
            qn_routing::wire::SignalMessage::Teardown { circuit }
        } else {
            qn_routing::wire::SignalMessage::Install {
                entry: st.entries[hop + 1],
            }
        };
        self.transmit_frame(ctx, from, to, true, |b| msg.encode_to(b));
        let event = ctx.schedule_in(
            self.cfg.retransmit.base,
            Ev::SignalRetransmit { circuit, hop },
        );
        if let Some(st) = self
            .signal_state
            .get_mut(circuit.0 as usize)
            .and_then(|s| s.as_mut())
        {
            // An unacked INSTALL's timer may still guard this hop when a
            // TEARDOWN overtakes it; the new frame supersedes it.
            if let Some(SignalRetry { event, .. }) =
                st.pending[hop].replace(SignalRetry { attempt: 0, event })
            {
                ctx.cancel(event);
            }
        }
    }

    /// A signalling retransmit timer fired for the frame from
    /// `path[hop]` to `path[hop + 1]`.
    fn signal_retransmit_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        circuit: CircuitId,
        hop: usize,
    ) {
        let (msg, from, to, attempt) = {
            let Some(st) = self
                .signal_state
                .get_mut(circuit.0 as usize)
                .and_then(|s| s.as_mut())
            else {
                return;
            };
            let Some(retry) = st.pending[hop].take() else {
                return; // acknowledged meanwhile
            };
            if retry.attempt >= self.cfg.retransmit.max_retries {
                self.plane.stats.retransmits_abandoned += 1;
                return;
            }
            let msg = if st.tearing {
                qn_routing::wire::SignalMessage::Teardown { circuit }
            } else {
                qn_routing::wire::SignalMessage::Install {
                    entry: st.entries[hop + 1],
                }
            };
            (msg, st.path[hop], st.path[hop + 1], retry.attempt + 1)
        };
        self.plane.stats.signal_retransmits += 1;
        let event = ctx.schedule_in(
            backoff(self.cfg.retransmit.base, attempt),
            Ev::SignalRetransmit { circuit, hop },
        );
        if let Some(st) = self
            .signal_state
            .get_mut(circuit.0 as usize)
            .and_then(|s| s.as_mut())
        {
            st.pending[hop] = Some(SignalRetry { attempt, event });
        }
        self.transmit_frame(ctx, from, to, true, |b| msg.encode_to(b));
    }

    /// Kick off a wire-borne installation: the head installs locally and
    /// the INSTALL chain starts down the path.
    fn signal_kick(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        let (head, entry, more) = {
            let Some(st) = self
                .signal_state
                .get_mut(circuit.0 as usize)
                .and_then(|s| s.as_mut())
            else {
                return;
            };
            if st.tearing || st.installed[0] {
                return;
            }
            st.installed[0] = true;
            (st.path[0], st.entries[0], st.path.len() > 1)
        };
        self.qnp_input(ctx, head, circuit, NetInput::InstallCircuit { entry });
        if more {
            self.send_signal_hop(ctx, circuit, 0);
        }
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

    /// Demuxed handler for routing-signalling frames (kinds
    /// `0x20..=0x23`) arriving over the wire.
    fn handle_signal_frame(&mut self, ctx: &mut Context<'_, Ev>, to: NodeId, frame: &[u8]) {
        let msg = match qn_routing::wire::SignalMessage::decode(frame) {
            Ok(msg) => msg,
            Err(err) => {
                self.plane.stats.signal_decode_failures += 1;
                self.trace.record(
                    ctx.now(),
                    TraceKind::Info,
                    format_args!("{to}"),
                    format_args!("undecodable signalling frame dropped: {err}"),
                );
                return;
            }
        };
        use qn_routing::wire::SignalMessage as Sm;
        let circuit = match msg {
            Sm::Install { entry } => entry.circuit,
            Sm::Teardown { circuit } | Sm::InstallAck { circuit } | Sm::TeardownAck { circuit } => {
                circuit
            }
        };
        // Position of the receiving node on the signalled path. Frames
        // for unknown circuits (corrupted id) or from nodes off the path
        // are stale noise: drop.
        let Some(i) = self
            .signal_state
            .get(circuit.0 as usize)
            .and_then(|s| s.as_ref())
            .map(|st| st.path.as_slice())
            .and_then(|p| p.iter().position(|n| *n == to))
        else {
            return;
        };
        match msg {
            Sm::Install { entry } => {
                if i == 0 {
                    return; // the head installs locally, never via wire
                }
                let (first, prev, last) = {
                    let st = self.signal_state[circuit.0 as usize]
                        .as_mut()
                        .expect("checked");
                    let first = !st.installed[i] && !st.tearing;
                    st.installed[i] = true;
                    (first, st.path[i - 1], st.path.len() - 1)
                };
                if first {
                    self.qnp_input(ctx, to, circuit, NetInput::InstallCircuit { entry });
                    if i < last {
                        self.send_signal_hop(ctx, circuit, i);
                    }
                }
                // Always ack — re-acks recover lost acks; a node caught
                // by teardown acks too (the sender must stop either way).
                self.plane.stats.signal_acks += 1;
                let msg = Sm::InstallAck { circuit };
                self.transmit_frame(ctx, to, prev, false, |b| msg.encode_to(b));
            }
            Sm::Teardown { .. } => {
                if i == 0 {
                    return;
                }
                let (first, prev, last) = {
                    let st = self.signal_state[circuit.0 as usize]
                        .as_mut()
                        .expect("checked");
                    let first = !st.torn[i];
                    st.torn[i] = true;
                    st.tearing = true;
                    (first, st.path[i - 1], st.path.len() - 1)
                };
                if first {
                    self.qnp_input(ctx, to, circuit, NetInput::TeardownCircuit { circuit });
                    if i < last {
                        self.send_signal_hop(ctx, circuit, i);
                    } else {
                        self.finish_teardown(circuit);
                    }
                }
                self.plane.stats.signal_acks += 1;
                let msg = Sm::TeardownAck { circuit };
                self.transmit_frame(ctx, to, prev, false, |b| msg.encode_to(b));
            }
            Sm::InstallAck { .. } => {
                let st = self.signal_state[circuit.0 as usize]
                    .as_mut()
                    .expect("checked");
                // Once tearing, the pending slot guards a TEARDOWN; a
                // straggling install ack must not cancel it.
                if !st.tearing {
                    if let Some(SignalRetry { event, .. }) = st.pending[i].take() {
                        ctx.cancel(event);
                    }
                }
            }
            Sm::TeardownAck { .. } => {
                let st = self.signal_state[circuit.0 as usize]
                    .as_mut()
                    .expect("checked");
                if st.tearing {
                    if let Some(SignalRetry { event, .. }) = st.pending[i].take() {
                        ctx.cancel(event);
                    }
                }
            }
        }
    }

    /// Wire-borne teardown: cancel outstanding INSTALL retransmissions,
    /// tear the head down locally, and start the TEARDOWN chain.
    fn teardown_wire(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
        let (head, more) = {
            let Some(st) = self
                .signal_state
                .get_mut(circuit.0 as usize)
                .and_then(|s| s.as_mut())
            else {
                return;
            };
            if st.tearing {
                return;
            }
            st.tearing = true;
            st.torn[0] = true;
            for slot in &mut st.pending {
                if let Some(SignalRetry { event, .. }) = slot.take() {
                    ctx.cancel(event);
                }
            }
            (st.path[0], st.path.len() > 1)
        };
        self.qnp_input(ctx, head, circuit, NetInput::TeardownCircuit { circuit });
        self.trace.record(
            ctx.now(),
            TraceKind::Info,
            format_args!("signalling"),
            format_args!("{circuit} teardown signalled"),
        );
        if more {
            self.send_signal_hop(ctx, circuit, 0);
        } else {
            self.finish_teardown(circuit);
        }
    }

    /// Free one end of a pair at a node: release the memory slot, drop
    /// the reference, and — because freed qubits get re-initialised for
    /// new attempts — replace the abandoned end with white noise when the
    /// pair survives at the other end.
    fn release_end(
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

    /// Re-examine every link attached to `node` (a qubit freed or a
    /// request changed).
    fn poll_links_of(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        for i in 0..self.node_links[node.0 as usize].len() {
            let link = self.node_links[node.0 as usize][i].1;
            self.poll_link(ctx, link);
        }
    }

    /// Start the next generation on a link if the protocol has work and
    /// both endpoint devices can reserve a communication qubit.
    fn poll_link(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
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
        let p = l.physics.success_prob(spec.alpha);
        let attempts = self.rng_links[link.0 as usize].geometric(p);
        let duration = l.physics.cycle_time().saturating_mul(attempts);
        let event = ctx.schedule_in(duration, Ev::GenDone { link });
        l.inflight = Some(Inflight {
            label: spec.label,
            alpha: spec.alpha,
            attempts,
            started: ctx.now(),
            event,
            qubit_a: (na, qa),
            qubit_b: (nb, qb),
        });
    }

    /// A link generation heralded success: create the physical pair,
    /// charge nuclear dephasing, notify the network layers.
    fn gen_done(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &mut self.links[link.0 as usize];
        let inflight = l.inflight.take().expect("GenDone without inflight");
        let elapsed = ctx.now().since(inflight.started);
        let announced = l
            .physics
            .sample_announced(&mut self.rng_links[link.0 as usize]);
        let (pair, events) = l
            .proto
            .on_generation_complete(announced, inflight.attempts, elapsed);
        let state = l
            .physics
            .heralded_pair(inflight.alpha, announced, self.pairs.rep());
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
            .nuclear_dephasing_per_attempt(inflight.alpha);
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
                    self.cfg.retransmit.base,
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
                self.transmit_frame(ctx, peer, node, downstream, |b| {
                    qn_net::wire::encode_link_event(&LinkEvent::PairReady(pair), b)
                });
            } else {
                self.deliver_link_pair(ctx, node, link, pid, circuit, side, pair_info);
            }
        }

        // The link may start its next generation immediately (if qubits
        // remain free).
        for e in events {
            if let LinkEvent::RequestDone(label) = e {
                if self.cfg.signalling_on_wire {
                    for (from, to) in [(nb, na), (na, nb)] {
                        let downstream = from == upstream_node;
                        self.transmit_frame(ctx, from, to, downstream, |b| {
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
    fn move_done(
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

    /// Run one input through `node`'s QNP and apply its effects. The
    /// output buffer is the model's own, reused across inputs: taken for
    /// the call and put back after, so a nested call fills a buffer of
    /// its own and stays correct.
    fn qnp_input(
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
                                self.transmit_frame(ctx, peer, node, downstream, |b| {
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

    fn record_delivery(
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

    fn swap_done(
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

    /// Tear a circuit down at every node: the QNP aborts requests and
    /// releases pairs; the label mapping is removed so in-flight link
    /// generations for the circuit are dropped at delivery.
    fn teardown(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId) {
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
        for row in &mut self.label_map {
            row.retain(|(_, info)| info.circuit != circuit);
        }
        self.circuits[circuit.0 as usize] = None;
        self.trace.record(
            ctx.now(),
            TraceKind::Info,
            format_args!("signalling"),
            format_args!("{circuit} torn down"),
        );
    }

    fn measure_done(
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

    // ----- component faults (FaultPlan execution) -----

    /// Dispatch one [`ComponentEvent`] from the expanded fault plan.
    fn component_fault(&mut self, ctx: &mut Context<'_, Ev>, event: ComponentEvent) {
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
        if !self.links[link.0 as usize].up {
            return;
        }
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
        if self.links[link.0 as usize].up {
            return;
        }
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
    /// [`AppEvent::CircuitDown`]). Counters ([`NodeStats`]) survive —
    /// they model the experimenter's observability, not device memory.
    fn node_crash(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        let idx = node.0 as usize;
        if !self.nodes[idx].up {
            return;
        }
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
        self.nodes[idx].qnp = QnpNode::new(node);
        self.nodes[idx].qnp.stats = stats;
        // Reclaim every pair end the node still holds (memory power
        // loss): the far ends of swapped chains survive, depolarised.
        let held: Vec<Correlator> = self.qubit_owner.rows[idx].iter().map(|(c, _)| *c).collect();
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
        self.link_delivered.drain_row(node);
        // Attached links can no longer generate.
        self.refresh_links_of(ctx, node);
    }

    /// A crashed node restarts with a blank protocol instance and
    /// re-registers its links: any attached link whose other pieces are
    /// healthy resumes generation immediately.
    fn node_restart(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        let idx = node.0 as usize;
        if self.nodes[idx].up {
            return;
        }
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

    /// Reconcile a link's generation activity with the up/down state of
    /// the link and its endpoints: pause (aborting any heralding attempt
    /// in flight) when any of the three is down; resume and re-poll when
    /// all are healthy again.
    fn refresh_link_activity(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &self.links[link.0 as usize];
        let alive = l.up && self.nodes[l.a.0 as usize].up && self.nodes[l.b.0 as usize].up;
        if alive {
            self.links[link.0 as usize].proto.resume();
            self.poll_link(ctx, link);
        } else {
            self.links[link.0 as usize].proto.pause();
            self.abort_link_inflight(ctx, link);
        }
    }

    /// Cancel a heralding attempt in flight on the link: the generation
    /// event is descheduled, the protocol is charged the elapsed time,
    /// and the reserved communication qubits return to their devices.
    fn abort_link_inflight(&mut self, ctx: &mut Context<'_, Ev>, link: LinkId) {
        let l = &mut self.links[link.0 as usize];
        if let Some(inflight) = l.inflight.take() {
            ctx.cancel(inflight.event);
            let elapsed = ctx.now().since(inflight.started);
            l.proto.on_generation_aborted(inflight.label, elapsed);
            let (na, qa) = inflight.qubit_a;
            let (nb, qb) = inflight.qubit_b;
            self.nodes[na.0 as usize].device.free(qa);
            self.nodes[nb.0 as usize].device.free(qb);
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
            let held: Vec<Correlator> = self.qubit_owner.rows[node.0 as usize]
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
                    .map(|(_, info)| (info.circuit, info.upstream_node));
                match owner {
                    Some((circuit, upstream_node)) => {
                        let side = if node == upstream_node {
                            LinkSide::Downstream
                        } else {
                            LinkSide::Upstream
                        };
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
                        self.qnp_input(ctx, node, circuit, input);
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
    /// (end-nodes report [`AppEvent::CircuitDown`] to their
    /// applications); wire-signalling retransmit timers for the circuit
    /// are disarmed — there is no peer left to ack them.
    fn teardown_by_fault(&mut self, ctx: &mut Context<'_, Ev>, circuit: CircuitId, dead: NodeId) {
        let Some(rt) = self.circuit_rt(circuit) else {
            return;
        };
        let path = rt.path.clone();
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
            self.qnp_input(ctx, node, circuit, NetInput::TeardownCircuit { circuit });
        }
        self.finish_teardown(circuit);
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

    /// Leak introspection: correlator state the runtime retains — live
    /// pair ends plus PAIR_READY dedup records. Zero after a settled
    /// run.
    pub fn retained_correlators(&self) -> usize {
        self.qubit_owner.len() + self.link_delivered.len()
    }
}

impl Model for NetworkModel {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut Context<'_, Ev>) {
        let _ = now;
        match event {
            Ev::BatchDeliver {
                to,
                from_upstream,
                batch,
                link,
            } => {
                let batch = self
                    .plane
                    .take_batch(batch)
                    .expect("BatchDeliver drains each open group exactly once");
                // A component fault took the hop (or the receiver) down
                // while the group was in flight: every frame in it dies
                // on the wire. Plan-free runs never take this branch.
                if !self.links[link.0 as usize].up || !self.nodes[to.0 as usize].up {
                    let lost = batch.frames().count() as u64;
                    self.plane.stats.delivered -= lost;
                    self.plane.stats.dropped += lost;
                    self.plane.recycle(batch);
                    return;
                }
                let wire = self.cfg.signalling_on_wire;
                for frame in batch.frames() {
                    // One lane carries three planes; the kind byte
                    // demuxes. Link-layer and signalling kinds only ever
                    // appear with `signalling_on_wire` (their handlers
                    // are total regardless).
                    match frame.get(1).copied() {
                        Some(k)
                            if (qn_net::wire::KIND_LINK_PAIR_READY
                                ..=qn_net::wire::KIND_LINK_REJECTED)
                                .contains(&k) =>
                        {
                            self.handle_link_frame(ctx, to, frame);
                            continue;
                        }
                        Some(k)
                            if (qn_net::wire::KIND_SIGNAL_INSTALL
                                ..=qn_net::wire::KIND_SIGNAL_TEARDOWN_ACK)
                                .contains(&k) =>
                        {
                            self.handle_signal_frame(ctx, to, frame);
                            continue;
                        }
                        _ => {}
                    }
                    // Decode at the receiver: a frame corrupted in flight
                    // may fail here (counted, dropped — the message is
                    // simply lost) or decode into a different valid
                    // message the protocol rules must absorb.
                    match Message::decode(frame) {
                        Ok(msg) => {
                            let circuit = msg.circuit();
                            let input = NetInput::Message { from_upstream, msg };
                            self.qnp_input(ctx, to, circuit, input);
                            // End-to-end TRACK acknowledgement: an
                            // end-node receiving a TRACK (first copy or
                            // duplicate — re-acks recover lost acks)
                            // answers towards its origin. Guarded
                            // structurally, not just by role: a
                            // corrupted circuit id can name a circuit
                            // this node is not an end of (or not on at
                            // all), and the ack can only go where the
                            // named circuit actually has a hop.
                            let ack_down = !from_upstream;
                            if let Message::Track(t) = msg {
                                let can_ack = wire
                                    && self.circuit_rt(circuit).is_some_and(|rt| {
                                        match rt.path.iter().position(|n| *n == to) {
                                            Some(0) => ack_down && rt.path.len() > 1,
                                            Some(i) => i + 1 == rt.path.len() && !ack_down,
                                            None => false,
                                        }
                                    });
                                if can_ack {
                                    let ack = Message::TrackAck(TrackAck {
                                        circuit,
                                        origin: t.origin,
                                    });
                                    self.plane.stats.track_acks += 1;
                                    self.send_message(ctx, to, circuit, ack_down, ack);
                                }
                            }
                        }
                        Err(err) => {
                            self.plane.stats.count_decode_failure(frame.get(1).copied());
                            self.trace.record(
                                now,
                                TraceKind::Info,
                                format_args!("{to}"),
                                format_args!("undecodable frame dropped: {err}"),
                            );
                        }
                    }
                }
                self.plane.recycle(batch);
            }
            Ev::TrackExpiry {
                node,
                circuit,
                correlator,
            } => {
                self.track_expiry_events.remove(node, correlator);
                self.qnp_input(
                    ctx,
                    node,
                    circuit,
                    NetInput::TrackTimeout {
                        circuit,
                        correlator,
                    },
                );
            }
            Ev::OrphanCheck {
                node,
                circuit,
                correlator,
                side,
            } => {
                // Announcement delivery is a single classical hop, so by
                // now a pair the QNP has never heard of lost its
                // PAIR_READY for good: reclaim the qubit and let the
                // protocol bounce EXPIREs for any TRACK that references
                // it. A resolved (delivered, swapped or discarded) pair
                // makes this a no-op — the check is never cancelled.
                if self.qubit_owner.get(node, correlator).is_some()
                    && !self.nodes[node.0 as usize]
                        .qnp
                        .knows_pair(circuit, correlator)
                {
                    self.discarded_pairs += 1;
                    self.trace.record(
                        now,
                        TraceKind::Discard,
                        format_args!("{node}"),
                        format_args!("orphaned pair {correlator} reclaimed"),
                    );
                    self.release_end(ctx, node, correlator, true);
                    self.qnp_input(
                        ctx,
                        node,
                        circuit,
                        NetInput::LinkOrphaned {
                            circuit,
                            side,
                            correlator,
                        },
                    );
                }
            }
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
            } => {
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
            Ev::MoveDone {
                node,
                pair,
                storage,
                link: _,
                circuit,
                side,
                info,
            } => self.move_done(ctx, node, pair, storage, circuit, side, info),
            Ev::SubmitRequest { circuit, request } => {
                let head = self.circuit_rt(circuit).expect("circuit installed").path[0];
                self.app.submitted.insert((circuit, request.id), ctx.now());
                self.qnp_input(
                    ctx,
                    head,
                    circuit,
                    NetInput::UserRequest { circuit, request },
                );
            }
            Ev::CancelRequest { circuit, request } => {
                let head = self.circuit_rt(circuit).expect("circuit installed").path[0];
                self.qnp_input(
                    ctx,
                    head,
                    circuit,
                    NetInput::CancelRequest { circuit, request },
                );
            }
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
                downstream,
                attempt,
                msg,
            } => self.request_resend_fire(ctx, node, circuit, downstream, attempt, msg),
            Ev::Teardown { circuit } => self.teardown(ctx, circuit),
            Ev::Checkpoint => {
                self.pairs.advance_all(now);
                if let CheckpointPolicy::Interval(dt) = self.cfg.checkpoint {
                    ctx.schedule_in(dt, Ev::Checkpoint);
                }
            }
            Ev::ComponentFault { event } => self.component_fault(ctx, event),
        }
    }
}
