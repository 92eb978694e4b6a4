//! The QNP node state machine.
//!
//! One [`QnpNode`] per network node, holding per-circuit protocol state.
//! Rule implementations live in [`crate::rules`]: endpoint rules
//! (Algorithms 1–6 of Appendix C, head-end and tail-end) and repeater
//! rules (Algorithms 7–9).
//!
//! The machine is sans-IO and deterministic: all effects are appended to
//! a caller-owned list of [`NetOutput`] values, all timing lives in the
//! runtime.

use crate::demux::SymmetricDemux;
use crate::events::{NetInput, NetOutput};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{CircuitId, Correlator, Epoch, RequestId};
use crate::messages::Track;
use crate::policing::Policer;
use crate::request::RequestType;
use crate::routing_table::{Role, RoutingEntry};
use qn_quantum::bell::BellState;
use std::collections::{BTreeMap, VecDeque};
use std::hash::Hash;

/// The swap records one link side of a repeater keeps, newest first: a
/// record whose TRACK never comes (its chain broke on the far side) is
/// dropped once this many newer ones were logged on its side.
pub const SWAP_RECORDS: usize = 4096;

/// A map remembering (at most) the `cap` most recently inserted keys,
/// evicting oldest-first: the record books that broken chains or a
/// faulty classical plane would otherwise grow without limit (discard
/// records, swap records, expired correlators, retired requests, the
/// repeater's relayed-TRACK memory). A removed key keeps its eviction
/// slot until the slot ages out, so the map holds at most the `cap`
/// newest keys not yet removed; a key inserted again after its removal
/// goes when its older slot does. With `V = ()` it is a bounded set.
#[derive(Debug)]
pub(crate) struct BoundedMap<K, V> {
    map: FxHashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Eq + Hash + Copy, V> BoundedMap<K, V> {
    pub fn new(cap: usize) -> Self {
        BoundedMap {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Insert `k → v`, evicting the oldest slot once `cap` slots are
    /// taken. An existing key is overwritten in place (its eviction slot
    /// stays).
    pub fn insert(&mut self, k: K, v: V) {
        if self.map.insert(k, v).is_some() {
            return;
        }
        if self.order.len() == self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.order.push_back(k);
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.map.remove(k)
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up a key.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    /// Membership test.
    pub fn contains_key(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }
}

/// State of one request known at an end-node.
#[derive(Clone, Debug)]
pub(crate) struct ReqState {
    pub head_identifier: u32,
    pub tail_identifier: u32,
    pub request_type: RequestType,
    pub final_state: Option<BellState>,
    /// Total pairs, `None` for rate-based requests.
    pub count: Option<u64>,
    /// Confirmed deliveries at this end.
    pub delivered: u64,
    /// Next delivery sequence number.
    pub next_seq: u64,
    /// Pairs assigned by the local demultiplexer.
    pub assigned: u64,
    /// Set once the request finished (kept for late TRACKs).
    pub completed: bool,
}

impl ReqState {
    pub fn take_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    pub fn is_full(&self) -> bool {
        matches!(self.count, Some(n) if self.delivered >= n)
    }
}

/// A pair tracked at an end-node between link delivery and confirmation.
#[derive(Clone, Debug)]
pub(crate) struct InTransit {
    pub request: RequestId,
    pub pair: Correlator,
    /// Epoch stamped on the head-originated TRACK (head-end only).
    pub epoch: Epoch,
    pub delivered_early: bool,
    /// MEASURE bookkeeping: outcome arrives asynchronously.
    pub awaiting_measure: bool,
    pub measure_outcome: Option<bool>,
    /// TRACK that arrived before the measurement outcome.
    pub pending_track: Option<Track>,
}

/// End-node (head or tail) circuit state.
#[derive(Debug)]
pub(crate) struct EndpointState {
    pub is_head: bool,
    pub requests: BTreeMap<RequestId, ReqState>,
    pub demux: SymmetricDemux,
    pub in_transit: FxHashMap<Correlator, InTransit>,
    /// Head-end only: admission control and bandwidth bookkeeping.
    pub policer: Policer,
    /// Whether the circuit's link request is live on our single link.
    pub link_submitted: bool,
    /// Discard records for link pairs this end could not assign to any
    /// request (or expired locally): when the peer's TRACK for such a
    /// chain arrives, it is answered with an EXPIRE so the peer's qubit
    /// is freed (the end-node analogue of the repeater's discard
    /// records; without it a timing window leaks an `assigned` slot at
    /// the peer forever).
    pub discard_records: BoundedMap<Correlator, ()>,
}

impl EndpointState {
    /// Fresh endpoint state for one end of a circuit.
    pub fn new(is_head: bool, max_eer: f64) -> Self {
        EndpointState {
            is_head,
            requests: BTreeMap::new(),
            demux: SymmetricDemux::new(),
            in_transit: FxHashMap::default(),
            policer: Policer::new(max_eer),
            link_submitted: false,
            discard_records: BoundedMap::new(4096),
        }
    }
}

/// A pair queued at a repeater awaiting its matching pair.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingPair {
    pub pair: Correlator,
    pub announced: BellState,
}

/// Swap record (paper §4.1 "Swap records"): logged when a swap completes
/// before the corresponding TRACK arrives.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SwapRecord {
    /// The pair continuing the chain on the other link.
    pub other: PendingPair,
    /// The two-bit announced swap outcome.
    pub outcome: BellState,
}

/// A repeater's state for the pairs on one of its two links. Every key
/// is the correlator of the local pair on this link, and every TRACK
/// kept here arrived from this side.
#[derive(Debug)]
pub(crate) struct MidSide {
    /// FIFO of unswapped pairs (oldest first — the evaluation's "prefer
    /// the oldest unexpired pairs").
    pub queue: VecDeque<PendingPair>,
    /// TRACKs waiting for their pair's swap.
    pub track: FxHashMap<Correlator, Track>,
    /// Swap records waiting for their TRACK. A chain that broke on the
    /// far side (an end node discarded its pair unassigned, or the next
    /// repeater's cutoff took it) sends no TRACK, so its record would
    /// stay for the life of the circuit: the book keeps the newest
    /// [`SWAP_RECORDS`], more than any committed workload holds.
    pub record: BoundedMap<Correlator, SwapRecord>,
    /// Discard records (paper: "temporary discard record") for qubits
    /// dropped by the cutoff before their TRACK arrived. Kept (bounded)
    /// after the first matching TRACK so a duplicated TRACK re-bounces
    /// the EXPIRE instead of parking forever.
    pub expired: BoundedMap<Correlator, ()>,
    /// Rewritten TRACKs this repeater already forwarded, kept only where
    /// the classical plane can deliver a TRACK twice (`None` elsewhere):
    /// a duplicated TRACK (retransmission racing the ack, or a
    /// duplication fault) finds its swap record consumed, so the stored
    /// copy is re-forwarded verbatim.
    pub relayed: Option<BoundedMap<Correlator, Track>>,
}

impl MidSide {
    fn new(duplicate_tracks: bool) -> Self {
        MidSide {
            queue: VecDeque::new(),
            track: FxHashMap::default(),
            record: BoundedMap::new(SWAP_RECORDS),
            expired: BoundedMap::new(1024),
            relayed: duplicate_tracks.then(|| BoundedMap::new(1024)),
        }
    }
}

/// Intermediate-node circuit state.
#[derive(Debug)]
pub(crate) struct MidState {
    /// Per-link state, indexed by
    /// [`LinkSide`](crate::routing_table::LinkSide) (upstream first).
    pub sides: [MidSide; 2],
    /// The swap currently executing, if any (one processor per node):
    /// the consumed pairs, indexed the same way.
    pub swapping: Option<[PendingPair; 2]>,
    /// Requests currently active on the circuit (from FORWARD/COMPLETE).
    /// The downstream link request is live exactly while the set is
    /// non-empty. Keyed by id, so a faulty plane's duplicated
    /// FORWARD/COMPLETE is absorbed instead of leaving the link
    /// generating forever.
    pub active_requests: FxHashSet<RequestId>,
    /// Recently retired request ids: a FORWARD duplicate arriving after
    /// its COMPLETE must not resurrect the request.
    pub retired_requests: BoundedMap<RequestId, ()>,
}

impl MidState {
    fn new(duplicate_tracks: bool) -> Self {
        MidState {
            sides: [
                MidSide::new(duplicate_tracks),
                MidSide::new(duplicate_tracks),
            ],
            swapping: None,
            active_requests: FxHashSet::default(),
            retired_requests: BoundedMap::new(1024),
        }
    }
}

/// Per-circuit state at one node. A repeater's state takes 744 bytes
/// and an end node's 248, but both stay inline: boxing them raised
/// `openworld_wire`'s peak memory from about 7.1 to 7.7 MiB in four of
/// six runs, and saved no time.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum CircuitState {
    Endpoint(EndpointState),
    Mid(MidState),
}

pub(crate) struct Circuit {
    /// The node this circuit state lives on (for delivery addresses).
    pub node: qn_sim::NodeId,
    pub entry: RoutingEntry,
    pub state: CircuitState,
}

/// The circuits installed at one node, keyed by `entry.circuit`: one
/// short row scanned linearly. A node sits on a handful of live
/// circuits and teardown removes its entry, so the row never grows
/// with run length, and nothing hashes on the per-input path.
#[derive(Default)]
struct Circuits(Vec<Circuit>);

impl Circuits {
    fn get(&self, id: CircuitId) -> Option<&Circuit> {
        self.0.iter().find(|c| c.entry.circuit == id)
    }

    fn get_mut(&mut self, id: CircuitId) -> Option<&mut Circuit> {
        self.0.iter_mut().find(|c| c.entry.circuit == id)
    }

    /// Install `c`, replacing any circuit with the same id.
    fn insert(&mut self, c: Circuit) {
        match self.get_mut(c.entry.circuit) {
            Some(old) => *old = c,
            None => self.0.push(c),
        }
    }

    fn remove(&mut self, id: CircuitId) -> Option<Circuit> {
        let i = self.0.iter().position(|c| c.entry.circuit == id)?;
        Some(self.0.swap_remove(i))
    }
}

/// Resilience counters: anomalous classical-plane inputs the node
/// absorbed instead of acting on. All zero on a reliable, in-order
/// plane; a faulty classical plane (drops, duplicates, reordering,
/// corruption — `qn_netsim`'s `ClassicalFaults`) makes them tick.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NodeStats {
    /// FORWARDs for an already-known request (duplication faults).
    pub duplicate_forwards: u64,
    /// COMPLETEs for an already-retired request.
    pub duplicate_completes: u64,
    /// Role-inconsistent messages ignored (e.g. a FORWARD arriving at a
    /// head-end — only possible via corruption).
    pub misrouted: u64,
    /// TRACKs matching no in-transit pair, record or discard record
    /// (duplicated or corrupted TRACKs).
    pub stale_tracks: u64,
    /// EXPIREs matching no in-transit pair.
    pub stale_expires: u64,
    /// In-transit pairs expired by the local track-timeout (their
    /// TRACK/EXPIRE never arrived).
    pub expired_in_transit: u64,
    /// Messages for circuits not installed at this node.
    pub unknown_circuit: u64,
    /// Duplicated TRACKs a repeater re-relayed from its bounded
    /// relayed-TRACK memory (retransmissions racing their ack, or
    /// duplication faults). Always zero on a node built for a plane
    /// that delivers each TRACK once, which keeps no such memory.
    pub duplicate_tracks_relayed: u64,
}

impl NodeStats {
    /// Element-wise sum (for aggregating across nodes).
    pub fn merge(&mut self, other: &NodeStats) {
        self.duplicate_forwards += other.duplicate_forwards;
        self.duplicate_completes += other.duplicate_completes;
        self.misrouted += other.misrouted;
        self.stale_tracks += other.stale_tracks;
        self.stale_expires += other.stale_expires;
        self.expired_in_transit += other.expired_in_transit;
        self.unknown_circuit += other.unknown_circuit;
        self.duplicate_tracks_relayed += other.duplicate_tracks_relayed;
    }

    /// Total anomalies absorbed.
    pub fn total(&self) -> u64 {
        self.duplicate_forwards
            + self.duplicate_completes
            + self.misrouted
            + self.stale_tracks
            + self.stale_expires
            + self.expired_in_transit
            + self.unknown_circuit
            + self.duplicate_tracks_relayed
    }
}

/// The QNP protocol instance at one node.
pub struct QnpNode {
    node: qn_sim::NodeId,
    /// Whether a TRACK can reach this node twice (see [`QnpNode::new`]).
    duplicate_tracks: bool,
    circuits: Circuits,
    /// Resilience counters (see [`NodeStats`]).
    pub stats: NodeStats,
}

impl QnpNode {
    /// A node with no circuits installed. `duplicate_tracks` says
    /// whether its classical plane can deliver the same TRACK twice (a
    /// retransmitting or faulty plane). Only then do its repeater
    /// circuits remember the TRACKs they relayed, so that a duplicate
    /// is relayed again; on a plane that delivers each message once
    /// nothing could read that memory.
    pub fn new(node: qn_sim::NodeId, duplicate_tracks: bool) -> Self {
        QnpNode {
            node,
            duplicate_tracks,
            circuits: Circuits::default(),
            stats: NodeStats::default(),
        }
    }

    /// The node's role on a circuit, if installed.
    pub fn role(&self, circuit: CircuitId) -> Option<Role> {
        self.circuits.get(circuit).map(|c| c.entry.role())
    }

    /// Handle one input, appending the effects for the runtime to `out`
    /// (a caller-owned buffer the runtime reuses across inputs).
    pub fn handle(&mut self, input: NetInput, out: &mut Vec<NetOutput>) {
        match input {
            NetInput::InstallCircuit { entry } => {
                let state = match entry.role() {
                    Role::HeadEnd => {
                        CircuitState::Endpoint(EndpointState::new(true, entry.max_eer))
                    }
                    Role::TailEnd => {
                        CircuitState::Endpoint(EndpointState::new(false, entry.max_eer))
                    }
                    Role::Intermediate => CircuitState::Mid(MidState::new(self.duplicate_tracks)),
                };
                self.circuits.insert(Circuit {
                    node: self.node,
                    entry,
                    state,
                });
            }
            NetInput::TeardownCircuit { circuit } => {
                if let Some(c) = self.circuits.remove(circuit) {
                    crate::rules::teardown(circuit, c, out);
                }
            }
            NetInput::UserRequest { circuit, request } => {
                if let Some(c) = self.circuits.get_mut(circuit) {
                    crate::rules::endpoint::user_request(circuit, c, request, out);
                }
            }
            NetInput::CancelRequest { circuit, request } => {
                if let Some(c) = self.circuits.get_mut(circuit) {
                    crate::rules::endpoint::cancel_request(circuit, c, request, out);
                }
            }
            NetInput::LinkPair {
                circuit,
                side,
                info,
            } => {
                if let Some(c) = self.circuits.get_mut(circuit) {
                    match &mut c.state {
                        CircuitState::Endpoint(_) => {
                            crate::rules::endpoint::link_rule(circuit, c, info, out)
                        }
                        CircuitState::Mid(_) => {
                            crate::rules::repeater::link_rule(c, side, info, out)
                        }
                    }
                }
            }
            NetInput::Message { from, msg } => {
                let circuit = msg.circuit();
                if let Some(c) = self.circuits.get_mut(circuit) {
                    crate::rules::dispatch_message(circuit, c, from, msg, out, &mut self.stats);
                } else {
                    // A message for a circuit not installed here: torn
                    // down, or the circuit id was corrupted in flight.
                    self.stats.unknown_circuit += 1;
                }
            }
            NetInput::SwapCompleted {
                circuit,
                up,
                down,
                outcome,
            } => {
                if let Some(c) = self.circuits.get_mut(circuit) {
                    crate::rules::repeater::swap_completed(c, up, down, outcome, out);
                }
            }
            NetInput::MeasureCompleted {
                circuit,
                correlator,
                outcome,
            } => {
                if let Some(c) = self.circuits.get_mut(circuit) {
                    crate::rules::endpoint::measure_completed(circuit, c, correlator, outcome, out);
                }
            }
            NetInput::TrackTimeout {
                circuit,
                correlator,
            } => {
                if let Some(c) = self.circuits.get_mut(circuit) {
                    if matches!(c.state, CircuitState::Endpoint(_)) {
                        crate::rules::endpoint::track_timeout(c, correlator, out, &mut self.stats);
                    }
                }
            }
            NetInput::LinkOrphaned {
                circuit,
                side,
                correlator,
            } => {
                if let Some(c) = self.circuits.get_mut(circuit) {
                    match &mut c.state {
                        CircuitState::Endpoint(_) => {
                            crate::rules::endpoint::link_orphaned(c, correlator)
                        }
                        CircuitState::Mid(_) => {
                            crate::rules::repeater::link_orphaned(c, side, correlator, out)
                        }
                    }
                }
            }
            NetInput::CutoffExpired {
                circuit,
                side,
                correlator,
            } => {
                if let Some(c) = self.circuits.get_mut(circuit) {
                    crate::rules::repeater::cutoff_expired(c, side, correlator, out);
                }
            }
        }
    }

    /// Whether this node's protocol state references the link pair at
    /// all: in transit at an end-node, or queued/swapping at a repeater.
    /// A runtime whose PAIR_READY notifications can be lost in flight
    /// uses this to tell an orphaned physical qubit (the protocol never
    /// learned of it — nothing will ever free it) from one the protocol
    /// is still working on.
    pub fn knows_pair(&self, circuit: CircuitId, correlator: Correlator) -> bool {
        match self.circuits.get(circuit).map(|c| &c.state) {
            Some(CircuitState::Endpoint(ep)) => ep.in_transit.contains_key(&correlator),
            Some(CircuitState::Mid(m)) => m
                .sides
                .iter()
                .flat_map(|s| &s.queue)
                .chain(m.swapping.iter().flatten())
                .any(|p| p.pair == correlator),
            None => false,
        }
    }

    /// Test/diagnostic access: number of in-transit pairs at an end-node.
    pub fn in_transit_len(&self, circuit: CircuitId) -> usize {
        match self.circuits.get(circuit).map(|c| &c.state) {
            Some(CircuitState::Endpoint(ep)) => ep.in_transit.len(),
            _ => 0,
        }
    }

    /// Test/diagnostic access: swap records a repeater holds, over both
    /// of its link sides.
    pub fn swap_records_len(&self, circuit: CircuitId) -> usize {
        self.mid(circuit)
            .map_or(0, |m| m.sides.iter().map(|s| s.record.len()).sum())
    }

    /// Test/diagnostic access: relayed TRACKs a repeater remembers, over
    /// both of its link sides.
    pub fn relayed_tracks_len(&self, circuit: CircuitId) -> usize {
        self.mid(circuit).map_or(0, |m| {
            m.sides
                .iter()
                .filter_map(|s| s.relayed.as_ref())
                .map(BoundedMap::len)
                .sum()
        })
    }

    fn mid(&self, circuit: CircuitId) -> Option<&MidState> {
        match self.circuits.get(circuit).map(|c| &c.state) {
            Some(CircuitState::Mid(m)) => Some(m),
            _ => None,
        }
    }
}
