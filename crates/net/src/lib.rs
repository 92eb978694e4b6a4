//! # qn-net — the Quantum Network Protocol (QNP)
//!
//! The paper's primary contribution: a connection-oriented quantum data
//! plane protocol that turns link-level entangled pairs into end-to-end
//! entangled pairs via entanglement swapping, surviving decoherence with
//! cutoff timers and *lazy entanglement tracking*.
//!
//! The implementation follows Appendix C of the paper:
//!
//! * [`ids`] — circuit/request/address/correlator identifiers (C.1);
//! * [`messages`] — FORWARD, COMPLETE, TRACK, EXPIRE (C.2);
//! * [`node`] + [`rules`] — the per-role rules (C.3, Algorithms 1–9);
//! * [`demux`] — symmetric demultiplexing with epochs (§4.1);
//! * [`policing`] — EER-based policing/shaping and LPR scaling (§4.1);
//! * [`request`] — the service classes of §3.2 (fidelity + time QoS,
//!   KEEP/EARLY/MEASURE delivery);
//! * [`routing_table`] — the per-circuit data-plane state installed by
//!   signalling (§4.1);
//! * [`wire`] — the versioned binary wire format every signalling
//!   message is encoded to before crossing a classical channel.
//!
//! The node core is **sans-IO**: it consumes typed inputs and returns
//! typed effects, never touching clocks, queues or quantum state. The
//! `qn-netsim` crate wires it to the event-driven runtime; the unit tests
//! in this crate drive every rule directly.
//!
//! Design properties worth calling out (all load-bearing in the paper):
//!
//! * **Quantum operations never block on classical messages** — swaps are
//!   triggered by pair availability alone (the LINK rules), TRACKs wait
//!   for swap records rather than the other way round.
//! * **End-nodes never discard on timers** — only on EXPIRE messages,
//!   preventing the half-delivered-pair window condition.
//! * **Lazy tracking** — only XOR-combined two-bit outcomes travel; no
//!   intermediate pair state is ever stored or synchronised.

#![warn(missing_docs)]

pub mod demux;
pub mod events;
pub mod ids;
pub mod messages;
pub mod node;
pub mod policing;
pub mod request;
pub mod routing_table;
pub mod rules;
pub mod wire;

pub use demux::SymmetricDemux;
pub use events::{AppEvent, Delivery, DeliveryKind, NetInput, NetOutput, PairInfo};
pub use ids::{Address, CircuitId, Correlator, Epoch, PairHandle, PairRef, RequestId};
pub use messages::{Complete, Expire, Forward, Message, Track, TrackAck};
pub use node::{NodeStats, QnpNode};
pub use policing::{AdmitDecision, Policer};
pub use request::{Demand, RequestType, UserRequest};
pub use routing_table::{DownstreamHop, LinkSide, Role, RoutingEntry, UpstreamHop};
pub use wire::{DecodeError, ScratchEncoder, Wire, WireReader, WireWriter, WIRE_VERSION};
