//! The QNP signalling wire format — a hand-rolled, versioned binary
//! codec for every message that crosses a classical channel.
//!
//! The paper specifies the protocol in terms of its messages (Appendix
//! C.2); this module pins their byte-level representation. The
//! simulated classical plane carries frames as values: the codec fixes
//! each frame's size and what a flipped bit does to it.
//!
//! ## Frame layout
//!
//! Every frame starts with a fixed two-byte header:
//!
//! ```text
//! +---------+---------+----------------------+
//! | version |  kind   |  payload (fixed by   |
//! |  (u8)   |  (u8)   |  kind, little-endian)|
//! +---------+---------+----------------------+
//! ```
//!
//! One kind-byte registry covers all three signalling planes, so a
//! corrupted kind byte can never cross decode into the wrong plane:
//!
//! | range | plane ([`Frame`] variant) | kinds |
//! |---|---|---|
//! | `0x01..=0x05` | QNP data plane ([`Frame::Qnp`]) | FORWARD, COMPLETE, TRACK, EXPIRE, TRACK_ACK |
//! | `0x10` | link layer ([`Frame::PairReady`]) | PAIR_READY (`0x11` and `0x12` are retired) |
//! | `0x20..=0x23` | routing signalling ([`Frame::Signal`]) | INSTALL, TEARDOWN, INSTALL_ACK, TEARDOWN_ACK |
//!
//! [`Frame::decode`] is the one parser of a received frame and
//! [`Frame::encode_to`] its inverse; [`Frame::encoded_len`] is the
//! length of the bytes it appends. Frames are `Copy`, so decoding
//! allocates nothing.
//!
//! ## Guarantees
//!
//! * **Exact round-trip**: `decode(encode(f)) == f`, including `f64`
//!   fields (encoded as IEEE-754 bit patterns, so NaN payloads and
//!   signed zeros survive byte-for-byte).
//! * **Total decoding**: `decode` never panics, whatever the input
//!   bytes — every failure is a typed [`DecodeError`]. The property
//!   suites in `crates/net/tests/prop_wire.rs` and `prop_signal_wire.rs`
//!   fuzz this on arbitrary, truncated and bit-flipped inputs.
//! * **Exact consumption**: a decode rejects trailing bytes
//!   ([`DecodeError::TrailingBytes`]), so frames cannot silently smuggle
//!   extra payload.

use crate::ids::{CircuitId, Epoch, RequestId};
use crate::messages::{Complete, Expire, Forward, Message, Track, TrackAck};
use crate::request::RequestType;
use crate::routing_table::{DownstreamHop, RoutingEntry, UpstreamHop};
use qn_link::{EntanglementId, LinkLabel, LinkPair};
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_sim::NodeId;
use qn_sim::SimDuration;
use std::fmt;

/// Wire format version; bumped on any incompatible layout change.
pub const WIRE_VERSION: u8 = 1;

/// Kind byte of a FORWARD frame.
pub const KIND_FORWARD: u8 = 0x01;
/// Kind byte of a COMPLETE frame.
pub const KIND_COMPLETE: u8 = 0x02;
/// Kind byte of a TRACK frame.
pub const KIND_TRACK: u8 = 0x03;
/// Kind byte of an EXPIRE frame.
pub const KIND_EXPIRE: u8 = 0x04;
/// Kind byte of a TRACK_ACK frame (retransmitting runtimes only).
pub const KIND_TRACK_ACK: u8 = 0x05;
/// Kind byte of a link-layer PAIR_READY frame.
pub const KIND_LINK_PAIR_READY: u8 = 0x10;
/// Kind byte of a routing-signalling INSTALL frame.
pub const KIND_SIGNAL_INSTALL: u8 = 0x20;
/// Kind byte of a routing-signalling TEARDOWN frame.
pub const KIND_SIGNAL_TEARDOWN: u8 = 0x21;
/// Kind byte of a routing-signalling INSTALL_ACK frame.
pub const KIND_SIGNAL_INSTALL_ACK: u8 = 0x22;
/// Kind byte of a routing-signalling TEARDOWN_ACK frame.
pub const KIND_SIGNAL_TEARDOWN_ACK: u8 = 0x23;

/// A typed decoding failure. Decoding is *total*: arbitrary input bytes
/// produce one of these, never a panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input ended before the field at byte offset `at` could be
    /// read in full.
    Truncated {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// The version byte does not match [`WIRE_VERSION`].
    BadVersion(u8),
    /// The kind byte is not assigned (a retired kind included).
    UnknownKind(u8),
    /// A tag byte held a value outside its enum's range.
    BadTag {
        /// The field whose tag was invalid.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// The frame decoded successfully but input bytes remain.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at } => write!(f, "input truncated at byte {at}"),
            DecodeError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            DecodeError::UnknownKind(k) => write!(f, "unknown message kind byte {k:#04x}"),
            DecodeError::BadTag { field, value } => {
                write!(f, "invalid tag byte {value:#04x} for field `{field}`")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete frame")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Low-level primitives
// ---------------------------------------------------------------------

/// Append-only encoder over a byte buffer. All integers are
/// little-endian.
pub(crate) struct WireWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> WireWriter<'a> {
    /// Write into `buf` (appending).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact, including
    /// NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an option: tag byte `0`/`1`, then the value if present.
    pub fn put_opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                f(self, x);
            }
        }
    }
}

/// Cursor-based decoder over a byte slice. Every read is total; failures
/// are reported as [`DecodeError`] with the byte offset.
pub(crate) struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Unconsumed bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole input was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Read an `f64` from its bit pattern (total: every bit pattern is a
    /// valid `f64`).
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an option written by [`WireWriter::put_opt`].
    pub fn get_opt<T>(
        &mut self,
        field: &'static str,
        f: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            value => Err(DecodeError::BadTag { field, value }),
        }
    }
}

// ---------------------------------------------------------------------
// Field codecs shared by the three planes
// ---------------------------------------------------------------------

/// A type with a fixed wire representation.
pub(crate) trait Wire: Sized {
    /// Append this value's encoding.
    fn encode(&self, w: &mut WireWriter<'_>);
    /// Decode one value from the cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError>;
}

impl Wire for CircuitId {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(CircuitId(r.get_u64()?))
    }
}

impl Wire for RequestId {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(RequestId(r.get_u64()?))
    }
}

impl Wire for Epoch {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(Epoch(r.get_u64()?))
    }
}

impl Wire for NodeId {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(NodeId(r.get_u32()?))
    }
}

impl Wire for LinkLabel {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(LinkLabel(r.get_u32()?))
    }
}

impl Wire for EntanglementId {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.node_a.encode(w);
        self.node_b.encode(w);
        w.put_u64(self.seq);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(EntanglementId {
            node_a: NodeId::decode(r)?,
            node_b: NodeId::decode(r)?,
            seq: r.get_u64()?,
        })
    }
}

impl Wire for BellState {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u8(self.index() as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            idx @ 0..=3 => Ok(BellState::from_index(idx as usize)),
            value => Err(DecodeError::BadTag {
                field: "bell_state",
                value,
            }),
        }
    }
}

impl Wire for Pauli {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u8(match self {
            Pauli::I => 0,
            Pauli::X => 1,
            Pauli::Y => 2,
            Pauli::Z => 3,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Pauli::I),
            1 => Ok(Pauli::X),
            2 => Ok(Pauli::Y),
            3 => Ok(Pauli::Z),
            value => Err(DecodeError::BadTag {
                field: "pauli",
                value,
            }),
        }
    }
}

impl Wire for RequestType {
    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            RequestType::Keep => w.put_u8(0),
            RequestType::Early => w.put_u8(1),
            RequestType::Measure(basis) => {
                w.put_u8(2);
                basis.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(RequestType::Keep),
            1 => Ok(RequestType::Early),
            2 => Ok(RequestType::Measure(Pauli::decode(r)?)),
            value => Err(DecodeError::BadTag {
                field: "request_type",
                value,
            }),
        }
    }
}

impl Wire for LinkPair {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.id.encode(w);
        self.label.encode(w);
        self.announced.encode(w);
        w.put_f64(self.alpha);
        w.put_f64(self.goodness);
        w.put_u64(self.attempts);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(LinkPair {
            id: EntanglementId::decode(r)?,
            label: LinkLabel::decode(r)?,
            announced: BellState::decode(r)?,
            alpha: r.get_f64()?,
            goodness: r.get_f64()?,
            attempts: r.get_u64()?,
        })
    }
}

impl Wire for UpstreamHop {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.node.encode(w);
        self.label.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(UpstreamHop {
            node: NodeId::decode(r)?,
            label: LinkLabel::decode(r)?,
        })
    }
}

impl Wire for DownstreamHop {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.node.encode(w);
        self.label.encode(w);
        w.put_f64(self.min_fidelity);
        w.put_f64(self.max_lpr);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(DownstreamHop {
            node: NodeId::decode(r)?,
            label: LinkLabel::decode(r)?,
            min_fidelity: r.get_f64()?,
            max_lpr: r.get_f64()?,
        })
    }
}

impl Wire for RoutingEntry {
    fn encode(&self, w: &mut WireWriter<'_>) {
        self.circuit.encode(w);
        w.put_opt(&self.upstream, |w, h| h.encode(w));
        w.put_opt(&self.downstream, |w, h| h.encode(w));
        w.put_f64(self.max_eer);
        // Cutoffs are picosecond ticks; `SimDuration::MAX` (= "no
        // cutoff", the Fig 10 oracle baseline) round-trips exactly.
        w.put_u64(self.cutoff.as_ps());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(RoutingEntry {
            circuit: CircuitId::decode(r)?,
            upstream: r.get_opt("upstream", UpstreamHop::decode)?,
            downstream: r.get_opt("downstream", DownstreamHop::decode)?,
            max_eer: r.get_f64()?,
            cutoff: SimDuration::from_ps(r.get_u64()?),
        })
    }
}

// ---------------------------------------------------------------------
// QNP data-plane messages
// ---------------------------------------------------------------------

fn encode_forward(m: &Forward, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    m.request.encode(w);
    w.put_u32(m.head_identifier);
    w.put_u32(m.tail_identifier);
    m.request_type.encode(w);
    w.put_opt(&m.number_of_pairs, |w, n| w.put_u64(*n));
    w.put_opt(&m.final_state, |w, s| s.encode(w));
    w.put_f64(m.rate);
}

fn decode_forward(r: &mut WireReader<'_>) -> Result<Forward, DecodeError> {
    Ok(Forward {
        circuit: CircuitId::decode(r)?,
        request: RequestId::decode(r)?,
        head_identifier: r.get_u32()?,
        tail_identifier: r.get_u32()?,
        request_type: RequestType::decode(r)?,
        number_of_pairs: r.get_opt("number_of_pairs", |r| r.get_u64())?,
        final_state: r.get_opt("final_state", BellState::decode)?,
        rate: r.get_f64()?,
    })
}

fn encode_complete(m: &Complete, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    m.request.encode(w);
    w.put_u32(m.head_identifier);
    w.put_u32(m.tail_identifier);
    w.put_f64(m.rate);
}

fn decode_complete(r: &mut WireReader<'_>) -> Result<Complete, DecodeError> {
    Ok(Complete {
        circuit: CircuitId::decode(r)?,
        request: RequestId::decode(r)?,
        head_identifier: r.get_u32()?,
        tail_identifier: r.get_u32()?,
        rate: r.get_f64()?,
    })
}

fn encode_track(m: &Track, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    m.request.encode(w);
    w.put_u32(m.head_identifier);
    w.put_u32(m.tail_identifier);
    m.origin.encode(w);
    m.link.encode(w);
    m.outcome_state.encode(w);
    w.put_opt(&m.epoch, |w, e| e.encode(w));
}

fn decode_track(r: &mut WireReader<'_>) -> Result<Track, DecodeError> {
    Ok(Track {
        circuit: CircuitId::decode(r)?,
        request: RequestId::decode(r)?,
        head_identifier: r.get_u32()?,
        tail_identifier: r.get_u32()?,
        origin: EntanglementId::decode(r)?,
        link: EntanglementId::decode(r)?,
        outcome_state: BellState::decode(r)?,
        epoch: r.get_opt("epoch", Epoch::decode)?,
    })
}

fn encode_expire(m: &Expire, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    m.origin.encode(w);
}

fn decode_expire(r: &mut WireReader<'_>) -> Result<Expire, DecodeError> {
    Ok(Expire {
        circuit: CircuitId::decode(r)?,
        origin: EntanglementId::decode(r)?,
    })
}

fn encode_track_ack(m: &TrackAck, w: &mut WireWriter<'_>) {
    m.circuit.encode(w);
    m.origin.encode(w);
}

fn decode_track_ack(r: &mut WireReader<'_>) -> Result<TrackAck, DecodeError> {
    Ok(TrackAck {
        circuit: CircuitId::decode(r)?,
        origin: EntanglementId::decode(r)?,
    })
}

/// Decode the payload of a QNP message frame of kind `kind`.
fn decode_message(kind: u8, r: &mut WireReader<'_>) -> Result<Message, DecodeError> {
    Ok(match kind {
        KIND_FORWARD => Message::Forward(decode_forward(r)?),
        KIND_COMPLETE => Message::Complete(decode_complete(r)?),
        KIND_TRACK => Message::Track(decode_track(r)?),
        KIND_EXPIRE => Message::Expire(decode_expire(r)?),
        KIND_TRACK_ACK => Message::TrackAck(decode_track_ack(r)?),
        kind => return Err(DecodeError::UnknownKind(kind)),
    })
}

/// A routing-signalling message to one node on a circuit's path: the
/// signalling protocol (§3.3, RSVP-TE style) installs and tears down
/// virtual circuits by messaging every node on the path. The two acks
/// exist for runtimes that carry signalling over a lossy plane and
/// retransmit unacknowledged hops.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SignalMessage {
    /// Install the circuit's routing entry at the receiving node.
    Install {
        /// The entry to install.
        entry: RoutingEntry,
    },
    /// Remove the circuit at the receiving node.
    Teardown {
        /// The circuit to remove.
        circuit: CircuitId,
    },
    /// Hop-by-hop acknowledgement of an INSTALL, sent back to the node
    /// the INSTALL came from. Installed (or already-installed) nodes
    /// always re-ack, so a lost ack is recovered by the retransmission.
    InstallAck {
        /// The acknowledged circuit.
        circuit: CircuitId,
    },
    /// Hop-by-hop acknowledgement of a TEARDOWN.
    TeardownAck {
        /// The acknowledged circuit.
        circuit: CircuitId,
    },
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Every frame the classical plane carries: one variant per plane.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Frame {
    /// A QNP data-plane message (kinds `0x01..=0x05`).
    Qnp(Message),
    /// A link-layer PAIR_READY: the pair, its ID and its Bell state
    /// (kind `0x10`).
    PairReady(LinkPair),
    /// A routing-signalling message (kinds `0x20..=0x23`).
    Signal(SignalMessage),
}

impl Frame {
    /// This frame's kind byte.
    fn kind(&self) -> u8 {
        match self {
            Frame::Qnp(Message::Forward(_)) => KIND_FORWARD,
            Frame::Qnp(Message::Complete(_)) => KIND_COMPLETE,
            Frame::Qnp(Message::Track(_)) => KIND_TRACK,
            Frame::Qnp(Message::Expire(_)) => KIND_EXPIRE,
            Frame::Qnp(Message::TrackAck(_)) => KIND_TRACK_ACK,
            Frame::PairReady(_) => KIND_LINK_PAIR_READY,
            Frame::Signal(SignalMessage::Install { .. }) => KIND_SIGNAL_INSTALL,
            Frame::Signal(SignalMessage::Teardown { .. }) => KIND_SIGNAL_TEARDOWN,
            Frame::Signal(SignalMessage::InstallAck { .. }) => KIND_SIGNAL_INSTALL_ACK,
            Frame::Signal(SignalMessage::TeardownAck { .. }) => KIND_SIGNAL_TEARDOWN_ACK,
        }
    }

    /// Append this frame (header + payload) to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        let w = &mut WireWriter::new(buf);
        w.put_u8(WIRE_VERSION);
        w.put_u8(self.kind());
        match self {
            Frame::Qnp(Message::Forward(m)) => encode_forward(m, w),
            Frame::Qnp(Message::Complete(m)) => encode_complete(m, w),
            Frame::Qnp(Message::Track(m)) => encode_track(m, w),
            Frame::Qnp(Message::Expire(m)) => encode_expire(m, w),
            Frame::Qnp(Message::TrackAck(m)) => encode_track_ack(m, w),
            Frame::PairReady(p) => p.encode(w),
            Frame::Signal(SignalMessage::Install { entry }) => entry.encode(w),
            Frame::Signal(
                SignalMessage::Teardown { circuit }
                | SignalMessage::InstallAck { circuit }
                | SignalMessage::TeardownAck { circuit },
            ) => circuit.encode(w),
        }
    }

    /// The length of this frame's bytes: what [`Frame::encode_to`]
    /// appends, counted without encoding.
    pub fn encoded_len(&self) -> usize {
        // Ids, counts, `f64` bit patterns and picosecond ticks take 8
        // bytes; node ids, link labels and identifiers 4; a Bell state,
        // a Pauli and an option's tag 1.
        const EID: usize = 4 + 4 + 8;
        // circuit, request, head and tail identifiers
        const REQUEST: usize = 8 + 8 + 4 + 4;
        fn opt<T>(v: &Option<T>, len: usize) -> usize {
            1 + v.as_ref().map_or(0, |_| len)
        }
        2 + match self {
            Frame::Qnp(Message::Forward(m)) => {
                let basis = usize::from(matches!(m.request_type, RequestType::Measure(_)));
                REQUEST + 1 + basis + opt(&m.number_of_pairs, 8) + opt(&m.final_state, 1) + 8
            }
            Frame::Qnp(Message::Complete(_)) => REQUEST + 8,
            Frame::Qnp(Message::Track(m)) => REQUEST + 2 * EID + 1 + opt(&m.epoch, 8),
            Frame::Qnp(Message::Expire(_) | Message::TrackAck(_)) => 8 + EID,
            Frame::PairReady(_) => EID + 4 + 1 + 8 + 8 + 8,
            Frame::Signal(SignalMessage::Install { entry }) => {
                8 + opt(&entry.upstream, 4 + 4) + opt(&entry.downstream, 4 + 4 + 8 + 8) + 8 + 8
            }
            Frame::Signal(
                SignalMessage::Teardown { .. }
                | SignalMessage::InstallAck { .. }
                | SignalMessage::TeardownAck { .. },
            ) => 8,
        }
    }

    /// This frame's bytes.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_to(&mut buf);
        buf
    }

    /// Decode one received frame. Total: never panics; rejects bad
    /// versions, unassigned or retired kind bytes, truncation and
    /// trailing bytes with a typed [`DecodeError`].
    pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
        let r = &mut WireReader::new(bytes);
        let version = r.get_u8()?;
        if version != WIRE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let frame = match r.get_u8()? {
            KIND_LINK_PAIR_READY => Frame::PairReady(LinkPair::decode(r)?),
            KIND_SIGNAL_INSTALL => Frame::Signal(SignalMessage::Install {
                entry: Wire::decode(r)?,
            }),
            KIND_SIGNAL_TEARDOWN => Frame::Signal(SignalMessage::Teardown {
                circuit: Wire::decode(r)?,
            }),
            KIND_SIGNAL_INSTALL_ACK => Frame::Signal(SignalMessage::InstallAck {
                circuit: Wire::decode(r)?,
            }),
            KIND_SIGNAL_TEARDOWN_ACK => Frame::Signal(SignalMessage::TeardownAck {
                circuit: Wire::decode(r)?,
            }),
            kind => Frame::Qnp(decode_message(kind, r)?),
        };
        r.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corr(a: u32, b: u32, seq: u64) -> EntanglementId {
        EntanglementId {
            node_a: NodeId(a),
            node_b: NodeId(b),
            seq,
        }
    }

    fn entry() -> RoutingEntry {
        RoutingEntry {
            circuit: CircuitId(5),
            upstream: Some(UpstreamHop {
                node: NodeId(1),
                label: LinkLabel(9),
            }),
            downstream: Some(DownstreamHop {
                node: NodeId(3),
                label: LinkLabel(2),
                min_fidelity: 0.93,
                max_lpr: 41.5,
            }),
            max_eer: 10.25,
            cutoff: SimDuration::from_millis(120),
        }
    }

    fn pair() -> LinkPair {
        LinkPair {
            id: corr(0, 1, 5),
            label: LinkLabel(3),
            announced: BellState::PSI_PLUS,
            alpha: 0.125,
            goodness: 0.987,
            attempts: 1 << 40,
        }
    }

    /// One frame of every assigned kind, in kind-byte order.
    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Qnp(Message::Forward(Forward {
                circuit: CircuitId(3),
                request: RequestId(9),
                head_identifier: 1,
                tail_identifier: 2,
                request_type: RequestType::Measure(Pauli::Y),
                number_of_pairs: Some(17),
                final_state: Some(BellState::PSI_MINUS),
                rate: 12.5,
            })),
            Frame::Qnp(Message::Complete(Complete {
                circuit: CircuitId(u64::MAX),
                request: RequestId(0),
                head_identifier: u32::MAX,
                tail_identifier: 0,
                rate: -0.0,
            })),
            Frame::Qnp(Message::Track(Track {
                circuit: CircuitId(1),
                request: RequestId(2),
                head_identifier: 7,
                tail_identifier: 8,
                origin: corr(0, 1, 42),
                link: corr(2, 3, 7),
                outcome_state: BellState::PHI_MINUS,
                epoch: None,
            })),
            Frame::Qnp(Message::Expire(Expire {
                circuit: CircuitId(6),
                origin: corr(4, 5, u64::MAX),
            })),
            Frame::Qnp(Message::TrackAck(TrackAck {
                circuit: CircuitId(11),
                origin: corr(6, 7, 3),
            })),
            Frame::PairReady(pair()),
            Frame::Signal(SignalMessage::Install { entry: entry() }),
            Frame::Signal(SignalMessage::Teardown {
                circuit: CircuitId(77),
            }),
            Frame::Signal(SignalMessage::InstallAck {
                circuit: CircuitId(78),
            }),
            Frame::Signal(SignalMessage::TeardownAck {
                circuit: CircuitId(79),
            }),
        ]
    }

    #[test]
    fn message_round_trip() {
        for f in sample_frames() {
            assert_eq!(Frame::decode(&f.wire_bytes()), Ok(f), "round trip of {f:?}");
        }
    }

    #[test]
    fn each_assigned_kind_decodes_to_its_own_variant() {
        let frames = sample_frames();
        let kinds: Vec<u8> = frames.iter().map(|f| f.wire_bytes()[1]).collect();
        assert_eq!(
            kinds,
            [0x01, 0x02, 0x03, 0x04, 0x05, 0x10, 0x20, 0x21, 0x22, 0x23]
        );
        for (f, kind) in frames.into_iter().zip(kinds) {
            let back = Frame::decode(&f.wire_bytes()).unwrap();
            let own = match kind {
                0x01..=0x05 => matches!(back, Frame::Qnp(_)),
                0x10 => matches!(back, Frame::PairReady(_)),
                _ => matches!(back, Frame::Signal(_)),
            };
            assert!(own, "kind {kind:#04x} decoded as {back:?}");
        }
        // The retired link kinds (REQUEST_DONE, REJECTED) and an
        // unassigned one decode to nothing, whatever follows them.
        let mut bytes = Frame::PairReady(pair()).wire_bytes();
        for kind in [0x11, 0x12, 0x13] {
            bytes[1] = kind;
            assert_eq!(Frame::decode(&bytes), Err(DecodeError::UnknownKind(kind)));
            assert_eq!(
                Frame::decode(&[WIRE_VERSION, kind]),
                Err(DecodeError::UnknownKind(kind))
            );
        }
    }

    #[test]
    fn nan_rate_round_trips_bit_exactly() {
        let f = Frame::Qnp(Message::Complete(Complete {
            circuit: CircuitId(1),
            request: RequestId(1),
            head_identifier: 0,
            tail_identifier: 0,
            rate: f64::from_bits(0x7ff8_dead_beef_0001),
        }));
        let bytes = f.wire_bytes();
        let back = Frame::decode(&bytes).unwrap();
        // NaN != NaN, so compare via re-encoding.
        assert_eq!(back.wire_bytes(), bytes);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        for f in sample_frames() {
            let bytes = f.wire_bytes();
            for len in 0..bytes.len() {
                let err = Frame::decode(&bytes[..len]).unwrap_err();
                assert!(
                    matches!(err, DecodeError::Truncated { .. }),
                    "prefix of {len} bytes of {f:?} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        for f in sample_frames() {
            let mut bytes = f.wire_bytes();
            bytes.push(0);
            assert_eq!(
                Frame::decode(&bytes),
                Err(DecodeError::TrailingBytes { extra: 1 })
            );
        }
    }

    #[test]
    fn bad_version_and_kind() {
        let mut bytes = sample_frames()[0].wire_bytes();
        bytes[0] = 9;
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadVersion(9)));
        bytes[0] = WIRE_VERSION;
        bytes[1] = 0xEE;
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::UnknownKind(0xEE)));
    }

    #[test]
    fn link_event_round_trip() {
        let f = Frame::PairReady(pair());
        let bytes = f.wire_bytes();
        assert_eq!(Frame::decode(&bytes), Ok(f));
        assert_eq!(bytes.len(), 2 + 16 + 4 + 1 + 8 + 8 + 8);
    }

    #[test]
    fn install_round_trip() {
        for e in [
            entry(),
            RoutingEntry {
                upstream: None,
                cutoff: SimDuration::MAX,
                ..entry()
            },
            RoutingEntry {
                downstream: None,
                ..entry()
            },
        ] {
            let f = Frame::Signal(SignalMessage::Install { entry: e });
            assert_eq!(Frame::decode(&f.wire_bytes()), Ok(f));
        }
    }

    #[test]
    fn teardown_round_trip_and_framing() {
        let f = Frame::Signal(SignalMessage::Teardown {
            circuit: CircuitId(77),
        });
        let bytes = f.wire_bytes();
        assert_eq!(Frame::decode(&bytes), Ok(f));
        // Truncations are typed errors, never panics.
        for len in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn encoded_len_matches_wire_bytes() {
        // Every optional field absent, then present.
        let mut frames = sample_frames();
        frames.push(Frame::Qnp(Message::Forward(Forward {
            circuit: CircuitId(3),
            request: RequestId(9),
            head_identifier: 1,
            tail_identifier: 2,
            request_type: RequestType::Keep,
            number_of_pairs: None,
            final_state: None,
            rate: 12.5,
        })));
        if let Frame::Qnp(Message::Track(t)) = frames[2] {
            frames.push(Frame::Qnp(Message::Track(Track {
                epoch: Some(Epoch(4)),
                ..t
            })));
        }
        frames.push(Frame::Signal(SignalMessage::Install {
            entry: RoutingEntry {
                upstream: None,
                downstream: None,
                ..entry()
            },
        }));
        for f in frames {
            assert_eq!(f.encoded_len(), f.wire_bytes().len(), "length of {f:?}");
        }
    }

    #[test]
    fn display_messages_are_informative() {
        assert!(format!("{}", DecodeError::BadVersion(7)).contains("version 7"));
        assert!(format!(
            "{}",
            DecodeError::BadTag {
                field: "pauli",
                value: 9
            }
        )
        .contains("pauli"));
    }
}
