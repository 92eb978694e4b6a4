//! The QNP signalling wire format — a hand-rolled, versioned binary
//! codec for every message that crosses a classical channel.
//!
//! The paper specifies the protocol in terms of its messages (Appendix
//! C.2); this module pins their byte-level representation so the
//! simulated classical plane can transport *bytes* (and corrupt, drop,
//! duplicate or reorder them) instead of passing Rust values by magic.
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
//! | range | plane | kinds |
//! |---|---|---|
//! | `0x01..=0x05` | QNP data plane ([`Message`]) | FORWARD, COMPLETE, TRACK, EXPIRE, TRACK_ACK |
//! | `0x10..=0x12` | link layer lifecycle ([`LinkEvent`]) | PAIR_READY, REQUEST_DONE, REJECTED |
//! | `0x20..=0x23` | routing signalling (`qn_routing::wire`) | INSTALL, TEARDOWN, INSTALL_ACK, TEARDOWN_ACK |
//!
//! Each frame has one decoder, the owned one ([`Message::decode`],
//! [`decode_link_event`], `qn_routing::wire::SignalMessage::decode`).
//! `Message` is `Copy`, so decoding allocates nothing. The encode side
//! reuses a per-plane [`ScratchEncoder`] instead of allocating a fresh
//! `Vec` per frame.
//!
//! ## Guarantees
//!
//! * **Exact round-trip**: `decode(encode(m)) == m`, including `f64`
//!   fields (encoded as IEEE-754 bit patterns, so NaN payloads and
//!   signed zeros survive byte-for-byte).
//! * **Total decoding**: `decode` never panics, whatever the input
//!   bytes — every failure is a typed [`DecodeError`]. The property
//!   suite in `crates/net/tests/prop_wire.rs` fuzzes this on arbitrary,
//!   truncated and bit-flipped inputs.
//! * **Exact consumption**: a top-level decode rejects trailing bytes
//!   ([`DecodeError::TrailingBytes`]), so frames cannot silently smuggle
//!   extra payload.

use crate::ids::{CircuitId, Epoch, RequestId};
use crate::messages::{Complete, Expire, Forward, Message, Track, TrackAck};
use crate::request::RequestType;
use crate::routing_table::{DownstreamHop, RoutingEntry, UpstreamHop};
use qn_link::{EntanglementId, LinkEvent, LinkLabel, LinkPair, RejectReason};
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
/// Kind byte of a link-layer REQUEST_DONE frame.
pub const KIND_LINK_REQUEST_DONE: u8 = 0x11;
/// Kind byte of a link-layer REJECTED frame.
pub const KIND_LINK_REJECTED: u8 = 0x12;
/// Kind byte of a routing-signalling INSTALL frame (`qn_routing::wire`).
pub const KIND_SIGNAL_INSTALL: u8 = 0x20;
/// Kind byte of a routing-signalling TEARDOWN frame (`qn_routing::wire`).
pub const KIND_SIGNAL_TEARDOWN: u8 = 0x21;
/// Kind byte of a routing-signalling INSTALL_ACK frame (`qn_routing::wire`).
pub const KIND_SIGNAL_INSTALL_ACK: u8 = 0x22;
/// Kind byte of a routing-signalling TEARDOWN_ACK frame (`qn_routing::wire`).
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
    /// The kind byte is not assigned (or belongs to a different
    /// signalling plane than the one being decoded).
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
pub struct WireWriter<'a> {
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
pub struct WireReader<'a> {
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
pub trait Wire: Sized {
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

impl Wire for RejectReason {
    fn encode(&self, w: &mut WireWriter<'_>) {
        w.put_u8(match self {
            RejectReason::FidelityUnattainable => 0,
            RejectReason::DuplicateLabel => 1,
            RejectReason::InvalidWeight => 2,
            RejectReason::LinkDown => 3,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(RejectReason::FidelityUnattainable),
            1 => Ok(RejectReason::DuplicateLabel),
            2 => Ok(RejectReason::InvalidWeight),
            3 => Ok(RejectReason::LinkDown),
            value => Err(DecodeError::BadTag {
                field: "reject_reason",
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
// Frame helpers
// ---------------------------------------------------------------------

/// Append the two-byte frame header (version + kind).
pub fn put_header(w: &mut WireWriter<'_>, kind: u8) {
    w.put_u8(WIRE_VERSION);
    w.put_u8(kind);
}

/// Read and check the version byte, then return the kind byte.
pub fn read_header(r: &mut WireReader<'_>) -> Result<u8, DecodeError> {
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    r.get_u8()
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

impl Message {
    /// Append this message's complete frame (header + payload) to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        let mut w = WireWriter::new(buf);
        match self {
            Message::Forward(m) => {
                put_header(&mut w, KIND_FORWARD);
                encode_forward(m, &mut w);
            }
            Message::Complete(m) => {
                put_header(&mut w, KIND_COMPLETE);
                encode_complete(m, &mut w);
            }
            Message::Track(m) => {
                put_header(&mut w, KIND_TRACK);
                encode_track(m, &mut w);
            }
            Message::Expire(m) => {
                put_header(&mut w, KIND_EXPIRE);
                encode_expire(m, &mut w);
            }
            Message::TrackAck(m) => {
                put_header(&mut w, KIND_TRACK_ACK);
                encode_track_ack(m, &mut w);
            }
        }
    }

    /// This message's complete wire frame.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_to(&mut buf);
        buf
    }

    /// Decode a complete frame. Total: never panics; rejects bad
    /// versions, foreign/unknown kind bytes, truncation and trailing
    /// bytes with a typed [`DecodeError`].
    pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
        let mut r = WireReader::new(bytes);
        let msg = match read_header(&mut r)? {
            KIND_FORWARD => Message::Forward(decode_forward(&mut r)?),
            KIND_COMPLETE => Message::Complete(decode_complete(&mut r)?),
            KIND_TRACK => Message::Track(decode_track(&mut r)?),
            KIND_EXPIRE => Message::Expire(decode_expire(&mut r)?),
            KIND_TRACK_ACK => Message::TrackAck(decode_track_ack(&mut r)?),
            kind => return Err(DecodeError::UnknownKind(kind)),
        };
        r.finish()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------
// Link-layer lifecycle events
// ---------------------------------------------------------------------

/// Encode a link-layer lifecycle event as a complete frame.
pub fn encode_link_event(ev: &LinkEvent, buf: &mut Vec<u8>) {
    let mut w = WireWriter::new(buf);
    match ev {
        LinkEvent::PairReady(pair) => {
            put_header(&mut w, KIND_LINK_PAIR_READY);
            pair.encode(&mut w);
        }
        LinkEvent::RequestDone(label) => {
            put_header(&mut w, KIND_LINK_REQUEST_DONE);
            label.encode(&mut w);
        }
        LinkEvent::Rejected(label, reason) => {
            put_header(&mut w, KIND_LINK_REJECTED);
            label.encode(&mut w);
            reason.encode(&mut w);
        }
    }
}

/// Decode a link-layer lifecycle event frame (total; typed errors).
pub fn decode_link_event(bytes: &[u8]) -> Result<LinkEvent, DecodeError> {
    let mut r = WireReader::new(bytes);
    let ev = match read_header(&mut r)? {
        KIND_LINK_PAIR_READY => LinkEvent::PairReady(LinkPair::decode(&mut r)?),
        KIND_LINK_REQUEST_DONE => LinkEvent::RequestDone(LinkLabel::decode(&mut r)?),
        KIND_LINK_REJECTED => {
            LinkEvent::Rejected(LinkLabel::decode(&mut r)?, RejectReason::decode(&mut r)?)
        }
        kind => return Err(DecodeError::UnknownKind(kind)),
    };
    r.finish()?;
    Ok(ev)
}

// ---------------------------------------------------------------------
// Scratch encoding
// ---------------------------------------------------------------------

/// A reusable encode buffer: steady-state senders encode every outgoing
/// frame into the same backing allocation instead of a fresh `Vec` per
/// message. The borrowed frame is valid until the next encode.
pub struct ScratchEncoder {
    buf: Vec<u8>,
}

impl ScratchEncoder {
    /// An empty scratch with a small upfront capacity.
    pub fn new() -> Self {
        ScratchEncoder {
            buf: Vec::with_capacity(128),
        }
    }

    /// Clear the scratch, let `fill` append one frame, borrow the bytes.
    pub fn frame(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> &[u8] {
        self.buf.clear();
        fill(&mut self.buf);
        &self.buf
    }

    /// Encode one data-plane message frame into the scratch.
    pub fn message(&mut self, msg: &Message) -> &[u8] {
        self.frame(|buf| msg.encode_to(buf))
    }
}

impl Default for ScratchEncoder {
    fn default() -> Self {
        Self::new()
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

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Forward(Forward {
                circuit: CircuitId(3),
                request: RequestId(9),
                head_identifier: 1,
                tail_identifier: 2,
                request_type: RequestType::Measure(Pauli::Y),
                number_of_pairs: Some(17),
                final_state: Some(BellState::PSI_MINUS),
                rate: 12.5,
            }),
            Message::Complete(Complete {
                circuit: CircuitId(u64::MAX),
                request: RequestId(0),
                head_identifier: u32::MAX,
                tail_identifier: 0,
                rate: -0.0,
            }),
            Message::Track(Track {
                circuit: CircuitId(1),
                request: RequestId(2),
                head_identifier: 7,
                tail_identifier: 8,
                origin: corr(0, 1, 42),
                link: corr(2, 3, 7),
                outcome_state: BellState::PHI_MINUS,
                epoch: None,
            }),
            Message::Expire(Expire {
                circuit: CircuitId(6),
                origin: corr(4, 5, u64::MAX),
            }),
            Message::TrackAck(TrackAck {
                circuit: CircuitId(11),
                origin: corr(6, 7, 3),
            }),
        ]
    }

    #[test]
    fn message_round_trip() {
        for m in sample_messages() {
            let bytes = m.wire_bytes();
            assert_eq!(Message::decode(&bytes), Ok(m), "round trip of {m:?}");
        }
    }

    #[test]
    fn nan_rate_round_trips_bit_exactly() {
        let m = Message::Complete(Complete {
            circuit: CircuitId(1),
            request: RequestId(1),
            head_identifier: 0,
            tail_identifier: 0,
            rate: f64::from_bits(0x7ff8_dead_beef_0001),
        });
        let bytes = m.wire_bytes();
        let back = Message::decode(&bytes).unwrap();
        // NaN != NaN, so compare via re-encoding.
        assert_eq!(back.wire_bytes(), bytes);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        for m in sample_messages() {
            let bytes = m.wire_bytes();
            for len in 0..bytes.len() {
                let err = Message::decode(&bytes[..len]).unwrap_err();
                assert!(
                    matches!(err, DecodeError::Truncated { .. }),
                    "prefix of {} bytes gave {err:?}",
                    len
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_messages()[3].wire_bytes();
        bytes.push(0);
        assert_eq!(
            Message::decode(&bytes),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_version_and_kind() {
        let mut bytes = sample_messages()[0].wire_bytes();
        bytes[0] = 9;
        assert_eq!(Message::decode(&bytes), Err(DecodeError::BadVersion(9)));
        bytes[0] = WIRE_VERSION;
        bytes[1] = 0xEE;
        assert_eq!(Message::decode(&bytes), Err(DecodeError::UnknownKind(0xEE)));
        // Link-layer kinds are a *foreign* plane for Message::decode.
        bytes[1] = KIND_LINK_PAIR_READY;
        assert_eq!(
            Message::decode(&bytes),
            Err(DecodeError::UnknownKind(KIND_LINK_PAIR_READY))
        );
    }

    #[test]
    fn link_event_round_trip() {
        let events = vec![
            LinkEvent::PairReady(LinkPair {
                id: corr(0, 1, 5),
                label: LinkLabel(3),
                announced: BellState::PSI_PLUS,
                alpha: 0.125,
                goodness: 0.987,
                attempts: 1 << 40,
            }),
            LinkEvent::RequestDone(LinkLabel(7)),
            LinkEvent::Rejected(LinkLabel(1), RejectReason::DuplicateLabel),
        ];
        for ev in &events {
            let mut bytes = Vec::new();
            encode_link_event(ev, &mut bytes);
            let back = decode_link_event(&bytes).unwrap();
            let mut again = Vec::new();
            encode_link_event(&back, &mut again);
            assert_eq!(again, bytes, "round trip of {ev:?}");
        }
    }

    #[test]
    fn scratch_encoder_matches_wire_bytes() {
        let mut scratch = ScratchEncoder::new();
        for m in sample_messages() {
            assert_eq!(scratch.message(&m), m.wire_bytes().as_slice());
        }
        let ev = LinkEvent::RequestDone(LinkLabel(7));
        let mut owned = Vec::new();
        encode_link_event(&ev, &mut owned);
        assert_eq!(
            scratch.frame(|b| encode_link_event(&ev, b)),
            owned.as_slice()
        );
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
