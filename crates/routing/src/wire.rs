//! Wire format of the routing signalling plane.
//!
//! The signalling protocol (§3.3, RSVP-TE style) installs and tears down
//! virtual circuits by messaging every node on the path. This module
//! pins the byte representation of those per-node messages on top of
//! the shared codec primitives of [`qn_net::wire`], in the same
//! versioned kind-byte registry (`0x20..=0x23`): a corrupted kind byte
//! cannot cross-decode a signalling frame as a data-plane message or
//! vice versa. The two acks exist for runtimes that carry signalling
//! over a lossy plane and retransmit unacknowledged hops.
//!
//! With signalling on the wire the runtime carries every install and
//! teardown over the classical plane in this encoding (see
//! `qn_netsim::runtime`), so the bytes — not the Rust structs — are the
//! authoritative interface there, exactly as for FORWARD/TRACK.

use qn_net::ids::CircuitId;
use qn_net::routing_table::RoutingEntry;
use qn_net::wire::{
    put_header, read_header, DecodeError, Wire, WireReader, WireWriter, KIND_SIGNAL_INSTALL,
    KIND_SIGNAL_INSTALL_ACK, KIND_SIGNAL_TEARDOWN, KIND_SIGNAL_TEARDOWN_ACK,
};

/// A routing-signalling message to one node on a circuit's path.
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

impl SignalMessage {
    /// Append this message's complete frame (header + payload) to `buf`.
    pub fn encode_to(&self, buf: &mut Vec<u8>) {
        let mut w = WireWriter::new(buf);
        match self {
            SignalMessage::Install { entry } => {
                put_header(&mut w, KIND_SIGNAL_INSTALL);
                entry.encode(&mut w);
            }
            SignalMessage::Teardown { circuit } => {
                put_header(&mut w, KIND_SIGNAL_TEARDOWN);
                circuit.encode(&mut w);
            }
            SignalMessage::InstallAck { circuit } => {
                put_header(&mut w, KIND_SIGNAL_INSTALL_ACK);
                circuit.encode(&mut w);
            }
            SignalMessage::TeardownAck { circuit } => {
                put_header(&mut w, KIND_SIGNAL_TEARDOWN_ACK);
                circuit.encode(&mut w);
            }
        }
    }

    /// This message's complete wire frame.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_to(&mut buf);
        buf
    }

    /// Decode a complete frame (total; typed errors; rejects data-plane
    /// and link-layer kind bytes as [`DecodeError::UnknownKind`]).
    pub fn decode(bytes: &[u8]) -> Result<SignalMessage, DecodeError> {
        let mut r = WireReader::new(bytes);
        let msg = match read_header(&mut r)? {
            KIND_SIGNAL_INSTALL => SignalMessage::Install {
                entry: Wire::decode(&mut r)?,
            },
            KIND_SIGNAL_TEARDOWN => SignalMessage::Teardown {
                circuit: Wire::decode(&mut r)?,
            },
            KIND_SIGNAL_INSTALL_ACK => SignalMessage::InstallAck {
                circuit: Wire::decode(&mut r)?,
            },
            KIND_SIGNAL_TEARDOWN_ACK => SignalMessage::TeardownAck {
                circuit: Wire::decode(&mut r)?,
            },
            kind => return Err(DecodeError::UnknownKind(kind)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// A borrowed, fully validated view of one signalling frame.
///
/// `parse` agrees with [`SignalMessage::decode`] exactly — same inputs
/// succeed, failing inputs produce the same [`DecodeError`] (including
/// truncation byte offsets) — pinned by the property suite in
/// `crates/routing/tests/prop_signal_wire.rs`. Both payloads lead with
/// the circuit id, so demuxing never materialises the entry.
#[derive(Clone, Copy, Debug)]
pub struct SignalMessageView<'a> {
    frame: &'a [u8],
    kind: u8,
}

impl<'a> SignalMessageView<'a> {
    /// Validate a complete frame and borrow it as a view.
    pub fn parse(bytes: &'a [u8]) -> Result<SignalMessageView<'a>, DecodeError> {
        let mut r = WireReader::new(bytes);
        let kind = match read_header(&mut r)? {
            kind @ KIND_SIGNAL_INSTALL => {
                // Skip-validate the RoutingEntry layout with the exact
                // per-field offsets of the owned decode.
                r.skip(8)?;
                match r.get_u8()? {
                    0 => {}
                    1 => r.skip_fields(&[4, 4])?,
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "upstream",
                            value,
                        })
                    }
                }
                match r.get_u8()? {
                    0 => {}
                    1 => r.skip_fields(&[4, 4, 8, 8])?,
                    value => {
                        return Err(DecodeError::BadTag {
                            field: "downstream",
                            value,
                        })
                    }
                }
                r.skip_fields(&[8, 8])?;
                kind
            }
            kind @ (KIND_SIGNAL_TEARDOWN | KIND_SIGNAL_INSTALL_ACK | KIND_SIGNAL_TEARDOWN_ACK) => {
                r.skip(8)?;
                kind
            }
            kind => return Err(DecodeError::UnknownKind(kind)),
        };
        r.finish()?;
        Ok(SignalMessageView { frame: bytes, kind })
    }

    /// Whether this is an INSTALL frame.
    pub fn is_install(&self) -> bool {
        self.kind == KIND_SIGNAL_INSTALL
    }

    /// The circuit this frame signals for (both payloads lead with it).
    pub fn circuit(&self) -> CircuitId {
        CircuitId(u64::from_le_bytes(
            self.frame[2..10].try_into().expect("validated at parse"),
        ))
    }

    /// Materialise the owned message.
    pub fn to_message(&self) -> SignalMessage {
        // The layout was validated in full at parse time, so re-reading
        // the payload through the field codecs cannot fail.
        let mut r = WireReader::new(self.frame);
        let _ = read_header(&mut r);
        match self.kind {
            KIND_SIGNAL_INSTALL => SignalMessage::Install {
                entry: Wire::decode(&mut r).expect("validated at parse"),
            },
            KIND_SIGNAL_INSTALL_ACK => SignalMessage::InstallAck {
                circuit: self.circuit(),
            },
            KIND_SIGNAL_TEARDOWN_ACK => SignalMessage::TeardownAck {
                circuit: self.circuit(),
            },
            _ => SignalMessage::Teardown {
                circuit: self.circuit(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_link::LinkLabel;
    use qn_net::routing_table::{DownstreamHop, UpstreamHop};
    use qn_sim::{NodeId, SimDuration};

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
            let m = SignalMessage::Install { entry: e };
            assert_eq!(SignalMessage::decode(&m.wire_bytes()), Ok(m));
        }
    }

    #[test]
    fn view_matches_owned_decode() {
        let msgs = [
            SignalMessage::Install { entry: entry() },
            SignalMessage::Install {
                entry: RoutingEntry {
                    upstream: None,
                    downstream: None,
                    ..entry()
                },
            },
            SignalMessage::Teardown {
                circuit: CircuitId(77),
            },
            SignalMessage::InstallAck {
                circuit: CircuitId(78),
            },
            SignalMessage::TeardownAck {
                circuit: CircuitId(79),
            },
        ];
        fn circuit_of(m: SignalMessage) -> CircuitId {
            match m {
                SignalMessage::Install { entry } => entry.circuit,
                SignalMessage::Teardown { circuit }
                | SignalMessage::InstallAck { circuit }
                | SignalMessage::TeardownAck { circuit } => circuit,
            }
        }
        for m in msgs {
            let bytes = m.wire_bytes();
            let view = SignalMessageView::parse(&bytes).unwrap();
            assert_eq!(view.to_message(), m);
            assert_eq!(view.circuit(), circuit_of(m));
            for len in 0..bytes.len() {
                assert_eq!(
                    SignalMessageView::parse(&bytes[..len]).map(|v| v.circuit()),
                    SignalMessage::decode(&bytes[..len]).map(circuit_of),
                    "prefix of {len} bytes"
                );
            }
        }
    }

    #[test]
    fn teardown_round_trip_and_framing() {
        let m = SignalMessage::Teardown {
            circuit: CircuitId(77),
        };
        let bytes = m.wire_bytes();
        assert_eq!(SignalMessage::decode(&bytes), Ok(m));
        // Truncations are typed errors, never panics.
        for len in 0..bytes.len() {
            assert!(SignalMessage::decode(&bytes[..len]).is_err());
        }
        // A data-plane frame is a foreign kind for this plane.
        let fwd = qn_net::Message::Expire(qn_net::Expire {
            circuit: CircuitId(1),
            origin: qn_net::Correlator {
                node_a: NodeId(0),
                node_b: NodeId(1),
                seq: 0,
            },
        })
        .wire_bytes();
        assert!(matches!(
            SignalMessage::decode(&fwd),
            Err(DecodeError::UnknownKind(_))
        ));
    }
}
