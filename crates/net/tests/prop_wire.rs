//! Codec fuzz suites for the one frame decoder: the wire format must
//! round-trip every QNP message and PAIR_READY exactly, each into its
//! own [`Frame`] variant, and decoding must be *total* — arbitrary,
//! truncated or bit-flipped byte strings produce typed errors, never
//! panics. Failing inputs shrink to minimal byte vectors / messages.

use proptest::collection::vec;
use proptest::prelude::*;
use qn_link::{EntanglementId, LinkLabel, LinkPair};
use qn_net::ids::{CircuitId, Epoch, RequestId};
use qn_net::messages::{Complete, Expire, Forward, Message, Track, TrackAck};
use qn_net::request::RequestType;
use qn_net::wire::{DecodeError, Frame, WIRE_VERSION};
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_sim::NodeId;

fn arb_bell() -> BoxedStrategy<BellState> {
    (any::<bool>(), any::<bool>())
        .prop_map(|(x, z)| BellState::from_bits(x, z))
        .boxed()
}

fn arb_pauli() -> BoxedStrategy<Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z)
    ]
    .boxed()
}

fn arb_corr() -> BoxedStrategy<EntanglementId> {
    (any::<u32>(), any::<u32>(), any::<u64>())
        .prop_map(|(a, b, seq)| EntanglementId {
            node_a: NodeId(a),
            node_b: NodeId(b),
            seq,
        })
        .boxed()
}

fn arb_request_type() -> BoxedStrategy<RequestType> {
    prop_oneof![
        Just(RequestType::Keep),
        Just(RequestType::Early),
        arb_pauli().prop_map(RequestType::Measure)
    ]
    .boxed()
}

/// Any bit pattern, including NaNs, infinities and signed zeros: the
/// codec must preserve all of them bit-exactly.
fn arb_f64_bits() -> BoxedStrategy<f64> {
    any::<u64>().prop_map(f64::from_bits).boxed()
}

fn arb_forward() -> BoxedStrategy<Message> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
        arb_request_type(),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        prop_oneof![Just(None), arb_bell().prop_map(Some)],
        arb_f64_bits(),
    )
        .prop_map(|((c, r, h, t), rt, n, fs, rate)| {
            Message::Forward(Forward {
                circuit: CircuitId(c),
                request: RequestId(r),
                head_identifier: h,
                tail_identifier: t,
                request_type: rt,
                number_of_pairs: n,
                final_state: fs,
                rate,
            })
        })
        .boxed()
}

fn arb_complete() -> BoxedStrategy<Message> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        arb_f64_bits(),
    )
        .prop_map(|(c, r, h, t, rate)| {
            Message::Complete(Complete {
                circuit: CircuitId(c),
                request: RequestId(r),
                head_identifier: h,
                tail_identifier: t,
                rate,
            })
        })
        .boxed()
}

fn arb_track() -> BoxedStrategy<Message> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
        arb_corr(),
        arb_corr(),
        arb_bell(),
        prop_oneof![Just(None), any::<u64>().prop_map(|e| Some(Epoch(e)))],
    )
        .prop_map(|((c, r, h, t), origin, link, state, epoch)| {
            Message::Track(Track {
                circuit: CircuitId(c),
                request: RequestId(r),
                head_identifier: h,
                tail_identifier: t,
                origin,
                link,
                outcome_state: state,
                epoch,
            })
        })
        .boxed()
}

fn arb_expire() -> BoxedStrategy<Message> {
    (any::<u64>(), arb_corr())
        .prop_map(|(c, origin)| {
            Message::Expire(Expire {
                circuit: CircuitId(c),
                origin,
            })
        })
        .boxed()
}

fn arb_track_ack() -> BoxedStrategy<Message> {
    (any::<u64>(), arb_corr())
        .prop_map(|(c, origin)| {
            Message::TrackAck(TrackAck {
                circuit: CircuitId(c),
                origin,
            })
        })
        .boxed()
}

fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        arb_forward(),
        arb_complete(),
        arb_track(),
        arb_expire(),
        arb_track_ack()
    ]
    .boxed()
}

fn arb_pair_ready() -> BoxedStrategy<LinkPair> {
    (
        arb_corr(),
        any::<u32>(),
        arb_bell(),
        (arb_f64_bits(), arb_f64_bits()),
        any::<u64>(),
    )
        .prop_map(
            |(id, label, announced, (alpha, goodness), attempts)| LinkPair {
                id,
                label: LinkLabel(label),
                announced,
                alpha,
                goodness,
                attempts,
            },
        )
        .boxed()
}

fn qnp_bytes(msg: Message) -> Vec<u8> {
    Frame::Qnp(msg).wire_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exact round-trip for every message type over the full value
    /// space, including NaN rates (compared by re-encoding: the byte
    /// representation is the identity that matters on the wire).
    #[test]
    fn message_encode_decode_round_trip(msg in arb_message()) {
        let bytes = qnp_bytes(msg);
        prop_assert_eq!(Frame::Qnp(msg).encoded_len(), bytes.len());
        let back = Frame::decode(&bytes);
        prop_assert!(matches!(back, Ok(Frame::Qnp(_))), "decoded as {:?}", back);
        let Ok(Frame::Qnp(back)) = back else { unreachable!() };
        prop_assert_eq!(qnp_bytes(back), bytes);
        // For non-NaN payloads structural equality must hold too.
        let nan_rate = match &msg {
            Message::Forward(f) => f.rate.is_nan(),
            Message::Complete(c) => c.rate.is_nan(),
            _ => false,
        };
        if !nan_rate {
            prop_assert_eq!(back, msg);
        }
    }

    /// Decoding is total on arbitrary byte strings: typed error or valid
    /// frame, never a panic. A panicking input shrinks to a minimal
    /// byte vector.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..128)) {
        match Frame::decode(&bytes) {
            Ok(frame) => {
                // Whatever decoded must re-encode to the same bytes
                // (the codec is a bijection on its valid range).
                prop_assert_eq!(frame.wire_bytes(), bytes);
            }
            Err(e) => {
                // Errors are typed and displayable.
                let _ = format!("{e}");
            }
        }
    }

    /// Every strict prefix of a valid frame fails with `Truncated`.
    #[test]
    fn truncated_frames_error(msg in arb_message(), cut in any::<u16>()) {
        let bytes = qnp_bytes(msg);
        let len = (cut as usize) % bytes.len();
        let err = Frame::decode(&bytes[..len]).unwrap_err();
        prop_assert!(
            matches!(err, DecodeError::Truncated { .. }),
            "prefix {} of {} gave {:?}", len, bytes.len(), err
        );
    }

    /// A single flipped bit never panics the decoder; it either yields a
    /// typed error or a different-but-valid frame that re-encodes
    /// consistently.
    #[test]
    fn bit_flips_are_absorbed(msg in arb_message(), flip in any::<u32>()) {
        let mut bytes = qnp_bytes(msg);
        let bit = (flip as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match Frame::decode(&bytes) {
            Ok(f) => prop_assert_eq!(f.wire_bytes(), bytes),
            Err(e) => {
                if bit / 8 == 0 {
                    // Version byte flipped: the error must say so.
                    prop_assert_eq!(e, DecodeError::BadVersion(WIRE_VERSION ^ (1 << (bit % 8))));
                }
            }
        }
    }

    /// PAIR_READY frames round-trip exactly and decode to their own
    /// variant (a link frame never decodes as a QNP message).
    #[test]
    fn link_event_round_trip_and_plane_separation(pair in arb_pair_ready()) {
        let bytes = Frame::PairReady(pair).wire_bytes();
        prop_assert_eq!(Frame::PairReady(pair).encoded_len(), bytes.len());
        let back = Frame::decode(&bytes);
        prop_assert!(matches!(back, Ok(Frame::PairReady(_))), "decoded as {:?}", back);
        let Ok(Frame::PairReady(back)) = back else { unreachable!() };
        // The decoded value is the encoded one, field by field (floats
        // by bit pattern, so NaN payloads count). Re-encoding alone
        // would miss a field that both sides narrow the same way.
        prop_assert_eq!(pair.id, back.id);
        prop_assert_eq!(pair.label, back.label);
        prop_assert_eq!(pair.announced, back.announced);
        prop_assert_eq!(pair.alpha.to_bits(), back.alpha.to_bits());
        prop_assert_eq!(pair.goodness.to_bits(), back.goodness.to_bits());
        prop_assert_eq!(pair.attempts, back.attempts);
        prop_assert_eq!(Frame::PairReady(back).wire_bytes(), bytes);
    }

    /// Appending any extra bytes to a valid frame is rejected as
    /// trailing garbage.
    #[test]
    fn trailing_bytes_rejected(msg in arb_message(), extra in vec(any::<u8>(), 1..16)) {
        let mut bytes = qnp_bytes(msg);
        let n = extra.len();
        bytes.extend_from_slice(&extra);
        prop_assert_eq!(
            Frame::decode(&bytes),
            Err(DecodeError::TrailingBytes { extra: n })
        );
    }
}
