//! Fuzz the routing-signalling wire frames (INSTALL / TEARDOWN and
//! their acks) through the one frame decoder: exact round-trips over
//! the full entry space, total decoding on arbitrary bytes, and every
//! signalling frame decoding to the signalling variant.

use proptest::collection::vec;
use proptest::prelude::*;
use qn_link::LinkLabel;
use qn_net::ids::CircuitId;
use qn_net::routing_table::{DownstreamHop, RoutingEntry, UpstreamHop};
use qn_net::wire::{DecodeError, Frame, SignalMessage};
use qn_sim::{NodeId, SimDuration};

fn arb_entry() -> BoxedStrategy<RoutingEntry> {
    (
        any::<u64>(),
        prop_oneof![
            Just(None),
            (any::<u32>(), any::<u32>()).prop_map(|(n, l)| Some(UpstreamHop {
                node: NodeId(n),
                label: LinkLabel(l),
            }))
        ],
        prop_oneof![
            Just(None),
            ((any::<u32>(), any::<u32>()), (any::<u64>(), any::<u64>()),).prop_map(
                |((n, l), (f, r))| Some(DownstreamHop {
                    node: NodeId(n),
                    label: LinkLabel(l),
                    min_fidelity: f64::from_bits(f),
                    max_lpr: f64::from_bits(r),
                })
            )
        ],
        any::<u64>().prop_map(f64::from_bits),
        any::<u64>().prop_map(SimDuration::from_ps),
    )
        .prop_map(|(c, upstream, downstream, max_eer, cutoff)| RoutingEntry {
            circuit: CircuitId(c),
            upstream,
            downstream,
            max_eer,
            cutoff,
        })
        .boxed()
}

fn arb_signal() -> BoxedStrategy<SignalMessage> {
    prop_oneof![
        arb_entry().prop_map(|entry| SignalMessage::Install { entry }),
        any::<u64>().prop_map(|c| SignalMessage::Teardown {
            circuit: CircuitId(c)
        }),
        any::<u64>().prop_map(|c| SignalMessage::InstallAck {
            circuit: CircuitId(c)
        }),
        any::<u64>().prop_map(|c| SignalMessage::TeardownAck {
            circuit: CircuitId(c)
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exact round-trip: the decoded message is the encoded one, field
    /// by field, and re-encodes to the same bytes.
    #[test]
    fn signal_round_trip(msg in arb_signal()) {
        let bytes = Frame::Signal(msg).wire_bytes();
        prop_assert_eq!(Frame::Signal(msg).encoded_len(), bytes.len());
        let back = Frame::decode(&bytes);
        prop_assert!(matches!(back, Ok(Frame::Signal(_))), "decoded as {:?}", back);
        let Ok(Frame::Signal(back)) = back else { unreachable!() };
        // Floats compare by bit pattern, so NaN payloads count.
        // Re-encoding alone would miss a field that both sides narrow
        // the same way.
        match (&msg, &back) {
            (SignalMessage::Install { entry: a }, SignalMessage::Install { entry: b }) => {
                prop_assert_eq!(a.circuit, b.circuit);
                prop_assert_eq!(a.upstream, b.upstream);
                let down = |d: &Option<DownstreamHop>| {
                    d.map(|h| (h.node, h.label, h.min_fidelity.to_bits(), h.max_lpr.to_bits()))
                };
                prop_assert_eq!(down(&a.downstream), down(&b.downstream));
                prop_assert_eq!(a.max_eer.to_bits(), b.max_eer.to_bits());
                prop_assert_eq!(a.cutoff, b.cutoff);
            }
            (SignalMessage::Teardown { circuit: a }, SignalMessage::Teardown { circuit: b })
            | (SignalMessage::InstallAck { circuit: a }, SignalMessage::InstallAck { circuit: b })
            | (
                SignalMessage::TeardownAck { circuit: a },
                SignalMessage::TeardownAck { circuit: b },
            ) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "{:?} decoded as {:?}", msg, back),
        }
        prop_assert_eq!(Frame::Signal(back).wire_bytes(), bytes);
    }

    /// Total decoding on arbitrary bytes; whatever decodes re-encodes
    /// identically (canonical representation).
    #[test]
    fn signal_decode_total(bytes in vec(any::<u8>(), 0..96)) {
        match Frame::decode(&bytes) {
            Ok(f) => prop_assert_eq!(f.wire_bytes(), bytes),
            Err(e) => { let _ = format!("{e}"); }
        }
    }

    /// Strict prefixes fail with `Truncated`; a signalling frame decodes
    /// to the signalling variant and to no other plane's.
    #[test]
    fn signal_framing(msg in arb_signal(), cut in any::<u16>()) {
        let bytes = Frame::Signal(msg).wire_bytes();
        let len = (cut as usize) % bytes.len();
        prop_assert!(matches!(
            Frame::decode(&bytes[..len]),
            Err(DecodeError::Truncated { .. })
        ));
        prop_assert!(matches!(Frame::decode(&bytes), Ok(Frame::Signal(_))));
    }
}
