//! The classical control plane: the reliable in-order contract and
//! seeded fault injection.
//!
//! The paper (§4.1 "Classical communication and link reliability")
//! requires that "all control messages are transmitted reliably and in
//! order", provided in practice by per-hop TCP/QUIC connections. This
//! module models that contract — and, behind [`ClassicalFaults`], its
//! *violation*, so the protocol's behaviour on a degraded plane can be
//! stress-tested (the robustness question early-network designs pose):
//!
//! * a hop's latency (fibre propagation + processing + the injectable
//!   extra delay of Fig 10c) is a constant of the run, which the
//!   runtime computes once per link; a frame arrives at `now + latency`;
//! * **in-order delivery per direction of each hop** follows from that
//!   constant latency: a later send can never arrive earlier, exactly
//!   what a reliable byte stream gives;
//! * [`ClassicalPlane`]: every message travels as a [`Frame`] value
//!   and can be dropped, duplicated, reordered or bit-corrupted with
//!   seeded, per-run-deterministic probabilities. The codec
//!   (`qn_net::wire`) fixes each frame's size and what a flipped bit
//!   does to it: only a corrupted frame is encoded, its bit flipped and
//!   its bytes decoded again on the spot, into another valid frame or
//!   an [`Undecodable`] entry. With faults off
//!   ([`ClassicalFaults::OFF`], the default) the plane is a
//!   bit-identical pass-through of the reliable contract: no RNG draws,
//!   no extra latency, each frame delivered as sent.
//!
//! The plane **groups** frames: frames crossing the same directed hop
//! in the same lane toward the same delivery tick share one group, a
//! private list of [`Arrival`]s. Each [`transmit`] call reports at most the
//! *newly opened* groups ([`BatchOpen`]); the runtime schedules exactly
//! one delivery event per group and drains it with [`take_batch`].
//! Within a group, frames keep their send order, and every frame's
//! delivery time and fault draws are what they would be on its own.
//! A group is not free of semantics, though: its event was scheduled by
//! its first frame, so a frame sent later rides ahead of other events
//! already due at the same instant. Delivering each frame as its own
//! event would change the event count and that same-instant order.
//!
//! [`transmit`]: ClassicalPlane::transmit
//! [`take_batch`]: ClassicalPlane::take_batch

use qn_net::routing_table::LinkSide;
use qn_net::wire::{DecodeError, Frame};
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};

/// Fault-injection knobs for the classical plane. All probabilities are
/// per message; the default ([`ClassicalFaults::OFF`]) disables every
/// fault, making the plane a bit-identical pass-through.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassicalFaults {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a second, identical copy is delivered (after an
    /// extra `U[0, reorder_window)` of latency).
    pub duplicate: f64,
    /// Probability a message gains an extra `U[0, reorder_window)` of
    /// latency — a datagram overtaken by its successors.
    pub reorder: f64,
    /// Extra-latency bound for duplicated and reordered copies.
    pub reorder_window: SimDuration,
    /// Probability one uniformly-chosen bit of the encoded frame is
    /// flipped. Corrupted frames may fail to decode (counted and
    /// dropped at the receiver) or decode into a *different valid
    /// message* the protocol must absorb.
    pub corrupt: f64,
}

impl ClassicalFaults {
    /// No faults: the reliable in-order plane of the paper.
    pub const OFF: ClassicalFaults = ClassicalFaults {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        reorder_window: SimDuration::ZERO,
        corrupt: 0.0,
    };

    /// Whether any fault class is active.
    pub fn enabled(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0 || self.corrupt > 0.0
    }

    /// Check all probabilities are in `[0, 1]`, and that fault classes
    /// needing a latency window actually have one: `duplicate` or
    /// `reorder` above zero with `reorder_window == 0` would silently
    /// degenerate (duplicates coalesce with their primary, reordered
    /// frames gain no latency and stay in order).
    pub fn validate(&self) -> Result<(), &'static str> {
        for p in [self.drop, self.duplicate, self.reorder, self.corrupt] {
            if !(0.0..=1.0).contains(&p) {
                return Err("fault probabilities must be within [0, 1]");
            }
        }
        if (self.duplicate > 0.0 || self.reorder > 0.0) && self.reorder_window == SimDuration::ZERO
        {
            return Err(
                "duplicate/reorder faults require a non-zero reorder_window \
                 (a zero window silently degenerates to in-order, coalesced delivery)",
            );
        }
        Ok(())
    }
}

impl Default for ClassicalFaults {
    fn default() -> Self {
        ClassicalFaults::OFF
    }
}

/// Counters describing what the classical plane did to the traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassicalStats {
    /// Frames submitted for transmission.
    pub sent: u64,
    /// Delivery events scheduled (≥ sent − dropped; duplicates add).
    pub delivered: u64,
    /// Frames silently lost.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Frames delayed past their successors.
    pub reordered: u64,
    /// Frames with a bit flipped.
    pub corrupted: u64,
    /// Delivered frames whose corrupted bytes do not decode and whose
    /// observed kind byte names no other plane: data-plane and
    /// unassigned kinds (dropped at the receiver; incremented by the
    /// runtime, not by [`ClassicalPlane`]).
    pub decode_failures: u64,
    /// [`ClassicalStats::decode_failures`] broken down by the *observed*
    /// kind byte of the undecodable frame: indices 0..=4 are the data
    /// kinds FORWARD, COMPLETE, TRACK, EXPIRE, TRACK_ACK
    /// (`qn_net::wire::KIND_FORWARD..=KIND_TRACK_ACK`); index 5 collects
    /// frames whose kind byte itself was corrupted. Sums to the total.
    pub decode_failures_by_kind: [u64; 6],
    /// Undecodable frames whose observed kind byte is a link-plane kind:
    /// PAIR_READY (`qn_net::wire::KIND_LINK_PAIR_READY`) or one of the
    /// retired `0x11` and `0x12` (runtime-incremented; only corruption
    /// produces one).
    pub link_decode_failures: u64,
    /// [`ClassicalStats::link_decode_failures`] by observed kind: index 0
    /// is PAIR_READY, index 1 a retired kind. Sums to the total.
    pub link_decode_failures_by_kind: [u64; 2],
    /// Undecodable frames whose observed kind byte is a routing-plane
    /// kind, INSTALL/TEARDOWN and their acks (runtime-incremented).
    pub signal_decode_failures: u64,
    /// TRACKs re-sent by the origin end-node's retransmit timer.
    pub track_retransmits: u64,
    /// TRACK_ACKs emitted by consuming end-nodes.
    pub track_acks: u64,
    /// INSTALL/TEARDOWN frames re-sent by a hop's retransmit timer.
    pub signal_retransmits: u64,
    /// INSTALL_ACK/TEARDOWN_ACK frames emitted by receiving hops.
    pub signal_acks: u64,
    /// Redundant copies of request-level messages (FORWARD/COMPLETE)
    /// sent over a lossy wire: the fan-out is one-shot in the protocol,
    /// so on a plane that can lose frames the runtime re-sends these
    /// idempotent messages on a bounded deterministic backoff instead
    /// of adding an ack channel the paper doesn't have.
    pub request_retransmits: u64,
    /// Retransmission timers abandoned after exhausting their retry
    /// budget (the chain is left to the track-timeout / a later replan).
    pub retransmits_abandoned: u64,
    /// Total encoded bytes submitted ([`Frame::encoded_len`] per frame).
    pub wire_bytes: u64,
    /// Frame groups opened (= delivery events scheduled).
    pub batches: u64,
    /// Encoded bytes that rode along in an already-open group — traffic
    /// that did not cost its own delivery event.
    pub bytes_coalesced: u64,
}

impl ClassicalStats {
    /// Mean frames per group delivery event.
    pub fn frames_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.delivered as f64 / self.batches as f64
        }
    }

    /// Count one undecodable frame against the plane its observed kind
    /// byte names, bucketed by that byte.
    pub fn count_decode_failure(&mut self, kind: u8) {
        use qn_net::wire::{
            KIND_FORWARD, KIND_LINK_PAIR_READY, KIND_SIGNAL_INSTALL, KIND_SIGNAL_TEARDOWN_ACK,
            KIND_TRACK_ACK,
        };
        match kind {
            // PAIR_READY and the retired 0x11 and 0x12.
            KIND_LINK_PAIR_READY..=0x12 => {
                self.link_decode_failures += 1;
                self.link_decode_failures_by_kind[usize::from(kind != KIND_LINK_PAIR_READY)] += 1;
            }
            KIND_SIGNAL_INSTALL..=KIND_SIGNAL_TEARDOWN_ACK => {
                self.signal_decode_failures += 1;
            }
            _ => {
                self.decode_failures += 1;
                let i = match kind {
                    KIND_FORWARD..=KIND_TRACK_ACK => (kind - KIND_FORWARD) as usize,
                    _ => 5,
                };
                self.decode_failures_by_kind[i] += 1;
            }
        }
    }
}

/// Handle of an open (scheduled but not yet drained) group.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BatchId(pub u64);

/// A group newly opened by a [`ClassicalPlane::transmit`] call: the
/// runtime schedules exactly one delivery event per `BatchOpen` and
/// drains it with [`ClassicalPlane::take_batch`] when the event fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchOpen {
    /// The group to drain.
    pub id: BatchId,
    /// When its frames arrive at the receiver.
    pub at: SimTime,
}

/// A corrupted frame whose flipped bytes do not decode: the decoder's
/// error and the kind byte those bytes carry.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Undecodable {
    /// The observed kind byte (a frame is never shorter than its
    /// two-byte header, and a flipped bit keeps its length).
    pub kind: u8,
    /// Why the bytes do not decode.
    pub error: DecodeError,
}

/// One entry of a group: the frame as sent or, for a corrupted frame,
/// what its flipped bytes decode to.
pub type Arrival = Result<Frame, Undecodable>;

struct OpenBatch {
    id: u64,
    key: (NodeId, NodeId, LinkSide, SimTime),
    arrivals: Vec<Arrival>,
}

/// The classical plane: the reliable in-order transport plus optional
/// seeded fault injection, carrying frames and grouping them per (hop,
/// lane, tick).
///
/// Fault sampling uses its **own** RNG substream, and the faults-off
/// path makes *zero* fault draws, keeping default runs bit-identical to
/// the plain reliable transport.
pub struct ClassicalPlane {
    /// The run's one message-fault model, applied on every hop.
    faults: ClassicalFaults,
    rng_faults: SimRng,
    /// Traffic counters.
    pub stats: ClassicalStats,
    /// Scheduled, undrained groups, scanned linearly by key on append
    /// and by id on take (swap-removed). Their number is what is in
    /// flight at one instant, not what a run has sent.
    open: Vec<OpenBatch>,
    next_batch: u64,
    /// Drained groups waiting for reuse of their buffers.
    pool: Vec<Vec<Arrival>>,
    /// The bytes of the frame being corrupted.
    fault_scratch: Vec<u8>,
}

impl ClassicalPlane {
    /// A plane applying `faults` on every hop, drawing fault decisions
    /// from the dedicated `"classical-faults"` substream of `seed`.
    pub fn new(seed: u64, faults: ClassicalFaults) -> Self {
        ClassicalPlane {
            faults,
            rng_faults: SimRng::substream(seed, "classical-faults"),
            stats: ClassicalStats::default(),
            open: Vec::new(),
            next_batch: 0,
            pool: Vec::new(),
            fault_scratch: Vec::new(),
        }
    }

    /// Transmit one frame `from → to` at `now` over a hop whose latency
    /// is `latency`. Fault draws come from the plane's one
    /// `classical-faults` substream, whichever hop the frame crosses.
    ///
    /// `lane` discriminates independent sub-streams of the same directed
    /// hop (the side of `from` that `to` is on), so a whole group can be
    /// demuxed with one value at the receiver.
    ///
    /// The frame joins the open group for its `(hop, lane, delivery
    /// tick)` or opens a new one; the return value lists the groups
    /// *opened by this call* (primary and, under faults, a duplicate
    /// landing on a different tick) — zero entries means the frame was
    /// dropped or joined already-scheduled groups.
    pub fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        lane: LinkSide,
        now: SimTime,
        latency: SimDuration,
        frame: &Frame,
    ) -> [Option<BatchOpen>; 2] {
        debug_assert_round_trip(frame);
        let len = frame.encoded_len() as u64;
        self.stats.sent += 1;
        self.stats.wire_bytes += len;
        let faults = self.faults;
        if !faults.enabled() {
            // Pass-through: no draws, the frame arrives one latency on.
            self.stats.delivered += 1;
            return [
                self.append(from, to, lane, now + latency, Ok(*frame), len),
                None,
            ];
        }

        // Fault draws in a fixed order (drop, corrupt, reorder,
        // duplicate) so a run is a pure function of (seed, config).
        if faults.drop > 0.0 && self.rng_faults.bernoulli(faults.drop) {
            self.stats.dropped += 1;
            return [None, None];
        }
        let mut arrival = Ok(*frame);
        if faults.corrupt > 0.0 && self.rng_faults.bernoulli(faults.corrupt) {
            arrival = self.corrupt(frame);
        }
        let mut primary_at = now + latency;
        if faults.reorder > 0.0 && self.rng_faults.bernoulli(faults.reorder) {
            // A datagram that escaped the stream: it gains extra latency
            // so later sends can overtake it.
            self.stats.reordered += 1;
            primary_at += self.extra_delay(faults.reorder_window);
        }
        let first = self.append(from, to, lane, primary_at, arrival, len);
        self.stats.delivered += 1;
        let mut second = None;
        if faults.duplicate > 0.0 && self.rng_faults.bernoulli(faults.duplicate) {
            self.stats.duplicated += 1;
            let dup_at = primary_at + self.extra_delay(faults.reorder_window);
            second = self.append(from, to, lane, dup_at, arrival, len);
            self.stats.delivered += 1;
        }
        [first, second]
    }

    /// Flip one uniformly drawn bit of `frame`'s bytes and decode them:
    /// the decoder is a pure function of the bytes, so this is what the
    /// receiver would read.
    fn corrupt(&mut self, frame: &Frame) -> Arrival {
        let bytes = &mut self.fault_scratch;
        bytes.clear();
        frame.encode_to(bytes);
        let bit = self.rng_faults.below(bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        self.stats.corrupted += 1;
        Frame::decode(bytes).map_err(|error| Undecodable {
            kind: bytes[1],
            error,
        })
    }

    /// Remove an open group and hand its arrivals, in send order, to the
    /// receiver. The id is single-use: later frames toward the same
    /// `(hop, lane, tick)` open a fresh group, so a drained group can
    /// never grow.
    pub fn take_batch(&mut self, id: BatchId) -> Option<Vec<Arrival>> {
        let i = self.open.iter().position(|b| b.id == id.0)?;
        Some(self.open.swap_remove(i).arrivals)
    }

    /// Return a drained group for reuse of its buffer by later groups.
    pub fn recycle(&mut self, mut arrivals: Vec<Arrival>) {
        if self.pool.len() < 32 {
            arrivals.clear();
            self.pool.push(arrivals);
        }
    }

    /// Add `arrival`, whose frame encodes to `len` bytes, to its group.
    fn append(
        &mut self,
        from: NodeId,
        to: NodeId,
        lane: LinkSide,
        at: SimTime,
        arrival: Arrival,
        len: u64,
    ) -> Option<BatchOpen> {
        let key = (from, to, lane, at);
        if let Some(open) = self.open.iter_mut().find(|b| b.key == key) {
            open.arrivals.push(arrival);
            self.stats.bytes_coalesced += len;
            None
        } else {
            let id = self.next_batch;
            self.next_batch += 1;
            // Groups rarely hold more than one frame, so a fresh buffer
            // is sized for one.
            let mut arrivals = self.pool.pop().unwrap_or_else(|| Vec::with_capacity(1));
            arrivals.push(arrival);
            self.open.push(OpenBatch { id, key, arrivals });
            self.stats.batches += 1;
            Some(BatchOpen {
                id: BatchId(id),
                at,
            })
        }
    }

    fn extra_delay(&mut self, reorder_window: SimDuration) -> SimDuration {
        let window = reorder_window.as_ps();
        if window == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps(self.rng_faults.below(window))
        }
    }
}

/// In debug builds, check that `frame` survives the codec: its bytes
/// decode to a frame with the same bytes, and there are
/// [`Frame::encoded_len`] of them. Bytes, not values, are compared, so
/// a NaN field cannot fail the check.
fn debug_assert_round_trip(frame: &Frame) {
    if cfg!(debug_assertions) {
        let bytes = frame.wire_bytes();
        assert_eq!(bytes.len(), frame.encoded_len(), "length of {frame:?}");
        let back = Frame::decode(&bytes).expect("a sent frame decodes");
        assert_eq!(back.wire_bytes(), bytes, "round trip of {frame:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_net::wire::SignalMessage;
    use qn_net::CircuitId;

    /// The hop latency every test frame crosses.
    const LATENCY: SimDuration = SimDuration::from_micros(5);

    /// A ten-byte frame naming circuit `c`.
    fn teardown(c: u64) -> Frame {
        Frame::Signal(SignalMessage::Teardown {
            circuit: CircuitId(c),
        })
    }

    /// Send `frame` over hop `0 → 1`, lane `Upstream`.
    fn send(plane: &mut ClassicalPlane, now: SimTime, frame: &Frame) -> [Option<BatchOpen>; 2] {
        plane.transmit(
            NodeId(0),
            NodeId(1),
            LinkSide::Upstream,
            now,
            LATENCY,
            frame,
        )
    }

    /// Drain every group opened by one transmit call, returning each as
    /// `(delivery time, arrivals)`.
    fn drain(
        plane: &mut ClassicalPlane,
        opened: [Option<BatchOpen>; 2],
    ) -> Vec<(SimTime, Vec<Arrival>)> {
        let mut out = Vec::new();
        for b in opened.into_iter().flatten() {
            let arrivals = plane.take_batch(b.id).expect("opened group");
            out.push((b.at, arrivals.clone()));
            plane.recycle(arrivals);
        }
        out
    }

    #[test]
    fn faults_off_is_a_pass_through() {
        // With faults off every frame arrives as sent, exactly one
        // latency after it was sent, each in a group of its own.
        let mut plane = ClassicalPlane::new(123, ClassicalFaults::OFF);
        for i in 0..200u64 {
            let now = SimTime::from_ps(i * 1000);
            let opened = send(&mut plane, now, &teardown(i));
            let got = drain(&mut plane, opened);
            assert_eq!(got, vec![(now + LATENCY, vec![Ok(teardown(i))])]);
        }
        assert_eq!(plane.stats.sent, 200);
        assert_eq!(plane.stats.delivered, 200);
        assert_eq!(plane.stats.batches, 200);
        assert_eq!(plane.stats.wire_bytes, 200 * 10);
        assert_eq!(plane.stats.bytes_coalesced, 0);
        assert_eq!(plane.stats.dropped + plane.stats.corrupted, 0);
    }

    #[test]
    fn same_tick_frames_coalesce_into_one_batch() {
        // Constant latency: same tick per send time.
        let now = SimTime::ZERO;
        let (a, b) = (NodeId(0), NodeId(1));
        let mut plane = ClassicalPlane::new(1, ClassicalFaults::OFF);
        let open = send(&mut plane, now, &teardown(1))[0].expect("first send opens");
        for c in [2, 3] {
            assert_eq!(
                send(&mut plane, now, &teardown(c)),
                [None, None],
                "same (hop, lane, tick) must coalesce"
            );
        }
        // A different lane or hop opens its own group.
        let x = teardown(8);
        assert!(plane.transmit(a, b, LinkSide::Downstream, now, LATENCY, &x)[0].is_some());
        assert!(plane.transmit(b, a, LinkSide::Upstream, now, LATENCY, &x)[0].is_some());
        let arrivals = plane.take_batch(open.id).unwrap();
        assert_eq!(
            arrivals,
            vec![Ok(teardown(1)), Ok(teardown(2)), Ok(teardown(3))],
            "send order is delivery order"
        );
        plane.recycle(arrivals);
        assert_eq!(plane.stats.batches, 3);
        // The second and third frames rode along.
        assert_eq!(plane.stats.bytes_coalesced, 2 * 10);
        // A drained id is single-use; the tick re-opens afterwards, and
        // a recycled buffer starts empty.
        assert!(plane.take_batch(open.id).is_none());
        let reopened = send(&mut plane, now, &teardown(9))[0].expect("tick re-opens");
        let arrivals = plane.take_batch(reopened.id).unwrap();
        assert_eq!(arrivals, vec![Ok(teardown(9))]);
    }

    #[test]
    fn duplicate_in_zero_window_coalesces_with_primary() {
        let faults = ClassicalFaults {
            duplicate: 1.0,
            ..ClassicalFaults::OFF
        };
        let mut plane = ClassicalPlane::new(3, faults);
        let opened = send(&mut plane, SimTime::ZERO, &teardown(4));
        // Zero reorder window: the copy lands on the same tick, hence in
        // the same group.
        assert!(opened[0].is_some() && opened[1].is_none());
        let got = drain(&mut plane, opened);
        assert_eq!(got[0].1, vec![Ok(teardown(4)), Ok(teardown(4))]);
        assert_eq!(plane.stats.duplicated, 1);
        assert_eq!(plane.stats.delivered, 2);
        assert_eq!(plane.stats.frames_per_batch(), 2.0);
    }

    #[test]
    fn faults_are_seed_deterministic() {
        let faults = ClassicalFaults {
            drop: 0.2,
            duplicate: 0.2,
            reorder: 0.3,
            reorder_window: SimDuration::from_micros(80),
            corrupt: 0.2,
        };
        let run = |seed: u64| {
            let mut plane = ClassicalPlane::new(seed, faults);
            let mut log = Vec::new();
            for i in 0..300u64 {
                let now = SimTime::from_ps(i * 777);
                let opened = send(&mut plane, now, &teardown(i << 8 | 0xAB));
                log.push(drain(&mut plane, opened));
            }
            (log, plane.stats)
        };
        let (l1, s1) = run(42);
        let (l2, s2) = run(42);
        assert_eq!(l1, l2);
        assert_eq!(s1, s2);
        let (l3, _) = run(43);
        assert_ne!(l1, l3, "different seeds should fault differently");
        assert!(s1.dropped > 0 && s1.duplicated > 0 && s1.corrupted > 0 && s1.reordered > 0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let faults = ClassicalFaults {
            corrupt: 1.0,
            ..ClassicalFaults::OFF
        };
        let mut plane = ClassicalPlane::new(7, faults);
        let sent = teardown(0x0123_4567_89AB_CDEF);
        let bytes = sent.wire_bytes();
        // What the receiver reads after each single-bit flip.
        let flips: Vec<Arrival> = (0..bytes.len() * 8)
            .map(|bit| {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                Frame::decode(&flipped).map_err(|error| Undecodable {
                    kind: flipped[1],
                    error,
                })
            })
            .collect();
        let (mut decoded, mut undecodable) = (0, 0);
        for _ in 0..100 {
            let opened = send(&mut plane, SimTime::ZERO, &sent);
            let got = drain(&mut plane, opened);
            assert_eq!(got.len(), 1);
            let [arrival] = got[0].1[..] else {
                panic!("one entry per corrupted frame: {got:?}")
            };
            assert_ne!(arrival, Ok(sent), "a flipped bit changes the frame");
            assert!(flips.contains(&arrival), "{arrival:?} is no one-bit flip");
            match arrival {
                Ok(_) => decoded += 1,
                Err(_) => undecodable += 1,
            }
        }
        assert_eq!(plane.stats.corrupted, 100);
        assert!(decoded > 0 && undecodable > 0, "{decoded} / {undecodable}");
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut f = ClassicalFaults::OFF;
        assert!(f.validate().is_ok());
        assert!(!f.enabled());
        f.drop = 1.5;
        assert!(f.validate().is_err());
        f.drop = 0.5;
        assert!(f.validate().is_ok());
        assert!(f.enabled());
    }

    #[test]
    fn validate_rejects_window_dependent_faults_without_a_window() {
        // duplicate/reorder with a zero window silently degenerate (the
        // copies coalesce / stay in order) — validate must reject them.
        for f in [
            ClassicalFaults {
                duplicate: 0.1,
                ..ClassicalFaults::OFF
            },
            ClassicalFaults {
                reorder: 0.1,
                ..ClassicalFaults::OFF
            },
        ] {
            let err = f.validate().unwrap_err();
            assert!(err.contains("reorder_window"), "undescriptive error: {err}");
            // The same knobs with a window are fine.
            assert!(ClassicalFaults {
                reorder_window: SimDuration::from_micros(10),
                ..f
            }
            .validate()
            .is_ok());
        }
        // drop/corrupt alone need no window.
        assert!(ClassicalFaults {
            drop: 0.3,
            corrupt: 0.2,
            ..ClassicalFaults::OFF
        }
        .validate()
        .is_ok());
    }
}
