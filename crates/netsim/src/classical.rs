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
//! * [`ClassicalPlane`]: every message travels as *encoded bytes*
//!   (`qn_net::wire`) and can be dropped, duplicated, reordered or
//!   bit-corrupted with seeded, per-run-deterministic probabilities.
//!   With faults off ([`ClassicalFaults::OFF`], the default) the plane
//!   is a bit-identical pass-through of the reliable contract: no RNG
//!   draws, no extra latency, byte-equal payloads.
//!
//! The plane **groups** frames: frames crossing the same directed hop
//! in the same lane toward the same delivery tick share one [`Batch`],
//! a private list of frames. Each [`transmit`] call reports at most the
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
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};

/// Fault-injection knobs for the classical plane. All probabilities are
/// per message; the default ([`ClassicalFaults::OFF`]) disables every
/// fault, making the plane a bit-identical pass-through.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassicalFaults {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a second, byte-identical copy is delivered (after an
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
    /// Delivered frames the receiver could not decode whose observed
    /// kind byte names no other plane: data-plane kinds, unassigned
    /// kinds and frames too short to carry one (dropped there;
    /// incremented by the runtime, not by [`ClassicalPlane`]).
    pub decode_failures: u64,
    /// [`ClassicalStats::decode_failures`] broken down by the *observed*
    /// kind byte of the undecodable frame: indices 0..=4 are the data
    /// kinds FORWARD, COMPLETE, TRACK, EXPIRE, TRACK_ACK
    /// (`qn_net::wire::KIND_FORWARD..=KIND_TRACK_ACK`); index 5 collects
    /// frames whose kind byte itself was corrupted (or missing). Sums to
    /// the total.
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
    /// Total encoded payload bytes submitted.
    pub wire_bytes: u64,
    /// Frame groups opened (= delivery events scheduled).
    pub batches: u64,
    /// Payload bytes that rode along in an already-open group — traffic
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
    /// byte names, bucketed by that byte (`None` when the frame was too
    /// short to carry one).
    pub fn count_decode_failure(&mut self, kind: Option<u8>) {
        use qn_net::wire::{
            KIND_FORWARD, KIND_LINK_PAIR_READY, KIND_SIGNAL_INSTALL, KIND_SIGNAL_TEARDOWN_ACK,
            KIND_TRACK_ACK,
        };
        match kind {
            // PAIR_READY and the retired 0x11 and 0x12.
            Some(k @ KIND_LINK_PAIR_READY..=0x12) => {
                self.link_decode_failures += 1;
                self.link_decode_failures_by_kind[usize::from(k != KIND_LINK_PAIR_READY)] += 1;
            }
            Some(KIND_SIGNAL_INSTALL..=KIND_SIGNAL_TEARDOWN_ACK) => {
                self.signal_decode_failures += 1;
            }
            _ => {
                self.decode_failures += 1;
                let i = match kind {
                    Some(k @ KIND_FORWARD..=KIND_TRACK_ACK) => (k - KIND_FORWARD) as usize,
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

/// The frames of one group, in send order. Only the plane writes the
/// buffer (`len: u32 | frame` entries back to back), so walking it
/// cannot fail.
#[derive(Default)]
pub struct Batch {
    buf: Vec<u8>,
}

impl Batch {
    /// The frames in send order.
    pub fn frames(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut rest = self.buf.as_slice();
        std::iter::from_fn(move || {
            let (len, tail) = rest.split_first_chunk::<4>()?;
            let (frame, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
            rest = tail;
            Some(frame)
        })
    }

    fn push(&mut self, frame: &[u8]) {
        let len = u32::try_from(frame.len()).expect("an encoded frame is shorter than 4 GiB");
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(frame);
    }
}

struct OpenBatch {
    id: u64,
    key: (NodeId, NodeId, LinkSide, SimTime),
    batch: Batch,
}

/// The classical plane: the reliable in-order transport plus optional
/// seeded fault injection, operating on encoded frames and grouping
/// them per (hop, lane, tick).
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
    pool: Vec<Batch>,
    /// Copy-on-corrupt buffer (the caller's frame may live in a shared
    /// encode scratch and must not be mutated in place).
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

    /// Transmit one encoded frame `from → to` at `now` over a hop whose
    /// latency is `latency`. Fault draws come from the plane's one
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
        frame: &[u8],
    ) -> [Option<BatchOpen>; 2] {
        self.stats.sent += 1;
        self.stats.wire_bytes += frame.len() as u64;
        let faults = self.faults;
        if !faults.enabled() {
            // Pass-through: no draws, the frame arrives one latency on.
            self.stats.delivered += 1;
            return [self.append(from, to, lane, now + latency, frame), None];
        }

        // Fault draws in a fixed order (drop, corrupt, reorder,
        // duplicate) so a run is a pure function of (seed, config).
        if faults.drop > 0.0 && self.rng_faults.bernoulli(faults.drop) {
            self.stats.dropped += 1;
            return [None, None];
        }
        // Only a corrupted frame needs a private copy of its bytes.
        let mut corrupted = None;
        if faults.corrupt > 0.0 && self.rng_faults.bernoulli(faults.corrupt) && !frame.is_empty() {
            let mut work = std::mem::take(&mut self.fault_scratch);
            work.clear();
            work.extend_from_slice(frame);
            let bit = self.rng_faults.below(work.len() as u64 * 8);
            work[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.stats.corrupted += 1;
            corrupted = Some(work);
        }
        let bytes = corrupted.as_deref().unwrap_or(frame);
        let mut primary_at = now + latency;
        if faults.reorder > 0.0 && self.rng_faults.bernoulli(faults.reorder) {
            // A datagram that escaped the stream: it gains extra latency
            // so later sends can overtake it.
            self.stats.reordered += 1;
            primary_at += self.extra_delay(faults.reorder_window);
        }
        let first = self.append(from, to, lane, primary_at, bytes);
        self.stats.delivered += 1;
        let mut second = None;
        if faults.duplicate > 0.0 && self.rng_faults.bernoulli(faults.duplicate) {
            self.stats.duplicated += 1;
            let dup_at = primary_at + self.extra_delay(faults.reorder_window);
            second = self.append(from, to, lane, dup_at, bytes);
            self.stats.delivered += 1;
        }
        if let Some(work) = corrupted {
            self.fault_scratch = work;
        }
        [first, second]
    }

    /// Remove an open group and hand its frames to the receiver. The id
    /// is single-use: later frames toward the same `(hop, lane, tick)`
    /// open a fresh group, so a drained group can never grow.
    pub fn take_batch(&mut self, id: BatchId) -> Option<Batch> {
        let i = self.open.iter().position(|b| b.id == id.0)?;
        Some(self.open.swap_remove(i).batch)
    }

    /// Return a drained group for reuse of its buffer by later groups.
    pub fn recycle(&mut self, mut batch: Batch) {
        if self.pool.len() < 32 {
            batch.buf.clear();
            self.pool.push(batch);
        }
    }

    fn append(
        &mut self,
        from: NodeId,
        to: NodeId,
        lane: LinkSide,
        at: SimTime,
        frame: &[u8],
    ) -> Option<BatchOpen> {
        let key = (from, to, lane, at);
        if let Some(open) = self.open.iter_mut().find(|b| b.key == key) {
            open.batch.push(frame);
            self.stats.bytes_coalesced += frame.len() as u64;
            None
        } else {
            let id = self.next_batch;
            self.next_batch += 1;
            let mut batch = self.pool.pop().unwrap_or_default();
            batch.push(frame);
            self.open.push(OpenBatch { id, key, batch });
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The hop latency every test frame crosses.
    const LATENCY: SimDuration = SimDuration::from_micros(5);

    /// Send `frame` over hop `0 → 1`, lane `Upstream`.
    fn send(plane: &mut ClassicalPlane, now: SimTime, frame: &[u8]) -> [Option<BatchOpen>; 2] {
        plane.transmit(
            NodeId(0),
            NodeId(1),
            LinkSide::Upstream,
            now,
            LATENCY,
            frame,
        )
    }

    fn frames(batch: &Batch) -> Vec<Vec<u8>> {
        batch.frames().map(<[u8]>::to_vec).collect()
    }

    /// Drain every group opened by one transmit call, returning each as
    /// `(delivery time, frames)`.
    fn drain(
        plane: &mut ClassicalPlane,
        opened: [Option<BatchOpen>; 2],
    ) -> Vec<(SimTime, Vec<Vec<u8>>)> {
        let mut out = Vec::new();
        for b in opened.into_iter().flatten() {
            let batch = plane.take_batch(b.id).expect("opened group");
            out.push((b.at, frames(&batch)));
            plane.recycle(batch);
        }
        out
    }

    #[test]
    fn faults_off_is_a_pass_through() {
        // With faults off every frame arrives byte-identical, exactly one
        // latency after it was sent, each in a group of its own.
        let mut plane = ClassicalPlane::new(123, ClassicalFaults::OFF);
        for i in 0..200u64 {
            let now = SimTime::from_ps(i * 1000);
            let opened = send(&mut plane, now, &[i as u8]);
            let got = drain(&mut plane, opened);
            assert_eq!(got, vec![(now + LATENCY, vec![vec![i as u8]])]);
        }
        assert_eq!(plane.stats.sent, 200);
        assert_eq!(plane.stats.delivered, 200);
        assert_eq!(plane.stats.batches, 200);
        assert_eq!(plane.stats.bytes_coalesced, 0);
        assert_eq!(plane.stats.dropped + plane.stats.corrupted, 0);
    }

    #[test]
    fn same_tick_frames_coalesce_into_one_batch() {
        // Constant latency: same tick per send time.
        let now = SimTime::ZERO;
        let (a, b) = (NodeId(0), NodeId(1));
        let mut plane = ClassicalPlane::new(1, ClassicalFaults::OFF);
        let open = send(&mut plane, now, b"one")[0].expect("first send opens");
        for f in [b"two".as_slice(), b"three"] {
            assert_eq!(
                send(&mut plane, now, f),
                [None, None],
                "same (hop, lane, tick) must coalesce"
            );
        }
        // A different lane or hop opens its own group.
        assert!(plane.transmit(a, b, LinkSide::Downstream, now, LATENCY, b"x")[0].is_some());
        assert!(plane.transmit(b, a, LinkSide::Upstream, now, LATENCY, b"y")[0].is_some());
        let batch = plane.take_batch(open.id).unwrap();
        assert_eq!(
            frames(&batch),
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()],
            "send order is delivery order"
        );
        plane.recycle(batch);
        assert_eq!(plane.stats.batches, 3);
        // "two" and "three" rode along.
        assert_eq!(plane.stats.bytes_coalesced, 8);
        // A drained id is single-use; the tick re-opens afterwards, and
        // a recycled buffer starts empty.
        assert!(plane.take_batch(open.id).is_none());
        let reopened = send(&mut plane, now, b"z")[0].expect("tick re-opens");
        let batch = plane.take_batch(reopened.id).unwrap();
        assert_eq!(frames(&batch), vec![b"z".to_vec()]);
        // Empty frames are legal entries too.
        let opened = send(&mut plane, now, b"");
        assert_eq!(
            drain(&mut plane, opened),
            vec![(opened[0].unwrap().at, vec![vec![]])]
        );
    }

    #[test]
    fn duplicate_in_zero_window_coalesces_with_primary() {
        let faults = ClassicalFaults {
            duplicate: 1.0,
            ..ClassicalFaults::OFF
        };
        let mut plane = ClassicalPlane::new(3, faults);
        let opened = send(&mut plane, SimTime::ZERO, b"dup");
        // Zero reorder window: the copy lands on the same tick, hence in
        // the same group.
        assert!(opened[0].is_some() && opened[1].is_none());
        let got = drain(&mut plane, opened);
        assert_eq!(got[0].1, vec![b"dup".to_vec(), b"dup".to_vec()]);
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
                let frame = [i as u8, (i >> 8) as u8, 0xAB];
                let opened = send(&mut plane, now, &frame);
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
        let original = vec![0u8; 16];
        for _ in 0..50 {
            let opened = send(&mut plane, SimTime::ZERO, &original);
            let got = drain(&mut plane, opened);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].1.len(), 1);
            let flipped: u32 = got[0].1[0]
                .iter()
                .zip(&original)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1);
            // Corruption copies into a scratch; the caller's frame (a
            // shared encode buffer in the runtime) is untouched.
            assert!(original.iter().all(|&byte| byte == 0));
        }
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
