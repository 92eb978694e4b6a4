//! The classical control plane: delay models, the reliable in-order
//! contract, and seeded fault injection.
//!
//! The paper (§4.1 "Classical communication and link reliability")
//! requires that "all control messages are transmitted reliably and in
//! order", provided in practice by per-hop TCP/QUIC connections. This
//! module models that contract — and, behind [`ClassicalFaults`], its
//! *violation*, so the protocol's behaviour on a degraded plane can be
//! stress-tested (the robustness question early-network designs pose):
//!
//! * per-hop delay = fibre propagation + processing (+ the injectable
//!   extra delay of Fig 10c, + optional jitter);
//! * **in-order delivery per direction of each hop** even when jitter
//!   would reorder packets — exactly what a reliable byte stream gives:
//!   a delayed early message holds back later ones;
//! * [`ClassicalPlane`]: every message travels as *encoded bytes*
//!   (`qn_net::wire`) and can be dropped, duplicated, reordered or
//!   bit-corrupted with seeded, per-run-deterministic probabilities.
//!   With faults off ([`ClassicalFaults::OFF`], the default) the plane
//!   is a bit-identical pass-through of the reliable contract: no extra
//!   RNG draws, no extra latency, byte-equal payloads.
//!
//! The plane **batches**: frames crossing the same directed hop in the
//! same lane toward the same delivery tick coalesce into one
//! length-prefixed BATCH frame (`qn_net::wire::batch_begin`). Each
//! [`transmit`] call reports at most the *newly opened* batches
//! ([`BatchOpen`]) — the runtime schedules exactly one delivery event
//! per batch and drains it with [`take_batch`], so a burst of
//! same-tick signalling costs one event and one demux pass instead of
//! one per message. Frame order within a batch is append order and
//! batch delivery times come from the same clamp as before, so
//! delivery order and fault semantics are preserved exactly.
//!
//! [`transmit`]: ClassicalPlane::transmit
//! [`take_batch`]: ClassicalPlane::take_batch

use qn_net::wire::{batch_append, batch_begin};
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};

/// Delay model of one hop.
#[derive(Clone, Copy, Debug)]
pub struct ChannelModel {
    /// Fibre propagation delay.
    pub propagation: SimDuration,
    /// Fixed processing delay at the receiver.
    pub processing: SimDuration,
    /// Injected extra delay (the Fig 10c sweep knob).
    pub extra: SimDuration,
    /// Uniform jitter bound: each message gains `U[0, jitter)` of extra
    /// latency (the reliable stream still delivers in order).
    pub jitter: SimDuration,
}

impl ChannelModel {
    /// Sample the raw latency of one message.
    pub fn sample_latency(&self, rng: &mut SimRng) -> SimDuration {
        let base = self.propagation + self.processing + self.extra;
        if self.jitter == SimDuration::ZERO {
            base
        } else {
            base + SimDuration::from_ps(rng.below(self.jitter.as_ps().max(1)))
        }
    }
}

/// Enforces the reliable in-order contract across all directed node
/// pairs: delivery times per `(from, to)` are monotonically
/// non-decreasing, whatever the sampled latencies.
///
/// The last delivery time of each directed hop lives in its sending
/// node's row, `(to, time)` entries scanned linearly: a node sends to
/// its few neighbours, so a row is as short as its degree. Rows are
/// indexed by the sender's id, which networks number densely from 0.
#[derive(Default)]
pub struct ReliableDelivery {
    last_delivery: Vec<Vec<(NodeId, SimTime)>>,
}

impl ReliableDelivery {
    /// New tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compute the delivery time of a message sent `from → to` at `now`
    /// with the given sampled latency, clamped so it never undercuts a
    /// previously scheduled delivery on the same directed hop (a reliable
    /// stream cannot reorder).
    pub fn schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        latency: SimDuration,
    ) -> SimTime {
        let natural = now + latency;
        let i = from.0 as usize;
        if self.last_delivery.len() <= i {
            self.last_delivery.resize_with(i + 1, Vec::new);
        }
        let row = &mut self.last_delivery[i];
        match row.iter_mut().find(|(n, _)| *n == to) {
            Some((_, last)) => {
                let at = natural.max(*last);
                *last = at;
                at
            }
            None => {
                row.push((to, natural));
                natural
            }
        }
    }
}

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
    /// Probability a message bypasses the in-order clamp and gains an
    /// extra `U[0, reorder_window)` of latency — a datagram overtaken
    /// by its successors.
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
    /// Frames exempted from the in-order clamp.
    pub reordered: u64,
    /// Frames with a bit flipped.
    pub corrupted: u64,
    /// Delivered frames the receiver could not decode (dropped there;
    /// incremented by the runtime, not by [`ClassicalPlane`]).
    pub decode_failures: u64,
    /// [`ClassicalStats::decode_failures`] broken down by the *observed*
    /// kind byte of the undecodable frame: indices 0..=4 are the data
    /// kinds FORWARD, COMPLETE, TRACK, EXPIRE, TRACK_ACK
    /// (`qn_net::wire::KIND_FORWARD..=KIND_TRACK_ACK`); index 5 collects
    /// frames whose kind byte itself was corrupted (or missing). Sums to
    /// the total.
    pub decode_failures_by_kind: [u64; 6],
    /// Link-plane (PAIR_READY/REQUEST_DONE/REJECTED) frames the receiver
    /// could not decode (runtime-incremented, `signalling_on_wire` only).
    pub link_decode_failures: u64,
    /// [`ClassicalStats::link_decode_failures`] by observed kind:
    /// indices 0..=2 are PAIR_READY, REQUEST_DONE, REJECTED
    /// (`qn_net::wire::KIND_LINK_PAIR_READY..=KIND_LINK_REJECTED`);
    /// index 3 collects anything else. Sums to the total.
    pub link_decode_failures_by_kind: [u64; 4],
    /// Routing-plane (INSTALL/TEARDOWN and acks) frames the receiver
    /// could not decode (runtime-incremented, `signalling_on_wire` only).
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
    /// Batch frames opened (= delivery events scheduled).
    pub batches: u64,
    /// Payload bytes that rode along in an already-open batch — traffic
    /// that did not cost its own delivery event.
    pub bytes_coalesced: u64,
}

impl ClassicalStats {
    /// Mean frames per batch delivery event.
    pub fn frames_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.delivered as f64 / self.batches as f64
        }
    }

    /// Count one undecodable data-plane frame, bucketed by its observed
    /// kind byte (`None` when the frame was too short to carry one).
    pub fn count_decode_failure(&mut self, kind: Option<u8>) {
        self.decode_failures += 1;
        let i = match kind {
            Some(k) if (qn_net::wire::KIND_FORWARD..=qn_net::wire::KIND_TRACK_ACK).contains(&k) => {
                (k - qn_net::wire::KIND_FORWARD) as usize
            }
            _ => 5,
        };
        self.decode_failures_by_kind[i] += 1;
    }

    /// Count one undecodable link-plane frame, bucketed by its observed
    /// kind byte.
    pub fn count_link_decode_failure(&mut self, kind: Option<u8>) {
        self.link_decode_failures += 1;
        let i = match kind {
            Some(k)
                if (qn_net::wire::KIND_LINK_PAIR_READY..=qn_net::wire::KIND_LINK_REJECTED)
                    .contains(&k) =>
            {
                (k - qn_net::wire::KIND_LINK_PAIR_READY) as usize
            }
            _ => 3,
        };
        self.link_decode_failures_by_kind[i] += 1;
    }
}

/// Handle of an open (scheduled but not yet drained) batch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BatchId(pub u64);

/// A batch newly opened by a [`ClassicalPlane::transmit`] call: the
/// runtime schedules exactly one delivery event per `BatchOpen` and
/// drains it with [`ClassicalPlane::take_batch`] when the event fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchOpen {
    /// The batch to drain.
    pub id: BatchId,
    /// When its frames arrive at the receiver.
    pub at: SimTime,
}

struct OpenBatch {
    id: u64,
    key: (NodeId, NodeId, bool, SimTime),
    buf: Vec<u8>,
}

/// The classical plane: the reliable in-order transport plus optional
/// seeded fault injection, operating on encoded frames and coalescing
/// them into per-(hop, lane, tick) batches.
///
/// Fault sampling uses its **own** RNG substream, so enabling faults
/// never perturbs the latency/jitter draws — and the faults-off path
/// makes *zero* fault draws, keeping default runs bit-identical to the
/// plain reliable transport.
pub struct ClassicalPlane {
    transport: ReliableDelivery,
    faults: ClassicalFaults,
    rng_faults: SimRng,
    /// Traffic counters.
    pub stats: ClassicalStats,
    /// Scheduled, undrained batches, scanned linearly by key on append
    /// and by id on take (swap-removed). Their number is what is in
    /// flight at one instant, not what a run has sent.
    open: Vec<OpenBatch>,
    next_batch: u64,
    /// Drained batch buffers waiting for reuse.
    pool: Vec<Vec<u8>>,
    /// Copy-on-corrupt buffer (the caller's frame may live in a shared
    /// encode scratch and must not be mutated in place).
    fault_scratch: Vec<u8>,
}

impl ClassicalPlane {
    /// A plane with the given fault config, drawing fault decisions from
    /// the dedicated `"classical-faults"` substream of `seed`.
    pub fn new(seed: u64, faults: ClassicalFaults) -> Self {
        ClassicalPlane {
            transport: ReliableDelivery::new(),
            faults,
            rng_faults: SimRng::substream(seed, "classical-faults"),
            stats: ClassicalStats::default(),
            open: Vec::new(),
            next_batch: 0,
            pool: Vec::new(),
            fault_scratch: Vec::new(),
        }
    }

    /// The active fault config.
    pub fn faults(&self) -> &ClassicalFaults {
        &self.faults
    }

    /// Transmit one encoded frame `from → to` at `now` over `channel`,
    /// sampling latency from `rng_latency` (the caller's message RNG, so
    /// the draw sequence matches the pre-fault-plane runtime exactly).
    ///
    /// `lane` discriminates independent sub-streams of the same directed
    /// hop (the runtime uses the upstream/downstream orientation), so a
    /// whole batch can be demuxed with one flag at the receiver.
    ///
    /// The frame is appended to the open batch for its `(hop, lane,
    /// delivery tick)` or a new batch is opened; the return value lists
    /// the batches *opened by this call* (primary and, under faults, a
    /// duplicate landing on a different tick) — zero entries means the
    /// frame was dropped or coalesced into already-scheduled batches.
    pub fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        lane: bool,
        now: SimTime,
        channel: &ChannelModel,
        rng_latency: &mut SimRng,
        frame: &[u8],
    ) -> [Option<BatchOpen>; 2] {
        let faults = self.faults;
        self.transmit_with(faults, from, to, lane, now, channel, rng_latency, frame)
    }

    /// [`ClassicalPlane::transmit`] with an explicit fault model for
    /// this frame's hop (per-link fault overrides). Draws come from the
    /// same single `classical-faults` substream in the same order, so
    /// passing the plane's own config is exactly `transmit`.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit_with(
        &mut self,
        faults: ClassicalFaults,
        from: NodeId,
        to: NodeId,
        lane: bool,
        now: SimTime,
        channel: &ChannelModel,
        rng_latency: &mut SimRng,
        frame: &[u8],
    ) -> [Option<BatchOpen>; 2] {
        self.stats.sent += 1;
        self.stats.wire_bytes += frame.len() as u64;
        let latency = channel.sample_latency(rng_latency);
        if !faults.enabled() {
            // Pass-through: identical draws, clamping and timing as the
            // plain reliable transport.
            let at = self.transport.schedule(from, to, now, latency);
            self.stats.delivered += 1;
            return [self.append(from, to, lane, at, frame), None];
        }

        // Fault draws in a fixed order (drop, corrupt, reorder,
        // duplicate) so a run is a pure function of (seed, config).
        if faults.drop > 0.0 && self.rng_faults.bernoulli(faults.drop) {
            self.stats.dropped += 1;
            return [None, None];
        }
        let mut work = std::mem::take(&mut self.fault_scratch);
        work.clear();
        work.extend_from_slice(frame);
        if faults.corrupt > 0.0 && self.rng_faults.bernoulli(faults.corrupt) {
            if !work.is_empty() {
                let bit = self.rng_faults.below(work.len() as u64 * 8);
                work[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.stats.corrupted += 1;
            }
        }
        let reordered = faults.reorder > 0.0 && self.rng_faults.bernoulli(faults.reorder);
        let primary_at = if reordered {
            // A datagram that escaped the stream: it neither respects
            // nor advances the in-order clamp, and gains extra latency
            // so later sends can overtake it.
            self.stats.reordered += 1;
            now + latency + self.extra_delay(faults.reorder_window)
        } else {
            self.transport.schedule(from, to, now, latency)
        };
        let first = self.append(from, to, lane, primary_at, &work);
        self.stats.delivered += 1;
        let mut second = None;
        if faults.duplicate > 0.0 && self.rng_faults.bernoulli(faults.duplicate) {
            self.stats.duplicated += 1;
            let dup_at = primary_at + self.extra_delay(faults.reorder_window);
            second = self.append(from, to, lane, dup_at, &work);
            self.stats.delivered += 1;
        }
        self.fault_scratch = work;
        [first, second]
    }

    /// Remove an open batch and hand its encoded bytes to the receiver.
    /// The id is single-use: later frames toward the same `(hop, lane,
    /// tick)` open a fresh batch, so a drained batch can never grow.
    pub fn take_batch(&mut self, id: BatchId) -> Option<Vec<u8>> {
        let i = self.open.iter().position(|b| b.id == id.0)?;
        Some(self.open.swap_remove(i).buf)
    }

    /// Return a drained batch buffer for reuse by later batches.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.pool.len() < 32 {
            buf.clear();
            self.pool.push(buf);
        }
    }

    fn append(
        &mut self,
        from: NodeId,
        to: NodeId,
        lane: bool,
        at: SimTime,
        frame: &[u8],
    ) -> Option<BatchOpen> {
        let key = (from, to, lane, at);
        if let Some(open) = self.open.iter_mut().find(|b| b.key == key) {
            batch_append(&mut open.buf, frame);
            self.stats.bytes_coalesced += frame.len() as u64;
            None
        } else {
            let id = self.next_batch;
            self.next_batch += 1;
            let mut buf = self.pool.pop().unwrap_or_default();
            batch_begin(&mut buf);
            batch_append(&mut buf, frame);
            self.open.push(OpenBatch { id, key, buf });
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

    fn model(jitter_us: u64) -> ChannelModel {
        ChannelModel {
            propagation: SimDuration::from_nanos(10),
            processing: SimDuration::from_micros(5),
            extra: SimDuration::ZERO,
            jitter: SimDuration::from_micros(jitter_us),
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let m = model(0);
        let mut rng = SimRng::from_seed(1);
        let a = m.sample_latency(&mut rng);
        let b = m.sample_latency(&mut rng);
        assert_eq!(a, b);
        assert_eq!(a, SimDuration::from_nanos(10) + SimDuration::from_micros(5));
    }

    #[test]
    fn jitter_varies_but_is_bounded() {
        let m = model(50);
        let mut rng = SimRng::from_seed(2);
        let base = SimDuration::from_nanos(10) + SimDuration::from_micros(5);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            let l = m.sample_latency(&mut rng);
            assert!(l >= base);
            assert!(l < base + SimDuration::from_micros(50));
            distinct.insert(l.as_ps());
        }
        assert!(distinct.len() > 10, "jitter should vary");
    }

    #[test]
    fn in_order_delivery_under_reordering_latencies() {
        let mut r = ReliableDelivery::new();
        let (a, b) = (NodeId(0), NodeId(1));
        // First message is slow; the second would naturally overtake it.
        let t1 = r.schedule(a, b, SimTime::from_ps(0), SimDuration::from_micros(100));
        let t2 = r.schedule(a, b, SimTime::from_ps(1), SimDuration::from_micros(1));
        assert!(t2 >= t1, "reliable stream must not reorder: {t2} < {t1}");
    }

    #[test]
    fn directions_and_hops_are_independent() {
        let mut r = ReliableDelivery::new();
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let slow = r.schedule(a, b, SimTime::ZERO, SimDuration::from_millis(10));
        // Reverse direction is not held back.
        let rev = r.schedule(b, a, SimTime::ZERO, SimDuration::from_micros(1));
        assert!(rev < slow);
        // A different hop is not held back.
        let other = r.schedule(b, c, SimTime::ZERO, SimDuration::from_micros(1));
        assert!(other < slow);
    }

    /// Drain every batch opened by one transmit call, returning each as
    /// `(delivery time, inner frames)`.
    fn drain(
        plane: &mut ClassicalPlane,
        opened: [Option<BatchOpen>; 2],
    ) -> Vec<(SimTime, Vec<Vec<u8>>)> {
        let mut out = Vec::new();
        for b in opened.into_iter().flatten() {
            let buf = plane.take_batch(b.id).expect("opened batch");
            out.push((
                b.at,
                qn_net::wire::decode_batch(&buf).expect("plane-built batch"),
            ));
            plane.recycle(buf);
        }
        out
    }

    #[test]
    fn faults_off_is_a_pass_through() {
        // Same seed, same channel: the plane with faults off must
        // schedule byte-identical deliveries at identical times to the
        // bare ReliableDelivery, from the same latency RNG stream.
        let m = model(50);
        let (a, b) = (NodeId(0), NodeId(1));
        let mut bare = ReliableDelivery::new();
        let mut bare_rng = SimRng::from_seed(9);
        let mut plane = ClassicalPlane::new(123, ClassicalFaults::OFF);
        let mut plane_rng = SimRng::from_seed(9);
        for i in 0..200u64 {
            let now = SimTime::from_ps(i * 1000);
            let expect = bare.schedule(a, b, now, m.sample_latency(&mut bare_rng));
            let opened = plane.transmit(a, b, false, now, &m, &mut plane_rng, &[i as u8]);
            let got = drain(&mut plane, opened);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, expect);
            assert_eq!(got[0].1, vec![vec![i as u8]]);
        }
        assert_eq!(plane.stats.sent, 200);
        assert_eq!(plane.stats.delivered, 200);
        assert_eq!(plane.stats.batches, 200);
        assert_eq!(plane.stats.bytes_coalesced, 0);
        assert_eq!(plane.stats.dropped + plane.stats.corrupted, 0);
    }

    #[test]
    fn same_tick_frames_coalesce_into_one_batch() {
        let m = model(0); // deterministic latency: same tick per send time
        let (a, b) = (NodeId(0), NodeId(1));
        let mut plane = ClassicalPlane::new(1, ClassicalFaults::OFF);
        let mut rng = SimRng::from_seed(1);
        let now = SimTime::ZERO;
        let open =
            plane.transmit(a, b, false, now, &m, &mut rng, b"one")[0].expect("first send opens");
        for f in [b"two".as_slice(), b"three"] {
            assert_eq!(
                plane.transmit(a, b, false, now, &m, &mut rng, f),
                [None, None],
                "same (hop, lane, tick) must coalesce"
            );
        }
        // A different lane or hop opens its own batch.
        assert!(plane.transmit(a, b, true, now, &m, &mut rng, b"x")[0].is_some());
        assert!(plane.transmit(b, a, false, now, &m, &mut rng, b"y")[0].is_some());
        let buf = plane.take_batch(open.id).unwrap();
        assert_eq!(
            qn_net::wire::decode_batch(&buf).unwrap(),
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()],
            "append order is delivery order"
        );
        plane.recycle(buf);
        assert_eq!(plane.stats.batches, 3);
        assert_eq!(plane.stats.bytes_coalesced, 8); // "two" + "three"
                                                    // A drained id is single-use; the tick re-opens afterwards.
        assert!(plane.take_batch(open.id).is_none());
        assert!(plane.transmit(a, b, false, now, &m, &mut rng, b"z")[0].is_some());
    }

    #[test]
    fn duplicate_in_zero_window_coalesces_with_primary() {
        let faults = ClassicalFaults {
            duplicate: 1.0,
            ..ClassicalFaults::OFF
        };
        let m = model(0);
        let mut plane = ClassicalPlane::new(3, faults);
        let mut rng = SimRng::from_seed(3);
        let opened = plane.transmit(
            NodeId(0),
            NodeId(1),
            false,
            SimTime::ZERO,
            &m,
            &mut rng,
            b"dup",
        );
        // Zero reorder window: the copy lands on the same tick, hence in
        // the same batch.
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
            let m = model(0);
            let mut plane = ClassicalPlane::new(seed, faults);
            let mut rng = SimRng::from_seed(5);
            let mut log = Vec::new();
            for i in 0..300u64 {
                let now = SimTime::from_ps(i * 777);
                let opened = plane.transmit(
                    NodeId(0),
                    NodeId(1),
                    false,
                    now,
                    &m,
                    &mut rng,
                    &[i as u8, (i >> 8) as u8, 0xAB],
                );
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
        let m = model(0);
        let mut plane = ClassicalPlane::new(7, faults);
        let mut rng = SimRng::from_seed(7);
        let original = vec![0u8; 16];
        for _ in 0..50 {
            let opened = plane.transmit(
                NodeId(0),
                NodeId(1),
                false,
                SimTime::ZERO,
                &m,
                &mut rng,
                &original,
            );
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

    #[test]
    fn monotone_across_many_messages() {
        let mut r = ReliableDelivery::new();
        let mut rng = SimRng::from_seed(3);
        let m = model(200);
        let mut last = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        for i in 0..500 {
            now += SimDuration::from_micros(i % 7);
            let at = r.schedule(NodeId(0), NodeId(1), now, m.sample_latency(&mut rng));
            assert!(at >= last);
            last = at;
        }
    }
}
