//! The link layer protocol state machine.
//!
//! One [`LinkProtocol`] instance manages entanglement generation over one
//! physical link, playing the role of the link layer protocol of Ref
//! \[19\] (Dahlberg et al., SIGCOMM'19) that the QNP builds on. In the real
//! system the two endpoint processors run a distributed-queue protocol to
//! agree on what to generate; their decisions are tightly synchronised by
//! design, so the simulation models the agreed schedule as a single state
//! machine per link (documented substitution — the protocol properties the
//! QNP relies on, §3.5 (i)–(iv), are all preserved).
//!
//! The machine is **sans-IO**: it never touches the event queue or the
//! pair store, and it keeps only what the link layer decides: the active
//! requests, their admissions and their time-share schedule. The runtime
//! owns the heralding process and the hop's health. It asks
//! [`LinkProtocol::next_action`] what to generate while the hop is idle
//! and alive, runs the physical process (sampling the geometric attempt
//! count), and feeds back [`LinkProtocol::on_generation_complete`] /
//! [`LinkProtocol::on_generation_aborted`]. This keeps every scheduling
//! rule unit-testable without a simulator. Admission fixes a request's
//! α, and with it the two states a herald can announce and the
//! per-attempt success probability; all are pure functions of the link
//! and the request's minimum fidelity, so the protocol derives them once
//! per minimum fidelity and hands a copy out with each pair.
//!
//! The schedule is the paper's (§5): "a weighted round-robin scheme where
//! the number of pairs generated for a particular VC is proportional to
//! its LPR and inversely proportional to the average time per pair", i.e.
//! each circuit receives a share of the *link's time* proportional to its
//! weight. It is a virtual-time fair schedule: each request accrues the
//! generation time it consumes, and the next slot goes to the request
//! with the smallest `time_used / weight`. This yields all three
//! properties the paper lists: equal time shares regardless of fidelity,
//! proportional distribution of excess capacity, and proportional
//! division under over-subscription.

use crate::service::{EntanglementId, LinkLabel, LinkPair, LinkRequest, RejectReason};
use qn_hardware::heralding::LinkPhysics;
use qn_quantum::bell::BellState;
use qn_quantum::pairstate::{PairState, StateRep};
use qn_sim::{Geometric, NodeId, SimDuration};
use std::collections::BTreeMap;

/// What the runtime should generate next on this link.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GenerateSpec {
    /// The label whose turn it is.
    pub label: LinkLabel,
    /// Bright-state parameter to use (from the label's min fidelity).
    pub alpha: f64,
    /// Attempts until a herald at `alpha`: the success probability
    /// per attempt, with its logarithm taken at admission.
    pub attempts: Geometric,
}

/// What admission derives from a minimum fidelity.
#[derive(Clone, Debug)]
struct Admission {
    /// The minimum fidelity's bits: the key.
    min_fidelity: u64,
    alpha: f64,
    goodness: f64,
    /// The heralded states at `alpha`: `[Ψ⁺, Ψ⁻]`.
    heralded: [PairState; 2],
    attempts: Geometric,
}

/// An active request: its admission and its place in the time-share
/// schedule.
#[derive(Clone, Debug)]
struct Request {
    /// Index into the link's `admissions`.
    admission: usize,
    weight: f64,
    /// Total generation time charged, seconds.
    time_used: f64,
}

impl Request {
    /// The schedule's virtual clock: time used per unit weight.
    fn norm(&self) -> f64 {
        self.time_used / self.weight
    }
}

/// A scheduling weight must be a positive finite number.
fn valid_weight(weight: f64) -> bool {
    weight.is_finite() && weight > 0.0
}

/// The per-link protocol instance.
pub struct LinkProtocol {
    nodes: (NodeId, NodeId),
    physics: LinkPhysics,
    rep: StateRep,
    /// The active requests, in label order (the schedule's tie-break).
    requests: BTreeMap<LinkLabel, Request>,
    /// Every admission derived so far, one per minimum fidelity, kept
    /// for the life of the link: its requests come from a handful of
    /// circuit plans, so the set stays small.
    admissions: Vec<Admission>,
    next_seq: u64,
}

impl LinkProtocol {
    /// Create the protocol for a link between `nodes` with the given
    /// physics, handing out heralded states in representation `rep`.
    pub fn new(nodes: (NodeId, NodeId), physics: LinkPhysics, rep: StateRep) -> Self {
        LinkProtocol {
            nodes,
            physics,
            rep,
            requests: BTreeMap::new(),
            admissions: Vec::new(),
            next_seq: 0,
        }
    }

    /// The link physics (for cutoff/rate computation by callers).
    pub fn physics(&self) -> &LinkPhysics {
        &self.physics
    }

    /// Submit a request for a stream of pairs until [`LinkProtocol::stop`].
    /// Admission control rejects duplicate labels, invalid weights and
    /// unattainable fidelities (QoS property iv). The first admission at
    /// a minimum fidelity derives its α, goodness, heralded states and
    /// success probability; later ones at the same fidelity reuse them.
    ///
    /// A new request starts at the incumbents' minimum `time_used /
    /// weight`, so it cannot starve them by replaying history it was not
    /// part of. Admission does not depend on the hop's health: a request
    /// submitted while the hop is down is held until it comes back, as
    /// the network layer submits its per-circuit stream once and has no
    /// retry path for a refusal.
    pub fn submit(&mut self, req: LinkRequest) -> Result<(), RejectReason> {
        if self.requests.contains_key(&req.label) {
            return Err(RejectReason::DuplicateLabel);
        }
        if !valid_weight(req.weight) {
            return Err(RejectReason::InvalidWeight);
        }
        let key = req.min_fidelity.to_bits();
        let admission = match self.admissions.iter().position(|a| a.min_fidelity == key) {
            Some(i) => i,
            None => {
                let alpha = self
                    .physics
                    .alpha_for_fidelity(req.min_fidelity)
                    .ok_or(RejectReason::FidelityUnattainable)?;
                let heralded = [BellState::PSI_PLUS, BellState::PSI_MINUS]
                    .map(|announced| self.physics.heralded_pair(alpha, announced, self.rep));
                self.admissions.push(Admission {
                    min_fidelity: key,
                    alpha,
                    goodness: self.physics.fidelity(alpha),
                    heralded,
                    attempts: Geometric::new(self.physics.success_prob(alpha)),
                });
                self.admissions.len() - 1
            }
        };
        let base = self
            .requests
            .values()
            .map(Request::norm)
            .fold(f64::INFINITY, f64::min);
        let time_used = if base.is_finite() {
            base * req.weight
        } else {
            0.0
        };
        self.requests.insert(
            req.label,
            Request {
                admission,
                weight: req.weight,
                time_used,
            },
        );
        Ok(())
    }

    /// Stop a request (COMPLETE from the network layer). The runtime
    /// drops a generation in flight for it; with the request gone there
    /// is nothing left to charge its elapsed time to.
    pub fn stop(&mut self, label: LinkLabel) -> bool {
        self.requests.remove(&label).is_some()
    }

    /// Update a request's scheduling weight (EER renegotiation). The
    /// request keeps its `time_used / weight`, so the new share takes
    /// effect going forward without a burst of catch-up slots. An
    /// invalid weight is ignored.
    pub fn set_weight(&mut self, label: LinkLabel, weight: f64) {
        if !valid_weight(weight) {
            return;
        }
        if let Some(r) = self.requests.get_mut(&label) {
            let norm = r.norm();
            r.weight = weight;
            r.time_used = norm * weight;
        }
    }

    /// Whether a request with this label is active.
    pub fn has_request(&self, label: LinkLabel) -> bool {
        self.requests.contains_key(&label)
    }

    /// Number of active requests.
    pub fn active_requests(&self) -> usize {
        self.requests.len()
    }

    /// What to generate next: the active request with the smallest
    /// `time_used / weight`, ties to the lowest label. Idempotent; returns
    /// the same answer until the schedule changes. `None` when no request
    /// is active.
    pub fn next_action(&self) -> Option<GenerateSpec> {
        let (label, request) = self.requests.iter().min_by(|(la, a), (lb, b)| {
            a.norm()
                .partial_cmp(&b.norm())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| la.cmp(lb))
        })?;
        let admission = &self.admissions[request.admission];
        Some(GenerateSpec {
            label: *label,
            alpha: admission.alpha,
            attempts: admission.attempts,
        })
    }

    /// The physical process for `label` heralded success after
    /// `attempts` attempts taking `elapsed`, announcing `announced` (Ψ⁺
    /// or Ψ⁻). Charges `elapsed` to the label and returns the delivered
    /// pair and its heralded state ([`LinkPhysics::heralded_pair`] at the
    /// request's α). The request keeps its turn in the schedule until it
    /// is stopped.
    pub fn on_generation_complete(
        &mut self,
        label: LinkLabel,
        announced: BellState,
        attempts: u64,
        elapsed: SimDuration,
    ) -> (LinkPair, PairState) {
        assert!(announced.x, "single-click heralds Ψ± states");
        let request = self
            .requests
            .get_mut(&label)
            .expect("a completion for an active request");
        request.time_used += elapsed.as_secs_f64();
        let state = &self.admissions[request.admission];
        let pair = LinkPair {
            id: EntanglementId {
                node_a: self.nodes.0,
                node_b: self.nodes.1,
                seq: self.next_seq,
            },
            label,
            announced,
            alpha: state.alpha,
            goodness: state.goodness,
            attempts,
        };
        let heralded = state.heralded[usize::from(announced.z)].clone();
        self.next_seq += 1;
        (pair, heralded)
    }

    /// The physical process for `label` was interrupted (the hop went
    /// down) after consuming `elapsed` of link time. The elapsed time is
    /// still charged to the label to keep time-sharing fair; a stopped
    /// label has nothing to charge.
    pub fn on_generation_aborted(&mut self, label: LinkLabel, elapsed: SimDuration) {
        if let Some(r) = self.requests.get_mut(&label) {
            r.time_used += elapsed.as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_hardware::params::{FibreParams, HardwareParams};

    fn proto() -> LinkProtocol {
        LinkProtocol::new(
            (NodeId(0), NodeId(1)),
            LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m()),
            StateRep::Bell,
        )
    }

    fn req(label: u32, fid: f64, weight: f64) -> LinkRequest {
        LinkRequest {
            label: LinkLabel(label),
            min_fidelity: fid,
            weight,
        }
    }

    fn dur_ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    /// A link with one F ≥ 0.9 request per `(label, weight)`.
    fn proto_with(requests: &[(u32, f64)]) -> LinkProtocol {
        let mut p = proto();
        for &(label, weight) in requests {
            p.submit(req(label, 0.9, weight)).unwrap();
        }
        p
    }

    /// Generate the next pair, taking `elapsed`; returns its label.
    fn drive(p: &mut LinkProtocol, elapsed: SimDuration) -> LinkLabel {
        let spec = p.next_action().expect("an active request");
        p.on_generation_complete(spec.label, BellState::PSI_PLUS, 1, elapsed);
        spec.label
    }

    fn time_used(p: &LinkProtocol, label: u32) -> f64 {
        p.requests[&LinkLabel(label)].time_used
    }

    #[test]
    fn submit_then_generate_then_deliver() {
        let mut p = proto();
        assert_eq!(p.submit(req(1, 0.95, 1.0)), Ok(()));
        let spec = p.next_action().expect("work available");
        assert_eq!(spec.label, LinkLabel(1));
        assert!(spec.alpha > 0.0 && spec.alpha < 0.5);
        let (pair, _) = p.on_generation_complete(spec.label, BellState::PSI_PLUS, 100, dur_ms(1));
        assert_eq!(pair.label, LinkLabel(1));
        assert_eq!(pair.id.seq, 0);
        assert!(pair.goodness >= 0.95);
        // The stream goes on: the second pair is scheduled for the same
        // request, and only a stop ends it.
        let spec = p.next_action().unwrap();
        let (pair2, _) = p.on_generation_complete(spec.label, BellState::PSI_MINUS, 50, dur_ms(1));
        assert_eq!(pair2.id.seq, 1);
        assert_eq!(pair2.label, LinkLabel(1));
        assert_eq!(p.next_action().map(|s| s.label), Some(LinkLabel(1)));
        assert!(p.stop(LinkLabel(1)));
        assert!(p.next_action().is_none());
        assert_eq!(p.active_requests(), 0);
    }

    #[test]
    fn continuous_request_never_completes_by_itself() {
        let mut p = proto();
        p.submit(req(1, 0.9, 1.0)).unwrap();
        for i in 0..20 {
            let spec = p.next_action().unwrap();
            assert_eq!(spec.label, LinkLabel(1), "the one request always wins");
            let (pair, _) =
                p.on_generation_complete(spec.label, BellState::PSI_PLUS, 10, dur_ms(1));
            assert_eq!(pair.id.seq, i);
            assert!(p.has_request(LinkLabel(1)), "the stream outlives pair {i}");
        }
        assert_eq!(p.active_requests(), 1);
        assert!(p.stop(LinkLabel(1)));
        assert!(p.next_action().is_none());
    }

    #[test]
    fn unattainable_fidelity_rejected() {
        let mut p = proto();
        assert_eq!(
            p.submit(req(1, 0.9999, 1.0)),
            Err(RejectReason::FidelityUnattainable)
        );
        assert!(p.next_action().is_none());
    }

    #[test]
    fn non_finite_fidelity_rejected() {
        let mut p = proto();
        for (label, fid) in [(1, f64::NAN), (2, f64::INFINITY), (3, f64::NEG_INFINITY)] {
            assert_eq!(
                p.submit(req(label, fid, 1.0)),
                Err(RejectReason::FidelityUnattainable),
                "F >= {fid}"
            );
            assert!(!p.has_request(LinkLabel(label)));
        }
        assert!(p.next_action().is_none());
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut p = proto();
        p.submit(req(1, 0.9, 1.0)).unwrap();
        assert_eq!(
            p.submit(req(1, 0.8, 1.0)),
            Err(RejectReason::DuplicateLabel)
        );
    }

    #[test]
    fn invalid_weight_rejected() {
        let mut p = proto();
        assert_eq!(p.submit(req(1, 0.9, 0.0)), Err(RejectReason::InvalidWeight));
        assert_eq!(
            p.submit(req(2, 0.9, f64::NAN)),
            Err(RejectReason::InvalidWeight)
        );
    }

    #[test]
    fn lower_fidelity_gets_higher_alpha() {
        let mut p = proto();
        p.submit(req(1, 0.95, 1.0)).unwrap();
        p.submit(req(2, 0.80, 1.0)).unwrap();
        // Drive the schedule; collect alphas per label.
        let mut alpha = [0.0f64; 3];
        for _ in 0..4 {
            let spec = p.next_action().unwrap();
            alpha[spec.label.0 as usize] = spec.alpha;
            p.on_generation_complete(spec.label, BellState::PSI_PLUS, 1, dur_ms(1));
        }
        assert!(
            alpha[2] > alpha[1],
            "F=0.8 must use larger alpha than F=0.95 ({} vs {})",
            alpha[2],
            alpha[1]
        );
    }

    #[test]
    fn equal_time_share_regardless_of_fidelity() {
        // Paper §5: "circuits get an equal share of the link's time
        // regardless of fidelity". The F=0.8 label produces pairs faster;
        // after many slots both labels' charged time must be close.
        let mut p = proto();
        p.submit(req(1, 0.95, 1.0)).unwrap();
        p.submit(req(2, 0.80, 1.0)).unwrap();
        let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
        let mut produced = [0u32; 3];
        for _ in 0..600 {
            let spec = p.next_action().unwrap();
            let time = physics.expected_pair_time(spec.alpha);
            p.on_generation_complete(spec.label, BellState::PSI_PLUS, 1, time);
            produced[spec.label.0 as usize] += 1;
        }
        assert!(
            produced[2] > produced[1] * 2,
            "low-fidelity circuit must produce more pairs: {produced:?}"
        );
    }

    #[test]
    fn abort_charges_time() {
        let mut p = proto_with(&[(1, 1.0), (2, 1.0)]);
        let spec = p.next_action().unwrap();
        assert_eq!(spec.label, LinkLabel(1));
        p.on_generation_aborted(spec.label, dur_ms(50));
        // Label 2 now has less charged time and must go next.
        assert_eq!(p.next_action().unwrap().label, LinkLabel(2));
    }

    #[test]
    fn equal_weights_share_time_equally() {
        let mut p = proto_with(&[(1, 1.0), (2, 1.0)]);
        // Label 1's pairs take 3x longer: it should get ~1/3 the slots of
        // label 2 over the same horizon, equalising time.
        let mut slots = [0u32; 3];
        for _ in 0..400 {
            let l = p.next_action().unwrap().label;
            slots[l.0 as usize] += 1;
            let elapsed = dur_ms(if l == LinkLabel(1) { 30 } else { 10 });
            p.on_generation_complete(l, BellState::PSI_PLUS, 1, elapsed);
        }
        let (t1, t2) = (time_used(&p, 1), time_used(&p, 2));
        assert!(
            (t1 - t2).abs() / t1.max(t2) < 0.05,
            "time shares must equalise: {t1} vs {t2}"
        );
        assert!(slots[2] > 2 * slots[1], "faster label gets more slots");
    }

    #[test]
    fn weights_divide_time_proportionally() {
        let mut p = proto_with(&[(1, 2.0), (2, 1.0)]);
        for _ in 0..300 {
            drive(&mut p, dur_ms(10));
        }
        let (t1, t2) = (time_used(&p, 1), time_used(&p, 2));
        assert!(
            (t1 / t2 - 2.0).abs() < 0.1,
            "2:1 weights must give 2:1 time: {t1} vs {t2}"
        );
    }

    #[test]
    fn late_joiner_does_not_get_catch_up_burst() {
        let mut p = proto_with(&[(1, 1.0)]);
        for _ in 0..100 {
            drive(&mut p, dur_ms(10));
        }
        p.submit(req(2, 0.9, 1.0)).unwrap();
        // After joining, slots should alternate rather than label 2
        // monopolising to replay a second of history.
        let mut consecutive_l2 = 0;
        let mut max_consecutive = 0;
        for _ in 0..50 {
            if drive(&mut p, dur_ms(10)) == LinkLabel(2) {
                consecutive_l2 += 1;
                max_consecutive = max_consecutive.max(consecutive_l2);
            } else {
                consecutive_l2 = 0;
            }
        }
        assert!(
            max_consecutive <= 2,
            "late joiner burst of {max_consecutive}"
        );
    }

    #[test]
    fn weight_update_changes_share_going_forward() {
        let mut p = proto_with(&[(1, 1.0), (2, 1.0)]);
        for _ in 0..100 {
            drive(&mut p, dur_ms(10));
        }
        p.set_weight(LinkLabel(1), 3.0);
        // `set_weight` rescales `time_used` to keep the normalised position;
        // measure the share gained from this point onward.
        let before = time_used(&p, 1);
        for _ in 0..400 {
            drive(&mut p, dur_ms(10));
        }
        let gained1 = time_used(&p, 1) - before;
        let total: f64 = 400.0 * 0.01;
        assert!(
            (gained1 / total - 0.75).abs() < 0.05,
            "label 1 should take ~3/4 of new time, took {}",
            gained1 / total
        );
    }

    #[test]
    fn deterministic_tie_break() {
        let p = proto_with(&[(2, 1.0), (1, 1.0)]);
        assert_eq!(
            p.next_action().map(|s| s.label),
            Some(LinkLabel(1)),
            "lowest label wins ties"
        );
    }
}
