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
//! pair store. The runtime asks [`LinkProtocol::next_action`] what to
//! generate, runs the physical process (sampling the geometric attempt
//! count), and feeds back [`LinkProtocol::on_generation_complete`] /
//! [`LinkProtocol::on_generation_aborted`]. This keeps every scheduling
//! rule unit-testable without a simulator. Admission fixes a request's
//! α, and with it the two states a herald can announce and the
//! per-attempt success probability; all are pure functions of the link
//! and the request's minimum fidelity, so the protocol derives them once
//! per minimum fidelity and hands a copy out with each pair.

use crate::scheduler::TimeShareScheduler;
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

/// The per-link protocol instance.
pub struct LinkProtocol {
    nodes: (NodeId, NodeId),
    physics: LinkPhysics,
    rep: StateRep,
    scheduler: TimeShareScheduler,
    /// Each active request's index into `admissions`.
    requests: BTreeMap<LinkLabel, usize>,
    /// Every admission derived so far, one per minimum fidelity, kept
    /// for the life of the link: its requests come from a handful of
    /// circuit plans, so the set stays small.
    admissions: Vec<Admission>,
    next_seq: u64,
    /// Label currently being generated for (at most one; a link runs one
    /// midpoint interference process at a time).
    in_flight: Option<LinkLabel>,
    /// Generation paused (component fault: the physical link is down).
    /// Active requests stay queued, and new ones are admitted and held.
    paused: bool,
}

impl LinkProtocol {
    /// Create the protocol for a link between `nodes` with the given
    /// physics, handing out heralded states in representation `rep`.
    pub fn new(nodes: (NodeId, NodeId), physics: LinkPhysics, rep: StateRep) -> Self {
        LinkProtocol {
            nodes,
            physics,
            rep,
            scheduler: TimeShareScheduler::new(),
            requests: BTreeMap::new(),
            admissions: Vec::new(),
            next_seq: 0,
            in_flight: None,
            paused: false,
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
    /// A request submitted while the link is paused (physical outage) is
    /// admitted and held, exactly like requests admitted before the
    /// pause: generation starts when the link resumes. Rejecting it
    /// instead would silently kill the hop for the rest of the circuit's
    /// life — the network layer submits its per-circuit stream once and
    /// has no retry path for a verdict the wire may deliver or drop.
    pub fn submit(&mut self, req: LinkRequest) -> Result<(), RejectReason> {
        if self.requests.contains_key(&req.label) {
            return Err(RejectReason::DuplicateLabel);
        }
        if !(req.weight.is_finite() && req.weight > 0.0) {
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
        self.requests.insert(req.label, admission);
        self.scheduler.add(req.label, req.weight);
        Ok(())
    }

    /// Stop a request (COMPLETE from the network layer). Any in-flight
    /// generation for it is abandoned: the runtime cancels the pending
    /// completion event and frees its qubits. The label has left the
    /// scheduler, whose charges ignore unknown labels, so there is no
    /// elapsed time to report through
    /// [`LinkProtocol::on_generation_aborted`].
    pub fn stop(&mut self, label: LinkLabel) -> bool {
        let existed = self.requests.remove(&label).is_some();
        self.scheduler.remove(label);
        if self.in_flight == Some(label) {
            self.in_flight = None;
        }
        existed
    }

    /// Update a request's scheduling weight (EER renegotiation).
    pub fn set_weight(&mut self, label: LinkLabel, weight: f64) {
        if weight.is_finite() && weight > 0.0 {
            self.scheduler.set_weight(label, weight);
        }
    }

    /// Pause generation (the physical link went down). Queued requests
    /// stay admitted and resume their fair share on [`LinkProtocol::resume`];
    /// the runtime must abort any in-flight generation separately via
    /// [`LinkProtocol::on_generation_aborted`].
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Resume generation after a pause (the link came back up).
    pub fn resume(&mut self) {
        self.paused = false;
    }

    /// Whether a request with this label is active.
    pub fn has_request(&self, label: LinkLabel) -> bool {
        self.requests.contains_key(&label)
    }

    /// Number of active requests.
    pub fn active_requests(&self) -> usize {
        self.requests.len()
    }

    /// What to generate next, if anything. Idempotent; returns the same
    /// answer until the schedule state changes. `None` while a generation
    /// is in flight or no requests are active.
    pub fn next_action(&self) -> Option<GenerateSpec> {
        if self.paused || self.in_flight.is_some() {
            return None;
        }
        let label = self.scheduler.next()?;
        let admission = &self.admissions[*self.requests.get(&label)?];
        Some(GenerateSpec {
            label,
            alpha: admission.alpha,
            attempts: admission.attempts,
        })
    }

    /// The runtime accepted the [`GenerateSpec`] and started the physical
    /// process.
    pub fn on_generation_started(&mut self, label: LinkLabel) {
        debug_assert!(self.in_flight.is_none(), "one generation at a time");
        debug_assert!(self.requests.contains_key(&label));
        self.in_flight = Some(label);
    }

    /// Whether a generation is currently in flight.
    pub fn generating(&self) -> Option<LinkLabel> {
        self.in_flight
    }

    /// The physical process heralded success after `attempts` attempts
    /// taking `elapsed`, announcing `announced` (Ψ⁺ or Ψ⁻). Returns the
    /// delivered pair and its heralded state
    /// ([`LinkPhysics::heralded_pair`] at the request's α). The request
    /// keeps its turn in the schedule until it is stopped.
    pub fn on_generation_complete(
        &mut self,
        announced: BellState,
        attempts: u64,
        elapsed: SimDuration,
    ) -> (LinkPair, PairState) {
        assert!(announced.x, "single-click heralds Ψ± states");
        let label = self
            .in_flight
            .take()
            .expect("completion without in-flight generation");
        self.scheduler.charge(label, elapsed);
        let index = self.requests[&label];
        let state = &self.admissions[index];
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

    /// The physical process was interrupted (request stopped, qubits
    /// unavailable) after consuming `elapsed` of link time. The elapsed
    /// time is still charged to the label to keep time-sharing fair.
    pub fn on_generation_aborted(&mut self, label: LinkLabel, elapsed: SimDuration) {
        if self.in_flight == Some(label) {
            self.in_flight = None;
        }
        self.scheduler.charge(label, elapsed);
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

    #[test]
    fn submit_then_generate_then_deliver() {
        let mut p = proto();
        assert_eq!(p.submit(req(1, 0.95, 1.0)), Ok(()));
        let spec = p.next_action().expect("work available");
        assert_eq!(spec.label, LinkLabel(1));
        assert!(spec.alpha > 0.0 && spec.alpha < 0.5);
        p.on_generation_started(spec.label);
        assert!(p.next_action().is_none(), "no concurrent generations");
        let (pair, _) =
            p.on_generation_complete(BellState::PSI_PLUS, 100, SimDuration::from_millis(1));
        assert_eq!(pair.label, LinkLabel(1));
        assert_eq!(pair.id.seq, 0);
        assert!(pair.goodness >= 0.95);
        // The stream goes on: the second pair is scheduled for the same
        // request, and only a stop ends it.
        let spec = p.next_action().unwrap();
        p.on_generation_started(spec.label);
        let (pair2, _) =
            p.on_generation_complete(BellState::PSI_MINUS, 50, SimDuration::from_millis(1));
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
            p.on_generation_started(spec.label);
            let (pair, _) =
                p.on_generation_complete(BellState::PSI_PLUS, 10, SimDuration::from_millis(1));
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
        // Drive the scheduler; collect alphas per label.
        let mut alpha = [0.0f64; 3];
        for _ in 0..4 {
            let spec = p.next_action().unwrap();
            alpha[spec.label.0 as usize] = spec.alpha;
            p.on_generation_started(spec.label);
            p.on_generation_complete(BellState::PSI_PLUS, 1, SimDuration::from_millis(1));
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
            p.on_generation_started(spec.label);
            let time = physics.expected_pair_time(spec.alpha);
            p.on_generation_complete(BellState::PSI_PLUS, 1, time);
            produced[spec.label.0 as usize] += 1;
        }
        assert!(
            produced[2] > produced[1] * 2,
            "low-fidelity circuit must produce more pairs: {produced:?}"
        );
    }

    #[test]
    fn stop_mid_flight_clears_in_flight() {
        let mut p = proto();
        p.submit(req(1, 0.9, 1.0)).unwrap();
        let spec = p.next_action().unwrap();
        p.on_generation_started(spec.label);
        assert_eq!(p.generating(), Some(LinkLabel(1)));
        assert!(p.stop(LinkLabel(1)));
        assert_eq!(p.generating(), None);
        assert!(p.next_action().is_none());
    }

    #[test]
    fn pause_halts_generation_and_queues_admission() {
        let mut p = proto();
        p.submit(req(1, 0.9, 1.0)).unwrap();
        p.pause();
        assert!(p.next_action().is_none(), "no work while paused");
        // A request submitted during the outage is admitted and held —
        // losing it would leave the hop permanently idle, since the
        // network layer submits its per-circuit stream exactly once.
        assert_eq!(
            p.submit(req(2, 0.9, 1.0)),
            Ok(()),
            "admission during a pause"
        );
        assert!(p.has_request(LinkLabel(1)) && p.has_request(LinkLabel(2)));
        assert_eq!(p.active_requests(), 2);
        assert!(p.next_action().is_none(), "still no work while paused");
        // Resuming restores both requests' turns.
        p.resume();
        assert_eq!(p.next_action().unwrap().label, LinkLabel(1));
    }

    #[test]
    fn abort_charges_time() {
        let mut p = proto();
        p.submit(req(1, 0.9, 1.0)).unwrap();
        p.submit(req(2, 0.9, 1.0)).unwrap();
        let spec = p.next_action().unwrap();
        assert_eq!(spec.label, LinkLabel(1));
        p.on_generation_started(spec.label);
        p.on_generation_aborted(LinkLabel(1), SimDuration::from_millis(50));
        // Label 2 now has less charged time and must go next.
        assert_eq!(p.next_action().unwrap().label, LinkLabel(2));
    }
}
