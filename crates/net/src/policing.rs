//! Policing and shaping at the head-end (paper §3.4 QoS task iii and
//! §4.1 "Policing and shaping").
//!
//! The routing protocol allocates the circuit a maximum end-to-end rate
//! (EER); the head-end compares each request's minimum EER against the
//! remaining bandwidth and **rejects** what can never fit, **shapes**
//! (delays) what can fit later, and admits the rest.
//!
//! The module also implements the LPR scaling rule of §4.1 "Continuous
//! link generation": the circuit requests its maximum LPR unless *only*
//! rate-based requests are active, in which case it requests the fraction
//! of the LPR matching the fraction of the EER those requests need.

use crate::ids::RequestId;
use crate::request::UserRequest;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Outcome of admission control for one request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmitDecision {
    /// Enough bandwidth now.
    Accept,
    /// Feasible but not now: delay until bandwidth frees (shaping).
    Shape,
    /// Exceeds the circuit's allocation outright (policing).
    Reject(&'static str),
}

#[derive(Clone, Copy, Debug)]
struct Admitted {
    eer: f64,
    rate_based: bool,
}

/// Head-end bandwidth bookkeeping for one circuit.
#[derive(Debug)]
pub struct Policer {
    max_eer: f64,
    active: BTreeMap<RequestId, Admitted>,
    shaped: VecDeque<UserRequest>,
}

impl Policer {
    /// A policer for a circuit with the given max EER allocation.
    pub fn new(max_eer: f64) -> Self {
        Policer {
            max_eer,
            active: BTreeMap::new(),
            shaped: VecDeque::new(),
        }
    }

    /// Bandwidth not yet claimed by admitted requests.
    pub fn available(&self) -> f64 {
        (self.max_eer - self.total_eer()).max(0.0)
    }

    /// Sum of admitted minimum EERs.
    pub fn total_eer(&self) -> f64 {
        self.active.values().map(|a| a.eer).sum()
    }

    /// Decide admission for a request (does not mutate state).
    pub fn decide(&self, req: &UserRequest) -> AdmitDecision {
        let eer = req.demand.min_eer();
        if eer > self.max_eer {
            AdmitDecision::Reject("minimum EER exceeds the circuit allocation")
        } else if eer > self.available() + 1e-12 {
            AdmitDecision::Shape
        } else {
            AdmitDecision::Accept
        }
    }

    /// Record an admitted request.
    pub fn admit(&mut self, req: &UserRequest) {
        self.active.insert(
            req.id,
            Admitted {
                eer: req.demand.min_eer(),
                rate_based: req.is_rate_based(),
            },
        );
    }

    /// Queue a shaped request for later admission.
    pub fn shape(&mut self, req: UserRequest) {
        self.shaped.push_back(req);
    }

    /// Release a completed/cancelled request's bandwidth.
    pub fn release(&mut self, id: RequestId) {
        self.active.remove(&id);
    }

    /// Drain shaped requests that now fit, in arrival order. Stops at the
    /// first request that still does not fit (FIFO shaping — no
    /// reordering starvation).
    pub fn admissible_shaped(&mut self) -> Vec<UserRequest> {
        let mut out = Vec::new();
        while let Some(front) = self.shaped.front() {
            if front.demand.min_eer() <= self.available() + 1e-12 {
                let req = self.shaped.pop_front().unwrap();
                self.admit(&req);
                out.push(req);
            } else {
                break;
            }
        }
        out
    }

    /// The `rate` field for FORWARD/COMPLETE messages: the total EER the
    /// active requests need. Encoding per DESIGN.md: when any non-rate
    /// request is active the circuit wants its full LPR, signalled as
    /// `max_eer`.
    pub fn advertised_rate(&self) -> f64 {
        if self.active.is_empty() {
            return 0.0;
        }
        if self.active.values().all(|a| a.rate_based) {
            self.total_eer().min(self.max_eer)
        } else {
            self.max_eer
        }
    }

    /// Number of active (admitted) requests.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }
}

/// The link-layer scheduling weight for a circuit given its advertised
/// rate: full max-LPR normally, scaled down proportionally when only
/// rate-based requests are active (`rate < max_eer`).
pub fn link_weight(max_lpr: f64, max_eer: f64, advertised_rate: f64) -> f64 {
    if max_eer <= 0.0 {
        return max_lpr.max(1e-9);
    }
    let fraction = (advertised_rate / max_eer).clamp(0.0, 1.0);
    (max_lpr * fraction).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Address;
    use crate::request::{Demand, RequestType};
    use qn_sim::{NodeId, SimDuration};

    fn req(id: u64, demand: Demand) -> UserRequest {
        UserRequest {
            id: RequestId(id),
            head: Address {
                node: NodeId(0),
                identifier: 0,
            },
            tail: Address {
                node: NodeId(3),
                identifier: 0,
            },
            min_fidelity: 0.8,
            demand,
            request_type: RequestType::Keep,
            final_state: None,
        }
    }

    fn rate(id: u64, r: f64) -> UserRequest {
        req(id, Demand::Rate { pairs_per_sec: r })
    }

    #[test]
    fn accept_within_bandwidth() {
        let p = Policer::new(10.0);
        assert_eq!(p.decide(&rate(1, 4.0)), AdmitDecision::Accept);
    }

    #[test]
    fn reject_over_allocation() {
        let p = Policer::new(10.0);
        assert!(matches!(p.decide(&rate(1, 11.0)), AdmitDecision::Reject(_)));
    }

    #[test]
    fn shape_when_bandwidth_busy() {
        let mut p = Policer::new(10.0);
        p.admit(&rate(1, 8.0));
        assert_eq!(p.decide(&rate(2, 4.0)), AdmitDecision::Shape);
        assert_eq!(p.decide(&rate(3, 2.0)), AdmitDecision::Accept);
    }

    #[test]
    fn release_unshapes_fifo() {
        let mut p = Policer::new(10.0);
        p.admit(&rate(1, 8.0));
        p.shape(rate(2, 6.0));
        p.shape(rate(3, 1.0));
        // Request 3 would fit, but FIFO shaping holds it behind request 2.
        assert!(p.admissible_shaped().is_empty());
        p.release(RequestId(1));
        let drained = p.admissible_shaped();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].id, RequestId(2));
        assert_eq!(drained[1].id, RequestId(3));
        assert!((p.total_eer() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_eer_requests_always_accepted() {
        let mut p = Policer::new(5.0);
        // No-deadline requests have min EER 0 — the Fig 8 configuration
        // where all requests are admitted.
        for i in 0..20 {
            let r = req(
                i,
                Demand::Pairs {
                    n: 100,
                    deadline: None,
                },
            );
            assert_eq!(p.decide(&r), AdmitDecision::Accept);
            p.admit(&r);
        }
        assert_eq!(p.active_len(), 20);
    }

    #[test]
    fn advertised_rate_full_when_non_rate_requests_active() {
        let mut p = Policer::new(10.0);
        p.admit(&rate(1, 2.0));
        assert!((p.advertised_rate() - 2.0).abs() < 1e-12);
        p.admit(&req(
            2,
            Demand::Pairs {
                n: 5,
                deadline: None,
            },
        ));
        assert!((p.advertised_rate() - 10.0).abs() < 1e-12);
        p.release(RequestId(2));
        assert!((p.advertised_rate() - 2.0).abs() < 1e-12);
        p.release(RequestId(1));
        assert_eq!(p.advertised_rate(), 0.0);
    }

    #[test]
    fn link_weight_scales_with_rate_fraction() {
        assert!((link_weight(50.0, 10.0, 10.0) - 50.0).abs() < 1e-12);
        assert!((link_weight(50.0, 10.0, 5.0) - 25.0).abs() < 1e-12);
        assert!(link_weight(50.0, 10.0, 0.0) > 0.0, "never zero weight");
    }

    #[test]
    fn deadline_requests_use_n_over_t() {
        let p = Policer::new(10.0);
        let r = req(
            1,
            Demand::Pairs {
                n: 100,
                deadline: Some(SimDuration::from_secs(5)),
            },
        );
        // 100/5 = 20 > 10: reject.
        assert!(matches!(p.decide(&r), AdmitDecision::Reject(_)));
    }
}
