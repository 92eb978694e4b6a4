//! Reference model of the link-layer protocol state machine
//! (`qn_link::LinkProtocol`), QNP §3.5 / Dahlberg et al.
//!
//! The model re-implements the protocol's *observable contract* from
//! the documentation, independently and naively: admission control
//! (duplicate labels, invalid weights, unattainable fidelities),
//! weighted time-share scheduling (next slot = smallest
//! `time_used/weight`, ties to the lowest label, a new request starting
//! at the incumbents' minimum, a reweight keeping its position),
//! link-wide strictly-increasing sequence numbers, and requests that
//! stream pairs until stopped. Unlike the plain property tests this
//! predicts the *exact* schedule, not just invariants — the model is
//! strictly stronger, and it is the one exact check of the schedule's
//! rules. Whether a generation is in flight is the runtime's to track,
//! not the protocol's, so the model has no such state.
//!
//! [`LinkFault`] lets meta-tests inject protocol bugs at the system
//! adapter boundary and assert the harness catches them with a minimal
//! shrunk operation sequence (the PR's acceptance demonstration).

use crate::ModelSpec;
use proptest::prelude::*;
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_link::{LinkLabel, LinkProtocol, LinkRequest, RejectReason};
use qn_quantum::bell::BellState;
use qn_quantum::pairstate::StateRep;
use qn_sim::{NodeId, SimDuration};
use std::collections::BTreeMap;

/// One operation of the link service interface.
#[derive(Clone, Debug, PartialEq)]
pub enum LinkOp {
    /// Submit a request for a stream of pairs. `weight_tenths` of 0
    /// exercises the invalid-weight rejection.
    Submit {
        label: u8,
        fidelity_pct: u8,
        weight_tenths: u8,
    },
    /// Stop (COMPLETE) a request.
    Stop { label: u8 },
    /// Renegotiate a request's scheduling weight.
    SetWeight { label: u8, weight_tenths: u8 },
    /// Ask for the next action; if any, complete its generation after
    /// `elapsed_us` of link time.
    Drive { elapsed_us: u16 },
    /// Ask for the next action; if any, abort its generation after
    /// `elapsed_us` of link time.
    Abort { elapsed_us: u16 },
}

/// A protocol bug injected at the system adapter, for harness
/// meta-tests. `None` is the faithful adapter used by the real tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkFault {
    /// Faithful adapter.
    None,
    /// `stop` is acknowledged but never reaches the protocol — the
    /// stopped request keeps generating.
    SwallowStop,
    /// Aborted generations are not charged, starving siblings of their
    /// fair share.
    SkipAbortCharge,
}

/// The system under test: the real [`LinkProtocol`] behind a (possibly
/// faulty) adapter.
pub struct LinkSystem {
    proto: LinkProtocol,
    fault: LinkFault,
}

impl LinkSystem {
    fn stop(&mut self, label: LinkLabel) -> bool {
        match self.fault {
            // The buggy adapter claims success without acting.
            LinkFault::SwallowStop => self.proto.has_request(label),
            _ => self.proto.stop(label),
        }
    }

    fn abort(&mut self, label: LinkLabel, elapsed: SimDuration) {
        let elapsed = match self.fault {
            LinkFault::SkipAbortCharge => SimDuration::ZERO,
            _ => elapsed,
        };
        self.proto.on_generation_aborted(label, elapsed);
    }
}

#[derive(Clone, Debug)]
struct ModelRequest {
    alpha: f64,
    goodness: f64,
    weight: f64,
    /// Seconds of link time charged (the scheduler's virtual clock).
    time_used: f64,
}

/// The reference model: a naive transcription of the documented
/// contract.
pub struct LinkModel {
    physics: LinkPhysics,
    requests: BTreeMap<u32, ModelRequest>,
    next_seq: u64,
}

impl LinkModel {
    /// The label scheduled next: smallest normalised usage, lowest
    /// label on ties.
    fn next_label(&self) -> Option<u32> {
        self.requests
            .iter()
            .min_by(|(la, a), (lb, b)| {
                let na = a.time_used / a.weight;
                let nb = b.time_used / b.weight;
                na.partial_cmp(&nb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| la.cmp(lb))
            })
            .map(|(l, _)| *l)
    }

    /// New entrants start at the incumbents' minimum normalised usage
    /// (the no-starvation rule of the time-share scheduler).
    fn entry_time_used(&self, weight: f64) -> f64 {
        let base = self
            .requests
            .values()
            .map(|r| r.time_used / r.weight)
            .fold(f64::INFINITY, f64::min);
        if base.is_finite() {
            base * weight
        } else {
            0.0
        }
    }
}

/// [`ModelSpec`] for the link protocol. Build with [`LinkSpec::new`]
/// (faithful) or [`LinkSpec::with_fault`] (meta-tests).
pub struct LinkSpec {
    fault: LinkFault,
}

impl LinkSpec {
    pub fn new() -> Self {
        LinkSpec {
            fault: LinkFault::None,
        }
    }

    pub fn with_fault(fault: LinkFault) -> Self {
        LinkSpec { fault }
    }

    fn physics() -> LinkPhysics {
        LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m())
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelSpec for LinkSpec {
    type Op = LinkOp;
    type Model = LinkModel;
    type System = LinkSystem;

    fn new_model(&self) -> LinkModel {
        LinkModel {
            physics: Self::physics(),
            requests: BTreeMap::new(),
            next_seq: 0,
        }
    }

    fn new_system(&self) -> LinkSystem {
        LinkSystem {
            proto: LinkProtocol::new((NodeId(0), NodeId(1)), Self::physics(), StateRep::Bell),
            fault: self.fault,
        }
    }

    fn op_strategy(&self) -> BoxedStrategy<LinkOp> {
        prop_oneof![
            (0u8..5, 70u8..99, 0u8..25).prop_map(|(label, fidelity_pct, weight_tenths)| {
                LinkOp::Submit {
                    label,
                    fidelity_pct,
                    weight_tenths,
                }
            }),
            (0u8..5).prop_map(|label| LinkOp::Stop { label }),
            (0u8..5, 0u8..25).prop_map(|(label, weight_tenths)| LinkOp::SetWeight {
                label,
                weight_tenths,
            }),
            (1u16..2000).prop_map(|elapsed_us| LinkOp::Drive { elapsed_us }),
            (1u16..2000).prop_map(|elapsed_us| LinkOp::Abort { elapsed_us }),
        ]
        .boxed()
    }

    fn apply(
        &self,
        model: &mut LinkModel,
        system: &mut LinkSystem,
        op: &LinkOp,
    ) -> Result<(), String> {
        match *op {
            LinkOp::Submit {
                label,
                fidelity_pct,
                weight_tenths,
            } => {
                let label32 = LinkLabel(u32::from(label));
                let min_fidelity = f64::from(fidelity_pct) / 100.0;
                let weight = f64::from(weight_tenths) / 10.0;
                let got = system
                    .proto
                    .submit(LinkRequest {
                        label: label32,
                        min_fidelity,
                        weight,
                    })
                    .err();
                // The model's independent admission decision.
                let expected: Option<RejectReason> =
                    if model.requests.contains_key(&u32::from(label)) {
                        Some(RejectReason::DuplicateLabel)
                    } else if !(weight.is_finite() && weight > 0.0) {
                        Some(RejectReason::InvalidWeight)
                    } else if model.physics.alpha_for_fidelity(min_fidelity).is_none() {
                        Some(RejectReason::FidelityUnattainable)
                    } else {
                        None
                    };
                if got != expected {
                    return Err(format!(
                        "submit({label}, F>={min_fidelity}, w={weight}): system {got:?}, \
                         model expected {expected:?}"
                    ));
                }
                if expected.is_none() {
                    let alpha = model
                        .physics
                        .alpha_for_fidelity(min_fidelity)
                        .expect("checked attainable");
                    let time_used = model.entry_time_used(weight);
                    model.requests.insert(
                        u32::from(label),
                        ModelRequest {
                            alpha,
                            goodness: model.physics.fidelity(alpha),
                            weight,
                            time_used,
                        },
                    );
                }
                Ok(())
            }
            LinkOp::Stop { label } => {
                let expected = model.requests.remove(&u32::from(label)).is_some();
                let got = system.stop(LinkLabel(u32::from(label)));
                if got != expected {
                    return Err(format!(
                        "stop({label}): system returned {got}, model expected {expected}"
                    ));
                }
                Ok(())
            }
            LinkOp::SetWeight {
                label,
                weight_tenths,
            } => {
                let weight = f64::from(weight_tenths) / 10.0;
                system.proto.set_weight(LinkLabel(u32::from(label)), weight);
                if weight.is_finite() && weight > 0.0 {
                    if let Some(req) = model.requests.get_mut(&u32::from(label)) {
                        // Norm-preserving rescale: the share changes going
                        // forward without a catch-up burst.
                        let norm = req.time_used / req.weight;
                        req.weight = weight;
                        req.time_used = norm * weight;
                    }
                }
                Ok(())
            }
            LinkOp::Drive { elapsed_us } => {
                let expected = model.next_label();
                let got = system.proto.next_action();
                match (expected, got) {
                    (None, None) => Ok(()),
                    (Some(label), Some(spec)) if spec.label == LinkLabel(label) => {
                        let req = model.requests.get_mut(&label).expect("model scheduled it");
                        if (spec.alpha - req.alpha).abs() > 1e-12 {
                            return Err(format!(
                                "drive: alpha for lbl{label}: system {}, model {}",
                                spec.alpha, req.alpha
                            ));
                        }
                        let elapsed = SimDuration::from_micros(u64::from(elapsed_us));
                        let attempts = u64::from(elapsed_us); // passthrough value
                        let (pair, _) = system.proto.on_generation_complete(
                            spec.label,
                            BellState::PSI_PLUS,
                            attempts,
                            elapsed,
                        );
                        // Model-side bookkeeping.
                        let expected_seq = model.next_seq;
                        model.next_seq += 1;
                        req.time_used += elapsed.as_secs_f64();
                        let (expected_alpha, expected_goodness) = (req.alpha, req.goodness);
                        // Compare the delivered pair field by field.
                        if pair.id.seq != expected_seq {
                            return Err(format!(
                                "drive: pair seq {} (model expected {expected_seq})",
                                pair.id.seq
                            ));
                        }
                        if pair.label != LinkLabel(label)
                            || pair.attempts != attempts
                            || (pair.alpha - expected_alpha).abs() > 1e-12
                            || (pair.goodness - expected_goodness).abs() > 1e-12
                        {
                            return Err(format!(
                                "drive: delivered pair {pair:?} disagrees with model \
                                 (lbl{label}, alpha {expected_alpha}, goodness {expected_goodness})"
                            ));
                        }
                        Ok(())
                    }
                    (expected, got) => Err(format!(
                        "drive: next_action {got:?}, model expected label {expected:?}"
                    )),
                }
            }
            LinkOp::Abort { elapsed_us } => {
                let expected = model.next_label();
                let got = system.proto.next_action();
                match (expected, got) {
                    (None, None) => Ok(()),
                    (Some(label), Some(spec)) if spec.label == LinkLabel(label) => {
                        let elapsed = SimDuration::from_micros(u64::from(elapsed_us));
                        system.abort(spec.label, elapsed);
                        let req = model.requests.get_mut(&label).expect("model scheduled it");
                        req.time_used += elapsed.as_secs_f64();
                        Ok(())
                    }
                    (expected, got) => Err(format!(
                        "abort: next_action {got:?}, model expected label {expected:?}"
                    )),
                }
            }
        }
    }

    fn invariants(&self, model: &LinkModel, system: &LinkSystem) -> Result<(), String> {
        if system.proto.active_requests() != model.requests.len() {
            return Err(format!(
                "active_requests: system {} vs model {}",
                system.proto.active_requests(),
                model.requests.len()
            ));
        }
        for label in model.requests.keys() {
            if !system.proto.has_request(LinkLabel(*label)) {
                return Err(format!("system lost request lbl{label}"));
            }
        }
        Ok(())
    }
}
