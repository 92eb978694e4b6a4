//! Link-layer protocol tests: model-based behaviour checking plus
//! shrinkable physics properties, including the heralded state each
//! pair is created with.
//!
//! The `qn_testkit` link model predicts the *exact* admission decision,
//! schedule (which label generates next, under weighted time-sharing)
//! and delivered-pair fields for every operation, and a divergence
//! shrinks to a minimal operation sequence. It is the one exact check
//! of the time-share rules `LinkProtocol` keeps. Whether a generation
//! is in flight, and whether the hop may generate, is the runtime's to
//! track; the `qn_netsim` tests cover that.

use proptest::prelude::*;
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_link::{LinkLabel, LinkProtocol, LinkRequest, RejectReason};
use qn_quantum::bell::BellState;
use qn_quantum::pairstate::StateRep;
use qn_sim::{Geometric, NodeId, SimDuration};
use qn_testkit::dense::same_bits;
use qn_testkit::models::link::LinkSpec;
use qn_testkit::ModelTest;

/// Random submit/stop/reweight/drive/abort sequences: the protocol
/// must match the reference state machine on every observable.
#[test]
fn protocol_matches_reference_model() {
    ModelTest::new("link_protocol_matches_model", LinkSpec::new())
        .cases(160)
        .max_ops(64)
        .run();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Goodness (the link layer's fidelity estimate) always meets the
    /// requested minimum, for any attainable request.
    #[test]
    fn goodness_meets_requested_fidelity(fidelity in 0.7f64..0.96) {
        let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
        let mut p = LinkProtocol::new((NodeId(0), NodeId(1)), physics, StateRep::Bell);
        let admitted = p.submit(LinkRequest {
            label: LinkLabel(0),
            min_fidelity: fidelity,
            weight: 1.0,
        });
        prop_assume!(admitted.is_ok()); // attainable
        let spec = p.next_action().unwrap();
        let (pair, _) = p.on_generation_complete(
            spec.label,
            BellState::PSI_MINUS,
            3,
            SimDuration::from_millis(2),
        );
        prop_assert!(pair.goodness >= fidelity - 1e-9,
            "goodness {} below requested {}", pair.goodness, fidelity);
    }

    /// The schedule never starves anyone: with N equal-weight
    /// continuous requests and equal-cost slots, any window of 2N
    /// consecutive slots serves every label at least once.
    #[test]
    fn equal_weights_never_starve(n in 2usize..5, slots in 10usize..40) {
        let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
        let mut p = LinkProtocol::new((NodeId(0), NodeId(1)), physics, StateRep::Bell);
        for label in 0..n {
            let admitted = p.submit(LinkRequest {
                label: LinkLabel(label as u32),
                min_fidelity: 0.85,
                weight: 1.0,
            });
            prop_assert_eq!(admitted, Ok(()));
        }
        let mut history = Vec::new();
        for _ in 0..slots {
            let spec = p.next_action().unwrap();
            history.push(spec.label);
            p.on_generation_complete(spec.label, BellState::PSI_PLUS, 1, SimDuration::from_millis(1));
        }
        for window in history.windows(2 * n) {
            for label in 0..n {
                prop_assert!(
                    window.contains(&LinkLabel(label as u32)),
                    "label {label} starved in window {window:?}"
                );
            }
        }
    }

    /// Each pair comes with the state the heralding model gives for its
    /// α and announced Bell state, bit for bit, under both
    /// representations, for every pair of the stream until it is
    /// stopped.
    #[test]
    fn pairs_carry_the_heralded_state(
        fidelity in 0.7f64..0.97,
        dm in any::<bool>(),
        minus in proptest::collection::vec(any::<bool>(), 1..5),
    ) {
        let rep = if dm { StateRep::Dm } else { StateRep::Bell };
        let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
        let mut p = LinkProtocol::new((NodeId(0), NodeId(1)), physics.clone(), rep);
        let admitted = p.submit(LinkRequest {
            label: LinkLabel(0),
            min_fidelity: fidelity,
            weight: 1.0,
        });
        prop_assume!(admitted.is_ok()); // attainable
        for &minus in &minus {
            let announced = if minus { BellState::PSI_MINUS } else { BellState::PSI_PLUS };
            let spec = p.next_action().unwrap();
            let (pair, state) =
                p.on_generation_complete(spec.label, announced, 1, SimDuration::from_millis(1));
            let expected = physics.heralded_pair(pair.alpha, announced, rep);
            prop_assert_eq!(state.is_bell(), expected.is_bell());
            prop_assert!(
                same_bits(state.to_density().matrix(), expected.to_density().matrix()),
                "{announced} at alpha {}: {state:?} vs {expected:?}", pair.alpha
            );
        }
        prop_assert_eq!(p.active_requests(), 1);
        prop_assert!(p.stop(LinkLabel(0)));
        prop_assert_eq!(p.active_requests(), 0);
    }

    /// A link that already admitted other fidelities, and this one,
    /// admits `fidelity` exactly as a fresh link does, and both match a
    /// fresh derivation bit for bit: α, the success probability and its
    /// sampler, the goodness and both heralded states. The warmed link
    /// still rejects an unattainable fidelity.
    #[test]
    fn remembered_admissions_match_fresh_ones(
        fidelity in 0.5f64..1.0,
        others in proptest::collection::vec(0.5f64..1.0, 0..4),
        dm in any::<bool>(),
    ) {
        let rep = if dm { StateRep::Dm } else { StateRep::Bell };
        let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
        let request = |label: usize, min_fidelity: f64| LinkRequest {
            label: LinkLabel(label as u32),
            min_fidelity,
            weight: 1.0,
        };
        let mut warm = LinkProtocol::new((NodeId(0), NodeId(1)), physics.clone(), rep);
        for (i, f) in others.iter().chain([&fidelity]).enumerate() {
            let _ = warm.submit(request(i + 1, *f));
        }
        for i in 1..=others.len() + 1 {
            warm.stop(LinkLabel(i as u32));
        }
        let mut fresh = LinkProtocol::new((NodeId(0), NodeId(1)), physics.clone(), rep);
        let admitted = warm.submit(request(0, fidelity));
        prop_assert_eq!(admitted, fresh.submit(request(0, fidelity)));
        let alpha = physics.alpha_for_fidelity(fidelity);
        prop_assert_eq!(admitted.is_ok(), alpha.is_some());
        if let Some(alpha) = alpha {
            let p = physics.success_prob(alpha);
            for link in [&mut warm, &mut fresh] {
                for announced in [BellState::PSI_PLUS, BellState::PSI_MINUS] {
                    let spec = link.next_action().unwrap();
                    prop_assert_eq!(spec.alpha.to_bits(), alpha.to_bits());
                    prop_assert_eq!(spec.attempts.p().to_bits(), p.to_bits());
                    prop_assert_eq!(spec.attempts, Geometric::new(p));
                    let (pair, state) =
                        link.on_generation_complete(spec.label, announced, 1, SimDuration::from_millis(1));
                    prop_assert_eq!(pair.alpha.to_bits(), alpha.to_bits());
                    prop_assert_eq!(pair.goodness.to_bits(), physics.fidelity(alpha).to_bits());
                    let expected = physics.heralded_pair(alpha, announced, rep);
                    prop_assert_eq!(state.is_bell(), expected.is_bell());
                    prop_assert!(same_bits(
                        state.to_density().matrix(),
                        expected.to_density().matrix()
                    ));
                }
            }
        }
        let (f_max, _) = physics.max_fidelity();
        for (label, f) in [(90, f_max + 1e-3), (91, f64::NAN)] {
            prop_assert_eq!(
                warm.submit(request(label, f)),
                Err(RejectReason::FidelityUnattainable)
            );
        }
    }
}
