//! Property tests for the quantum engine: channel physicality, unitary
//! invariants, the composition laws the rest of the stack leans on, and
//! a `qn_testkit` model test of the Pauli-frame algebra.

use proptest::prelude::*;
use qn_quantum::bell::BellState;
use qn_quantum::channels;
use qn_quantum::formulas;
use qn_quantum::gates;
use qn_quantum::gates::Pauli;
use qn_quantum::state::DensityMatrix;
use qn_quantum::C64;
use qn_testkit::{ModelSpec, ModelTest};

/// Pauli-frame tracking model: the QNP never simulates corrections —
/// it tracks the Bell state as two XOR bits (`B(x,z)`). The model is
/// that two-bit frame; the system is the full density matrix with
/// Pauli unitaries applied to either qubit. After every operation the
/// simulated state must still be *exactly* the tracked Bell state.
mod frame_model {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ApplyPauli {
        /// 0 = X, 1 = Y, 2 = Z.
        pub pauli: u8,
        /// Which qubit of the pair.
        pub second_qubit: bool,
    }

    pub struct FrameSpec;

    impl ModelSpec for FrameSpec {
        type Op = ApplyPauli;
        /// The tracked `(x, z)` correction bits.
        type Model = BellState;
        type System = DensityMatrix;

        fn new_model(&self) -> BellState {
            BellState::PHI_PLUS
        }

        fn new_system(&self) -> DensityMatrix {
            BellState::PHI_PLUS.density()
        }

        fn op_strategy(&self) -> BoxedStrategy<ApplyPauli> {
            (0u8..3, any::<bool>())
                .prop_map(|(pauli, second_qubit)| ApplyPauli {
                    pauli,
                    second_qubit,
                })
                .boxed()
        }

        fn apply(
            &self,
            model: &mut BellState,
            system: &mut DensityMatrix,
            op: &ApplyPauli,
        ) -> Result<(), String> {
            let pauli = match op.pauli {
                0 => Pauli::X,
                1 => Pauli::Y,
                _ => Pauli::Z,
            };
            system.apply_unitary(&pauli.matrix(), &[usize::from(op.second_qubit)]);
            // A Pauli on *either* qubit flips the same frame bits: X
            // flips x, Z flips z, Y flips both (X^T = X, Z^T = Z and
            // Y^T = -Y differ only by global phase across the ⊗-swap).
            *model =
                BellState::from_bits(model.x ^ (pauli != Pauli::Z), model.z ^ (pauli != Pauli::X));
            Ok(())
        }

        fn invariants(&self, model: &BellState, system: &DensityMatrix) -> Result<(), String> {
            let f = system.fidelity_pure(&model.amplitudes());
            if (f - 1.0).abs() > 1e-9 {
                return Err(format!(
                    "simulated state has fidelity {f} to tracked {model}"
                ));
            }
            Ok(())
        }
    }
}

/// Random Pauli sequences on either qubit: the density-matrix
/// simulation must stay in lock-step with the two-bit Pauli frame.
#[test]
fn pauli_frame_matches_density_matrix() {
    ModelTest::new("quantum_pauli_frame_matches_model", frame_model::FrameSpec)
        .cases(128)
        .max_ops(32)
        .run();
}

/// An arbitrary single-qubit pure state.
fn arb_qubit() -> impl Strategy<Value = DensityMatrix> {
    (0.0f64..std::f64::consts::PI, 0.0f64..std::f64::consts::TAU).prop_map(|(theta, phi)| {
        DensityMatrix::pure(&[
            C64::real((theta / 2.0).cos()),
            C64::cis(phi).scale((theta / 2.0).sin()),
        ])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every noise channel is trace preserving and positivity preserving
    /// (diagonal entries stay in [0,1]) on arbitrary pure inputs.
    #[test]
    fn channels_preserve_physicality(rho in arb_qubit(), p in 0.0f64..1.0) {
        for kraus in [
            channels::depolarizing(p),
            channels::dephasing(p / 2.0).to_vec(),
            channels::bit_flip(p),
            channels::amplitude_damping(p).to_vec(),
        ] {
            let mut r = rho.clone();
            r.apply_kraus(&kraus, &[0]);
            prop_assert!((r.trace() - 1.0).abs() < 1e-9);
            prop_assert!(r.purity() <= 1.0 + 1e-9);
            let p1 = r.prob_one(0);
            prop_assert!((0.0..=1.0).contains(&p1));
        }
    }

    /// Unitaries preserve purity and trace; channels never increase
    /// purity beyond the input's.
    #[test]
    fn unitaries_preserve_purity(rho in arb_qubit(), theta in 0.0f64..6.2) {
        let mut r = rho.clone();
        r.apply_unitary(&gates::rx(theta), &[0]);
        r.apply_unitary(&gates::rz(theta * 0.7), &[0]);
        prop_assert!((r.purity() - rho.purity()).abs() < 1e-9);
        prop_assert!((r.trace() - 1.0).abs() < 1e-9);
    }

    /// Depolarizing channels compose: two applications with p1 then p2
    /// equal one with `p = p1 + p2 − p1·p2` (survival probabilities
    /// multiply).
    #[test]
    fn depolarizing_composes(rho in arb_qubit(), p1 in 0.0f64..0.9, p2 in 0.0f64..0.9) {
        let mut a = rho.clone();
        a.apply_kraus(&channels::depolarizing(p1), &[0]);
        a.apply_kraus(&channels::depolarizing(p2), &[0]);
        let mut b = rho.clone();
        let p = p1 + p2 - p1 * p2;
        b.apply_kraus(&channels::depolarizing(p), &[0]);
        prop_assert!(a.matrix().approx_eq(b.matrix(), 1e-9));
    }

    /// Dephasing composes the same way on the coherence factor:
    /// (1−2p1)(1−2p2) = 1−2p.
    #[test]
    fn dephasing_composes(rho in arb_qubit(), p1 in 0.0f64..0.5, p2 in 0.0f64..0.5) {
        let mut a = rho.clone();
        a.apply_kraus(&channels::dephasing(p1), &[0]);
        a.apply_kraus(&channels::dephasing(p2), &[0]);
        let mut b = rho.clone();
        let p = 0.5 * (1.0 - (1.0 - 2.0 * p1) * (1.0 - 2.0 * p2));
        b.apply_kraus(&channels::dephasing(p), &[0]);
        prop_assert!(a.matrix().approx_eq(b.matrix(), 1e-9));
    }

    /// The Werner swap formula is symmetric and never exceeds either
    /// input fidelity (for inputs above the 1/4 white-noise floor).
    #[test]
    fn swap_fidelity_bounds(f1 in 0.25f64..1.0, f2 in 0.25f64..1.0) {
        let f = formulas::swap_fidelity(f1, f2);
        prop_assert!((formulas::swap_fidelity(f2, f1) - f).abs() < 1e-12);
        prop_assert!(f <= f1.max(f2) + 1e-12);
        prop_assert!(f >= 0.25 - 1e-12);
    }

    /// Fidelity to any Bell state is invariant under exchanging the two
    /// qubits of the pair (the property that lets the head apply
    /// corrections on its own qubit).
    #[test]
    fn bell_fidelity_symmetric_under_qubit_exchange(
        idx in 0usize..4,
        p in 0.0f64..0.4,
        u in 0.0f64..1.0,
    ) {
        let target = BellState::from_index(idx);
        // A noisy pair: Bell state + one-sided noise.
        let mut rho = BellState::from_index((idx + 1) % 4).density();
        rho.apply_kraus(&channels::depolarizing(p), &[0]);
        rho.apply_kraus(&channels::dephasing(p * u / 2.0), &[1]);
        let f = rho.fidelity_pure(&target.amplitudes());
        let swapped = rho.partial_trace_keep(&[1, 0]);
        let f_swapped = swapped.fidelity_pure(&target.amplitudes());
        prop_assert!((f - f_swapped).abs() < 1e-9);
    }

    /// Measurement statistics are basis-consistent: the probability of
    /// outcome 1 equals (1 − ⟨Z⟩)/2.
    #[test]
    fn measurement_matches_expectation(rho in arb_qubit()) {
        let p1 = rho.prob_one(0);
        let z = rho.expectation(&gates::z());
        prop_assert!((p1 - (1.0 - z) / 2.0).abs() < 1e-9);
    }
}
