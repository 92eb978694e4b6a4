//! Kraus noise channels.
//!
//! Every noise process the paper models maps onto one of these channels:
//!
//! * P1 (imperfect link pairs) — mixing done in `qn-hardware::heralding`;
//! * P2 (swap composition) — emerges from the state algebra itself;
//! * P3 (imperfect gates) — [`depolarizing`] after each gate;
//! * P4 (decoherence in memory) — [`dephasing`] (T2*) and
//!   [`amplitude_damping`] (T1) applied for the idle duration.

use crate::complex::C64;
use crate::matrix::CMatrix;

/// Single-qubit depolarizing channel: with probability `p` replace the
/// qubit by the maximally mixed state.
///
/// Kraus set: `{√(1−3p/4)·I, √(p/4)·X, √(p/4)·Y, √(p/4)·Z}`.
pub fn depolarizing(p: f64) -> Vec<CMatrix> {
    let p = p.clamp(0.0, 1.0);
    let k0 = crate::gates::identity().scale((1.0 - 3.0 * p / 4.0).sqrt());
    let kx = crate::gates::x().scale((p / 4.0).sqrt());
    let ky = crate::gates::y().scale((p / 4.0).sqrt());
    let kz = crate::gates::z().scale((p / 4.0).sqrt());
    vec![k0, kx, ky, kz]
}

/// Two-qubit depolarizing channel: with probability `p` replace both
/// qubits by the maximally mixed two-qubit state. Kraus set: the 16
/// two-qubit Paulis with appropriate weights.
pub fn depolarizing_2q(p: f64) -> Vec<CMatrix> {
    let p = p.clamp(0.0, 1.0);
    let paulis = [
        crate::gates::identity(),
        crate::gates::x(),
        crate::gates::y(),
        crate::gates::z(),
    ];
    let mut out = Vec::with_capacity(16);
    for (i, a) in paulis.iter().enumerate() {
        for (j, b) in paulis.iter().enumerate() {
            let weight = if i == 0 && j == 0 {
                1.0 - 15.0 * p / 16.0
            } else {
                p / 16.0
            };
            out.push(a.kron(b).scale(weight.sqrt()));
        }
    }
    out
}

/// Dephasing (phase-flip) channel: applies Z with probability `p`.
/// `p = 1/2` removes all coherence. An array, not a `Vec`: every memory
/// decay step builds one, and the 2×2 terms live inline.
pub fn dephasing(p: f64) -> [CMatrix; 2] {
    let p = p.clamp(0.0, 0.5);
    [
        crate::gates::identity().scale((1.0 - p).sqrt()),
        crate::gates::z().scale(p.sqrt()),
    ]
}

/// Bit-flip channel: applies X with probability `p`.
pub fn bit_flip(p: f64) -> Vec<CMatrix> {
    let p = p.clamp(0.0, 1.0);
    vec![
        crate::gates::identity().scale((1.0 - p).sqrt()),
        crate::gates::x().scale(p.sqrt()),
    ]
}

/// Amplitude damping channel with decay probability `gamma`
/// (relaxation towards `|0⟩`). An array, like [`dephasing`].
pub fn amplitude_damping(gamma: f64) -> [CMatrix; 2] {
    let gamma = gamma.clamp(0.0, 1.0);
    let k0 = CMatrix::from_rows(&[
        &[C64::ONE, C64::ZERO],
        &[C64::ZERO, C64::real((1.0 - gamma).sqrt())],
    ]);
    let k1 = CMatrix::from_rows(&[
        &[C64::ZERO, C64::real(gamma.sqrt())],
        &[C64::ZERO, C64::ZERO],
    ]);
    [k0, k1]
}

/// Dephasing probability for idling `t` seconds with dephasing time `t2`
/// (exponential coherence decay `e^{−t/T2}`): `p = (1 − e^{−t/T2})/2`.
pub fn dephasing_prob(t: f64, t2: f64) -> f64 {
    if !t2.is_finite() || t2 <= 0.0 {
        return 0.0;
    }
    0.5 * (1.0 - (-t / t2).exp())
}

/// Amplitude-damping probability for idling `t` seconds with relaxation
/// time `t1`: `γ = 1 − e^{−t/T1}`.
pub fn damping_prob(t: f64, t1: f64) -> f64 {
    if !t1.is_finite() || t1 <= 0.0 {
        return 0.0;
    }
    1.0 - (-t / t1).exp()
}

/// Convert a gate *fidelity* specification (Table 1) into a depolarizing
/// probability for a `dim`-dimensional target (2 for 1-qubit, 4 for
/// 2-qubit gates): solving `(1−p) + p/dim = F` gives
/// `p = (1 − F)·dim/(dim − 1)`.
pub fn depolarizing_param_for_fidelity(fidelity: f64, dim: usize) -> f64 {
    let d = dim as f64;
    ((1.0 - fidelity) * d / (d - 1.0)).clamp(0.0, 1.0)
}

/// Verify a Kraus set is trace-preserving: `Σ Kᵢ†Kᵢ = I`.
pub fn is_trace_preserving(kraus: &[CMatrix], eps: f64) -> bool {
    let dim = kraus[0].rows();
    let mut sum = CMatrix::zeros(dim, dim);
    for k in kraus {
        sum = &sum + &(&k.dagger() * k);
    }
    sum.approx_eq(&CMatrix::identity(dim), eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DensityMatrix;

    #[test]
    fn all_channels_trace_preserving() {
        for p in [0.0, 0.1, 0.5, 1.0] {
            assert!(is_trace_preserving(&depolarizing(p), 1e-12), "depol {p}");
            assert!(
                is_trace_preserving(&depolarizing_2q(p), 1e-12),
                "depol2 {p}"
            );
            assert!(is_trace_preserving(&bit_flip(p), 1e-12), "flip {p}");
            assert!(is_trace_preserving(&amplitude_damping(p), 1e-12), "ad {p}");
        }
        for p in [0.0, 0.2, 0.5] {
            assert!(is_trace_preserving(&dephasing(p), 1e-12), "dephase {p}");
        }
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::basis(1, 1);
        rho.apply_kraus(&depolarizing(1.0), &[0]);
        assert!(rho
            .matrix()
            .approx_eq(DensityMatrix::maximally_mixed(1).matrix(), 1e-12));
    }

    #[test]
    fn full_two_qubit_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::basis(2, 3);
        rho.apply_kraus(&depolarizing_2q(1.0), &[0, 1]);
        assert!(rho
            .matrix()
            .approx_eq(DensityMatrix::maximally_mixed(2).matrix(), 1e-10));
    }

    #[test]
    fn dephasing_kills_coherence_not_populations() {
        let mut rho = DensityMatrix::basis(1, 0);
        rho.apply_unitary(&crate::gates::h(), &[0]);
        rho.apply_kraus(&dephasing(0.5), &[0]);
        // Fully dephased |+> is maximally mixed.
        assert!((rho.purity() - 0.5).abs() < 1e-12);
        assert!((rho.prob_one(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_relaxes_to_ground() {
        let mut rho = DensityMatrix::basis(1, 1);
        rho.apply_kraus(&amplitude_damping(1.0), &[0]);
        assert!((rho.prob_one(0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn dephasing_prob_limits() {
        assert_eq!(dephasing_prob(0.0, 1.0), 0.0);
        assert!((dephasing_prob(f64::INFINITY, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(dephasing_prob(1.0, f64::INFINITY), 0.0);
        // One T2: p = (1 - 1/e)/2 ≈ 0.316.
        assert!((dephasing_prob(1.0, 1.0) - 0.31606).abs() < 1e-4);
    }

    #[test]
    fn depolarizing_param_matches_fidelity_definition() {
        // Applying depolarizing(p) to a basis state leaves fidelity
        // (1-p) + p/2 — check the inversion for 1-qubit gates.
        let f = 0.99;
        let p = depolarizing_param_for_fidelity(f, 2);
        let mut rho = DensityMatrix::basis(1, 0);
        rho.apply_kraus(&depolarizing(p), &[0]);
        let measured = rho.fidelity_pure(&[crate::complex::C64::ONE, crate::complex::C64::ZERO]);
        assert!((measured - f).abs() < 1e-12, "got {measured}");
    }

    #[test]
    fn depolarizing_param_2q() {
        let f = 0.998;
        let p = depolarizing_param_for_fidelity(f, 4);
        let mut rho = DensityMatrix::basis(2, 2);
        rho.apply_kraus(&depolarizing_2q(p), &[0, 1]);
        let mut target = vec![crate::complex::C64::ZERO; 4];
        target[2] = crate::complex::C64::ONE;
        let measured = rho.fidelity_pure(&target);
        assert!((measured - f).abs() < 1e-9, "got {measured}");
    }
}
