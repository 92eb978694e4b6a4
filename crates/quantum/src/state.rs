//! Density-matrix states.
//!
//! [`DensityMatrix`] holds a mixed state of one to four qubits (two
//! entangled pairs joined for a distillation round). Mixed states are
//! required — every noise process in the paper (imperfect link pairs,
//! gate depolarizing, T1/T2 decay, readout error) produces them. The
//! simulator's pairs are closed-form 4×4 states
//! ([`crate::pairstate`]); the n-qubit matrix builds the swap and
//! distillation tables and the swap's POVM elements, and runs
//! distillation on dense pairs.
//!
//! Randomness is injected by the caller: every probabilistic operation
//! takes a uniform `u ∈ [0,1)` sample, keeping this crate free of RNG state
//! and trivially deterministic to test.

use crate::complex::C64;
use crate::matrix::{assert_distinct, embed_op, CMatrix};

/// Tolerance for trace/hermiticity sanity checks.
const EPS: f64 = 1e-9;

/// A mixed state of `n` qubits as a 2ⁿ×2ⁿ density matrix.
///
/// Qubit 0 is the most significant bit of a basis index (matching
/// [`crate::gates`]).
#[derive(Clone, PartialEq, Debug)]
pub struct DensityMatrix {
    n: usize,
    m: CMatrix,
}

impl DensityMatrix {
    /// A pure state from (possibly unnormalised) amplitudes.
    pub fn pure(amps: &[C64]) -> Self {
        let dim = amps.len();
        assert!(dim.is_power_of_two() && dim >= 2, "bad amplitude count");
        let n = dim.trailing_zeros() as usize;
        let norm2: f64 = amps.iter().map(|a| a.abs2()).sum();
        assert!(norm2 > 0.0, "zero state vector");
        let scale = 1.0 / norm2;
        let mut m = CMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                m[(i, j)] = (amps[i] * amps[j].conj()).scale(scale);
            }
        }
        DensityMatrix { n, m }
    }

    /// The computational basis state `|idx⟩` of `n` qubits.
    pub fn basis(n: usize, idx: usize) -> Self {
        let dim = 1usize << n;
        assert!(idx < dim);
        let mut amps = vec![C64::ZERO; dim];
        amps[idx] = C64::ONE;
        DensityMatrix::pure(&amps)
    }

    /// The maximally mixed state `I/2ⁿ`.
    pub fn maximally_mixed(n: usize) -> Self {
        let dim = 1usize << n;
        DensityMatrix {
            n,
            m: CMatrix::identity(dim).scale(1.0 / dim as f64),
        }
    }

    /// Wrap an explicit matrix; validates dimensions, hermiticity and unit
    /// trace. This is the constructor for API boundaries and tests; hot
    /// paths that build matrices known-valid by construction use
    /// [`DensityMatrix::from_matrix_unchecked`].
    pub fn from_matrix(m: CMatrix) -> Self {
        assert!(m.is_square());
        let dim = m.rows();
        assert!(dim.is_power_of_two() && dim >= 2);
        assert!(m.is_hermitian(1e-7), "density matrix must be hermitian");
        let tr = m.trace();
        assert!(
            (tr.re - 1.0).abs() < 1e-6 && tr.im.abs() < 1e-9,
            "density matrix must have unit trace, got {tr:?}"
        );
        DensityMatrix {
            n: dim.trailing_zeros() as usize,
            m,
        }
    }

    /// Wrap a matrix that is a valid density matrix *by construction*
    /// (heralded-state assembly, projective-measurement branches).
    /// Validation runs only under `debug_assertions`, keeping release
    /// hot paths free of the O(n²) hermiticity sweep.
    pub fn from_matrix_unchecked(m: CMatrix) -> Self {
        debug_assert!(m.is_square());
        debug_assert!(m.rows().is_power_of_two() && m.rows() >= 2);
        debug_assert!(m.is_hermitian(1e-7), "density matrix must be hermitian");
        debug_assert!(
            (m.trace().re - 1.0).abs() < 1e-6 && m.trace().im.abs() < 1e-9,
            "density matrix must have unit trace, got {:?}",
            m.trace()
        );
        DensityMatrix {
            n: m.rows().trailing_zeros() as usize,
            m,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Hilbert-space dimension 2ⁿ.
    pub fn dim(&self) -> usize {
        1 << self.n
    }

    /// Borrow the underlying matrix.
    pub fn matrix(&self) -> &CMatrix {
        &self.m
    }

    /// Trace (≈1 for a valid state).
    pub fn trace(&self) -> f64 {
        self.m.trace().re
    }

    /// Purity `Tr ρ²` (1 for pure states, `1/2ⁿ` for maximally mixed).
    pub fn purity(&self) -> f64 {
        (&self.m * &self.m).trace().re
    }

    /// Tensor product `self ⊗ other`.
    pub fn tensor(&self, other: &DensityMatrix) -> DensityMatrix {
        DensityMatrix {
            n: self.n + other.n,
            m: self.m.kron(&other.m),
        }
    }

    /// Expand a `k`-qubit operator onto the given (distinct) target qubits
    /// of this state's space. The first target corresponds to the most
    /// significant bit of the operator's index.
    pub fn embed(&self, op: &CMatrix, targets: &[usize]) -> CMatrix {
        embed_op(self.n, op, targets)
    }

    /// Apply a unitary to the given target qubits: `ρ ← UρU†`, with `U`
    /// embedded in the full register.
    pub fn apply_unitary(&mut self, u: &CMatrix, targets: &[usize]) {
        sandwich(self.n, &mut self.m, std::slice::from_ref(u), targets);
    }

    /// Apply a Kraus channel `{Kᵢ}` to the given targets:
    /// `ρ ← Σᵢ KᵢρKᵢ†`, the embedded sandwiches summed in set order,
    /// then renormalised to unit trace. The set must be trace
    /// preserving (checked loosely).
    pub fn apply_kraus(&mut self, kraus: &[CMatrix], targets: &[usize]) {
        sandwich(self.n, &mut self.m, kraus, targets);
        let tr = self.m.trace().re;
        debug_assert!(
            (tr - 1.0).abs() < 1e-6,
            "channel not trace preserving: {tr}"
        );
        // Remove accumulated floating-point drift.
        if (tr - 1.0).abs() > EPS {
            self.m.scale_in_place(1.0 / tr);
        }
    }

    /// Probability that a Z-measurement of `qubit` yields 1.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.n);
        let shift = self.n - 1 - qubit;
        let mut p = 0.0;
        for i in 0..self.dim() {
            if (i >> shift) & 1 == 1 {
                p += self.m[(i, i)].re;
            }
        }
        p.clamp(0.0, 1.0)
    }

    /// Measure `qubit` in the Z basis using uniform sample `u ∈ [0,1)`.
    /// The state collapses (and renormalises); the qubit remains in the
    /// register in the corresponding eigenstate.
    pub fn measure_z(&mut self, qubit: usize, u: f64) -> bool {
        let p1 = self.prob_one(qubit);
        let outcome = u < p1;
        self.project_z(qubit, outcome);
        outcome
    }

    /// Project `qubit` onto the Z eigenstate `outcome` and renormalise.
    /// The projection is a masked copy, with the bits of `P·ρ·P` for
    /// the dense projector `P`.
    /// Panics (debug) if the outcome has ~zero probability.
    pub fn project_z(&mut self, qubit: usize, outcome: bool) {
        project_z(self.n, &mut self.m, qubit, outcome);
        let p = self.m.trace().re;
        debug_assert!(p > 1e-12, "projecting onto zero-probability outcome");
        self.m.scale_in_place(1.0 / p.max(1e-300));
    }

    /// Partial trace keeping the listed qubits, in the order given.
    ///
    /// # Panics
    /// If `keep` is empty, repeats a qubit or names one outside the
    /// register.
    pub fn partial_trace_keep(&self, keep: &[usize]) -> DensityMatrix {
        DensityMatrix {
            n: keep.len(),
            m: partial_trace(&self.m, self.n, keep),
        }
    }

    /// Fidelity against a pure target state: `F = ⟨ψ|ρ|ψ⟩`.
    pub fn fidelity_pure(&self, amps: &[C64]) -> f64 {
        assert_eq!(amps.len(), self.dim());
        let norm2: f64 = amps.iter().map(|a| a.abs2()).sum();
        let mut f = C64::ZERO;
        for i in 0..self.dim() {
            for j in 0..self.dim() {
                f += amps[i].conj() * self.m[(i, j)] * amps[j];
            }
        }
        (f.re / norm2).clamp(0.0, 1.0)
    }

    /// Expectation value of a Hermitian operator over the full register.
    pub fn expectation(&self, op: &CMatrix) -> f64 {
        (&self.m * op).trace().re
    }
}

/// `ρ ← Σₖ Kₖ·ρ·Kₖ†` for operators on `targets` of the `n`-qubit
/// matrix `rho`, without renormalising. Each `Kₖ` is embedded in the
/// full register, each term is formed in full by two dense products,
/// and the terms are added in set order to an accumulator that starts
/// at zero.
pub(crate) fn sandwich(n: usize, rho: &mut CMatrix, kraus: &[CMatrix], targets: &[usize]) {
    let dim = 1usize << n;
    assert_eq!((rho.rows(), rho.cols()), (dim, dim), "state size mismatch");
    let mut acc = CMatrix::zeros(dim, dim);
    let (mut left, mut term) = (CMatrix::zeros(dim, dim), CMatrix::zeros(dim, dim));
    for k in kraus {
        let full = embed_op(n, k, targets);
        CMatrix::mul_into(&full, rho, &mut left);
        CMatrix::mul_dagger_into(&left, &full, &mut term);
        acc.add_assign_mat(&term);
    }
    *rho = acc;
}

/// Project `qubit` of an `n`-qubit matrix onto the Z eigenstate
/// `outcome`, without renormalising. `P·ρ·P` with a diagonal 0/1 mask
/// `P` reduces to a masked copy: the dense products skip `P`'s zeros,
/// so each kept entry is formed as `+0 + ρᵢⱼ` and every other entry is
/// `+0`.
pub(crate) fn project_z(n: usize, m: &mut CMatrix, qubit: usize, outcome: bool) {
    assert!(qubit < n, "qubit {qubit} out of range for {n} qubits");
    let shift = n - 1 - qubit;
    let dim = 1usize << n;
    let kept = |i: usize| (i >> shift) & 1 == usize::from(outcome);
    for (i, row) in m.data_mut().chunks_exact_mut(dim).enumerate() {
        for (j, z) in row.iter_mut().enumerate() {
            *z = if kept(i) && kept(j) {
                C64::ZERO + *z
            } else {
                C64::ZERO
            };
        }
    }
}

/// Register offset of index `t` over `qubits` of an `n`-qubit register:
/// bit `pos` of `t`, counted from the most significant, lands on qubit
/// `qubits[pos]` (qubit 0 = most significant register bit).
fn scatter(n: usize, qubits: &[usize], t: usize) -> usize {
    let k = qubits.len();
    qubits.iter().enumerate().fold(0, |idx, (pos, q)| {
        idx | ((t >> (k - 1 - pos)) & 1) << (n - 1 - q)
    })
}

/// Partial trace of an `n`-qubit matrix, normalised or not, keeping the
/// listed qubits in the order given.
///
/// # Panics
/// If `keep` is empty, repeats a qubit or names one outside the register.
pub(crate) fn partial_trace(m: &CMatrix, n: usize, keep: &[usize]) -> CMatrix {
    assert!(!keep.is_empty(), "partial trace must keep a qubit");
    assert_distinct(n, keep);
    let rest: Vec<usize> = (0..n).filter(|q| !keep.contains(q)).collect();
    let kdim = 1usize << keep.len();
    let mut out = CMatrix::zeros(kdim, kdim);
    for a in 0..kdim {
        let ia = scatter(n, keep, a);
        for b in 0..kdim {
            let ib = scatter(n, keep, b);
            let mut sum = C64::ZERO;
            for r in 0..1usize << rest.len() {
                let ir = scatter(n, &rest, r);
                sum += m[(ia | ir, ib | ir)];
            }
            out[(a, b)] = sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    fn bell_phi_plus() -> DensityMatrix {
        DensityMatrix::pure(&[
            C64::real(FRAC_1_SQRT_2),
            C64::ZERO,
            C64::ZERO,
            C64::real(FRAC_1_SQRT_2),
        ])
    }

    #[test]
    fn pure_state_has_unit_purity() {
        let rho = DensityMatrix::basis(2, 3);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn maximally_mixed_purity() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.purity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pure_normalises_input() {
        let rho = DensityMatrix::pure(&[C64::real(3.0), C64::real(4.0)]);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.prob_one(0) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn hadamard_creates_superposition() {
        let mut rho = DensityMatrix::basis(1, 0);
        rho.apply_unitary(&gates::h(), &[0]);
        assert!((rho.prob_one(0) - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cnot_on_plus_gives_bell_pair() {
        let mut rho = DensityMatrix::basis(2, 0);
        rho.apply_unitary(&gates::h(), &[0]);
        rho.apply_unitary(&gates::cnot(), &[0, 1]);
        let f = rho.fidelity_pure(&[
            C64::real(FRAC_1_SQRT_2),
            C64::ZERO,
            C64::ZERO,
            C64::real(FRAC_1_SQRT_2),
        ]);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn embed_on_second_qubit() {
        // X on qubit 1 of |00> gives |01>.
        let mut rho = DensityMatrix::basis(2, 0);
        rho.apply_unitary(&gates::x(), &[1]);
        assert!(
            (rho.fidelity_pure(&[C64::ZERO, C64::ONE, C64::ZERO, C64::ZERO]) - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn embed_respects_target_order() {
        // CNOT with control qubit 1, target qubit 0 on |01> -> |11>.
        let mut rho = DensityMatrix::basis(2, 1);
        rho.apply_unitary(&gates::cnot(), &[1, 0]);
        assert!(
            (rho.fidelity_pure(&[C64::ZERO, C64::ZERO, C64::ZERO, C64::ONE]) - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn measurement_collapses() {
        let mut rho = DensityMatrix::basis(1, 0);
        rho.apply_unitary(&gates::h(), &[0]);
        let outcome = rho.measure_z(0, 0.75); // u=0.75 >= p1=0.5 -> outcome 0
        assert!(!outcome);
        assert!((rho.prob_one(0) - 0.0).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_correlations_on_bell_pair() {
        // Measuring qubit 0 of |Φ+> then qubit 1 gives equal outcomes.
        for u in [0.1, 0.9] {
            let mut rho = bell_phi_plus();
            let m0 = rho.measure_z(0, u);
            let m1 = rho.measure_z(1, 0.5);
            assert_eq!(m0, m1);
        }
    }

    #[test]
    fn partial_trace_of_bell_pair_is_mixed() {
        let rho = bell_phi_plus();
        let one = rho.partial_trace_keep(&[0]);
        assert_eq!(one.num_qubits(), 1);
        assert!((one.purity() - 0.5).abs() < 1e-12);
        assert!((one.prob_one(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_trace_keep_order_swaps_qubits() {
        // |01⟩: keep [1,0] reverses to |10⟩.
        let rho = DensityMatrix::basis(2, 1);
        let swapped = rho.partial_trace_keep(&[1, 0]);
        assert!(
            (swapped.fidelity_pure(&[C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO]) - 1.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn tensor_then_trace_roundtrip() {
        let a = DensityMatrix::basis(1, 1);
        let b = DensityMatrix::maximally_mixed(1);
        let ab = a.tensor(&b);
        assert_eq!(ab.num_qubits(), 2);
        let a2 = ab.partial_trace_keep(&[0]);
        assert!(a2.matrix().approx_eq(a.matrix(), 1e-12));
        let b2 = ab.partial_trace_keep(&[1]);
        assert!(b2.matrix().approx_eq(b.matrix(), 1e-12));
    }

    #[test]
    fn fidelity_of_mixed_state() {
        let rho = DensityMatrix::maximally_mixed(2);
        let f = rho.fidelity_pure(&[
            C64::real(FRAC_1_SQRT_2),
            C64::ZERO,
            C64::ZERO,
            C64::real(FRAC_1_SQRT_2),
        ]);
        assert!((f - 0.25).abs() < 1e-12);
    }

    #[test]
    fn kraus_identity_channel_is_noop() {
        let mut rho = bell_phi_plus();
        let before = rho.clone();
        rho.apply_kraus(&[gates::identity()], &[0]);
        assert!(rho.matrix().approx_eq(before.matrix(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "duplicate qubit 1")]
    fn partial_trace_rejects_repeated_qubit() {
        // Keeping qubit 1 twice would return a "state" of trace 2.
        let _ = bell_phi_plus().partial_trace_keep(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partial_trace_rejects_qubit_outside_register() {
        let _ = bell_phi_plus().partial_trace_keep(&[2]);
    }

    #[test]
    #[should_panic]
    fn embed_rejects_duplicate_targets() {
        let rho = DensityMatrix::basis(2, 0);
        let _ = rho.embed(&gates::cnot(), &[0, 0]);
    }
}
