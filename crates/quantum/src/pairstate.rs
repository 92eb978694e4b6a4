//! Bell-diagonal fast-path pair states.
//!
//! Every pair the simulator touches — heralded link pairs, decaying
//! memory pairs, swap inputs and outputs, distillation inputs — is an
//! **X-state**: a two-qubit density matrix whose only non-zero entries
//! are the four computational populations and the two "anti-diagonal"
//! coherences,
//!
//! ```text
//!     ⎡ p00  ·   ·   u  ⎤
//!     ⎢  ·  p01  v   ·  ⎥        u, v real
//!     ⎢  ·   v  p10  ·  ⎥
//!     ⎣  u   ·   ·  p11 ⎦
//! ```
//!
//! In the Bell basis this is a Bell-diagonal state — coefficients
//! `Φ± = (p00+p11)/2 ± u`, `Ψ± = (p01+p10)/2 ± v` — plus two population
//! *asymmetries* `(p00−p11)/2` and `(p01−p10)/2` that textbook
//! Bell-diagonal states set to zero. [`BellDiagonal`] carries the
//! asymmetries so that **amplitude damping (T1) is exact**, not merely
//! twirled: damping pumps population towards `|00⟩` and a strict
//! four-coefficient representation would silently drop that, breaking
//! the representation-agreement guarantee this module is built around.
//!
//! Every update here is an exact closed form of the corresponding
//! dense-matrix operation (same channel, same parameters), so a
//! simulation run under `QNP_QSTATE=bell` follows the *same trajectory*
//! as `QNP_QSTATE=dm` — identical RNG draw order, identical outcomes —
//! with per-operation floating-point deviations at the 1e-15 level.
//! The property suites in `tests/prop_pairstate.rs` and
//! `qn_hardware/tests/prop_threeway.rs` pin the agreement at 1e-12
//! across random channel/swap/distill/measure sequences.
//!
//! Operations that leave the X-form (Hadamard before an X/Y-basis
//! readout) demote a [`PairState`] to the dense 4×4 [`DensePair`],
//! which remains the general fallback. Its operations are closed forms
//! on the sixteen entries too, and its swap is one contraction with a
//! [`SwapPovm`]; the n-qubit [`DensityMatrix`] builds the tables and
//! the POVM elements, and runs distillation on dense pairs.
//!
//! ## Swap and distillation: conditional-map tables
//!
//! The noisy entanglement-swap and BBPSSW circuits are *linear* in the
//! input product state, so their action on X-state inputs is captured
//! exactly by a finite table: feed each of the 6×6 X-basis products
//! through the dense circuit once, record the conditional (unnormalised)
//! reduced output and its weight for each pair of measurement outcomes,
//! and every future swap/distill becomes a 36-term contraction — no
//! 16×16 algebra on the hot path. [`CondTable::swap`] and
//! [`CondTable::distill`] build these tables with the dense products of
//! [`DensityMatrix`] and verify X-closure of the outputs at build time,
//! falling back to the dense path if the check ever fails. Each table
//! and each [`SwapPovm`] is a pure function of the gate noise, so it is
//! built once per process per noise level and kept for the process's
//! lifetime.

use crate::bell::BellState;
use crate::channels;
use crate::complex::C64;
use crate::gates::{self, Pauli};
use crate::matrix::CMatrix;
use crate::state::{self, DensityMatrix};
use std::sync::Mutex;

/// Off-X-form tolerance when converting a dense matrix to
/// [`BellDiagonal`] or checking table closure. States built by this
/// stack are X-form *exactly*; the tolerance only absorbs float dust.
const X_EPS: f64 = 1e-12;

// ---------------------------------------------------------------------
// Representation knob
// ---------------------------------------------------------------------

/// Which pair-state representation the simulation runs on
/// (`QNP_QSTATE` knob).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateRep {
    /// Bell-diagonal (X-state) closed forms, dense fallback on demand.
    /// The default: ~an order of magnitude less arithmetic per pair
    /// event.
    Bell,
    /// Dense 4×4 density matrices everywhere ([`DensePair`]): closed
    /// forms on the sixteen entries, and the swap as one contraction
    /// with a [`SwapPovm`] element. It follows the same trajectory as
    /// the n-qubit reference circuit (same draws, same outcomes), with
    /// every entry within 1e-12 of it (`prop_dm_circuit.rs` in
    /// `qn_hardware`).
    Dm,
}

impl StateRep {
    /// Read the `QNP_QSTATE` environment knob: `bell` (default) or
    /// `dm`.
    ///
    /// # Panics
    /// On an unrecognised value — a mistyped knob should fail loudly,
    /// not silently simulate with the wrong engine.
    pub fn from_env() -> StateRep {
        match std::env::var("QNP_QSTATE") {
            Ok(v) => match v.as_str() {
                "bell" => StateRep::Bell,
                "dm" => StateRep::Dm,
                other => panic!("QNP_QSTATE must be \"bell\" or \"dm\", got {other:?}"),
            },
            Err(_) => StateRep::Bell,
        }
    }

    /// Knob value naming this representation.
    pub fn as_str(self) -> &'static str {
        match self {
            StateRep::Bell => "bell",
            StateRep::Dm => "dm",
        }
    }
}

// ---------------------------------------------------------------------
// BellDiagonal
// ---------------------------------------------------------------------

/// A two-qubit X-state: four computational populations plus the two
/// real anti-diagonal coherences (see the module docs). Eight-times
///-less state than a dense 4×4 complex matrix, and every simulator
/// operation on it is a handful of multiplies.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BellDiagonal {
    /// Populations `[p00, p01, p10, p11]` (qubit 0 is the MSB).
    pop: [f64; 4],
    /// Real coherence between `|00⟩` and `|11⟩` (splits `Φ⁺`/`Φ⁻`).
    u: f64,
    /// Real coherence between `|01⟩` and `|10⟩` (splits `Ψ⁺`/`Ψ⁻`).
    v: f64,
}

impl BellDiagonal {
    /// Construct from raw populations and coherences.
    pub fn from_parts(pop: [f64; 4], u: f64, v: f64) -> Self {
        BellDiagonal { pop, u, v }
    }

    /// The pure Bell state `b`.
    pub fn from_bell_state(b: BellState) -> Self {
        let s = if b.z { -0.5 } else { 0.5 };
        if b.x {
            BellDiagonal {
                pop: [0.0, 0.5, 0.5, 0.0],
                u: 0.0,
                v: s,
            }
        } else {
            BellDiagonal {
                pop: [0.5, 0.0, 0.0, 0.5],
                u: s,
                v: 0.0,
            }
        }
    }

    /// A textbook Bell-diagonal state from its four coefficients,
    /// indexed by [`BellState::index`] (asymmetries zero).
    pub fn from_bell_coeffs(c: [f64; 4]) -> Self {
        let phi = c[BellState::PHI_PLUS.index()] + c[BellState::PHI_MINUS.index()];
        let psi = c[BellState::PSI_PLUS.index()] + c[BellState::PSI_MINUS.index()];
        BellDiagonal {
            pop: [phi / 2.0, psi / 2.0, psi / 2.0, phi / 2.0],
            u: (c[BellState::PHI_PLUS.index()] - c[BellState::PHI_MINUS.index()]) / 2.0,
            v: (c[BellState::PSI_PLUS.index()] - c[BellState::PSI_MINUS.index()]) / 2.0,
        }
    }

    /// Extract from a dense matrix, or `None` when the state is not
    /// X-form (within a tolerance of 1e-12).
    pub fn from_density(rho: &DensityMatrix) -> Option<Self> {
        if rho.num_qubits() != 2 {
            return None;
        }
        x_decompose(rho.matrix().data()).map(BellDiagonal::from_coeffs)
    }

    /// The dense 4×4 density matrix of this state.
    pub fn to_density(&self) -> DensityMatrix {
        DensePair::from_bell(self).to_density()
    }

    /// Trace (≈1 for a valid state).
    pub fn trace(&self) -> f64 {
        self.pop.iter().sum()
    }

    /// Purity `Tr ρ²`.
    pub fn purity(&self) -> f64 {
        self.pop.iter().map(|p| p * p).sum::<f64>() + 2.0 * self.u * self.u + 2.0 * self.v * self.v
    }

    /// The Bell-diagonal coefficient `⟨b|ρ|b⟩` — the pair's fidelity to
    /// Bell state `b`.
    pub fn bell_coeff(&self, b: BellState) -> f64 {
        let val = if b.x {
            (self.pop[1] + self.pop[2]) / 2.0 + if b.z { -self.v } else { self.v }
        } else {
            (self.pop[0] + self.pop[3]) / 2.0 + if b.z { -self.u } else { self.u }
        };
        val.clamp(0.0, 1.0)
    }

    /// Probability that a Z-measurement of `end` (0 or 1) yields 1.
    pub fn prob_one(&self, end: usize) -> f64 {
        let p = match end {
            0 => self.pop[2] + self.pop[3],
            1 => self.pop[1] + self.pop[3],
            _ => panic!("pair has ends 0 and 1"),
        };
        p.clamp(0.0, 1.0)
    }

    /// Apply a (perfect) Pauli to one end: a permutation/sign-flip of
    /// the six parameters.
    pub fn apply_pauli(&mut self, end: usize, pauli: Pauli) {
        assert!(end < 2, "pair has ends 0 and 1");
        match pauli {
            Pauli::I => {}
            Pauli::Z => {
                self.u = -self.u;
                self.v = -self.v;
            }
            Pauli::X | Pauli::Y => {
                if end == 0 {
                    self.pop.swap(0, 2);
                    self.pop.swap(1, 3);
                } else {
                    self.pop.swap(0, 1);
                    self.pop.swap(2, 3);
                }
                let (u, v) = (self.u, self.v);
                if pauli == Pauli::X {
                    self.u = v;
                    self.v = u;
                } else {
                    self.u = -v;
                    self.v = -u;
                }
            }
        }
    }

    /// Dephasing (phase flip with probability `p`, clamped to
    /// `[0, 1/2]` like [`channels::dephasing`]) on either end: the
    /// coherences shrink by `1−2p`, the populations are untouched.
    pub fn dephase(&mut self, p: f64) {
        let f = 1.0 - 2.0 * p.clamp(0.0, 0.5);
        self.u *= f;
        self.v *= f;
    }

    /// Bit flip (X with probability `p`) on `end`.
    pub fn bit_flip(&mut self, end: usize, p: f64) {
        let p = p.clamp(0.0, 1.0);
        let mut flipped = *self;
        flipped.apply_pauli(end, Pauli::X);
        self.mix_from(&flipped, p);
    }

    /// Single-qubit depolarizing channel on `end`: the affected qubit's
    /// marginal moves towards `I/2`, both coherences shrink by `1−p`.
    pub fn depolarize(&mut self, end: usize, p: f64) {
        let p = p.clamp(0.0, 1.0);
        let s = 1.0 - p;
        let [p00, p01, p10, p11] = self.pop;
        self.pop = if end == 0 {
            [
                s * p00 + p * (p00 + p10) / 2.0,
                s * p01 + p * (p01 + p11) / 2.0,
                s * p10 + p * (p00 + p10) / 2.0,
                s * p11 + p * (p01 + p11) / 2.0,
            ]
        } else {
            [
                s * p00 + p * (p00 + p01) / 2.0,
                s * p01 + p * (p00 + p01) / 2.0,
                s * p10 + p * (p10 + p11) / 2.0,
                s * p11 + p * (p10 + p11) / 2.0,
            ]
        };
        self.u *= s;
        self.v *= s;
    }

    /// Two-qubit depolarizing channel: `(1−p)ρ + p·(I/4)·Tr ρ`.
    pub fn depolarize_2q(&mut self, p: f64) {
        let p = p.clamp(0.0, 1.0);
        let s = 1.0 - p;
        let fill = 0.25 * p * self.trace();
        for q in &mut self.pop {
            *q = s * *q + fill;
        }
        self.u *= s;
        self.v *= s;
    }

    /// Amplitude damping (relaxation towards `|0⟩` with probability
    /// `gamma`) on `end` — **exact**, thanks to the tracked population
    /// asymmetries: `|x1⟩` population flows to `|x0⟩` and the
    /// coherences shrink by `√(1−γ)`.
    pub fn amplitude_damp(&mut self, end: usize, gamma: f64) {
        let g = gamma.clamp(0.0, 1.0);
        let keep = 1.0 - g;
        if end == 0 {
            self.pop[0] += g * self.pop[2];
            self.pop[1] += g * self.pop[3];
            self.pop[2] *= keep;
            self.pop[3] *= keep;
        } else {
            self.pop[0] += g * self.pop[1];
            self.pop[2] += g * self.pop[3];
            self.pop[1] *= keep;
            self.pop[3] *= keep;
        }
        let s = keep.sqrt();
        self.u *= s;
        self.v *= s;
    }

    /// Project `end` onto the Z eigenstate `outcome` and renormalise.
    /// Both coherences connect states that differ on *both* qubits, so
    /// they vanish under any single-qubit Z projection.
    pub fn project_z(&mut self, end: usize, outcome: bool) {
        let keep_one = usize::from(outcome);
        for (i, p) in self.pop.iter_mut().enumerate() {
            let bit = if end == 0 { i >> 1 } else { i } & 1;
            if bit != keep_one {
                *p = 0.0;
            }
        }
        self.u = 0.0;
        self.v = 0.0;
        let t: f64 = self.pop.iter().sum();
        debug_assert!(t > 1e-12, "projecting onto zero-probability outcome");
        let inv = 1.0 / t.max(1e-300);
        for p in &mut self.pop {
            *p *= inv;
        }
    }

    /// Measure `end` in the Z basis using uniform sample `u ∈ [0,1)`.
    pub fn measure_z(&mut self, end: usize, u: f64) -> bool {
        let p1 = self.prob_one(end);
        let outcome = u < p1;
        self.project_z(end, outcome);
        outcome
    }

    /// `self ← (1−p)·self + p·other`.
    fn mix_from(&mut self, other: &BellDiagonal, p: f64) {
        let s = 1.0 - p;
        for (a, b) in self.pop.iter_mut().zip(other.pop) {
            *a = s * *a + p * b;
        }
        self.u = s * self.u + p * other.u;
        self.v = s * self.v + p * other.v;
    }

    /// X-basis coefficient vector `[p00, p01, p10, p11, u, v]` (the
    /// contraction input for [`CondTable`]).
    fn coeffs(&self) -> [f64; 6] {
        [
            self.pop[0],
            self.pop[1],
            self.pop[2],
            self.pop[3],
            self.u,
            self.v,
        ]
    }

    fn from_coeffs(c: [f64; 6]) -> Self {
        BellDiagonal {
            pop: [c[0], c[1], c[2], c[3]],
            u: c[4],
            v: c[5],
        }
    }
}

// ---------------------------------------------------------------------
// DensePair
// ---------------------------------------------------------------------

/// A dense two-qubit state: the 4×4 density matrix, row-major, with
/// qubit 0 as the most significant bit of an index (the order
/// [`DensityMatrix`] uses). Every operation is a closed form on the
/// sixteen entries, so no per-event operation builds an n-qubit
/// register.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DensePair {
    m: [C64; 16],
}

/// The index bit of pair end `end`: end 0 is the most significant.
fn end_bit(end: usize) -> usize {
    assert!(end < 2, "pair has ends 0 and 1");
    2 >> end
}

impl DensePair {
    /// The sixteen row-major entries.
    pub fn entries(&self) -> &[C64; 16] {
        &self.m
    }

    /// Copy a two-qubit density matrix.
    ///
    /// # Panics
    /// If `rho` is not a two-qubit state.
    pub fn from_density(rho: &DensityMatrix) -> Self {
        assert_eq!(rho.num_qubits(), 2, "a pair state has two qubits");
        let mut m = [C64::ZERO; 16];
        m.copy_from_slice(rho.matrix().data());
        DensePair { m }
    }

    /// The same state as a [`DensityMatrix`].
    pub fn to_density(&self) -> DensityMatrix {
        let mut m = CMatrix::zeros(4, 4);
        m.data_mut().copy_from_slice(&self.m);
        DensityMatrix::from_matrix_unchecked(m)
    }

    /// The X-state `b` with every entry in place.
    pub fn from_bell(b: &BellDiagonal) -> Self {
        let mut m = [C64::ZERO; 16];
        for (i, p) in b.pop.iter().enumerate() {
            m[5 * i] = C64::real(*p);
        }
        m[3] = C64::real(b.u);
        m[12] = C64::real(b.u);
        m[6] = C64::real(b.v);
        m[9] = C64::real(b.v);
        DensePair { m }
    }

    /// The Bell-diagonal form, or `None` when the state is not X-form
    /// (within a tolerance of 1e-12).
    pub fn to_bell(&self) -> Option<BellDiagonal> {
        x_decompose(&self.m).map(BellDiagonal::from_coeffs)
    }

    /// Trace (≈1 for a valid state).
    pub fn trace(&self) -> f64 {
        self.m[0].re + self.m[5].re + self.m[10].re + self.m[15].re
    }

    /// Purity `Tr ρ² = Σ |ρᵢⱼ|²` (ρ is hermitian).
    pub fn purity(&self) -> f64 {
        self.m.iter().map(|z| z.abs2()).sum()
    }

    /// Fidelity `⟨b|ρ|b⟩` to the Bell state `b`.
    pub fn fidelity_bell(&self, b: BellState) -> f64 {
        let m = &self.m;
        let sign = if b.z { -1.0 } else { 1.0 };
        let f = if b.x {
            0.5 * (m[5].re + m[10].re + sign * (m[6].re + m[9].re))
        } else {
            0.5 * (m[0].re + m[15].re + sign * (m[3].re + m[12].re))
        };
        f.clamp(0.0, 1.0)
    }

    /// Probability that a Z-measurement of `end` yields 1: the
    /// populations with the end's bit set, summed in index order like
    /// [`DensityMatrix::prob_one`].
    pub fn prob_one(&self, end: usize) -> f64 {
        let bit = end_bit(end);
        let mut p = 0.0;
        for i in (0..4).filter(|i| i & bit != 0) {
            p += self.m[5 * i].re;
        }
        p.clamp(0.0, 1.0)
    }

    /// `ρ ← XρX` on the end with index bit `bit`: entry `(r, c)` moves
    /// to `(r ⊕ bit, c ⊕ bit)`.
    fn flip(&mut self, bit: usize) {
        let old = self.m;
        for (i, z) in self.m.iter_mut().enumerate() {
            *z = old[i ^ (bit << 2) ^ bit];
        }
    }

    /// `ρ ← ZρZ` on the end with index bit `bit`: negate the entries
    /// whose row and column differ in that bit.
    fn phase_flip(&mut self, bit: usize) {
        for (i, z) in self.m.iter_mut().enumerate() {
            if ((i >> 2) ^ i) & bit != 0 {
                *z = -*z;
            }
        }
    }

    /// Apply a (perfect) Pauli to one end: a permutation and sign flip
    /// of the entries.
    pub fn apply_pauli(&mut self, end: usize, pauli: Pauli) {
        let bit = end_bit(end);
        match pauli {
            Pauli::I => {}
            Pauli::X => self.flip(bit),
            Pauli::Z => self.phase_flip(bit),
            // Y = iXZ, so YρY† = X(ZρZ)X.
            Pauli::Y => {
                self.phase_flip(bit);
                self.flip(bit);
            }
        }
    }

    /// Dephasing (phase flip with probability `p`, clamped to
    /// `[0, 1/2]` like [`channels::dephasing`]) on `end`: every entry
    /// whose row and column differ in the end's bit shrinks by `1−2p`.
    pub fn dephase(&mut self, end: usize, p: f64) {
        let f = 1.0 - 2.0 * p.clamp(0.0, 0.5);
        let bit = end_bit(end);
        for (i, z) in self.m.iter_mut().enumerate() {
            if ((i >> 2) ^ i) & bit != 0 {
                *z = z.scale(f);
            }
        }
    }

    /// Single-qubit depolarizing channel on `end`: an entry whose row
    /// and column agree in the end's bit becomes `(1−p/2)` of itself
    /// plus `p/2` of its partner with both bits flipped; any other
    /// entry shrinks by `1−p`.
    pub fn depolarize(&mut self, end: usize, p: f64) {
        let p = p.clamp(0.0, 1.0);
        let bit = end_bit(end);
        let old = self.m;
        for (i, z) in self.m.iter_mut().enumerate() {
            *z = if ((i >> 2) ^ i) & bit == 0 {
                old[i].scale(1.0 - 0.5 * p) + old[i ^ (bit << 2) ^ bit].scale(0.5 * p)
            } else {
                old[i].scale(1.0 - p)
            };
        }
    }

    /// Two-qubit depolarizing channel: `(1−p)ρ + p·(I/4)·Tr ρ`.
    pub fn depolarize_2q(&mut self, p: f64) {
        let p = p.clamp(0.0, 1.0);
        let fill = 0.25 * p * self.trace();
        for z in &mut self.m {
            *z = z.scale(1.0 - p);
        }
        for i in 0..4 {
            self.m[5 * i].re += fill;
        }
    }

    /// Amplitude damping (relaxation towards `|0⟩` with probability
    /// `gamma`) on `end`. An entry with the end's bit clear in both row
    /// and column gains `γ` times its partner with the bit set in both;
    /// an entry with the bit set in exactly one shrinks by `√(1−γ)`,
    /// one with it set in both by `1−γ`. Each partner comes later in
    /// row-major order, so the pass runs in place.
    pub fn amplitude_damp(&mut self, end: usize, gamma: f64) {
        let g = gamma.clamp(0.0, 1.0);
        let s = (1.0 - g).sqrt();
        let bit = end_bit(end);
        for i in 0..16 {
            self.m[i] = match ((i >> 2) & bit != 0, i & bit != 0) {
                (false, false) => self.m[i] + self.m[i | (bit << 2) | bit].scale(g),
                (true, true) => self.m[i].scale(1.0 - g),
                _ => self.m[i].scale(s),
            };
        }
    }

    /// `ρ ← HρH` on `end`: each 2×2 block `[[a, b], [c, d]]` over the
    /// end's bit becomes `½[[a+b+c+d, a−b+c−d], [a+b−c−d, a−b−c+d]]`.
    fn hadamard(&mut self, end: usize) {
        let bit = end_bit(end);
        for r in (0..4).filter(|r| r & bit == 0) {
            for c in (0..4).filter(|c| c & bit == 0) {
                let (i0, i1) = (4 * r + c, 4 * (r | bit) + c);
                let (a, b, c_, d) = (self.m[i0], self.m[i0 | bit], self.m[i1], self.m[i1 | bit]);
                self.m[i0] = (a + b + c_ + d).scale(0.5);
                self.m[i0 | bit] = (a - b + c_ - d).scale(0.5);
                self.m[i1] = (a + b - c_ - d).scale(0.5);
                self.m[i1 | bit] = (a - b - c_ + d).scale(0.5);
            }
        }
    }

    /// `ρ ← S†ρS` on `end`: an entry with the end's bit set in its row
    /// only turns by `−i`, one with it set in its column only by `i`.
    fn s_dagger(&mut self, end: usize) {
        let bit = end_bit(end);
        for (i, z) in self.m.iter_mut().enumerate() {
            match ((i >> 2) & bit != 0, i & bit != 0) {
                (true, false) => *z = C64::new(z.im, -z.re),
                (false, true) => *z = C64::new(-z.im, z.re),
                _ => {}
            }
        }
    }

    /// Project `end` onto the Z eigenstate `outcome` and renormalise.
    fn project_z(&mut self, end: usize, outcome: bool) {
        let bit = end_bit(end);
        let kept = |i: usize| (i & bit != 0) == outcome;
        for (i, z) in self.m.iter_mut().enumerate() {
            if !(kept(i >> 2) && kept(i & 3)) {
                *z = C64::ZERO;
            }
        }
        let t = self.trace();
        debug_assert!(t > 1e-12, "projecting onto zero-probability outcome");
        let inv = 1.0 / t.max(1e-300);
        for z in &mut self.m {
            *z = z.scale(inv);
        }
    }

    /// Measure `end` in the Z basis using uniform sample `u ∈ [0,1)`.
    pub fn measure_z(&mut self, end: usize, u: f64) -> bool {
        let outcome = u < self.prob_one(end);
        self.project_z(end, outcome);
        outcome
    }

    /// Measure `end` in a Pauli basis with uniform sample `u`: the
    /// basis change of [`crate::measure::measure_pauli`] (H for X, S† then H
    /// for Y), then a Z measurement.
    ///
    /// # Panics
    /// On the identity basis.
    pub fn measure_pauli(&mut self, end: usize, basis: Pauli, u: f64) -> bool {
        match basis {
            Pauli::Z => {}
            Pauli::X => self.hadamard(end),
            Pauli::Y => {
                self.s_dagger(end);
                self.hadamard(end);
            }
            Pauli::I => panic!("cannot measure in the identity basis"),
        }
        self.measure_z(end, u)
    }
}

// ---------------------------------------------------------------------
// PairState
// ---------------------------------------------------------------------

/// The dual-representation state of one entangled pair: the
/// Bell-diagonal fast path while the state is X-form, the dense 4×4
/// matrix as the general fallback. Operations demote automatically
/// when they would leave the X family.
///
/// The dense variant is boxed, so a Bell-diagonal slot is not sized
/// for it: a `PairState` takes 56 bytes (288 with the dense state
/// inline).
#[derive(Clone, Debug)]
pub enum PairState {
    /// Closed-form X-state representation.
    Bell(BellDiagonal),
    /// Dense 4×4 density matrix.
    Dm(Box<DensePair>),
}

impl PairState {
    /// Wrap a dense state, using the fast representation when `rep`
    /// asks for it and the state is X-form.
    pub fn from_density(rho: DensityMatrix, rep: StateRep) -> Self {
        PairState::from_dense(DensePair::from_density(&rho), rep)
    }

    /// [`PairState::from_density`] for a state already in 4×4 form.
    pub fn from_dense(d: DensePair, rep: StateRep) -> Self {
        match rep {
            StateRep::Bell => match d.to_bell() {
                Some(b) => PairState::Bell(b),
                None => PairState::Dm(Box::new(d)),
            },
            StateRep::Dm => PairState::Dm(Box::new(d)),
        }
    }

    /// Whether the fast representation is active.
    pub fn is_bell(&self) -> bool {
        matches!(self, PairState::Bell(_))
    }

    /// The fast representation, if active.
    pub fn as_bell(&self) -> Option<&BellDiagonal> {
        match self {
            PairState::Bell(b) => Some(b),
            PairState::Dm(_) => None,
        }
    }

    /// The state as a 4×4 matrix, whichever representation holds it.
    pub fn to_dense(&self) -> DensePair {
        match self {
            PairState::Bell(b) => DensePair::from_bell(b),
            PairState::Dm(d) => **d,
        }
    }

    /// A dense copy of the state (cheap conversion for oracles/tests).
    pub fn to_density(&self) -> DensityMatrix {
        match self {
            PairState::Bell(b) => b.to_density(),
            PairState::Dm(d) => d.to_density(),
        }
    }

    /// Trace (≈1 for a valid state).
    pub fn trace(&self) -> f64 {
        match self {
            PairState::Bell(b) => b.trace(),
            PairState::Dm(d) => d.trace(),
        }
    }

    /// Purity `Tr ρ²`.
    pub fn purity(&self) -> f64 {
        match self {
            PairState::Bell(b) => b.purity(),
            PairState::Dm(d) => d.purity(),
        }
    }

    /// Fidelity to the Bell state `b`.
    pub fn fidelity_bell(&self, b: BellState) -> f64 {
        match self {
            PairState::Bell(s) => s.bell_coeff(b),
            PairState::Dm(d) => d.fidelity_bell(b),
        }
    }

    /// Probability that a Z-measurement of `end` yields 1.
    pub fn prob_one(&self, end: usize) -> f64 {
        match self {
            PairState::Bell(b) => b.prob_one(end),
            PairState::Dm(d) => d.prob_one(end),
        }
    }

    /// Apply a perfect Pauli to one end.
    pub fn apply_pauli(&mut self, end: usize, pauli: Pauli) {
        match self {
            PairState::Bell(b) => b.apply_pauli(end, pauli),
            PairState::Dm(d) => d.apply_pauli(end, pauli),
        }
    }

    /// Dephasing with phase-flip probability `p` on `end`.
    pub fn dephase(&mut self, end: usize, p: f64) {
        match self {
            PairState::Bell(b) => b.dephase(p),
            PairState::Dm(d) => d.dephase(end, p),
        }
    }

    /// Single-qubit depolarizing with probability `p` on `end`.
    pub fn depolarize(&mut self, end: usize, p: f64) {
        match self {
            PairState::Bell(b) => b.depolarize(end, p),
            PairState::Dm(d) => d.depolarize(end, p),
        }
    }

    /// Amplitude damping with decay probability `gamma` on `end`.
    pub fn amplitude_damp(&mut self, end: usize, gamma: f64) {
        match self {
            PairState::Bell(b) => b.amplitude_damp(end, gamma),
            PairState::Dm(d) => d.amplitude_damp(end, gamma),
        }
    }

    /// Two-qubit depolarizing with probability `p` on both ends.
    pub fn depolarize_2q(&mut self, p: f64) {
        match self {
            PairState::Bell(b) => b.depolarize_2q(p),
            PairState::Dm(d) => d.depolarize_2q(p),
        }
    }

    /// Measure `end` in a Pauli basis with uniform sample `u`. Z stays
    /// in the fast representation; X/Y demote first (the basis-change
    /// rotation leaves the X family).
    pub fn measure_pauli(&mut self, end: usize, basis: Pauli, u: f64) -> bool {
        match self {
            PairState::Bell(b) if basis == Pauli::Z => b.measure_z(end, u),
            PairState::Bell(b) => {
                let mut d = DensePair::from_bell(b);
                let outcome = d.measure_pauli(end, basis, u);
                *self = PairState::Dm(Box::new(d));
                outcome
            }
            PairState::Dm(d) => d.measure_pauli(end, basis, u),
        }
    }
}

// ---------------------------------------------------------------------
// Conditional-map tables for swap / distillation circuits
// ---------------------------------------------------------------------

/// One step of a measured two-pair circuit: a Kraus set (a gate is a
/// set of one) on its target qubits.
type CircuitOp<'a> = (&'a [CMatrix], &'a [usize]);

/// Values built at most once per process, by key, and kept for its
/// lifetime. The tables and POVM elements below are pure functions of
/// the gate noise, and a simulation meets a handful of noise levels, so
/// each built value is leaked to give lookups a `'static` reference.
/// A process that draws its noise from a continuum, as the property
/// suites do, keeps one entry per value drawn: about 8 KiB per table
/// and 1 KiB per POVM set. Each lookup takes the lock for a scan of
/// the entries.
struct Memo<K, V: 'static>(Mutex<Vec<(K, &'static V)>>);

impl<K: PartialEq, V> Memo<K, V> {
    const fn new() -> Self {
        Memo(Mutex::new(Vec::new()))
    }

    /// The value for `key`, built by `build` on first use. The lock is
    /// held while building, so no key is built twice.
    fn get(&self, key: K, build: impl FnOnce() -> V) -> &'static V {
        let mut entries = self.0.lock().expect("a table build panicked");
        if let Some(&(_, v)) = entries.iter().find(|(k, _)| *k == key) {
            return v;
        }
        let v: &'static V = Box::leak(Box::new(build()));
        entries.push((key, v));
        v
    }
}

/// Swap tables by the noise probabilities' bits and the orientation
/// `(ia, ib)`; `None` records an X-closure failure.
static SWAP_TABLES: Memo<(u64, u64, usize, usize), Option<CondTable>> = Memo::new();
/// Distillation tables by the noise probability's bits and the
/// sacrificed pair's orientation.
static DISTILL_TABLES: Memo<(u64, bool), Option<CondTable>> = Memo::new();
/// Swap POVM elements by the noise probabilities' bits.
static SWAP_POVMS: Memo<(u64, u64), SwapPovm> = Memo::new();

/// The exact conditional action of a measured two-pair circuit on
/// X-state inputs: for each pair of Z outcomes `(m1, m2)` on the two
/// measured qubits, the weight (probability contribution) and the
/// unnormalised reduced output state of each of the 36 X-basis input
/// products. See the module docs.
pub struct CondTable {
    /// `w[m1][m2][a][b]` — outcome weight of basis product `(a, b)`.
    w: [[[[f64; 6]; 6]; 2]; 2],
    /// `out[m1][m2][a][b]` — X-coefficients of the unnormalised
    /// conditional reduced state.
    out: [[[[[f64; 6]; 6]; 6]; 2]; 2],
}

/// The 6 X-basis elements as dense 4×4 matrices.
fn x_basis() -> [CMatrix; 6] {
    let mut basis: [CMatrix; 6] = std::array::from_fn(|_| CMatrix::zeros(4, 4));
    for (i, b) in basis.iter_mut().enumerate().take(4) {
        b[(i, i)] = C64::ONE;
    }
    basis[4][(0, 3)] = C64::ONE;
    basis[4][(3, 0)] = C64::ONE;
    basis[5][(1, 2)] = C64::ONE;
    basis[5][(2, 1)] = C64::ONE;
    basis
}

/// Extract `[p00, p01, p10, p11, u, v]` from a (possibly unnormalised)
/// hermitian 4×4 matrix, row-major, or `None` when it is not X-form:
/// every entry outside the X pattern, and every imaginary part on it,
/// must vanish within [`X_EPS`].
fn x_decompose(m: &[C64]) -> Option<[f64; 6]> {
    const ON: [usize; 8] = [0, 5, 10, 15, 3, 12, 6, 9];
    for (i, z) in m.iter().enumerate() {
        let bad = if ON.contains(&i) {
            z.im.abs() > X_EPS
        } else {
            z.abs() > X_EPS
        };
        if bad {
            return None;
        }
    }
    Some([m[0].re, m[5].re, m[10].re, m[15].re, m[3].re, m[6].re])
}

impl CondTable {
    /// Build the table for an arbitrary measured two-pair circuit: the
    /// four-qubit register is `[a0, a1, b0, b1]`; `ops` run in order,
    /// qubits `m1` then `m2` are Z-measured, and `keep` (two qubits)
    /// survive. Returns `None` if any conditional output leaves the
    /// X family — the callers then use the dense path.
    fn build(ops: &[CircuitOp], m1: usize, m2: usize, keep: [usize; 2]) -> Option<CondTable> {
        let basis = x_basis();
        let mut w = [[[[0.0f64; 6]; 6]; 2]; 2];
        let mut out = [[[[[0.0f64; 6]; 6]; 6]; 2]; 2];
        for a in 0..6 {
            for b in 0..6 {
                // The inputs are unnormalised, so the raw sandwich: no
                // trace renormalisation.
                let mut m = basis[a].kron(&basis[b]);
                for (kraus, targets) in ops {
                    state::sandwich(4, &mut m, kraus, targets);
                }
                for o1 in 0..2usize {
                    for o2 in 0..2usize {
                        let mut masked = m.clone();
                        state::project_z(4, &mut masked, m1, o1 == 1);
                        state::project_z(4, &mut masked, m2, o2 == 1);
                        let reduced = state::partial_trace(&masked, 4, &keep);
                        let coeffs = x_decompose(reduced.data())?;
                        w[o1][o2][a][b] = coeffs[0] + coeffs[1] + coeffs[2] + coeffs[3];
                        out[o1][o2][a][b] = coeffs;
                    }
                }
            }
        }
        Some(CondTable { w, out })
    }

    /// Table for the noisy entanglement-swap circuit of
    /// `qn_hardware::pairs::PairStore::swap`: CNOT(qa→qb), two-qubit
    /// depolarizing `p_two`, H(qa), single-qubit depolarizing
    /// `p_single`, Z-measure qa then qb. `ia`/`ib` locate each pair's
    /// qubit at the swapping node (register `[a0, a1, b0, b1]`; the
    /// outer ends `[1−ia, 2+(1−ib)]` survive, A's outer first).
    /// Built on the first call with this noise and orientation.
    pub fn swap(p_two: f64, p_single: f64, ia: usize, ib: usize) -> Option<&'static CondTable> {
        assert!(ia < 2 && ib < 2);
        let key = (p_two.to_bits(), p_single.to_bits(), ia, ib);
        SWAP_TABLES
            .get(key, || {
                let qa = ia;
                let qb = 2 + ib;
                let ops: [CircuitOp; 4] = [
                    (&[gates::cnot()], &[qa, qb]),
                    (&channels::depolarizing_2q(p_two), &[qa, qb]),
                    (&[gates::h()], &[qa]),
                    (&channels::depolarizing(p_single), &[qa]),
                ];
                CondTable::build(&ops, qa, qb, [1 - ia, 2 + (1 - ib)])
            })
            .as_ref()
    }

    /// Table for the BBPSSW distillation circuit of
    /// `qn_hardware::pairs::PairStore::distill`: bilateral CNOTs from
    /// the kept pair `[a0, a1]` onto the sacrificed pair, each followed
    /// by two-qubit depolarizing `p_two`; Z-measure the sacrificed
    /// qubits (the one co-located with `a0` first); keep `[a0, a1]`.
    /// `b0_at_na` gives the sacrificed pair's orientation. Built on the
    /// first call with this noise and orientation.
    pub fn distill(p_two: f64, b0_at_na: bool) -> Option<&'static CondTable> {
        DISTILL_TABLES
            .get((p_two.to_bits(), b0_at_na), || {
                let (b_na, b_nb) = if b0_at_na { (2, 3) } else { (3, 2) };
                let cnot = [gates::cnot()];
                let noise = channels::depolarizing_2q(p_two);
                let ops: [CircuitOp; 4] = [
                    (&cnot, &[0, b_na]),
                    (&noise, &[0, b_na]),
                    (&cnot, &[1, b_nb]),
                    (&noise, &[1, b_nb]),
                ];
                CondTable::build(&ops, b_na, b_nb, [0, 1])
            })
            .as_ref()
    }

    /// Run the circuit on two X-state inputs, sampling the measurement
    /// outcomes with `u1`, `u2` exactly as the dense path samples them
    /// (first measurement from the unnormalised marginal, second from
    /// the renormalised conditional). Returns the outcomes and the
    /// normalised surviving pair state.
    pub fn apply(
        &self,
        a: &BellDiagonal,
        b: &BellDiagonal,
        u1: f64,
        u2: f64,
    ) -> (bool, bool, BellDiagonal) {
        let x = a.coeffs();
        let y = b.coeffs();
        let mut s = [[0.0f64; 6]; 6];
        let mut wsum = [[0.0f64; 2]; 2];
        for i in 0..6 {
            for j in 0..6 {
                let p = x[i] * y[j];
                s[i][j] = p;
                wsum[0][0] += p * self.w[0][0][i][j];
                wsum[0][1] += p * self.w[0][1][i][j];
                wsum[1][0] += p * self.w[1][0][i][j];
                wsum[1][1] += p * self.w[1][1][i][j];
            }
        }
        // First outcome: unnormalised probability of reading 1 (the
        // dense path's `prob_one` on a trace-1 state).
        let p1 = (wsum[1][0] + wsum[1][1]).clamp(0.0, 1.0);
        let m1 = u1 < p1;
        let row = usize::from(m1);
        // Second outcome: conditional probability after renormalising.
        let denom = (wsum[row][0] + wsum[row][1]).max(1e-300);
        let p2 = (wsum[row][1] / denom).clamp(0.0, 1.0);
        let m2 = u2 < p2;
        let col = usize::from(m2);

        let table = &self.out[row][col];
        let mut z = [0.0f64; 6];
        for i in 0..6 {
            for j in 0..6 {
                let p = s[i][j];
                if p == 0.0 {
                    continue;
                }
                let o = &table[i][j];
                for (zk, ok) in z.iter_mut().zip(o) {
                    *zk += p * ok;
                }
            }
        }
        let t = (z[0] + z[1] + z[2] + z[3]).max(1e-300);
        let inv = 1.0 / t;
        for zk in &mut z {
            *zk *= inv;
        }
        (m1, m2, BellDiagonal::from_coeffs(z))
    }
}

// ---------------------------------------------------------------------
// The swap as a POVM contraction
// ---------------------------------------------------------------------

/// The noisy entanglement-swap circuit of
/// `qn_hardware::pairs::PairStore::swap` on dense pairs, as four POVM
/// elements on the two qubits it measures.
///
/// Call x the qubit of pair A at the swapping node and y that of pair
/// B. The circuit is Φ = N₁∘H∘N₂∘CNOT on (x, y) — CNOT(x→y), two-qubit
/// depolarizing N₂, H on x, single-qubit depolarizing N₁ on x — then Z
/// on x and Z on y. It touches no other qubit, so in the Heisenberg
/// picture each outcome `m = (m₁, m₂)` has one 4×4 element
/// `E_m = CNOT·N₂(H·N₁(|m⟩⟨m|)·H)·CNOT` (Pauli channels are
/// self-adjoint; CNOT and H are hermitian). The outcome weights are
/// `w_m = Re Tr[(r_A ⊗ r_B)·E_m]` with `r_A`, `r_B` the reduced states
/// of x and y, and the surviving pair, A's outer qubit first, is
///
/// ```text
/// σ[(oₐ,o_b),(oₐ',o_b')] = Σ ρ_A[(oₐ,x),(oₐ',x')]·ρ_B[(o_b,y),(o_b',y')]·E_m[(x',y'),(x,y)]
/// ```
///
/// divided by its trace. The orientation of each pair only permutes
/// indices, so one set of elements serves all four.
pub struct SwapPovm {
    /// `e[2·m₁ + m₂]`, row-major on `(x, y)` with x the most
    /// significant bit.
    e: [[C64; 16]; 4],
}

impl SwapPovm {
    /// The four elements at two-qubit depolarizing `p_two` and
    /// single-qubit depolarizing `p_single`, built on the first call
    /// with this noise by the 2-qubit dense sandwich (a zero
    /// probability skips its channel, as the circuit does).
    pub fn get(p_two: f64, p_single: f64) -> &'static SwapPovm {
        SWAP_POVMS.get((p_two.to_bits(), p_single.to_bits()), || {
            let single = channels::depolarizing(p_single);
            let two = channels::depolarizing_2q(p_two);
            let e = std::array::from_fn(|m| {
                let mut e = CMatrix::zeros(4, 4);
                e[(m, m)] = C64::ONE;
                if p_single > 0.0 {
                    state::sandwich(2, &mut e, &single, &[0]);
                }
                state::sandwich(2, &mut e, &[gates::h()], &[0]);
                if p_two > 0.0 {
                    state::sandwich(2, &mut e, &two, &[0, 1]);
                }
                state::sandwich(2, &mut e, &[gates::cnot()], &[0, 1]);
                let mut out = [C64::ZERO; 16];
                out.copy_from_slice(e.data());
                out
            });
            SwapPovm { e }
        })
    }

    /// Run the swap on pair A (node qubit at end `ia`) and pair B (end
    /// `ib`), sampling the outcomes with `u1`, `u2` the way the circuit
    /// does: `m₁` from its weight, `m₂` from its weight given `m₁`.
    /// Returns the outcomes and the normalised surviving pair.
    pub fn apply(
        &self,
        a: &DensePair,
        b: &DensePair,
        ia: usize,
        ib: usize,
        u1: f64,
        u2: f64,
    ) -> (bool, bool, DensePair) {
        // r_A ⊗ r_B on (x, y), and the four weights.
        let reduced = |p: &DensePair, end: usize, q: usize, qp: usize| {
            let idx = pair_index(end);
            p.m[4 * idx[0][q] + idx[0][qp]] + p.m[4 * idx[1][q] + idx[1][qp]]
        };
        let mut r = [C64::ZERO; 16];
        for (i, z) in r.iter_mut().enumerate() {
            let (x, y, xp, yp) = (i >> 3, (i >> 2) & 1, (i >> 1) & 1, i & 1);
            *z = reduced(a, ia, x, xp) * reduced(b, ib, y, yp);
        }
        let w: [f64; 4] = std::array::from_fn(|m| {
            // Tr(R·E) = Σ R[i,j]·E[j,i] = Σ R[i,j]·conj(E[i,j]).
            r.iter()
                .zip(&self.e[m])
                .map(|(r, e)| r.re * e.re + r.im * e.im)
                .sum()
        });

        let p1 = (w[2] + w[3]).clamp(0.0, 1.0);
        let m1 = u1 < p1;
        let row = 2 * usize::from(m1);
        let denom = (w[row] + w[row + 1]).max(1e-300);
        let p2 = (w[row + 1] / denom).clamp(0.0, 1.0);
        let m2 = u2 < p2;

        let mut sigma = self.contract(row + usize::from(m2), a, b, ia, ib);
        let inv = 1.0 / sigma.trace().max(1e-300);
        for z in &mut sigma.m {
            *z = z.scale(inv);
        }
        (m1, m2, sigma)
    }

    /// The unnormalised surviving pair for outcome `2·m₁ + m₂`, A's
    /// outer qubit first.
    fn contract(&self, m: usize, a: &DensePair, b: &DensePair, ia: usize, ib: usize) -> DensePair {
        let (ai, bi, a, b) = (pair_index(ia), pair_index(ib), &a.m, &b.m);
        let e = &self.e[m];
        // B with E_m first: g[x', x, o_b, o_b'] = Σ ρ_B[(o_b,y),(o_b',y')]·E_m[(x',y'),(x,y)].
        let mut g = [C64::ZERO; 16];
        for (i, z) in g.iter_mut().enumerate() {
            let (xp, x, ob, obp) = (i >> 3, (i >> 2) & 1, (i >> 1) & 1, i & 1);
            for y in 0..2 {
                for yp in 0..2 {
                    *z += b[4 * bi[ob][y] + bi[obp][yp]] * e[4 * (2 * xp + yp) + 2 * x + y];
                }
            }
        }
        // Then A: σ[(oₐ,o_b),(oₐ',o_b')] = Σ ρ_A[(oₐ,x),(oₐ',x')]·g[x', x, o_b, o_b'].
        let mut out = [C64::ZERO; 16];
        for (i, z) in out.iter_mut().enumerate() {
            let (oa, ob, oap, obp) = (i >> 3, (i >> 2) & 1, (i >> 1) & 1, i & 1);
            for x in 0..2 {
                for xp in 0..2 {
                    *z += a[4 * ai[oa][x] + ai[oap][xp]] * g[8 * xp + 4 * x + 2 * ob + obp];
                }
            }
        }
        DensePair { m: out }
    }
}

/// `index[o][q]`: the index of outer-qubit value `o` and node-qubit
/// value `q` in a pair whose qubit at the swapping node is end
/// `node_end` (qubit 0 the most significant bit).
fn pair_index(node_end: usize) -> [[usize; 2]; 2] {
    std::array::from_fn(|o| {
        std::array::from_fn(|q| if node_end == 0 { 2 * q + o } else { 2 * o + q })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A named step applied to two representations side by side.
    type Step<'a, A, B> = (&'a str, Box<dyn Fn(&mut A, &mut B)>);

    fn werner(f: f64) -> BellDiagonal {
        let g = (1.0 - f) / 3.0;
        let mut c = [g; 4];
        c[BellState::PHI_PLUS.index()] = f;
        BellDiagonal::from_bell_coeffs(c)
    }

    fn assert_close(a: &BellDiagonal, d: &DensityMatrix, eps: f64, what: &str) {
        for b in BellState::ALL {
            let fb = a.bell_coeff(b);
            let fd = d.fidelity_pure(&b.amplitudes());
            assert!(
                (fb - fd).abs() < eps,
                "{what}: {b} coeff {fb} vs dense {fd}"
            );
        }
        for end in 0..2 {
            let pb = a.prob_one(end);
            let pd = d.prob_one(end);
            assert!(
                (pb - pd).abs() < eps,
                "{what}: prob_one({end}) {pb} vs {pd}"
            );
        }
        assert!((a.trace() - d.trace()).abs() < eps, "{what}: trace");
        assert!((a.purity() - d.purity()).abs() < eps, "{what}: purity");
    }

    #[test]
    fn bell_states_round_trip() {
        for b in BellState::ALL {
            let bd = BellDiagonal::from_bell_state(b);
            assert!((bd.bell_coeff(b) - 1.0).abs() < 1e-12);
            let dm = bd.to_density();
            assert!(dm.matrix().approx_eq(b.density().matrix(), 1e-12));
            let back = BellDiagonal::from_density(&dm).expect("X-form");
            assert_eq!(back, bd);
        }
    }

    #[test]
    fn closed_form_channels_match_dense() {
        for b in BellState::ALL {
            let mut bd = werner(0.83);
            // Rotate the Werner state into frame b like the stack does.
            bd.apply_pauli(1, BellState::PHI_PLUS.correction_to(b));
            let mut dm = bd.to_density();
            let steps: Vec<Step<BellDiagonal, DensityMatrix>> = vec![
                (
                    "dephase0",
                    Box::new(|x, d| {
                        x.dephase(0.07);
                        d.apply_kraus(&channels::dephasing(0.07), &[0]);
                    }),
                ),
                (
                    "damp0",
                    Box::new(|x, d| {
                        x.amplitude_damp(0, 0.13);
                        d.apply_kraus(&channels::amplitude_damping(0.13), &[0]);
                    }),
                ),
                (
                    "depol1",
                    Box::new(|x, d| {
                        x.depolarize(1, 0.21);
                        d.apply_kraus(&channels::depolarizing(0.21), &[1]);
                    }),
                ),
                (
                    "damp1",
                    Box::new(|x, d| {
                        x.amplitude_damp(1, 0.4);
                        d.apply_kraus(&channels::amplitude_damping(0.4), &[1]);
                    }),
                ),
                (
                    "flip0",
                    Box::new(|x, d| {
                        x.bit_flip(0, 0.3);
                        d.apply_kraus(&channels::bit_flip(0.3), &[0]);
                    }),
                ),
                (
                    "pauli_y1",
                    Box::new(|x, d| {
                        x.apply_pauli(1, Pauli::Y);
                        d.apply_unitary(&gates::y(), &[1]);
                    }),
                ),
                (
                    "depol2q",
                    Box::new(|x, d| {
                        x.depolarize_2q(0.11);
                        d.apply_kraus(&channels::depolarizing_2q(0.11), &[0, 1]);
                    }),
                ),
            ];
            for (what, step) in steps {
                step(&mut bd, &mut dm);
                assert_close(&bd, &dm, 1e-12, what);
                // The dense state must still be X-form (closure).
                let x = BellDiagonal::from_density(&dm).expect("X closure");
                assert_close(&x, &bd.to_density(), 1e-12, what);
            }
        }
    }

    #[test]
    fn measurement_matches_dense() {
        for u in [0.05, 0.45, 0.55, 0.95] {
            let mut bd = werner(0.71);
            bd.amplitude_damp(0, 0.2); // asymmetric populations
            let mut dm = bd.to_density();
            let ob = bd.measure_z(0, u);
            let od = dm.measure_z(0, u);
            assert_eq!(ob, od, "u={u}");
            assert_close(&bd, &dm, 1e-12, "post first Z");
            let ob2 = bd.measure_z(1, 0.5);
            let od2 = dm.measure_z(1, 0.5);
            assert_eq!(ob2, od2, "second Z, u={u}");
        }
    }

    #[test]
    fn swap_table_matches_dense_circuit() {
        let p_two = channels::depolarizing_param_for_fidelity(0.98, 4);
        let p_single = channels::depolarizing_param_for_fidelity(0.99, 2);
        for (ia, ib) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let table = CondTable::swap(p_two, p_single, ia, ib).expect("X closure");
            let mut a = werner(0.87);
            a.amplitude_damp(0, 0.15);
            let mut b = werner(0.92);
            b.apply_pauli(1, Pauli::X);
            b.amplitude_damp(1, 0.05);
            for (u1, u2) in [(0.2, 0.7), (0.8, 0.3), (0.49, 0.51)] {
                // Dense reference: the exact sequence of PairStore::swap.
                let mut joint = a.to_density().tensor(&b.to_density());
                let (qa, qb) = (ia, 2 + ib);
                joint.apply_unitary(&gates::cnot(), &[qa, qb]);
                joint.apply_kraus(&channels::depolarizing_2q(p_two), &[qa, qb]);
                joint.apply_unitary(&gates::h(), &[qa]);
                joint.apply_kraus(&channels::depolarizing(p_single), &[qa]);
                let m1d = joint.measure_z(qa, u1);
                let m2d = joint.measure_z(qb, u2);
                let post_d = joint.partial_trace_keep(&[1 - ia, 2 + (1 - ib)]);

                let (m1, m2, post) = table.apply(&a, &b, u1, u2);
                assert_eq!((m1, m2), (m1d, m2d), "orientation ({ia},{ib})");
                assert!(
                    post.to_density().matrix().approx_eq(post_d.matrix(), 1e-12),
                    "post-swap state, orientation ({ia},{ib})"
                );
            }
        }
    }

    #[test]
    fn distill_table_matches_dense_circuit() {
        let p_two = channels::depolarizing_param_for_fidelity(0.995, 4);
        for b0_at_na in [true, false] {
            let table = CondTable::distill(p_two, b0_at_na).expect("X closure");
            let a = werner(0.8);
            let mut b = werner(0.86);
            b.amplitude_damp(0, 0.1);
            for (u1, u2) in [(0.1, 0.9), (0.6, 0.2), (0.35, 0.65)] {
                let mut joint = a.to_density().tensor(&b.to_density());
                let (b_na, b_nb) = if b0_at_na { (2, 3) } else { (3, 2) };
                for (ctrl, tgt) in [(0usize, b_na), (1usize, b_nb)] {
                    joint.apply_unitary(&gates::cnot(), &[ctrl, tgt]);
                    joint.apply_kraus(&channels::depolarizing_2q(p_two), &[ctrl, tgt]);
                }
                let m1d = joint.measure_z(b_na, u1);
                let m2d = joint.measure_z(b_nb, u2);
                let post_d = joint.partial_trace_keep(&[0, 1]);

                let (m1, m2, post) = table.apply(&a, &b, u1, u2);
                assert_eq!((m1, m2), (m1d, m2d), "orientation {b0_at_na}");
                assert!(
                    post.to_density().matrix().approx_eq(post_d.matrix(), 1e-12),
                    "post-distill state, orientation {b0_at_na}"
                );
            }
        }
    }

    /// FNV-1a digest of every entry of the tables and POVM elements
    /// pinned by `tables_keep_their_bits`.
    const TABLE_DIGEST: u64 = 0x04da_76f2_bfd2_be15;

    /// 64-bit FNV-1a over the little-endian bytes of each value's bits.
    fn fnv1a(h: u64, vals: impl IntoIterator<Item = f64>) -> u64 {
        vals.into_iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// The conditional-map tables and the swap POVM keep their bits: the
    /// swap table in all four orientations at the simulation hardware's
    /// swap noise (two-qubit gate fidelity 0.998, a perfect single-qubit
    /// gate) and at a noisy single-qubit gate, the distillation table in
    /// both orientations, and the POVM at both noise levels. Nothing
    /// else gates these bits: the `dm` baselines never build a table.
    /// A second lookup with the same key returns the same table.
    #[test]
    fn tables_keep_their_bits() {
        let p_two = channels::depolarizing_param_for_fidelity(0.998, 4);
        let noisy_single = channels::depolarizing_param_for_fidelity(0.99, 2);
        let mut tables = Vec::new();
        for p_single in [0.0, noisy_single] {
            for (ia, ib) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                tables.push(CondTable::swap(p_two, p_single, ia, ib).expect("X closure"));
            }
        }
        for b0_at_na in [true, false] {
            tables.push(CondTable::distill(p_two, b0_at_na).expect("X closure"));
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        for t in &tables {
            let w = t.w.as_flattened().as_flattened().as_flattened();
            let out = t.out.as_flattened().as_flattened().as_flattened();
            h = fnv1a(h, w.iter().chain(out.as_flattened()).copied());
        }
        for p_single in [0.0, noisy_single] {
            let povm = SwapPovm::get(p_two, p_single);
            h = fnv1a(h, povm.e.iter().flatten().flat_map(|z| [z.re, z.im]));
            assert!(std::ptr::eq(povm, SwapPovm::get(p_two, p_single)));
        }
        assert_eq!(h, TABLE_DIGEST, "{h:#018x}");
        let again = CondTable::swap(p_two, noisy_single, 1, 0);
        assert!(std::ptr::eq(tables[6], again.expect("X closure")));
        let again = CondTable::distill(p_two, false);
        assert!(std::ptr::eq(tables[9], again.expect("X closure")));
    }

    #[test]
    fn a_bell_slot_is_not_sized_for_the_dense_state() {
        // The dense variant is boxed: a pair slot holds the six numbers
        // of a Bell-diagonal state and a tag, not sixteen complex ones.
        let (slot, bell) = (
            std::mem::size_of::<PairState>(),
            std::mem::size_of::<BellDiagonal>(),
        );
        assert!(slot <= bell + 8, "PairState takes {slot} bytes");
    }

    #[test]
    fn state_rep_parses_env_values() {
        assert_eq!(StateRep::Bell.as_str(), "bell");
        assert_eq!(StateRep::Dm.as_str(), "dm");
    }

    #[test]
    fn pair_state_demotes_on_xy_measurement() {
        let mut s = PairState::Bell(BellDiagonal::from_bell_state(BellState::PHI_PLUS));
        assert!(s.is_bell());
        let _ = s.measure_pauli(0, Pauli::X, 0.3);
        assert!(!s.is_bell(), "X-basis readout must demote");
        // Z-basis readout keeps the fast representation.
        let mut z = PairState::Bell(BellDiagonal::from_bell_state(BellState::PHI_PLUS));
        let _ = z.measure_pauli(0, Pauli::Z, 0.3);
        assert!(z.is_bell());
    }
}
