//! The dense density-matrix reference: every operator embedded in the
//! full register and applied with two dense products. This is the
//! arithmetic that `qn_quantum`'s structure-aware kernels must reproduce
//! bit for bit; the kernel suites compare against it with
//! `f64::to_bits`.

use qn_quantum::matrix::{embed_op, CMatrix};
use qn_quantum::{DensityMatrix, C64};

/// Tolerance of `DensityMatrix::apply_kraus`'s trace renormalisation.
const RENORM_EPS: f64 = 1e-9;

fn num_qubits(m: &CMatrix) -> usize {
    m.rows().trailing_zeros() as usize
}

/// `U·ρ·U†` with `U` embedded on `targets`.
pub fn apply_unitary(rho: &CMatrix, u: &CMatrix, targets: &[usize]) -> CMatrix {
    let full = embed_op(num_qubits(rho), u, targets);
    let mut tmp = CMatrix::zeros(1, 1);
    let mut out = CMatrix::zeros(1, 1);
    CMatrix::mul_into(&full, rho, &mut tmp);
    CMatrix::mul_dagger_into(&tmp, &full, &mut out);
    out
}

/// `Σₖ Kₖ·ρ·Kₖ†` with each `Kₖ` embedded on `targets`, each term formed
/// in full before it is added, then `DensityMatrix::apply_kraus`'s
/// trace renormalisation.
pub fn apply_kraus(rho: &CMatrix, kraus: &[CMatrix], targets: &[usize]) -> CMatrix {
    let dim = rho.rows();
    let mut acc = CMatrix::zeros(dim, dim);
    let mut tmp = CMatrix::zeros(1, 1);
    let mut term = CMatrix::zeros(1, 1);
    for k in kraus {
        let full = embed_op(num_qubits(rho), k, targets);
        CMatrix::mul_into(&full, rho, &mut tmp);
        CMatrix::mul_dagger_into(&tmp, &full, &mut term);
        acc.add_assign_mat(&term);
    }
    let tr = acc.trace().re;
    if (tr - 1.0).abs() > RENORM_EPS {
        acc.scale_in_place(1.0 / tr);
    }
    acc
}

/// `P·ρ·P` with `P` the diagonal projector of `qubit` onto `outcome`,
/// renormalised by its trace.
pub fn project_z(rho: &CMatrix, qubit: usize, outcome: bool) -> CMatrix {
    let n = num_qubits(rho);
    let dim = rho.rows();
    let mut p = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        if (i >> (n - 1 - qubit)) & 1 == usize::from(outcome) {
            p[(i, i)] = C64::ONE;
        }
    }
    let mut out = &(&p * rho) * &p;
    let tr = out.trace().re;
    out.scale_in_place(1.0 / tr.max(1e-300));
    out
}

/// `DensityMatrix::measure_z` on the reference: outcome 1 iff `u` falls
/// below its probability, then the projection.
pub fn measure_z(rho: &CMatrix, qubit: usize, u: f64) -> (bool, CMatrix) {
    let n = num_qubits(rho);
    let p1: f64 = (0..rho.rows())
        .filter(|i| (i >> (n - 1 - qubit)) & 1 == 1)
        .map(|i| rho[(i, i)].re)
        .fold(0.0, |acc, x| acc + x);
    let outcome = u < p1.clamp(0.0, 1.0);
    (outcome, project_z(rho, qubit, outcome))
}

/// Whether two matrices agree in shape and in every bit of every
/// component (so `+0` and `−0` differ).
pub fn same_bits(a: &CMatrix, b: &CMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Partial trace keeping `keep`, in that order.
pub fn partial_trace(rho: &CMatrix, keep: &[usize]) -> CMatrix {
    let n = num_qubits(rho);
    let k = keep.len();
    let rest: Vec<usize> = (0..n).filter(|q| !keep.contains(q)).collect();
    let compose = |a: usize, r: usize| -> usize {
        let mut idx = 0usize;
        for (pos, q) in keep.iter().enumerate() {
            idx |= ((a >> (k - 1 - pos)) & 1) << (n - 1 - q);
        }
        for (pos, q) in rest.iter().enumerate() {
            idx |= ((r >> (rest.len() - 1 - pos)) & 1) << (n - 1 - q);
        }
        idx
    };
    let mut out = CMatrix::zeros(1 << k, 1 << k);
    for a in 0..1usize << k {
        for b in 0..1usize << k {
            let mut sum = C64::ZERO;
            for r in 0..1usize << rest.len() {
                sum += rho[(compose(a, r), compose(b, r))];
            }
            out[(a, b)] = sum;
        }
    }
    out
}

/// splitmix64, for test inputs that are pure functions of one seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `0.0` or `-0.0`.
    pub fn signed_zero(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            0.0
        } else {
            -0.0
        }
    }

    /// A signed zero one time in three, else uniform in `[−1, 1)`.
    pub fn component(&mut self) -> f64 {
        if self.below(3) == 0 {
            self.signed_zero()
        } else {
            2.0 * self.unit() - 1.0
        }
    }
}

/// A random `n`-qubit mixed state: a weighted sum of one to three
/// projectors onto sparse vectors, normalised, with many exact zero
/// components whose signs are then drawn afresh. The kernels leave out
/// products by their zero factors, so zeros are where a divergence from
/// this reference would show.
pub fn random_state(n: usize, r: &mut SplitMix) -> DensityMatrix {
    let dim = 1usize << n;
    let mut m = CMatrix::zeros(dim, dim);
    for _ in 0..1 + r.below(3) {
        let w = r.unit() + 0.1;
        let mut amps: Vec<C64> = (0..dim)
            .map(|_| {
                if r.below(2) == 0 {
                    C64::new(r.signed_zero(), r.signed_zero())
                } else {
                    C64::new(r.component(), r.component())
                }
            })
            .collect();
        amps[r.below(dim)] = C64::new(r.unit() + 0.1, r.component());
        for i in 0..dim {
            for j in 0..dim {
                m[(i, j)] += (amps[i] * amps[j].conj()).scale(w);
            }
        }
    }
    let mut m = m.scale(1.0 / m.trace().re);
    resign_zeros(&mut m, r);
    DensityMatrix::from_matrix(m)
}

/// A random full-rank `n`-qubit state: a mixture of `2ⁿ + 1`
/// projectors onto dense random vectors, so no eigenvalue and almost
/// surely no entry is zero.
pub fn random_full_rank_state(n: usize, r: &mut SplitMix) -> DensityMatrix {
    let dim = 1usize << n;
    let mut m = CMatrix::zeros(dim, dim);
    for _ in 0..=dim {
        let w = r.unit() + 0.1;
        let amps: Vec<C64> = (0..dim)
            .map(|_| C64::new(2.0 * r.unit() - 1.0, 2.0 * r.unit() - 1.0))
            .collect();
        for i in 0..dim {
            for j in 0..dim {
                m[(i, j)] += (amps[i] * amps[j].conj()).scale(w);
            }
        }
    }
    let tr = m.trace().re;
    DensityMatrix::from_matrix(m.scale(1.0 / tr))
}

/// A random X-form pair state, the form of every pair the simulator
/// builds: populations on the diagonal and conjugate coherences on the
/// anti-diagonal, any of which may be an exact zero (a coherence of a
/// Bell-diagonal state, a population after decay), and a zero of random
/// sign everywhere else.
pub fn random_x_state(r: &mut SplitMix) -> DensityMatrix {
    let mut p: Vec<f64> = (0..4)
        .map(|_| {
            if r.below(4) == 0 {
                0.0
            } else {
                r.unit() + 0.05
            }
        })
        .collect();
    p[r.below(4)] += 0.1;
    let total: f64 = p.iter().sum();
    let mut m = CMatrix::zeros(4, 4);
    for (i, pi) in p.iter().enumerate() {
        m[(i, i)] = C64::real(pi / total);
    }
    for (i, j) in [(0, 3), (1, 2)] {
        if r.below(3) > 0 {
            let bound = (p[i] * p[j]).sqrt() / total;
            let c = C64::new(r.component(), r.component()).scale(0.7 * bound);
            m[(i, j)] = c;
            m[(j, i)] = c.conj();
        }
    }
    resign_zeros(&mut m, r);
    DensityMatrix::from_matrix(m)
}

/// Draw the sign of every zero component of `m` afresh.
pub fn resign_zeros(m: &mut CMatrix, r: &mut SplitMix) {
    let dim = m.rows();
    for i in 0..dim {
        for j in 0..dim {
            let z = &mut m[(i, j)];
            if z.re == 0.0 {
                z.re = r.signed_zero();
            }
            if z.im == 0.0 {
                z.im = r.signed_zero();
            }
        }
    }
}
