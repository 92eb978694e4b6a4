//! Dense test inputs for the quantum property suites: random mixed,
//! full-rank and X-form states drawn from one seed, and a bit-for-bit
//! matrix comparison.

use qn_quantum::matrix::CMatrix;
use qn_quantum::{DensityMatrix, C64};

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
/// components whose signs are then drawn afresh.
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
fn resign_zeros(m: &mut CMatrix, r: &mut SplitMix) {
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
