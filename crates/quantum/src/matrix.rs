//! Dense complex matrices.
//!
//! The engine only ever manipulates matrices up to 16×16 (four qubits:
//! two entangled pairs joined for a distillation round), so a simple
//! row-major `Vec` with an O(n³) product serves every product, with no
//! BLAS. `DensityMatrix` applies gates and Kraus operators with the
//! dense products here: [`embed_op`] into the full register, then
//! [`CMatrix::mul_into`] and [`CMatrix::mul_dagger_into`]. No hot path
//! builds a `CMatrix`: the simulator's pairs are closed-form 4×4
//! states, and the n-qubit matrices only build the swap and
//! distillation tables (once per process) and run dense distillation.

use crate::complex::C64;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense complex matrix.
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    /// Row-major entries.
    data: Vec<C64>,
}

impl CMatrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Reshape to `rows`×`cols` and zero every entry, keeping the
    /// allocation.
    fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, C64::ZERO);
    }

    /// `out = a · b`, reusing `out`'s storage. Same arithmetic order as
    /// the allocating `Mul` impl (bit-identical results).
    pub fn mul_into(a: &CMatrix, b: &CMatrix, out: &mut CMatrix) {
        assert_eq!(a.cols, b.rows, "dimension mismatch in matrix product");
        out.reset_zeros(a.rows, b.cols);
        let bs = &b.data;
        let os = &mut out.data;
        for i in 0..a.rows {
            for k in 0..a.cols {
                let x = a[(i, k)];
                if x == C64::ZERO {
                    continue;
                }
                let orow = i * b.cols;
                let brow = k * b.cols;
                for j in 0..b.cols {
                    os[orow + j] += x * bs[brow + j];
                }
            }
        }
    }

    /// `out = a · b†` without materialising `b†`, reusing `out`'s
    /// storage. Loop order matches `&a * &b.dagger()` exactly.
    pub fn mul_dagger_into(a: &CMatrix, b: &CMatrix, out: &mut CMatrix) {
        assert_eq!(a.cols, b.cols, "dimension mismatch in a·b†");
        out.reset_zeros(a.rows, b.rows);
        let os = &mut out.data;
        for i in 0..a.rows {
            for k in 0..a.cols {
                let x = a[(i, k)];
                if x == C64::ZERO {
                    continue;
                }
                let orow = i * b.rows;
                for j in 0..b.rows {
                    os[orow + j] += x * b[(j, k)].conj();
                }
            }
        }
    }

    /// Entry-wise `self += other`.
    pub fn add_assign_mat(&mut self, other: &CMatrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Entry-wise in-place scaling by a real factor.
    pub fn scale_in_place(&mut self, k: f64) {
        for z in &mut self.data {
            *z = z.scale(k);
        }
    }

    /// The n×n identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Build from nested row slices (for gate definitions and tests).
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        CMatrix {
            rows: r,
            cols: c,
            data: rows.iter().flat_map(|row| row.iter().copied()).collect(),
        }
    }

    /// Build from a flat row-major slice of real values.
    pub fn from_reals(rows: usize, cols: usize, vals: &[f64]) -> Self {
        assert_eq!(vals.len(), rows * cols);
        CMatrix {
            rows,
            cols,
            data: vals.iter().map(|v| C64::real(*v)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Matrix trace.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square());
        (0..self.rows).fold(C64::ZERO, |acc, i| acc + self[(i, i)])
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == C64::ZERO {
                    continue;
                }
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = a * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Multiply every entry by a real scalar.
    pub fn scale(&self, k: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// Multiply every entry by a complex scalar.
    pub fn scale_c(&self, k: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * k).collect(),
        }
    }

    /// Hermiticity check within tolerance.
    pub fn is_hermitian(&self, eps: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if !self[(i, j)].approx_eq(self[(j, i)].conj(), eps) {
                    return false;
                }
            }
        }
        true
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &CMatrix, eps: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, eps))
    }

    /// Unitarity check `U†U ≈ I` within tolerance.
    pub fn is_unitary(&self, eps: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = &self.dagger() * self;
        prod.approx_eq(&CMatrix::identity(self.rows), eps)
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[C64] {
        &self.data
    }

    /// Raw row-major data, mutable.
    pub(crate) fn data_mut(&mut self) -> &mut [C64] {
        &mut self.data
    }
}

/// Panic unless `qubits` are distinct and below `n`.
pub(crate) fn assert_distinct(n: usize, qubits: &[usize]) {
    let mut seen = 0usize;
    for &q in qubits {
        assert!(q < n, "qubit {q} out of range for {n} qubits");
        assert!(seen & (1 << q) == 0, "duplicate qubit {q}");
        seen |= 1 << q;
    }
}

/// Expand a `k`-qubit operator onto the given (distinct) target qubits
/// of an `n`-qubit space. The first target corresponds to the most
/// significant bit of the operator's index (qubit 0 = MSB, matching
/// [`crate::gates`]).
pub fn embed_op(n: usize, op: &CMatrix, targets: &[usize]) -> CMatrix {
    let k = targets.len();
    assert_eq!(op.rows(), 1 << k, "operator size mismatch");
    assert_distinct(n, targets);
    let dim = 1usize << n;
    let target_mask: usize = targets.iter().map(|q| 1usize << (n - 1 - q)).sum();
    let mut out = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        // Sub-index of i over the targets (first target = MSB).
        let mut ti = 0usize;
        for q in targets {
            ti = (ti << 1) | ((i >> (n - 1 - q)) & 1);
        }
        let rest = i & !target_mask;
        for tj in 0..(1usize << k) {
            let v = op[(ti, tj)];
            if v == C64::ZERO {
                continue;
            }
            let mut j = rest;
            for (pos, q) in targets.iter().enumerate() {
                let bit = (tj >> (k - 1 - pos)) & 1;
                j |= bit << (n - 1 - q);
            }
            out[(i, j)] = v;
        }
    }
    out
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        debug_assert!(i < self.rows && j < self.cols);
        let cols = self.cols;
        &mut self.data[i * cols + j]
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        CMatrix::mul_into(self, rhs, &mut out);
        out
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?}  ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: f64) -> C64 {
        C64::real(v)
    }

    #[test]
    fn identity_multiplication() {
        let m = CMatrix::from_reals(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = CMatrix::identity(2);
        assert!((&m * &i).approx_eq(&m, 1e-15));
        assert!((&i * &m).approx_eq(&m, 1e-15));
    }

    #[test]
    fn product_matches_hand_computation() {
        let a = CMatrix::from_reals(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = CMatrix::from_reals(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = &a * &b;
        let expect = CMatrix::from_reals(2, 2, &[58.0, 64.0, 139.0, 154.0]);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn dagger_of_complex_matrix() {
        let m = CMatrix::from_rows(&[
            &[C64::new(1.0, 2.0), C64::new(0.0, -1.0)],
            &[C64::new(3.0, 0.0), C64::new(0.0, 4.0)],
        ]);
        let d = m.dagger();
        assert_eq!(d[(0, 0)], C64::new(1.0, -2.0));
        assert_eq!(d[(0, 1)], C64::new(3.0, 0.0));
        assert_eq!(d[(1, 0)], C64::new(0.0, 1.0));
        assert_eq!(d[(1, 1)], C64::new(0.0, -4.0));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let a = CMatrix::from_reals(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let b = CMatrix::from_reals(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let k = a.kron(&b);
        assert_eq!(k.rows(), 4);
        // I ⊗ X swaps within blocks.
        assert_eq!(k[(0, 1)], r(1.0));
        assert_eq!(k[(1, 0)], r(1.0));
        assert_eq!(k[(2, 3)], r(1.0));
        assert_eq!(k[(3, 2)], r(1.0));
        assert_eq!(k[(0, 0)], r(0.0));
    }

    #[test]
    fn trace_adds_diagonal() {
        let m = CMatrix::from_reals(3, 3, &[1.0, 9.0, 9.0, 9.0, 2.0, 9.0, 9.0, 9.0, 3.0]);
        assert_eq!(m.trace(), r(6.0));
    }

    #[test]
    fn hermitian_and_unitary_checks() {
        let h = CMatrix::from_rows(&[
            &[r(1.0), C64::new(0.0, -1.0)],
            &[C64::new(0.0, 1.0), r(2.0)],
        ]);
        assert!(h.is_hermitian(1e-12));
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let had = CMatrix::from_reals(2, 2, &[s, s, s, -s]);
        assert!(had.is_unitary(1e-12));
        assert!(!CMatrix::from_reals(2, 2, &[1.0, 1.0, 0.0, 1.0]).is_unitary(1e-12));
    }

    #[test]
    fn mul_into_matches_allocating_mul() {
        let a = CMatrix::from_reals(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = CMatrix::from_reals(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = CMatrix::zeros(1, 1); // wrong shape: must be reset
        CMatrix::mul_into(&a, &b, &mut out);
        assert_eq!(out, &a * &b);
    }

    #[test]
    fn mul_dagger_into_matches_explicit_dagger() {
        let a = CMatrix::from_rows(&[
            &[C64::new(1.0, 2.0), C64::new(0.0, -1.0)],
            &[C64::new(3.0, 0.5), C64::new(0.0, 4.0)],
        ]);
        let b = CMatrix::from_rows(&[
            &[C64::new(0.5, -1.0), C64::new(2.0, 0.0)],
            &[C64::new(0.0, 1.5), C64::new(-1.0, 0.25)],
        ]);
        let mut out = CMatrix::zeros(2, 2);
        CMatrix::mul_dagger_into(&a, &b, &mut out);
        assert_eq!(out, &a * &b.dagger());
    }

    #[test]
    fn add_assign_and_scale_in_place() {
        let a = CMatrix::from_reals(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = CMatrix::from_reals(2, 2, &[0.5, 0.5, 0.5, 0.5]);
        let mut acc = a.clone();
        acc.add_assign_mat(&b);
        assert_eq!(acc, &a + &b);
        acc.scale_in_place(2.0);
        assert_eq!(acc, (&a + &b).scale(2.0));
    }

    #[test]
    fn reset_zeros_reuses_across_sizes() {
        let mut m = CMatrix::zeros(16, 16);
        m[(3, 7)] = r(1.0);
        m.reset_zeros(2, 2);
        assert_eq!(m.rows(), 2);
        assert!(m.data().iter().all(|z| *z == C64::ZERO));
        m.reset_zeros(16, 16);
        assert_eq!(m.data().len(), 256);
        assert!(m.data().iter().all(|z| *z == C64::ZERO));
    }

    #[test]
    fn embed_op_identity_on_rest() {
        // X on qubit 1 of a 2-qubit space: I ⊗ X.
        let x = CMatrix::from_reals(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let full = embed_op(2, &x, &[1]);
        let expect = CMatrix::identity(2).kron(&x);
        assert!(full.approx_eq(&expect, 0.0));
    }

    #[test]
    fn kron_of_vectors() {
        let v0 = CMatrix::from_reals(2, 1, &[1.0, 0.0]);
        let v1 = CMatrix::from_reals(2, 1, &[0.0, 1.0]);
        let v01 = v0.kron(&v1);
        assert_eq!(v01.rows(), 4);
        assert_eq!(v01[(1, 0)], C64::ONE);
        assert_eq!(v01[(0, 0)], C64::ZERO);
    }
}
