//! Density-matrix kernels on raw row-major matrices: the Kraus sandwich
//! `ρ ← Σₖ Kₖ·ρ·Kₖ†`, the Z projection and the partial trace.
//!
//! The sandwich applies each operator by its structure, never as an
//! embedded 2ⁿ×2ⁿ matrix:
//!
//! * an operator whose every row holds one nonzero, `w` times a phase in
//!   {±1, ±i} (a weighted phased permutation: every Pauli Kraus term,
//!   CNOT, CZ, SWAP, S, S†), is an O(dim²) gather of the table
//!   `(w·ρ)·w`. The table is computed once per call and weight and shared
//!   by every term of that weight: 15 of the 16 terms of
//!   [`crate::channels::depolarizing_2q`], 3 of the 4 of
//!   [`crate::channels::depolarizing`];
//! * any other operator (H, amplitude damping, rotations) takes a
//!   row-sparse walk over its nonzeros.
//!
//! # Bit identity with the dense sandwich
//!
//! The dense form embeds each operator into a 2ⁿ×2ⁿ matrix `F`, forms
//! `T = F·ρ` and then `T·F†` with products that skip zero left factors,
//! and adds the terms of a Kraus set into a zeroed accumulator. So every
//! output entry is a sum that starts at +0 and adds complex products in
//! increasing inner index. The kernels here add the same products in the
//! same order, each computed by the same operations, and leave out only
//! products that are ±0 because one factor is an exact zero. That changes
//! nothing: under round-to-nearest a sum that starts at +0 is never −0
//! (`x + y` is −0 only when both are −0), and `+0 + ±0 = +0`,
//! `x + ±0 = x` for `x ≠ 0`. Every output entry is still formed as
//! `+0 + …`, so even the sign of a zero matches.
//!
//! The gather rests on one more step. Each entry of a weighted phased
//! permutation is `(±w, ±0)` or `(±0, ±w)`, so a complex product with it
//! computes each component as `±fl(w·x) ∓ ±0`: a signed and possibly
//! swapped `fl(w·x)`, up to the sign of a zero. The two products of a
//! term therefore give `φᵢ·φ̄ⱼ·fl(fl(w·ρ[σi, σj])·w)`, and the unit phase
//! `φᵢ·φ̄ⱼ ∈ {±1, ±i}` only swaps and negates components, which is exact.
//! A zero whose sign differs only ever enters a product, which stays ±0,
//! or an accumulated sum, which absorbs it as above.
//!
//! The Z projection `P·ρ·P` with a diagonal 0/1 mask `P` reduces the same
//! way to a masked copy, each kept entry formed as `+0 + ρᵢⱼ`.
//!
//! `tests/prop_kernel_bits.rs` compares every kernel against the dense
//! reference in `qn_testkit::dense` with `f64::to_bits`.

use crate::complex::C64;
use crate::matrix::CMatrix;
use std::cell::RefCell;

/// Panic unless `qubits` are distinct and below `n`.
pub(crate) fn assert_distinct(n: usize, qubits: &[usize]) {
    let mut seen = 0usize;
    for &q in qubits {
        assert!(q < n, "qubit {q} out of range for {n} qubits");
        assert!(seen & (1 << q) == 0, "duplicate qubit {q}");
        seen |= 1 << q;
    }
}

/// Register offset of operator index `t` on `qubits` of an `n`-qubit
/// register: bit `pos` of `t`, counted from the most significant, lands
/// on qubit `qubits[pos]` (qubit 0 = most significant register bit).
fn scatter(n: usize, qubits: &[usize], t: usize) -> usize {
    let k = qubits.len();
    qubits.iter().enumerate().fold(0, |idx, (pos, q)| {
        idx | ((t >> (k - 1 - pos)) & 1) << (n - 1 - q)
    })
}

/// The power of i carried by an entry `(±w, ±0)` or `(±0, ±w)` of a
/// weighted phased permutation.
fn phase(v: C64) -> usize {
    if v.re > 0.0 {
        0
    } else if v.im > 0.0 {
        1
    } else if v.re < 0.0 {
        2
    } else {
        3
    }
}

/// How one operator is applied.
enum Shape {
    /// No nonzero entry: the term contributes nothing.
    Zero,
    /// One nonzero per row, each `w` times a phase in {±1, ±i}.
    Gather(f64),
    /// Anything else.
    Walk,
}

/// Per-thread work buffers, reused from call to call.
struct Scratch {
    /// Register offset of each operator index, and the operator columns
    /// in increasing offset: the order the dense product visits them.
    off: Vec<usize>,
    order: Vec<usize>,
    /// The register indices with every target bit clear, increasing.
    /// Register index `r | off[t]` has operator index `t`.
    rests: Vec<usize>,
    /// The current operator's nonzeros as `(register offset, value)`,
    /// row by row; row `t` ends at `row_end[t]`.
    nz: Vec<(usize, C64)>,
    row_end: Vec<usize>,
    /// `(w·ρ)·w` tables of this call, keyed by the weight's bits.
    weights: Vec<u64>,
    tables: Vec<Vec<C64>>,
    /// `K·ρ` for the row-sparse walk.
    tmp: Vec<C64>,
    out: CMatrix,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        off: Vec::new(),
        order: Vec::new(),
        rests: Vec::new(),
        nz: Vec::new(),
        row_end: Vec::new(),
        weights: Vec::new(),
        tables: Vec::new(),
        tmp: Vec::new(),
        out: CMatrix::zeros(1, 1),
    });
}

/// `ρ ← Σₖ Kₖ·ρ·Kₖ†` for operators on `targets` of an `n`-qubit register
/// (the first target is the most significant bit of an operator index),
/// without renormalising. Bit-identical to the dense sandwich; see the
/// module docs.
pub(crate) fn sandwich(n: usize, rho: &mut CMatrix, kraus: &[CMatrix], targets: &[usize]) {
    let dim = 1usize << n;
    assert_eq!((rho.rows(), rho.cols()), (dim, dim), "state size mismatch");
    assert_distinct(n, targets);
    let dk = 1usize << targets.len();
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.index(n, targets);
        s.weights.clear();
        s.out.reset_zeros(dim, dim);
        for k in kraus {
            assert_eq!((k.rows(), k.cols()), (dk, dk), "operator size mismatch");
            match s.compile(k) {
                Shape::Zero => {}
                Shape::Gather(w) => s.gather(rho.data(), w),
                Shape::Walk => s.walk(rho.data()),
            }
        }
        std::mem::swap(rho, &mut s.out);
    });
}

/// One block of a gather: for every pair of rest patterns `(ra, rb)`,
/// `out[ra|oi, rb|oj] += turn(table[ra|si, rb|sj])`.
fn add_block(
    out: &mut [C64],
    table: &[C64],
    dim: usize,
    rests: &[usize],
    (oi, si): (usize, usize),
    (oj, sj): (usize, usize),
    turn: impl Fn(C64) -> C64,
) {
    for &ra in rests {
        let orow = &mut out[(ra | oi) * dim..][..dim];
        let src = &table[(ra | si) * dim..][..dim];
        for &rb in rests {
            orow[rb | oj] += turn(src[rb | sj]);
        }
    }
}

impl Scratch {
    /// The index maps between register and operator for `targets`.
    fn index(&mut self, n: usize, targets: &[usize]) {
        let dk = 1usize << targets.len();
        let mask = scatter(n, targets, dk - 1);
        self.off.clear();
        self.off.extend((0..dk).map(|t| scatter(n, targets, t)));
        self.order.clear();
        self.order.extend(0..dk);
        let off = &self.off;
        self.order.sort_unstable_by_key(|&c| off[c]);
        self.rests.clear();
        self.rests
            .extend((0..1usize << n).filter(|i| i & mask == 0));
    }

    /// Collect `k`'s nonzeros in visiting order and classify it.
    fn compile(&mut self, k: &CMatrix) -> Shape {
        let dk = self.off.len();
        self.nz.clear();
        self.row_end.clear();
        let mut weight = None;
        let mut gather = true;
        for row in k.data().chunks_exact(dk) {
            let start = self.nz.len();
            for &c in &self.order {
                if row[c] != C64::ZERO {
                    self.nz.push((self.off[c], row[c]));
                }
            }
            self.row_end.push(self.nz.len());
            if gather {
                let w = match &self.nz[start..] {
                    [(_, v)] if v.im == 0.0 => v.re.abs(),
                    [(_, v)] if v.re == 0.0 => v.im.abs(),
                    _ => f64::NAN,
                };
                gather = w.is_finite() && *weight.get_or_insert(w) == w;
            }
        }
        match weight {
            _ if self.nz.is_empty() => Shape::Zero,
            Some(w) if gather => Shape::Gather(w),
            _ => Shape::Walk,
        }
    }

    /// `out += K·ρ·K†` for a [`Shape::Gather`] operator `K`; row `t` of
    /// `K` holds its single nonzero at `nz[t]`.
    fn gather(&mut self, rho: &[C64], w: f64) {
        let table: &[C64] = if w == 1.0 {
            // fl(fl(1·x)·1) = x.
            rho
        } else {
            let t = match self.weights.iter().position(|&b| b == w.to_bits()) {
                Some(t) => t,
                None => {
                    let t = self.weights.len();
                    self.weights.push(w.to_bits());
                    if self.tables.len() == t {
                        self.tables.push(Vec::new());
                    }
                    let table = &mut self.tables[t];
                    table.clear();
                    table.extend(rho.iter().map(|x| C64::new((w * x.re) * w, (w * x.im) * w)));
                    t
                }
            };
            &self.tables[t]
        };
        // Output entry (r|off[ti], r'|off[tj]) takes table entry
        // (r|σti, r'|σtj) turned by the phase i^(a_ti − a_tj): one turn
        // per block of rows and columns, so the inner loops do not branch.
        let dim = self.rests.len() * self.off.len();
        let (out, rests) = (self.out.data_mut(), &self.rests);
        for (&oi, &(si, vi)) in self.off.iter().zip(&self.nz) {
            for (&oj, &(sj, vj)) in self.off.iter().zip(&self.nz) {
                let (rows, cols) = ((oi, si), (oj, sj));
                match (phase(vi) + 4 - phase(vj)) & 3 {
                    0 => add_block(out, table, dim, rests, rows, cols, |x| x),
                    1 => add_block(out, table, dim, rests, rows, cols, |x| {
                        C64::new(-x.im, x.re)
                    }),
                    2 => add_block(out, table, dim, rests, rows, cols, |x| {
                        C64::new(-x.re, -x.im)
                    }),
                    _ => add_block(out, table, dim, rests, rows, cols, |x| {
                        C64::new(x.im, -x.re)
                    }),
                }
            }
        }
    }

    /// `out += K·ρ·K†` by a walk over `K`'s nonzeros.
    fn walk(&mut self, rho: &[C64]) {
        let dim = self.rests.len() * self.off.len();
        let (nz, row_end) = (&self.nz, &self.row_end);
        let row = |t: usize| &nz[if t == 0 { 0 } else { row_end[t - 1] }..row_end[t]];
        // tmp = K·ρ
        self.tmp.clear();
        self.tmp.resize(dim * dim, C64::ZERO);
        for (ti, &oi) in self.off.iter().enumerate() {
            for &r in &self.rests {
                let trow = &mut self.tmp[(r | oi) * dim..][..dim];
                for &(o, v) in row(ti) {
                    for (x, &y) in trow.iter_mut().zip(&rho[(r | o) * dim..][..dim]) {
                        *x += v * y;
                    }
                }
            }
        }
        // out += tmp·K†, each term formed in full before it is added.
        let out = self.out.data_mut();
        for (trow, orow) in self.tmp.chunks_exact(dim).zip(out.chunks_exact_mut(dim)) {
            for (tj, &oj) in self.off.iter().enumerate() {
                for &r in &self.rests {
                    let mut term = C64::ZERO;
                    for &(o, v) in row(tj) {
                        term += trow[r | o] * v.conj();
                    }
                    orow[r | oj] += term;
                }
            }
        }
    }
}

/// Project `qubit` of an `n`-qubit matrix onto the Z eigenstate
/// `outcome`, without renormalising: the masked copy that the dense
/// `P·ρ·P` reduces to (module docs).
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
