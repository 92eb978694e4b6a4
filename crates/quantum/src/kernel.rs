//! Density-matrix kernels on raw row-major matrices: the Kraus sandwich
//! `ρ ← Σₖ Kₖ·ρ·Kₖ†`, the Z projection and the partial trace.
//!
//! The sandwich never embeds an operator into a 2ⁿ×2ⁿ matrix, and it
//! does work only for the nonzero entries of ρ. It lists them once per
//! call, in row-major order, and then applies each operator by its
//! structure, terms in set order:
//!
//! * an operator with at most one nonzero per row and per column, each a
//!   weight times a phase in {±1, ±i} (a weighted partial phased
//!   permutation: every Pauli Kraus term, CNOT, CZ, SWAP, S, S† and both
//!   amplitude-damping terms) sends each listed entry `x = ρ[a, b]` to
//!   its single output entry, `out[π(a), π(b)] += turn(fl(fl(w·x)·w'))`;
//! * any other operator `K` (H, rotations) forms `K·ρ` from the listed
//!   entries, then `(K·ρ)·K†` from the nonzero entries of `K·ρ`.
//!
//! # Bit identity with the dense sandwich
//!
//! The dense form embeds each operator into a 2ⁿ×2ⁿ matrix `F`, forms
//! `T = F·ρ` and then `T·F†` with products that skip zero left factors,
//! and adds the terms of a Kraus set into a zeroed accumulator. So every
//! output entry is a sum that starts at +0 and adds complex products in
//! increasing inner index. The kernels here add the same products in the
//! same order, each computed by the same operations, and leave out only
//! products that are ±0 because one factor is an exact zero.
//!
//! Either factor may be that zero: an entry of the operator, or an entry
//! of ρ (or of `K·ρ`) whose components are both ±0. Leaving such a
//! product out changes no bit. Every accumulator starts at +0, so under
//! round-to-nearest it is never −0 (`x + y` is −0 only when both are
//! −0), and `+0 + ±0 = +0`, `x + (±0) = x` for any `x ≠ 0`. Every output
//! entry is still formed as `+0 + …`, so even the sign of a zero matches.
//!
//! The order holds because the listed entries run in increasing row, so
//! each entry of `K·ρ` takes its products in increasing inner index, and
//! each row of `K·ρ` is scanned in increasing column. Terms stay the
//! outer loop, so each output entry takes its terms in set order.
//!
//! The permutation scatter rests on one more step. Each entry of a
//! weighted phased permutation is `(±w, ±0)` or `(±0, ±w)`, so a complex
//! product with it computes each component as `±fl(w·x) ∓ ±0`: a signed
//! and possibly swapped `fl(w·x)`, up to the sign of a zero. The two
//! products of a term therefore give `φᵢ·φ̄ⱼ·fl(fl(wᵢ·ρ[a, b])·wⱼ)` at
//! output entry `(i, j) = (π(a), π(b))`, where row `i` of the operator
//! holds `φᵢ·wᵢ`, and the unit phase `φᵢ·φ̄ⱼ ∈ {±1, ±i}` only swaps and
//! negates components, which is exact. A zero whose sign differs only
//! ever enters a product, which stays ±0, or an accumulated sum, which
//! absorbs it as above. An output entry takes one product per term,
//! because `π` is one to one; an operator with two nonzeros in a column
//! takes the general path.
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

/// Operator index of register index `a` on `qubits`: the bits of `a` on
/// the targets, the inverse of [`scatter`].
fn gather(n: usize, qubits: &[usize], a: usize) -> usize {
    let k = qubits.len();
    qubits.iter().enumerate().fold(0, |t, (pos, q)| {
        t | ((a >> (n - 1 - q)) & 1) << (k - 1 - pos)
    })
}

/// The power of i carried by an entry `(±w, ±0)` or `(±0, ±w)` of a
/// weighted phased permutation.
fn phase(v: C64) -> u32 {
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

/// `iᵏ·y`: a swap and negation of components, so exact.
fn turn(y: C64, k: u32) -> C64 {
    match k & 3 {
        0 => y,
        1 => C64::new(-y.im, y.re),
        2 => C64::new(-y.re, -y.im),
        _ => C64::new(y.im, -y.re),
    }
}

/// Where a permutation term sends a row or column of ρ with a given
/// operator index: register offset `idx`, by weight `w` and phase
/// `iᵖʰᵃˢᵉ`.
#[derive(Clone, Copy)]
struct Dest {
    idx: usize,
    w: f64,
    phase: u32,
}

/// A nonzero entry `x = ρ[a, b]`, each index split into its bits off the
/// targets (`ra = a & rest`) and its operator index (`ca`).
#[derive(Clone, Copy)]
struct Entry {
    ra: usize,
    ca: usize,
    rb: usize,
    cb: usize,
    x: C64,
}

/// An operator's nonzeros as `(row, value)`, column by column; column
/// `c` ends at `end[c]`.
struct Columns {
    nz: Vec<(usize, C64)>,
    end: Vec<usize>,
}

impl Columns {
    fn get(&self, c: usize) -> &[(usize, C64)] {
        &self.nz[if c == 0 { 0 } else { self.end[c - 1] }..self.end[c]]
    }
}

/// Per-thread work buffers, reused from call to call.
struct Scratch {
    /// Register offset of each operator index, and the operator index of
    /// each register index. `a & rest` clears the target bits of `a`.
    off: Vec<usize>,
    op_index: Vec<usize>,
    rest: usize,
    /// ρ's nonzero entries, row-major, and the flat indices they came
    /// from.
    entries: Vec<Entry>,
    kept: Vec<usize>,
    /// A permutation term: where each operator column goes, `None` when
    /// the column is zero.
    perm: Vec<Option<Dest>>,
    /// Any other operator: its nonzeros.
    cols: Columns,
    /// `K·ρ`, and one row of `(K·ρ)·K†`, for a general operator.
    tmp: Vec<C64>,
    row: Vec<C64>,
    out: CMatrix,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        off: Vec::new(),
        op_index: Vec::new(),
        rest: 0,
        entries: Vec::new(),
        kept: Vec::new(),
        perm: Vec::new(),
        cols: Columns { nz: Vec::new(), end: Vec::new() },
        tmp: Vec::new(),
        row: Vec::new(),
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
        s.list(rho.data(), n);
        s.out.reset_zeros(dim, dim);
        for k in kraus {
            assert_eq!((k.rows(), k.cols()), (dk, dk), "operator size mismatch");
            if s.compile(k) {
                s.permute(n);
            } else {
                s.general(n);
            }
        }
        std::mem::swap(rho, &mut s.out);
    });
}

impl Scratch {
    /// The index maps between register and operator for `targets`.
    fn index(&mut self, n: usize, targets: &[usize]) {
        let dk = 1usize << targets.len();
        self.off.clear();
        self.off.extend((0..dk).map(|t| scatter(n, targets, t)));
        self.rest = !self.off[dk - 1];
        self.op_index.clear();
        self.op_index
            .extend((0..1usize << n).map(|a| gather(n, targets, a)));
    }

    /// List the nonzero entries of the `n`-qubit matrix `rho`.
    fn list(&mut self, rho: &[C64], n: usize) {
        let dim = 1usize << n;
        // Record every index and keep the nonzero ones, without a branch
        // on the sparsity pattern.
        self.kept.resize(rho.len(), 0);
        let mut len = 0;
        for (i, x) in rho.iter().enumerate() {
            self.kept[len] = i;
            // Nonzero unless both components are ±0.
            len += usize::from((x.re.to_bits() | x.im.to_bits()) << 1 != 0);
        }
        self.entries.clear();
        for &i in &self.kept[..len] {
            let (a, b) = (i >> n, i & (dim - 1));
            self.entries.push(Entry {
                ra: a & self.rest,
                ca: self.op_index[a],
                rb: b & self.rest,
                cb: self.op_index[b],
                x: rho[i],
            });
        }
    }

    /// Classify `k`. A weighted partial phased permutation fills `perm`
    /// and returns true; any other operator fills `cols`.
    fn compile(&mut self, k: &CMatrix) -> bool {
        let dk = self.off.len();
        let k = k.data();
        self.perm.clear();
        self.perm.resize(dk, None);
        let permutation = k.chunks_exact(dk).enumerate().all(|(t, row)| {
            let mut nz = row.iter().enumerate().filter(|(_, v)| **v != C64::ZERO);
            match (nz.next(), nz.next()) {
                (None, _) => true,
                (Some((c, &v)), None)
                    if self.perm[c].is_none()
                        && (v.re == 0.0 || v.im == 0.0)
                        && (v.re + v.im).is_finite() =>
                {
                    self.perm[c] = Some(Dest {
                        idx: self.off[t],
                        w: if v.im == 0.0 { v.re.abs() } else { v.im.abs() },
                        phase: phase(v),
                    });
                    true
                }
                _ => false,
            }
        });
        if !permutation {
            self.cols.nz.clear();
            self.cols.end.clear();
            for c in 0..dk {
                for t in 0..dk {
                    let v = k[t * dk + c];
                    if v != C64::ZERO {
                        self.cols.nz.push((t, v));
                    }
                }
                self.cols.end.push(self.cols.nz.len());
            }
        }
        permutation
    }

    /// `out += K·ρ·K†` for a permutation term `K` on an `n`-qubit register.
    fn permute(&mut self, n: usize) {
        let out = self.out.data_mut();
        for e in &self.entries {
            let (Some(da), Some(db)) = (self.perm[e.ca], self.perm[e.cb]) else {
                continue;
            };
            let y = C64::new((da.w * e.x.re) * db.w, (da.w * e.x.im) * db.w);
            out[((e.ra | da.idx) << n) | e.rb | db.idx] += turn(y, da.phase.wrapping_sub(db.phase));
        }
    }

    /// `out += K·ρ·K†` for any operator `K` on an `n`-qubit register.
    fn general(&mut self, n: usize) {
        let dim = 1usize << n;
        // tmp = K·ρ: entry (a, b) feeds row (a & rest) | off[t] for every
        // nonzero K[t, op(a)].
        self.tmp.clear();
        self.tmp.resize(dim * dim, C64::ZERO);
        for e in &self.entries {
            let b = e.rb | self.off[e.cb];
            for &(t, v) in self.cols.get(e.ca) {
                self.tmp[((e.ra | self.off[t]) << n) | b] += v * e.x;
            }
        }
        // out += tmp·K†, one row at a time, each term formed in full in
        // `row` before it is added.
        self.row.clear();
        self.row.resize(dim, C64::ZERO);
        let out = self.out.data_mut();
        for (trow, orow) in self.tmp.chunks_exact(dim).zip(out.chunks_exact_mut(dim)) {
            let mut touched = false;
            for (j, &y) in trow.iter().enumerate().filter(|(_, y)| **y != C64::ZERO) {
                touched = true;
                for &(t, v) in self.cols.get(self.op_index[j]) {
                    self.row[(j & self.rest) | self.off[t]] += y * v.conj();
                }
            }
            if touched {
                for (o, z) in orow.iter_mut().zip(&mut self.row) {
                    *o += *z;
                    *z = C64::ZERO;
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
