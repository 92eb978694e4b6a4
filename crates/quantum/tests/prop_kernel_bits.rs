//! Bit-for-bit suite of the density-matrix kernels: `apply_unitary`,
//! `apply_kraus`, `project_z` and `partial_trace_keep` against the dense
//! reference of `qn_testkit::dense`, compared with `f64::to_bits`, so
//! even the sign of a zero must match.
//!
//! The states are random mixed states of 1–4 qubits whose components
//! are often exact `0.0` or `-0.0` (`qn_testkit::dense::random_state`),
//! the same states after a Z projection (whole rows and columns of +0),
//! and the structured inputs of the simulator: X-form pair states and
//! X⊗X four-qubit registers, with zeros of either sign in their zero
//! pattern. The kernels skip zero entries of ρ, so zeros are where a
//! divergence would show. The operators are every gate of `gates` and
//! every channel of `channels` (at p = 0, p = 1 and in between), plus a
//! three-qubit operator, a two-qubit operator with four nonzeros per
//! row, a Kraus set that mixes a phased permutation with a dense
//! operator, and one whose first term has one nonzero per row but two in
//! a column, on every ordered target list.

use proptest::prelude::*;
use qn_quantum::matrix::CMatrix;
use qn_quantum::C64;
use qn_quantum::{channels, gates, DensityMatrix};
use qn_testkit::dense::{self, random_state, random_x_state, resign_zeros, SplitMix};

/// One operation of the catalogue: a gate (`unitary`, a set of one) or
/// a Kraus channel.
struct Op {
    name: &'static str,
    kraus: Vec<CMatrix>,
    unitary: bool,
}

impl Op {
    fn gate(name: &'static str, u: CMatrix) -> Op {
        Op {
            name,
            kraus: vec![u],
            unitary: true,
        }
    }

    fn channel(name: &'static str, kraus: Vec<CMatrix>) -> Op {
        Op {
            name,
            kraus,
            unitary: false,
        }
    }

    fn arity(&self) -> usize {
        self.kraus[0].rows().trailing_zeros() as usize
    }

    /// Apply to the kernel state, and return the reference's result on
    /// `reference`.
    fn apply(&self, rho: &mut DensityMatrix, reference: &CMatrix, targets: &[usize]) -> CMatrix {
        if self.unitary {
            rho.apply_unitary(&self.kraus[0], targets);
            dense::apply_unitary(reference, &self.kraus[0], targets)
        } else {
            rho.apply_kraus(&self.kraus, targets);
            dense::apply_kraus(reference, &self.kraus, targets)
        }
    }
}

/// Every gate of `gates` as a unitary, every channel of `channels` at
/// parameter `p` as a Kraus set, and operators that exercise a
/// three-qubit target list, rows of more than two nonzeros (where the
/// order of a sum shows) and Kraus sets of mixed structure.
fn catalogue(p: f64, theta: f64) -> Vec<Op> {
    let mixed = vec![gates::x().scale(0.6), gates::h().scale(0.8)];
    // One nonzero per row, of equal weight and unit phase, but rows 0
    // and 1 share column 1: not a permutation. The diagonal term makes
    // the set trace preserving.
    let (h, z) = (C64::real(0.5), C64::ZERO);
    let shared = vec![
        CMatrix::from_rows(&[
            &[z, h, z, z],
            &[z, C64::new(0.0, 0.5), z, z],
            &[z, z, z, -h],
            &[h, z, z, z],
        ]),
        CMatrix::from_rows(&[
            &[C64::real(0.75f64.sqrt()), z, z, z],
            &[z, C64::real(0.5f64.sqrt()), z, z],
            &[z, z, C64::ONE, z],
            &[z, z, z, C64::real(0.75f64.sqrt())],
        ]),
    ];
    vec![
        Op::gate("identity", gates::identity()),
        Op::gate("x", gates::x()),
        Op::gate("y", gates::y()),
        Op::gate("z", gates::z()),
        Op::gate("h", gates::h()),
        Op::gate("s", gates::s()),
        Op::gate("sdg", gates::sdg()),
        Op::gate("t", gates::t()),
        Op::gate("rx", gates::rx(theta)),
        Op::gate("ry", gates::ry(theta)),
        Op::gate("rz", gates::rz(theta)),
        Op::gate("cnot", gates::cnot()),
        Op::gate("cz", gates::cz()),
        Op::gate("swap", gates::swap()),
        Op::gate("controlled_sqrt_x", gates::controlled_sqrt_x()),
        Op::gate("cnot⊗h", gates::cnot().kron(&gates::h())),
        Op::gate("rx⊗ry", gates::rx(theta).kron(&gates::ry(0.3))),
        Op::channel("depolarizing", channels::depolarizing(p)),
        Op::channel("depolarizing_2q", channels::depolarizing_2q(p)),
        Op::channel("dephasing", channels::dephasing(p).to_vec()),
        Op::channel("bit_flip", channels::bit_flip(p)),
        Op::channel("amplitude_damping", channels::amplitude_damping(p).to_vec()),
        Op::channel("0.6·x + 0.8·h", mixed),
        Op::channel("shared column + diagonal", shared),
    ]
}

/// The states the catalogue runs on for `n` qubits: a random mixed
/// state, an X-form pair state (`n = 2`) or an X⊗X register (`n = 4`)
/// with zeros of random sign, and each of those after a Z projection,
/// which leaves +0 in whole rows and columns.
fn inputs(n: usize, r: &mut SplitMix) -> Vec<DensityMatrix> {
    let mut states = vec![random_state(n, r)];
    match n {
        2 => states.push(random_x_state(r)),
        4 => {
            let mut m = random_x_state(r)
                .tensor(&random_x_state(r))
                .matrix()
                .clone();
            resign_zeros(&mut m, r);
            states.push(DensityMatrix::from_matrix(m));
        }
        _ => {}
    }
    for i in 0..states.len() {
        let (qubit, outcome) = (r.below(n), r.below(2) == 1);
        if projectable(states[i].matrix(), qubit, outcome) {
            let mut projected = states[i].clone();
            projected.project_z(qubit, outcome);
            states.push(projected);
        }
    }
    states
}

/// Every ordered list of `k` distinct qubits out of `n`.
fn target_lists(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for head in target_lists(n, k - 1) {
        for q in (0..n).filter(|q| !head.contains(q)) {
            let mut list = head.clone();
            list.push(q);
            out.push(list);
        }
    }
    out
}

fn assert_bits(kernel: &DensityMatrix, reference: &CMatrix, what: &str) {
    assert!(
        dense::same_bits(kernel.matrix(), reference),
        "{what}: kernel and dense reference differ\nkernel {:?}\nreference {:?}",
        kernel.matrix(),
        reference
    );
}

/// Whether projecting `qubit` onto `outcome` keeps a usable weight (the
/// kernel asserts against zero-probability outcomes in debug builds).
fn projectable(reference: &CMatrix, qubit: usize, outcome: bool) -> bool {
    let n = reference.rows().trailing_zeros() as usize;
    let p: f64 = (0..reference.rows())
        .filter(|i| (i >> (n - 1 - qubit)) & 1 == usize::from(outcome))
        .map(|i| reference[(i, i)].re)
        .sum();
    p > 1e-6
}

#[test]
fn every_gate_and_channel_on_every_target_list_is_bit_identical() {
    let mut r = SplitMix(2020);
    for n in 1..=4 {
        for p in [0.0, 0.37, 1.0] {
            for (s, state) in inputs(n, &mut r).iter().enumerate() {
                for op in catalogue(p, 1.1) {
                    if op.arity() > n {
                        continue;
                    }
                    for targets in target_lists(n, op.arity()) {
                        let mut rho = state.clone();
                        let reference = op.apply(&mut rho, state.matrix(), &targets);
                        let what = format!(
                            "{} (p = {p}) on {targets:?} of {n} qubits, input {s}",
                            op.name
                        );
                        assert_bits(&rho, &reference, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn projection_and_partial_trace_are_bit_identical() {
    let mut r = SplitMix(6);
    for n in 1..=4 {
        for _ in 0..4 {
            let state = random_state(n, &mut r);
            for qubit in 0..n {
                for outcome in [false, true] {
                    if !projectable(state.matrix(), qubit, outcome) {
                        continue;
                    }
                    let mut rho = state.clone();
                    rho.project_z(qubit, outcome);
                    let reference = dense::project_z(state.matrix(), qubit, outcome);
                    assert_bits(&rho, &reference, &format!("project_z({qubit}, {outcome})"));
                }
            }
            for k in 1..=n {
                for keep in target_lists(n, k) {
                    let reduced = state.partial_trace_keep(&keep);
                    let reference = dense::partial_trace(state.matrix(), &keep);
                    assert_bits(
                        &reduced,
                        &reference,
                        &format!("partial_trace_keep({keep:?})"),
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sequences of gates, channels at random strengths and Z
    /// projections stay bit-identical to the reference at every step.
    #[test]
    fn random_sequences_stay_bit_identical(n in 1usize..=4, seed in any::<u64>()) {
        let mut r = SplitMix(seed);
        let mut rho = random_state(n, &mut r);
        let mut reference = rho.matrix().clone();
        for step in 0..8 {
            if r.below(5) == 0 {
                let qubit = r.below(n);
                let outcome = r.below(2) == 1;
                if projectable(&reference, qubit, outcome) {
                    rho.project_z(qubit, outcome);
                    reference = dense::project_z(&reference, qubit, outcome);
                }
            } else {
                let p = match r.below(4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => r.unit(),
                };
                let ops: Vec<Op> = catalogue(p, 6.0 * r.unit())
                    .into_iter()
                    .filter(|op| op.arity() <= n)
                    .collect();
                let op = &ops[r.below(ops.len())];
                let lists = target_lists(n, op.arity());
                let targets = &lists[r.below(lists.len())];
                reference = op.apply(&mut rho, &reference, targets);
                prop_assert!(
                    dense::same_bits(rho.matrix(), &reference),
                    "step {step}: {} (p = {p}) on {targets:?} of {n} qubits", op.name
                );
            }
            prop_assert!(dense::same_bits(rho.matrix(), &reference), "step {step}");
        }
    }
}
