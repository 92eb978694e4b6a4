//! Three-way representation-agreement suite (quantum level): random
//! channel/measure sequences run simultaneously against
//!
//! 1. the [`PairState::Bell`] closed-form fast path,
//! 2. the dense [`DensityMatrix`] engine, and
//! 3. the two-bit Pauli-frame reference (exact on the noiseless
//!    prefix of every sequence),
//!
//! asserting agreement of every observable — all four Bell-diagonal
//! coefficients, both marginal measurement probabilities, trace,
//! purity, and sampled measurement outcomes — to 1e-12. The
//! swap/distill legs of the three-way test live in
//! `qn_hardware/tests/prop_threeway.rs` where the pair store's
//! conditional-map tables are in play.
//!
//! A second property runs the dense 4×4 [`DensePair`] closed forms
//! against the [`DensityMatrix`] engine from states outside the X
//! family as well, readouts in every Pauli basis included: outcomes
//! identical, every entry within 1e-12.

use proptest::prelude::*;
use qn_quantum::bell::BellState;
use qn_quantum::channels;
use qn_quantum::gates::Pauli;
use qn_quantum::measure::measure_pauli;
use qn_quantum::pairstate::{BellDiagonal, DensePair, PairState};
use qn_quantum::DensityMatrix;
use qn_testkit::dense::{random_full_rank_state, random_x_state, SplitMix};
use qn_testkit::{ModelSpec, ModelTest};

const EPS: f64 = 1e-12;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// A perfect Pauli (0 = X, 1 = Y, 2 = Z) on one end.
    Pauli { end: bool, which: u8 },
    /// Dephasing with phase-flip probability `p`.
    Dephase { end: bool, p: f64 },
    /// Single-qubit depolarizing.
    Depolarize { end: bool, p: f64 },
    /// Two-qubit depolarizing.
    Depolarize2q { p: f64 },
    /// Amplitude damping (the op that forces the representation to
    /// track population asymmetries).
    Damp { end: bool, gamma: f64 },
    /// Z measurement with an explicit uniform sample.
    MeasureZ { end: bool, u: f64 },
}

/// The Pauli-frame reference: which Bell state a perfect tracker
/// assigns, and whether the sequence so far has been noiseless (the
/// only regime where the two-bit frame predicts the exact state).
#[derive(Clone, Copy, Debug)]
struct Frame {
    state: BellState,
    pure: bool,
}

struct Dual {
    bell: PairState,
    dense: DensityMatrix,
}

struct ThreeWaySpec;

impl ModelSpec for ThreeWaySpec {
    type Op = Op;
    type Model = Frame;
    type System = Dual;

    fn new_model(&self) -> Frame {
        Frame {
            state: BellState::PHI_PLUS,
            pure: true,
        }
    }

    fn new_system(&self) -> Dual {
        Dual {
            bell: PairState::Bell(BellDiagonal::from_bell_state(BellState::PHI_PLUS)),
            dense: BellState::PHI_PLUS.density(),
        }
    }

    fn op_strategy(&self) -> BoxedStrategy<Op> {
        prop_oneof![
            (any::<bool>(), 0u8..3).prop_map(|(end, which)| Op::Pauli { end, which }),
            (any::<bool>(), 0.0f64..0.5).prop_map(|(end, p)| Op::Dephase { end, p }),
            (any::<bool>(), 0.0f64..1.0).prop_map(|(end, p)| Op::Depolarize { end, p }),
            (0.0f64..1.0).prop_map(|p| Op::Depolarize2q { p }),
            (any::<bool>(), 0.0f64..1.0).prop_map(|(end, gamma)| Op::Damp { end, gamma }),
            (any::<bool>(), 0.0f64..1.0).prop_map(|(end, u)| Op::MeasureZ { end, u }),
        ]
        .boxed()
    }

    fn apply(&self, model: &mut Frame, system: &mut Dual, op: &Op) -> Result<(), String> {
        match *op {
            Op::Pauli { end, which } => {
                let pauli = match which {
                    0 => Pauli::X,
                    1 => Pauli::Y,
                    _ => Pauli::Z,
                };
                system.bell.apply_pauli(usize::from(end), pauli);
                system
                    .dense
                    .apply_unitary(&pauli.matrix(), &[usize::from(end)]);
                // A Pauli on either qubit flips the same frame bits.
                model.state = BellState::from_bits(
                    model.state.x ^ (pauli != Pauli::Z),
                    model.state.z ^ (pauli != Pauli::X),
                );
            }
            Op::Dephase { end, p } => {
                system.bell.dephase(usize::from(end), p);
                system
                    .dense
                    .apply_kraus(&qn_quantum::channels::dephasing(p), &[usize::from(end)]);
                model.pure = false;
            }
            Op::Depolarize { end, p } => {
                system.bell.depolarize(usize::from(end), p);
                system
                    .dense
                    .apply_kraus(&qn_quantum::channels::depolarizing(p), &[usize::from(end)]);
                model.pure = false;
            }
            Op::Depolarize2q { p } => {
                system.bell.depolarize_2q(p);
                system
                    .dense
                    .apply_kraus(&qn_quantum::channels::depolarizing_2q(p), &[0, 1]);
                model.pure = false;
            }
            Op::Damp { end, gamma } => {
                system.bell.amplitude_damp(usize::from(end), gamma);
                system.dense.apply_kraus(
                    &qn_quantum::channels::amplitude_damping(gamma),
                    &[usize::from(end)],
                );
                model.pure = false;
            }
            Op::MeasureZ { end, u } => {
                // Guard: both engines debug-assert on projecting onto a
                // ~zero-probability branch; align the sample with the
                // dense probability to stay in-distribution.
                let p1 = system.dense.prob_one(usize::from(end));
                let u = if p1 < 1e-9 {
                    0.999_999
                } else if p1 > 1.0 - 1e-9 {
                    1e-6
                } else {
                    u
                };
                let ob = system.bell.measure_pauli(usize::from(end), Pauli::Z, u);
                let od = system.dense.measure_z(usize::from(end), u);
                if ob != od {
                    return Err(format!(
                        "measurement outcomes diverge: bell {ob}, dense {od}"
                    ));
                }
                model.pure = false;
            }
        }
        Ok(())
    }

    fn invariants(&self, model: &Frame, system: &Dual) -> Result<(), String> {
        if !system.bell.is_bell() {
            return Err("fast path lost the Bell representation".into());
        }
        for b in BellState::ALL {
            let fb = system.bell.fidelity_bell(b);
            let fd = system.dense.fidelity_pure(&b.amplitudes());
            if (fb - fd).abs() > EPS {
                return Err(format!("coeff {b}: bell {fb} vs dense {fd}"));
            }
        }
        for end in 0..2 {
            let pb = system.bell.prob_one(end);
            let pd = system.dense.prob_one(end);
            if (pb - pd).abs() > EPS {
                return Err(format!("prob_one({end}): bell {pb} vs dense {pd}"));
            }
        }
        if (system.bell.trace() - system.dense.trace()).abs() > EPS {
            return Err("trace diverges".into());
        }
        if (system.bell.purity() - system.dense.purity()).abs() > EPS {
            return Err("purity diverges".into());
        }
        if model.pure {
            let f = system.bell.fidelity_bell(model.state);
            if (f - 1.0).abs() > 1e-9 {
                return Err(format!(
                    "noiseless prefix: fidelity {f} to tracked frame {}",
                    model.state
                ));
            }
        }
        Ok(())
    }
}

#[test]
fn bell_diagonal_tracks_dense_and_frame() {
    ModelTest::new("quantum_threeway_pairstate", ThreeWaySpec)
        .cases(96)
        .max_ops(48)
        .run();
}

/// One operation of the dense-pair leg, drawn from a seed.
fn dense_step(
    r: &mut SplitMix,
    dense: &mut DensePair,
    reference: &mut DensityMatrix,
) -> Result<(), String> {
    let end = r.below(2);
    let p = r.unit();
    match r.below(7) {
        0 => {
            let pauli = [Pauli::X, Pauli::Y, Pauli::Z][r.below(3)];
            dense.apply_pauli(end, pauli);
            reference.apply_unitary(&pauli.matrix(), &[end]);
        }
        1 => {
            dense.dephase(end, p);
            reference.apply_kraus(&channels::dephasing(p), &[end]);
        }
        2 => {
            dense.depolarize(end, p);
            reference.apply_kraus(&channels::depolarizing(p), &[end]);
        }
        3 => {
            dense.depolarize_2q(p);
            reference.apply_kraus(&channels::depolarizing_2q(p), &[0, 1]);
        }
        4 => {
            dense.amplitude_damp(end, p);
            reference.apply_kraus(&channels::amplitude_damping(p), &[end]);
        }
        _ => {
            // A readout in a random basis, on a copy: the projected
            // state would leave nothing to decay on that end.
            let basis = [Pauli::X, Pauli::Y, Pauli::Z][r.below(3)];
            let (mut d, mut m) = (*dense, reference.clone());
            let u = r.unit();
            let (od, om) = (
                d.measure_pauli(end, basis, u),
                measure_pauli(&mut m, end, basis, u),
            );
            if od != om {
                return Err(format!("{basis:?} readout of end {end}: {od} vs {om}"));
            }
            compare(&d, &m)?;
        }
    }
    compare(dense, reference)
}

/// Every entry, the Bell fidelities and both marginals within [`EPS`].
fn compare(dense: &DensePair, reference: &DensityMatrix) -> Result<(), String> {
    for (i, (x, y)) in dense
        .entries()
        .iter()
        .zip(reference.matrix().data())
        .enumerate()
    {
        if (x.re - y.re).abs() > EPS || (x.im - y.im).abs() > EPS {
            return Err(format!("entry {i}: {x:?} vs {y:?}"));
        }
    }
    for b in BellState::ALL {
        let (fd, fr) = (
            dense.fidelity_bell(b),
            reference.fidelity_pure(&b.amplitudes()),
        );
        if (fd - fr).abs() > EPS {
            return Err(format!("fidelity to {b}: {fd} vs {fr}"));
        }
    }
    for end in 0..2 {
        if (dense.prob_one(end) - reference.prob_one(end)).abs() > EPS {
            return Err(format!("prob_one({end})"));
        }
    }
    Ok(())
}

proptest! {
    /// The closed forms of the dense 4×4 pair against the n-qubit
    /// engine, from random full-rank and X-form states, over random
    /// channel, Pauli and readout sequences (X and Y readouts included).
    #[test]
    fn dense_pair_tracks_the_density_matrix(seed in any::<u64>(), steps in 1usize..40) {
        let mut r = SplitMix(seed);
        let start = if r.below(2) == 0 {
            random_full_rank_state(2, &mut r)
        } else {
            random_x_state(&mut r)
        };
        let (mut dense, mut reference) = (DensePair::from_density(&start), start);
        for step in 0..steps {
            if let Err(e) = dense_step(&mut r, &mut dense, &mut reference) {
                prop_assert!(false, "step {step}: {e}");
            }
        }
    }
}
