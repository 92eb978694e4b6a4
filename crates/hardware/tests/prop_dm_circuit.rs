//! The swap and distillation of a `StateRep::Dm` pair store against the
//! same circuits run on the n-qubit `DensityMatrix`: memory decay on
//! every end, the Pauli-frame corrections, the noisy gates, both Z
//! measurements and the partial trace. The store runs the
//! swap as one contraction with a cached 4×4 POVM element and the decay
//! and Paulis as closed forms on the 4×4 matrix, so rounding differs
//! from the reference: the outcomes must be identical and every entry
//! of the surviving pair's state within 1e-12 of it.
//!
//! The input pairs are random mixed states with many exact ±0
//! components, random full-rank states, and X-form pairs (the states
//! the simulator builds) decayed at the memory lifetimes of Fig 10.
//! Every swap case runs all four orientations of the two pairs, with
//! gate noise at 0, at 1 or in between; readout is perfect so the
//! announced outcomes expose the true ones.

use proptest::prelude::*;
use qn_hardware::device::QubitId;
use qn_hardware::pairs::{PairId, PairStore, SwapNoise};
use qn_hardware::params::ReadoutSpec;
use qn_hardware::StateRep;
use qn_quantum::bell::BellState;
use qn_quantum::matrix::CMatrix;
use qn_quantum::measure::swap_circuit_outcome;
use qn_quantum::{channels, gates, DensityMatrix};
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};
use qn_testkit::dense::{random_full_rank_state, random_state, random_x_state, SplitMix};

/// Largest difference allowed in any component of any entry.
const EPS: f64 = 1e-12;

/// Short memories, so decay is large over the idle times below.
const T1: f64 = 0.9;
const T2: f64 = 0.6;

/// The electron T1 of the simulation parameters, and the T2* values
/// that Fig 10 sweeps.
const T1_SIM: f64 = 3600.0;
const FIG10_T2: [f64; 9] = [0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6, 60.0];

fn noise(p_two_qubit: f64, p_single: f64) -> SwapNoise {
    let readout = ReadoutSpec {
        fidelity0: 1.0,
        fidelity1: 1.0,
        duration: 0.0,
    };
    SwapNoise::new(p_two_qubit, p_single, readout, StateRep::Dm)
}

/// A gate-noise probability: none, full, or in between.
fn strength(r: &mut SplitMix) -> f64 {
    match r.below(4) {
        0 => 0.0,
        1 => 1.0,
        _ => r.unit(),
    }
}

/// The reference of `PairStore::advance` for a pair idle for `dt`
/// seconds: amplitude damping then dephasing on each end in turn.
fn decay(mut rho: DensityMatrix, dt: f64, (t1, t2): (f64, f64)) -> DensityMatrix {
    if dt <= 0.0 {
        return rho;
    }
    for end in 0..2 {
        let gamma = channels::damping_prob(dt, t1);
        if gamma > 0.0 {
            rho.apply_kraus(&channels::amplitude_damping(gamma), &[end]);
        }
        let p = channels::dephasing_prob(dt, t2);
        if p > 0.0 {
            rho.apply_kraus(&channels::dephasing(p), &[end]);
        }
    }
    rho
}

/// Whether every component of every entry of `got` is within [`EPS`]
/// of `reference`.
fn close(got: &CMatrix, reference: &CMatrix) -> bool {
    got.data()
        .iter()
        .zip(reference.data())
        .all(|(x, y)| (x.re - y.re).abs() <= EPS && (x.im - y.im).abs() <= EPS)
}

fn dense_state(store: &PairStore, id: PairId) -> CMatrix {
    let state = store.get(id).expect("live pair").state();
    assert!(!state.is_bell(), "a Dm store holds dense states");
    state.to_density().matrix().clone()
}

fn create(
    store: &mut PairStore,
    state: DensityMatrix,
    announced: BellState,
    ends: [(u32, u32); 2],
    (t1, t2): (f64, f64),
) -> PairId {
    let end = |(node, qubit): (u32, u32)| (NodeId(node), QubitId(qubit), t1, t2);
    store.create(
        SimTime::ZERO,
        state,
        announced,
        [end(ends[0]), end(ends[1])],
    )
}

/// Swap A (nodes 0–1) and B (nodes 1–2) at node 1 in each of the four
/// orientations, with memory lifetimes `memory = (T1, T2)`, after
/// `idle_us` of decay, and compare with the reference circuit.
fn check_swap(
    r: &mut SplitMix,
    a: DensityMatrix,
    b: DensityMatrix,
    idle_us: u64,
    memory: (f64, f64),
) -> Result<(), TestCaseError> {
    let noise = noise(strength(r), strength(r));
    for (ia, ib) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        let mut store = PairStore::new(StateRep::Dm);
        let a_ends = if ia == 1 {
            [(0, 0), (1, 0)]
        } else {
            [(1, 0), (0, 0)]
        };
        let b_ends = if ib == 0 {
            [(1, 1), (2, 0)]
        } else {
            [(2, 0), (1, 1)]
        };
        let pa = create(&mut store, a.clone(), BellState::PHI_PLUS, a_ends, memory);
        let pb = create(&mut store, b.clone(), BellState::PSI_MINUS, b_ends, memory);
        let now = SimTime::ZERO + SimDuration::from_micros(idle_us);
        let rng_seed = r.next_u64();
        let res = store.swap(
            pa,
            pb,
            NodeId(1),
            now,
            &noise,
            &mut SimRng::from_seed(rng_seed),
        );

        let dt = now.since(SimTime::ZERO).as_secs_f64();
        let mut joint = decay(a.clone(), dt, memory).tensor(&decay(b.clone(), dt, memory));
        let (qa, qb) = (ia, 2 + ib);
        joint.apply_unitary(&gates::cnot(), &[qa, qb]);
        if noise.p_two_qubit() > 0.0 {
            joint.apply_kraus(&channels::depolarizing_2q(noise.p_two_qubit()), &[qa, qb]);
        }
        joint.apply_unitary(&gates::h(), &[qa]);
        if noise.p_single() > 0.0 {
            joint.apply_kraus(&channels::depolarizing(noise.p_single()), &[qa]);
        }
        let mut rng = SimRng::from_seed(rng_seed);
        let m_control = joint.measure_z(qa, rng.f64());
        let m_target = joint.measure_z(qb, rng.f64());
        let post = joint.partial_trace_keep(&[1 - ia, 2 + (1 - ib)]);

        prop_assert_eq!(res.outcome, swap_circuit_outcome(m_control, m_target));
        prop_assert!(
            close(&dense_state(&store, res.new_pair), post.matrix()),
            "swap (ia {ia}, ib {ib}, {noise:?}) differs from the reference"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Swap of sparse random mixed states with signed zeros.
    #[test]
    fn dense_swap_matches_reference_circuit(seed in any::<u64>(), idle_us in 0u64..3000) {
        let mut r = SplitMix(seed);
        let (a, b) = (random_state(2, &mut r), random_state(2, &mut r));
        check_swap(&mut r, a, b, idle_us, (T1, T2))?;
    }

    /// Swap of random full-rank states.
    #[test]
    fn dense_swap_of_full_rank_pairs_matches_reference_circuit(
        seed in any::<u64>(),
        idle_us in 0u64..3000,
    ) {
        let mut r = SplitMix(seed);
        let (a, b) = (random_full_rank_state(2, &mut r), random_full_rank_state(2, &mut r));
        check_swap(&mut r, a, b, idle_us, (T1, T2))?;
    }

    /// The swap on X-form pairs at a T2* of Fig 10: the decay and the
    /// gate noise of every dense swap in `fig10_dm`.
    #[test]
    fn dense_swap_of_x_form_pairs_matches_reference_circuit(
        seed in any::<u64>(),
        idle_us in 0u64..3000,
    ) {
        let mut r = SplitMix(seed);
        let t2 = FIG10_T2[r.below(FIG10_T2.len())];
        let (a, b) = (random_x_state(&mut r), random_x_state(&mut r));
        check_swap(&mut r, a, b, idle_us, (T1_SIM, t2))?;
    }

    /// BBPSSW round keeping K (nodes 0–1) and sacrificing S between the
    /// same nodes in either orientation, both in random Bell frames.
    #[test]
    fn dense_distill_matches_reference_circuit(seed in any::<u64>(), idle_us in 0u64..3000) {
        let mut r = SplitMix(seed);
        let b0_at_na = r.below(2) == 0;
        let noise = noise(strength(&mut r), 0.0);
        let frames = [BellState::ALL[r.below(4)], BellState::ALL[r.below(4)]];
        let (k, s) = (random_state(2, &mut r), random_state(2, &mut r));
        let mut store = PairStore::new(StateRep::Dm);
        let s_ends = if b0_at_na { [(0, 1), (1, 1)] } else { [(1, 1), (0, 1)] };
        let keep = create(&mut store, k.clone(), frames[0], [(0, 0), (1, 0)], (T1, T2));
        let sacrifice = create(&mut store, s.clone(), frames[1], s_ends, (T1, T2));
        let now = SimTime::ZERO + SimDuration::from_micros(idle_us);
        let rng_seed = r.next_u64();
        let res = store.distill(keep, sacrifice, now, &noise, &mut SimRng::from_seed(rng_seed));

        let dt = now.since(SimTime::ZERO).as_secs_f64();
        let [k, s] = [(k, frames[0]), (s, frames[1])].map(|(state, frame)| {
            let mut rho = decay(state, dt, (T1, T2));
            let pauli = frame.correction_to(BellState::PHI_PLUS);
            if pauli != qn_quantum::Pauli::I {
                rho.apply_unitary(&pauli.matrix(), &[1]);
            }
            rho
        });
        let mut joint = k.tensor(&s);
        let (b_at_na, b_at_nb) = if b0_at_na { (2, 3) } else { (3, 2) };
        for (ctrl, tgt) in [(0, b_at_na), (1, b_at_nb)] {
            joint.apply_unitary(&gates::cnot(), &[ctrl, tgt]);
            if noise.p_two_qubit() > 0.0 {
                joint.apply_kraus(&channels::depolarizing_2q(noise.p_two_qubit()), &[ctrl, tgt]);
            }
        }
        let mut rng = SimRng::from_seed(rng_seed);
        let m_na = joint.measure_z(b_at_na, rng.f64());
        let m_nb = joint.measure_z(b_at_nb, rng.f64());
        let post = joint.partial_trace_keep(&[0, 1]);

        prop_assert_eq!(res.success, m_na == m_nb);
        prop_assert!(
            close(&dense_state(&store, res.kept), post.matrix()),
            "distill (b0_at_na {b0_at_na}, {noise:?}) differs from the reference"
        );
    }
}
