//! Entanglement distillation (paper §4.3).
//!
//! The paper positions the QNP as a building block: a distillation
//! service consumes two pairs delivered between the same two nodes and
//! produces — with finite probability — one pair of higher fidelity.
//! This module implements the physical primitive: the BBPSSW-style
//! bilateral-CNOT + parity-check circuit, built from the same noisy
//! gates and readouts the entanglement swap uses.
//!
//! Circuit, for two pairs both spanning nodes (X, Y):
//!
//! 1. Rotate both pairs into the Φ⁺ frame (perfect local Paulis per
//!    Table 1).
//! 2. At each node: CNOT from the kept pair's qubit onto the sacrificed
//!    pair's qubit (noisy two-qubit gate).
//! 3. Measure both sacrificed qubits in Z (noisy readout).
//! 4. Keep the surviving pair iff the announced outcomes agree.
//!
//! For Werner inputs of fidelity `F` with ideal operations the textbook
//! results hold (validated in tests):
//!
//! * success probability `p = F² + 2F(1−F)/3 + 5((1−F)/3)²`
//! * output fidelity `F' = (F² + ((1−F)/3)²) / p`, which exceeds `F`
//!   whenever `F > 1/2`.

use crate::pairs::{PairId, PairStore, SwapNoise};
use qn_quantum::bell::BellState;
use qn_quantum::pairstate::CondTable;
use qn_quantum::{channels, gates};
use qn_sim::{NodeId, SimRng, SimTime};

/// Outcome of one distillation attempt.
#[derive(Clone, Copy, Debug)]
pub struct DistillResult {
    /// Whether the parity check (announced outcomes) succeeded.
    pub success: bool,
    /// The surviving pair (degraded rather than improved on failure).
    pub kept: PairId,
    /// The qubits freed by measuring the sacrificed pair.
    pub freed: [(NodeId, crate::device::QubitId); 2],
}

/// Textbook BBPSSW success probability for Werner inputs.
pub fn bbpssw_success_prob(f: f64) -> f64 {
    let g = (1.0 - f) / 3.0;
    f * f + 2.0 * f * g + 5.0 * g * g
}

/// Textbook BBPSSW output fidelity for Werner inputs.
pub fn bbpssw_output_fidelity(f: f64) -> f64 {
    let g = (1.0 - f) / 3.0;
    (f * f + g * g) / bbpssw_success_prob(f)
}

impl PairStore {
    /// Distill `keep` using `sacrifice`; both pairs must span the same
    /// two nodes. Performed at time `now` with the given gate/readout
    /// noise. On failure the kept pair is left in the store (degraded by
    /// the circuit); the caller decides whether to retry or discard.
    ///
    /// Returns the announced parity-check verdict. The sacrificed pair is
    /// always consumed (measured out) and removed from the store.
    pub fn distill(
        &mut self,
        keep: PairId,
        sacrifice: PairId,
        now: SimTime,
        noise: &SwapNoise,
        rng: &mut SimRng,
    ) -> DistillResult {
        self.advance(keep, now);
        self.advance(sacrifice, now);

        // Rotate both pairs into the Φ+ frame via perfect local Paulis.
        for id in [keep, sacrifice] {
            let pair = self.get(id).expect("distill on dead pair");
            let announced = pair.announced;
            let node0 = pair.ends()[0].node;
            let correction = announced.correction_to(BellState::PHI_PLUS);
            self.apply_pauli(id, node0, qn_quantum::Pauli::I, now); // advance only
            if correction != qn_quantum::Pauli::I {
                // Apply on end 1 per the bell-state convention.
                let node1 = self.get(id).expect("pair").ends()[1].node;
                self.apply_pauli(id, node1, correction, now);
            }
        }

        let a = self.get(keep).expect("keep pair");
        let b = self.get(sacrifice).expect("sacrifice pair");
        let (na, nb) = (a.ends()[0].node, a.ends()[1].node);
        assert!(
            b.end_at(na).is_some() && b.end_at(nb).is_some(),
            "distillation requires both pairs between the same nodes"
        );
        // Orientation of the sacrificed pair relative to the kept one.
        let b0_at_na = b.ends()[0].node == na;

        // Fast path: one conditional-map table contraction instead of
        // the 16×16 joint-register circuit.
        let fast = match (a.state().as_bell(), b.state().as_bell()) {
            (Some(x), Some(y)) => CondTable::distill(noise.p_two_qubit(), b0_at_na).map(|t| {
                let u1 = rng.f64();
                let u2 = rng.f64();
                t.apply(x, y, u1, u2)
            }),
            _ => None,
        };

        let (m_na, m_nb, post) = match fast {
            Some((m_na, m_nb, bd)) => (m_na, m_nb, qn_quantum::PairState::Bell(bd)),
            None => {
                // Joint register: [a0, a1, b0, b1]; align so CNOTs act
                // locally.
                let mut joint = a.state().to_density().tensor(&b.state().to_density());
                let (b_at_na, b_at_nb) = if b0_at_na { (2, 3) } else { (3, 2) };
                let two = channels::depolarizing_2q(noise.p_two_qubit());

                // Bilateral CNOTs with two-qubit gate noise.
                for (ctrl, tgt) in [(0usize, b_at_na), (1usize, b_at_nb)] {
                    joint.apply_unitary(&gates::cnot(), &[ctrl, tgt]);
                    if noise.p_two_qubit() > 0.0 {
                        joint.apply_kraus(&two, &[ctrl, tgt]);
                    }
                }
                // Measure the sacrificed qubits in Z.
                let m_na = joint.measure_z(b_at_na, rng.f64());
                let m_nb = joint.measure_z(b_at_nb, rng.f64());
                // The kept pair's post-circuit state.
                let post = joint.partial_trace_keep(&[0, 1]);
                let post = qn_quantum::PairState::from_density(post, self.rep());
                (m_na, m_nb, post)
            }
        };
        let r_na = flip_with_readout(m_na, noise, rng);
        let r_nb = flip_with_readout(m_nb, noise, rng);
        let success = r_na == r_nb;

        let freed = self.discard(sacrifice).expect("sacrificed pair existed");
        self.replace_pair_state(keep, post, BellState::PHI_PLUS);

        DistillResult {
            success,
            kept: keep,
            freed,
        }
    }
}

fn flip_with_readout(outcome: bool, noise: &SwapNoise, rng: &mut SimRng) -> bool {
    let fid = if outcome {
        noise.readout().fidelity1
    } else {
        noise.readout().fidelity0
    };
    if rng.bernoulli(1.0 - fid) {
        !outcome
    } else {
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::QubitId;
    use crate::params::{HardwareParams, ReadoutSpec};
    use qn_quantum::formulas::werner_param;
    use qn_quantum::DensityMatrix;
    use qn_quantum::StateRep;

    fn perfect_noise() -> SwapNoise {
        let readout = ReadoutSpec {
            fidelity0: 1.0,
            fidelity1: 1.0,
            duration: 0.0,
        };
        SwapNoise::new(0.0, 0.0, readout, StateRep::Bell)
    }

    fn werner(f: f64) -> DensityMatrix {
        let w = werner_param(f);
        let phi = BellState::PHI_PLUS.density();
        let mixed = DensityMatrix::maximally_mixed(2);
        DensityMatrix::from_matrix(&phi.matrix().scale(w) + &mixed.matrix().scale(1.0 - w))
    }

    fn mk(store: &mut PairStore, f: f64, announced: BellState, q: u32) -> PairId {
        // Build the Werner state in the announced frame.
        let mut state = werner(f);
        let corr = BellState::PHI_PLUS.correction_to(announced);
        if corr != qn_quantum::Pauli::I {
            state.apply_unitary(&corr.matrix(), &[1]);
        }
        store.create(
            SimTime::ZERO,
            state,
            announced,
            [
                (NodeId(0), QubitId(q), f64::INFINITY, f64::INFINITY),
                (NodeId(1), QubitId(q), f64::INFINITY, f64::INFINITY),
            ],
        )
    }

    #[test]
    fn textbook_formulas_sane() {
        // Distillation gains only above F = 1/2; check the fixed points.
        assert!((bbpssw_output_fidelity(1.0) - 1.0).abs() < 1e-12);
        for f in [0.6, 0.7, 0.8, 0.9] {
            assert!(bbpssw_output_fidelity(f) > f, "gain at {f}");
            let p = bbpssw_success_prob(f);
            assert!(p > 0.0 && p <= 1.0);
        }
    }

    #[test]
    fn ideal_distillation_matches_textbook_statistics() {
        let f_in = 0.8;
        let noise = perfect_noise();
        let mut rng = SimRng::from_seed(7);
        let n = 400;
        let mut successes = 0usize;
        let mut fid_sum = 0.0;
        for _ in 0..n {
            let mut store = PairStore::new(StateRep::Bell);
            let a = mk(&mut store, f_in, BellState::PHI_PLUS, 0);
            let b = mk(&mut store, f_in, BellState::PHI_PLUS, 1);
            let res = store.distill(a, b, SimTime::ZERO, &noise, &mut rng);
            if res.success {
                successes += 1;
                fid_sum += store.fidelity_to(res.kept, BellState::PHI_PLUS, SimTime::ZERO);
            }
        }
        let p_meas = successes as f64 / n as f64;
        let f_meas = fid_sum / successes as f64;
        let p_th = bbpssw_success_prob(f_in);
        let f_th = bbpssw_output_fidelity(f_in);
        assert!(
            (p_meas - p_th).abs() < 0.06,
            "success prob {p_meas} vs textbook {p_th}"
        );
        assert!(
            (f_meas - f_th).abs() < 0.02,
            "output fidelity {f_meas} vs textbook {f_th}"
        );
        assert!(f_meas > f_in, "distillation must gain fidelity");
    }

    #[test]
    fn distillation_rotates_arbitrary_announced_frames() {
        // Pairs delivered as Ψ± must distill just as well: the frame
        // rotation is part of the circuit.
        let noise = perfect_noise();
        let mut rng = SimRng::from_seed(11);
        let mut ok = 0;
        let n = 120;
        for i in 0..n {
            let mut store = PairStore::new(StateRep::Bell);
            let a = mk(&mut store, 0.85, BellState::from_index(i % 4), 0);
            let b = mk(&mut store, 0.85, BellState::from_index((i / 4) % 4), 1);
            let res = store.distill(a, b, SimTime::ZERO, &noise, &mut rng);
            if res.success {
                let f = store.fidelity_to(res.kept, BellState::PHI_PLUS, SimTime::ZERO);
                if f > 0.85 {
                    ok += 1;
                }
            }
        }
        assert!(ok > n / 2, "most successful rounds must gain: {ok}/{n}");
    }

    #[test]
    fn noisy_gates_cap_the_gain() {
        // With the paper's 0.998 two-qubit gates distillation still gains
        // at F=0.8, but less than the textbook amount.
        let noise = SwapNoise::from_params(&HardwareParams::simulation(), StateRep::Bell);
        let mut rng = SimRng::from_seed(13);
        let n = 300;
        let mut successes = 0usize;
        let mut fid_sum = 0.0;
        for _ in 0..n {
            let mut store = PairStore::new(StateRep::Bell);
            let a = mk(&mut store, 0.8, BellState::PHI_PLUS, 0);
            let b = mk(&mut store, 0.8, BellState::PHI_PLUS, 1);
            let res = store.distill(a, b, SimTime::ZERO, &noise, &mut rng);
            if res.success {
                successes += 1;
                fid_sum += store.fidelity_to(res.kept, BellState::PHI_PLUS, SimTime::ZERO);
            }
        }
        let f_meas = fid_sum / successes as f64;
        assert!(f_meas > 0.8, "still gains with noisy gates: {f_meas}");
        assert!(
            f_meas < bbpssw_output_fidelity(0.8) + 0.01,
            "cannot beat the ideal circuit"
        );
    }

    #[test]
    fn sacrificed_pair_is_removed() {
        let noise = perfect_noise();
        let mut rng = SimRng::from_seed(17);
        let mut store = PairStore::new(StateRep::Bell);
        let a = mk(&mut store, 0.9, BellState::PHI_PLUS, 0);
        let b = mk(&mut store, 0.9, BellState::PHI_PLUS, 1);
        let res = store.distill(a, b, SimTime::ZERO, &noise, &mut rng);
        assert!(store.contains(res.kept));
        assert!(!store.contains(b));
        assert_eq!(res.freed[0].0, NodeId(0));
        assert_eq!(res.freed[1].0, NodeId(1));
    }
}
