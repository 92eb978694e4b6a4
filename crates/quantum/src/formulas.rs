//! Closed-form fidelity formulas on Werner (isotropic) states.
//!
//! The routing protocol (Sec. 5: "simulating the worst case scenario where
//! every link-pair is swapped just before its cutoff timer pops") needs to
//! *predict* end-to-end fidelity from per-link fidelities without running
//! quantum states. Werner states — a Bell state mixed with white noise —
//! give conservative, composable bounds:
//!
//! * swap: `w_out = w₁·w₂` in the Werner parameter `w = (4F−1)/3`;
//! * two-qubit depolarizing (gate noise): `F ← (1−p)F + p/4`;
//! * dephasing: a phase flip with probability `λ` maps `F ← F − λ(4F−1)/3`
//!   for Werner inputs.
//!
//! Each formula is validated against the density-matrix engine in this
//! module's tests, so the analytic layer and the simulation layer cannot
//! drift apart silently.

/// Werner parameter `w = (4F − 1)/3` of a state with fidelity `F`.
pub fn werner_param(f: f64) -> f64 {
    (4.0 * f - 1.0) / 3.0
}

/// Fidelity `(3w + 1)/4` of a Werner state with parameter `w`.
pub fn werner_fidelity(w: f64) -> f64 {
    (3.0 * w + 1.0) / 4.0
}

/// Fidelity after an ideal entanglement swap of two Werner pairs.
pub fn swap_fidelity(f1: f64, f2: f64) -> f64 {
    werner_fidelity(werner_param(f1) * werner_param(f2))
}

/// Fidelity after applying a two-qubit depolarizing channel with
/// probability `p` (e.g. an imperfect swap gate) to a pair of fidelity `f`.
pub fn depolarized_pair_fidelity(f: f64, p: f64) -> f64 {
    (1.0 - p) * f + p / 4.0
}

/// Combined phase-flip probability of two independent flips.
pub fn combine_flip_probs(p1: f64, p2: f64) -> f64 {
    p1 + p2 - 2.0 * p1 * p2
}

/// Fidelity of a Werner pair after its qubits suffer a total phase-flip
/// probability `lambda` (use [`combine_flip_probs`] for two-sided idling).
pub fn dephased_pair_fidelity(f: f64, lambda: f64) -> f64 {
    f - lambda * (4.0 * f - 1.0) / 3.0
}

/// Number of swaps for a path of `n_links` links.
pub fn swaps_for_links(n_links: usize) -> usize {
    n_links.saturating_sub(1)
}

/// End-to-end fidelity of a chain of `n` identical Werner links of
/// fidelity `f_link`, with a two-qubit depolarizing probability `p_swap`
/// charged per swap and a per-pair dephasing probability `lambda_idle`
/// charged per link (the worst-case cutoff wait).
pub fn chain_fidelity(n: usize, f_link: f64, p_swap: f64, lambda_idle: f64) -> f64 {
    assert!(n >= 1);
    // Each link decoheres for the worst-case idle window first.
    let f_idle = dephased_pair_fidelity(f_link, lambda_idle);
    let mut w = werner_param(f_idle);
    let w_gate = werner_param(depolarized_pair_fidelity(1.0, p_swap));
    for _ in 0..swaps_for_links(n) {
        w *= werner_param(f_idle) * w_gate;
    }
    // Undo the double count: the loop multiplied one w per *extra* link.
    werner_fidelity(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bell::BellState;
    use crate::channels;
    use crate::measure::bell_measure_ideal;
    use crate::state::DensityMatrix;

    /// Build a Werner state with the given fidelity to Φ+.
    fn werner(f: f64) -> DensityMatrix {
        let w = werner_param(f);
        let phi = BellState::PHI_PLUS.density();
        let mixed = DensityMatrix::maximally_mixed(2);
        let m = &phi.matrix().scale(w) + &mixed.matrix().scale(1.0 - w);
        DensityMatrix::from_matrix(m)
    }

    #[test]
    fn werner_param_round_trip() {
        for f in [0.25, 0.5, 0.8, 1.0] {
            assert!((werner_fidelity(werner_param(f)) - f).abs() < 1e-12);
        }
    }

    #[test]
    fn werner_state_has_requested_fidelity() {
        for f in [0.5, 0.75, 0.9, 0.99] {
            let rho = werner(f);
            let measured = rho.fidelity_pure(&BellState::PHI_PLUS.amplitudes());
            assert!((measured - f).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_formula_matches_density_matrix_simulation() {
        for (f1, f2) in [(1.0, 1.0), (0.95, 0.9), (0.8, 0.7), (0.6, 0.99)] {
            let joint = werner(f1).tensor(&werner(f2));
            // Average over the four outcomes: after Pauli correction the
            // fidelity is outcome-independent for Werner inputs; check one.
            let (outcome, rest) = bell_measure_ideal(&joint, 1, 2, 0.12);
            let rest = rest.unwrap();
            let expected_state = BellState::PHI_PLUS.combine(BellState::PHI_PLUS, outcome);
            let f_sim = rest.fidelity_pure(&expected_state.amplitudes());
            let f_formula = swap_fidelity(f1, f2);
            assert!(
                (f_sim - f_formula).abs() < 1e-9,
                "swap({f1},{f2}): sim {f_sim} vs formula {f_formula}"
            );
        }
    }

    #[test]
    fn depolarized_pair_matches_density_matrix() {
        for (f, p) in [(0.9, 0.05), (0.8, 0.2), (1.0, 0.01)] {
            let mut rho = werner(f);
            rho.apply_kraus(&channels::depolarizing_2q(p), &[0, 1]);
            let f_sim = rho.fidelity_pure(&BellState::PHI_PLUS.amplitudes());
            let f_formula = depolarized_pair_fidelity(f, p);
            assert!(
                (f_sim - f_formula).abs() < 1e-9,
                "depol({f},{p}): sim {f_sim} vs formula {f_formula}"
            );
        }
    }

    #[test]
    fn dephased_pair_matches_density_matrix() {
        for (f, p1, p2) in [(0.95, 0.01, 0.02), (0.8, 0.1, 0.0), (0.9, 0.05, 0.05)] {
            let mut rho = werner(f);
            rho.apply_kraus(&channels::dephasing(p1), &[0]);
            rho.apply_kraus(&channels::dephasing(p2), &[1]);
            let f_sim = rho.fidelity_pure(&BellState::PHI_PLUS.amplitudes());
            let lambda = combine_flip_probs(p1, p2);
            let f_formula = dephased_pair_fidelity(f, lambda);
            assert!(
                (f_sim - f_formula).abs() < 1e-9,
                "dephase({f},{p1},{p2}): sim {f_sim} vs formula {f_formula}"
            );
        }
    }

    #[test]
    fn chain_fidelity_monotone_in_link_fidelity_and_length() {
        assert!(chain_fidelity(3, 0.95, 0.002, 0.01) > chain_fidelity(3, 0.9, 0.002, 0.01));
        assert!(chain_fidelity(2, 0.95, 0.002, 0.01) > chain_fidelity(4, 0.95, 0.002, 0.01));
        assert!((chain_fidelity(1, 0.95, 0.0, 0.0) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn impossible_targets_are_rejected() {
        // Long chain + noisy swaps cannot reach 0.99, even from perfect
        // links.
        assert!(chain_fidelity(6, 1.0, 0.05, 0.05) < 0.99);
    }

    #[test]
    fn two_link_chain_worst_case_is_conservative_vs_simulation() {
        // Simulate the exact worst case the routing protocol assumes and
        // verify the analytic budget is a lower bound on the simulated
        // fidelity (conservatism is what makes the budget safe).
        let f_link = 0.95;
        let lambda = 0.01;
        let p_swap = 0.0027;
        let budget = chain_fidelity(2, f_link, p_swap, lambda);

        let mut a = werner(f_link);
        a.apply_kraus(&channels::dephasing(lambda), &[1]);
        let mut b = werner(f_link);
        b.apply_kraus(&channels::dephasing(lambda), &[1]);
        let mut joint = a.tensor(&b);
        joint.apply_kraus(&channels::depolarizing_2q(p_swap), &[1, 2]);
        let (outcome, rest) = bell_measure_ideal(&joint, 1, 2, 0.4);
        let rest = rest.unwrap();
        let expected = BellState::PHI_PLUS.combine(BellState::PHI_PLUS, outcome);
        let f_sim = rest.fidelity_pure(&expected.amplitudes());
        assert!(
            f_sim >= budget - 1e-6,
            "simulated {f_sim} must not fall below budget {budget}"
        );
    }
}
