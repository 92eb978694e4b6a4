//! Fidelity budgeting and cutoff computation — the paper's "rudimentary
//! algorithm" (§5): *"It calculates a network path together with link
//! fidelities as a function of end-to-end requirements by simulating the
//! worst case scenario where every link-pair is swapped just before its
//! cutoff timer pops."*
//!
//! The worst-case chain model (on Werner states, conservative):
//!
//! * every link-pair idles for the full cutoff window before its swap
//!   (two-sided T2 dephasing, T1 damping negligible at these scales);
//! * every swap charges the two-qubit gate depolarizing noise and the
//!   readout-error-induced mistracking penalty.
//!
//! Inverting the model gives the per-link fidelity for a requested
//! end-to-end fidelity. The formulas come from `qn-quantum::formulas`
//! where each is validated against the density-matrix engine.

use qn_hardware::heralding::LinkPhysics;
use qn_hardware::params::HardwareParams;
use qn_quantum::channels;
use qn_quantum::formulas;
use qn_sim::SimDuration;

/// How the cutoff timeout is chosen (§5 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CutoffPolicy {
    /// The time for a fresh link-pair to lose ≈1.5 % of its initial
    /// fidelity ("Normally we set the cutoff time to a value determined
    /// by the memory lifetime").
    FidelityLoss {
        /// Fraction of initial fidelity allowed to decay (0.015 in the
        /// paper).
        fraction: f64,
    },
    /// The time at which a link has the given probability of having
    /// generated a pair (the "shorter cutoff … 0.85 probability").
    GenerationQuantile {
        /// Target generation probability (0.85 in the paper).
        probability: f64,
    },
    /// A hand-picked value (the paper's Fig 11 tunes this manually).
    Manual(SimDuration),
}

impl CutoffPolicy {
    /// The paper's default ("long") cutoff.
    pub fn long() -> Self {
        CutoffPolicy::FidelityLoss { fraction: 0.015 }
    }

    /// The paper's "shorter cutoff".
    pub fn short() -> Self {
        CutoffPolicy::GenerationQuantile { probability: 0.85 }
    }

    /// The policy as integers, for keying remembered plans: the variant
    /// and its parameter's bits.
    pub(crate) fn key(&self) -> (u8, u64) {
        match *self {
            CutoffPolicy::FidelityLoss { fraction } => (0, fraction.to_bits()),
            CutoffPolicy::GenerationQuantile { probability } => (1, probability.to_bits()),
            CutoffPolicy::Manual(d) => (2, d.as_ps()),
        }
    }

    /// Evaluate the policy for a link producing pairs of fidelity
    /// `f_link` at bright-state parameter `alpha`.
    pub fn evaluate(&self, physics: &LinkPhysics, f_link: f64, alpha: f64) -> SimDuration {
        match *self {
            CutoffPolicy::Manual(d) => d,
            CutoffPolicy::FidelityLoss { fraction } => {
                cutoff_for_fidelity_loss(physics.params(), f_link, fraction)
            }
            CutoffPolicy::GenerationQuantile { probability } => {
                cutoff_for_generation_quantile(physics, alpha, probability)
            }
        }
    }
}

/// Time for a pair of fidelity `f0` to decay to `f0·(1−fraction)` under
/// two-sided T2 dephasing.
pub fn cutoff_for_fidelity_loss(params: &HardwareParams, f0: f64, fraction: f64) -> SimDuration {
    let t2 = params.electron_t2;
    let delta_f = fraction * f0;
    // λ needed: ΔF = λ·(4F−1)/3.
    let lambda = (3.0 * delta_f / (4.0 * f0 - 1.0)).clamp(0.0, 0.5);
    // Two-sided dephasing: λ = 2p − 2p² ⇒ p = (1 − √(1−2λ))/2.
    let p = 0.5 * (1.0 - (1.0 - 2.0 * lambda).max(0.0).sqrt());
    // p = (1 − e^{−t/T2})/2 ⇒ t = −T2·ln(1 − 2p).
    let t = -t2 * (1.0 - 2.0 * p).max(1e-12).ln();
    SimDuration::from_secs_f64(t)
}

/// Time at which the link has `probability` chance of having produced at
/// least one pair (geometric quantile over attempt cycles).
pub fn cutoff_for_generation_quantile(
    physics: &LinkPhysics,
    alpha: f64,
    probability: f64,
) -> SimDuration {
    let p = physics.success_prob(alpha).clamp(1e-12, 1.0 - 1e-12);
    let cycles = ((1.0 - probability).ln() / (1.0 - p).ln()).ceil().max(1.0);
    physics.cycle_time().mul_f64(cycles)
}

/// Per-swap Werner-parameter penalty from the hardware: two-qubit gate
/// depolarizing plus readout mistracking (two measurements per swap, a
/// flipped announced bit relabels the pair to an orthogonal Bell state).
pub fn swap_noise_params(params: &HardwareParams) -> (f64, f64) {
    let p_gate = channels::depolarizing_param_for_fidelity(params.gates.two_qubit.fidelity, 4);
    let q = 1.0 - 0.5 * (params.gates.readout.fidelity0 + params.gates.readout.fidelity1);
    (p_gate, q)
}

/// Worst-case end-to-end fidelity of `n_links` identical links of
/// fidelity `f_link` when every pair idles a full `cutoff` before its
/// swap.
pub fn worst_case_chain_fidelity(
    params: &HardwareParams,
    n_links: usize,
    f_link: f64,
    cutoff: SimDuration,
) -> f64 {
    let t2 = params.electron_t2;
    let p_idle = channels::dephasing_prob(cutoff.as_secs_f64(), t2);
    let lambda = formulas::combine_flip_probs(p_idle, p_idle);
    let (p_gate, q) = swap_noise_params(params);
    let f = formulas::chain_fidelity(n_links, f_link, p_gate, lambda);
    // Mistracking: each swap announces 2 bits; each bit flips w.p. q.
    // A flip moves the pair to an orthogonal Bell state (fidelity ≈
    // (1−F)/3 ≈ 0): charge the full fidelity mass of the flip branches.
    let n_swaps = n_links.saturating_sub(1) as f64;
    let p_good_bits = ((1.0 - q) * (1.0 - q)).powf(n_swaps);
    let w = formulas::werner_param(f) * p_good_bits;
    formulas::werner_fidelity(w)
}

/// Invert [`worst_case_chain_fidelity`] for the per-link fidelity needed
/// to hit `f_target` end-to-end; `None` if unattainable even with
/// perfect links.
pub fn required_link_fidelity(
    params: &HardwareParams,
    n_links: usize,
    f_target: f64,
    cutoff: SimDuration,
) -> Option<f64> {
    if worst_case_chain_fidelity(params, n_links, 1.0, cutoff) < f_target {
        return None;
    }
    let (mut lo, mut hi) = (0.25f64, 1.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if worst_case_chain_fidelity(params, n_links, mid, cutoff) >= f_target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_hardware::params::FibreParams;

    fn lab_physics() -> LinkPhysics {
        LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m())
    }

    #[test]
    fn long_cutoff_scales_with_t2() {
        let p60 = HardwareParams::simulation();
        let p16 = HardwareParams::simulation().with_electron_t2(1.6);
        let c60 = cutoff_for_fidelity_loss(&p60, 0.95, 0.015);
        let c16 = cutoff_for_fidelity_loss(&p16, 0.95, 0.015);
        assert!(c60 > c16);
        let ratio = c60.as_secs_f64() / c16.as_secs_f64();
        assert!(
            (ratio - 60.0 / 1.6).abs() < 0.5,
            "cutoff ∝ T2: ratio {ratio}"
        );
        // For T2 = 60 s the cutoff is of order a second.
        assert!(c60.as_secs_f64() > 0.3 && c60.as_secs_f64() < 3.0);
    }

    #[test]
    fn cutoff_produces_the_requested_loss() {
        let params = HardwareParams::simulation().with_electron_t2(2.0);
        let f0 = 0.95;
        let cutoff = cutoff_for_fidelity_loss(&params, f0, 0.015);
        let p = channels::dephasing_prob(cutoff.as_secs_f64(), 2.0);
        let lambda = formulas::combine_flip_probs(p, p);
        let f_after = formulas::dephased_pair_fidelity(f0, lambda);
        let loss = (f0 - f_after) / f0;
        assert!((loss - 0.015).abs() < 1e-3, "loss {loss}");
    }

    #[test]
    fn short_cutoff_matches_geometric_quantile() {
        let physics = lab_physics();
        let alpha = physics.alpha_for_fidelity(0.95).unwrap();
        let cutoff = cutoff_for_generation_quantile(&physics, alpha, 0.85);
        // P(at least one success within cutoff) ≈ 0.85.
        let p = physics.success_prob(alpha);
        let cycles = cutoff.as_secs_f64() / physics.cycle_time().as_secs_f64();
        let prob = 1.0 - (1.0 - p).powf(cycles);
        assert!((prob - 0.85).abs() < 0.02, "generation prob {prob}");
    }

    #[test]
    fn short_cutoff_is_shorter_than_long_for_long_memories() {
        // With T2 = 60 s (Fig 8's "long-lived memory") the 1.5 % rule gives
        // ~1 s while the 0.85 quantile is tens of ms.
        let physics = lab_physics();
        let alpha = physics.alpha_for_fidelity(0.95).unwrap();
        let long = CutoffPolicy::long().evaluate(&physics, 0.95, alpha);
        let short = CutoffPolicy::short().evaluate(&physics, 0.95, alpha);
        assert!(
            short < long,
            "short cutoff {short} must undercut long {long}"
        );
    }

    #[test]
    fn required_link_fidelity_is_conservative() {
        // The simulated worst case chain must meet the target when links
        // are exactly at the budgeted fidelity.
        let params = HardwareParams::simulation();
        let cutoff = SimDuration::from_millis(50);
        for (n, target) in [(2, 0.9), (3, 0.85), (4, 0.8)] {
            let f_link = required_link_fidelity(&params, n, target, cutoff).unwrap();
            let achieved = worst_case_chain_fidelity(&params, n, f_link, cutoff);
            assert!(
                achieved >= target - 1e-9,
                "n={n}: {f_link} gives {achieved} < {target}"
            );
            assert!(f_link > target, "link fidelity must exceed e2e target");
        }
    }

    #[test]
    fn longer_chains_need_better_links() {
        let params = HardwareParams::simulation();
        let cutoff = SimDuration::from_millis(50);
        let f2 = required_link_fidelity(&params, 2, 0.85, cutoff).unwrap();
        let f4 = required_link_fidelity(&params, 4, 0.85, cutoff).unwrap();
        assert!(f4 > f2);
    }

    #[test]
    fn shorter_cutoff_relaxes_link_requirements() {
        // Paper Fig 8 caption: "A shorter cutoff allows the routing
        // algorithm to use a tighter bound on the decoherence and thus to
        // relax the fidelity requirements on each link improving their
        // rates."
        let params = HardwareParams::simulation().with_electron_t2(1.6);
        let f_tight = required_link_fidelity(&params, 3, 0.85, SimDuration::from_millis(5));
        let f_loose = required_link_fidelity(&params, 3, 0.85, SimDuration::from_millis(50));
        assert!(f_tight.unwrap() < f_loose.unwrap());
        // An even looser bound can make the target unattainable outright.
        assert_eq!(
            required_link_fidelity(&params, 3, 0.85, SimDuration::from_millis(100)),
            None
        );
    }

    #[test]
    fn unattainable_budget_rejected() {
        let params = HardwareParams::simulation().with_electron_t2(0.01);
        assert_eq!(
            required_link_fidelity(&params, 5, 0.95, SimDuration::from_secs(1)),
            None
        );
    }

    #[test]
    fn worst_case_validated_against_density_matrix() {
        // Build the exact worst case in the quantum engine: two links at
        // the budget fidelity, idle for the full cutoff, noisy swap.
        use qn_hardware::device::QubitId;
        use qn_hardware::pairs::{PairStore, SwapNoise};
        use qn_hardware::StateRep;
        use qn_quantum::bell::BellState;
        use qn_sim::{NodeId, SimRng, SimTime};

        let params = HardwareParams::simulation().with_electron_t2(1.6);
        let cutoff = SimDuration::from_millis(20);
        let target = 0.85;
        let f_link = required_link_fidelity(&params, 2, target, cutoff).unwrap();

        // Average the simulated outcome over several RNG draws.
        let mut total = 0.0;
        let n_runs = 30;
        for seed in 0..n_runs {
            let mut store = PairStore::new(StateRep::Bell);
            let mut rng = SimRng::from_seed(seed);
            let t2 = params.electron_t2;
            let w = formulas::werner_param(f_link);
            let phi = BellState::PHI_PLUS.density();
            let mixed = qn_quantum::DensityMatrix::maximally_mixed(2);
            let state = qn_quantum::DensityMatrix::from_matrix(
                &phi.matrix().scale(w) + &mixed.matrix().scale(1.0 - w),
            );
            let a = store.create(
                SimTime::ZERO,
                state.clone(),
                BellState::PHI_PLUS,
                [
                    (NodeId(0), QubitId(0), 3600.0, t2),
                    (NodeId(1), QubitId(0), 3600.0, t2),
                ],
            );
            let b = store.create(
                SimTime::ZERO,
                state,
                BellState::PHI_PLUS,
                [
                    (NodeId(1), QubitId(1), 3600.0, t2),
                    (NodeId(2), QubitId(0), 3600.0, t2),
                ],
            );
            // Both pairs idle the full cutoff; swap right at the deadline.
            let swap_at = SimTime::ZERO + cutoff;
            let noise = SwapNoise::from_params(&params, StateRep::Bell);
            let res = store.swap(a, b, NodeId(1), swap_at, &noise, &mut rng);
            let announced = store.get(res.new_pair).unwrap().announced;
            total += store.fidelity_to(res.new_pair, announced, swap_at);
        }
        let mean = total / n_runs as f64;
        assert!(
            mean >= target - 0.02,
            "worst-case simulation {mean} fell below budget target {target}"
        );
    }
}
