//! Single-click heralded entanglement generation.
//!
//! The physical mechanism behind link-pair generation on the NV platform
//! (Refs [38, 40] of the paper): both nodes emit a spin–photon entangled
//! state with *bright-state population* `α`, the photons interfere at a
//! midpoint station, and a single detector click heralds an entangled pair
//! of the electron spins.
//!
//! The `α` knob is the fidelity↔rate trade-off the whole stack exploits
//! (paper §2.3 P1: "some implementations are able to vary the fidelity of
//! the produced pairs though higher fidelities come at the cost of reduced
//! rates"):
//!
//! * success probability per attempt grows with `α` (≈ `2αη`),
//! * heralded fidelity falls with `α` (≈ `1 − α` before imperfections).
//!
//! The heralded state is assembled from three components, conditioned on a
//! single click:
//!
//! * the **coherent** part `|Ψ±⟩` with off-diagonals scaled by the photon
//!   indistinguishability (visibility) and the optical phase stability
//!   `cos Δφ` — weight `2α(1−α)η`;
//! * the **double-excitation** part `|11⟩` (both spins bright, one photon
//!   lost) — weight `2αη(α + p_double)`;
//! * the **dark-count** part (click without a photon): the uncorrelated
//!   product state — weight `2·p_dark`.
//!
//! This is the standard analytic single-click model; the paper uses
//! NetSquid's circuit-level NV model, which produces the same qualitative
//! α-dependence (DESIGN.md §2, substitution 2).

use crate::params::{FibreParams, HardwareParams};
use qn_quantum::bell::BellState;
use qn_quantum::pairstate::{BellDiagonal, DensePair, PairState, StateRep};
use qn_quantum::DensityMatrix;
use qn_sim::{SimDuration, SimRng};
use std::sync::OnceLock;

/// The physics of one quantum link: two identical devices joined by fibre
/// with a heralding station at the midpoint.
///
/// The parameters are fixed at construction, so the constants derived
/// from them are computed once: η, the dark-count probability, the
/// coherence factor and the attempt cycle time in [`LinkPhysics::new`],
/// the fidelity peak on the first call to [`LinkPhysics::max_fidelity`].
#[derive(Clone, Debug)]
pub struct LinkPhysics {
    params: HardwareParams,
    fibre: FibreParams,
    eta: f64,
    p_dark: f64,
    coherence: f64,
    cycle: SimDuration,
    /// `(F_max, α_peak)`, scanned on first use.
    peak: OnceLock<(f64, f64)>,
}

/// Relative weights of the heralded-state components at a given `α`.
#[derive(Clone, Copy, Debug)]
pub struct ComponentWeights {
    /// Coherent |Ψ±⟩ component.
    pub coherent: f64,
    /// |11⟩ (double excitation / both bright) component.
    pub double: f64,
    /// Dark-count (uncorrelated product) component.
    pub dark: f64,
}

impl ComponentWeights {
    /// Total click probability.
    pub fn total(&self) -> f64 {
        self.coherent + self.double + self.dark
    }
}

impl LinkPhysics {
    /// Build the physics of a link with the given hardware at both ends.
    pub fn new(params: HardwareParams, fibre: FibreParams) -> Self {
        let eta = params.p_zero_phonon
            * params.collection_efficiency
            * fibre.transmissivity(fibre.length_m / 2.0)
            * params.p_detection;
        let cycle = params.gates.electron_init.duration
            + params.tau_e
            + fibre.length_m / fibre.speed_m_per_s;
        LinkPhysics {
            eta,
            p_dark: params.dark_count_rate * params.tau_w,
            coherence: params.visibility * params.delta_phi.cos(),
            cycle: SimDuration::from_secs_f64(cycle.max(params.mhp_cycle_floor)),
            peak: OnceLock::new(),
            params,
            fibre,
        }
    }

    /// The hardware parameters.
    pub fn params(&self) -> &HardwareParams {
        &self.params
    }

    /// The fibre parameters.
    pub fn fibre(&self) -> &FibreParams {
        &self.fibre
    }

    /// Per-side photon detection efficiency `η`: zero-phonon emission ×
    /// collection × fibre (half length) × detector.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Dark-count probability within one detection window.
    pub fn p_dark(&self) -> f64 {
        self.p_dark
    }

    /// Coherence factor of the |Ψ±⟩ component: visibility × cos Δφ.
    pub fn coherence(&self) -> f64 {
        self.coherence
    }

    /// Component weights at bright-state parameter `alpha`.
    pub fn weights(&self, alpha: f64) -> ComponentWeights {
        let alpha = alpha.clamp(0.0, 0.5);
        let eta = self.eta;
        ComponentWeights {
            coherent: 2.0 * alpha * (1.0 - alpha) * eta,
            double: 2.0 * alpha * eta * (alpha + self.params.p_double_excitation),
            dark: 2.0 * self.p_dark,
        }
    }

    /// Probability that one attempt heralds success.
    pub fn success_prob(&self, alpha: f64) -> f64 {
        self.weights(alpha).total().min(1.0)
    }

    /// Analytic fidelity of the heralded state to the announced Bell state.
    pub fn fidelity(&self, alpha: f64) -> f64 {
        let w = self.weights(alpha);
        let alpha = alpha.clamp(0.0, 0.5);
        let f_coh = 0.5 * (1.0 + self.coherence);
        // ⟨Ψ±| ρ_dark |Ψ±⟩ = α(1−α) (the |01⟩/|10⟩ populations).
        let f_dark = alpha * (1.0 - alpha);
        let total = w.total();
        if total <= 0.0 {
            return 0.0;
        }
        (w.coherent * f_coh + w.dark * f_dark) / total
    }

    /// The heralded state, given which `|Ψ±⟩` was announced, as the
    /// X-state it is: the coherent `|Ψ±⟩` with its off-diagonals scaled
    /// by the coherence factor, plus `|11⟩⟨11|` and the uncorrelated
    /// dark-count product, each at its component weight.
    fn heralded_x(&self, alpha: f64, announced: BellState) -> BellDiagonal {
        assert!(announced.x, "single-click heralds Ψ± states");
        let a = alpha.clamp(0.0, 0.5);
        let w = self.weights(a);
        let total = w.total();
        let (coherent, double, dark) = (w.coherent / total, w.double / total, w.dark / total);
        let c = self.coherence * if announced.z { -1.0 } else { 1.0 };
        let psi = 0.5 * coherent + a * (1.0 - a) * dark;
        BellDiagonal::from_parts(
            [
                (1.0 - a) * (1.0 - a) * dark,
                psi,
                psi,
                double + a * a * dark,
            ],
            0.0,
            // `+ 0.0` as in the component sum: a zero coherence is +0.
            0.5 * c * coherent + 0.0,
        )
    }

    /// Density matrix of the heralded state, given which `|Ψ±⟩` was
    /// announced (`psi_minus = Ψ⁻`, otherwise `Ψ⁺`).
    pub fn heralded_state(&self, alpha: f64, announced: BellState) -> DensityMatrix {
        self.heralded_x(alpha, announced).to_density()
    }

    /// [`LinkPhysics::heralded_state`] in pair-state form, built
    /// directly in either representation: the heralded state is an
    /// X-state by construction.
    pub fn heralded_pair(&self, alpha: f64, announced: BellState, rep: StateRep) -> PairState {
        let x = self.heralded_x(alpha, announced);
        match rep {
            StateRep::Bell => PairState::Bell(x),
            StateRep::Dm => PairState::Dm(Box::new(DensePair::from_bell(&x))),
        }
    }

    /// Sample which Bell state a successful attempt announces (Ψ⁺ or Ψ⁻
    /// with equal probability, by which detector clicked).
    pub fn sample_announced(&self, rng: &mut SimRng) -> BellState {
        if rng.bernoulli(0.5) {
            BellState::PSI_PLUS
        } else {
            BellState::PSI_MINUS
        }
    }

    /// Duration of one attempt cycle: electron initialisation, emission,
    /// photon flight to the midpoint and herald reply — floored by the
    /// link-layer trigger period (DESIGN.md §7 calibration).
    pub fn cycle_time(&self) -> SimDuration {
        self.cycle
    }

    /// Expected number of attempts until success at `alpha`.
    pub fn expected_attempts(&self, alpha: f64) -> f64 {
        1.0 / self.success_prob(alpha).max(1e-300)
    }

    /// Expected wall-clock time to herald one pair at `alpha`.
    pub fn expected_pair_time(&self, alpha: f64) -> SimDuration {
        self.cycle_time().mul_f64(self.expected_attempts(alpha))
    }

    /// The highest fidelity this link can produce (over all `α`), and the
    /// `α` that attains it: the best of 400 log-spaced `α`, scanned on the
    /// first call and remembered.
    pub fn max_fidelity(&self) -> (f64, f64) {
        *self.peak.get_or_init(|| {
            let mut best = (0.0, 0.25);
            for i in 1..=400 {
                // Log-spaced from 1e-4 to 0.5.
                let alpha = 1e-4 * (0.5f64 / 1e-4).powf(i as f64 / 400.0);
                let f = self.fidelity(alpha);
                if f > best.0 {
                    best = (f, alpha);
                }
            }
            best
        })
    }

    /// The largest `α` (fastest rate) achieving at least `target` fidelity,
    /// or `None` when the link cannot reach it or `target` is not finite.
    /// Monotone bisection on the decreasing branch of `F(α)`.
    pub fn alpha_for_fidelity(&self, target: f64) -> Option<f64> {
        if !target.is_finite() {
            return None;
        }
        let (f_max, alpha_max) = self.max_fidelity();
        if target > f_max {
            return None;
        }
        if self.fidelity(0.5) >= target {
            return Some(0.5);
        }
        let (mut lo, mut hi) = (alpha_max, 0.5);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.fidelity(mid) >= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab_link() -> LinkPhysics {
        LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m())
    }

    fn near_term_link() -> LinkPhysics {
        LinkPhysics::new(HardwareParams::near_term(), FibreParams::telecom(25_000.0))
    }

    #[test]
    fn eta_in_sane_range() {
        let eta = lab_link().eta();
        assert!(eta > 0.005 && eta < 0.05, "lab eta {eta}");
        let eta_nt = near_term_link().eta();
        assert!(eta_nt > 1e-5 && eta_nt < 1e-3, "near-term eta {eta_nt}");
        assert!(eta_nt < eta);
    }

    #[test]
    fn fidelity_decreases_with_alpha_on_main_branch() {
        let link = lab_link();
        let (_, alpha_peak) = link.max_fidelity();
        let mut prev = link.fidelity(alpha_peak);
        for i in 1..=20 {
            let alpha = alpha_peak + (0.5 - alpha_peak) * i as f64 / 20.0;
            let f = link.fidelity(alpha);
            assert!(
                f <= prev + 1e-12,
                "F must fall with alpha: {f} after {prev}"
            );
            prev = f;
        }
    }

    #[test]
    fn success_prob_increases_with_alpha() {
        let link = lab_link();
        assert!(link.success_prob(0.2) > link.success_prob(0.05));
        assert!(link.success_prob(0.5) > link.success_prob(0.2));
        assert!(link.success_prob(0.05) > 0.0);
        assert!(link.success_prob(0.5) < 1.0);
    }

    #[test]
    fn heralded_state_fidelity_matches_analytic() {
        let link = lab_link();
        for alpha in [0.02, 0.05, 0.2, 0.5] {
            for announced in [BellState::PSI_PLUS, BellState::PSI_MINUS] {
                let rho = link.heralded_state(alpha, announced);
                let f_dm = rho.fidelity_pure(&announced.amplitudes());
                let f_an = link.fidelity(alpha);
                assert!(
                    (f_dm - f_an).abs() < 1e-12,
                    "alpha {alpha}: DM {f_dm} vs analytic {f_an}"
                );
            }
        }
    }

    #[test]
    fn alpha_for_fidelity_inverts() {
        let link = lab_link();
        for target in [0.8, 0.9, 0.95, 0.98] {
            let alpha = link.alpha_for_fidelity(target).expect("achievable");
            let f = link.fidelity(alpha);
            assert!(
                (f - target).abs() < 1e-6,
                "target {target}: alpha {alpha} gives {f}"
            );
        }
    }

    #[test]
    fn unreachable_fidelity_is_rejected() {
        let link = near_term_link();
        let (f_max, _) = link.max_fidelity();
        assert!(link.alpha_for_fidelity(f_max + 0.01).is_none());
        // A target that is not a number is unreachable, not "any α".
        for link in [link, lab_link()] {
            for target in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(link.alpha_for_fidelity(target), None, "target {target}");
            }
        }
        // Near-term visibility 0.9 caps fidelity well below 0.99.
        assert!(f_max < 0.97, "near-term max fidelity {f_max}");
    }

    #[test]
    fn fig5_anchor_mean_pair_time_near_10ms() {
        // Paper Fig 5: F=0.95 over 2 m fibre — mean ≈ 10 ms, 95 % ≤ 30 ms.
        let link = lab_link();
        let alpha = link.alpha_for_fidelity(0.95).unwrap();
        let mean = link.expected_pair_time(alpha).as_millis_f64();
        assert!(
            (5.0..20.0).contains(&mean),
            "mean pair time {mean} ms outside the Fig 5 anchor window"
        );
    }

    #[test]
    fn near_term_cycle_dominated_by_flight_time() {
        let link = near_term_link();
        let cycle = link.cycle_time().as_micros_f64();
        // 25 km at 2e8 m/s = 125 us one way; cycle must exceed it.
        assert!(cycle >= 125.0, "cycle {cycle} us");
    }

    #[test]
    fn near_term_pair_rate_order_of_magnitude() {
        // Rates "of the order of a few tens of Hz" in the lab (paper §4.1);
        // over 25 km with telecom conversion, expect ~1 Hz or slower.
        let link = near_term_link();
        let alpha = 0.3;
        let t = link.expected_pair_time(alpha).as_secs_f64();
        assert!(t > 0.05 && t < 10.0, "near-term pair time {t} s");
    }

    #[test]
    fn announced_state_is_psi() {
        let mut rng = SimRng::from_seed(1);
        let link = lab_link();
        let mut plus = 0;
        for _ in 0..100 {
            let b = link.sample_announced(&mut rng);
            assert!(b.x);
            if !b.z {
                plus += 1;
            }
        }
        assert!(plus > 20 && plus < 80, "Ψ+/Ψ- should both occur: {plus}");
    }

    #[test]
    fn heralded_state_is_the_weighted_component_sum() {
        // The three components as 4×4 matrices, summed at their weights:
        // the closed form must give the same bits in every entry.
        use qn_quantum::matrix::CMatrix;
        use qn_quantum::C64;
        for link in [lab_link(), near_term_link()] {
            for alpha in [0.0, 0.013, 0.2, 0.5] {
                for announced in [BellState::PSI_PLUS, BellState::PSI_MINUS] {
                    let w = link.weights(alpha);
                    let total = w.total();
                    let c = link.coherence() * if announced.z { -1.0 } else { 1.0 };
                    let mut coh = CMatrix::zeros(4, 4);
                    coh[(1, 1)] = C64::real(0.5);
                    coh[(2, 2)] = C64::real(0.5);
                    coh[(1, 2)] = C64::real(0.5 * c);
                    coh[(2, 1)] = C64::real(0.5 * c);
                    let mut dbl = CMatrix::zeros(4, 4);
                    dbl[(3, 3)] = C64::ONE;
                    let mut dark = CMatrix::zeros(4, 4);
                    dark[(0, 0)] = C64::real((1.0 - alpha) * (1.0 - alpha));
                    dark[(1, 1)] = C64::real(alpha * (1.0 - alpha));
                    dark[(2, 2)] = C64::real(alpha * (1.0 - alpha));
                    dark[(3, 3)] = C64::real(alpha * alpha);
                    let sum = &(&coh.scale(w.coherent / total) + &dbl.scale(w.double / total))
                        + &dark.scale(w.dark / total);
                    let got = link.heralded_state(alpha, announced);
                    let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
                        m.data()
                            .iter()
                            .map(|z| (z.re.to_bits(), z.im.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(got.matrix()), bits(&sum), "alpha {alpha} {announced}");
                    for rep in [StateRep::Bell, StateRep::Dm] {
                        let pair = link.heralded_pair(alpha, announced, rep);
                        assert_eq!(bits(pair.to_density().matrix()), bits(&sum), "{rep:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn heralded_state_is_valid_density_matrix() {
        let link = near_term_link();
        let rho = link.heralded_state(0.3, BellState::PSI_PLUS);
        assert!((rho.trace() - 1.0).abs() < 1e-9);
        assert!(rho.purity() <= 1.0 + 1e-9);
    }
}
