//! Hardware parameters — Appendix B, Tables 1 and 2 of the paper.
//!
//! Two named parameter sets are provided:
//!
//! * [`HardwareParams::simulation`] — the optimistic configuration used for
//!   every experiment except Fig 11 ("parameters slightly better than
//!   currently achievable … higher fidelities, rates comparable to current
//!   hardware"). All qubits behave as communication (electron) qubits.
//! * [`HardwareParams::near_term`] — the near-future configuration of
//!   Fig 11: one communication qubit per node, carbon storage qubits with
//!   nuclear-spin dephasing during entanglement attempts.
//!
//! Durations are in seconds throughout (converted to [`SimDuration`] at the
//! edges); this keeps the parameter tables readable against the paper.

use qn_sim::SimDuration;

/// Fidelity and duration of one gate type (a row of Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateSpec {
    /// Average output fidelity of the operation.
    pub fidelity: f64,
    /// Wall-clock duration in seconds.
    pub duration: f64,
}

/// Readout fidelities may differ by outcome on NV hardware (Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadoutSpec {
    /// Probability of correctly reporting `|0⟩` when the state is `|0⟩`.
    pub fidelity0: f64,
    /// Probability of correctly reporting `|1⟩` when the state is `|1⟩`.
    pub fidelity1: f64,
    /// Readout duration in seconds.
    pub duration: f64,
}

/// Table 1 — quantum gate parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateParams {
    /// Electron single-qubit gate.
    pub electron_single: GateSpec,
    /// Electron–carbon two-qubit gate (controlled-√χ for near-term).
    pub two_qubit: GateSpec,
    /// Carbon Rot-Z gate (near-term only).
    pub carbon_rot_z: Option<GateSpec>,
    /// Electron initialisation into `|0⟩`.
    pub electron_init: GateSpec,
    /// Carbon initialisation into `|0⟩` (near-term only).
    pub carbon_init: Option<GateSpec>,
    /// Electron readout.
    pub readout: ReadoutSpec,
}

/// Table 2 — memory, photonics and detection parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HardwareParams {
    /// Gate parameter block (Table 1).
    pub gates: GateParams,
    /// Electron relaxation time T1, seconds (`>1 h` in both columns).
    pub electron_t1: f64,
    /// Electron dephasing time T2*, seconds. This is the knob swept in
    /// Fig 10a,b.
    pub electron_t2: f64,
    /// Carbon T1 (near-term only), seconds.
    pub carbon_t1: Option<f64>,
    /// Carbon T2* (near-term only), seconds.
    pub carbon_t2: Option<f64>,
    /// Nuclear-spin coupling Δω, rad/s (near-term only).
    pub delta_omega: Option<f64>,
    /// Electron reset duration τ_d during attempts, seconds (near-term).
    pub tau_d: Option<f64>,
    /// Detection window τ_w, seconds.
    pub tau_w: f64,
    /// Photon emission time τ_e, seconds.
    pub tau_e: f64,
    /// Optical phase stability Δφ, radians.
    pub delta_phi: f64,
    /// Double-excitation probability.
    pub p_double_excitation: f64,
    /// Zero-phonon-line emission probability.
    pub p_zero_phonon: f64,
    /// Photon collection efficiency.
    pub collection_efficiency: f64,
    /// Detector dark-count rate, counts/s.
    pub dark_count_rate: f64,
    /// Detector efficiency.
    pub p_detection: f64,
    /// Two-photon indistinguishability (visibility).
    pub visibility: f64,
    /// Floor on the midpoint-heralding attempt cycle, seconds.
    ///
    /// **Calibration constant** (see DESIGN.md §7): the paper's link layer
    /// triggers attempts at a fixed MHP period; we pick the floor so that
    /// a fidelity-0.95 pair over 2 m of fibre takes ≈10 ms on average,
    /// anchoring our Fig 5 to the paper's.
    pub mhp_cycle_floor: f64,
}

/// Scale factor of the per-attempt nuclear dephasing model (DESIGN.md §7):
/// `λ_per_attempt = SCALE · α · (Δω·τ_d)²`. Chosen so the Fig 11 scenario
/// stays functional with a hand-tuned cutoff, mirroring the paper's
/// hand-tuned near-term configuration.
pub const NUCLEAR_DEPHASING_SCALE: f64 = 0.1e-2;

impl HardwareParams {
    /// The optimistic "Simulation" column of Tables 1–2.
    pub fn simulation() -> Self {
        HardwareParams {
            gates: GateParams {
                electron_single: GateSpec {
                    fidelity: 1.0,
                    duration: 5e-9,
                },
                two_qubit: GateSpec {
                    fidelity: 0.998,
                    duration: 500e-6,
                },
                carbon_rot_z: None,
                electron_init: GateSpec {
                    fidelity: 0.99,
                    duration: 2e-6,
                },
                carbon_init: None,
                readout: ReadoutSpec {
                    fidelity0: 0.998,
                    fidelity1: 0.998,
                    duration: 3.7e-6,
                },
            },
            electron_t1: 3600.0, // ">1 h"
            electron_t2: 60.0,
            carbon_t1: None,
            carbon_t2: None,
            delta_omega: None,
            tau_d: None,
            tau_w: 25e-9,
            tau_e: 6.0e-9,
            delta_phi: 2.0_f64.to_radians(),
            p_double_excitation: 0.0,
            p_zero_phonon: 0.75,
            collection_efficiency: 20.0e-3,
            dark_count_rate: 20.0,
            p_detection: 0.8,
            visibility: 1.0,
            mhp_cycle_floor: 11.5e-6,
        }
    }

    /// The "Near-term" column of Tables 1–2 (Fig 11 configuration).
    pub fn near_term() -> Self {
        HardwareParams {
            gates: GateParams {
                electron_single: GateSpec {
                    fidelity: 1.0,
                    duration: 5e-9,
                },
                two_qubit: GateSpec {
                    fidelity: 0.992,
                    duration: 500e-6,
                },
                carbon_rot_z: Some(GateSpec {
                    fidelity: 1.0,
                    duration: 20e-6,
                }),
                electron_init: GateSpec {
                    fidelity: 0.99,
                    duration: 2e-6,
                },
                carbon_init: Some(GateSpec {
                    fidelity: 0.95,
                    duration: 300e-6,
                }),
                readout: ReadoutSpec {
                    fidelity0: 0.95,
                    fidelity1: 0.995,
                    duration: 3.7e-6,
                },
            },
            electron_t1: 3600.0,
            electron_t2: 1.46,
            carbon_t1: Some(360.0), // "> 6 m"
            carbon_t2: Some(60.0),
            delta_omega: Some(2.0 * std::f64::consts::PI * 377e3),
            tau_d: Some(82e-9),
            tau_w: 25e-9,
            tau_e: 6.48e-9,
            delta_phi: 10.6_f64.to_radians(),
            p_double_excitation: 0.04,
            p_zero_phonon: 0.46,
            collection_efficiency: 4.38e-3,
            dark_count_rate: 20.0,
            p_detection: 0.8,
            visibility: 0.9,
            mhp_cycle_floor: 11.5e-6,
        }
    }

    /// A copy with a different electron T2* — the Fig 10a,b sweep knob.
    pub fn with_electron_t2(mut self, t2: f64) -> Self {
        self.electron_t2 = t2;
        self
    }

    /// Per-attempt dephasing parameter applied to carbon qubits stored on
    /// a device while it runs entanglement attempts with bright-state
    /// parameter `alpha` (near-term only; zero when Δω/τ_d are absent).
    pub fn nuclear_dephasing_per_attempt(&self, alpha: f64) -> f64 {
        match (self.delta_omega, self.tau_d) {
            (Some(dw), Some(td)) => {
                let phase = dw * td;
                (NUCLEAR_DEPHASING_SCALE * alpha * phase * phase).min(0.5)
            }
            _ => 0.0,
        }
    }
}

/// Optical fibre model shared by the quantum and classical channels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FibreParams {
    /// Length in metres.
    pub length_m: f64,
    /// Attenuation in dB/km (5 dB/km visible in the lab scenarios; 0.5
    /// dB/km at telecom wavelength for the 25 km near-term links).
    pub attenuation_db_per_km: f64,
    /// Signal velocity in fibre, m/s.
    pub speed_m_per_s: f64,
}

impl FibreParams {
    /// Lab fibre: 2 m, no telecom conversion (5 dB/km).
    pub fn lab_2m() -> Self {
        FibreParams {
            length_m: 2.0,
            attenuation_db_per_km: 5.0,
            speed_m_per_s: 2.0e8,
        }
    }

    /// Deployed telecom fibre of the given length (0.5 dB/km).
    pub fn telecom(length_m: f64) -> Self {
        FibreParams {
            length_m,
            attenuation_db_per_km: 0.5,
            speed_m_per_s: 2.0e8,
        }
    }

    /// Photon survival probability over `metres` of this fibre.
    pub fn transmissivity(&self, metres: f64) -> f64 {
        let db = self.attenuation_db_per_km * metres / 1000.0;
        10f64.powf(-db / 10.0)
    }

    /// One-way propagation delay over `metres`.
    pub fn delay_over(&self, metres: f64) -> SimDuration {
        SimDuration::from_secs_f64(metres / self.speed_m_per_s)
    }

    /// One-way propagation delay over the full length.
    pub fn propagation_delay(&self) -> SimDuration {
        self.delay_over(self.length_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_simulation_column() {
        let p = HardwareParams::simulation();
        assert_eq!(p.gates.electron_single.fidelity, 1.0);
        assert_eq!(p.gates.electron_single.duration, 5e-9);
        assert_eq!(p.gates.two_qubit.fidelity, 0.998);
        assert_eq!(p.gates.two_qubit.duration, 500e-6);
        assert!(p.gates.carbon_rot_z.is_none());
        assert_eq!(p.gates.electron_init.fidelity, 0.99);
        assert_eq!(p.gates.electron_init.duration, 2e-6);
        assert!(p.gates.carbon_init.is_none());
        assert_eq!(p.gates.readout.fidelity0, 0.998);
        assert_eq!(p.gates.readout.fidelity1, 0.998);
        assert_eq!(p.gates.readout.duration, 3.7e-6);
    }

    #[test]
    fn table1_near_term_column() {
        let p = HardwareParams::near_term();
        assert_eq!(p.gates.two_qubit.fidelity, 0.992);
        assert_eq!(p.gates.carbon_rot_z.unwrap().duration, 20e-6);
        assert_eq!(p.gates.carbon_init.unwrap().fidelity, 0.95);
        assert_eq!(p.gates.carbon_init.unwrap().duration, 300e-6);
        assert_eq!(p.gates.readout.fidelity0, 0.95);
        assert_eq!(p.gates.readout.fidelity1, 0.995);
    }

    #[test]
    fn table2_simulation_column() {
        let p = HardwareParams::simulation();
        assert_eq!(p.electron_t2, 60.0);
        assert!(p.electron_t1 >= 3600.0);
        assert_eq!(p.tau_w, 25e-9);
        assert_eq!(p.tau_e, 6.0e-9);
        assert!((p.delta_phi - 2.0_f64.to_radians()).abs() < 1e-12);
        assert_eq!(p.p_double_excitation, 0.0);
        assert_eq!(p.p_zero_phonon, 0.75);
        assert_eq!(p.collection_efficiency, 20.0e-3);
        assert_eq!(p.dark_count_rate, 20.0);
        assert_eq!(p.p_detection, 0.8);
        assert_eq!(p.visibility, 1.0);
    }

    #[test]
    fn table2_near_term_column() {
        let p = HardwareParams::near_term();
        assert_eq!(p.electron_t2, 1.46);
        assert_eq!(p.carbon_t2, Some(60.0));
        assert!((p.delta_omega.unwrap() - 2.0 * std::f64::consts::PI * 377e3).abs() < 1.0);
        assert_eq!(p.tau_d, Some(82e-9));
        assert_eq!(p.tau_e, 6.48e-9);
        assert!((p.delta_phi - 10.6_f64.to_radians()).abs() < 1e-12);
        assert_eq!(p.p_double_excitation, 0.04);
        assert_eq!(p.p_zero_phonon, 0.46);
        assert_eq!(p.collection_efficiency, 4.38e-3);
        assert_eq!(p.visibility, 0.9);
    }

    #[test]
    fn fibre_transmissivity() {
        let lab = FibreParams::lab_2m();
        // 1 m at 5 dB/km = 0.005 dB.
        let t = lab.transmissivity(1.0);
        assert!((t - 10f64.powf(-0.0005)).abs() < 1e-12);
        let telecom = FibreParams::telecom(25_000.0);
        // 12.5 km at 0.5 dB/km = 6.25 dB.
        let t2 = telecom.transmissivity(12_500.0);
        assert!((t2 - 10f64.powf(-0.625)).abs() < 1e-12);
        assert!(t2 < t);
    }

    #[test]
    fn fibre_delay() {
        let telecom = FibreParams::telecom(25_000.0);
        let d = telecom.propagation_delay();
        assert!((d.as_secs_f64() - 1.25e-4).abs() < 1e-9);
    }

    #[test]
    fn nuclear_dephasing_only_with_near_term() {
        let sim = HardwareParams::simulation();
        assert_eq!(sim.nuclear_dephasing_per_attempt(0.3), 0.0);
        let nt = HardwareParams::near_term();
        let l = nt.nuclear_dephasing_per_attempt(0.3);
        assert!(l > 0.0 && l < 0.01, "per-attempt dephasing {l}");
        // Scales with alpha.
        assert!(nt.nuclear_dephasing_per_attempt(0.4) > l);
    }

    #[test]
    fn t2_sweep_helper() {
        let p = HardwareParams::simulation().with_electron_t2(1.6);
        assert_eq!(p.electron_t2, 1.6);
    }
}
