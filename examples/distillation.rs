//! Entanglement distillation layered over the QNP (paper §4.3).
//!
//! The paper proposes distillation as a *service built from the QNP
//! building block*: a circuit delivers pairs between two distillation
//! end-points, a module consumes two pairs to produce one of higher
//! fidelity, and the result feeds a higher-layer circuit that treats the
//! span as one virtual link.
//!
//! This example runs the physical layer of that proposal: pairs of the
//! quality the network delivers (including idle decoherence), distilled
//! with the paper's noisy gates, compared against the textbook BBPSSW
//! statistics. The pairs run on the representation `QNP_QSTATE` names
//! (`bell`, the default, or `dm`).
//!
//! ```sh
//! cargo run --release --example distillation
//! ```

use qnp::hardware::device::QubitId;
use qnp::hardware::pairs::{PairStore, SwapNoise};
use qnp::hardware::{bbpssw_output_fidelity, bbpssw_success_prob, StateRep};
use qnp::prelude::*;
use qnp::quantum::formulas::werner_param;
use qnp::quantum::DensityMatrix;
use qnp::sim::SimRng;

fn werner(f: f64) -> DensityMatrix {
    let w = werner_param(f);
    let phi = BellState::PHI_PLUS.density();
    let mixed = DensityMatrix::maximally_mixed(2);
    DensityMatrix::from_matrix(&phi.matrix().scale(w) + &mixed.matrix().scale(1.0 - w))
}

fn main() {
    let params = HardwareParams::simulation();
    let rep = StateRep::from_env();
    let noise = SwapNoise::from_params(&params, rep);
    let mut rng = SimRng::from_seed(2021);

    println!("# BBPSSW distillation with the paper's gate/readout noise");
    println!("# F_in   p_succ(meas)   p_succ(theory)   F_out(meas)   F_out(theory)   gain");
    for f_in in [0.70, 0.75, 0.80, 0.85, 0.90] {
        let n = 600;
        let mut successes = 0usize;
        let mut fid = 0.0;
        for _ in 0..n {
            let mut store = PairStore::new(rep);
            let mk = |store: &mut PairStore, q: u32| {
                store.create(
                    SimTime::ZERO,
                    werner(f_in),
                    BellState::PHI_PLUS,
                    [
                        (NodeId(0), QubitId(q), f64::INFINITY, f64::INFINITY),
                        (NodeId(1), QubitId(q), f64::INFINITY, f64::INFINITY),
                    ],
                )
            };
            let keep = mk(&mut store, 0);
            let sacrifice = mk(&mut store, 1);
            let res = store.distill(keep, sacrifice, SimTime::ZERO, &noise, &mut rng);
            if res.success {
                successes += 1;
                fid += store.fidelity_to(res.kept, BellState::PHI_PLUS, SimTime::ZERO);
            }
        }
        let p_meas = successes as f64 / n as f64;
        let f_meas = fid / successes.max(1) as f64;
        println!(
            "{f_in:5.2}   {p_meas:12.3}   {:14.3}   {f_meas:11.3}   {:13.3}   {:+.3}",
            bbpssw_success_prob(f_in),
            bbpssw_output_fidelity(f_in),
            f_meas - f_in,
        );
    }

    println!("#\n# layered use (paper §4.3): run a QNP circuit between the");
    println!("# distillation end-points, feed its deliveries into this module,");
    println!("# and hand the survivors to a circuit that sees the span as one");
    println!("# virtual link. Distillation overcomes the swap-fidelity loss");
    println!("# that otherwise bounds the achievable path length.");
}
