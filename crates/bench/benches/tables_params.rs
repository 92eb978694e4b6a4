//! **Tables 1 and 2** — the hardware parameter sets of Appendix B,
//! printed in the paper's layout. The unit tests in
//! `qn-hardware::params` assert every value; this harness regenerates
//! the tables for visual comparison.
//!
//! Run: `cargo bench --bench tables_params`.

use qn_bench::Baseline;
use qn_hardware::params::HardwareParams;

fn fmt_opt(v: Option<f64>, scale: f64, unit: &str) -> String {
    v.map(|x| format!("{:.4} {unit}", x * scale))
        .unwrap_or_else(|| "—".into())
}

fn main() {
    let sim = HardwareParams::simulation();
    let nt = HardwareParams::near_term();

    println!("# Table 1 — quantum gate parameters");
    println!(
        "# {:44} {:>18} {:>18}",
        "parameter", "Simulation", "Near-term"
    );
    let rows = [
        (
            "Electron single-qubit gate fidelity",
            format!("{}", sim.gates.electron_single.fidelity),
            format!("{}", nt.gates.electron_single.fidelity),
        ),
        (
            "Electron single-qubit gate duration",
            format!("{:.0} ns", sim.gates.electron_single.duration * 1e9),
            format!("{:.0} ns", nt.gates.electron_single.duration * 1e9),
        ),
        (
            "Two-qubit gate fidelity",
            format!("{}", sim.gates.two_qubit.fidelity),
            format!("{}", nt.gates.two_qubit.fidelity),
        ),
        (
            "Two-qubit gate duration",
            format!("{:.0} us", sim.gates.two_qubit.duration * 1e6),
            format!("{:.0} us", nt.gates.two_qubit.duration * 1e6),
        ),
        (
            "Carbon Rot-Z duration",
            "—".into(),
            format!(
                "{:.0} us",
                nt.gates.carbon_rot_z.map(|g| g.duration).unwrap_or(0.0) * 1e6
            ),
        ),
        (
            "Electron init fidelity / duration",
            format!(
                "{} / {:.0} us",
                sim.gates.electron_init.fidelity,
                sim.gates.electron_init.duration * 1e6
            ),
            format!(
                "{} / {:.0} us",
                nt.gates.electron_init.fidelity,
                nt.gates.electron_init.duration * 1e6
            ),
        ),
        (
            "Carbon init fidelity / duration",
            "—".into(),
            format!(
                "{} / {:.0} us",
                nt.gates.carbon_init.map(|g| g.fidelity).unwrap_or(0.0),
                nt.gates.carbon_init.map(|g| g.duration).unwrap_or(0.0) * 1e6
            ),
        ),
        (
            "Electron readout fidelity (|0>, |1>)",
            format!(
                "{}, {}",
                sim.gates.readout.fidelity0, sim.gates.readout.fidelity1
            ),
            format!(
                "{}, {}",
                nt.gates.readout.fidelity0, nt.gates.readout.fidelity1
            ),
        ),
        (
            "Electron readout duration",
            format!("{:.1} us", sim.gates.readout.duration * 1e6),
            format!("{:.1} us", nt.gates.readout.duration * 1e6),
        ),
    ];
    for (name, s, n) in rows {
        println!("{name:46} {s:>18} {n:>18}");
    }

    println!("#\n# Table 2 — other hardware parameters");
    println!(
        "# {:44} {:>18} {:>18}",
        "parameter", "Simulation", "Near-term"
    );
    let rows2 = [
        (
            "Electron T1",
            format!("{:.0} s (>1 h)", sim.electron_t1),
            format!("{:.0} s (>1 h)", nt.electron_t1),
        ),
        (
            "Electron T2*",
            format!("{} s", sim.electron_t2),
            format!("{} s", nt.electron_t2),
        ),
        (
            "Carbon T1",
            fmt_opt(sim.carbon_t1, 1.0, "s"),
            fmt_opt(nt.carbon_t1, 1.0, "s"),
        ),
        (
            "Carbon T2*",
            fmt_opt(sim.carbon_t2, 1.0, "s"),
            fmt_opt(nt.carbon_t2, 1.0, "s"),
        ),
        (
            "Delta-omega / 2pi",
            fmt_opt(
                sim.delta_omega,
                1.0 / (2.0 * std::f64::consts::PI * 1e3),
                "kHz",
            ),
            fmt_opt(
                nt.delta_omega,
                1.0 / (2.0 * std::f64::consts::PI * 1e3),
                "kHz",
            ),
        ),
        (
            "tau_d",
            fmt_opt(sim.tau_d, 1e9, "ns"),
            fmt_opt(nt.tau_d, 1e9, "ns"),
        ),
        (
            "tau_w",
            format!("{:.0} ns", sim.tau_w * 1e9),
            format!("{:.0} ns", nt.tau_w * 1e9),
        ),
        (
            "tau_e",
            format!("{:.2} ns", sim.tau_e * 1e9),
            format!("{:.2} ns", nt.tau_e * 1e9),
        ),
        (
            "Delta-phi",
            format!("{:.1} deg", sim.delta_phi.to_degrees()),
            format!("{:.1} deg", nt.delta_phi.to_degrees()),
        ),
        (
            "p_double_excitation",
            format!("{}", sim.p_double_excitation),
            format!("{}", nt.p_double_excitation),
        ),
        (
            "p_zero_phonon",
            format!("{}", sim.p_zero_phonon),
            format!("{}", nt.p_zero_phonon),
        ),
        (
            "Collection efficiency",
            format!("{:.2e}", sim.collection_efficiency),
            format!("{:.2e}", nt.collection_efficiency),
        ),
        (
            "Dark count rate",
            format!("{} /s", sim.dark_count_rate),
            format!("{} /s", nt.dark_count_rate),
        ),
        (
            "p_detection",
            format!("{}", sim.p_detection),
            format!("{}", nt.p_detection),
        ),
        (
            "Visibility",
            format!("{}", sim.visibility),
            format!("{}", nt.visibility),
        ),
    ];
    for (name, s, n) in rows2 {
        println!("{name:46} {s:>18} {n:>18}");
    }
    println!("#\n# values asserted against the paper in qn-hardware::params tests");

    // Machine-readable baseline: the numeric parameters, per variant. A
    // change here is a deliberate model edit, and the diff fails on it
    // like on any simulated metric until the reference is regenerated.
    let mut baseline = Baseline::new("tables_params");
    for (key, p) in [("simulation", &sim), ("near_term", &nt)] {
        baseline.point(
            format!("params/{key}"),
            &[
                ("electron_t2_s", p.electron_t2),
                ("two_qubit_gate_fidelity", p.gates.two_qubit.fidelity),
                ("collection_efficiency", p.collection_efficiency),
                ("p_detection", p.p_detection),
                ("visibility", p.visibility),
            ],
        );
    }
    let path = baseline.write().expect("write baseline");
    println!("# baseline: {}", path.display());
}
