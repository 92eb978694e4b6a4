//! **Figure 11** — pairs produced over time on a near-future network:
//! 10 pairs of fidelity 0.5 requested over a 3-node chain with 25 km
//! links, near-term hardware parameters (Appendix B), a single
//! communication qubit per node, carbon storage suffering nuclear
//! dephasing during attempts, and hand-tuned routing/cutoff.
//!
//! Paper claim to reproduce: "Despite the enormous differences in the
//! operating environment the QNP remains functional" — pairs keep
//! arriving at a steady pace.
//!
//! Run: `cargo bench --bench fig11_near_term` (knobs: `QNP_RUNS` seeds to
//! print — the paper shows a single simulation — and `QNP_THREADS`
//! sweep workers).

use qn_bench::{
    env_u64, fig11_plan, fig11_scenario, run_sweep, runs, seed_block, threads, Baseline, Direction,
};

fn main() {
    let wall_start = std::time::Instant::now();
    let n_runs = runs(1);
    let n_pairs = env_u64("QNP_PAIRS", 10);
    let plan = fig11_plan();
    println!("# Figure 11 — near-future hardware: pair arrivals over time");
    println!(
        "# 3 nodes, 2 × 25 km telecom fibre, near-term parameters, F_req = {}",
        plan.e2e_fidelity
    );
    println!(
        "# hand-tuned: link fidelity {}, cutoff {:.0} ms",
        plan.link_fidelity,
        plan.cutoff.as_millis_f64()
    );

    let mut baseline = Baseline::new("fig11_near_term")
        .config_num("runs", n_runs as f64)
        .config_num("pairs", n_pairs as f64)
        .direction("delivered", Direction::HigherIsBetter)
        .direction("mean_fidelity", Direction::HigherIsBetter)
        .direction("total_time_s", Direction::LowerIsBetter);

    let seeds = seed_block(100, n_runs);
    let results = run_sweep(&seeds, |seed| fig11_scenario(seed, n_pairs));
    for (seed, (times, fidelity)) in seeds.iter().zip(&results) {
        let seed = seed - 100;
        println!("#\n# run seed {seed}: mean delivered fidelity {fidelity:.3}");
        println!("# pair_index   arrival_time_s");
        for (i, t) in times.iter().enumerate() {
            println!("{:10}   {t:12.1}", i + 1);
        }
        let total = times.last().copied().unwrap_or(f64::NAN);
        baseline.point(
            format!("seed={seed}"),
            &[
                ("delivered", times.len() as f64),
                ("mean_fidelity", *fidelity),
                ("total_time_s", total),
            ],
        );
        if times.len() < n_pairs as usize {
            println!(
                "# WARN: only {}/{} pairs delivered within the horizon",
                times.len(),
                n_pairs
            );
        } else {
            println!(
                "# delivered {} pairs in {total:.0} s ({:.2} pairs/min): protocol functional — PASS",
                times.len(),
                times.len() as f64 / (total / 60.0)
            );
            let ok = *fidelity >= 0.5 - 0.03;
            println!(
                "# mean fidelity {fidelity:.3} vs requested 0.5: {}",
                if ok { "PASS" } else { "WARN" }
            );
        }
    }

    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, wall-clock {:.2} s)",
        path.display(),
        threads(),
        wall_start.elapsed().as_secs_f64()
    );
}
