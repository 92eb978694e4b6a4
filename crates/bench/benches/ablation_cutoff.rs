//! **Ablation** — the cutoff design choice (DESIGN.md: "Cutoff time",
//! paper §4.1).
//!
//! Sweeps the cutoff timeout at a fixed memory lifetime (T2* = 1.6 s)
//! and reports the throughput/fidelity trade-off that motivates the
//! routing protocol's choice:
//!
//! * too tight a cutoff: pairs rarely meet a partner in time —
//!   throughput collapses, fidelity is pristine;
//! * too loose: pairs idle and decohere — throughput of *useful* pairs
//!   collapses from the other side;
//! * the 1.5 %-loss rule sits near the knee.
//!
//! Asserted: throughput never falls as the cutoff grows and is flat
//! over the three loosest cutoffs, and the mean fidelity of the pairs
//! without a readout frame error never rises. The mean over all pairs
//! is not monotone: the few pairs whose frame a swap readout error
//! flipped have fidelity near 0, and at the tightest cutoffs so few
//! pairs are delivered that one of them moves the mean. The bench
//! writes its baseline, then exits 1 naming each broken shape.
//!
//! Run: `cargo bench --bench ablation_cutoff`
//! (knobs: `QNP_RUNS`, `QNP_THREADS`).

use qn_bench::{
    cutoff_point_scenario, mean_finite, run_sweep, runs, seed_block, threads, Baseline, Shapes,
};
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_routing::budget::cutoff_for_fidelity_loss;
use qn_routing::{dumbbell, CircuitPlan, CutoffPolicy};
use qn_sim::SimDuration;

fn main() {
    let wall_start = std::time::Instant::now();
    let n_runs = runs(3);
    let t2 = 1.6;
    let fidelity = 0.85;
    let params = HardwareParams::simulation().with_electron_t2(t2);
    let reference = cutoff_for_fidelity_loss(&params, fidelity, 0.015);
    let seeds = seed_block(5000, n_runs);
    println!("# Ablation — cutoff sweep at T2* = {t2} s, target F = {fidelity}");
    println!(
        "# routing's 1.5%-loss cutoff for reference: {:.1} ms",
        reference.as_millis_f64()
    );
    println!(
        "# cutoff_ms   throughput_pairs_per_s   mean_fidelity   true_frame_fidelity   discards"
    );

    let mut baseline = Baseline::new("ablation_cutoff")
        .config_num("runs", n_runs as f64)
        .config_num("t2_s", t2)
        .config_num("fidelity", fidelity)
        .config_num("reference_cutoff_ms", reference.as_millis_f64());

    // Use a fixed-fidelity plan so only the cutoff varies.
    let (topology, d) = dumbbell(params, FibreParams::lab_2m());
    let base_plan = {
        let controller = qn_routing::Controller::new(&topology, CutoffPolicy::Manual(reference));
        controller.plan(d.a0, d.b0, fidelity).expect("feasible")
    };

    let mut throughputs = Vec::new();
    let mut true_frame_fids = Vec::new();
    for factor in [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let cutoff = reference.mul_f64(factor);
        let plan = CircuitPlan {
            cutoff,
            ..base_plan.clone()
        };
        let points = run_sweep(&seeds, |seed| {
            cutoff_point_scenario(seed, t2, &plan, SimDuration::from_secs(10))
        });
        let thr = points.iter().map(|p| p.throughput).sum::<f64>() / n_runs as f64;
        let fid = mean_finite(points.iter().map(|p| p.mean_fidelity));
        let true_fid = mean_finite(points.iter().map(|p| p.mean_fidelity_true_frame));
        let discards: u64 = points.iter().map(|p| p.discards).sum();
        println!(
            "{:10.1}   {thr:22.2}   {fid:13.4}   {true_fid:19.4}   {}",
            cutoff.as_millis_f64(),
            discards / n_runs
        );
        baseline.point(
            format!("factor={factor}"),
            &[
                ("throughput_pairs_per_s", thr),
                ("mean_fidelity", fid),
                ("mean_fidelity_true_frame", true_fid),
                ("discards", (discards / n_runs) as f64),
            ],
        );
        throughputs.push(thr);
        true_frame_fids.push(true_fid);
    }

    println!("#\n# shape checks");
    let mut shapes = Shapes::default();
    shapes.check(
        "throughput never falls as the cutoff grows",
        throughputs.windows(2).all(|w| w[1] >= w[0]),
    );
    let loosest = &throughputs[throughputs.len() - 3..];
    let lo = loosest.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = loosest.iter().copied().fold(0.0, f64::max);
    shapes.check(
        format!("throughput is flat (within 1%) over the three loosest cutoffs ({lo:.2}-{hi:.2})"),
        hi - lo <= 0.01 * hi,
    );
    shapes.check(
        "fidelity without readout frame errors never rises as the cutoff grows",
        true_frame_fids.windows(2).all(|w| w[1] <= w[0]),
    );

    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, wall-clock {:.2} s)",
        path.display(),
        threads(),
        wall_start.elapsed().as_secs_f64()
    );
    shapes.finish("ablation_cutoff");
}
