//! **Figure 8** — average request latency on the A0-B0 circuit when 1–8
//! simultaneous requests (each for `QNP_PAIRS` pairs) are issued across
//! 1, 2 or 4 circuits sharing the dumbbell bottleneck, under the long
//! (a–c) and short (d–f) cutoff policies.
//!
//! Paper shapes to reproduce:
//! * (a,b,d,e): latency grows **linearly** with the number of requests;
//! * (c): 4 circuits + long cutoff ⇒ "quantum congestion collapse"
//!   (latency blows up / requests stall);
//! * (f): the short cutoff restores linear scaling with 4 circuits;
//! * short cutoff lowers latency overall (relaxed link fidelities).
//!
//! Asserted: linearity on panels a and d, the short cutoff faster than
//! the long one, and panel c collapsing against panel f. The bench
//! writes its baseline, then exits 1 naming every broken shape.
//!
//! Run: `cargo bench --bench fig8_multiplexing`
//! (knobs: `QNP_RUNS` default 3, `QNP_PAIRS` default 40 — the paper uses
//! 100 runs × 100 pairs; reduced defaults preserve the shapes —
//! `QNP_THREADS` sweep workers).

use qn_bench::{
    fig8_scenario, mean_finite, pairs, run_sweep, runs, seed_block, threads, Baseline, Direction,
    Shapes,
};
use qn_routing::CutoffPolicy;
use qn_sim::SimDuration;

fn main() {
    let wall_start = std::time::Instant::now();
    let n_runs = runs(3);
    let n_pairs = pairs(40);
    let horizon = SimDuration::from_secs(240);
    let fidelities = [0.9, 0.8];
    let seeds = seed_block(1000, n_runs);

    println!("# Figure 8 — circuit multiplexing latency (runs={n_runs}, pairs/request={n_pairs})");
    let panels: [(&str, usize, CutoffPolicy); 6] = [
        ("a: 1 circuit,  long cutoff", 1, CutoffPolicy::long()),
        ("b: 2 circuits, long cutoff", 2, CutoffPolicy::long()),
        ("c: 4 circuits, long cutoff", 4, CutoffPolicy::long()),
        ("d: 1 circuit,  short cutoff", 1, CutoffPolicy::short()),
        ("e: 2 circuits, short cutoff", 2, CutoffPolicy::short()),
        ("f: 4 circuits, short cutoff", 4, CutoffPolicy::short()),
    ];

    let mut baseline = Baseline::new("fig8_multiplexing")
        .config_num("runs", n_runs as f64)
        .config_num("pairs_per_request", n_pairs as f64)
        .config_num("horizon_s", horizon.as_secs_f64())
        .direction("mean_latency_s_f09", Direction::LowerIsBetter)
        .direction("mean_latency_s_f08", Direction::LowerIsBetter)
        .direction("completed", Direction::HigherIsBetter)
        .direction("issued", Direction::Informational);

    // For the linearity check on panels a/b/d/e.
    let mut panel_latencies: Vec<Vec<f64>> = Vec::new();

    for (label, n_circuits, cutoff) in panels {
        println!("#\n# panel {label}");
        println!("# requests   mean_latency_s(F=0.9)   mean_latency_s(F=0.8)   completed");
        let panel_key = &label[..1];
        let mut lat_f09 = Vec::new();
        for n_requests in 1..=8usize {
            let mut row = Vec::new();
            let mut completed = (0usize, 0usize);
            for f in fidelities {
                let points = run_sweep(&seeds, |seed| {
                    fig8_scenario(seed, n_circuits, n_requests, n_pairs, f, cutoff, horizon)
                });
                let mean = mean_finite(points.iter().map(|p| p.mean_latency));
                row.push(mean);
                completed = (
                    points.iter().map(|p| p.completed).sum(),
                    points.iter().map(|p| p.issued).sum(),
                );
            }
            println!(
                "{n_requests:9}   {:>21.3}   {:>21.3}   {}/{}",
                row[0], row[1], completed.0, completed.1
            );
            baseline.point(
                format!("panel={panel_key}/requests={n_requests}"),
                &[
                    ("mean_latency_s_f09", row[0]),
                    ("mean_latency_s_f08", row[1]),
                    ("completed", completed.0 as f64),
                    ("issued", completed.1 as f64),
                ],
            );
            lat_f09.push(row[0]);
        }
        panel_latencies.push(lat_f09);
    }

    // Shape checks.
    println!("#\n# shape checks");
    let mut shapes = Shapes::default();
    // Linearity on panels a (idx 0) and d (idx 3): latency(8) ≈ 8×latency(1).
    for (panel, idx) in [("a", 0usize), ("d", 3)] {
        let l1 = panel_latencies[idx][0];
        let l8 = panel_latencies[idx][7];
        let ratio = l8 / l1;
        shapes.check(
            format!(
                "panel {panel}: latency(8 req)/latency(1 req) = {ratio:.1} (expect ≈8, linear)"
            ),
            (4.0..14.0).contains(&ratio),
        );
    }
    // Short cutoff beats long cutoff for the single-circuit case.
    shapes.check(
        "short cutoff lowers latency (panel d vs a at 8 requests)",
        panel_latencies[3][7] < panel_latencies[0][7],
    );
    // Congestion: panel c's latency at 8 requests exceeds panel f's.
    let c8 = panel_latencies[2][7];
    let f8 = panel_latencies[5][7];
    shapes.check(
        format!("4-circuit congestion (panel c {c8:.1}s vs f {f8:.1}s at 8 requests)"),
        !c8.is_finite() || c8 > 1.5 * f8,
    );

    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, wall-clock {:.2} s)",
        path.display(),
        threads(),
        wall_start.elapsed().as_secs_f64()
    );
    shapes.finish("fig8_multiplexing");
}
