//! **Figure 9** — average latency vs throughput of the A0-B0 circuit as
//! the rate of 3-pair requests increases, in an empty network and in a
//! congested one (long-running A1-B1 flow competing for the bottleneck).
//!
//! Paper shapes to reproduce:
//! * latency is flat until the circuit saturates, then blows up;
//! * the congested circuit saturates at **more than half** the empty
//!   network's rate (the bottleneck slows every circuit, so the other
//!   links more often have a pair ready when the bottleneck delivers).
//!
//! Asserted: the congested saturation above half the empty rate. The
//! bench writes its baseline, then exits 1 if it breaks.
//!
//! Run: `cargo bench --bench fig9_latency_throughput`
//! (knobs: `QNP_RUNS` default 3, `QNP_THREADS` sweep workers).

use qn_bench::{
    fig9_scenario, mean_finite, run_sweep, runs, seed_block, threads, Baseline, Direction, Shapes,
};
use qn_sim::SimDuration;

fn main() {
    let wall_start = std::time::Instant::now();
    let n_runs = runs(3);
    let seeds = seed_block(2000, n_runs);
    println!("# Figure 9 — latency vs throughput (runs={n_runs})");
    // Request intervals from sparse to past saturation.
    let intervals_ms: [u64; 8] = [2000, 1000, 500, 300, 200, 150, 100, 70];

    let mut baseline = Baseline::new("fig9_latency_throughput")
        .config_num("runs", n_runs as f64)
        .direction("throughput_pairs_per_s", Direction::HigherIsBetter)
        .direction("mean_latency_s", Direction::LowerIsBetter)
        .direction("p5_s", Direction::LowerIsBetter)
        .direction("p95_s", Direction::LowerIsBetter)
        .direction("requests_measured", Direction::HigherIsBetter);

    let mut saturation = [0.0f64; 2];
    for (case_idx, congested) in [false, true].into_iter().enumerate() {
        let case_key = if congested { "congested" } else { "empty" };
        println!(
            "#\n# case: {}",
            if congested {
                "congested (A1-B1 busy)"
            } else {
                "empty network"
            }
        );
        println!(
            "# interval_ms   throughput_pairs_per_s   mean_latency_s   p5_s   p95_s   requests"
        );
        for interval in intervals_ms {
            let period = SimDuration::from_millis(interval);
            let points = run_sweep(&seeds, |seed| fig9_scenario(seed, congested, period));
            let thr = points.iter().map(|p| p.throughput).sum::<f64>() / n_runs as f64;
            let lat = mean_finite(points.iter().map(|p| p.mean_latency));
            let p5 = mean_finite(
                points
                    .iter()
                    .filter(|p| p.mean_latency.is_finite())
                    .map(|p| p.p5),
            );
            let p95 = mean_finite(
                points
                    .iter()
                    .filter(|p| p.mean_latency.is_finite())
                    .map(|p| p.p95),
            );
            let measured: usize = points.iter().map(|p| p.measured).sum();
            println!("{interval:11}   {thr:22.2}   {lat:14.3}   {p5:5.3}  {p95:6.3}   {measured}");
            baseline.point(
                format!("{case_key}/interval_ms={interval}"),
                &[
                    ("throughput_pairs_per_s", thr),
                    ("mean_latency_s", lat),
                    ("p5_s", p5),
                    ("p95_s", p95),
                    ("requests_measured", measured as f64),
                ],
            );
            saturation[case_idx] = saturation[case_idx].max(thr);
        }
    }

    println!("#\n# shape checks");
    let ratio = saturation[1] / saturation[0];
    println!(
        "# saturation: empty {:.2} pairs/s, congested {:.2} pairs/s, ratio {ratio:.2}",
        saturation[0], saturation[1]
    );
    let mut shapes = Shapes::default();
    shapes.check(
        "congested saturates at more than half the empty rate",
        ratio > 0.5,
    );

    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, wall-clock {:.2} s)",
        path.display(),
        threads(),
        wall_start.elapsed().as_secs_f64()
    );
    shapes.finish("fig9_latency_throughput");
}
