//! **Figure 5** — CDF of the time to generate a link-pair of fidelity
//! 0.95 over a 2 m fibre with the simulation hardware parameters.
//!
//! Paper anchor: "on average we have to wait 10 ms and … 95 % of
//! link-pairs are generated within 30 ms."
//!
//! Run: `cargo bench --bench fig5_link_cdf` (knobs: `QNP_RUNS` samples,
//! default 5000; `QNP_THREADS` sweep workers; `QNP_QSTATE` pair-state
//! representation — each sample also drives the quantum kernel:
//! heralded-state construction, memory decay and the fidelity oracle).

use qn_bench::{env_u64, fig5_sweep, threads, Baseline, Direction};
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_hardware::StateRep;
use qn_sim::Samples;

fn main() {
    let wall_start = std::time::Instant::now();
    let samples_n = env_u64("QNP_RUNS", 5_000);
    let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
    let fidelity = 0.95;
    let alpha = physics
        .alpha_for_fidelity(fidelity)
        .expect("0.95 attainable in the lab configuration");
    let p = physics.success_prob(alpha);
    let cycle = physics.cycle_time();

    println!("# Figure 5 — link-pair generation time CDF");
    println!("# fidelity {fidelity}, 2 m fibre, simulation parameters");
    println!(
        "# alpha = {alpha:.5}, p_succ/attempt = {p:.3e}, cycle = {:.3} us",
        cycle.as_micros_f64()
    );

    // Chunked sweep: each chunk draws its samples from its own RNG
    // substream, so the sample set is thread-count independent.
    let mut samples = Samples::new();
    let mut fid_sum = 0.0;
    let mut count = 0u64;
    for chunk_samples in fig5_sweep(250, samples_n, fidelity) {
        for s in chunk_samples {
            samples.push(s.time_ms);
            fid_sum += s.fidelity;
            count += 1;
        }
    }
    let mean_fidelity = fid_sum / count.max(1) as f64;

    println!("#\n# time_ms   fraction_generated");
    for (t, q) in samples.cdf_points(40) {
        println!("{t:9.3}   {q:.4}");
    }
    let mean = samples.mean().unwrap();
    let p95 = samples.percentile(0.95).unwrap();
    let p50 = samples.median().unwrap();
    println!("#\n# mean   = {mean:7.2} ms   (paper: ≈10 ms)");
    println!("# median = {p50:7.2} ms");
    println!("# p95    = {p95:7.2} ms   (paper: ≈30 ms)");
    println!("# mean pair fidelity after one generation wait = {mean_fidelity:.6}");

    assert!(
        (5.0..20.0).contains(&mean),
        "mean drifted outside the Fig 5 anchor window"
    );
    assert!(
        (15.0..60.0).contains(&p95),
        "p95 drifted outside the Fig 5 anchor window"
    );
    println!("# shape check: PASS (geometric CDF, mean and p95 in anchor windows)");

    assert!(
        (0.9..0.96).contains(&mean_fidelity),
        "pairs idling one generation period must stay near F=0.95: {mean_fidelity}"
    );

    let wall_clock_s = wall_start.elapsed().as_secs_f64();
    let mut baseline = Baseline::new("fig5_link_cdf")
        .config_num("samples", samples.len() as f64)
        .config_num("fidelity", fidelity)
        .direction("mean_ms", Direction::LowerIsBetter)
        .direction("median_ms", Direction::LowerIsBetter)
        .direction("p95_ms", Direction::LowerIsBetter)
        .direction("mean_fidelity", Direction::HigherIsBetter)
        .meta_str("qnp_qstate", StateRep::from_env().as_str())
        .meta_num("wall_clock_s", wall_clock_s);
    baseline.point(
        "link_generation_time",
        &[("mean_ms", mean), ("median_ms", p50), ("p95_ms", p95)],
    );
    baseline.point("link_pair_fidelity", &[("mean_fidelity", mean_fidelity)]);
    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, QNP_QSTATE={}, wall-clock {wall_clock_s:.2} s)",
        path.display(),
        threads(),
        StateRep::from_env().as_str(),
    );
}
